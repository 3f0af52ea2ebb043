//! The service commands of `momsim`: `serve` runs the daemon, and the
//! five clients `submit` / `status` / `report` / `shutdown` / `stats` talk
//! to one over HTTP.  The `momsim` binary dispatches to these beside the
//! batch commands of `mom_bench::cli`, whose [`CliError`] exit-code
//! contract (0 success, 2 usage, 1 runtime failure) they share.  `submit`
//! takes exactly `momsim run`'s axis flags, parsed by the same
//! [`mom_bench::spec::GridAxes`], and validates the submission locally —
//! with the daemon's own [`parse_submit`] — before sending it.

use crate::client::{request_json_with, request_raw_with, RetryPolicy};
use crate::serve::ServeConfig;
use crate::wire::parse_submit;
use mom_bench::cli::{experiment_or_axes, positive, take_flag, take_switch, CliError};
use mom_bench::json::Json;
use std::time::{Duration, Instant};

const DEFAULT_ADDR: &str = "127.0.0.1:5099";

/// Consecutive failed status polls `submit --wait` rides out (a daemon
/// restart takes a few seconds; the job is journalled, so it comes back).
const WAIT_POLL_TOLERANCE: u32 = 10;

/// How long one `submit --wait` long poll asks the daemon to hold the
/// answer while the job runs.
const WAIT_POLL: Duration = Duration::from_secs(10);

fn count(flag: &str, value: &str) -> Result<u32, CliError> {
    value
        .parse()
        .map_err(|e| CliError::Usage(format!("{flag}: {e}")))
}

/// Pops the flags every client command takes (any position): `--addr
/// HOST:PORT` and the resilience flags `--retries N`, `--timeout SECS`,
/// `--backoff MS`.  Returns them with the remaining arguments.
fn client_args(args: &[String]) -> Result<(String, RetryPolicy, Vec<String>), CliError> {
    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let mut policy = RetryPolicy::default();
    if let Some(n) = take_flag(&mut args, "--retries")? {
        policy.retries = count("--retries", &n)?;
    }
    if let Some(secs) = take_flag(&mut args, "--timeout")? {
        policy.timeout = Duration::from_secs(positive("--timeout", &secs)? as u64);
    }
    if let Some(ms) = take_flag(&mut args, "--backoff")? {
        policy.backoff = Duration::from_millis(positive("--backoff", &ms)? as u64);
    }
    Ok((addr, policy, args))
}

/// `momsim serve`: binds the daemon and runs it until `POST /shutdown`
/// drains it.
pub fn serve_command(args: &[String]) -> Result<(), CliError> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => config.addr = value()?.to_string(),
            "--workers" => config.workers = positive("--workers", value()?)?,
            "--queue" => config.queue_limit = positive("--queue", value()?)?,
            "--retries" => config.supervision.retries = count("--retries", value()?)?,
            "--backoff" => {
                config.supervision.backoff =
                    Duration::from_millis(positive("--backoff", value()?)? as u64)
            }
            "--deadline" => {
                config.supervision.deadline =
                    Duration::from_secs(positive("--deadline", value()?)? as u64)
            }
            "--no-journal" => config.journal = false,
            "--inject" => {
                let plan: mom_store::FaultPlan = value()?.parse().map_err(CliError::Usage)?;
                mom_store::faults::install(plan);
            }
            "--log-level" => {
                let level: mom_obs::log::LogLevel = value()?.parse().map_err(CliError::Usage)?;
                mom_obs::set_log_level(level);
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (expected --addr HOST:PORT, --workers N, \
                     --queue N, --retries N, --backoff MS, --deadline SECS, \
                     --no-journal, --inject PLAN, --log-level LEVEL)"
                )))
            }
        }
    }
    if mom_store::faults::is_active() {
        println!("momsim serve: FAULT INJECTION ACTIVE (--inject); not for production use");
        mom_obs::log::warn("serve", "fault injection active (--inject)");
    }
    let server = crate::serve::serve(&config).map_err(|e| match e.kind() {
        // `--cold`: the daemon refuses to run without the store.
        std::io::ErrorKind::Unsupported => CliError::Usage(format!("momsim serve: {e}")),
        _ => CliError::Io(format!("cannot bind {}: {e}", config.addr)),
    })?;
    println!(
        "momsim serve: listening on {} ({} workers, queue limit {})",
        server.addr(),
        config.workers,
        config.queue_limit
    );
    mom_obs::log::info(
        "serve",
        &format!(
            "listening on {} ({} workers, queue limit {})",
            server.addr(),
            config.workers,
            config.queue_limit
        ),
    );
    println!(
        "submit work with: momsim submit --addr {} <experiment> --wait",
        server.addr()
    );
    println!("stop with:        momsim shutdown --addr {}", server.addr());
    // The accept loop exits when POST /shutdown flips the stop flag; a
    // SIGINT instead kills the process without draining (in-flight results
    // are still durable: the store write happens before a unit reports).
    server.join();
    println!("momsim serve: drained and stopped");
    mom_obs::log::info("serve", "drained and stopped");
    Ok(())
}

/// `momsim stats [--addr HOST:PORT]`: with `--addr`, fetches and prints a
/// running daemon's `/metrics` exposition; without, prints this process's
/// own registry (useful after batch commands run in-process).
pub fn stats_command(args: &[String]) -> Result<(), CliError> {
    let remote = args.iter().any(|arg| arg == "--addr");
    let (addr, policy, args) = client_args(args)?;
    if !args.is_empty() {
        return Err(CliError::Usage(
            "momsim stats takes only --addr HOST:PORT and the retry flags".into(),
        ));
    }
    if remote {
        let (status, bytes) = request_raw_with(&addr, "GET", "/metrics", None, &policy)
            .map_err(|e| CliError::Io(e.to_string()))?;
        if status != 200 {
            return Err(CliError::Io(format!("metrics request failed ({status})")));
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| CliError::Io("metrics body is not UTF-8".into()))?;
        print!("{text}");
    } else {
        mom_store::publish_gauges();
        print!("{}", mom_obs::render_prometheus());
    }
    Ok(())
}

/// Parses `momsim submit` arguments into the submission body, `--wait`
/// and `--json PATH`.  The operands are `momsim run`'s
/// ([`mom_bench::cli::experiment_or_axes`]),
/// plus `--label` for an ad-hoc grid.  The body is checked with the
/// daemon's own [`parse_submit`], so a bad axis, grid or experiment name
/// is a usage error here rather than a rejected request.
pub(crate) fn submit_args(args: &[String]) -> Result<(Json, bool, Option<String>), CliError> {
    let mut args = args.to_vec();
    let wait = take_switch(&mut args, "--wait");
    let json = take_flag(&mut args, "--json")?;
    let label = take_flag(&mut args, "--label")?;
    let (experiment, axes) = experiment_or_axes(&args, "submit")?;
    let pairs: Vec<_> = experiment
        .map(|name| ("experiment", Json::str(name)))
        .into_iter()
        .chain(label.map(|label| ("label", Json::str(label))))
        .chain(axes.to_json())
        .collect();
    if pairs.is_empty() {
        return Err(CliError::Usage(
            "momsim submit needs an experiment name or axis flags (see `momsim help`)".into(),
        ));
    }
    let body = Json::obj(pairs);
    parse_submit(&body).map_err(CliError::Usage)?;
    Ok((body, wait, json))
}

fn get_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// `momsim submit`: posts the submission and, with `--wait`, polls the
/// job to completion.
pub fn submit_command(args: &[String]) -> Result<(), CliError> {
    let (addr, policy, args) = client_args(args)?;
    let (body, wait, json_path) = submit_args(&args)?;
    let (status, doc) = request_json_with(
        &addr,
        "POST",
        "/jobs",
        Some(body.pretty().as_bytes()),
        &policy,
    )
    .map_err(|e| CliError::Io(e.to_string()))?;
    if status != 202 {
        return Err(CliError::Io(format!(
            "submission rejected ({status}): {}",
            doc.get("error").and_then(Json::as_str).unwrap_or("?")
        )));
    }
    let job = get_u64(&doc, "job");
    println!(
        "job {job} submitted: {} points ({} scheduled, {} from the store, {} shared)",
        get_u64(&doc, "points"),
        get_u64(&doc, "scheduled"),
        get_u64(&doc, "deduped"),
        get_u64(&doc, "shared"),
    );
    if !wait {
        return Ok(());
    }
    // Each poll is a long poll the daemon answers as soon as the job ends.
    // The loop tolerates a bounded run of failed polls on top of the
    // per-request retries: the job is journalled, so a restarting daemon
    // recovers it under the same id and the wait just resumes.
    let poll_path = format!("/jobs/{job}?wait={}", WAIT_POLL.as_secs());
    let poll_policy = RetryPolicy {
        timeout: policy.timeout.max(WAIT_POLL + Duration::from_secs(10)),
        ..policy
    };
    let mut failed_polls = 0u32;
    loop {
        let asked = Instant::now();
        let poll = request_json_with(&addr, "GET", &poll_path, None, &poll_policy);
        let (status, doc) = match poll {
            Ok(answer) => answer,
            Err(e) => {
                failed_polls += 1;
                if failed_polls > WAIT_POLL_TOLERANCE {
                    return Err(CliError::Io(e.to_string()));
                }
                eprintln!("momsim submit: poll failed ({e}); daemon restarting? retrying");
                std::thread::sleep(Duration::from_millis(500));
                continue;
            }
        };
        if status != 200 {
            failed_polls += 1;
            if failed_polls > WAIT_POLL_TOLERANCE {
                return Err(CliError::Io(format!("job {job} vanished ({status})")));
            }
            std::thread::sleep(Duration::from_millis(500));
            continue;
        }
        failed_polls = 0;
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("?");
        if state == "running" {
            // An early answer for a running job means the daemon is
            // draining: its in-flight units are about to finish.
            if asked.elapsed() < WAIT_POLL {
                std::thread::sleep(Duration::from_millis(100));
            }
            continue;
        }
        let total = get_u64(&doc, "points").max(1);
        let reused = get_u64(&doc, "reused");
        println!(
            "job {job} {state}: {}/{} points, {} computed, {} reused ({}% dedup)",
            get_u64(&doc, "completed"),
            total,
            get_u64(&doc, "scheduled"),
            reused,
            reused * 100 / total,
        );
        if let Some(errors) = doc.get("errors").and_then(Json::as_arr) {
            for error in errors {
                eprintln!("  error: {}", error.as_str().unwrap_or("?"));
            }
        }
        if let Some(path) = &json_path {
            std::fs::write(path, doc.pretty())
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        if state != "done" {
            return Err(CliError::Io(format!("job {job} finished as {state}")));
        }
        return Ok(());
    }
}

/// `momsim status [JOB]`: the job table, or one job's document.
pub fn status_command(args: &[String]) -> Result<(), CliError> {
    let (addr, policy, args) = client_args(args)?;
    match args.first() {
        None => {
            let (status, doc) = request_json_with(&addr, "GET", "/jobs", None, &policy)
                .map_err(|e| CliError::Io(e.to_string()))?;
            if status != 200 {
                return Err(CliError::Io(format!("status request failed ({status})")));
            }
            let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
            if jobs.is_empty() {
                println!("no jobs");
                return Ok(());
            }
            println!(
                "{:>5}  {:<16} {:<10} {:>9}",
                "job", "label", "state", "points"
            );
            for job in jobs {
                println!(
                    "{:>5}  {:<16} {:<10} {:>4}/{}",
                    get_u64(job, "job"),
                    job.get("label").and_then(Json::as_str).unwrap_or("?"),
                    job.get("state").and_then(Json::as_str).unwrap_or("?"),
                    get_u64(job, "completed"),
                    get_u64(job, "points"),
                );
            }
            Ok(())
        }
        Some(id) => {
            if args.len() > 1 {
                return Err(CliError::Usage(
                    "momsim status takes at most one job id".into(),
                ));
            }
            let id: u64 = id
                .parse()
                .map_err(|e| CliError::Usage(format!("bad job id '{id}': {e}")))?;
            let (status, doc) =
                request_json_with(&addr, "GET", &format!("/jobs/{id}"), None, &policy)
                    .map_err(|e| CliError::Io(e.to_string()))?;
            if status != 200 {
                return Err(CliError::Io(format!(
                    "no such job {id} ({})",
                    doc.get("error").and_then(Json::as_str).unwrap_or("?")
                )));
            }
            print!("{}", doc.pretty());
            Ok(())
        }
    }
}

/// `momsim report <name> [--out PATH]`: replays a committed report from
/// the daemon's store.  An unknown name is a usage error, found before
/// connecting.
pub fn report_command(args: &[String]) -> Result<(), CliError> {
    let (addr, policy, args) = client_args(args)?;
    let mut name = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => return Err(CliError::Usage("--out needs a path argument".into())),
            },
            other if !other.starts_with("--") && name.is_none() => name = Some(other.to_string()),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (expected <report>, --out PATH)"
                )))
            }
        }
    }
    let name = name.ok_or_else(|| {
        CliError::Usage(format!(
            "momsim report needs a report name ({})",
            mom_bench::cli::report_names()
        ))
    })?;
    mom_bench::cli::report_experiments(&name).map_err(CliError::Usage)?;
    let (status, bytes) =
        request_raw_with(&addr, "GET", &format!("/reports/{name}"), None, &policy)
            .map_err(|e| CliError::Io(e.to_string()))?;
    if status != 200 {
        let detail = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| crate::json::parse(text).ok())
            .and_then(|doc| doc.get("error").and_then(Json::as_str).map(String::from))
            .unwrap_or_else(|| format!("HTTP {status}"));
        return Err(CliError::Io(format!("report '{name}': {detail}")));
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &bytes)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {path} ({} bytes)", bytes.len());
        }
        None => {
            let text = String::from_utf8(bytes)
                .map_err(|_| CliError::Io("report body is not UTF-8".into()))?;
            print!("{text}");
        }
    }
    Ok(())
}

/// `momsim shutdown`: drains the daemon.
pub fn shutdown_command(args: &[String]) -> Result<(), CliError> {
    let (addr, policy, args) = client_args(args)?;
    if !args.is_empty() {
        return Err(CliError::Usage(
            "momsim shutdown takes only --addr and the retry flags".into(),
        ));
    }
    let (status, doc) = request_json_with(&addr, "POST", "/shutdown", None, &policy)
        .map_err(|e| CliError::Io(e.to_string()))?;
    if status != 200 {
        return Err(CliError::Io(format!("shutdown failed ({status})")));
    }
    println!(
        "daemon draining: {} jobs served, {} units completed, {} queued units dropped",
        get_u64(&doc, "jobs"),
        get_u64(&doc, "completed_units"),
        get_u64(&doc, "dropped_queued"),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A command line, split at whitespace.
    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn addr_extracts_from_any_position() {
        let args = words("fig4 --addr 127.0.0.1:7000 --retries 5 --wait");
        let (addr, policy, rest) = client_args(&args).unwrap();
        assert_eq!(addr, "127.0.0.1:7000");
        assert_eq!(policy.retries, 5);
        assert_eq!(rest, words("fig4 --wait"));
        assert_eq!(client_args(&words("fig4")).unwrap().0, DEFAULT_ADDR);
        for bad in ["--addr", "--timeout 0", "--retries x"] {
            let err = client_args(&words(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad}: {err}");
        }
    }

    #[test]
    fn submit_bodies_cover_both_shapes() {
        let (body, wait, json) = submit_args(&words("fig4 --wait")).unwrap();
        assert_eq!(body, Json::obj([("experiment", Json::str("fig4"))]));
        assert!(wait);
        assert_eq!(json, None);

        let line = "--kernels idct --widths 2,4 --isas media --label mine --json o.json";
        let (body, wait, json) = submit_args(&words(line)).unwrap();
        assert!(!wait);
        assert_eq!(json.as_deref(), Some("o.json"));
        assert_eq!(body.get("label").and_then(Json::as_str), Some("mine"));
        let items = |key| body.get(key).and_then(Json::as_arr).map(<[Json]>::len);
        // The operands' items, as given: `media` stays one word.
        assert_eq!(
            (items("kernels"), items("isas"), items("widths")),
            (Some(1), Some(1), Some(2))
        );

        // Rejected before anything is sent: bad usage, and everything the
        // daemon would reject.
        for bad in [
            "",
            "--wait",
            "--json",
            "--frobnicate x",
            "fig4 --widths 2",
            "fig4 --label x",
            "fig9000",
            "--kernels fft",
            "--kernels idct --widths 4,4",
        ] {
            let err = submit_args(&words(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad}: {err}");
        }
    }
}
