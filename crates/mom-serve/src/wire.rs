//! The wire vocabulary: JSON submissions in, JSON job documents out.
//!
//! A submission is either a registered experiment by name
//! (`{"experiment": "fig4"}`) or an ad-hoc grid: an optional `"label"`
//! plus axis keys, which [`GridAxes`] parses exactly as it parses `momsim
//! run`'s flags — a key is a flag without its `--`, and a string value is
//! that flag's operand (`{"widths": "2,4"}` is `--widths 2,4`; an array
//! such as `[2, 4]` holds the same items).  Every value goes through the
//! `FromStr` implementations of the domain types, so a typo produces an
//! error listing the valid names.  From 2^53 up, JSON numbers lose
//! integer precision (2^53 + 1 parses as 2^53), so such numbers are
//! rejected and large seeds travel as decimal strings.  Job documents are
//! built from queue snapshots with the
//! same row emitters the batch reports use ([`mom_bench::point_json`] /
//! [`mom_bench::app_point_json`]), so a streamed row is field-identical to
//! the committed `BENCH_*.json` row of the same point.

use crate::queue::{JobKind, JobSnapshot, UnitResult};
use mom_bench::json::Json;
use mom_bench::spec::GridAxes;
use mom_bench::{find_experiment, ExperimentSpec};

/// A validated submission, ready for the queue.
#[derive(Debug, Clone)]
pub enum JobRequest {
    /// A grid of simulation points.
    Grid {
        /// Display label (the experiment name, a client label, or `ad-hoc`).
        label: String,
        /// The grid to decompose into points.
        spec: ExperimentSpec,
    },
    /// The application-speedup scenario (one composite unit of work).
    Apps {
        /// Display label.
        label: String,
    },
}

/// Parses a submission document into a [`JobRequest`].
pub fn parse_submit(doc: &Json) -> Result<JobRequest, String> {
    let pairs = doc.as_obj().ok_or("a submission must be a JSON object")?;
    if let Some(value) = doc.get("experiment") {
        let name = value.as_str().ok_or("\"experiment\" must be a string")?;
        if pairs.len() != 1 {
            return Err("an \"experiment\" submission takes no other keys".into());
        }
        let experiment = find_experiment(name)?;
        return Ok(match experiment.spec() {
            Some(spec) => JobRequest::Grid {
                label: name.to_string(),
                spec,
            },
            None => JobRequest::Apps {
                label: name.to_string(),
            },
        });
    }

    let mut label = "ad-hoc".to_string();
    let mut axes = GridAxes::default();
    for (key, value) in pairs {
        match key.as_str() {
            "label" => {
                label = value
                    .as_str()
                    .ok_or("\"label\" must be a string")?
                    .to_string();
            }
            axis => axes.apply_json(axis, value)?,
        }
    }
    Ok(JobRequest::Grid {
        label,
        spec: axes.spec()?,
    })
}

/// Renders a queue snapshot as the `GET /jobs/<id>` document: counters,
/// state, per-unit errors, a timing breakdown (dedup, queue wait, simulate
/// and emit milliseconds), and one result row per finished point (rows
/// stream in as the pool completes them; a running job's document simply
/// has fewer rows).
pub fn job_doc(snapshot: &JobSnapshot) -> Json {
    let configs = match &snapshot.kind {
        JobKind::Grid(spec) => spec.configs.len().max(1),
        JobKind::Apps => 1,
    };
    let emit_start = std::time::Instant::now();
    let mut rows = Vec::new();
    for (index, result) in &snapshot.rows {
        match result {
            UnitResult::Point(point) => {
                rows.push(mom_bench::point_json(point, index % configs));
            }
            UnitResult::Apps(table) => {
                rows.extend(table.iter().map(mom_bench::app_point_json));
            }
        }
    }
    let ms = |nanos: u64| Json::Num(nanos as f64 / 1.0e6);
    let timings = Json::obj([
        ("dedup_ms", ms(snapshot.dedup_nanos)),
        ("queue_wait_ms", ms(snapshot.queue_wait_nanos)),
        ("simulate_ms", ms(snapshot.simulate_nanos)),
        ("emit_ms", ms(emit_start.elapsed().as_nanos() as u64)),
    ]);
    Json::obj([
        ("schema", Json::int(1)),
        ("job", Json::Num(snapshot.id as f64)),
        ("label", Json::str(snapshot.label.clone())),
        ("state", Json::str(snapshot.state.name())),
        ("points", Json::Num(snapshot.total as f64)),
        ("completed", Json::Num(snapshot.completed as f64)),
        ("failed", Json::Num(snapshot.failed as f64)),
        ("scheduled", Json::Num(snapshot.scheduled as f64)),
        ("reused", Json::Num(snapshot.reused() as f64)),
        (
            "errors",
            Json::Arr(snapshot.errors.iter().map(Json::str).collect()),
        ),
        ("timings", timings),
        ("rows", Json::Arr(rows)),
    ])
}

/// The one-line `GET /jobs` listing entry of a snapshot.
pub fn job_entry(snapshot: &JobSnapshot) -> Json {
    Json::obj([
        ("job", Json::Num(snapshot.id as f64)),
        ("label", Json::str(snapshot.label.clone())),
        ("state", Json::str(snapshot.state.name())),
        ("points", Json::Num(snapshot.total as f64)),
        ("completed", Json::Num(snapshot.completed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_isa::IsaKind;
    use mom_kernels::KernelId;
    use mom_pipeline::{MemoryModel, PipelineConfig};

    /// The grid variant's parts, as a `Result` so tests can `?`/`unwrap`
    /// with a real error message instead of panicking in a match arm.
    fn as_grid(request: JobRequest) -> Result<(String, ExperimentSpec), String> {
        match request {
            JobRequest::Grid { label, spec } => Ok((label, spec)),
            other => Err(format!("expected a grid, got {other:?}")),
        }
    }

    #[test]
    fn registered_names_resolve_through_the_registry() {
        let doc = Json::obj([("experiment", Json::str("fig4"))]);
        let (label, spec) = as_grid(parse_submit(&doc).unwrap()).unwrap();
        assert_eq!(label, "fig4");
        assert_eq!(spec, find_experiment("fig4").unwrap().spec().unwrap());
        let doc = Json::obj([("experiment", Json::str("app-speedups"))]);
        assert!(matches!(
            parse_submit(&doc).unwrap(),
            JobRequest::Apps { .. }
        ));
        let doc = Json::obj([("experiment", Json::str("fig9000"))]);
        let err = parse_submit(&doc).unwrap_err();
        assert!(err.contains("fig4"), "lists the registry: {err}");
    }

    fn parse_text(body: &str) -> Result<(String, ExperimentSpec), String> {
        as_grid(parse_submit(
            &crate::json::parse(body).map_err(|e| e.to_string())?,
        )?)
    }

    /// The body shapes clients (and the journal, which replays stored
    /// bodies) have always sent keep their spec — except the removed
    /// `"sampled"` key, which is refused in every form it took.
    #[test]
    fn axes_assemble_the_cross_product() {
        let config = PipelineConfig::way_with_memory;
        let latency12 = MemoryModel::Fixed { latency: 12 };
        let cases = [
            (
                r#"{"kernels": ["idct", "motion1"], "isas": "media", "widths": [2, 4],
                    "memory": ["l1l2", 12], "replication": 128}"#,
                ExperimentSpec {
                    kernels: vec![KernelId::Idct, KernelId::Motion1],
                    isas: IsaKind::MEDIA.to_vec(),
                    configs: vec![
                        config(2, MemoryModel::CACHE),
                        config(2, latency12),
                        config(4, MemoryModel::CACHE),
                        config(4, latency12),
                    ],
                    replication: 128,
                    ..ExperimentSpec::default()
                },
            ),
            (
                r#"{"kernels": "all", "isas": "all", "seed": 7}"#,
                ExperimentSpec {
                    configs: vec![config(4, MemoryModel::PERFECT)],
                    seed: 7,
                    ..ExperimentSpec::default()
                },
            ),
            (
                r#"{"kernels": ["addblock"], "isas": ["mom"], "rob": [32], "lanes": [2]}"#,
                ExperimentSpec {
                    kernels: vec![KernelId::AddBlock],
                    isas: vec![IsaKind::Mom],
                    configs: vec![PipelineConfig::builder()
                        .issue_width(4)
                        .rob(32)
                        .lanes(2)
                        .build()
                        .unwrap()],
                    ..ExperimentSpec::default()
                },
            ),
        ];
        for (body, expected) in cases {
            assert_eq!(parse_text(body), Ok(("ad-hoc".into(), expected)), "{body}");
        }
        for body in [
            r#"{"kernels": ["idct", "motion1"], "isas": "media", "widths": [2, 4],
                "memory": ["l1l2", 12], "replication": 128, "sampled": false}"#,
            r#"{"kernels": "all", "isas": "all", "seed": 7, "sampled": true}"#,
            r#"{"kernels": ["addblock"], "isas": ["mom"], "rob": [32], "lanes": [2],
                "sampled": "100:900:20"}"#,
        ] {
            assert_eq!(
                parse_text(body),
                Err(mom_bench::spec::SAMPLED_TIMING_REMOVED.to_string()),
                "{body}"
            );
        }
    }

    #[test]
    fn bad_axes_report_the_vocabulary() {
        let err = parse_submit(&Json::obj([("frobnicate", Json::Null)])).unwrap_err();
        assert!(err.contains("kernels"), "{err}");
        let err =
            parse_submit(&Json::obj([("kernels", Json::Arr(vec![Json::str("fft")]))])).unwrap_err();
        assert!(err.contains("idct"), "lists valid kernels: {err}");
        let err = parse_submit(&Json::str("not an object")).unwrap_err();
        assert!(err.contains("object"), "{err}");
        let err = parse_submit(&Json::obj([
            ("experiment", Json::str("fig4")),
            ("widths", Json::Arr(vec![Json::int(2)])),
        ]))
        .unwrap_err();
        assert!(err.contains("no other keys"), "{err}");
    }

    #[test]
    fn seeds_above_2_53_travel_as_strings() {
        let (_, spec) = parse_text(r#"{"seed": "9007199254740993"}"#).unwrap();
        assert_eq!(spec.seed, 9_007_199_254_740_993);
        // As a number it parses as 2^53 and would alias that seed.
        let err = parse_text(r#"{"seed": 9007199254740993}"#).unwrap_err();
        assert!(
            err.contains("decimal string"),
            "names the string form: {err}"
        );
        let (_, spec) = parse_text(r#"{"seed": 7}"#).unwrap();
        assert_eq!(spec.seed, 7);
    }

    /// `momsim submit` and `momsim run` given the same axis flags: the spec
    /// the daemon derives from the submitted JSON is the spec `run` builds.
    #[test]
    fn submit_and_run_build_the_same_spec() {
        for line in [
            "--kernels all --isas media",
            "--kernels idct,motion1 --isas all --memory 12,l1l2",
            "--isas mom --widths 2,4",
            "--isas mmx --seed 9007199254740993 --replication 64",
            "--kernels idct --isas mom --rob 16,32 --lanes 1,2",
        ] {
            let flags: Vec<String> = line.split_whitespace().map(String::from).collect();
            let (_, axes) = mom_bench::cli::experiment_or_axes(&flags, "run").unwrap();
            let (body, _, _) = crate::cli::submit_args(&flags).unwrap();
            let submitted = parse_text(&body.pretty()).unwrap();
            assert_eq!(submitted, ("ad-hoc".into(), axes.spec().unwrap()), "{line}");
        }
    }
}
