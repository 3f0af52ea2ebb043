//! The unified experiment CLI: list registered experiments, run any
//! registered or ad-hoc scenario grid, regenerate the `BENCH_*.json`
//! reports, measure the simulator's own performance, run the job-queue
//! simulation daemon, or talk to one.
//!
//! Usage (see `momsim help`):
//!
//! ```text
//! momsim list
//! momsim run fig5 --json BENCH_fig5.json
//! momsim run --kernels idct,motion1 --isas mom,mdmx --widths 1,2,4,8 --memory l1l2
//! momsim sweep --out-dir . --jobs 4
//! momsim bench --json BENCH_perf.json
//! momsim serve --workers 4 &
//! momsim submit fig4 --wait
//! momsim report fig4 --out BENCH_fig4.json
//! momsim stats --addr 127.0.0.1:5099
//! momsim shutdown
//! ```
//!
//! The batch commands live in `mom_bench::cli`, the service commands in
//! `mom_serve::cli`; both honour the global `--store DIR` / `--cold`
//! flags and the shared exit-code contract (0 success, 2 usage, 1
//! runtime failure).

/// The first argument that is a subcommand token, skipping the global
/// store and observability flags (`momsim --store DIR serve` must still
/// dispatch to the service side).
fn subcommand(args: &[String]) -> Option<&str> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" | "--trace-out" => {
                let _value = it.next();
            }
            "--cold" | "--stats" => {}
            other => return Some(other),
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = subcommand(&args);
    // `momsim <command> --help` (or `-h`) prints that command's usage.
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        if let Some(usage) = command.and_then(mom_bench::cli::command_usage) {
            print!("{usage}");
            std::process::exit(0);
        }
    }
    let code = match command {
        Some("serve" | "submit" | "status" | "report" | "shutdown" | "stats") => {
            momsim::serve::cli::cli_main()
        }
        _ => mom_bench::cli::momsim_main(),
    };
    std::process::exit(code);
}
