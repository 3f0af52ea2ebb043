//! The `momsim` exit-code contract: 0 on success, 2 on usage errors,
//! 1 on runtime failures — exercised over the real binary so scripts
//! (and the CI workflow) can branch on it.

use std::net::TcpListener;
use std::process::{Command, Output};

fn momsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_momsim"))
        .args(args)
        .output()
        .expect("momsim must spawn")
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("momsim must exit, not signal")
}

#[test]
fn usage_errors_exit_2() {
    let out = momsim(&["frobnicate"]);
    assert_eq!(code(&out), 2, "unknown command is a usage error");

    let out = momsim(&["run", "--kernels", "fft"]);
    assert_eq!(code(&out), 2, "unknown kernel is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("idct"),
        "the error lists the valid kernels: {stderr}"
    );

    // `1` and `perfect` are one memory model: the grid would measure the
    // same configuration twice.
    let out = momsim(&[
        "--cold",
        "run",
        "--kernels",
        "idct",
        "--isas",
        "mom",
        "--memory",
        "1,perfect",
    ]);
    assert_eq!(code(&out), 2, "a duplicate configuration is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("config 1 repeats config 0"),
        "the error names both configs: {stderr}"
    );

    let out = momsim(&["serve", "--workers", "0"]);
    assert_eq!(code(&out), 2, "a zero-sized worker pool is a usage error");

    let out = momsim(&["sweep", "--jobs", "0"]);
    assert_eq!(code(&out), 2, "a zero-sized sweep pool is a usage error");

    let out = momsim(&["submit"]);
    assert_eq!(code(&out), 2, "submit needs a name or axes");

    // `submit` checks its submission before connecting: nothing listens on
    // port 1, yet these fail as usage errors naming the vocabulary.
    for (args, expected) in [
        (&["--kernels", "fft"][..], "idct"),
        (
            &["--kernels", "idct", "--isas", "mom", "--widths", "4,4"],
            "config 1 repeats config 0",
        ),
        (&["fig9000"], "fig4"),
    ] {
        let out = momsim(&[&["submit", "--addr", "127.0.0.1:1"][..], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "submit {args:?}: {stderr}");
        assert!(stderr.contains(expected), "submit {args:?}: {stderr}");
    }

    // So does `report`: an unknown name fails before connecting, naming
    // every committed report.
    let out = momsim(&["report", "frobnicate", "--addr", "127.0.0.1:1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 2, "report frobnicate: {stderr}");
    for (report, ..) in momsim::bench::cli::COMMITTED_REPORTS {
        assert!(stderr.contains(report), "names {report}: {stderr}");
    }
}

#[test]
fn successes_exit_0() {
    let out = momsim(&["list"]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fig4"), "the registry lists fig4: {stdout}");

    let out = momsim(&["help"]);
    assert_eq!(code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("serve"),
        "help covers the service: {stdout}"
    );
}

#[test]
fn every_subcommand_prints_its_usage_on_help() {
    for command in [
        "list", "run", "sweep", "bench", "cache", "serve", "submit", "status", "report",
        "shutdown", "stats",
    ] {
        for flag in ["--help", "-h"] {
            let out = momsim(&[command, flag]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(
                code(&out),
                0,
                "momsim {command} {flag}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                stdout.contains(&format!("momsim {command}")),
                "momsim {command} {flag} prints its usage: {stdout}"
            );
        }
    }
    // The client commands also document the shared retry flags.
    let out = momsim(&["submit", "--help"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("--retries"));
}

#[test]
fn runtime_failures_exit_1() {
    // A client pointed at a dead port fails at runtime, not usage.
    // Port 1 (tcpmux) is privileged and nothing in this container binds it.
    let out = momsim(&["submit", "fig4", "--addr", "127.0.0.1:1"]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    // A bare `--sampled` leaves `--wait` a flag: the submission parses,
    // then cannot connect.
    let out = momsim(&[
        "submit",
        "--addr",
        "127.0.0.1:1",
        "--kernels",
        "idct",
        "--isas",
        "mom",
        "--sampled",
        "--wait",
    ]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));

    let out = momsim(&["shutdown", "--addr", "127.0.0.1:1"]);
    assert_eq!(code(&out), 1);

    // A valid report name, committed or a registered experiment, passes
    // the local check and then cannot connect.
    for name in ["fig4", "app-speedups"] {
        let out = momsim(&["report", name, "--addr", "127.0.0.1:1"]);
        assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    }

    // A daemon that cannot bind its address fails at runtime.
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = taken.local_addr().expect("bound").to_string();
    let store = std::env::temp_dir().join(format!("momsim-exit-codes-{}", std::process::id()));
    let out = momsim(&[
        "--store",
        store.to_str().expect("utf8 temp dir"),
        "serve",
        "--addr",
        &addr,
    ]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot bind"), "{stderr}");
    let _ = std::fs::remove_dir_all(store);
}
