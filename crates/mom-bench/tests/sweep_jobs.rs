//! Threaded-sweep determinism: `momsim sweep --jobs N` must emit every
//! report document byte-identically to the default sweep, for any worker
//! count — one thread included.  The store is bypassed so every run
//! actually computes — this pins the pair fan-out's result ordering, not
//! the store's replay.

use mom_bench::cli::{sweep_documents, COMMITTED_REPORTS};

fn rendered_sweep(jobs: Option<usize>) -> Vec<(String, String)> {
    sweep_documents(jobs)
        .expect("sweep must succeed")
        .into_iter()
        .map(|(name, doc, _points)| (name.to_string(), doc.pretty()))
        .collect()
}

#[test]
fn threaded_sweeps_emit_identical_bytes() {
    let _bypass = mom_store::bypass_guard();
    let single = rendered_sweep(None);
    let files: Vec<&str> = single.iter().map(|(name, _)| name.as_str()).collect();
    let catalogue: Vec<&str> = COMMITTED_REPORTS.map(|(_, file, _)| file).to_vec();
    assert_eq!(
        files, catalogue,
        "the catalogue's files, in catalogue order"
    );
    // Nothing registered is left out of the sweep, or written twice.
    for experiment in mom_bench::registry() {
        let homes = COMMITTED_REPORTS
            .iter()
            .filter(|(_, _, experiments)| experiments.contains(&experiment.name))
            .count();
        assert_eq!(
            homes, 1,
            "{} is in exactly one committed report",
            experiment.name
        );
    }
    for jobs in [1, 2, 3] {
        let threaded = rendered_sweep(Some(jobs));
        assert_eq!(
            single.len(),
            threaded.len(),
            "--jobs {jobs} emits the same document set"
        );
        for ((name, want), (threaded_name, got)) in single.iter().zip(&threaded) {
            assert_eq!(name, threaded_name);
            assert_eq!(
                want, got,
                "{name} must be byte-identical under --jobs {jobs}"
            );
        }
    }
}
