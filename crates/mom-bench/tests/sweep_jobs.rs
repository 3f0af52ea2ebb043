//! Threaded-sweep determinism: `momsim sweep --jobs N` must emit every
//! report document byte-identically to the default sweep, for any worker
//! count — one thread included.  The store is bypassed so every run
//! actually computes — this pins the pair fan-out's result ordering, not
//! the store's replay.

use mom_bench::cli::sweep_documents;

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
    assert!(!single.is_empty(), "the sweep emits documents");
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
