//! Point-level work units for the `momsim serve` daemon.
//!
//! A grid runs one way: [`ExperimentSpec::run`] fans each (kernel, ISA)
//! pair's functional run out over every configuration at once, on as many
//! threads as `--jobs N` asks for.  A job queue deduplicating work across
//! submissions needs a finer handle — it must address, look up and compute
//! **individual points**.  A [`PointJob`] is that handle: it knows its
//! content key in the persistent store ([`PointJob::key`]), can answer "is
//! this already done?" without computing anything ([`PointJob::cached`]),
//! and computes through the same store-fronted [`crate::simulate_configs`]
//! the grid uses ([`PointJob::compute`]), so a point computed by either side
//! is served to the other for free.  [`plan`] decomposes a spec into jobs
//! in grid order; the daemon's workers compute them one at a time.
//!
//! Per-point timing equals fanned-out timing — exact and sampled alike,
//! since consumers are independent and a sampled schedule derives from the
//! stream alone — pinned by `point_jobs_match_the_grid_run`.

use crate::spec::ExperimentSpec;
use crate::{store, ExperimentPoint};
use mom_isa::IsaKind;
use mom_kernels::{KernelError, KernelId};
use mom_pipeline::{PipelineConfig, SamplingConfig};

/// One grid point as a schedulable, content-addressed unit of work.
#[derive(Debug, Clone)]
pub struct PointJob {
    /// The kernel to measure.
    pub kernel: KernelId,
    /// The ISA of the program.
    pub isa: IsaKind,
    /// The machine configuration to time the stream on.
    pub config: PipelineConfig,
    /// Seed of the deterministic synthetic workload.
    pub seed: u64,
    /// Target dynamic-stream length in instructions.
    pub replication: usize,
    /// Systematic-sampling schedule; `None` is exact timing.
    pub sampling: Option<SamplingConfig>,
}

impl PointJob {
    /// The content hash addressing this point in the persistent store —
    /// the dedup identity of the job queue: two submissions overlap exactly
    /// when their [`PointJob`]s share keys.
    pub fn key(&self) -> mom_store::Key {
        store::result_key(
            self.kernel,
            self.isa,
            self.seed,
            &self.config,
            self.replication,
            self.sampling,
        )
    }

    /// The finished point, **if** the persistent store already holds it —
    /// no functional run, no simulation, no fill.  `None` when the store is
    /// inactive or the point is missing.
    pub fn cached(&self) -> Option<ExperimentPoint> {
        crate::stored_point_lookup(self.kernel, self.isa, &self.config, self.key())
    }

    /// Computes the point through the store-fronted fill path (the result
    /// lands in the store), sharing the process-wide functional trace cache
    /// with every other job of the same (kernel, ISA, seed).
    pub fn compute(&self) -> Result<ExperimentPoint, KernelError> {
        let points = crate::simulate_configs(
            self.kernel,
            self.isa,
            std::slice::from_ref(&self.config),
            self.seed,
            self.replication,
            self.sampling,
        )?;
        Ok(points
            .into_iter()
            .next()
            .expect("one config in, one point out"))
    }
}

/// Decomposes a spec into one [`PointJob`] per grid point, in the spec's
/// axis order (kernel-major, then ISA, then configuration) — the same order
/// [`ExperimentSpec::run`] emits points, so `plan(spec)[i]` is point `i` of
/// the grid.
pub fn plan(spec: &ExperimentSpec) -> Vec<PointJob> {
    let mut jobs = Vec::with_capacity(spec.points());
    for &kernel in &spec.kernels {
        for &isa in &spec.isas {
            for config in &spec.configs {
                jobs.push(PointJob {
                    kernel,
                    isa,
                    config: config.clone(),
                    seed: spec.seed,
                    replication: spec.replication,
                    sampling: spec.sampling,
                });
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EXPERIMENT_SEED;

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec {
            kernels: vec![KernelId::AddBlock, KernelId::Motion1],
            isas: vec![IsaKind::Mmx, IsaKind::Mom],
            configs: vec![PipelineConfig::way(2), PipelineConfig::way(4)],
            replication: 64,
            ..ExperimentSpec::default()
        }
    }

    #[test]
    fn plan_matches_grid_order_and_keys_are_distinct() {
        let spec = small_spec();
        let jobs = plan(&spec);
        assert_eq!(jobs.len(), spec.points());
        // Kernel-major, then ISA, then config — the GridResult point order.
        assert_eq!(jobs[0].kernel, KernelId::AddBlock);
        assert_eq!(jobs[0].isa, IsaKind::Mmx);
        assert_eq!(jobs[0].config.width, 2);
        assert_eq!(jobs[1].config.width, 4);
        assert_eq!(jobs[2].isa, IsaKind::Mom);
        assert_eq!(jobs[4].kernel, KernelId::Motion1);
        let mut keys: Vec<_> = jobs.iter().map(PointJob::key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len(), "every point has a distinct key");
        // The key is the result_key of the same coordinate.
        assert_eq!(
            jobs[0].key(),
            store::result_key(
                KernelId::AddBlock,
                IsaKind::Mmx,
                EXPERIMENT_SEED,
                &PipelineConfig::way(2),
                64,
                None
            )
        );
    }

    #[test]
    fn point_jobs_match_the_grid_run() {
        // The daemon computes every submission one point at a time; each
        // point must equal the pair fan-out's, exact and sampled alike.
        // Standard replication, so sampled streams really fast-forward.
        let _cold = mom_store::bypass_guard();
        for sampling in [None, Some(SamplingConfig::DEFAULT)] {
            let spec = ExperimentSpec {
                sampling,
                replication: crate::STEADY_STATE_INSTRUCTIONS,
                ..small_spec()
            };
            let grid = spec.run().unwrap();
            let jobs = plan(&spec);
            assert_eq!(grid.points.len(), jobs.len());
            for (want, job) in grid.points.iter().zip(&jobs) {
                let got = job.compute().unwrap();
                let what = format!("{:?}/{:?}/{}", job.kernel, job.isa, want.width);
                assert_eq!(
                    (got.kernel, got.isa, got.width),
                    (want.kernel, want.isa, want.width)
                );
                assert_eq!(got.result, want.result, "{what} {sampling:?}");
                assert_eq!(got.stats, want.stats, "{what} {sampling:?}");
                assert_eq!(got.invocations, want.invocations, "{what} {sampling:?}");
            }
            let skipped = grid.points.iter().any(|p| {
                p.result
                    .sampled
                    .as_ref()
                    .is_some_and(|e| e.detailed_instructions < p.result.instructions)
            });
            assert_eq!(skipped, sampling.is_some(), "sampling fast-forwards");
        }
    }
}
