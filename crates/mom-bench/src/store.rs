//! The persistent **result store** of the experiment layer: finished grid
//! points keyed by content, so `momsim sweep` is incremental across
//! processes.
//!
//! A grid point is fully determined by (a) the functional trace it times —
//! addressed by [`mom_kernels::trace_content_key`], which covers the
//! disassembled program, kernel, ISA, seed and workload layout — and (b)
//! the **engine fingerprint**: every semantic field of the
//! [`PipelineConfig`] (pools, lanes, ROB, the full cache-hierarchy
//! geometry), the replication target, and
//! [`mom_pipeline::ENGINE_VERSION`].  [`result_key`] hashes all of it, so
//! there is no invalidation protocol: changing the engine's semantics (a
//! version bump), a machine axis, or anything the trace depends on simply
//! addresses different blobs, and a warm store serves byte-identical
//! [`ExperimentPoint`]s without running a single timing simulation.
//! Crucially, an `ENGINE_VERSION` bump invalidates **results only** — the
//! traces' keys do not contain it, so a new engine re-times old traces
//! without re-running the functional simulator.
//!
//! Blobs are encoded with the workspace's hand-rolled little-endian codec
//! ([`mom_store::bytes`]); `f64` fields travel as IEEE bit patterns, so a
//! warm-served report is **byte-identical** to a cold one.  A blob that
//! fails to decode — truncated, stale layout, foreign coordinate — is
//! treated as a miss and recomputed; decoding never panics.

use crate::ExperimentPoint;
use mom_arch::TraceStats;
use mom_isa::{FuClass, IsaKind};
use mom_kernels::{trace_content_key, KernelId};
use mom_pipeline::{
    CacheConfig, FuPool, HierarchyConfig, MemoryModel, PipelineConfig, SimResult, ENGINE_VERSION,
};
use mom_store::{ByteReader, ByteWriter, CodecError, Hasher, Key, NS_RESULT};
use std::convert::Infallible;

/// Version of the result-blob **byte layout** (not of the engine's
/// semantics — that is [`ENGINE_VERSION`]).  Bump when the encoded shape of
/// a point changes; old blobs then fail to decode and are recomputed.
/// Version 2 dropped version 1's sampled-estimate tag byte.
pub const RESULT_CODEC_VERSION: u16 = 2;

// ---------------------------------------------------------------------------
// The engine fingerprint
// ---------------------------------------------------------------------------

fn hash_fu_pool(h: &mut Hasher, pool: &FuPool) {
    h.write_usize(pool.count);
    h.write_u64(pool.latency);
    h.write_bool(pool.pipelined);
}

fn hash_cache_config(h: &mut Hasher, cache: &CacheConfig) {
    h.write_usize(cache.sets);
    h.write_usize(cache.ways);
    h.write_u64(cache.line_bytes);
    h.write_u64(cache.hit_latency);
}

fn hash_memory_model(h: &mut Hasher, memory: &MemoryModel) {
    match memory {
        MemoryModel::Fixed { latency } => {
            h.write_u8(0);
            h.write_u64(*latency);
        }
        MemoryModel::Hierarchy(hierarchy) => {
            h.write_u8(1);
            hash_hierarchy(h, hierarchy);
        }
    }
}

fn hash_hierarchy(h: &mut Hasher, hierarchy: &HierarchyConfig) {
    hash_cache_config(h, &hierarchy.l1);
    hash_cache_config(h, &hierarchy.l2);
    h.write_u64(hierarchy.memory_latency);
}

/// Feeds every semantic field of a machine configuration into a content
/// hash.  Exhaustive over [`PipelineConfig`] — the struct is destructured
/// so adding a field is a compile error here rather than a silently
/// incomplete key.
pub fn config_fingerprint(h: &mut Hasher, config: &PipelineConfig) {
    let PipelineConfig {
        width,
        rob_size,
        media_lanes,
        vec_mem_words,
        memory,
        int_alu,
        int_mul,
        branch,
        mem_port,
        vec_mem_port,
        media_alu,
        media_mul,
        media_pack,
        media_transpose,
    } = config;
    h.write_usize(*width);
    h.write_usize(*rob_size);
    h.write_usize(*media_lanes);
    h.write_usize(*vec_mem_words);
    hash_memory_model(h, memory);
    for pool in [
        int_alu,
        int_mul,
        branch,
        mem_port,
        vec_mem_port,
        media_alu,
        media_mul,
        media_pack,
        media_transpose,
    ] {
        hash_fu_pool(h, pool);
    }
}

/// The content hash addressing one finished grid point: the trace content
/// key of the measured stream × the engine fingerprint (configuration,
/// replication, [`ENGINE_VERSION`]).
///
/// The last parameter only keeps the argument list of the perfbench call
/// sites, which still pass the `None` of the removed sampling schedule;
/// it goes when a change to the benchmark drops those `None`s.
pub fn result_key(
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
    config: &PipelineConfig,
    replication: usize,
    _removed_sampling: Option<Infallible>,
) -> Key {
    result_key_versioned(ENGINE_VERSION, kernel, isa, seed, config, replication)
}

/// [`result_key`] with an explicit engine version — the testing seam for
/// proving that a version bump invalidates stored results.
pub fn result_key_versioned(
    engine_version: u32,
    kernel: KernelId,
    isa: IsaKind,
    seed: u64,
    config: &PipelineConfig,
    replication: usize,
) -> Key {
    let mut h = Hasher::new();
    h.write_str("momsim result");
    h.write_u32(engine_version);
    h.write_key(trace_content_key(kernel, isa, seed));
    config_fingerprint(&mut h, config);
    h.write_usize(replication);
    // Exact timing is the only timing: the literal keeps every key equal
    // to the one written while a sampled schedule could stand here.
    h.write_str("exact");
    h.finish()
}

// ---------------------------------------------------------------------------
// The point codec
// ---------------------------------------------------------------------------

fn put_sim_result(w: &mut ByteWriter, result: &SimResult) {
    w.put_u64(result.cycles);
    w.put_u64(result.instructions);
    w.put_u64(result.operations);
    w.put_u64(result.media_instructions);
    w.put_u64(result.memory_instructions);
    // The busy-cycle map in a canonical order (FuClass declaration order),
    // so encoding is deterministic regardless of HashMap iteration.
    let mut busy: Vec<(u8, u64)> = result
        .fu_busy_cycles
        .iter()
        .map(|(class, cycles)| (class.index() as u8, *cycles))
        .collect();
    busy.sort_unstable();
    w.put_usize(busy.len());
    for (index, cycles) in busy {
        w.put_u8(index);
        w.put_u64(cycles);
    }
    w.put_usize(result.max_rob_occupancy);
    w.put_u64(result.dispatch_stall_cycles);
    w.put_u64(result.cache.l1_hits);
    w.put_u64(result.cache.l1_misses);
    w.put_u64(result.cache.l2_hits);
    w.put_u64(result.cache.l2_misses);
}

fn get_sim_result(r: &mut ByteReader) -> Result<SimResult, CodecError> {
    let mut result = SimResult {
        cycles: r.get_u64("cycles")?,
        instructions: r.get_u64("instructions")?,
        operations: r.get_u64("operations")?,
        media_instructions: r.get_u64("media instructions")?,
        memory_instructions: r.get_u64("memory instructions")?,
        ..SimResult::default()
    };
    let busy = r.get_usize("fu-busy count")?;
    if busy > FuClass::COUNT {
        return Err(CodecError::Invalid(format!(
            "{busy} fu-busy entries for {} classes",
            FuClass::COUNT
        )));
    }
    for _ in 0..busy {
        let index = r.get_u8("fu class")? as usize;
        let class = *FuClass::ALL.get(index).ok_or(CodecError::BadTag {
            what: "fu class",
            tag: index as u8,
        })?;
        let cycles = r.get_u64("fu busy cycles")?;
        result.fu_busy_cycles.insert(class, cycles);
    }
    result.max_rob_occupancy = r.get_usize("max rob occupancy")?;
    result.dispatch_stall_cycles = r.get_u64("dispatch stalls")?;
    result.cache.l1_hits = r.get_u64("l1 hits")?;
    result.cache.l1_misses = r.get_u64("l1 misses")?;
    result.cache.l2_hits = r.get_u64("l2 hits")?;
    result.cache.l2_misses = r.get_u64("l2 misses")?;
    Ok(result)
}

fn put_trace_stats(w: &mut ByteWriter, stats: &TraceStats) {
    let TraceStats {
        instructions,
        operations,
        media_instructions,
        matrix_instructions,
        memory_instructions,
        sum_vlx,
        sum_vly,
    } = stats;
    for field in [
        instructions,
        operations,
        media_instructions,
        matrix_instructions,
        memory_instructions,
        sum_vlx,
        sum_vly,
    ] {
        w.put_u64(*field);
    }
}

fn get_trace_stats(r: &mut ByteReader) -> Result<TraceStats, CodecError> {
    Ok(TraceStats {
        instructions: r.get_u64("stats instructions")?,
        operations: r.get_u64("stats operations")?,
        media_instructions: r.get_u64("stats media")?,
        matrix_instructions: r.get_u64("stats matrix")?,
        memory_instructions: r.get_u64("stats memory")?,
        sum_vlx: r.get_u64("stats vlx")?,
        sum_vly: r.get_u64("stats vly")?,
    })
}

fn get_kernel(r: &mut ByteReader) -> Result<KernelId, CodecError> {
    let name = r.get_str("kernel name")?;
    name.parse()
        .map_err(|_| CodecError::Invalid(format!("unknown kernel '{name}'")))
}

fn get_isa(r: &mut ByteReader) -> Result<IsaKind, CodecError> {
    let name = r.get_str("isa name")?;
    name.parse()
        .map_err(|_| CodecError::Invalid(format!("unknown isa '{name}'")))
}

/// Encodes one finished grid point as a self-describing blob.
pub fn encode_point(point: &ExperimentPoint) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(256);
    w.put_u16(RESULT_CODEC_VERSION);
    w.put_str(point.kernel.name());
    w.put_str(point.isa.name());
    w.put_usize(point.width);
    w.put_u64(point.mem_latency);
    w.put_str(&point.memory);
    w.put_usize(point.invocations);
    put_sim_result(&mut w, &point.result);
    put_trace_stats(&mut w, &point.stats);
    w.into_bytes()
}

/// Decodes a stored grid point.  Any defect — truncation, a stale layout
/// version, trailing bytes, an unknown name — is an error (and therefore a
/// store miss), never a panic.
pub fn decode_point(bytes: &[u8]) -> Result<ExperimentPoint, CodecError> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u16("result codec version")?;
    if version != RESULT_CODEC_VERSION {
        return Err(CodecError::BadVersion {
            what: "result blob",
            got: version as u32,
        });
    }
    let point = ExperimentPoint {
        kernel: get_kernel(&mut r)?,
        isa: get_isa(&mut r)?,
        width: r.get_usize("width")?,
        mem_latency: r.get_u64("memory latency")?,
        memory: r.get_str("memory label")?,
        invocations: r.get_usize("invocations")?,
        result: get_sim_result(&mut r)?,
        stats: get_trace_stats(&mut r)?,
    };
    r.finish()?;
    Ok(point)
}

// ---------------------------------------------------------------------------
// The application-scenario store front
// ---------------------------------------------------------------------------

/// The content hash addressing a whole `app-speedups` scenario result: the
/// engine fingerprint of the reference machine, the seed and frame count,
/// every application's declarative pipeline (phases, invocations,
/// coverage), and the trace content keys of every (phase kernel, ISA) the
/// scenario replays — so a codegen or workload change to any participating
/// kernel re-runs the scenario.
pub fn apps_key(config: &PipelineConfig, seed: u64, frames: usize) -> Key {
    use mom_apps::{AppId, AppSpec};
    let mut h = Hasher::new();
    h.write_str("momsim apps");
    h.write_u32(ENGINE_VERSION);
    config_fingerprint(&mut h, config);
    h.write_u64(seed);
    h.write_usize(frames);
    for &app in AppId::ALL.iter() {
        let spec = AppSpec::of(app);
        h.write_str(app.name());
        h.write_f64(spec.coverage);
        h.write_usize(spec.phases.len());
        for phase in &spec.phases {
            h.write_str(phase.kernel.name());
            h.write_usize(phase.invocations);
            for isa in IsaKind::ALL {
                h.write_key(trace_content_key(phase.kernel, isa, seed));
            }
        }
    }
    h.finish()
}

fn encode_apps(rows: &[mom_apps::AppSpeedup]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 * rows.len());
    w.put_u16(RESULT_CODEC_VERSION);
    w.put_usize(rows.len());
    for row in rows {
        w.put_str(row.app.name());
        w.put_str(row.isa.name());
        w.put_f64(row.coverage);
        w.put_u64(row.scalar_cycles);
        w.put_u64(row.cycles);
        w.put_f64(row.kernel_speedup);
        w.put_f64(row.app_speedup);
    }
    w.into_bytes()
}

fn decode_apps(bytes: &[u8]) -> Result<Vec<mom_apps::AppSpeedup>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u16("apps codec version")?;
    if version != RESULT_CODEC_VERSION {
        return Err(CodecError::BadVersion {
            what: "apps blob",
            got: version as u32,
        });
    }
    let count = r.get_usize("app row count")?;
    if count > bytes.len() {
        return Err(CodecError::Invalid(format!(
            "{count} rows in {} bytes",
            bytes.len()
        )));
    }
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let app = r.get_str("app name")?;
        let app = app
            .parse()
            .map_err(|_| CodecError::Invalid(format!("unknown app '{app}'")))?;
        rows.push(mom_apps::AppSpeedup {
            app,
            isa: get_isa(&mut r)?,
            coverage: r.get_f64("coverage")?,
            scalar_cycles: r.get_u64("scalar cycles")?,
            cycles: r.get_u64("cycles")?,
            kernel_speedup: r.get_f64("kernel speedup")?,
            app_speedup: r.get_f64("app speedup")?,
        });
    }
    r.finish()?;
    Ok(rows)
}

/// [`mom_apps::app_speedups`] behind the result store: a warm store serves
/// the whole scenario — all six applications, every ISA — without building
/// a single timing simulation.  Errors are never stored.
pub fn stored_app_speedups(
    config: &PipelineConfig,
    seed: u64,
    frames: usize,
) -> Result<Vec<mom_apps::AppSpeedup>, mom_apps::AppError> {
    let store = mom_store::global();
    if !store.is_active() {
        return mom_apps::app_speedups(config, seed, frames);
    }
    if let Some(rows) = cached_app_speedups(config, seed, frames) {
        return Ok(rows);
    }
    let rows = mom_apps::app_speedups(config, seed, frames)?;
    store.put(
        NS_RESULT,
        apps_key(config, seed, frames),
        encode_apps(&rows),
    );
    Ok(rows)
}

/// The stored application-speedup table, **if** the persistent store
/// already holds it — no simulation, no fill.  `None` when the store is
/// inactive or the blob is missing or undecodable.  This is how the job
/// daemon answers "is this scenario already done?" at submit time.
pub fn cached_app_speedups(
    config: &PipelineConfig,
    seed: u64,
    frames: usize,
) -> Option<Vec<mom_apps::AppSpeedup>> {
    let store = mom_store::global();
    if !store.is_active() {
        return None;
    }
    let bytes = store.get(NS_RESULT, apps_key(config, seed, frames))?;
    decode_apps(&bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EXPERIMENT_SEED;

    fn sample_point() -> ExperimentPoint {
        let mut result = SimResult {
            cycles: 1234,
            instructions: 987,
            operations: 4321,
            media_instructions: 300,
            memory_instructions: 150,
            max_rob_occupancy: 61,
            dispatch_stall_cycles: 17,
            ..SimResult::default()
        };
        result.cache.l1_hits = 90;
        result.cache.l1_misses = 10;
        result.cache.l2_hits = 7;
        result.cache.l2_misses = 3;
        result.fu_busy_cycles.insert(FuClass::MediaAlu, 400);
        result.fu_busy_cycles.insert(FuClass::IntAlu, 200);
        ExperimentPoint {
            kernel: KernelId::Idct,
            isa: IsaKind::Mom,
            width: 4,
            mem_latency: 1,
            memory: "cache".into(),
            invocations: 13,
            result,
            stats: TraceStats {
                instructions: 987,
                operations: 4321,
                media_instructions: 300,
                matrix_instructions: 120,
                memory_instructions: 150,
                sum_vlx: 2400,
                sum_vly: 960,
            },
        }
    }

    #[test]
    fn point_round_trips_exactly() {
        let point = sample_point();
        let decoded = decode_point(&encode_point(&point)).unwrap();
        assert_eq!(decoded.kernel, point.kernel);
        assert_eq!(decoded.isa, point.isa);
        assert_eq!(decoded.width, point.width);
        assert_eq!(decoded.memory, point.memory);
        assert_eq!(decoded.invocations, point.invocations);
        assert_eq!(decoded.result, point.result);
        assert_eq!(decoded.stats, point.stats);
    }

    #[test]
    fn truncated_or_oversized_blobs_are_errors_not_panics() {
        let bytes = encode_point(&sample_point());
        for len in 0..bytes.len() {
            assert!(decode_point(&bytes[..len]).is_err(), "prefix {len}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_point(&trailing),
            Err(CodecError::TrailingBytes { .. })
        ));
        let mut wrong_version = bytes;
        wrong_version[0] ^= 0xFF;
        assert!(matches!(
            decode_point(&wrong_version),
            Err(CodecError::BadVersion { .. })
        ));
    }

    #[test]
    fn a_version_1_blob_is_a_miss_and_the_fill_overwrites_it() {
        let _lock = crate::tests::store_lock();
        let store = mom_store::global();
        let (kernel, isa, seed, replication) = (KernelId::AddBlock, IsaKind::Mom, 0x0DD1, 64);
        let config = PipelineConfig::way(2);
        let key = result_key(kernel, isa, seed, &config, replication, None);
        // Version 1 wrote an exact point as today's bytes plus a zero
        // sampled-estimate tag between the cache counters and the seven
        // trace-stat words.
        let mut old = encode_point(&sample_point());
        old[..2].copy_from_slice(&1u16.to_le_bytes());
        old.insert(old.len() - 7 * 8, 0);
        assert!(matches!(
            decode_point(&old),
            Err(CodecError::BadVersion { got: 1, .. })
        ));
        store.put(NS_RESULT, key, old);
        assert!(
            crate::stored_point_lookup(kernel, isa, &config, key).is_none(),
            "a version-1 payload must not be served"
        );
        let filled = crate::simulate_configs(
            kernel,
            isa,
            std::slice::from_ref(&config),
            seed,
            replication,
        )
        .unwrap()
        .remove(0);
        let rewritten = store
            .get_disk(NS_RESULT, key)
            .expect("the fill writes a blob");
        assert_eq!(rewritten[..2], RESULT_CODEC_VERSION.to_le_bytes());
        let served = crate::stored_point_lookup(kernel, isa, &config, key)
            .expect("the rewritten blob is served");
        assert_eq!(served.result, filled.result);
        assert_eq!(served.stats, filled.stats);
    }

    #[test]
    fn result_keys_cover_every_engine_axis() {
        let config = PipelineConfig::way(4);
        let base = result_key(
            KernelId::Idct,
            IsaKind::Mom,
            EXPERIMENT_SEED,
            &config,
            4000,
            None,
        );
        // Same inputs, same key.
        assert_eq!(
            base,
            result_key(
                KernelId::Idct,
                IsaKind::Mom,
                EXPERIMENT_SEED,
                &config,
                4000,
                None
            )
        );
        // Every axis separates.
        let mut other = config.clone();
        other.rob_size += 1;
        for different in [
            result_key(
                KernelId::Motion1,
                IsaKind::Mom,
                EXPERIMENT_SEED,
                &config,
                4000,
                None,
            ),
            result_key(
                KernelId::Idct,
                IsaKind::Mmx,
                EXPERIMENT_SEED,
                &config,
                4000,
                None,
            ),
            result_key(
                KernelId::Idct,
                IsaKind::Mom,
                EXPERIMENT_SEED + 1,
                &config,
                4000,
                None,
            ),
            result_key(
                KernelId::Idct,
                IsaKind::Mom,
                EXPERIMENT_SEED,
                &other,
                4000,
                None,
            ),
            result_key(
                KernelId::Idct,
                IsaKind::Mom,
                EXPERIMENT_SEED,
                &config,
                4001,
                None,
            ),
        ] {
            assert_ne!(base, different);
        }
    }

    #[test]
    fn result_key_bytes_are_pinned() {
        let key = result_key(
            KernelId::Idct,
            IsaKind::Mom,
            EXPERIMENT_SEED,
            &PipelineConfig::way(4),
            4000,
            None,
        );
        assert_eq!(
            key.to_hex(),
            "9d491ce83ca956d9ce9a9249bd9bd745",
            "the result-key byte stream changed: this cold-starts every user's \
             artifact store, so it must ship with an ENGINE_VERSION bump or a \
             deliberate codec decision, not as a side effect"
        );
    }

    #[test]
    fn engine_version_bump_invalidates_results_but_not_traces() {
        let config = PipelineConfig::way(4);
        let current = result_key_versioned(
            ENGINE_VERSION,
            KernelId::Idct,
            IsaKind::Mom,
            EXPERIMENT_SEED,
            &config,
            4000,
        );
        let bumped = result_key_versioned(
            ENGINE_VERSION + 1,
            KernelId::Idct,
            IsaKind::Mom,
            EXPERIMENT_SEED,
            &config,
            4000,
        );
        assert_ne!(current, bumped, "a version bump must re-address results");
        // The trace key is engine-agnostic: bumping the engine re-times old
        // traces without re-running the functional simulator.
        assert_eq!(
            trace_content_key(KernelId::Idct, IsaKind::Mom, EXPERIMENT_SEED),
            trace_content_key(KernelId::Idct, IsaKind::Mom, EXPERIMENT_SEED),
        );
    }

    #[test]
    fn memory_models_fingerprint_differently() {
        let mut perfect = Hasher::new();
        hash_memory_model(&mut perfect, &MemoryModel::PERFECT);
        let mut cache = Hasher::new();
        hash_memory_model(&mut cache, &MemoryModel::CACHE);
        assert_ne!(perfect.finish(), cache.finish());
        // Hierarchy geometry is part of the fingerprint, not just the label.
        let mut tweaked = HierarchyConfig::DEFAULT;
        tweaked.l2.ways *= 2;
        let mut h = Hasher::new();
        hash_memory_model(&mut h, &MemoryModel::Hierarchy(tweaked));
        assert_ne!(cache.finish(), h.finish());
    }

    #[test]
    fn apps_blob_round_trips() {
        let rows = vec![mom_apps::AppSpeedup {
            app: mom_apps::AppId::ALL[0],
            isa: IsaKind::Mom,
            coverage: 0.75,
            scalar_cycles: 100_000,
            cycles: 25_000,
            kernel_speedup: 4.0,
            app_speedup: 2.2857142857142856,
        }];
        let decoded = decode_apps(&encode_apps(&rows)).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].app, rows[0].app);
        assert_eq!(decoded[0].isa, rows[0].isa);
        assert_eq!(decoded[0].coverage.to_bits(), rows[0].coverage.to_bits());
        assert_eq!(decoded[0].cycles, rows[0].cycles);
        assert_eq!(
            decoded[0].app_speedup.to_bits(),
            rows[0].app_speedup.to_bits()
        );
        assert!(decode_apps(&encode_apps(&rows)[..7]).is_err());
    }
}
