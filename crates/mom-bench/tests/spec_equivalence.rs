//! The declarative redesign changes the API, not the numbers: the
//! registered experiment specs must reproduce exactly what the bespoke
//! drivers they replaced measured.

use mom_apps::AppId;
use mom_bench::json::Json;
use mom_bench::{
    fig5_from, find_experiment, simulate_configs, Report, EXPERIMENT_SEED,
    STEADY_STATE_INSTRUCTIONS,
};
use mom_isa::IsaKind;
use mom_kernels::KernelId;
use mom_pipeline::{MemoryModel, PipelineConfig};

/// The registered `fig5` spec measures the same `SimResult`s as a
/// single-point simulation of each coordinate on the 4-way core, for every
/// memory model of the figure.
#[test]
fn registered_fig5_spec_reproduces_the_driver_simresults() {
    // Both sides compute; neither is served from the other's store fills.
    let _cold = mom_store::bypass_guard();
    let grid = find_experiment("fig5")
        .expect("fig5 is registered")
        .spec()
        .expect("fig5 is a grid experiment")
        .run()
        .expect("every kernel verifies");
    assert_eq!(
        grid.points.len(),
        KernelId::ALL.len() * IsaKind::ALL.len() * 4,
        "nine kernels x four ISAs x four memory models"
    );

    let memories = [
        MemoryModel::PERFECT,
        MemoryModel::L2,
        MemoryModel::MAIN_MEMORY,
        MemoryModel::CACHE,
    ];
    // A representative kernel subset keeps the independent re-simulation
    // affordable; the grid itself covers all nine.
    for kernel in [KernelId::Motion1, KernelId::Idct, KernelId::LtpFilt] {
        for isa in IsaKind::ALL {
            for (ci, memory) in memories.into_iter().enumerate() {
                let point = grid.point(kernel, isa, ci).expect("inside the grid");
                let alone = simulate_configs(
                    kernel,
                    isa,
                    &[PipelineConfig::way_with_memory(4, memory)],
                    EXPERIMENT_SEED,
                    STEADY_STATE_INSTRUCTIONS,
                )
                .expect("the kernel verifies")
                .remove(0);
                let label = format!("{kernel}/{isa}/{memory}");
                assert_eq!(point.result.cycles, alone.result.cycles, "{label}");
                assert_eq!(
                    point.result.instructions, alone.result.instructions,
                    "{label}"
                );
                assert_eq!(point.result.operations, alone.result.operations, "{label}");
                assert_eq!(point.result.cache, alone.result.cache, "{label}");
                assert_eq!(point.memory, alone.memory, "{label}");
                assert_eq!(point.invocations, alone.invocations, "{label}");
            }
        }
    }

    // The derived report has the driver's shape: four points per
    // (kernel, ISA) in 1 / 12 / 50 / cache order, normalised to the
    // 1-cycle point.
    let report = fig5_from(&grid).json();
    let rows = report.get("points").and_then(Json::as_arr).expect("points");
    assert_eq!(rows.len(), grid.points.len());
    let field = |row: &Json, key: &str| row.get(key).cloned().expect("a fig5 column");
    for group in rows.chunks(4) {
        let labels: Vec<Json> = group.iter().map(|row| field(row, "memory")).collect();
        assert_eq!(labels, ["1", "12", "50", "cache"].map(Json::str));
        let slowdown = |i: usize| field(&group[i], "slowdown").as_f64().expect("a number");
        assert_eq!(slowdown(0), 1.0, "the 1-cycle point is the base");
        assert!(slowdown(2) >= slowdown(1));
    }
}

/// The registered `app-speedups` experiment measures exactly what the
/// `mom-apps` scenario runner measures at the reference machine, and the
/// derived kernel-region speed-ups preserve the paper's ISA ordering —
/// MOM ≥ MDMX ≥ MMX — for every one of the six applications.
#[test]
fn registered_app_speedups_match_the_scenario_runner_and_pin_the_isa_ordering() {
    let report = find_experiment("app-speedups")
        .expect("app-speedups is registered")
        .run()
        .expect("every application pipeline verifies");
    let Report::Apps(rows) = &report else {
        panic!("app-speedups must derive an Apps report");
    };
    assert_eq!(
        rows.len(),
        AppId::ALL.len() * IsaKind::MEDIA.len(),
        "six applications x three multimedia ISAs"
    );

    // Spec equivalence: the registered experiment is a thin wrapper over
    // the scenario runner — same reference machine, seed and frame count,
    // same cycles to the last bit.
    let direct = mom_apps::app_speedups(
        &mom_apps::reference_config(),
        EXPERIMENT_SEED,
        mom_apps::DEFAULT_FRAMES,
    )
    .expect("the direct runner verifies too");
    assert_eq!(rows.len(), direct.len());
    for (registered, direct) in rows.iter().zip(&direct) {
        let label = format!("{}/{}", registered.app, registered.isa);
        assert_eq!(registered.app, direct.app, "{label}");
        assert_eq!(registered.isa, direct.isa, "{label}");
        assert_eq!(registered.scalar_cycles, direct.scalar_cycles, "{label}");
        assert_eq!(registered.cycles, direct.cycles, "{label}");
        assert_eq!(registered.kernel_speedup, direct.kernel_speedup, "{label}");
        assert_eq!(registered.app_speedup, direct.app_speedup, "{label}");
    }

    for app in AppId::ALL {
        let speedup = |isa: IsaKind| {
            rows.iter()
                .find(|r| r.app == app && r.isa == isa)
                .unwrap_or_else(|| panic!("{app}/{isa} missing from the report"))
        };
        let (mmx, mdmx, mom) = (
            speedup(IsaKind::Mmx),
            speedup(IsaKind::Mdmx),
            speedup(IsaKind::Mom),
        );
        // The paper's ordering on the kernel regions.
        assert!(
            mom.kernel_speedup >= mdmx.kernel_speedup,
            "{app}: MOM ({:.2}) must not trail MDMX ({:.2})",
            mom.kernel_speedup,
            mdmx.kernel_speedup
        );
        assert!(
            mdmx.kernel_speedup >= mmx.kernel_speedup,
            "{app}: MDMX ({:.2}) must not trail MMX ({:.2})",
            mdmx.kernel_speedup,
            mmx.kernel_speedup
        );
        assert!(mmx.kernel_speedup > 1.0, "{app}: every media ISA must win");
        // The Amdahl combination is consistent and bounded by the serial
        // fraction.
        for row in [mmx, mdmx, mom] {
            let expected = mom_apps::amdahl(row.coverage, row.kernel_speedup);
            assert!(
                (row.app_speedup - expected).abs() < 1e-12,
                "{app}/{}: app speed-up {} vs Amdahl {}",
                row.isa,
                row.app_speedup,
                expected
            );
            assert!(row.app_speedup > 1.0);
            assert!(row.app_speedup < row.kernel_speedup);
            assert!(row.app_speedup <= 1.0 / (1.0 - row.coverage) + 1e-12);
        }
    }
}
