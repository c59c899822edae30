//! End-to-end integration: the MPEG-4 VTC case study, plus cross-pool-kind
//! comparisons the canned axes do not cover (arena / segregated / buddy
//! fallbacks on a phase-structured workload).

use dmx_alloc::{
    AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, PoolKind, PoolSpec, Route, Simulator,
    SplitPolicy,
};
use dmx_core::study::{vtc_study, vtc_trace, StudyScale};
use dmx_core::{Explorer, Objective};
use dmx_memhier::presets;
use dmx_trace::TraceStats;

#[test]
fn vtc_story_matches_paper_shape() {
    let study = vtc_study(StudyScale::Quick, 42);
    let s = &study.summary;
    // Large energy lever, small time lever (paper: 82.4% vs 5.4%).
    assert!(
        s.energy_saving_pct > 30.0,
        "energy {:.1}%",
        s.energy_saving_pct
    );
    assert!(
        s.exec_time_saving_pct < 20.0,
        "time {:.1}%",
        s.exec_time_saving_pct
    );
    assert!(s.energy_saving_pct > 3.0 * s.exec_time_saving_pct);
}

#[test]
fn vtc_trace_is_phase_structured() {
    let trace = vtc_trace(StudyScale::Quick, 42);
    let stats = TraceStats::compute(&trace);
    // The zerotree node size dominates allocations.
    assert_eq!(stats.dominant_sizes(1), vec![32]);
    // Everything is torn down at image boundaries.
    assert_eq!(trace.final_live_bytes(), 0);
    // Compute dominates: tick cycles are large vs allocator op count.
    assert!(stats.tick_cycles > 100 * (stats.allocs + stats.frees));
}

fn with_fallback(kind: PoolKind) -> AllocatorConfig {
    let hier = presets::sp64k_dram4m();
    AllocatorConfig {
        pools: vec![
            PoolSpec::fixed(32, hier.fastest()),
            PoolSpec {
                route: Route::Fallback,
                kind,
                level: hier.slowest(),
            },
        ],
    }
}

#[test]
fn alternative_fallback_pools_all_serve_vtc() {
    let hier = presets::sp64k_dram4m();
    let trace = vtc_trace(StudyScale::Quick, 42);
    let sim = Simulator::new(&hier);

    let kinds: Vec<(&str, PoolKind)> = vec![
        (
            "general",
            PoolKind::General {
                fit: FitPolicy::BestFit,
                order: FreeOrder::AddressOrdered,
                coalesce: CoalescePolicy::Immediate,
                split: SplitPolicy::MinRemainder(16),
                align: 8,
                chunk_bytes: 16384,
            },
        ),
        (
            "segregated",
            PoolKind::Segregated {
                min_class: 16,
                max_class: 8192,
                chunk_bytes: 16384,
            },
        ),
        (
            "buddy",
            PoolKind::Buddy {
                min_order: 5,
                max_order: 17,
            },
        ),
        ("arena", PoolKind::Region { chunk_bytes: 32768 }),
    ];
    for (name, kind) in kinds {
        let m = sim.run(&with_fallback(kind), &trace).unwrap();
        assert!(m.feasible(), "{name} fallback failed allocations");
        assert_eq!(m.allocs, m.frees, "{name}: every alloc freed");
    }
}

#[test]
fn arena_fallback_shines_on_phase_structured_lifetimes() {
    // VTC frees everything at phase ends — the arena's best case. Its
    // *allocator metadata* traffic must beat a scanning general pool.
    let hier = presets::sp64k_dram4m();
    let trace = vtc_trace(StudyScale::Quick, 42);
    let sim = Simulator::new(&hier);

    let arena = sim
        .run(
            &with_fallback(PoolKind::Region { chunk_bytes: 32768 }),
            &trace,
        )
        .unwrap();
    let scanning = sim
        .run(
            &with_fallback(PoolKind::General {
                fit: FitPolicy::BestFit,
                order: FreeOrder::Fifo,
                coalesce: CoalescePolicy::Never,
                split: SplitPolicy::MinRemainder(16),
                align: 8,
                chunk_bytes: 16384,
            }),
            &trace,
        )
        .unwrap();
    assert!(
        arena.meta_counters.total_accesses() < scanning.meta_counters.total_accesses(),
        "arena {} vs scanning general {}",
        arena.meta_counters.total_accesses(),
        scanning.meta_counters.total_accesses()
    );
}

#[test]
fn node_pool_placement_is_the_energy_lever() {
    // Moving only the 32-byte zerotree-node pool between DRAM and the
    // scratchpad must move total energy substantially.
    let hier = presets::sp64k_dram4m();
    let trace = vtc_trace(StudyScale::Quick, 42);
    let sim = Simulator::new(&hier);

    let mut on_dram = AllocatorConfig::paper_example(&hier);
    on_dram.pools[0] = PoolSpec::fixed(32, hier.slowest());
    let mut on_sp = AllocatorConfig::paper_example(&hier);
    on_sp.pools[0] = PoolSpec::fixed(32, hier.fastest());

    let m_dram = sim.run(&on_dram, &trace).unwrap();
    let m_sp = sim.run(&on_sp, &trace).unwrap();
    assert!(m_dram.feasible() && m_sp.feasible());
    assert!(
        m_sp.energy_pj * 2 < m_dram.energy_pj,
        "sp {} vs dram {} pJ — node placement must halve energy",
        m_sp.energy_pj,
        m_dram.energy_pj
    );
}

#[test]
fn explicit_config_list_exploration_works() {
    // run_configs (the API behind custom spaces) agrees with run().
    let hier = presets::sp64k_dram4m();
    let trace = vtc_trace(StudyScale::Quick, 8);
    let configs: Vec<AllocatorConfig> = dmx_core::study::vtc_space(&hier, StudyScale::Quick)
        .iter_configs(&hier)
        .collect();
    let n = configs.len();
    let exploration = Explorer::new(&hier).run_configs(configs, &trace).unwrap();
    assert_eq!(exploration.results.len(), n);
    let front = exploration.pareto(&[Objective::EnergyPj, Objective::Cycles]);
    assert!(!front.is_empty());
}
