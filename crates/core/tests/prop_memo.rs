//! Differential tests for the pool memo.
//!
//! One evaluation worker keeps one [`PoolMemo`] per workload for a whole
//! search and serves every pool it has simulated before from it. These
//! tests drive such a memo through random sequences of configurations —
//! odometer genomes and grammar derivations, including range-routed
//! mid-tiers — over suite traces and random traces, and pin every replay
//! byte-identical to the reference interpreter
//! ([`Simulator::run_reference`]), which shares no code with the memo.
//!
//! Two stressors make the memo's reruns fire: a platform with a tiny
//! scratchpad, where dedicated pools that fit alone overrun the level
//! together (a capacity rerun), and a range-routed buddy whose largest
//! block is below its range, which refuses requests the memoized
//! fallback never saw (a spill rerun).

use std::sync::Arc;

use proptest::prelude::*;

use dmx_alloc::{
    AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, PoolKind, PoolMemo, PoolSpec, Route,
    SimArena, Simulator, SplitPolicy,
};
use dmx_core::{GenomeSpace, GrammarSpace, ParamSpace, ScenarioSuite};
use dmx_memhier::{presets, LevelKind, MemoryHierarchy, MemoryLevel};
use dmx_trace::{BlockId, CompiledTrace, Trace, TraceEvent, TraceStats};

/// A platform whose 4 KiB scratchpad holds one or two dedicated-pool
/// chunks, not all of them.
fn tiny_scratchpad() -> MemoryHierarchy {
    MemoryHierarchy::new(vec![
        MemoryLevel::builder("sp4k", LevelKind::Scratchpad)
            .capacity(4096)
            .read_energy_pj(2)
            .write_energy_pj(2)
            .read_latency(1)
            .write_latency(1)
            .build(),
        MemoryLevel::builder("dram", LevelKind::Dram)
            .capacity(4 << 20)
            .read_energy_pj(20)
            .write_energy_pj(24)
            .read_latency(10)
            .write_latency(12)
            .build(),
    ])
    .expect("valid hierarchy")
}

/// A well-formed random trace: a few hot sizes (so dedicated pools
/// matter) among random ones, frees of random live blocks, accesses and
/// ticks, and some blocks left live at the end.
fn random_trace(script: &[(u8, u32)]) -> Trace {
    const HOT: [u32; 4] = [24, 74, 200, 1500];
    let mut events = Vec::new();
    let mut live: Vec<u64> = Vec::new();
    let mut next = 0u64;
    for &(op, arg) in script {
        match op % 4 {
            0 | 1 => {
                let size = if op % 4 == 0 {
                    HOT[arg as usize % HOT.len()]
                } else {
                    1 + arg % 3000
                };
                events.push(TraceEvent::alloc(BlockId(next), size));
                if arg % 3 == 0 {
                    events.push(TraceEvent::access(BlockId(next), arg % 7 + 1, arg % 5));
                }
                live.push(next);
                next += 1;
            }
            2 if !live.is_empty() => {
                let id = live.swap_remove(arg as usize % live.len());
                events.push(TraceEvent::free(BlockId(id)));
            }
            _ => events.push(TraceEvent::tick(arg % 50)),
        }
    }
    for id in live.into_iter().step_by(2) {
        events.push(TraceEvent::free(BlockId(id)));
    }
    Trace::from_events("random", events).expect("well-formed by construction")
}

/// The stressor configurations: dedicated pools that share the tiny
/// scratchpad (one chunk of the 24-byte pool, 1920 bytes, and one of the
/// 74-byte pool, 2432 bytes, fit it alone but not together), and a
/// range-routed buddy whose largest block (256 bytes) is below its
/// range, next to one that covers it.
fn stressors(hierarchy: &MemoryHierarchy) -> Vec<AllocatorConfig> {
    let (fast, slow) = (hierarchy.fastest(), hierarchy.slowest());
    let general = PoolSpec::general(
        slow,
        FitPolicy::FirstFit,
        FreeOrder::Lifo,
        CoalescePolicy::Immediate,
        SplitPolicy::MinRemainder(16),
    );
    let fixed = |size: u32, chunk_blocks: u32| PoolSpec {
        route: Route::Exact(size),
        kind: PoolKind::Fixed {
            block_size: size,
            chunk_blocks,
        },
        level: fast,
    };
    let buddy = |max_order: u32| PoolSpec {
        route: Route::Range { min: 1, max: 2048 },
        kind: PoolKind::Buddy {
            min_order: 5,
            max_order,
        },
        level: slow,
    };
    vec![
        AllocatorConfig {
            pools: vec![fixed(24, 80), general.clone()],
        },
        AllocatorConfig {
            pools: vec![fixed(74, 32), general.clone()],
        },
        AllocatorConfig {
            pools: vec![fixed(24, 80), fixed(74, 32), general.clone()],
        },
        AllocatorConfig {
            pools: vec![fixed(24, 80), fixed(74, 32), fixed(200, 4), general.clone()],
        },
        AllocatorConfig {
            pools: vec![buddy(12), general.clone()],
        },
        AllocatorConfig {
            pools: vec![buddy(8), general],
        },
    ]
}

/// A workload under test: its platform, source trace and compilation.
struct Workload {
    hierarchy: MemoryHierarchy,
    trace: Trace,
    compiled: Arc<CompiledTrace>,
}

impl Workload {
    fn new(hierarchy: MemoryHierarchy, trace: Trace) -> Self {
        let compiled = CompiledTrace::compile_shared(&trace);
        Workload {
            hierarchy,
            trace,
            compiled,
        }
    }

    /// The candidate configurations: odometer genomes and grammar
    /// derivations of the space suggested for this trace, picked by the
    /// `picks`, followed by the stressors.
    fn candidates(&self, picks: &[(bool, u64)]) -> Vec<AllocatorConfig> {
        let odometer = ParamSpace::suggest(&TraceStats::compute(&self.trace), &self.hierarchy);
        let grammar = GrammarSpace::covering(&odometer);
        let mut configs: Vec<AllocatorConfig> = picks
            .iter()
            .map(|&(use_grammar, pick)| {
                let space: &dyn GenomeSpace = if use_grammar { &grammar } else { &odometer };
                let genome = space.genome_at(pick as usize % space.len());
                space.config_at(&self.hierarchy, &genome)
            })
            .collect();
        configs.extend(stressors(&self.hierarchy));
        configs
    }

    /// Replays `order` (indices into `configs`) through one arena and
    /// one memo, checking every replay against the reference.
    fn check(&self, configs: &[AllocatorConfig], order: &[usize]) -> PoolMemo {
        let sim = Simulator::new(&self.hierarchy);
        let mut arena = SimArena::new();
        let mut memo = PoolMemo::new(&self.hierarchy, &self.compiled);
        for (step, &i) in order.iter().enumerate() {
            let config = &configs[i % configs.len()];
            let reference = sim.run_reference(config, &self.trace).unwrap();
            let got = sim
                .run_memo(config, &self.compiled, &mut arena, &mut memo)
                .unwrap();
            prop_assert_eq!(
                &got,
                &reference,
                "replay {} diverges from the reference for {}",
                step,
                config.label()
            );
        }
        prop_assert_eq!(arena.runs(), order.len() as u64, "a rerun is not a run");
        memo
    }
}

fn suite_workloads() -> Vec<Workload> {
    let suite = ScenarioSuite::builtin("embedded-mix").expect("built-in suite");
    suite
        .materialize(3)
        .into_iter()
        .map(|m| Workload::new(m.hierarchy.clone(), m.trace.clone()))
        .collect()
}

fn any_picks() -> impl Strategy<Value = Vec<(bool, u64)>> {
    prop::collection::vec((any::<bool>(), any::<u64>()), 4..10)
}

fn any_order() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..64, 8..28)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Suite traces on their own platforms and on the tiny scratchpad:
    /// every memo replay equals the reference, whatever was memoized
    /// before it.
    #[test]
    fn memo_matches_reference_on_suite_traces(
        scenario in 0usize..6,
        tiny in any::<bool>(),
        picks in any_picks(),
        order in any_order(),
    ) {
        let mut workloads = suite_workloads();
        let mut workload = workloads.swap_remove(scenario % workloads.len());
        if tiny {
            workload = Workload::new(tiny_scratchpad(), workload.trace);
        }
        let configs = workload.candidates(&picks);
        workload.check(&configs, &order);
    }

    /// Random traces, on the default and the tiny-scratchpad platform.
    #[test]
    fn memo_matches_reference_on_random_traces(
        script in prop::collection::vec((any::<u8>(), any::<u32>()), 20..400),
        tiny in any::<bool>(),
        picks in any_picks(),
        order in any_order(),
    ) {
        let hierarchy = if tiny { tiny_scratchpad() } else { presets::sp64k_dram4m() };
        let workload = Workload::new(hierarchy, random_trace(&script));
        let configs = workload.candidates(&picks);
        workload.check(&configs, &order);
    }
}

/// The stressors really exercise both reasons to rerun: on the tiny
/// scratchpad, dedicated pools memoized alone overrun the level when
/// combined, and the undersized buddy spills past a memoized fallback.
/// Every replay still equals the reference.
#[test]
fn both_rerun_causes_fire_and_stay_exact() {
    // Ten rounds of at most 20 live 24-byte and 20 live 74-byte blocks
    // (one chunk of each dedicated pool) plus mid-sized blocks the
    // undersized buddy refuses.
    let mut events = Vec::new();
    let mut next = 0u64;
    for round in 0..10u32 {
        let first = next;
        for i in 0..20u32 {
            for size in [24, 74] {
                events.push(TraceEvent::alloc(BlockId(next), size));
                next += 1;
            }
            if i % 5 == 0 {
                events.push(TraceEvent::alloc(BlockId(next), 600 + 100 * round));
                next += 1;
            }
        }
        events.push(TraceEvent::tick(100));
        for id in first..next {
            events.push(TraceEvent::free(BlockId(id)));
        }
    }
    let trace = Trace::from_events("rounds", events).expect("well-formed");
    let workload = Workload::new(tiny_scratchpad(), trace);
    let configs = stressors(&workload.hierarchy);
    let order: Vec<usize> = (0..configs.len()).chain(0..configs.len()).collect();
    let memo = workload.check(&configs, &order);
    assert!(memo.capacity_reruns() > 0, "no capacity rerun fired");
    assert!(memo.spill_reruns() > 0, "no spill rerun fired");
    assert!(memo.served() > 0, "nothing was served from the memo");
}
