//! Property tests for the hash-free bookkeeping refactor.
//!
//! Two families:
//!
//! 1. **Pool model equivalence** — every pool's slab/sorted-list
//!    bookkeeping is driven side by side with a plain `HashMap`
//!    reference model (addr → occupied bytes); live accounting, stats
//!    and address reuse must agree at every step.
//! 2. **Kernel equivalence** — random well-formed traces replayed with
//!    the compiled slab kernel produce byte-identical [`SimMetrics`] to
//!    the retained hash-map reference interpreter
//!    ([`Simulator::run_reference`]), across pool kinds and including
//!    infeasible (allocation-failing) runs.

use std::collections::HashMap;

use proptest::prelude::*;

use dmx_alloc::pool::{BuddyPool, Pool, RegionPool, SegregatedPool};
use dmx_alloc::{
    AllocCtx, AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, PoolKind, PoolMemo, PoolSpec,
    Route, SimArena, Simulator, SplitPolicy,
};
use dmx_memhier::{presets, LevelId, RegionTable};
use dmx_trace::{BlockId, CompiledTrace, Trace, TraceEvent};

#[derive(Debug, Clone)]
enum Op {
    Alloc(u32),
    FreeNth(usize),
}

fn arb_ops(max_size: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u32..max_size).prop_map(Op::Alloc),
            (0usize..64).prop_map(Op::FreeNth),
        ],
        1..len,
    )
}

/// Drives `pool` and a `HashMap` reference model in lockstep: the model
/// records every live block by address; the pool's slot-indexed /
/// sorted-list bookkeeping must agree with it on liveness, bytes, and
/// non-overlap at every step.
fn check_against_hashmap_model(pool: &mut dyn Pool, ops: &[Op], occupied_counts: bool) {
    let hier = presets::sp64k_dram4m();
    let mut regions = RegionTable::new(&hier);
    let mut ctx = AllocCtx::new(hier.len());
    let mut model: HashMap<u64, u32> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for op in ops {
        match op {
            Op::Alloc(size) => {
                if let Ok(b) = pool.alloc(*size, &mut regions, &mut ctx) {
                    assert!(
                        !model.contains_key(&b.addr),
                        "pool handed out a live address twice: {:#x}",
                        b.addr
                    );
                    model.insert(b.addr, b.occupied);
                    order.push(b.addr);
                }
            }
            Op::FreeNth(n) => {
                if !order.is_empty() {
                    let addr = order.remove(n % order.len());
                    model.remove(&addr).expect("model tracks every live block");
                    pool.free(addr, &mut ctx);
                }
            }
        }
        pool.validate();
        let stats = pool.stats();
        assert_eq!(
            stats.live_blocks,
            model.len() as u64,
            "live blocks diverge from the hash-map model"
        );
        if occupied_counts {
            let model_bytes: u64 = model.values().map(|&s| u64::from(s)).sum();
            assert_eq!(
                stats.live_bytes, model_bytes,
                "live bytes diverge from the hash-map model"
            );
        }
    }
    for addr in order.drain(..) {
        pool.free(addr, &mut ctx);
    }
    pool.validate();
    assert_eq!(pool.live_blocks(), 0);
}

/// Lowers a random op script into a well-formed trace (every block gets
/// accesses and ticks sprinkled in; a tail of frees is appended so the
/// trace exercises both freed and leaked blocks).
fn trace_from_ops(ops: &[Op]) -> Trace {
    let mut t = Trace::new("prop");
    let mut next_id = 0u64;
    let mut live: Vec<u64> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Alloc(size) => {
                let id = next_id;
                next_id += 1;
                t.push(TraceEvent::Alloc {
                    tid: dmx_trace::ThreadId::MAIN,
                    id: BlockId(id),
                    size: *size,
                })
                .unwrap();
                live.push(id);
                if i % 3 == 0 {
                    t.push(TraceEvent::Access {
                        tid: dmx_trace::ThreadId::MAIN,
                        id: BlockId(id),
                        reads: (*size % 7) + 1,
                        writes: *size % 5,
                    })
                    .unwrap();
                }
            }
            Op::FreeNth(n) => {
                if !live.is_empty() {
                    let id = live.remove(n % live.len());
                    t.push(TraceEvent::Free {
                        tid: dmx_trace::ThreadId::MAIN,
                        id: BlockId(id),
                    })
                    .unwrap();
                } else {
                    t.push(TraceEvent::Tick { cycles: 17 }).unwrap();
                }
            }
        }
    }
    // Free half of what is left so the trace ends with some leaked blocks.
    for id in live.iter().step_by(2) {
        t.push(TraceEvent::Free {
            tid: dmx_trace::ThreadId::MAIN,
            id: BlockId(*id),
        })
        .unwrap();
    }
    t
}

/// Like [`trace_from_ops`], but events carry thread ids from a rotating
/// set of `tids` threads, and every free deliberately lands on a
/// *different* thread than the alloc — the cross-thread
/// producer/consumer pattern the contention model charges for.
fn threaded_trace_from_ops(ops: &[Op], tids: u32) -> Trace {
    use dmx_trace::ThreadId;
    let mut t = Trace::new("prop-threaded");
    let mut next_id = 0u64;
    // Each live entry remembers its allocating thread.
    let mut live: Vec<(u64, u32)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let tid = i as u32 % tids;
        match op {
            Op::Alloc(size) => {
                let id = next_id;
                next_id += 1;
                t.push(TraceEvent::Alloc {
                    tid: ThreadId(tid),
                    id: BlockId(id),
                    size: *size,
                })
                .unwrap();
                live.push((id, tid));
                if i % 3 == 0 {
                    t.push(TraceEvent::Access {
                        tid: ThreadId(tid),
                        id: BlockId(id),
                        reads: (*size % 7) + 1,
                        writes: *size % 5,
                    })
                    .unwrap();
                }
            }
            Op::FreeNth(n) => {
                if !live.is_empty() {
                    let (id, owner) = live.remove(n % live.len());
                    t.push(TraceEvent::Free {
                        tid: ThreadId((owner + 1) % tids),
                        id: BlockId(id),
                    })
                    .unwrap();
                } else {
                    t.push(TraceEvent::Tick { cycles: 17 }).unwrap();
                }
            }
        }
    }
    for (id, owner) in live.iter().step_by(2) {
        t.push(TraceEvent::Free {
            tid: ThreadId((owner + 1) % tids),
            id: BlockId(*id),
        })
        .unwrap();
    }
    t
}

/// Sparse and extreme thread ids a relabeling draws from.
const EXTREME_TIDS: [u32; 8] = [0, u32::MAX, 1, 7, 1 << 31, u32::MAX - 1, 65_536, 3];

/// `trace` with every tid `t` replaced by `relabel(t)`.
fn relabel_tids(trace: &Trace, relabel: impl Fn(u32) -> u32) -> Trace {
    use dmx_trace::ThreadId;
    let events = trace
        .iter()
        .map(|event| match *event {
            TraceEvent::Alloc { tid, id, size } => TraceEvent::Alloc {
                tid: ThreadId(relabel(tid.0)),
                id,
                size,
            },
            TraceEvent::Free { tid, id } => TraceEvent::Free {
                tid: ThreadId(relabel(tid.0)),
                id,
            },
            TraceEvent::Access {
                tid,
                id,
                reads,
                writes,
            } => TraceEvent::Access {
                tid: ThreadId(relabel(tid.0)),
                id,
                reads,
                writes,
            },
            tick @ TraceEvent::Tick { .. } => tick,
        })
        .collect();
    Trace::from_events(trace.name(), events).unwrap()
}

/// `config` plus pools no request can reach: a dedicated pool for a
/// size above every size `arb_ops` draws, and — when `config` routes
/// exact sizes — a one-size range pool shadowed by one of those routes.
/// Unreached pools reserve nothing and charge nothing.
fn with_unreachable_pools(config: &AllocatorConfig, fast: LevelId) -> AllocatorConfig {
    let mut pools = config.pools.clone();
    pools.insert(0, PoolSpec::fixed(UNDRAWN_SIZE, fast));
    let shadowing = config.pools.iter().find_map(|p| match p.route {
        Route::Exact(size) => Some(size),
        _ => None,
    });
    if let Some(size) = shadowing {
        pools.insert(
            0,
            PoolSpec {
                route: Route::Range {
                    min: size,
                    max: size,
                },
                kind: PoolKind::Buddy {
                    min_order: 4,
                    max_order: 12,
                },
                level: fast,
            },
        );
    }
    AllocatorConfig { pools }
}

/// A request size no `arb_ops` script below draws.
const UNDRAWN_SIZE: u32 = 4001;

fn kernel_configs(hier: &dmx_memhier::MemoryHierarchy) -> Vec<AllocatorConfig> {
    let main = hier.slowest();
    vec![
        AllocatorConfig::general_only(
            main,
            FitPolicy::BestFit,
            FreeOrder::AddressOrdered,
            CoalescePolicy::Immediate,
            SplitPolicy::MinRemainder(16),
        ),
        AllocatorConfig::paper_example(hier),
        AllocatorConfig {
            pools: vec![
                PoolSpec {
                    route: Route::Range { min: 1, max: 256 },
                    kind: PoolKind::Segregated {
                        min_class: 16,
                        max_class: 256,
                        chunk_bytes: 2048,
                    },
                    level: main,
                },
                PoolSpec {
                    route: Route::Range {
                        min: 257,
                        max: 2048,
                    },
                    kind: PoolKind::Buddy {
                        min_order: 5,
                        max_order: 13,
                    },
                    level: main,
                },
                PoolSpec {
                    route: Route::Fallback,
                    kind: PoolKind::Region { chunk_bytes: 4096 },
                    level: main,
                },
            ],
        },
        // Everything forced onto the tiny scratchpad: exercises the
        // allocation-failure path (failed blocks leave empty slots).
        AllocatorConfig::general_only(
            hier.fastest(),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Segregated slot-indexed vectors vs the hash-map model.
    #[test]
    fn segregated_slab_matches_hashmap_model(ops in arb_ops(3000, 120)) {
        let mut pool = SegregatedPool::new(LevelId(1), 16, 512, 2048);
        check_against_hashmap_model(&mut pool, &ops, true);
    }

    /// Buddy order-map vs the hash-map model.
    #[test]
    fn buddy_order_map_matches_hashmap_model(ops in arb_ops(4000, 120)) {
        let mut pool = BuddyPool::new(LevelId(1), 5, 13);
        check_against_hashmap_model(&mut pool, &ops, true);
    }

    /// Region size tables vs the hash-map model.
    #[test]
    fn region_size_table_matches_hashmap_model(ops in arb_ops(1500, 120)) {
        let mut pool = RegionPool::new(LevelId(1), 4096);
        check_against_hashmap_model(&mut pool, &ops, true);
    }

    /// The compiled slab kernel and the hash-map reference interpreter
    /// agree byte-for-byte on arbitrary well-formed traces, across pool
    /// kinds, with and without arena reuse — including infeasible runs.
    #[test]
    fn slab_kernel_matches_reference_interpreter(ops in arb_ops(2500, 200)) {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = trace_from_ops(&ops);
        let compiled = CompiledTrace::compile(&trace);
        let mut arena = SimArena::new();
        for config in kernel_configs(&hier) {
            let reference = sim.run_reference(&config, &trace).unwrap();
            let kernel = sim.run_in_arena(&config, &compiled, &mut arena).unwrap();
            prop_assert_eq!(&reference, &kernel, "kernel diverges for {}", config.label());
        }
    }

    /// Runs of 1, 2 and 5 configurations replayed back to back through one
    /// reused arena agree with the reference interpreter run by run —
    /// including a single run and runs that repeat the same configuration.
    #[test]
    fn reused_arena_matches_reference_interpreter(ops in arb_ops(2500, 200)) {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = trace_from_ops(&ops);
        let compiled = CompiledTrace::compile(&trace);
        let mut arena = SimArena::new();
        let configs = kernel_configs(&hier);
        for k in [1usize, 2, 5] {
            let lanes: Vec<AllocatorConfig> = (0..k)
                .map(|i| configs[i % configs.len()].clone())
                .collect();
            let batch: Vec<_> = lanes
                .iter()
                .map(|c| sim.run_in_arena(c, &compiled, &mut arena).unwrap())
                .collect();
            prop_assert_eq!(batch.len(), k);
            for (config, got) in lanes.iter().zip(&batch) {
                let reference = sim.run_reference(config, &trace).unwrap();
                prop_assert_eq!(
                    &reference,
                    got,
                    "batch run diverges at K={} for {}",
                    k,
                    config.label()
                );
            }
        }
        prop_assert_eq!(arena.runs(), 1 + 2 + 5);
    }

    /// Threaded traces with cross-thread frees: the slab kernel and the
    /// reference interpreter agree byte-for-byte — including the
    /// contention-stall and tail-latency charges, which both paths must
    /// derive from the same per-pool op windows.
    #[test]
    fn kernels_match_reference_on_threaded_traces(
        ops in arb_ops(2500, 150),
        tids in 2u32..5,
    ) {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = threaded_trace_from_ops(&ops, tids);
        let compiled = CompiledTrace::compile(&trace);
        let mut arena = SimArena::new();
        for config in kernel_configs(&hier) {
            let reference = sim.run_reference(&config, &trace).unwrap();
            let kernel = sim.run_in_arena(&config, &compiled, &mut arena).unwrap();
            prop_assert_eq!(
                &reference,
                &kernel,
                "slab kernel diverges on a {}-thread trace for {}",
                tids,
                config.label()
            );
        }
    }

    /// Metamorphic relation: the metrics depend on which ops share a
    /// thread, never on the thread ids' values. A random injective
    /// relabeling onto sparse and extreme ids — followed by a 0 ↔
    /// `u32::MAX` swap of the relabeled trace — leaves the reference
    /// interpreter's and the kernel's metrics, the prefix rung's metrics
    /// and the dense thread stream unchanged.
    #[test]
    fn metrics_invariant_under_tid_relabeling(
        ops in arb_ops(2500, 150),
        tids in 2u32..6,
        keys in prop::collection::vec(any::<u64>(), EXTREME_TIDS.len()),
        wild in any::<u32>(),
    ) {
        // An injective map 0..tids → ids: a random-key shuffle of the
        // extreme ids plus one random id.
        let mut pool: Vec<(u64, u32)> = keys.iter().copied().zip(EXTREME_TIDS).collect();
        pool.sort_unstable();
        let mut labels: Vec<u32> = pool.into_iter().map(|(_, id)| id).collect();
        if !labels.contains(&wild) {
            labels.insert(0, wild);
        }
        let swap = |t: u32| match t {
            0 => u32::MAX,
            u32::MAX => 0,
            t => t,
        };
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = threaded_trace_from_ops(&ops, tids);
        let relabel = |t: u32| labels[t as usize];
        let relabeled = relabel_tids(&trace, relabel);
        let swapped = relabel_tids(&relabeled, swap);
        let compiled = CompiledTrace::compile(&trace);
        let base_prefix = compiled.prefix(0.5).unwrap();
        let ids = compiled.thread_ids();
        let relabeled_ids: Vec<u32> = ids.iter().map(|&t| relabel(t)).collect();
        let swapped_ids: Vec<u32> = relabeled_ids.iter().map(|&t| swap(t)).collect();
        for (variant, want_ids) in [(&relabeled, relabeled_ids), (&swapped, swapped_ids)] {
            let c = CompiledTrace::compile(variant);
            prop_assert_eq!(c.op_threads(), compiled.op_threads());
            prop_assert_eq!(c.thread_ids(), &want_ids[..]);
            let p = c.prefix(0.5).unwrap();
            prop_assert_eq!(p.op_threads(), base_prefix.op_threads());
            for config in kernel_configs(&hier) {
                prop_assert_eq!(
                    sim.run_reference(&config, variant).unwrap(),
                    sim.run_reference(&config, &trace).unwrap(),
                    "reference metrics move under relabeling for {}",
                    config.label()
                );
                prop_assert_eq!(
                    sim.run_compiled(&config, &c).unwrap(),
                    sim.run_compiled(&config, &compiled).unwrap(),
                    "kernel metrics move under relabeling for {}",
                    config.label()
                );
                prop_assert_eq!(
                    sim.run_compiled(&config, &p).unwrap(),
                    sim.run_compiled(&config, &base_prefix).unwrap(),
                    "prefix metrics move under relabeling for {}",
                    config.label()
                );
            }
        }
    }

    /// Metamorphic relation the pool memo relies on: pools no request
    /// reaches are inert. Adding a dedicated pool for a size the trace
    /// never allocates, or a range fully shadowed by exact routes, leaves
    /// the reference interpreter's, the kernel's and a warm memo's
    /// metrics unchanged.
    #[test]
    fn metrics_invariant_under_unreachable_pools(ops in arb_ops(2500, 200)) {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = trace_from_ops(&ops);
        let compiled = CompiledTrace::compile_shared(&trace);
        let mut arena = SimArena::new();
        let mut memo = PoolMemo::new(&hier, &compiled);
        for config in kernel_configs(&hier) {
            let padded = with_unreachable_pools(&config, hier.fastest());
            prop_assert!(padded.pools.len() > config.pools.len());
            let base = sim.run_reference(&config, &trace).unwrap();
            prop_assert_eq!(
                &sim.run_reference(&padded, &trace).unwrap(),
                &base,
                "reference metrics move with unreachable pools in {}",
                padded.label()
            );
            prop_assert_eq!(
                &sim.run_in_arena(&padded, &compiled, &mut arena).unwrap(),
                &base,
                "kernel metrics move with unreachable pools in {}",
                padded.label()
            );
            for run in [&config, &padded] {
                prop_assert_eq!(
                    &sim.run_memo(run, &compiled, &mut arena, &mut memo).unwrap(),
                    &base,
                    "memo metrics move with unreachable pools in {}",
                    run.label()
                );
            }
        }
    }

    /// Compiling is structurally sound on arbitrary scripts: dense slots,
    /// exact peak-concurrency slab bound, lifetimes for every alloc.
    #[test]
    fn compiled_trace_slots_are_dense_and_bounded(ops in arb_ops(500, 150)) {
        let trace = trace_from_ops(&ops);
        let compiled = CompiledTrace::compile(&trace);
        prop_assert_eq!(compiled.len(), trace.len());
        prop_assert_eq!(compiled.lifetimes().len() as u64, compiled.allocs());
        let stats = dmx_trace::TraceStats::compute(&trace);
        prop_assert_eq!(u64::from(compiled.max_live_slots()), stats.peak_live_blocks);
    }
}
