//! Trace-driven simulation: replay a workload against a configuration and
//! collect the paper's four metrics.
//!
//! # The slab kernel
//!
//! Replay is the hot path of every exploration: each objective the search
//! strategies optimize comes from a full trace replay, and robust
//! (scenario-suite) evaluation multiplies replay volume by the suite
//! size. The one replay kernel, [`Simulator::replay`], therefore runs on
//! a [`CompiledTrace`] — block ids pre-renamed to dense recycled slots,
//! access and tick charges hoisted out of the op stream — so per-op
//! bookkeeping is a flat slab index instead of a hash lookup, and on a
//! reusable [`SimArena`] so the slab is allocated once per worker, not
//! once per genome.
//!
//! [`Simulator::run_reference`] keeps the original hash-map interpreter
//! (over the uncompiled [`Trace`]) as a correctness oracle and throughput
//! baseline: the golden-metrics tests and proptests pin the two paths to
//! byte-identical [`SimMetrics`], and the `sim_throughput` bench reports
//! the slab kernel's speedup over it.

use std::collections::HashMap;

use dmx_memhier::{CostModel, CostParams, CounterSet, LevelId, MemoryHierarchy};
use dmx_trace::{BlockId, CompiledTrace, Trace, TraceEvent};

use crate::block::BlockInfo;
use crate::composite::{CompositeAllocator, PoolId};
use crate::config::AllocatorConfig;
use crate::ctx::AllocCtx;
use crate::error::BuildError;
use crate::memo::{ExceptionCursor, Exceptions, PoolMemo, PoolOutcome, Rerun, SizeTable};

/// Everything measured during one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// All memory accesses (allocator metadata + application data),
    /// per level.
    pub counters: CounterSet,
    /// Allocator-metadata accesses only, per level.
    pub meta_counters: CounterSet,
    /// Peak bytes reserved from the platform across all levels.
    pub footprint: u64,
    /// Peak bytes reserved per level.
    pub footprint_per_level: Vec<u64>,
    /// Total energy (dynamic access energy + static leakage over the
    /// run's cycles), picojoules.
    pub energy_pj: u64,
    /// Execution time, cycles: memory stalls + allocator CPU cost +
    /// application compute ticks.
    pub cycles: u64,
    /// Allocations served.
    pub allocs: u64,
    /// Frees served.
    pub frees: u64,
    /// Allocations that could not be served (platform exhausted). A
    /// configuration with failures is infeasible for this workload.
    pub failures: u64,
    /// Peak bytes of internal fragmentation across live blocks.
    pub peak_internal_frag: u64,
    /// Allocator operations executed (allocs + frees that reached a pool).
    pub ops: u64,
    /// Total shared-pool contention stall cycles charged (see
    /// [`ContentionParams`]). Provably 0 for single-threaded traces: the
    /// contention model is gated on more than one distinct thread id in
    /// the pool-op stream.
    pub contention_stalls: u64,
    /// Tail-latency proxy: the p99 of per-op charged cycles
    /// (`cpu_cycles_per_op + stall`). 0 for single-threaded traces,
    /// where no per-op stalls are observed.
    pub tail_latency: u64,
}

impl SimMetrics {
    /// Total accesses over all levels.
    pub fn total_accesses(&self) -> u64 {
        self.counters.total_accesses()
    }

    /// `true` if every allocation was served.
    pub fn feasible(&self) -> bool {
        self.failures == 0
    }

    /// Fraction of all accesses spent on allocator metadata.
    pub fn meta_overhead(&self) -> f64 {
        let total = self.counters.total_accesses();
        if total == 0 {
            return 0.0;
        }
        self.meta_counters.total_accesses() as f64 / total as f64
    }
}

/// Parameters of the shared-pool contention cost model.
///
/// Replay charges contention only for *threaded* traces (more than one
/// distinct thread id over the pool-op stream — single-threaded replays
/// take the original hot path and charge exactly zero). Every operation
/// that reaches a pool pays `stall_cycles` for each **distinct other
/// thread** that touched the same pool within the last `window` pool
/// operations on that pool. Per-thread-cache hits are free: a pool
/// touched by one thread only never stalls, and neither do operations on
/// different pools — only genuine sharing of a pool across threads pays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentionParams {
    /// Stall cycles charged per distinct other thread sharing the pool
    /// within the sliding window.
    pub stall_cycles: u32,
    /// Sliding-window length in pool operations over which sharing is
    /// observed. 0 disables the model entirely.
    pub window: u32,
}

impl Default for ContentionParams {
    fn default() -> Self {
        // A cache-line ping-pong plus a short lock handoff per
        // contending thread, observed over a window about one request
        // burst long.
        ContentionParams {
            stall_cycles: 40,
            window: 64,
        }
    }
}

/// Sliding window of the last `window` op threads on one pool, with an
/// incremental per-thread count so "distinct other threads" is O(1) per
/// op. Threads are the trace's dense indices, so the counts are a flat
/// table and no op hashes.
struct PoolWindow {
    ring: Vec<u32>,
    head: usize,
    filled: usize,
    /// `counts[t]` = ops by thread `t` in the window.
    counts: Vec<u32>,
    /// Threads with a nonzero count.
    present: u32,
}

impl PoolWindow {
    fn new(window: usize, threads: usize) -> Self {
        PoolWindow {
            ring: vec![0; window],
            head: 0,
            filled: 0,
            counts: vec![0; threads],
            present: 0,
        }
    }

    /// Records `thread` touching the pool and returns the number of
    /// distinct *other* threads present in the window before this op.
    fn observe(&mut self, thread: u32) -> u32 {
        let own = self.counts[thread as usize];
        let others = self.present - u32::from(own > 0);
        if self.filled == self.ring.len() {
            let old = &mut self.counts[self.ring[self.head] as usize];
            *old -= 1;
            self.present -= u32::from(*old == 0);
        } else {
            self.filled += 1;
        }
        self.ring[self.head] = thread;
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
        }
        let own = &mut self.counts[thread as usize];
        self.present += u32::from(*own == 0);
        *own += 1;
        others
    }
}

/// Per-replay contention accounting: one sliding window per pool, the
/// accumulated stall total, and a histogram of ops by distinct-other
/// count from which the exact p99 per-op charge is recovered.
struct ContentionState {
    params: ContentionParams,
    pools: Vec<PoolWindow>,
    stalls: u64,
    /// `dist[d]` = pool ops that observed `d` distinct other threads
    /// (`d` < threads, so its length is fixed up front).
    dist: Vec<u64>,
}

impl ContentionState {
    /// Windows for `pool_count` pools over `threads` dense thread
    /// indices: pools × threads counts, never sized by a raw tid.
    fn new(params: ContentionParams, pool_count: usize, threads: usize) -> Self {
        ContentionState {
            params,
            pools: (0..pool_count)
                .map(|_| PoolWindow::new(params.window as usize, threads))
                .collect(),
            stalls: 0,
            dist: vec![0; threads],
        }
    }

    /// Charges one successful pool op issued by dense `thread` against
    /// `pool`.
    fn charge(&mut self, pool: PoolId, thread: u32) {
        let d = self.pools[pool as usize].observe(thread);
        self.stalls += u64::from(self.params.stall_cycles) * u64::from(d);
        self.dist[d as usize] += 1;
    }

    /// The p99 of per-op charged cycles, computed exactly from the
    /// distinct-count histogram: the charge is monotone in `d`, so the
    /// p99 op is the one at the `ceil(0.99 n)`-th position when ops are
    /// ordered by `d`.
    fn tail_latency(&self, cpu_cycles_per_op: u64) -> u64 {
        let n: u64 = self.dist.iter().sum();
        if n == 0 {
            return 0;
        }
        let target = (99 * n).div_ceil(100);
        let mut cum = 0u64;
        let mut d99 = 0usize;
        for (d, &count) in self.dist.iter().enumerate() {
            cum += count;
            if cum >= target {
                d99 = d;
                break;
            }
        }
        cpu_cycles_per_op + u64::from(self.params.stall_cycles) * d99 as u64
    }
}

/// A live-block slab entry: where the block landed and which pool served
/// it (so the free routes back without an address map).
type SlabEntry = Option<(BlockInfo, PoolId)>;

/// Reusable per-worker simulation scratch state.
///
/// The only allocations the replay kernel needs that scale with the
/// workload are the live-block slab (`max_live_slots` entries) and one
/// accounting context per pool. A worker keeps one arena across all the
/// genomes it evaluates; each run resets both in place instead of
/// reallocating, and the arena counts runs, reuses and events for the
/// `--sim-stats` report.
#[derive(Debug, Default)]
pub struct SimArena {
    slab: Vec<SlabEntry>,
    /// One accounting context per pool of the current run: every pool
    /// charges its own, and the kernel folds them into the run's totals
    /// at the end (and hands a simulated pool's context to the memo).
    pool_ctxs: Vec<AllocCtx>,
    runs: u64,
    reuses: u64,
    events: u64,
}

impl SimArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Runs replayed through this arena.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Runs that reused the existing slab allocation instead of growing
    /// it — the arena's whole point; the first run is never a reuse.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Total trace events replayed through this arena.
    pub fn events_replayed(&self) -> u64 {
        self.events
    }

    /// Counts one run of `trace` (a rerun of the same run is not
    /// counted again).
    fn count_run(&mut self, trace: &CompiledTrace) {
        if self.runs > 0 && self.slab.len() >= trace.max_live_slots() as usize {
            self.reuses += 1;
        }
        self.runs += 1;
        self.events += trace.len() as u64;
    }

    /// Readies the slab for `slots` entries and one zeroed context per
    /// pool over `levels` levels, reusing the existing allocations.
    fn reset(
        &mut self,
        slots: usize,
        pools: usize,
        levels: usize,
    ) -> (&mut [SlabEntry], &mut [AllocCtx]) {
        if self.slab.len() >= slots {
            self.slab[..slots].fill(None);
        } else {
            self.slab.clear();
            self.slab.resize(slots, None);
        }
        for ctx in self.pool_ctxs.iter_mut().take(pools) {
            if ctx.counters.len() == levels {
                ctx.reset();
            } else {
                *ctx = AllocCtx::new(levels);
            }
        }
        while self.pool_ctxs.len() < pools {
            self.pool_ctxs.push(AllocCtx::new(levels));
        }
        (&mut self.slab[..slots], &mut self.pool_ctxs[..pools])
    }
}

/// How the pools of a composite take part in a walk.
/// [`Simulator::walk`] is instantiated once per implementation, so the
/// all-live replay ([`AllLive`]) carries none of the memo's per-op
/// branches.
trait Lanes {
    /// `true` if some pool is served from the memo, so a live pool's
    /// refusal cannot be followed exactly.
    fn memoized(&self) -> bool;

    /// The pool the `ordinal`-th allocation, of `size` bytes, goes to
    /// first.
    fn route(&self, allocator: &CompositeAllocator, ordinal: usize, size: u32) -> usize;

    /// `true` if pool `p` runs live.
    fn live(&self, p: usize) -> bool;

    /// Serves the `ordinal`-th allocation from memoized pool `p`: the
    /// level its block is on and the bytes the block occupies.
    fn serve(
        &mut self,
        allocator: &CompositeAllocator,
        p: usize,
        ordinal: usize,
        size: u32,
    ) -> (LevelId, u32);

    /// Notes that live pool `p` served the `ordinal`-th allocation with
    /// a block occupying `occupied` bytes.
    fn note(
        &mut self,
        allocator: &CompositeAllocator,
        p: usize,
        ordinal: usize,
        size: u32,
        occupied: u32,
    );

    /// The stored outcomes of the memoized pools.
    fn cached(&self) -> impl Iterator<Item = &PoolOutcome>;

    /// Drops what the live pools recorded: a run with a spill or a
    /// failure did not give its pools their own routed streams.
    fn forget(&mut self);
}

/// Every pool live, nothing recorded.
struct AllLive;

impl Lanes for AllLive {
    #[inline]
    fn memoized(&self) -> bool {
        false
    }

    #[inline]
    fn route(&self, allocator: &CompositeAllocator, _: usize, size: u32) -> usize {
        allocator.route(size)
    }

    #[inline]
    fn live(&self, _: usize) -> bool {
        true
    }

    fn serve(&mut self, _: &CompositeAllocator, _: usize, _: usize, _: u32) -> (LevelId, u32) {
        unreachable!("no pool is memoized in an all-live walk")
    }

    #[inline]
    fn note(&mut self, _: &CompositeAllocator, _: usize, _: usize, _: u32, _: u32) {}

    fn cached(&self) -> impl Iterator<Item = &PoolOutcome> {
        std::iter::empty()
    }

    fn forget(&mut self) {}
}

/// The pools of a walk through a [`PoolMemo`]: each served from the
/// memo or live, the live ones recording their occupancy exceptions
/// when the memo wants their outcomes.
struct MemoLanes<'m> {
    lanes: Vec<Lane<'m>>,
    /// Routing by allocation ordinal; `None` routes each request
    /// through the composite.
    table: Option<SizeTable<'m>>,
    memoized: bool,
}

/// How one pool of the composite takes part in a memoized walk.
#[derive(Debug, Default)]
struct Lane<'m> {
    /// `Some` when the pool is served from the memo instead of run.
    cached: Option<Cached<'m>>,
    /// `Some` when the pool runs live and the memo wants its outcome:
    /// the occupancy exceptions so far.
    record: Option<Exceptions>,
    /// Allocations the pool has served so far (the exception ordinal).
    allocs: u64,
}

/// A memoized pool: its stored outcome and where its occupancy
/// exceptions stand.
#[derive(Debug)]
struct Cached<'m> {
    outcome: &'m PoolOutcome,
    cursor: ExceptionCursor<'m>,
}

impl<'m> MemoLanes<'m> {
    fn new(lanes: Vec<Lane<'m>>, table: Option<SizeTable<'m>>) -> Self {
        let memoized = lanes.iter().any(|l| l.cached.is_some());
        MemoLanes {
            lanes,
            table,
            memoized,
        }
    }

    /// Pool `p`'s nominal occupancy for the `ordinal`-th allocation.
    #[inline]
    fn nominal(&self, allocator: &CompositeAllocator, p: usize, ordinal: usize, size: u32) -> u32 {
        self.table
            .as_ref()
            .map_or_else(|| allocator.nominal_occupied(p, size), |t| t.get(ordinal).1)
    }

    /// What each live pool recorded, in composition order.
    fn into_records(self) -> Vec<Option<Exceptions>> {
        self.lanes.into_iter().map(|l| l.record).collect()
    }
}

impl Lanes for MemoLanes<'_> {
    #[inline]
    fn memoized(&self) -> bool {
        self.memoized
    }

    #[inline]
    fn route(&self, allocator: &CompositeAllocator, ordinal: usize, size: u32) -> usize {
        self.table
            .as_ref()
            .map_or_else(|| allocator.route(size), |t| t.get(ordinal).0)
    }

    #[inline]
    fn live(&self, p: usize) -> bool {
        self.lanes[p].cached.is_none()
    }

    #[inline]
    fn serve(
        &mut self,
        allocator: &CompositeAllocator,
        p: usize,
        ordinal: usize,
        size: u32,
    ) -> (LevelId, u32) {
        let nominal = self.nominal(allocator, p, ordinal, size);
        let lane = &mut self.lanes[p];
        let cached = lane.cached.as_mut().expect("a memoized pool");
        let occupied = cached.cursor.occupied(lane.allocs, nominal);
        lane.allocs += 1;
        (cached.outcome.level, occupied)
    }

    #[inline]
    fn note(
        &mut self,
        allocator: &CompositeAllocator,
        p: usize,
        ordinal: usize,
        size: u32,
        occupied: u32,
    ) {
        if self.lanes[p].record.is_some() {
            let nominal = self.nominal(allocator, p, ordinal, size);
            let lane = &mut self.lanes[p];
            if let Some(record) = lane.record.as_mut() {
                record.note(lane.allocs, nominal, occupied);
            }
        }
        self.lanes[p].allocs += 1;
    }

    fn cached(&self) -> impl Iterator<Item = &PoolOutcome> {
        self.lanes
            .iter()
            .filter_map(|l| l.cached.as_ref().map(|c| c.outcome))
    }

    fn forget(&mut self) {
        for lane in &mut self.lanes {
            lane.record = None;
        }
    }
}

/// Scalar tallies a replay hands to [`Simulator::finish`].
struct OpTallies {
    allocs: u64,
    frees: u64,
    failures: u64,
    tick_cycles: u64,
    peak_internal_frag: u64,
}

/// Replays traces against allocator configurations over a fixed platform.
#[derive(Debug, Clone, Copy)]
pub struct Simulator<'h> {
    hierarchy: &'h MemoryHierarchy,
    cost_params: CostParams,
    contention: ContentionParams,
}

impl<'h> Simulator<'h> {
    /// A simulator over `hierarchy` with default CPU cost parameters.
    pub fn new(hierarchy: &'h MemoryHierarchy) -> Self {
        Simulator {
            hierarchy,
            cost_params: CostParams::default(),
            contention: ContentionParams::default(),
        }
    }

    /// Overrides the CPU-side cost parameters.
    pub fn with_cost_params(mut self, params: CostParams) -> Self {
        self.cost_params = params;
        self
    }

    /// Overrides the shared-pool contention parameters (only observable
    /// on threaded traces; see [`ContentionParams`]).
    pub fn with_contention(mut self, params: ContentionParams) -> Self {
        self.contention = params;
        self
    }

    /// The contention parameters this simulator charges threaded traces.
    pub fn contention(&self) -> ContentionParams {
        self.contention
    }

    /// Contention accounting for one replay over `threads` dense thread
    /// indices, or `None` when the trace is single-threaded or the model
    /// is disabled — the gate that keeps tid-0-only replays on the
    /// original hot path with provably zero contention cycles.
    fn contention_state(&self, threads: usize, pool_count: usize) -> Option<ContentionState> {
        self.charges_contention(threads)
            .then(|| ContentionState::new(self.contention, pool_count, threads))
    }

    /// `true` if a replay over `threads` dense thread indices charges
    /// contention.
    fn charges_contention(&self, threads: usize) -> bool {
        threads > 1 && self.contention.window > 0
    }

    /// The platform this simulator models.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        self.hierarchy
    }

    /// Builds `config` and replays `trace` against it.
    ///
    /// Compiles the trace first; callers replaying one workload against
    /// many configurations should compile once and use
    /// [`Self::run_compiled`] (or [`Self::run_in_arena`] with a reused
    /// arena) instead.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the configuration is invalid; runtime
    /// allocation failures are *not* errors — they are counted in
    /// [`SimMetrics::failures`] (the configuration is infeasible, which is
    /// itself an exploration result).
    pub fn run(&self, config: &AllocatorConfig, trace: &Trace) -> Result<SimMetrics, BuildError> {
        self.run_compiled(config, &CompiledTrace::compile(trace))
    }

    /// Builds `config` and replays the compiled `trace` against it with a
    /// private arena.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_compiled(
        &self,
        config: &AllocatorConfig,
        trace: &CompiledTrace,
    ) -> Result<SimMetrics, BuildError> {
        let mut allocator = config.build(self.hierarchy)?;
        let mut arena = SimArena::new();
        Ok(self.replay(&mut allocator, trace, &mut arena))
    }

    /// Builds `config` and replays the compiled `trace` through a
    /// caller-owned [`SimArena`] — the evaluator hot path: one arena per
    /// worker, reused across genomes.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_in_arena(
        &self,
        config: &AllocatorConfig,
        trace: &CompiledTrace,
        arena: &mut SimArena,
    ) -> Result<SimMetrics, BuildError> {
        let mut allocator = config.build(self.hierarchy)?;
        Ok(self.replay(&mut allocator, trace, arena))
    }

    /// Replays `trace` against an already-built allocator (useful for
    /// hand-composed allocators; see the `custom_allocator` example).
    pub fn run_built(&self, allocator: &mut CompositeAllocator, trace: &Trace) -> SimMetrics {
        let mut arena = SimArena::new();
        self.replay(allocator, &CompiledTrace::compile(trace), &mut arena)
    }

    /// The replay kernel with every pool live: a walk of the allocator-op
    /// stream ([`CompiledTrace::pool_ops`]) in which every op costs a
    /// slab index, never a hash lookup. Work that does not depend on
    /// allocator state is hoisted out of the loop: a block's lifetime
    /// application accesses ([`CompiledTrace::alloc_reads`] /
    /// [`CompiledTrace::alloc_writes`]) are charged when it is placed,
    /// and the trace's compute ticks
    /// ([`CompiledTrace::total_tick_cycles`]) once per run. Both charges
    /// are pure additive sums, so the metrics are byte-identical to
    /// charging every `Access` and `Tick` event in order.
    ///
    /// A failed allocation leaves its slot empty and drops its hoisted
    /// accesses, exactly as the reference interpreter drops accesses to
    /// and frees of a block that was never placed.
    pub fn replay(
        &self,
        allocator: &mut CompositeAllocator,
        trace: &CompiledTrace,
        arena: &mut SimArena,
    ) -> SimMetrics {
        let _span = dmx_obs::span(dmx_obs::names::KERNEL, trace.len() as u64);
        dmx_obs::metrics().kernel_replays.incr();
        dmx_obs::metrics().kernel_events.add(trace.len() as u64);
        arena.count_run(trace);
        self.walk_live(allocator, trace, arena)
    }

    /// Builds `config` and replays the compiled `trace` through `arena`,
    /// serving every pool whose outcome `memo` already holds instead of
    /// simulating it, and storing the outcomes of the pools it does
    /// simulate. The metrics are byte-identical to [`Self::run_in_arena`]:
    /// a run whose memoized pools cannot be vouched for — a live pool
    /// refused an allocation, or the pools' reservations overrun a
    /// level — is replayed again with every pool live. Threaded replays
    /// that charge contention bypass the memo (their tail latency is a
    /// percentile over every pool's ops).
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    ///
    /// # Panics
    ///
    /// Panics if `memo` was created for another hierarchy or trace.
    pub fn run_memo(
        &self,
        config: &AllocatorConfig,
        trace: &CompiledTrace,
        arena: &mut SimArena,
        memo: &mut PoolMemo,
    ) -> Result<SimMetrics, BuildError> {
        let mut allocator = config.build(self.hierarchy)?;
        if self.charges_contention(trace.thread_ids().len()) {
            return Ok(self.replay(&mut allocator, trace, arena));
        }
        memo.bind(self.hierarchy, trace);
        let _span = dmx_obs::span(dmx_obs::names::KERNEL, trace.len() as u64);
        dmx_obs::metrics().kernel_replays.incr();
        dmx_obs::metrics().kernel_events.add(trace.len() as u64);
        arena.count_run(trace);

        let (keys, table) = memo.plan(config, &allocator);
        let room = memo.room();
        let lanes: Vec<Lane<'_>> = keys
            .iter()
            .map(|key| match memo.get(key) {
                Some(outcome) => Lane {
                    cached: Some(Cached {
                        outcome,
                        cursor: outcome.cursor(),
                    }),
                    ..Lane::default()
                },
                None => Lane {
                    record: Some(Exceptions::with_cap(room)),
                    ..Lane::default()
                },
            })
            .collect();
        let served = lanes.iter().filter(|l| l.cached.is_some()).count();
        let mut lanes = MemoLanes::new(lanes, table);
        let walked = self.walk(&mut allocator, trace, arena, &mut lanes);
        let recorded = lanes.into_records();
        match walked {
            Ok(metrics) => {
                memo.count(served, keys.len() - served, None);
                for (p, (key, record)) in keys.into_iter().zip(recorded).enumerate() {
                    if let Some(exceptions) = record {
                        memo.store(key, &arena.pool_ctxs[p], exceptions);
                    }
                }
                Ok(metrics)
            }
            Err(cause) => {
                memo.count(0, keys.len(), Some(cause));
                // The aborted walk's pools go before the rerun builds
                // their replacements.
                drop(allocator);
                let mut fresh = config.build(self.hierarchy)?;
                Ok(self.walk_live(&mut fresh, trace, arena))
            }
        }
    }

    /// A walk with every pool live and nothing recorded, which never
    /// asks for a rerun.
    fn walk_live(
        &self,
        allocator: &mut CompositeAllocator,
        trace: &CompiledTrace,
        arena: &mut SimArena,
    ) -> SimMetrics {
        self.walk(allocator, trace, arena, &mut AllLive)
            .expect("a walk with every pool live never asks for a rerun")
    }

    /// The one replay loop. Live pools run and charge their own context
    /// in the arena; a pool `lanes` serves from the memo is not run at
    /// all — the walk still routes, counts and places its requests (its
    /// blocks occupy the nominal size unless the memo stored an
    /// exception) and adds its stored charges at the end. Live pools'
    /// occupancies go to `lanes` to record as they go; a run with a
    /// spill or a failure drops the records.
    fn walk<L: Lanes>(
        &self,
        allocator: &mut CompositeAllocator,
        trace: &CompiledTrace,
        arena: &mut SimArena,
        lanes: &mut L,
    ) -> Result<SimMetrics, Rerun> {
        let levels = self.hierarchy.len();
        let pools = allocator.pool_count();
        // Application accesses and op counts; pools charge `pool_ctxs`.
        let mut ctx = AllocCtx::new(levels);
        let mut allocs = 0u64;
        let mut frees = 0u64;
        let mut failures = 0u64;
        let mut live_internal_frag = 0u64;
        let mut peak_internal_frag = 0u64;
        let mut contention = self.contention_state(trace.thread_ids().len(), pools);
        let fallback = allocator.fallback();
        let mut spilled = false;
        let sizes = trace.alloc_sizes();
        let reads = trace.alloc_reads();
        let writes = trace.alloc_writes();
        let op_threads = trace.op_threads();
        let (slab, pool_ctxs) = arena.reset(trace.max_live_slots() as usize, pools, levels);
        let mut ordinal = 0usize;

        for (op_idx, &op) in trace.pool_ops().iter().enumerate() {
            let entry = &mut slab[op.slot() as usize];
            if op.is_free() {
                if let Some((info, pool)) = entry.take() {
                    live_internal_frag -= u64::from(info.internal_fragmentation());
                    ctx.count_op();
                    let p = pool as usize;
                    if lanes.live(p) {
                        allocator.free_on(p, info.addr, &mut pool_ctxs[p]);
                    }
                    if let Some(c) = contention.as_mut() {
                        c.charge(pool, op_threads[op_idx]);
                    }
                    frees += 1;
                }
            } else {
                let size = sizes[ordinal];
                let (block_reads, block_writes) = (reads[ordinal], writes[ordinal]);
                ctx.count_op();
                let p = lanes.route(allocator, ordinal, size);
                let placed = if lanes.live(p) {
                    match allocator.alloc_on(p, size, &mut pool_ctxs[p]) {
                        Ok(info) => {
                            lanes.note(allocator, p, ordinal, size, info.occupied);
                            Some((info, p))
                        }
                        Err(_) if lanes.memoized() => return Err(Rerun::Spill),
                        // Dedicated pools that cannot serve overflow to
                        // the fallback, as the paper's allocators do.
                        Err(_) => {
                            spilled = true;
                            (p != fallback)
                                .then(|| {
                                    allocator.alloc_on(fallback, size, &mut pool_ctxs[fallback])
                                })
                                .and_then(Result::ok)
                                .map(|info| (info, fallback))
                        }
                    }
                } else {
                    let (level, occupied) = lanes.serve(allocator, p, ordinal, size);
                    let info = BlockInfo {
                        addr: 0,
                        level,
                        requested: size,
                        occupied,
                    };
                    Some((info, p))
                };
                ordinal += 1;
                match placed {
                    Some((info, pool)) => {
                        allocs += 1;
                        live_internal_frag += u64::from(info.internal_fragmentation());
                        peak_internal_frag = peak_internal_frag.max(live_internal_frag);
                        ctx.app_access(info.level, block_reads, block_writes);
                        if let Some(c) = contention.as_mut() {
                            c.charge(pool as PoolId, op_threads[op_idx]);
                        }
                        debug_assert!(entry.is_none(), "slot already live");
                        *entry = Some((info, pool as PoolId));
                    }
                    // The block never materializes and no pool kept it,
                    // so no contention is charged.
                    None => failures += 1,
                }
            }
        }

        if lanes.memoized() {
            let mut need = vec![0u64; levels];
            for outcome in lanes.cached() {
                need[outcome.level.index()] += outcome.reserved;
            }
            let regions = allocator.regions();
            if need
                .iter()
                .enumerate()
                .any(|(i, &bytes)| bytes > regions.available(LevelId(i as u16)))
            {
                return Err(Rerun::Capacity);
            }
        }
        for pool_ctx in pool_ctxs.iter() {
            ctx.absorb(pool_ctx);
        }
        for outcome in lanes.cached() {
            ctx.meta_read(outcome.level, outcome.reads);
            ctx.meta_write(outcome.level, outcome.writes);
            if outcome.reserved > 0 {
                ctx.footprint.grow(outcome.level, outcome.reserved);
            }
        }
        if spilled {
            lanes.forget();
        }

        Ok(self.finish(
            ctx,
            OpTallies {
                allocs,
                frees,
                failures,
                tick_cycles: trace.total_tick_cycles(),
                peak_internal_frag,
            },
            contention,
        ))
    }

    /// The original hash-map interpreter over the uncompiled trace, event
    /// by event, kept as the correctness oracle (golden tests and
    /// proptests pin it byte-identical to [`Self::replay`]) and as the
    /// `sim_throughput` bench baseline.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_reference(
        &self,
        config: &AllocatorConfig,
        trace: &Trace,
    ) -> Result<SimMetrics, BuildError> {
        let mut allocator = config.build(self.hierarchy)?;
        let mut ctx = AllocCtx::new(self.hierarchy.len());
        let mut placed: HashMap<BlockId, (BlockInfo, PoolId)> = HashMap::new();
        let mut allocs = 0u64;
        let mut frees = 0u64;
        let mut failures = 0u64;
        let mut tick_cycles = 0u64;
        let mut live_internal_frag = 0u64;
        let mut peak_internal_frag = 0u64;
        // Number the threads from the raw events (the kernel reads its
        // dense indices off the compiled trace): contention only applies
        // when more than one distinct thread issues allocator ops.
        let mut threads: HashMap<u32, u32> = HashMap::new();
        for tid in trace
            .iter()
            .filter(|ev| ev.is_allocator_op())
            .filter_map(|ev| ev.thread_id())
        {
            let next = threads.len() as u32;
            threads.entry(tid.0).or_insert(next);
        }
        let mut contention = self.contention_state(threads.len(), allocator.pool_count());

        for event in trace {
            match *event {
                TraceEvent::Alloc { id, size, tid } => {
                    match allocator.alloc_traced(size, &mut ctx) {
                        Ok((info, pool)) => {
                            allocs += 1;
                            live_internal_frag += u64::from(info.internal_fragmentation());
                            peak_internal_frag = peak_internal_frag.max(live_internal_frag);
                            if let Some(c) = contention.as_mut() {
                                c.charge(pool, threads[&tid.0]);
                            }
                            placed.insert(id, (info, pool));
                        }
                        Err(_) => {
                            failures += 1;
                        }
                    }
                }
                TraceEvent::Free { id, tid } => {
                    if let Some((info, pool)) = placed.remove(&id) {
                        live_internal_frag -= u64::from(info.internal_fragmentation());
                        allocator.free_traced(info.addr, pool, &mut ctx);
                        if let Some(c) = contention.as_mut() {
                            c.charge(pool, threads[&tid.0]);
                        }
                        frees += 1;
                    }
                }
                TraceEvent::Access {
                    id, reads, writes, ..
                } => {
                    if let Some((info, _)) = placed.get(&id) {
                        ctx.app_access(info.level, u64::from(reads), u64::from(writes));
                    }
                }
                TraceEvent::Tick { cycles } => {
                    tick_cycles += u64::from(cycles);
                }
            }
        }

        Ok(self.finish(
            ctx,
            OpTallies {
                allocs,
                frees,
                failures,
                tick_cycles,
                peak_internal_frag,
            },
            contention,
        ))
    }

    /// Folds the accounting context into the final metrics (shared by
    /// the kernel and the reference interpreter). `contention` is
    /// `None` for single-threaded replays, which therefore report zero
    /// stalls/tail-latency and the exact pre-threading cycle count.
    fn finish(
        &self,
        ctx: AllocCtx,
        tallies: OpTallies,
        contention: Option<ContentionState>,
    ) -> SimMetrics {
        let cost = CostModel::with_params(self.hierarchy, self.cost_params);
        let (contention_stalls, tail_latency) = match &contention {
            Some(c) => (c.stalls, c.tail_latency(self.cost_params.cpu_cycles_per_op)),
            None => (0, 0),
        };
        let cycles =
            cost.total_cycles(&ctx.counters, ctx.ops) + tallies.tick_cycles + contention_stalls;
        let energy_pj = cost.total_energy_pj(&ctx.counters, cycles);
        SimMetrics {
            footprint: ctx.footprint.peak_total(),
            footprint_per_level: ctx.footprint.peaks().to_vec(),
            energy_pj,
            cycles,
            allocs: tallies.allocs,
            frees: tallies.frees,
            failures: tallies.failures,
            peak_internal_frag: tallies.peak_internal_frag,
            ops: ctx.ops,
            counters: ctx.counters,
            meta_counters: ctx.meta_counters,
            contention_stalls,
            tail_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PoolKind, PoolSpec, Route};
    use crate::policy::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
    use dmx_memhier::presets;
    use dmx_trace::gen::{ramp, EasyportConfig, TraceGenerator, VtcConfig};

    fn baseline(hier: &MemoryHierarchy) -> AllocatorConfig {
        AllocatorConfig::general_only(
            hier.slowest(),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        )
    }

    #[test]
    fn ramp_trace_metrics_are_sane() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = ramp(100, 64);
        let m = sim.run(&baseline(&hier), &trace).unwrap();
        assert_eq!(m.allocs, 100);
        assert_eq!(m.frees, 100);
        assert_eq!(m.ops, 200);
        assert!(m.feasible());
        assert!(m.footprint >= 100 * 64, "footprint covers live peak");
        assert!(m.total_accesses() > 0);
        assert!(m.energy_pj > 0);
        assert!(m.cycles > 0);
    }

    #[test]
    fn footprint_at_least_peak_live_bytes() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(11);
        let m = sim.run(&baseline(&hier), &trace).unwrap();
        assert!(m.feasible());
        assert!(
            m.footprint >= trace.peak_live_bytes(),
            "footprint {} < peak live {}",
            m.footprint,
            trace.peak_live_bytes()
        );
    }

    #[test]
    fn paper_example_beats_naive_baseline_on_easyport() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(5);
        let naive = sim.run(&baseline(&hier), &trace).unwrap();
        let tuned = sim
            .run(&AllocatorConfig::paper_example(&hier), &trace)
            .unwrap();
        assert!(tuned.feasible() && naive.feasible());
        assert!(
            tuned.energy_pj < naive.energy_pj,
            "scratchpad placement must reduce energy: {} vs {}",
            tuned.energy_pj,
            naive.energy_pj
        );
        // Against a scan-heavy general pool the dedicated pools must also
        // win on raw accesses (LIFO first-fit happens to suit a pipelined
        // packet workload, so that baseline is compared on energy only).
        let scanning = sim
            .run(
                &AllocatorConfig::general_only(
                    hier.slowest(),
                    FitPolicy::BestFit,
                    FreeOrder::Fifo,
                    CoalescePolicy::Never,
                    SplitPolicy::Never,
                ),
                &trace,
            )
            .unwrap();
        assert!(
            tuned.total_accesses() < scanning.total_accesses(),
            "dedicated pools must reduce accesses: {} vs {}",
            tuned.total_accesses(),
            scanning.total_accesses()
        );
    }

    #[test]
    fn ticks_contribute_to_cycles_only() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = VtcConfig::small().generate(3);
        let m = sim.run(&baseline(&hier), &trace).unwrap();
        let stats = dmx_trace::TraceStats::compute(&trace);
        assert!(
            m.cycles > stats.tick_cycles,
            "cycles include ticks + stalls"
        );
    }

    #[test]
    fn infeasible_config_counts_failures() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        // Everything forced onto the 64 KB scratchpad; VTC needs far more.
        let cfg = AllocatorConfig::general_only(
            hier.fastest(),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let trace = VtcConfig::paper().generate(1);
        let m = sim.run(&cfg, &trace).unwrap();
        assert!(!m.feasible());
        assert!(m.failures > 0);
    }

    #[test]
    fn meta_overhead_is_a_fraction() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(2);
        let m = sim.run(&baseline(&hier), &trace).unwrap();
        let f = m.meta_overhead();
        assert!(f > 0.0 && f < 1.0, "meta overhead {f}");
    }

    #[test]
    fn invalid_config_is_a_build_error() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let cfg = AllocatorConfig { pools: vec![] };
        assert!(sim.run(&cfg, &ramp(1, 8)).is_err());
    }

    #[test]
    fn determinism_same_inputs_same_metrics() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(9);
        let cfg = AllocatorConfig::paper_example(&hier);
        let a = sim.run(&cfg, &trace).unwrap();
        let b = sim.run(&cfg, &trace).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn kernel_matches_reference_interpreter() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        for seed in [1, 7, 23] {
            let trace = EasyportConfig::small().generate(seed);
            for cfg in [baseline(&hier), AllocatorConfig::paper_example(&hier)] {
                let reference = sim.run_reference(&cfg, &trace).unwrap();
                let compiled = sim.run(&cfg, &trace).unwrap();
                assert_eq!(reference, compiled, "seed {seed} cfg {}", cfg.label());
            }
        }
    }

    #[test]
    fn kernel_matches_reference_on_infeasible_configs() {
        // Failed allocations leave their slot empty; later frees/accesses
        // on that block must be dropped in both interpreters, and a
        // failing run must not leak into the next run on the same arena.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let tight = AllocatorConfig::general_only(
            hier.fastest(),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let trace = VtcConfig::small().generate(4);
        let compiled = CompiledTrace::compile(&trace);
        let mut arena = SimArena::new();
        for (cfg, feasible) in [(tight, false), (baseline(&hier), true)] {
            let reference = sim.run_reference(&cfg, &trace).unwrap();
            let kernel = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
            assert_eq!(
                reference.feasible(),
                feasible,
                "fixture for {}",
                cfg.label()
            );
            assert_eq!(reference, kernel, "kernel diverges on {}", cfg.label());
        }
    }

    #[test]
    fn arena_reuse_preserves_metrics_and_counts() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(9);
        let compiled = CompiledTrace::compile(&trace);
        let cfg = AllocatorConfig::paper_example(&hier);
        let fresh = sim.run_compiled(&cfg, &compiled).unwrap();

        let mut arena = SimArena::new();
        let a = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
        let b = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
        let c = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
        assert_eq!(a, fresh);
        assert_eq!(b, fresh, "slab reuse must not leak state between runs");
        assert_eq!(c, fresh);
        assert_eq!(arena.runs(), 3);
        assert_eq!(arena.reuses(), 2, "every run after the first reuses");
        assert_eq!(arena.events_replayed(), 3 * compiled.len() as u64);
    }

    #[test]
    fn batch_replay_matches_singles_byte_for_byte() {
        // An evaluation worker replays a batch of different configurations
        // back to back through its one arena; each result must equal a
        // fresh single run and the reference interpreter.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(9);
        let compiled = CompiledTrace::compile(&trace);
        let configs = [
            baseline(&hier),
            AllocatorConfig::paper_example(&hier),
            AllocatorConfig::general_only(
                hier.slowest(),
                FitPolicy::BestFit,
                FreeOrder::SizeOrdered,
                CoalescePolicy::Never,
                SplitPolicy::Never,
            ),
        ];
        let mut arena = SimArena::new();
        let batch: Vec<SimMetrics> = configs
            .iter()
            .map(|cfg| sim.run_in_arena(cfg, &compiled, &mut arena).unwrap())
            .collect();
        assert_eq!(batch.len(), configs.len());
        for (cfg, got) in configs.iter().zip(&batch) {
            let single = sim.run_reference(cfg, &trace).unwrap();
            assert_eq!(*got, single, "batch run diverges on {}", cfg.label());
            assert_eq!(*got, sim.run_compiled(cfg, &compiled).unwrap());
        }
        assert_eq!(arena.runs(), 3, "each configuration counts as a run");
        assert_eq!(arena.reuses(), 2);
        assert_eq!(arena.events_replayed(), 3 * compiled.len() as u64);
    }

    #[test]
    fn batch_replay_handles_failing_lanes() {
        // The middle configuration is infeasible (everything forced onto
        // the scratchpad); its failures must not leak into the feasible
        // runs before and after it on the same arena.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = VtcConfig::small().generate(4);
        let compiled = CompiledTrace::compile(&trace);
        let tight = AllocatorConfig::general_only(
            hier.fastest(),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let configs = [baseline(&hier), tight.clone(), baseline(&hier)];
        let mut arena = SimArena::new();
        let batch: Vec<SimMetrics> = configs
            .iter()
            .map(|cfg| sim.run_in_arena(cfg, &compiled, &mut arena).unwrap())
            .collect();
        assert!(!batch[1].feasible(), "fixture must exercise failures");
        assert_eq!(batch[1], sim.run_reference(&tight, &trace).unwrap());
        let feasible = sim.run_reference(&baseline(&hier), &trace).unwrap();
        assert!(feasible.feasible());
        assert_eq!(batch[0], feasible);
        assert_eq!(batch[2], feasible);
    }

    #[test]
    fn batch_of_one_matches_single_kernel_and_reuses_arena() {
        // A one-configuration batch through a worker arena, interleaved
        // with the other entry points, matches them all and still counts
        // every arena run after the first as a reuse.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(2);
        let compiled = CompiledTrace::compile(&trace);
        let cfg = AllocatorConfig::paper_example(&hier);
        let mut arena = SimArena::new();
        let a = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
        let b = sim.run(&cfg, &trace).unwrap();
        let mut allocator = cfg.build(&hier).unwrap();
        let c = sim.replay(&mut allocator, &compiled, &mut arena);
        let d = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
        assert_eq!(a, b);
        assert_eq!(c, b, "slab reuse must not leak state across entry points");
        assert_eq!(d, b);
        assert_eq!(arena.runs(), 3);
        assert_eq!(arena.reuses(), 2);
    }

    /// A producer/consumer trace: even blocks are allocated on t1 and
    /// freed on t2, odd blocks the other way around, with accesses mixed
    /// in — every free crosses threads.
    fn cross_thread_trace() -> Trace {
        use dmx_trace::ThreadId;
        let mut events = Vec::new();
        for i in 0u64..60 {
            let (a, f) = if i % 2 == 0 {
                (ThreadId(1), ThreadId(2))
            } else {
                (ThreadId(2), ThreadId(1))
            };
            events.push(TraceEvent::alloc_on(
                a,
                BlockId(i),
                32 + (i as u32 % 5) * 16,
            ));
            events.push(TraceEvent::access_on(a, BlockId(i), 4, 2));
            if i >= 8 {
                events.push(TraceEvent::free_on(f, BlockId(i - 8)));
            }
            if i % 7 == 0 {
                events.push(TraceEvent::tick(13));
            }
        }
        for i in 52u64..60 {
            events.push(TraceEvent::free_on(ThreadId(1), BlockId(i)));
        }
        Trace::from_events("cross-thread", events).unwrap()
    }

    #[test]
    fn single_threaded_replay_charges_zero_contention() {
        let hier = presets::sp64k_dram4m();
        // Even with an aggressive contention model configured, a
        // tid-0-only trace must charge nothing and keep every metric at
        // its pre-threading value.
        let sim = Simulator::new(&hier);
        let loud = Simulator::new(&hier).with_contention(ContentionParams {
            stall_cycles: 10_000,
            window: 256,
        });
        let trace = EasyportConfig::small().generate(11);
        let base = sim.run(&baseline(&hier), &trace).unwrap();
        let m = loud.run(&baseline(&hier), &trace).unwrap();
        assert_eq!(m.contention_stalls, 0);
        assert_eq!(m.tail_latency, 0);
        assert_eq!(m, base);
    }

    #[test]
    fn threaded_replay_charges_contention_into_cycles() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let off = Simulator::new(&hier).with_contention(ContentionParams {
            stall_cycles: 40,
            window: 0,
        });
        let trace = cross_thread_trace();
        let cfg = baseline(&hier);
        let m = sim.run(&cfg, &trace).unwrap();
        let quiet = off.run(&cfg, &trace).unwrap();
        assert!(
            m.contention_stalls > 0,
            "two threads sharing one pool must stall"
        );
        assert!(m.tail_latency > sim.cost_params.cpu_cycles_per_op);
        assert_eq!(quiet.contention_stalls, 0, "window 0 disables the model");
        assert_eq!(
            m.cycles,
            quiet.cycles + m.contention_stalls,
            "stalls are charged on top of the base cycle count"
        );
    }

    #[test]
    fn kernels_match_reference_on_cross_thread_frees() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = cross_thread_trace();
        let compiled = CompiledTrace::compile(&trace);
        assert!(compiled.is_threaded());
        let mut arena = SimArena::new();
        for cfg in [baseline(&hier), AllocatorConfig::paper_example(&hier)] {
            let reference = sim.run_reference(&cfg, &trace).unwrap();
            let kernel = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
            assert_eq!(reference, kernel, "kernel diverges on {}", cfg.label());
            assert!(reference.contention_stalls > 0);
        }
    }

    #[test]
    fn contention_scales_with_stall_cycles() {
        let hier = presets::sp64k_dram4m();
        let trace = cross_thread_trace();
        let cfg = baseline(&hier);
        let one = Simulator::new(&hier)
            .with_contention(ContentionParams {
                stall_cycles: 1,
                window: 64,
            })
            .run(&cfg, &trace)
            .unwrap();
        let forty = Simulator::new(&hier)
            .with_contention(ContentionParams {
                stall_cycles: 40,
                window: 64,
            })
            .run(&cfg, &trace)
            .unwrap();
        assert_eq!(forty.contention_stalls, 40 * one.contention_stalls);
    }

    #[test]
    fn pool_window_counts_distinct_other_threads() {
        let mut w = PoolWindow::new(4, 4);
        assert_eq!(w.observe(1), 0, "empty window: nobody else");
        assert_eq!(w.observe(1), 0, "same thread again: still nobody else");
        assert_eq!(w.observe(2), 1, "t1 is in the window");
        assert_eq!(w.observe(3), 2, "t1 and t2 are in the window");
        // The count is taken over the last 4 ops *before* the new one
        // lands, so the full window [1, 1, 2, 3] still shows t1 and t2.
        assert_eq!(w.observe(3), 2);
        assert_eq!(w.observe(3), 2, "window [1, 2, 3, 3]: t1 and t2 remain");
        assert_eq!(w.observe(3), 1, "window [2, 3, 3, 3]: only t2 left");
        assert_eq!(w.observe(3), 0, "window [3, 3, 3, 3]: t3 all alone");
    }

    #[test]
    fn tail_latency_is_p99_of_charged_cycles() {
        let params = ContentionParams {
            stall_cycles: 40,
            window: 8,
        };
        let mut c = ContentionState::new(params, 1, 2);
        c.dist = vec![99, 1];
        assert_eq!(c.tail_latency(12), 12, "p99 op saw 0 others at 99/100");
        c.dist = vec![98, 2];
        assert_eq!(c.tail_latency(12), 12 + 40, "p99 op saw 1 other");
        c.dist = vec![];
        assert_eq!(c.tail_latency(12), 0, "no ops observed");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config { cases: 64, ..Default::default() })]

        /// The counted windows agree with a naive model that keeps each
        /// pool's whole op history and rescans its last `window` ops for
        /// distinct other threads: per-op `d` (read off the stall
        /// delta), the stall total and the p99 charge.
        #[test]
        fn pool_window_matches_naive_scan(
            window in 1u32..=8,
            threads in 1usize..=6,
            pools in 1usize..=4,
            stall_cycles in 1u32..=50,
            stream in proptest::collection::vec((0usize..4, 0u32..6), 0..300),
        ) {
            let params = ContentionParams { stall_cycles, window };
            let mut c = ContentionState::new(params, pools, threads);
            let mut history: Vec<Vec<u32>> = vec![Vec::new(); pools];
            let mut ds: Vec<u64> = Vec::new();
            for &(pool, thread) in &stream {
                let (pool, thread) = (pool % pools, thread % threads as u32);
                let past = &history[pool];
                let recent = &past[past.len().saturating_sub(window as usize)..];
                let mut others: Vec<u32> =
                    recent.iter().copied().filter(|&t| t != thread).collect();
                others.sort_unstable();
                others.dedup();
                let d = others.len() as u64;
                let before = c.stalls;
                c.charge(pool as PoolId, thread);
                proptest::prop_assert_eq!(c.stalls - before, u64::from(stall_cycles) * d);
                history[pool].push(thread);
                ds.push(d);
            }
            let stalls: u64 = ds.iter().map(|&d| u64::from(stall_cycles) * d).sum();
            proptest::prop_assert_eq!(c.stalls, stalls);
            let cpu = 12;
            let tail = if ds.is_empty() {
                0
            } else {
                ds.sort_unstable();
                let at = (99 * ds.len()).div_ceil(100) - 1;
                cpu + u64::from(stall_cycles) * ds[at]
            };
            proptest::prop_assert_eq!(c.tail_latency(cpu), tail);
        }
    }

    /// Configurations sharing pools with each other: the same dedicated
    /// pools under different general pools, and the same general pool
    /// under different dedicated placements.
    fn overlapping_configs(hier: &MemoryHierarchy) -> Vec<AllocatorConfig> {
        let mut configs = Vec::new();
        for fit in [FitPolicy::FirstFit, FitPolicy::BestFit] {
            for coalesce in [CoalescePolicy::Never, CoalescePolicy::Immediate] {
                let general = PoolSpec::general(
                    hier.slowest(),
                    fit,
                    FreeOrder::Lifo,
                    coalesce,
                    SplitPolicy::MinRemainder(16),
                );
                configs.push(AllocatorConfig {
                    pools: vec![general.clone()],
                });
                for level in [hier.fastest(), hier.slowest()] {
                    configs.push(AllocatorConfig {
                        pools: vec![
                            PoolSpec::fixed(74, level),
                            PoolSpec::fixed(1500, hier.slowest()),
                            general.clone(),
                        ],
                    });
                }
            }
        }
        configs
    }

    #[test]
    fn memo_replays_match_reference_and_serve_repeated_pools() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(4);
        let compiled = CompiledTrace::compile_shared(&trace);
        let mut arena = SimArena::new();
        let mut memo = PoolMemo::new(&hier, &compiled);
        let configs = overlapping_configs(&hier);
        for round in 0..2 {
            for cfg in &configs {
                let reference = sim.run_reference(cfg, &trace).unwrap();
                let got = sim.run_memo(cfg, &compiled, &mut arena, &mut memo).unwrap();
                assert_eq!(got, reference, "round {round}: {}", cfg.label());
            }
        }
        assert_eq!(arena.runs(), 2 * configs.len() as u64, "one run per replay");
        assert!(
            memo.served() > memo.simulated(),
            "pools repeat across configs"
        );
        assert_eq!(
            memo.served() + memo.simulated(),
            2 * configs.iter().map(|c| c.pools.len() as u64).sum::<u64>()
        );
        assert_eq!(memo.reruns(), 0);
        // The second round simulates nothing at all.
        let simulated = memo.simulated();
        for cfg in &configs {
            sim.run_memo(cfg, &compiled, &mut arena, &mut memo).unwrap();
        }
        assert_eq!(memo.simulated(), simulated);
    }

    #[test]
    fn memo_without_exception_budget_still_matches() {
        // A zero budget stores only outcomes without exceptions; pools
        // with exceptions are simulated every time.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = VtcConfig::small().generate(2);
        let compiled = CompiledTrace::compile_shared(&trace);
        let mut arena = SimArena::new();
        let mut memo = PoolMemo::with_budget(&hier, &compiled, 0);
        for cfg in overlapping_configs(&hier) {
            let reference = sim.run_reference(&cfg, &trace).unwrap();
            let got = sim
                .run_memo(&cfg, &compiled, &mut arena, &mut memo)
                .unwrap();
            assert_eq!(got, reference, "{}", cfg.label());
        }
        assert_eq!(memo.exception_bytes(), 0);
    }

    #[test]
    fn memo_reruns_when_a_live_pool_spills() {
        // A range-routed buddy whose largest block is below its range
        // refuses the big requests; once the fallback is memoized from a
        // config whose range pool serves them, the refusal is a spill the
        // memoized fallback never saw, and the run is replayed live.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(6);
        let compiled = CompiledTrace::compile_shared(&trace);
        let main = hier.slowest();
        let general = PoolSpec::general(
            main,
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let ranged = |kind| AllocatorConfig {
            pools: vec![
                PoolSpec {
                    route: Route::Range { min: 1, max: 2048 },
                    kind,
                    level: main,
                },
                general.clone(),
            ],
        };
        let serving = ranged(PoolKind::Buddy {
            min_order: 5,
            max_order: 12,
        });
        let refusing = ranged(PoolKind::Buddy {
            min_order: 5,
            max_order: 8,
        });
        let mut arena = SimArena::new();
        let mut memo = PoolMemo::new(&hier, &compiled);
        for cfg in [&serving, &refusing, &refusing] {
            let reference = sim.run_reference(cfg, &trace).unwrap();
            let got = sim.run_memo(cfg, &compiled, &mut arena, &mut memo).unwrap();
            assert_eq!(got, reference, "{}", cfg.label());
        }
        assert_eq!(memo.spill_reruns(), 2, "both refusing runs rerun");
        assert_eq!(memo.capacity_reruns(), 0);
        assert_eq!(arena.runs(), 3, "a rerun is not a second run");
    }

    #[test]
    fn memo_reruns_when_reservations_overrun_a_level() {
        // Two dedicated pools that each fit a 4 KiB scratchpad alone but
        // not together: with one of them memoized, the walk cannot see
        // the overrun and must rerun.
        use dmx_memhier::{LevelKind, MemoryLevel};
        let hier = MemoryHierarchy::new(vec![
            MemoryLevel::builder("sp", LevelKind::Scratchpad)
                .capacity(4096)
                .build(),
            MemoryLevel::builder("main", LevelKind::Dram)
                .capacity(1 << 20)
                .build(),
        ])
        .unwrap();
        let sim = Simulator::new(&hier);
        let mut events = Vec::new();
        for i in 0..20u64 {
            events.push(TraceEvent::alloc(BlockId(i), 74));
        }
        events.push(TraceEvent::alloc(BlockId(20), 1500));
        for i in 0..21u64 {
            events.push(TraceEvent::free(BlockId(i)));
        }
        let trace = Trace::from_events("overrun", events).unwrap();
        let compiled = CompiledTrace::compile_shared(&trace);
        let (sp, main) = (hier.fastest(), hier.slowest());
        let fixed = |size, chunk_blocks| PoolSpec {
            route: Route::Exact(size),
            kind: PoolKind::Fixed {
                block_size: size,
                chunk_blocks,
            },
            level: sp,
        };
        let general = PoolSpec::general(
            main,
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let alone = AllocatorConfig {
            pools: vec![fixed(74, 16), general.clone()],
        };
        let together = AllocatorConfig {
            pools: vec![fixed(74, 16), fixed(1500, 2), general],
        };
        let mut arena = SimArena::new();
        let mut memo = PoolMemo::new(&hier, &compiled);
        for cfg in [&alone, &together] {
            let reference = sim.run_reference(cfg, &trace).unwrap();
            let got = sim.run_memo(cfg, &compiled, &mut arena, &mut memo).unwrap();
            assert_eq!(got, reference, "{}", cfg.label());
        }
        assert_eq!(memo.capacity_reruns(), 1);
        assert_eq!(memo.spill_reruns(), 0);
    }

    #[test]
    #[should_panic(expected = "not created for")]
    fn memo_is_bound_to_its_trace() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let a = CompiledTrace::compile_shared(&ramp(10, 32));
        let b = CompiledTrace::compile_shared(&ramp(20, 32));
        let mut memo = PoolMemo::new(&hier, &a);
        let mut arena = SimArena::new();
        let _ = sim.run_memo(&baseline(&hier), &b, &mut arena, &mut memo);
    }

    #[test]
    #[should_panic(expected = "not created for")]
    fn memo_rejects_a_trace_of_the_same_shape() {
        // Same length and allocation count, other sizes: only the
        // trace's identity tells the two apart.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let a = CompiledTrace::compile_shared(&ramp(10, 32));
        let b = CompiledTrace::compile_shared(&ramp(10, 64));
        assert_eq!((a.len(), a.allocs()), (b.len(), b.allocs()));
        let mut memo = PoolMemo::new(&hier, &a);
        let mut arena = SimArena::new();
        sim.run_memo(&baseline(&hier), &a, &mut arena, &mut memo)
            .unwrap();
        let _ = sim.run_memo(&baseline(&hier), &b, &mut arena, &mut memo);
    }

    #[test]
    #[should_panic(expected = "not created for")]
    fn memo_rejects_a_platform_with_other_capacities() {
        let small = presets::sp64k_dram4m();
        let big = presets::sp256k_dram4m();
        let trace = CompiledTrace::compile_shared(&ramp(10, 32));
        let mut memo = PoolMemo::new(&small, &trace);
        let mut arena = SimArena::new();
        let _ = Simulator::new(&big).run_memo(&baseline(&big), &trace, &mut arena, &mut memo);
    }

    #[test]
    fn memo_is_bypassed_when_contention_is_charged() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = cross_thread_trace();
        let compiled = CompiledTrace::compile_shared(&trace);
        let mut arena = SimArena::new();
        let mut memo = PoolMemo::new(&hier, &compiled);
        for cfg in [baseline(&hier), baseline(&hier)] {
            let reference = sim.run_reference(&cfg, &trace).unwrap();
            let got = sim
                .run_memo(&cfg, &compiled, &mut arena, &mut memo)
                .unwrap();
            assert_eq!(got, reference);
        }
        assert_eq!(memo.served() + memo.simulated(), 0, "memo untouched");
        assert!(memo.is_empty());
    }

    #[test]
    fn arena_shrinking_and_growing_workloads() {
        // A big trace then a small one then the big one again: the slab
        // must shrink/grow transparently with identical metrics.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let big = CompiledTrace::compile(&EasyportConfig::small().generate(3));
        let small = CompiledTrace::compile(&ramp(5, 32));
        let cfg = baseline(&hier);
        let mut arena = SimArena::new();
        let b1 = sim.run_in_arena(&cfg, &big, &mut arena).unwrap();
        let s1 = sim.run_in_arena(&cfg, &small, &mut arena).unwrap();
        let b2 = sim.run_in_arena(&cfg, &big, &mut arena).unwrap();
        assert_eq!(b1, b2);
        assert_eq!(s1, sim.run(&cfg, &ramp(5, 32)).unwrap());
        assert_eq!(arena.reuses(), 2, "small + repeat big reuse the slab");
    }
}
