//! The pool memo: exact reuse of per-pool replay outcomes.
//!
//! A search replays the same pool on the same request sizes once for
//! every configuration that contains it. Within one composite, pools
//! interact only through the level capacities they reserve from and
//! through spills to the fallback, so a pool's whole contribution to a
//! spill-free replay — its metadata reads and writes, its reserved bytes
//! and the bytes each of its blocks occupies — depends on nothing but its
//! kind, its level and the sizes routed to it. [`PoolMemo`] stores that
//! contribution the first time a pool is simulated and
//! [`Simulator::run_memo`](crate::Simulator::run_memo) serves it to every
//! later configuration containing the same pool. `docs/ARCHITECTURE.md`
//! ("Pool memo") gives the exactness argument and the conditions under
//! which a replay is rerun with every pool live.
//!
//! Occupancy is stored as exceptions only: an allocation whose
//! `occupied` differs from
//! [`Pool::nominal_occupied`](crate::pool::Pool::nominal_occupied)
//! is kept as a varint-coded (ordinal gap, delta) pair, so the common
//! outcome — no exceptions at all — costs no bytes. Exceptions come
//! from general pools handing out unsplit free blocks or whole chunks:
//! the gap to the previous exception is almost always 0 or 1 and the
//! delta a positive multiple of 8, so both usually share one varint of
//! at most two bytes.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use dmx_memhier::{LevelId, MemoryHierarchy};
use dmx_trace::CompiledTrace;

use crate::composite::CompositeAllocator;
use crate::config::{AllocatorConfig, PoolKind};
use crate::ctx::AllocCtx;

/// What determines one pool's replay on the memo's trace.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PoolKey {
    kind: PoolKind,
    level: LevelId,
    /// Bit `i` is set when the trace's `i`-th distinct request size
    /// routes to this pool first.
    routed: Box<[u64]>,
}

/// One pool's whole contribution to a spill-free replay.
#[derive(Debug)]
pub(crate) struct PoolOutcome {
    /// The level the pool charges (its own).
    pub(crate) level: LevelId,
    /// Metadata reads charged.
    pub(crate) reads: u64,
    /// Metadata writes charged.
    pub(crate) writes: u64,
    /// Bytes reserved from the level by the end of the run.
    pub(crate) reserved: u64,
    /// Occupancy exceptions, as written by [`Exceptions`].
    exceptions: Box<[u8]>,
}

impl PoolOutcome {
    /// A cursor replaying this outcome's occupancy exceptions in order.
    pub(crate) fn cursor(&self) -> ExceptionCursor<'_> {
        ExceptionCursor::new(&self.exceptions)
    }
}

/// Exact per-pool replay outcomes for one (platform, compiled trace)
/// pair, reused across the configurations of a search.
///
/// A memo is bound to the trace it was created for — that very
/// `CompiledTrace` allocation, held by a weak handle — and to the
/// level capacities of its hierarchy, the only property of a platform a
/// pool's outcome depends on. Replaying any other trace, or on a
/// platform with other capacities, panics. Its retained exception bytes
/// are bounded by a fixed 192 KiB, and one outcome by an eighth of
/// that: an outcome that does not fit is simply not stored, and its pool
/// is simulated again the next time it appears.
#[derive(Debug)]
pub struct PoolMemo {
    /// The trace this memo is bound to. A weak handle keeps the
    /// trace's allocation, so no other trace can take its address while
    /// the memo lives, without keeping the trace itself alive.
    trace: Weak<CompiledTrace>,
    /// The trace's request sizes, indexed on the first memoized run (a
    /// memo whose replays all bypass it never builds the index).
    sizes: Option<SizeIndex>,
    /// The bound hierarchy's level capacities.
    capacities: Vec<u64>,
    outcomes: HashMap<PoolKey, PoolOutcome>,
    exception_bytes: usize,
    budget: usize,
    served: u64,
    simulated: u64,
    spill_reruns: u64,
    capacity_reruns: u64,
}

/// Why a walk that served pools from the memo cannot vouch for its
/// result; the run is then replayed with every pool live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rerun {
    /// A live pool refused an allocation. In the coupled run it spills
    /// to the fallback, whose memoized outcome never saw that request.
    Spill,
    /// The memoized pools' reservations do not fit next to the live
    /// ones on some level, so a reservation of the coupled run could
    /// have failed.
    Capacity,
}

/// Bytes of occupancy exceptions one memo retains at most. A search's
/// heaviest outcomes (general pools serving unsplit blocks on long
/// traces) run to a few KiB each; this keeps dozens of them per workload
/// while bounding each worker's memo to a fixed, small share of memory.
const EXCEPTION_BUDGET: usize = 192 * 1024;

impl PoolMemo {
    /// An empty memo for replays of `trace` on `hierarchy`.
    pub fn new(hierarchy: &MemoryHierarchy, trace: &Arc<CompiledTrace>) -> Self {
        Self::with_budget(hierarchy, trace, EXCEPTION_BUDGET)
    }

    /// An empty memo retaining at most `budget` exception bytes, for
    /// tests that need the budget to bite on small traces.
    pub(crate) fn with_budget(
        hierarchy: &MemoryHierarchy,
        trace: &Arc<CompiledTrace>,
        budget: usize,
    ) -> Self {
        PoolMemo {
            trace: Arc::downgrade(trace),
            sizes: None,
            capacities: capacities(hierarchy),
            outcomes: HashMap::new(),
            exception_bytes: 0,
            budget,
            served: 0,
            simulated: 0,
            spill_reruns: 0,
            capacity_reruns: 0,
        }
    }

    /// Pools served from the memo instead of simulated, over all runs.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Pools simulated live in runs through the memo (reruns included).
    pub fn simulated(&self) -> u64 {
        self.simulated
    }

    /// Runs replayed a second time with every pool live because a
    /// memoized outcome could not be vouched for.
    pub fn reruns(&self) -> u64 {
        self.spill_reruns + self.capacity_reruns
    }

    /// Reruns caused by a live pool refusing an allocation (a spill).
    pub fn spill_reruns(&self) -> u64 {
        self.spill_reruns
    }

    /// Reruns caused by the pools' reservations overrunning a level.
    pub fn capacity_reruns(&self) -> u64 {
        self.capacity_reruns
    }

    /// Stored pool outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` if no outcome is stored yet.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Bytes of occupancy exceptions retained.
    pub fn exception_bytes(&self) -> usize {
        self.exception_bytes
    }

    /// Readies the memo for a run of `trace` on `hierarchy`, indexing
    /// the trace's request sizes on the first call.
    ///
    /// # Panics
    ///
    /// Panics unless `trace` is the trace this memo was created for and
    /// `hierarchy` has the same level capacities as its hierarchy. The
    /// trace check is by address, which the memo's weak handle keeps
    /// from being reused.
    pub(crate) fn bind(&mut self, hierarchy: &MemoryHierarchy, trace: &CompiledTrace) {
        assert!(
            std::ptr::eq(self.trace.as_ptr(), trace) && self.capacities == capacities(hierarchy),
            "pool memo used with a trace or platform it was not created for"
        );
        self.sizes.get_or_insert_with(|| SizeIndex::new(trace));
    }

    /// The key of every pool of `allocator`, built from `config`, in
    /// composition order, and the run's size table: for each distinct
    /// request size, the pool it routes to first and that pool's nominal
    /// occupancy for it.
    pub(crate) fn plan(
        &self,
        config: &AllocatorConfig,
        allocator: &CompositeAllocator,
    ) -> (Vec<PoolKey>, Option<SizeTable<'_>>) {
        debug_assert_eq!(config.pools.len(), allocator.pool_count());
        let index = self
            .sizes
            .as_ref()
            .expect("the memo is bound before planning");
        let words = index.sizes.len().div_ceil(64);
        let mut routed = vec![vec![0u64; words]; config.pools.len()];
        let mut by_size = Vec::with_capacity(index.sizes.len());
        for (i, &size) in index.sizes.iter().enumerate() {
            let pool = allocator.route(size);
            routed[pool][i / 64] |= 1 << (i % 64);
            by_size.push((pool as u32, allocator.nominal_occupied(pool, size)));
        }
        let keys = config
            .pools
            .iter()
            .zip(routed)
            .map(|(spec, bits)| PoolKey {
                kind: spec.kind.clone(),
                level: spec.level,
                routed: bits.into_boxed_slice(),
            })
            .collect();
        let table = index.ids.as_deref().map(|ids| SizeTable { ids, by_size });
        (keys, table)
    }

    /// The stored outcome for `key`, if any.
    pub(crate) fn get(&self, key: &PoolKey) -> Option<&PoolOutcome> {
        self.outcomes.get(key)
    }

    /// Exception bytes a new outcome may use: what is left of the
    /// budget, but no more than an eighth of it, so one heavy pool (a
    /// general pool serving unsplit blocks on a long trace) cannot crowd
    /// out many light ones.
    pub(crate) fn room(&self) -> usize {
        (self.budget - self.exception_bytes).min(self.budget / 8)
    }

    /// Tallies one run: `served` pools came from the memo and
    /// `simulated` ran live; `rerun` names the cause when the run had to
    /// be replayed.
    pub(crate) fn count(&mut self, served: usize, simulated: usize, rerun: Option<Rerun>) {
        self.served += served as u64;
        self.simulated += simulated as u64;
        match rerun {
            Some(Rerun::Spill) => self.spill_reruns += 1,
            Some(Rerun::Capacity) => self.capacity_reruns += 1,
            None => {}
        }
    }

    /// Stores the outcome of the pool keyed `key`, which charged `ctx`
    /// (its own accounting context) during a spill-free run. Outcomes
    /// that overflow the budget, or that charged a level other than the
    /// pool's own, are dropped.
    pub(crate) fn store(&mut self, key: PoolKey, ctx: &AllocCtx, exceptions: Exceptions) {
        let Some(bytes) = exceptions.into_bytes() else {
            return;
        };
        let level = key.level;
        let meta = ctx.meta_counters.level(level);
        let own_level_only = ctx.meta_counters.total_accesses() == meta.total()
            && ctx.counters == ctx.meta_counters
            && ctx.footprint.peak_total() == ctx.footprint.reserved(level);
        if !own_level_only || bytes.len() > self.room() {
            return;
        }
        self.exception_bytes += bytes.len();
        self.outcomes.insert(
            key,
            PoolOutcome {
                level,
                reads: meta.reads,
                writes: meta.writes,
                reserved: ctx.footprint.reserved(level),
                exceptions: bytes.into_boxed_slice(),
            },
        );
    }
}

/// A trace's distinct request sizes and each allocation's index into
/// them.
#[derive(Debug)]
struct SizeIndex {
    /// The distinct sizes, ascending.
    sizes: Vec<u32>,
    /// Index into `sizes` of each allocation's size, in allocation
    /// order, so the walk routes by table instead of per request; `None`
    /// for a trace with more distinct sizes than a `u16` can number.
    ids: Option<Vec<u16>>,
}

impl SizeIndex {
    fn new(trace: &CompiledTrace) -> Self {
        let mut sizes = trace.alloc_sizes().to_vec();
        sizes.sort_unstable();
        sizes.dedup();
        sizes.shrink_to_fit();
        let ids = (sizes.len() <= usize::from(u16::MAX) + 1).then(|| {
            trace
                .alloc_sizes()
                .iter()
                .map(|size| sizes.binary_search(size).expect("a distinct size") as u16)
                .collect()
        });
        SizeIndex { sizes, ids }
    }
}

/// One run's routing by allocation ordinal: the first pool and nominal
/// occupancy of every allocation, looked up through its size id.
#[derive(Debug)]
pub(crate) struct SizeTable<'m> {
    ids: &'m [u16],
    by_size: Vec<(u32, u32)>,
}

impl SizeTable<'_> {
    /// (first pool, nominal occupancy) of the `ordinal`-th allocation.
    #[inline]
    pub(crate) fn get(&self, ordinal: usize) -> (usize, u32) {
        let (pool, nominal) = self.by_size[self.ids[ordinal] as usize];
        (pool as usize, nominal)
    }
}

fn capacities(hierarchy: &MemoryHierarchy) -> Vec<u64> {
    hierarchy
        .iter()
        .map(|(_, level)| level.capacity())
        .collect()
}

/// Records the allocations of one live pool whose `occupied` differs
/// from the pool's nominal value. Each exception is one varint `head`:
/// `(delta / 8) << 2 | gap` when the gap to the previous exception is at
/// most 2 and the delta a positive multiple of 8, else `3` followed by
/// the gap and the zigzag delta as varints. Stops recording once it
/// outgrows its byte cap.
#[derive(Debug)]
pub(crate) struct Exceptions {
    bytes: Vec<u8>,
    /// The ordinal just past the last recorded exception.
    next: u64,
    cap: usize,
    overflow: bool,
}

impl Exceptions {
    /// A recorder that gives up beyond `cap` bytes.
    pub(crate) fn with_cap(cap: usize) -> Self {
        Exceptions {
            bytes: Vec::new(),
            next: 0,
            cap,
            overflow: false,
        }
    }

    /// Notes that the pool's `ordinal`-th allocation occupied `occupied`
    /// bytes where `nominal` was expected.
    #[inline]
    pub(crate) fn note(&mut self, ordinal: u64, nominal: u32, occupied: u32) {
        if occupied == nominal || self.overflow {
            return;
        }
        if self.bytes.capacity() - self.bytes.len() < MAX_EXCEPTION_BYTES {
            // Grow geometrically, but never far past the cap: a recorder
            // that is going to overflow holds at most that much.
            let want = (2 * self.bytes.capacity())
                .max(64)
                .min(self.cap + MAX_EXCEPTION_BYTES);
            self.bytes.reserve_exact(want - self.bytes.len());
        }
        let gap = ordinal - self.next;
        let delta = i64::from(occupied) - i64::from(nominal);
        if gap <= 2 && delta > 0 && delta % 8 == 0 {
            put_varint(&mut self.bytes, (delta as u64 / 8) << 2 | gap);
        } else {
            put_varint(&mut self.bytes, ESCAPE);
            put_varint(&mut self.bytes, gap);
            put_varint(&mut self.bytes, zigzag(delta));
        }
        self.next = ordinal + 1;
        if self.bytes.len() > self.cap {
            self.overflow = true;
            self.bytes = Vec::new();
        }
    }

    /// The encoded exceptions, or `None` if the cap was exceeded.
    fn into_bytes(self) -> Option<Vec<u8>> {
        (!self.overflow).then_some(self.bytes)
    }
}

/// Replays a stored outcome's occupancy exceptions in ordinal order.
#[derive(Debug)]
pub(crate) struct ExceptionCursor<'m> {
    bytes: &'m [u8],
    pos: usize,
    /// Ordinal of the next exception; `u64::MAX` once none is left.
    at: u64,
    delta: i64,
}

impl<'m> ExceptionCursor<'m> {
    fn new(bytes: &'m [u8]) -> Self {
        let mut cursor = ExceptionCursor {
            bytes,
            pos: 0,
            at: 0,
            delta: 0,
        };
        cursor.advance(0);
        cursor
    }

    /// Decodes the exception following ordinal `from - 1`.
    fn advance(&mut self, from: u64) {
        if self.pos == self.bytes.len() {
            self.at = u64::MAX;
            return;
        }
        let head = self.varint();
        let gap = if head & ESCAPE == ESCAPE {
            let gap = self.varint();
            self.delta = unzigzag(self.varint());
            gap
        } else {
            self.delta = (head >> 2) as i64 * 8;
            head & ESCAPE
        };
        self.at = from + gap;
    }

    fn varint(&mut self) -> u64 {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.bytes[self.pos];
            self.pos += 1;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return value;
            }
            shift += 7;
        }
    }

    /// The bytes the pool's `ordinal`-th allocation occupied, given the
    /// pool's `nominal` value for its size. Ordinals must be asked in
    /// increasing order, each once.
    #[inline]
    pub(crate) fn occupied(&mut self, ordinal: u64, nominal: u32) -> u32 {
        if ordinal != self.at {
            return nominal;
        }
        let occupied = i64::from(nominal) + self.delta;
        self.advance(ordinal + 1);
        occupied as u32
    }
}

/// The head of an exception stored in the long form.
const ESCAPE: u64 = 3;

/// The longest encoding of one exception: the escape head, then two
/// ten-byte varints.
const MAX_EXCEPTION_BYTES: usize = 21;

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exceptions_roundtrip_through_the_cursor() {
        let nominal = |i: u64| 16 + (i % 5) as u32 * 8;
        let occupied = |i: u64| match i {
            0 | 3 | 200 => nominal(i) + 4096,
            7 => nominal(i) - 8,
            130 => nominal(i) + 1,
            _ => nominal(i),
        };
        let mut rec = Exceptions::with_cap(1 << 10);
        for i in 0..300 {
            rec.note(i, nominal(i), occupied(i));
        }
        let bytes = rec.into_bytes().expect("within the cap");
        // 0 and 3 take the short form (2 bytes each), 7, 130 and 200 the
        // long one (a negative delta, an odd delta, a long gap).
        assert!(bytes.len() <= 2 * 2 + 3 * 5, "{} bytes", bytes.len());
        let mut cursor = ExceptionCursor::new(&bytes);
        for i in 0..300 {
            assert_eq!(cursor.occupied(i, nominal(i)), occupied(i), "ordinal {i}");
        }
    }

    #[test]
    fn no_exceptions_cost_no_bytes() {
        let mut rec = Exceptions::with_cap(0);
        for i in 0..100 {
            rec.note(i, 24, 24);
        }
        assert_eq!(rec.into_bytes(), Some(Vec::new()));
        let mut cursor = ExceptionCursor::new(&[]);
        assert_eq!(cursor.occupied(0, 24), 24);
        assert_eq!(cursor.occupied(1, 40), 40);
    }

    #[test]
    fn a_recorder_over_its_cap_gives_up() {
        let mut rec = Exceptions::with_cap(4);
        for i in 0..10 {
            rec.note(i, 24, 8192);
        }
        assert_eq!(rec.into_bytes(), None);
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0, 1, -1, 63, -64, i64::from(u32::MAX), -i64::from(u32::MAX)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
