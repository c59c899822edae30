//! Per-simulation accounting context.
//!
//! Every allocator operation runs against an [`AllocCtx`]: the pools charge
//! their metadata accesses here, the simulator charges application accesses,
//! and the footprint tracker records how much memory each level has handed
//! out to pools. This is the software analogue of the paper's platform
//! instrumentation.

use dmx_memhier::{CounterSet, LevelId};

/// Tracks reserved bytes per level and their peaks.
///
/// *Footprint* in the paper's sense is the memory the allocator claims from
/// the platform — pool regions including headers, alignment and
/// fragmentation — not the bytes the application requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintTracker {
    reserved: Vec<u64>,
    peak_per_level: Vec<u64>,
    peak_total: u64,
}

impl FootprintTracker {
    /// A tracker for a hierarchy with `levels` levels.
    pub fn new(levels: usize) -> Self {
        FootprintTracker {
            reserved: vec![0; levels],
            peak_per_level: vec![0; levels],
            peak_total: 0,
        }
    }

    /// Records that `bytes` more were reserved on `level`.
    pub fn grow(&mut self, level: LevelId, bytes: u64) {
        let i = level.index();
        self.reserved[i] += bytes;
        self.peak_per_level[i] = self.peak_per_level[i].max(self.reserved[i]);
        let total: u64 = self.reserved.iter().sum();
        self.peak_total = self.peak_total.max(total);
    }

    /// Records that `bytes` were returned to `level` (arena reset).
    ///
    /// # Panics
    ///
    /// Panics if more bytes are released than are currently reserved —
    /// always an accounting bug in a pool implementation.
    pub fn shrink(&mut self, level: LevelId, bytes: u64) {
        let i = level.index();
        assert!(
            self.reserved[i] >= bytes,
            "pool released more than it reserved on {level}"
        );
        self.reserved[i] -= bytes;
    }

    /// Bytes currently reserved on `level`.
    pub fn reserved(&self, level: LevelId) -> u64 {
        self.reserved[level.index()]
    }

    /// Peak bytes reserved on `level`.
    pub fn peak(&self, level: LevelId) -> u64 {
        self.peak_per_level[level.index()]
    }

    /// Peak of total reserved bytes across all levels.
    pub fn peak_total(&self) -> u64 {
        self.peak_total
    }

    /// Per-level peaks, indexed by level.
    pub fn peaks(&self) -> &[u64] {
        &self.peak_per_level
    }

    /// Forgets every reservation and peak.
    fn reset(&mut self) {
        self.reserved.fill(0);
        self.peak_per_level.fill(0);
        self.peak_total = 0;
    }
}

/// The accounting context threaded through every allocator call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocCtx {
    /// All accesses: allocator metadata plus application data.
    pub counters: CounterSet,
    /// Allocator-metadata accesses only (a subset of `counters`), kept
    /// separately so reports can show allocator overhead vs. useful work.
    pub meta_counters: CounterSet,
    /// Number of allocator entries (`malloc` + `free`) executed.
    pub ops: u64,
    /// Footprint accounting.
    pub footprint: FootprintTracker,
}

impl AllocCtx {
    /// A fresh context for a hierarchy with `levels` levels.
    pub fn new(levels: usize) -> Self {
        AllocCtx {
            counters: CounterSet::new(levels),
            meta_counters: CounterSet::new(levels),
            ops: 0,
            footprint: FootprintTracker::new(levels),
        }
    }

    /// Charges `n` allocator-metadata reads at `level`.
    #[inline]
    pub fn meta_read(&mut self, level: LevelId, n: u64) {
        self.counters.record_reads(level, n);
        self.meta_counters.record_reads(level, n);
    }

    /// Charges `n` allocator-metadata writes at `level`.
    #[inline]
    pub fn meta_write(&mut self, level: LevelId, n: u64) {
        self.counters.record_writes(level, n);
        self.meta_counters.record_writes(level, n);
    }

    /// Charges application accesses to a block living at `level`.
    #[inline]
    pub fn app_access(&mut self, level: LevelId, reads: u64, writes: u64) {
        self.counters.record_reads(level, reads);
        self.counters.record_writes(level, writes);
    }

    /// Counts one allocator entry (`malloc` or `free`).
    #[inline]
    pub fn count_op(&mut self) {
        self.ops += 1;
    }

    /// Zeroes the context in place for a new run over the same number of
    /// levels.
    pub(crate) fn reset(&mut self) {
        self.counters.reset();
        self.meta_counters.reset();
        self.ops = 0;
        self.footprint.reset();
    }

    /// Adds everything `other` charged into `self`. Footprint folds in as
    /// `other`'s final per-level reservations: no pool ever releases a
    /// reservation, so reserved bytes only grow and every peak is a
    /// final sum — in whichever order the contexts are combined.
    pub(crate) fn absorb(&mut self, other: &AllocCtx) {
        self.counters.merge(&other.counters);
        self.meta_counters.merge(&other.meta_counters);
        self.ops += other.ops;
        for (i, &bytes) in other.footprint.reserved.iter().enumerate() {
            if bytes > 0 {
                self.footprint.grow(LevelId(i as u16), bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_peaks_are_monotone() {
        let mut f = FootprintTracker::new(2);
        f.grow(LevelId(0), 100);
        f.grow(LevelId(1), 50);
        assert_eq!(f.peak_total(), 150);
        f.shrink(LevelId(0), 100);
        assert_eq!(f.reserved(LevelId(0)), 0);
        // Peaks do not drop.
        assert_eq!(f.peak(LevelId(0)), 100);
        assert_eq!(f.peak_total(), 150);
        f.grow(LevelId(1), 20);
        assert_eq!(f.reserved(LevelId(1)), 70);
        assert_eq!(f.peak_total(), 150, "70 < previous peak");
    }

    #[test]
    #[should_panic(expected = "released more than it reserved")]
    fn over_shrink_panics() {
        let mut f = FootprintTracker::new(1);
        f.shrink(LevelId(0), 1);
    }

    #[test]
    fn meta_charges_hit_both_counter_sets() {
        let mut ctx = AllocCtx::new(2);
        ctx.meta_read(LevelId(0), 3);
        ctx.meta_write(LevelId(1), 2);
        assert_eq!(ctx.counters.total_accesses(), 5);
        assert_eq!(ctx.meta_counters.total_accesses(), 5);
    }

    #[test]
    fn app_accesses_do_not_count_as_meta() {
        let mut ctx = AllocCtx::new(1);
        ctx.app_access(LevelId(0), 10, 5);
        assert_eq!(ctx.counters.total_accesses(), 15);
        assert_eq!(ctx.meta_counters.total_accesses(), 0);
    }

    #[test]
    fn ops_count() {
        let mut ctx = AllocCtx::new(1);
        ctx.count_op();
        ctx.count_op();
        assert_eq!(ctx.ops, 2);
    }
}
