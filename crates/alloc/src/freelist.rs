//! The parameterized free list of a general pool.
//!
//! Two models meet here and must not be confused.
//!
//! The **charged model** is the simulated data structure the configuration
//! denotes. It alone decides what the simulation is billed:
//!
//! * `Lifo`/`Fifo` — a singly-linked list with head (and tail) pointers:
//!   O(1) insertion (2 writes), searches walk from the head at 2 reads per
//!   examined node (size word + next pointer);
//! * `AddressOrdered`/`SizeOrdered` — a sorted singly-linked list:
//!   insertion additionally walks to its position (2 reads per examined
//!   node);
//! * direct removals (used by boundary-tag coalescing) are charged as
//!   doubly-linked unlinking: 2 writes, no walk.
//!
//! The **host container** is how this process stores the entries. It keeps
//! the simulated list's order exactly, so every search picks the block the
//! simulated walk would pick, and the walk's probe count follows from list
//! positions and is charged in one call. The host never has to visit those
//! nodes one by one:
//!
//! * `Lifo`/`Fifo`/`AddressOrdered` lists are unrolled: runs of at most
//!   `2·RUN` entries in list order, each caching a bound on its largest
//!   size. First-, next- and best-fit skip every run whose bound is below
//!   the request; worst-fit takes the largest bound and scans the first
//!   run that holds it; an address-ordered insert binary-searches the run
//!   tails, then the run. Positions are found by walking run lengths.
//! * `SizeOrdered` lists stay on a `VecDeque`. Their searches are already
//!   a prefix scan or a tail read, and the insert index among equal sizes
//!   comes from `VecDeque::binary_search_by`, which depends on where the
//!   ring buffer wraps. The pinned goldens record that tie order.

use std::collections::VecDeque;

use dmx_memhier::LevelId;

use crate::ctx::AllocCtx;
use crate::policy::{FitPolicy, FreeOrder};

/// Cost of examining one list node during a walk (read size, read next).
const READS_PER_PROBE: u64 = 2;

/// Half the longest run of an unrolled list: a run that outgrows `2·RUN`
/// entries splits into two.
const RUN: usize = 128;

/// A free list of `(address, size)` entries kept in a configured order.
#[derive(Debug, Clone)]
pub struct FreeList {
    order: FreeOrder,
    entries: Entries,
    rover: usize,
}

/// The host container, chosen by the list's order.
#[derive(Debug, Clone)]
enum Entries {
    /// `Lifo`, `Fifo` and `AddressOrdered` lists.
    Runs(Runs),
    /// `SizeOrdered` lists.
    BySize(VecDeque<(u64, u32)>),
}

/// An unrolled list: non-empty runs, concatenated in list order.
#[derive(Debug, Clone, Default)]
struct Runs {
    runs: Vec<Run>,
    len: usize,
}

/// One run of an unrolled list.
#[derive(Debug, Clone)]
struct Run {
    /// The run's entries are `buf[head..]`. `buf[..head]` is slack that
    /// removals at the front leave and inserts at the front reuse, so an
    /// edit shifts whichever side of it is shorter, as a ring buffer
    /// would, while the entries stay one slice.
    buf: Vec<(u64, u32)>,
    head: usize,
    /// An upper bound on the run's sizes, exact when the run is built or
    /// split. Inserts raise it and removals leave it alone, so no edit
    /// rescans the run. A search that reads the whole run tightens it,
    /// and so does worst-fit, which needs the exact maximum.
    max: u32,
}

impl Run {
    fn new(buf: Vec<(u64, u32)>) -> Run {
        let mut run = Run {
            buf,
            head: 0,
            max: 0,
        };
        run.refresh_max();
        run
    }

    fn items(&self) -> &[(u64, u32)] {
        &self.buf[self.head..]
    }

    fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    fn refresh_max(&mut self) {
        self.max = self.items().iter().map(|&(_, s)| s).max().unwrap_or(0);
    }

    fn insert(&mut self, off: usize, entry: (u64, u32)) {
        if 2 * off < self.len() {
            if self.head == 0 {
                // Open slack for this and the next RUN - 1 front inserts.
                self.buf.splice(0..0, std::iter::repeat_n((0, 0), RUN));
                self.head = RUN;
            }
            self.head -= 1;
            let h = self.head;
            self.buf.copy_within(h + 1..h + 1 + off, h);
            self.buf[h + off] = entry;
        } else {
            self.buf.insert(self.head + off, entry);
        }
        self.max = self.max.max(entry.1);
    }

    fn remove(&mut self, off: usize) -> (u64, u32) {
        let h = self.head;
        let entry = self.buf[h + off];
        if 2 * off < self.len() {
            self.buf.copy_within(h..h + off, h + 1);
            self.head += 1;
            if self.head > 2 * RUN {
                // Bound the slack a queue-like run accumulates.
                self.buf.drain(..self.head - RUN);
                self.head = RUN;
            }
        } else {
            self.buf.remove(h + off);
        }
        entry
    }
}

impl Runs {
    fn from_entries(entries: Vec<(u64, u32)>) -> Runs {
        Runs {
            len: entries.len(),
            runs: entries.chunks(RUN).map(|c| Run::new(c.to_vec())).collect(),
        }
    }

    /// The run holding list position `idx` and the offset within it;
    /// `idx == len` maps to the end of the last run. Walks the run
    /// lengths from whichever end of the list is nearer.
    fn locate(&self, idx: usize) -> (usize, usize) {
        debug_assert!(idx <= self.len, "position {idx} past the end");
        if 2 * idx >= self.len {
            let mut end = self.len;
            for (r, run) in self.runs.iter().enumerate().rev() {
                let start = end - run.len();
                if idx >= start {
                    return (r, idx - start);
                }
                end = start;
            }
            unreachable!("position {idx} lies in the back half")
        }
        let mut off = idx;
        for (r, run) in self.runs.iter().enumerate() {
            if off < run.len() {
                return (r, off);
            }
            off -= run.len();
        }
        unreachable!("position {idx} lies in the front half")
    }

    fn get(&self, idx: usize) -> (u64, u32) {
        let (r, off) = self.locate(idx);
        self.runs[r].items()[off]
    }

    fn insert(&mut self, pos: usize, entry: (u64, u32)) {
        if self.runs.is_empty() {
            self.runs.push(Run::new(Vec::new()));
        }
        let (r, off) = self.locate(pos);
        self.len += 1;
        let run = &mut self.runs[r];
        run.insert(off, entry);
        if run.len() > 2 * RUN {
            let tail = run.buf.split_off(run.head + RUN);
            run.refresh_max();
            self.runs.insert(r + 1, Run::new(tail));
        }
    }

    fn remove(&mut self, idx: usize) -> (u64, u32) {
        let (r, off) = self.locate(idx);
        let run = &mut self.runs[r];
        let entry = run.remove(off);
        if run.len() == 0 {
            self.runs.remove(r);
        }
        self.len -= 1;
        entry
    }

    fn set(&mut self, idx: usize, entry: (u64, u32)) {
        let (r, off) = self.locate(idx);
        let run = &mut self.runs[r];
        run.buf[run.head + off] = entry;
        run.max = run.max.max(entry.1);
    }

    /// Index of the first entry at or after `start` whose size fits
    /// `need`, skipping runs that cannot hold one.
    fn first_fit_from(&mut self, start: usize, need: u32) -> Option<usize> {
        if start >= self.len {
            return None;
        }
        let (r0, off) = self.locate(start);
        let mut base = start - off;
        for (r, run) in self.runs.iter_mut().enumerate().skip(r0) {
            let skip = if r == r0 { off } else { 0 };
            if run.max >= need {
                if let Some(k) = run.items()[skip..].iter().position(|&(_, s)| s >= need) {
                    return Some(base + skip + k);
                }
                if skip == 0 {
                    // Nothing in the run fits: its bound was stale.
                    run.refresh_max();
                }
            }
            base += run.len();
        }
        None
    }

    /// Best fit in list order: `(probes, index)`. The walk stops at the
    /// first exact fit; otherwise it examines every node.
    fn best_fit(&mut self, need: u32) -> (usize, Option<usize>) {
        let mut best: Option<(usize, u32)> = None;
        let mut base = 0;
        for run in &mut self.runs {
            if run.max >= need {
                let mut max = 0;
                for (k, &(_, size)) in run.items().iter().enumerate() {
                    max = max.max(size);
                    if size >= need && best.is_none_or(|(_, bs)| size < bs) {
                        best = Some((base + k, size));
                        if size == need {
                            return (base + k + 1, Some(base + k));
                        }
                    }
                }
                // The whole run was read: its bound is now exact.
                run.max = max;
            }
            base += run.len();
        }
        (self.len, best.map(|(k, _)| k))
    }

    /// The first entry, in list order, holding the largest size, if that
    /// size fits `need`. The first run whose bound is the largest either
    /// holds it, or its bound is stale: tighten that bound and look again.
    fn worst_fit(&mut self, need: u32) -> Option<usize> {
        loop {
            let top = self.runs.iter().map(|run| run.max).max()?;
            if top < need {
                return None;
            }
            let mut base = 0;
            for run in &mut self.runs {
                if run.max == top {
                    match run.items().iter().position(|&(_, s)| s == top) {
                        Some(k) => return Some(base + k),
                        None => {
                            run.refresh_max();
                            break;
                        }
                    }
                }
                base += run.len();
            }
        }
    }

    /// Index of the entry holding `addr`, if any.
    fn position_of(&self, addr: u64) -> Option<usize> {
        let mut base = 0;
        for run in &self.runs {
            if let Some(k) = run.items().iter().position(|&(a, _)| a == addr) {
                return Some(base + k);
            }
            base += run.len();
        }
        None
    }

    /// Number of entries whose address is below `addr` (an address-ordered
    /// list's insertion point for `addr`).
    fn addr_rank(&self, addr: u64) -> usize {
        let r = self
            .runs
            .partition_point(|run| run.items().last().is_some_and(|&(a, _)| a < addr));
        let base: usize = self.runs[..r].iter().map(Run::len).sum();
        base + self
            .runs
            .get(r)
            .map_or(0, |run| run.items().partition_point(|&(a, _)| a < addr))
    }
}

impl Entries {
    fn len(&self) -> usize {
        match self {
            Entries::Runs(runs) => runs.len,
            Entries::BySize(items) => items.len(),
        }
    }

    fn get(&self, idx: usize) -> (u64, u32) {
        match self {
            Entries::Runs(runs) => runs.get(idx),
            Entries::BySize(items) => items[idx],
        }
    }

    fn insert(&mut self, pos: usize, entry: (u64, u32)) {
        match self {
            Entries::Runs(runs) => runs.insert(pos, entry),
            Entries::BySize(items) => items.insert(pos, entry),
        }
    }

    fn remove(&mut self, idx: usize) -> (u64, u32) {
        match self {
            Entries::Runs(runs) => runs.remove(idx),
            Entries::BySize(items) => items.remove(idx).expect("index in range"),
        }
    }

    /// Index of the first entry at or after `start` whose size fits `need`
    /// (list order, no wrap, no charging — callers account the walk).
    fn first_fit_from(&mut self, start: usize, need: u32) -> Option<usize> {
        match self {
            Entries::Runs(runs) => runs.first_fit_from(start, need),
            Entries::BySize(items) => {
                let (a, b) = items.as_slices();
                if start < a.len() {
                    if let Some(k) = a[start..].iter().position(|&(_, s)| s >= need) {
                        return Some(start + k);
                    }
                    b.iter().position(|&(_, s)| s >= need).map(|k| a.len() + k)
                } else {
                    b[start - a.len()..]
                        .iter()
                        .position(|&(_, s)| s >= need)
                        .map(|k| start + k)
                }
            }
        }
    }
}

impl FreeList {
    /// An empty list with the given order discipline.
    pub fn new(order: FreeOrder) -> Self {
        let entries = match order {
            FreeOrder::SizeOrdered => Entries::BySize(VecDeque::new()),
            FreeOrder::Lifo | FreeOrder::Fifo | FreeOrder::AddressOrdered => {
                Entries::Runs(Runs::default())
            }
        };
        FreeList {
            order,
            entries,
            rover: 0,
        }
    }

    /// The configured order discipline.
    pub fn order(&self) -> FreeOrder {
        self.order
    }

    /// Number of free blocks on the list.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the list holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry at `idx` (list order).
    pub fn get(&self, idx: usize) -> (u64, u32) {
        self.entries.get(idx)
    }

    /// Iterates over `(address, size)` entries in list order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let (runs, by_size) = match &self.entries {
            Entries::Runs(runs) => (Some(&runs.runs), None),
            Entries::BySize(items) => (None, Some(items)),
        };
        runs.into_iter()
            .flatten()
            .flat_map(|run| run.items().iter().copied())
            .chain(by_size.into_iter().flatten().copied())
    }

    /// Inserts a freed block, charging the order's insertion cost.
    /// Returns the index at which the block now sits.
    pub fn insert(&mut self, addr: u64, size: u32, level: LevelId, ctx: &mut AllocCtx) -> usize {
        let pos = match (&self.entries, self.order) {
            (_, FreeOrder::Lifo) => 0,
            (_, FreeOrder::Fifo) => self.len(),
            (Entries::Runs(runs), _) => runs.addr_rank(addr),
            (Entries::BySize(items), _) => items
                .binary_search_by(|(_, s)| s.cmp(&size))
                .unwrap_or_else(|p| p),
        };
        if matches!(
            self.order,
            FreeOrder::AddressOrdered | FreeOrder::SizeOrdered
        ) {
            // The sorted list walks to the insertion point.
            ctx.meta_read(level, READS_PER_PROBE * pos as u64);
        }
        ctx.meta_write(level, 2);
        self.entries.insert(pos, (addr, size));
        self.bump_rover_on_insert(pos);
        pos
    }

    /// Searches for a block of at least `need` bytes under `fit`, charging
    /// the walk. Returns the index of the chosen block.
    ///
    /// The walk cost is computed from list positions and charged in one
    /// call per search (same totals as charging every probe individually),
    /// so the host container is free to skip runs the walk would only
    /// have counted.
    pub fn find(
        &mut self,
        fit: FitPolicy,
        need: u32,
        level: LevelId,
        ctx: &mut AllocCtx,
    ) -> Option<usize> {
        let n = self.len();
        if n == 0 {
            // Reading the (null) head pointer still costs one access.
            ctx.meta_read(level, 1);
            return None;
        }
        let (probes, found) = match (fit, &mut self.entries) {
            (FitPolicy::BestFit, Entries::Runs(runs)) => runs.best_fit(need),
            (FitPolicy::WorstFit, Entries::Runs(runs)) => (n, runs.worst_fit(need)),
            (FitPolicy::WorstFit, Entries::BySize(items)) => {
                // Sorted ascending: the tail is the largest block.
                let k = n - 1;
                (1, (items[k].1 >= need).then_some(k))
            }
            // On a size-sorted list the first fitting block is also the best.
            (FitPolicy::FirstFit | FitPolicy::BestFit, entries) => {
                match entries.first_fit_from(0, need) {
                    Some(k) => (k + 1, Some(k)),
                    None => (n, None),
                }
            }
            (FitPolicy::NextFit, entries) => {
                let start = self.rover.min(n - 1);
                // One wrapped scan: rover→end, then head→rover.
                let hit = match entries.first_fit_from(start, need) {
                    Some(k) => Some((k - start + 1, k)),
                    None => entries
                        .first_fit_from(0, need)
                        .filter(|&k| k < start)
                        .map(|k| ((n - start) + k + 1, k)),
                };
                match hit {
                    Some((probes, k)) => {
                        self.rover = k;
                        (probes, Some(k))
                    }
                    None => (n, None),
                }
            }
        };
        ctx.meta_read(level, READS_PER_PROBE * probes as u64);
        found
    }

    /// Removes the entry at `idx` after a charged walk reached it (the
    /// walk retained the predecessor, so unlinking is one pointer write).
    pub fn take(&mut self, idx: usize, level: LevelId, ctx: &mut AllocCtx) -> (u64, u32) {
        ctx.meta_write(level, 1);
        self.remove(idx)
    }

    /// Removes the entry holding `addr` by direct (doubly-linked) unlink:
    /// charged 2 writes, no walk. Returns the entry if present.
    ///
    /// The host-side position lookup is *not* charged — the simulated
    /// structure reaches the node through the block's boundary tags.
    pub fn remove_addr_direct(
        &mut self,
        addr: u64,
        level: LevelId,
        ctx: &mut AllocCtx,
    ) -> Option<(u64, u32)> {
        let idx = match &self.entries {
            Entries::Runs(runs) => runs.position_of(addr),
            Entries::BySize(items) => items.iter().position(|&(a, _)| a == addr),
        }?;
        ctx.meta_write(level, 2);
        Some(self.remove(idx))
    }

    /// Replaces the entry at `idx` with a split remainder, charging the
    /// in-place node rewrite (or a reposition for a size-ordered list).
    pub fn replace(
        &mut self,
        idx: usize,
        addr: u64,
        size: u32,
        level: LevelId,
        ctx: &mut AllocCtx,
    ) {
        match &mut self.entries {
            Entries::BySize(_) => {
                // The remainder is smaller: the node must be repositioned.
                ctx.meta_write(level, 1);
                self.remove(idx);
                self.insert(addr, size, level, ctx);
            }
            Entries::Runs(runs) => {
                ctx.meta_write(level, 2);
                runs.set(idx, (addr, size));
            }
        }
    }

    /// Clears the list without charging (used when a sweep rebuilds the
    /// list; the sweep itself is charged by the caller).
    pub fn rebuild<I: IntoIterator<Item = (u64, u32)>>(&mut self, entries: I) {
        self.rover = 0;
        match &mut self.entries {
            Entries::BySize(items) => {
                items.clear();
                items.extend(entries);
                items.make_contiguous().sort_by_key(|(_, s)| *s);
            }
            Entries::Runs(runs) => {
                let mut flat: Vec<(u64, u32)> = entries.into_iter().collect();
                if self.order == FreeOrder::AddressOrdered {
                    flat.sort_by_key(|(a, _)| *a);
                }
                *runs = Runs::from_entries(flat);
            }
        }
    }

    /// Removes the entry at `idx` uncharged, keeping the rover in range.
    fn remove(&mut self, idx: usize) -> (u64, u32) {
        let entry = self.entries.remove(idx);
        self.fix_rover_on_remove(idx);
        entry
    }

    fn bump_rover_on_insert(&mut self, pos: usize) {
        if pos <= self.rover && !self.is_empty() {
            self.rover = (self.rover + 1).min(self.len() - 1);
        }
    }

    fn fix_rover_on_remove(&mut self, pos: usize) {
        if self.is_empty() {
            self.rover = 0;
        } else {
            if pos < self.rover {
                self.rover -= 1;
            }
            self.rover = self.rover.min(self.len() - 1);
        }
    }
}

impl PartialEq for FreeList {
    /// Two lists are equal when they hold the same entries in the same
    /// order under the same discipline and rover, however the host
    /// container happens to group them.
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order && self.rover == other.rover && self.iter().eq(other.iter())
    }
}

impl Eq for FreeList {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> AllocCtx {
        AllocCtx::new(1)
    }
    const L: LevelId = LevelId(0);

    #[test]
    fn lifo_inserts_at_head() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Lifo);
        fl.insert(100, 32, L, &mut c);
        fl.insert(200, 64, L, &mut c);
        assert_eq!(fl.get(0), (200, 64));
        assert_eq!(fl.get(1), (100, 32));
        // Two O(1) insertions: 4 writes, no reads.
        assert_eq!(c.meta_counters.total_writes(), 4);
        assert_eq!(c.meta_counters.total_reads(), 0);
    }

    #[test]
    fn fifo_appends_at_tail() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo);
        fl.insert(100, 32, L, &mut c);
        fl.insert(200, 64, L, &mut c);
        assert_eq!(fl.get(0), (100, 32));
        assert_eq!(fl.get(1), (200, 64));
    }

    #[test]
    fn address_order_is_sorted_and_charged() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::AddressOrdered);
        fl.insert(300, 8, L, &mut c);
        fl.insert(100, 8, L, &mut c);
        let reads_before = c.meta_counters.total_reads();
        fl.insert(200, 8, L, &mut c); // walks past 100 → 2 reads
        assert_eq!(c.meta_counters.total_reads() - reads_before, 2);
        let addrs: Vec<u64> = fl.iter().map(|(a, _)| a).collect();
        assert_eq!(addrs, [100, 200, 300]);
    }

    #[test]
    fn size_order_is_sorted() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::SizeOrdered);
        fl.insert(1, 64, L, &mut c);
        fl.insert(2, 16, L, &mut c);
        fl.insert(3, 32, L, &mut c);
        let sizes: Vec<u32> = fl.iter().map(|(_, s)| s).collect();
        assert_eq!(sizes, [16, 32, 64]);
    }

    #[test]
    fn first_fit_takes_first_fitting() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo);
        fl.insert(1, 16, L, &mut c);
        fl.insert(2, 64, L, &mut c);
        fl.insert(3, 128, L, &mut c);
        let idx = fl.find(FitPolicy::FirstFit, 32, L, &mut c).unwrap();
        assert_eq!(fl.get(idx), (2, 64));
    }

    #[test]
    fn first_fit_charges_walk_length() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo);
        for i in 0..10 {
            fl.insert(i, 8, L, &mut c);
        }
        fl.insert(99, 100, L, &mut c);
        let reads_before = c.meta_counters.total_reads();
        let idx = fl.find(FitPolicy::FirstFit, 50, L, &mut c).unwrap();
        assert_eq!(fl.get(idx).0, 99);
        // Walked all 11 nodes at 2 reads each.
        assert_eq!(c.meta_counters.total_reads() - reads_before, 22);
    }

    #[test]
    fn best_fit_picks_tightest() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo);
        fl.insert(1, 128, L, &mut c);
        fl.insert(2, 40, L, &mut c);
        fl.insert(3, 64, L, &mut c);
        let idx = fl.find(FitPolicy::BestFit, 33, L, &mut c).unwrap();
        assert_eq!(fl.get(idx), (2, 40));
    }

    #[test]
    fn best_fit_on_size_ordered_stops_early() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::SizeOrdered);
        for (a, s) in [(1, 16), (2, 32), (3, 64), (4, 128), (5, 256)] {
            fl.insert(a, s, L, &mut c);
        }
        let reads_before = c.meta_counters.total_reads();
        let idx = fl.find(FitPolicy::BestFit, 33, L, &mut c).unwrap();
        assert_eq!(fl.get(idx), (3, 64));
        // Examined 16, 32, 64 → 3 probes.
        assert_eq!(c.meta_counters.total_reads() - reads_before, 6);
    }

    #[test]
    fn worst_fit_picks_largest() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Lifo);
        fl.insert(1, 64, L, &mut c);
        fl.insert(2, 256, L, &mut c);
        fl.insert(3, 128, L, &mut c);
        let idx = fl.find(FitPolicy::WorstFit, 10, L, &mut c).unwrap();
        assert_eq!(fl.get(idx), (2, 256));
    }

    #[test]
    fn next_fit_resumes_from_rover() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo);
        for i in 0..4 {
            fl.insert(i, 32, L, &mut c);
        }
        let first = fl.find(FitPolicy::NextFit, 16, L, &mut c).unwrap();
        assert_eq!(fl.get(first).0, 0);
        // Rover stays at the hit; next search starts there, not at head.
        let second = fl.find(FitPolicy::NextFit, 16, L, &mut c).unwrap();
        assert_eq!(fl.get(second).0, 0);
        fl.take(second, L, &mut c);
        let third = fl.find(FitPolicy::NextFit, 16, L, &mut c).unwrap();
        assert_eq!(fl.get(third).0, 1);
    }

    #[test]
    fn miss_returns_none_but_charges() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Lifo);
        fl.insert(1, 8, L, &mut c);
        let reads_before = c.meta_counters.total_reads();
        assert!(fl.find(FitPolicy::FirstFit, 64, L, &mut c).is_none());
        assert_eq!(c.meta_counters.total_reads() - reads_before, 2);
        // Empty list: head read still charged.
        let mut empty = FreeList::new(FreeOrder::Lifo);
        assert!(empty.find(FitPolicy::FirstFit, 1, L, &mut c).is_none());
    }

    #[test]
    fn take_unlinks_with_one_write() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo);
        fl.insert(1, 8, L, &mut c);
        fl.insert(2, 8, L, &mut c);
        let writes_before = c.meta_counters.total_writes();
        let (addr, _) = fl.take(0, L, &mut c);
        assert_eq!(addr, 1);
        assert_eq!(c.meta_counters.total_writes() - writes_before, 1);
        assert_eq!(fl.len(), 1);
    }

    #[test]
    fn remove_addr_direct_charges_two_writes() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Lifo);
        fl.insert(1, 8, L, &mut c);
        fl.insert(2, 8, L, &mut c);
        let writes_before = c.meta_counters.total_writes();
        assert_eq!(fl.remove_addr_direct(1, L, &mut c), Some((1, 8)));
        assert_eq!(c.meta_counters.total_writes() - writes_before, 2);
        assert_eq!(fl.remove_addr_direct(42, L, &mut c), None);
    }

    #[test]
    fn replace_keeps_sorted_orders_sorted() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::SizeOrdered);
        fl.insert(1, 64, L, &mut c);
        fl.insert(2, 128, L, &mut c);
        // Split the 128 block down to 24 bytes: must re-sort ahead of 64.
        let idx = fl.iter().position(|(a, _)| a == 2).unwrap();
        fl.replace(idx, 90, 24, L, &mut c);
        let sizes: Vec<u32> = fl.iter().map(|(_, s)| s).collect();
        assert_eq!(sizes, [24, 64]);
    }

    #[test]
    fn rover_survives_heavy_churn() {
        // Regression guard: the next-fit rover must stay in range through
        // arbitrary interleavings of inserts and removals.
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo);
        for i in 0..12u64 {
            fl.insert(i * 16, 32, L, &mut c);
        }
        for round in 0..40u64 {
            let _ = fl.find(FitPolicy::NextFit, 16, L, &mut c);
            if fl.len() > 1 && round % 3 == 0 {
                fl.take((round as usize) % fl.len(), L, &mut c);
            }
            fl.insert(1000 + round * 8, 24, L, &mut c);
            // The next search must not panic and must find something.
            assert!(fl.find(FitPolicy::NextFit, 8, L, &mut c).is_some());
        }
    }

    #[test]
    fn take_last_element_resets_rover() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Lifo);
        fl.insert(1, 8, L, &mut c);
        let idx = fl.find(FitPolicy::NextFit, 8, L, &mut c).unwrap();
        fl.take(idx, L, &mut c);
        assert!(fl.is_empty());
        assert!(fl.find(FitPolicy::NextFit, 8, L, &mut c).is_none());
        fl.insert(2, 8, L, &mut c);
        assert!(fl.find(FitPolicy::NextFit, 8, L, &mut c).is_some());
    }

    #[test]
    fn queue_churn_keeps_order_through_slack_compaction() {
        // A FIFO list used as a queue: removals at the front of one run,
        // inserts at its back, long enough to compact the front slack many
        // times over; then the run grows past a split while it still has
        // more than RUN slots of slack.
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo);
        let mut model = VecDeque::new();
        for i in 0..2300u64 {
            let entry = (i, 8 + (i % 7) as u32);
            fl.insert(entry.0, entry.1, L, &mut c);
            model.push_back(entry);
            if (40..2000).contains(&i) {
                assert_eq!(fl.take(0, L, &mut c), model.pop_front().unwrap());
            }
        }
        assert_eq!(fl.len(), model.len());
        assert!(fl.iter().eq(model.iter().copied()));
    }

    #[test]
    fn rebuild_restores_order_invariant() {
        let mut fl = FreeList::new(FreeOrder::AddressOrdered);
        fl.rebuild(vec![(300, 8), (100, 8), (200, 8)]);
        let addrs: Vec<u64> = fl.iter().map(|(a, _)| a).collect();
        assert_eq!(addrs, [100, 200, 300]);
        assert_eq!(fl.len(), 3);
    }
}
