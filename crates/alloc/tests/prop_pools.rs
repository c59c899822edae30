//! Property tests: every pool kind survives arbitrary alloc/free sequences
//! with its internal invariants intact, and its accounting stays
//! consistent with ground truth.

use proptest::prelude::*;

use dmx_alloc::pool::{BuddyPool, FixedBlockPool, GeneralPool, Pool, RegionPool, SegregatedPool};
use dmx_alloc::{AllocCtx, CoalescePolicy, FitPolicy, FreeList, FreeOrder, SplitPolicy};
use dmx_memhier::{presets, LevelId, RegionTable};

/// A miniature op script: sizes to allocate, interleaved with frees picked
/// by index into the live set.
#[derive(Debug, Clone)]
enum Op {
    Alloc(u32),
    FreeNth(usize),
}

fn arb_ops(max_size: u32) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u32..max_size).prop_map(Op::Alloc),
            (0usize..64).prop_map(Op::FreeNth),
        ],
        1..120,
    )
}

/// Drives a pool with the script, validating after every step; returns
/// (live_count, total_allocs).
fn drive(pool: &mut dyn Pool, ops: &[Op]) -> (u64, u64) {
    let hier = presets::sp64k_dram4m();
    let mut regions = RegionTable::new(&hier);
    let mut ctx = AllocCtx::new(hier.len());
    let mut live: Vec<(u64, u32)> = Vec::new();
    let mut allocs = 0u64;
    for op in ops {
        match op {
            Op::Alloc(size) => {
                if let Ok(b) = pool.alloc(*size, &mut regions, &mut ctx) {
                    assert!(b.occupied >= *size || b.requested == *size);
                    live.push((b.addr, *size));
                    allocs += 1;
                }
            }
            Op::FreeNth(n) => {
                if !live.is_empty() {
                    let (addr, _) = live.remove(n % live.len());
                    pool.free(addr, &mut ctx);
                }
            }
        }
        pool.validate();
        assert_eq!(pool.live_blocks(), live.len() as u64, "live count drifted");
        let stats = pool.stats();
        assert_eq!(stats.live_blocks, live.len() as u64);
        assert!(
            stats.live_bytes <= stats.reserved_bytes,
            "live {} exceeds reserved {}",
            stats.live_bytes,
            stats.reserved_bytes
        );
    }
    // Tear down everything and re-validate.
    for (addr, _) in live.drain(..) {
        pool.free(addr, &mut ctx);
    }
    pool.validate();
    assert_eq!(pool.live_blocks(), 0);
    (0, allocs)
}

/// A flat reference model of the general pool's free list: a `Vec` in
/// list order, searched node by node exactly as the simulated walk goes,
/// with the charged metadata reads and writes tallied beside it. It shares
/// no code with [`FreeList`], whose host container skips runs of nodes.
struct LinearFreeList {
    order: FreeOrder,
    items: Vec<(u64, u32)>,
    rover: usize,
    reads: u64,
    writes: u64,
}

impl LinearFreeList {
    fn new(order: FreeOrder) -> Self {
        LinearFreeList {
            order,
            items: Vec::new(),
            rover: 0,
            reads: 0,
            writes: 0,
        }
    }

    fn insert(&mut self, addr: u64, size: u32) -> usize {
        let n = self.items.len();
        let pos = match self.order {
            FreeOrder::Lifo => 0,
            FreeOrder::Fifo => n,
            FreeOrder::AddressOrdered => self.items.iter().position(|e| e.0 >= addr).unwrap_or(n),
            FreeOrder::SizeOrdered => self.items.iter().position(|e| e.1 >= size).unwrap_or(n),
        };
        if matches!(
            self.order,
            FreeOrder::AddressOrdered | FreeOrder::SizeOrdered
        ) {
            self.reads += 2 * pos as u64;
        }
        self.writes += 2;
        self.items.insert(pos, (addr, size));
        if self.order != FreeOrder::Fifo && pos <= self.rover {
            self.rover = (self.rover + 1).min(self.items.len() - 1);
        }
        pos
    }

    fn find(&mut self, fit: FitPolicy, need: u32) -> Option<usize> {
        let n = self.items.len();
        if n == 0 {
            self.reads += 1;
            return None;
        }
        let sizes: Vec<u32> = self.items.iter().map(|e| e.1).collect();
        let first_from = |start: usize| (start..n).find(|&k| sizes[k] >= need);
        let by_size = self.order == FreeOrder::SizeOrdered;
        let (probes, found) = match (fit, by_size) {
            (FitPolicy::FirstFit, _) | (FitPolicy::BestFit, true) => {
                first_from(0).map_or((n, None), |k| (k + 1, Some(k)))
            }
            (FitPolicy::NextFit, _) => {
                let start = self.rover.min(n - 1);
                let hit = first_from(start).map(|k| (k - start + 1, k)).or_else(|| {
                    first_from(0)
                        .filter(|&k| k < start)
                        .map(|k| (n - start + k + 1, k))
                });
                if let Some((_, k)) = hit {
                    self.rover = k;
                }
                hit.map_or((n, None), |(p, k)| (p, Some(k)))
            }
            (FitPolicy::WorstFit, true) => (1, (sizes[n - 1] >= need).then_some(n - 1)),
            (FitPolicy::BestFit, false) => {
                let mut best: Option<usize> = None;
                let mut probes = n;
                for k in 0..n {
                    if sizes[k] >= need && best.is_none_or(|b| sizes[k] < sizes[b]) {
                        best = Some(k);
                        if sizes[k] == need {
                            probes = k + 1;
                            break;
                        }
                    }
                }
                (probes, best)
            }
            (FitPolicy::WorstFit, false) => {
                let mut worst: Option<usize> = None;
                for k in 0..n {
                    if sizes[k] >= need && worst.is_none_or(|w| sizes[k] > sizes[w]) {
                        worst = Some(k);
                    }
                }
                (n, worst)
            }
        };
        self.reads += 2 * probes as u64;
        found
    }

    fn remove(&mut self, idx: usize) -> (u64, u32) {
        let entry = self.items.remove(idx);
        if self.items.is_empty() {
            self.rover = 0;
        } else {
            if idx < self.rover {
                self.rover -= 1;
            }
            self.rover = self.rover.min(self.items.len() - 1);
        }
        entry
    }

    fn take(&mut self, idx: usize) -> (u64, u32) {
        self.writes += 1;
        self.remove(idx)
    }

    fn remove_addr_direct(&mut self, addr: u64) -> Option<(u64, u32)> {
        let idx = self.items.iter().position(|e| e.0 == addr)?;
        self.writes += 2;
        Some(self.remove(idx))
    }

    fn replace(&mut self, idx: usize, addr: u64, size: u32) {
        if self.order == FreeOrder::SizeOrdered {
            self.writes += 1;
            self.remove(idx);
            self.insert(addr, size);
        } else {
            self.writes += 2;
            self.items[idx] = (addr, size);
        }
    }

    fn rebuild(&mut self, entries: Vec<(u64, u32)>) {
        self.items = entries;
        self.rover = 0;
        match self.order {
            FreeOrder::AddressOrdered => self.items.sort_by_key(|e| e.0),
            FreeOrder::SizeOrdered => self.items.sort_by_key(|e| e.1),
            FreeOrder::Lifo | FreeOrder::Fifo => {}
        }
    }
}

/// One step of a free-list script. Indices are taken modulo the list
/// length; sizes are raw draws, made distinct for size-ordered lists.
/// `Find` carries what the pool then does with a hit: nothing (0), take
/// the block (1) or split it and keep the remainder on the list (2).
#[derive(Debug, Clone)]
enum ListOp {
    Insert(u32),
    Find(usize, u32, u8),
    Take(usize),
    Replace(usize, u32),
    RemoveAddr(usize, bool),
    Rebuild(usize, usize),
}

/// Mostly small sizes, so equal sizes and exact fits are common, with a
/// tail of large ones, so run maxima differ and worst-fit shrinks them.
fn arb_size() -> impl Strategy<Value = u32> {
    prop_oneof![4 => 1u32..48, 1 => 48u32..1024]
}

fn arb_list_ops() -> impl Strategy<Value = Vec<ListOp>> {
    prop::collection::vec(
        prop_oneof![
            12 => arb_size().prop_map(ListOp::Insert),
            12 => (0usize..4, arb_size(), 0u8..3).prop_map(|(f, n, then)| ListOp::Find(f, n, then)),
            5 => (0usize..1000).prop_map(ListOp::Take),
            5 => (0usize..1000, arb_size()).prop_map(|(i, s)| ListOp::Replace(i, s)),
            3 => (0usize..1000, prop::bool::ANY).prop_map(|(i, p)| ListOp::RemoveAddr(i, p)),
            1 => (0usize..1000, 0usize..8).prop_map(|(r, d)| ListOp::Rebuild(r, d)),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn fixed_pool_invariants(ops in arb_ops(74)) {
        let mut pool = FixedBlockPool::new(LevelId(1), 74, 8);
        drive(&mut pool, &ops);
    }

    #[test]
    fn segregated_pool_invariants(ops in arb_ops(3000)) {
        let mut pool = SegregatedPool::new(LevelId(1), 16, 1024, 4096);
        drive(&mut pool, &ops);
    }

    #[test]
    fn buddy_pool_invariants(ops in arb_ops(4000)) {
        let mut pool = BuddyPool::new(LevelId(1), 5, 13);
        drive(&mut pool, &ops);
    }

    #[test]
    fn region_pool_invariants(ops in arb_ops(2000)) {
        let mut pool = RegionPool::new(LevelId(1), 4096);
        drive(&mut pool, &ops);
    }

    #[test]
    fn general_pool_invariants(
        ops in arb_ops(2000),
        fit_idx in 0usize..4,
        order_idx in 0usize..4,
        coalesce_idx in 0usize..3,
        split in prop::bool::ANY,
    ) {
        let mut pool = GeneralPool::new(
            LevelId(1),
            FitPolicy::ALL[fit_idx],
            FreeOrder::ALL[order_idx],
            CoalescePolicy::COMMON[coalesce_idx],
            if split { SplitPolicy::MinRemainder(16) } else { SplitPolicy::Never },
            8,
            4096,
        );
        drive(&mut pool, &ops);
    }

    /// The segregated pool's bitset free-map against a plain
    /// `Vec<bool>` + linear-scan reference model: set/clear/take-first
    /// agree on membership, count, and — the part the bitset
    /// accelerates with trailing-zero scans — *which* slot is lowest.
    #[test]
    fn freemap_matches_vector_scan_model(
        ops in prop::collection::vec((0u32..600, prop::bool::ANY), 1..400),
        takes in prop::collection::vec(prop::bool::ANY, 1..400),
    ) {
        let mut map = dmx_alloc::FreeMap::new();
        let mut model: Vec<bool> = vec![false; 600];
        map.ensure_slots(model.len());
        let mut take_iter = takes.iter();
        for &(slot, set) in &ops {
            if set {
                if !model[slot as usize] {
                    map.set(slot);
                    model[slot as usize] = true;
                }
            } else if model[slot as usize] {
                map.clear(slot);
                model[slot as usize] = false;
            }
            if *take_iter.next().unwrap_or(&false) {
                let expected = model.iter().position(|&b| b);
                let got = map.take_first();
                prop_assert_eq!(got, expected.map(|i| i as u32));
                if let Some(i) = expected {
                    model[i] = false;
                }
            }
            let count = model.iter().filter(|&&b| b).count() as u64;
            prop_assert_eq!(map.count(), count);
            prop_assert_eq!(map.is_empty(), count == 0);
            prop_assert_eq!(map.contains(slot), model[slot as usize]);
        }
        // Iteration order is ascending and complete.
        let from_map: Vec<u32> = map.iter().collect();
        let from_model: Vec<u32> =
            (0..model.len() as u32).filter(|&i| model[i as usize]).collect();
        prop_assert_eq!(from_map, from_model);
    }

    /// The general pool's free list against [`LinearFreeList`], a flat
    /// linear-scan model of the simulated list. Scripts start from at
    /// least 384 entries (three full runs of the host container) and mix
    /// every fit policy with inserts, takes, split rewrites, direct
    /// unlinks and rebuilds. After every step both agree on the returned
    /// index or entry, the length, the whole list order and the charged
    /// metadata reads and writes. Size-ordered lists get distinct sizes:
    /// their tie order among equal sizes is the `VecDeque`'s to decide.
    #[test]
    fn free_list_matches_linear_scan_model(
        prefill in prop::collection::vec(arb_size(), 384..600),
        ops in arb_list_ops(),
        order_idx in 0usize..4,
        wide in prop::bool::ANY,
    ) {
        let order = FreeOrder::ALL[order_idx];
        let level = LevelId(0);
        // Narrow cases fold every draw into small sizes, so some run's
        // maximum often equals the request exactly.
        let fold = |raw: u32, cap: u32| if wide { raw } else { 1 + raw % cap };
        let mut ctx = AllocCtx::new(1);
        let mut list = FreeList::new(order);
        let mut model = LinearFreeList::new(order);
        // Fresh addresses are a bijective scramble of a serial number, so
        // they are unique but arrive out of address order.
        let mut serial = 0u64;
        let mut fresh = |raw: u32| {
            let raw = fold(raw, 48);
            serial += 1;
            let addr = serial.wrapping_mul(2_654_435_761) % (1 << 32);
            let size = if order == FreeOrder::SizeOrdered {
                raw * 4096 + serial as u32
            } else {
                raw
            };
            (addr, size)
        };
        let scale = |need: u32| {
            let need = fold(need, 52);
            if order == FreeOrder::SizeOrdered { need * 4096 } else { need }
        };
        let script = prefill.iter().map(|&s| ListOp::Insert(s)).chain(ops);
        for op in script {
            let n = model.items.len();
            match op {
                ListOp::Insert(raw) => {
                    let (addr, size) = fresh(raw);
                    let got = list.insert(addr, size, level, &mut ctx);
                    prop_assert_eq!(got, model.insert(addr, size), "insert {:?}", (addr, size));
                }
                ListOp::Find(fit_idx, need, then) => {
                    let (fit, need) = (FitPolicy::ALL[fit_idx], scale(need));
                    let got = list.find(fit, need, level, &mut ctx);
                    prop_assert_eq!(got, model.find(fit, need), "{} for {}", fit, need);
                    match (got, then) {
                        (Some(k), 2) if model.items[k].1 > need => {
                            // The remainder keeps its size's distinct low
                            // bits; only an address-ordered list must keep
                            // its address in order.
                            let (addr, size) = model.items[k];
                            let rem_addr = if order == FreeOrder::AddressOrdered {
                                addr
                            } else {
                                fresh(0).0
                            };
                            list.replace(k, rem_addr, size - need, level, &mut ctx);
                            model.replace(k, rem_addr, size - need);
                        }
                        (Some(k), 1 | 2) => {
                            prop_assert_eq!(list.take(k, level, &mut ctx), model.take(k));
                        }
                        _ => {}
                    }
                }
                ListOp::Take(i) if n > 0 => {
                    prop_assert_eq!(list.take(i % n, level, &mut ctx), model.take(i % n));
                }
                ListOp::Replace(i, raw) if n > 0 => {
                    let (mut addr, size) = fresh(raw);
                    if order == FreeOrder::AddressOrdered {
                        addr = model.items[i % n].0;
                    }
                    list.replace(i % n, addr, size, level, &mut ctx);
                    model.replace(i % n, addr, size);
                }
                ListOp::RemoveAddr(i, present) => {
                    let addr = if present && n > 0 { model.items[i % n].0 } else { u64::MAX - i as u64 };
                    let got = list.remove_addr_direct(addr, level, &mut ctx);
                    prop_assert_eq!(got, model.remove_addr_direct(addr));
                }
                ListOp::Rebuild(rotate, dropped) => {
                    let mut entries: Vec<(u64, u32)> = model
                        .items
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| k % 8 != dropped)
                        .map(|(_, &e)| e)
                        .collect();
                    let len = entries.len();
                    entries.rotate_left(rotate % len.max(1));
                    list.rebuild(entries.clone());
                    model.rebuild(entries);
                }
                ListOp::Take(_) | ListOp::Replace(..) => {}
            }
            prop_assert_eq!(list.len(), model.items.len());
            prop_assert_eq!(list.is_empty(), model.items.is_empty());
            prop_assert!(list.iter().eq(model.items.iter().copied()), "list order diverged");
            prop_assert_eq!(ctx.meta_counters.total_reads(), model.reads, "charged reads");
            prop_assert_eq!(ctx.meta_counters.total_writes(), model.writes, "charged writes");
        }
    }

    /// Address uniqueness: live blocks from any pool never overlap.
    #[test]
    fn general_pool_blocks_never_overlap(ops in arb_ops(1500), order_idx in 0usize..4) {
        let hier = presets::sp64k_dram4m();
        let mut regions = RegionTable::new(&hier);
        let mut ctx = AllocCtx::new(hier.len());
        let mut pool = GeneralPool::new(
            LevelId(1),
            FitPolicy::FirstFit,
            FreeOrder::ALL[order_idx],
            CoalescePolicy::Immediate,
            SplitPolicy::MinRemainder(16),
            8,
            4096,
        );
        let mut live: Vec<(u64, u64)> = Vec::new(); // (start, end)
        for op in &ops {
            match op {
                Op::Alloc(size) => {
                    if let Ok(b) = pool.alloc(*size, &mut regions, &mut ctx) {
                        let end = b.addr + u64::from(b.occupied);
                        for &(s, e) in &live {
                            prop_assert!(end <= s || b.addr >= e,
                                "block [{}, {}) overlaps [{s}, {e})", b.addr, end);
                        }
                        live.push((b.addr, end));
                    }
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let (addr, _) = live.remove(n % live.len());
                        pool.free(addr, &mut ctx);
                    }
                }
            }
        }
    }

    /// Footprint accounting in the context always matches what the pools
    /// actually reserved.
    #[test]
    fn footprint_matches_reservations(ops in arb_ops(1000)) {
        let hier = presets::sp64k_dram4m();
        let mut regions = RegionTable::new(&hier);
        let mut ctx = AllocCtx::new(hier.len());
        let mut pool = SegregatedPool::new(LevelId(1), 16, 512, 2048);
        let mut live: Vec<u64> = Vec::new();
        for op in &ops {
            match op {
                Op::Alloc(size) => {
                    if let Ok(b) = pool.alloc(*size, &mut regions, &mut ctx) {
                        live.push(b.addr);
                    }
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let addr = live.remove(n % live.len());
                        pool.free(addr, &mut ctx);
                    }
                }
            }
        }
        prop_assert_eq!(ctx.footprint.reserved(LevelId(1)), regions.used(LevelId(1)));
        prop_assert_eq!(ctx.footprint.reserved(LevelId(1)), pool.stats().reserved_bytes);
    }
}
