//! Segregated-storage pool: power-of-two size classes, exact-fit O(1).

use dmx_memhier::{LevelId, Region, RegionTable};

use crate::block::{align_up, BlockInfo};
use crate::ctx::AllocCtx;
use crate::error::AllocError;
use crate::freemap::FreeMap;
use crate::pool::{Pool, PoolStats};

/// Per-class state: a bitset free-map plus a bump chunk.
///
/// Slots are numbered globally within the class: slot `g` lives in chunk
/// `g / per_chunk` at offset `(g % per_chunk) * slot_size`, so free and
/// live state index by integer — no address hashing. The free-map is one
/// bitset serving both roles: a handed-out slot (below the bump
/// watermark) is live exactly when its free bit is clear.
#[derive(Debug, Clone, Default)]
struct Class {
    /// Free slots as a bitset; allocation takes the lowest free slot
    /// (trailing-zeros search). Which same-class slot serves a request
    /// never affects the charged cost model, so this is metric-identical
    /// to the old LIFO stack.
    free_map: FreeMap,
    chunks: Vec<Region>,
    bump_used: u32,
    live_count: u64,
    /// Slots per chunk (constant per class).
    per_chunk: u32,
}

impl Class {
    /// Slots handed out so far: all slots of full chunks plus the bump
    /// watermark of the newest chunk. Slots at or above this are neither
    /// free nor live.
    fn handed_out(&self) -> u32 {
        match self.chunks.len() {
            0 => 0,
            n => (n as u32 - 1) * self.per_chunk + self.bump_used,
        }
    }

    /// `true` if handed-out slot `g` is live (not on the free-map).
    fn is_live(&self, g: u32) -> bool {
        g < self.handed_out() && !self.free_map.contains(g)
    }
}

/// Directory entry mapping an address range to its class chunk; kept
/// sorted by base (the region table carves per-level addresses in
/// ascending order) so frees resolve their class by binary search.
#[derive(Debug, Clone, Copy)]
struct ChunkRef {
    base: u64,
    end: u64,
    class: u32,
    /// Ordinal of this chunk within its class (for slot numbering).
    ordinal: u32,
}

/// A segregated-storage pool: one embedded free list per power-of-two size
/// class. Allocation and free are O(1); internal fragmentation is the
/// price (a request occupies its whole class slot).
///
/// Requests larger than the largest class are served as *large objects*:
/// each gets its own exactly-sized region, recycled by exact size.
///
/// All host-side bookkeeping is hash-free: class membership resolves via
/// a sorted chunk directory, slot state via slot-indexed vectors, and
/// large objects via sorted address/size lists.
#[derive(Debug, Clone)]
pub struct SegregatedPool {
    level: LevelId,
    /// Class slot sizes, ascending powers of two.
    classes: Vec<u32>,
    /// `log2` of the smallest class — the branchless `class_of` base.
    min_shift: u32,
    class_state: Vec<Class>,
    /// Sorted (by base) address-range directory of all class chunks.
    chunk_dir: Vec<ChunkRef>,
    /// Large-object recycling by exact occupied size, sorted by size.
    large_free: Vec<(u32, Vec<u64>)>,
    /// Live large objects, sorted by address.
    large_live: Vec<(u64, u32)>,
    live: u64,
}

impl SegregatedPool {
    /// A segregated pool with classes `min_class, 2*min_class, ...,
    /// max_class` on `level`, growing each class `chunk_bytes` at a time.
    ///
    /// # Panics
    ///
    /// Panics unless `min_class` and `max_class` are powers of two with
    /// `8 <= min_class <= max_class`, or if `chunk_bytes` is zero.
    pub fn new(level: LevelId, min_class: u32, max_class: u32, chunk_bytes: u64) -> Self {
        assert!(min_class.is_power_of_two() && max_class.is_power_of_two());
        assert!((8..=max_class).contains(&min_class), "bad class range");
        assert!(chunk_bytes > 0, "chunk must be non-zero");
        let mut classes = Vec::new();
        let mut c = min_class;
        while c <= max_class {
            classes.push(c);
            c *= 2;
        }
        let class_state = classes
            .iter()
            .map(|&slot| Class {
                per_chunk: (chunk_bytes / u64::from(slot)).max(1) as u32,
                ..Class::default()
            })
            .collect();
        SegregatedPool {
            level,
            min_shift: classes[0].trailing_zeros(),
            classes,
            class_state,
            chunk_dir: Vec::new(),
            large_free: Vec::new(),
            large_live: Vec::new(),
            live: 0,
        }
    }

    /// The class slot sizes, ascending.
    pub fn classes(&self) -> &[u32] {
        &self.classes
    }

    /// The index of the smallest class ≥ `size`, or `None` for large
    /// objects. Branchless: the class index is the ceil-log2 bit width
    /// of the (min-clamped) request, offset by the smallest class's
    /// log2 — no scan over the class table.
    fn class_of(&self, size: u32) -> Option<usize> {
        if size > *self.classes.last().expect("classes are non-empty") {
            return None;
        }
        let need = size.max(self.classes[0]);
        let ceil_log2 = 32 - (need - 1).leading_zeros();
        Some((ceil_log2 - self.min_shift) as usize)
    }

    /// The address of global slot `g` of class `ci`.
    fn slot_addr(&self, ci: usize, g: u32) -> u64 {
        let state = &self.class_state[ci];
        let chunk = &state.chunks[(g / state.per_chunk) as usize];
        chunk.base + u64::from(g % state.per_chunk) * u64::from(self.classes[ci])
    }

    /// The class chunk containing `addr`, if any.
    fn chunk_of(&self, addr: u64) -> Option<ChunkRef> {
        let i = self.chunk_dir.partition_point(|c| c.base <= addr);
        let c = *self.chunk_dir.get(i.checked_sub(1)?)?;
        (addr < c.end).then_some(c)
    }
}

impl Pool for SegregatedPool {
    fn alloc(
        &mut self,
        size: u32,
        regions: &mut RegionTable,
        ctx: &mut AllocCtx,
    ) -> Result<BlockInfo, AllocError> {
        match self.class_of(size) {
            Some(ci) => {
                let slot = self.classes[ci];
                // Read the class head pointer (class index is arithmetic).
                ctx.meta_read(self.level, 1);
                let gslot = if let Some(g) = self.class_state[ci].free_map.take_first() {
                    ctx.meta_read(self.level, 1); // embedded next pointer
                    ctx.meta_write(self.level, 1); // head update
                    g
                } else {
                    let per_chunk = self.class_state[ci].per_chunk;
                    let need_grow = match self.class_state[ci].chunks.last() {
                        Some(_) => self.class_state[ci].bump_used >= per_chunk,
                        None => true,
                    };
                    if need_grow {
                        let bytes = u64::from(per_chunk) * u64::from(slot);
                        let region = regions.reserve(self.level, bytes)?;
                        ctx.footprint.grow(self.level, bytes);
                        ctx.meta_write(self.level, 2);
                        let state = &mut self.class_state[ci];
                        let ordinal = state.chunks.len() as u32;
                        // Per-level regions are carved in ascending address
                        // order, so appending keeps the directory sorted.
                        self.chunk_dir.push(ChunkRef {
                            base: region.base,
                            end: region.end(),
                            class: ci as u32,
                            ordinal,
                        });
                        state.chunks.push(region);
                        state.bump_used = 0;
                        state
                            .free_map
                            .ensure_slots(state.chunks.len() * per_chunk as usize);
                    }
                    let state = &mut self.class_state[ci];
                    let g = (state.chunks.len() as u32 - 1) * per_chunk + state.bump_used;
                    state.bump_used += 1;
                    ctx.meta_read(self.level, 1);
                    ctx.meta_write(self.level, 1);
                    g
                };
                let addr = self.slot_addr(ci, gslot);
                self.class_state[ci].live_count += 1;
                self.live += 1;
                Ok(BlockInfo {
                    addr,
                    level: self.level,
                    requested: size,
                    occupied: slot,
                })
            }
            None => {
                // Large object: exactly-sized dedicated region.
                let occupied = align_up(size, 8);
                ctx.meta_read(self.level, 1); // large-object table probe
                let recycled = self
                    .large_free
                    .binary_search_by_key(&occupied, |&(s, _)| s)
                    .ok()
                    .and_then(|i| self.large_free[i].1.pop());
                let addr = match recycled {
                    Some(addr) => {
                        ctx.meta_write(self.level, 1);
                        addr
                    }
                    None => {
                        let region = regions.reserve(self.level, u64::from(occupied))?;
                        ctx.footprint.grow(self.level, u64::from(occupied));
                        ctx.meta_write(self.level, 2);
                        region.base
                    }
                };
                let at = self
                    .large_live
                    .binary_search_by_key(&addr, |&(a, _)| a)
                    .unwrap_err();
                self.large_live.insert(at, (addr, occupied));
                self.live += 1;
                Ok(BlockInfo {
                    addr,
                    level: self.level,
                    requested: size,
                    occupied,
                })
            }
        }
    }

    fn free(&mut self, addr: u64, ctx: &mut AllocCtx) {
        if let Some(chunk) = self.chunk_of(addr) {
            let ci = chunk.class as usize;
            let state = &mut self.class_state[ci];
            let slot_in_chunk = ((addr - chunk.base) / u64::from(self.classes[ci])) as u32;
            let gslot = chunk.ordinal * state.per_chunk + slot_in_chunk;
            assert!(
                state.is_live(gslot),
                "free of address {addr:#x} not owned by this segregated pool"
            );
            // Read the chunk descriptor to find the class, push on the list.
            ctx.meta_read(self.level, 1);
            ctx.meta_write(self.level, 2);
            state.live_count -= 1;
            state.free_map.set(gslot);
        } else if let Ok(i) = self.large_live.binary_search_by_key(&addr, |&(a, _)| a) {
            let (_, occupied) = self.large_live.remove(i);
            ctx.meta_read(self.level, 1);
            ctx.meta_write(self.level, 2);
            match self.large_free.binary_search_by_key(&occupied, |&(s, _)| s) {
                Ok(b) => self.large_free[b].1.push(addr),
                Err(b) => self.large_free.insert(b, (occupied, vec![addr])),
            }
        } else {
            panic!("free of address {addr:#x} not owned by this segregated pool");
        }
        assert!(self.live > 0, "free with no live blocks");
        self.live -= 1;
    }

    /// The class slot, or the 8-aligned size of a large object.
    fn nominal_occupied(&self, size: u32) -> u32 {
        match self.class_of(size) {
            Some(ci) => self.classes[ci],
            None => align_up(size, 8),
        }
    }

    fn level(&self) -> LevelId {
        self.level
    }

    fn live_blocks(&self) -> u64 {
        self.live
    }

    fn stats(&self) -> PoolStats {
        let class_live: u64 = self
            .class_state
            .iter()
            .zip(&self.classes)
            .map(|(st, &slot)| st.live_count * u64::from(slot))
            .sum();
        let large_live: u64 = self.large_live.iter().map(|&(_, s)| u64::from(s)).sum();
        let reserved: u64 = self
            .class_state
            .iter()
            .flat_map(|st| st.chunks.iter().map(|c| c.size))
            .sum::<u64>()
            + large_live
            + self
                .large_free
                .iter()
                .map(|(size, addrs)| u64::from(*size) * addrs.len() as u64)
                .sum::<u64>();
        let free_blocks = self
            .class_state
            .iter()
            .map(|st| st.free_map.count())
            .sum::<u64>()
            + self
                .large_free
                .iter()
                .map(|(_, v)| v.len() as u64)
                .sum::<u64>();
        PoolStats {
            reserved_bytes: reserved,
            live_bytes: class_live + large_live,
            live_blocks: self.live,
            free_blocks,
        }
    }

    fn validate(&self) {
        for (ci, state) in self.class_state.iter().enumerate() {
            let handed_out = state.handed_out();
            for g in state.free_map.iter() {
                assert!(g < handed_out, "class {ci} free slot never handed out");
            }
            assert_eq!(
                u64::from(handed_out),
                state.live_count + state.free_map.count(),
                "class {ci} handed-out slots must split into live + free"
            );
        }
        for w in self.chunk_dir.windows(2) {
            assert!(w[0].end <= w[1].base, "chunk directory overlaps");
        }
        let class_live: u64 = self.class_state.iter().map(|st| st.live_count).sum();
        let large_live = self.large_live.len() as u64;
        assert_eq!(class_live + large_live, self.live, "live count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_memhier::presets;

    const L1: LevelId = LevelId(1);

    fn setup() -> (RegionTable, AllocCtx) {
        let hier = presets::sp64k_dram4m();
        (RegionTable::new(&hier), AllocCtx::new(hier.len()))
    }

    #[test]
    fn classes_are_powers_of_two() {
        let p = SegregatedPool::new(L1, 16, 256, 4096);
        assert_eq!(p.classes(), [16, 32, 64, 128, 256]);
    }

    #[test]
    fn branchless_class_lookup_matches_linear_scan() {
        for (min, max) in [(8u32, 8u32), (16, 256), (8, 1024), (64, 64)] {
            let p = SegregatedPool::new(L1, min, max, 4096);
            for size in 1..=(max + 10) {
                let scan = p.classes.iter().position(|c| *c >= size);
                assert_eq!(
                    p.class_of(size),
                    scan,
                    "size {size} in classes {:?}",
                    p.classes()
                );
            }
        }
    }

    #[test]
    fn rounds_up_to_class() {
        let (mut regions, mut ctx) = setup();
        let mut p = SegregatedPool::new(L1, 16, 1024, 4096);
        let b = p.alloc(74, &mut regions, &mut ctx).unwrap();
        assert_eq!(b.occupied, 128, "74 rounds up to the 128 class");
        assert_eq!(b.internal_fragmentation(), 54);
        p.validate();
    }

    #[test]
    fn recycles_within_class() {
        let (mut regions, mut ctx) = setup();
        let mut p = SegregatedPool::new(L1, 16, 256, 4096);
        let a = p.alloc(60, &mut regions, &mut ctx).unwrap();
        p.free(a.addr, &mut ctx);
        let b = p.alloc(50, &mut regions, &mut ctx).unwrap();
        assert_eq!(a.addr, b.addr, "same class reuses the slot");
        p.validate();
    }

    #[test]
    fn large_objects_get_exact_regions_and_recycle() {
        let (mut regions, mut ctx) = setup();
        let mut p = SegregatedPool::new(L1, 16, 256, 4096);
        let big = p.alloc(65_536, &mut regions, &mut ctx).unwrap();
        assert_eq!(big.occupied, 65_536);
        p.free(big.addr, &mut ctx);
        let fp = ctx.footprint.peak_total();
        let again = p.alloc(65_536, &mut regions, &mut ctx).unwrap();
        assert_eq!(again.addr, big.addr, "large object recycled");
        assert_eq!(ctx.footprint.peak_total(), fp, "no second region");
        p.validate();
    }

    #[test]
    fn alloc_cost_is_constant() {
        let (mut regions, mut ctx) = setup();
        let mut p = SegregatedPool::new(L1, 16, 256, 4096);
        let a = p.alloc(32, &mut regions, &mut ctx).unwrap();
        p.free(a.addr, &mut ctx);
        let before = ctx.meta_counters.total_accesses();
        let _ = p.alloc(32, &mut regions, &mut ctx).unwrap();
        assert_eq!(ctx.meta_counters.total_accesses() - before, 3);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn foreign_free_panics() {
        let (_regions, mut ctx) = setup();
        let mut p = SegregatedPool::new(L1, 16, 256, 4096);
        p.free(0x42, &mut ctx);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn double_free_of_class_slot_panics() {
        let (mut regions, mut ctx) = setup();
        let mut p = SegregatedPool::new(L1, 16, 256, 4096);
        let a = p.alloc(32, &mut regions, &mut ctx).unwrap();
        p.free(a.addr, &mut ctx);
        p.free(a.addr, &mut ctx);
    }

    #[test]
    fn live_counting() {
        let (mut regions, mut ctx) = setup();
        let mut p = SegregatedPool::new(L1, 16, 64, 1024);
        let a = p.alloc(16, &mut regions, &mut ctx).unwrap();
        let b = p.alloc(4096, &mut regions, &mut ctx).unwrap(); // large
        assert_eq!(p.live_blocks(), 2);
        p.free(a.addr, &mut ctx);
        p.free(b.addr, &mut ctx);
        assert_eq!(p.live_blocks(), 0);
        p.validate();
    }

    #[test]
    fn interleaved_class_and_large_frees_resolve_correctly() {
        let (mut regions, mut ctx) = setup();
        let mut p = SegregatedPool::new(L1, 16, 64, 256);
        // Interleave class chunks and large regions in address space.
        let a = p.alloc(16, &mut regions, &mut ctx).unwrap();
        let big1 = p.alloc(1000, &mut regions, &mut ctx).unwrap();
        let b = p.alloc(64, &mut regions, &mut ctx).unwrap();
        let big2 = p.alloc(2000, &mut regions, &mut ctx).unwrap();
        p.validate();
        p.free(big1.addr, &mut ctx);
        p.free(a.addr, &mut ctx);
        p.free(big2.addr, &mut ctx);
        p.free(b.addr, &mut ctx);
        assert_eq!(p.live_blocks(), 0);
        p.validate();
        // Both large sizes recycle by exact size.
        let again = p.alloc(1000, &mut regions, &mut ctx).unwrap();
        assert_eq!(again.addr, big1.addr);
        p.validate();
    }
}
