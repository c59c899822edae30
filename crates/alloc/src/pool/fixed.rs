//! Dedicated fixed-block pool.
//!
//! The paper's headline lever: a pool that serves exactly one block size
//! (e.g. the 74-byte wireless header buffers) in O(1) with no per-block
//! header — free blocks thread the free list through their own payload.

use dmx_memhier::{LevelId, Region, RegionTable};

use crate::block::{align_up, BlockInfo};
use crate::ctx::AllocCtx;
use crate::error::AllocError;
use crate::pool::{Pool, PoolStats};

/// A dedicated pool serving a single block size in O(1).
#[derive(Debug, Clone)]
pub struct FixedBlockPool {
    level: LevelId,
    block_size: u32,
    slot_size: u32,
    chunk_blocks: u32,
    chunks: Vec<Region>,
    /// Bump state inside the newest chunk: next unused slot index.
    bump_used: u32,
    /// Embedded LIFO free list (host-side stack of slot addresses).
    free: Vec<u64>,
    live: u64,
}

impl FixedBlockPool {
    /// A pool for `block_size`-byte blocks on `level`, growing
    /// `chunk_blocks` blocks at a time.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` or `chunk_blocks` is zero.
    pub fn new(level: LevelId, block_size: u32, chunk_blocks: u32) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        assert!(chunk_blocks > 0, "chunk must hold at least one block");
        // Slots are word-aligned and big enough to embed a free-list link.
        let slot_size = align_up(block_size.max(4), 4);
        FixedBlockPool {
            level,
            block_size,
            slot_size,
            chunk_blocks,
            chunks: Vec::new(),
            bump_used: 0,
            free: Vec::new(),
            live: 0,
        }
    }

    /// The single payload size this pool serves.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Bytes of region space this pool has reserved.
    pub fn reserved_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.size).sum()
    }

    /// `true` if `addr` lies in one of this pool's chunks: a binary
    /// search, since per-level regions are carved in ascending address
    /// order and `chunks` is therefore base-sorted.
    fn owns(&self, addr: u64) -> bool {
        let i = self.chunks.partition_point(|c| c.base <= addr);
        i.checked_sub(1)
            .is_some_and(|ci| self.chunks[ci].contains(addr))
    }
}

impl Pool for FixedBlockPool {
    fn alloc(
        &mut self,
        size: u32,
        regions: &mut RegionTable,
        ctx: &mut AllocCtx,
    ) -> Result<BlockInfo, AllocError> {
        if size > self.block_size {
            return Err(AllocError::Unservable { requested: size });
        }
        // Read the free-list head pointer.
        ctx.meta_read(self.level, 1);
        let addr = if let Some(addr) = self.free.pop() {
            // Pop: read the embedded next pointer, write the head.
            ctx.meta_read(self.level, 1);
            ctx.meta_write(self.level, 1);
            addr
        } else {
            // Bump allocation from the newest chunk; grow when exhausted.
            let need_grow = match self.chunks.last() {
                Some(_) => self.bump_used >= self.chunk_blocks,
                None => true,
            };
            if need_grow {
                let bytes = u64::from(self.chunk_blocks) * u64::from(self.slot_size);
                let region = regions.reserve(self.level, bytes)?;
                ctx.footprint.grow(self.level, bytes);
                // Pool descriptor update: chunk pointer + bump reset.
                ctx.meta_write(self.level, 2);
                self.chunks.push(region);
                self.bump_used = 0;
            }
            let chunk = self.chunks.last().expect("chunk exists after growth");
            let addr = chunk.base + u64::from(self.bump_used) * u64::from(self.slot_size);
            self.bump_used += 1;
            // Read + advance the bump pointer.
            ctx.meta_read(self.level, 1);
            ctx.meta_write(self.level, 1);
            addr
        };
        self.live += 1;
        Ok(BlockInfo {
            addr,
            level: self.level,
            requested: size,
            occupied: self.slot_size,
        })
    }

    fn free(&mut self, addr: u64, ctx: &mut AllocCtx) {
        assert!(
            self.owns(addr),
            "free of address {addr:#x} not owned by this fixed pool"
        );
        assert!(self.live > 0, "free with no live blocks");
        // Push: write the block's embedded next pointer and the head.
        ctx.meta_read(self.level, 1);
        ctx.meta_write(self.level, 2);
        self.free.push(addr);
        self.live -= 1;
    }

    fn nominal_occupied(&self, _size: u32) -> u32 {
        self.slot_size
    }

    fn level(&self) -> LevelId {
        self.level
    }

    fn live_blocks(&self) -> u64 {
        self.live
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            reserved_bytes: self.reserved_bytes(),
            live_bytes: self.live * u64::from(self.slot_size),
            live_blocks: self.live,
            free_blocks: self.free.len() as u64,
        }
    }

    fn validate(&self) {
        let total_slots: u64 = self
            .chunks
            .iter()
            .enumerate()
            .map(|(i, _)| {
                if i + 1 == self.chunks.len() {
                    u64::from(self.bump_used)
                } else {
                    u64::from(self.chunk_blocks)
                }
            })
            .sum();
        assert_eq!(
            self.live + self.free.len() as u64,
            total_slots,
            "live + free must equal handed-out slots"
        );
        let mut seen = self.free.clone();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(before, seen.len(), "duplicate addresses on the free list");
        for addr in &self.free {
            assert!(self.owns(*addr), "free-list address outside pool chunks");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_memhier::presets;

    fn setup() -> (RegionTable, AllocCtx) {
        let hier = presets::sp64k_dram4m();
        (RegionTable::new(&hier), AllocCtx::new(hier.len()))
    }
    const L0: LevelId = LevelId(0);

    #[test]
    fn alloc_free_recycles_slots() {
        let (mut regions, mut ctx) = setup();
        let mut pool = FixedBlockPool::new(L0, 74, 16);
        let a = pool.alloc(74, &mut regions, &mut ctx).unwrap();
        let b = pool.alloc(74, &mut regions, &mut ctx).unwrap();
        assert_ne!(a.addr, b.addr);
        pool.free(a.addr, &mut ctx);
        let c = pool.alloc(74, &mut regions, &mut ctx).unwrap();
        assert_eq!(c.addr, a.addr, "freed slot is reused LIFO");
        pool.validate();
    }

    #[test]
    fn alloc_cost_is_constant() {
        let (mut regions, mut ctx) = setup();
        let mut pool = FixedBlockPool::new(L0, 74, 128);
        // Warm up: allocate, free, so the next alloc pops the free list.
        let a = pool.alloc(74, &mut regions, &mut ctx).unwrap();
        pool.free(a.addr, &mut ctx);
        let before = ctx.meta_counters.total_accesses();
        let _ = pool.alloc(74, &mut regions, &mut ctx).unwrap();
        let cost = ctx.meta_counters.total_accesses() - before;
        assert_eq!(cost, 3, "pop = head read + next read + head write");
    }

    #[test]
    fn grows_by_chunks_and_tracks_footprint() {
        let (mut regions, mut ctx) = setup();
        let mut pool = FixedBlockPool::new(L0, 64, 4);
        for _ in 0..5 {
            pool.alloc(64, &mut regions, &mut ctx).unwrap();
        }
        // 5 blocks at 4 per chunk → 2 chunks of 4*64 bytes.
        assert_eq!(pool.reserved_bytes(), 2 * 4 * 64);
        assert_eq!(ctx.footprint.peak(L0), 2 * 4 * 64);
        pool.validate();
    }

    #[test]
    fn slot_size_is_aligned_and_link_capable() {
        let (mut regions, mut ctx) = setup();
        let mut pool = FixedBlockPool::new(L0, 1, 4);
        let b = pool.alloc(1, &mut regions, &mut ctx).unwrap();
        assert_eq!(b.occupied, 4, "1-byte blocks occupy a link-capable slot");
        assert_eq!(b.internal_fragmentation(), 3);
    }

    #[test]
    fn oversize_request_is_unservable() {
        let (mut regions, mut ctx) = setup();
        let mut pool = FixedBlockPool::new(L0, 74, 4);
        let err = pool.alloc(75, &mut regions, &mut ctx).unwrap_err();
        assert_eq!(err, AllocError::Unservable { requested: 75 });
    }

    #[test]
    fn undersize_request_is_served_with_frag() {
        let (mut regions, mut ctx) = setup();
        let mut pool = FixedBlockPool::new(L0, 74, 4);
        let b = pool.alloc(40, &mut regions, &mut ctx).unwrap();
        assert_eq!(b.requested, 40);
        assert_eq!(b.occupied, 76, "74 rounded to word alignment");
    }

    #[test]
    fn out_of_level_surfaces() {
        let (mut regions, mut ctx) = setup();
        // Scratchpad is 64 KB; a 1500-byte pool with huge chunks exhausts it.
        let mut pool = FixedBlockPool::new(L0, 1500, 64);
        let mut failed = false;
        for _ in 0..100 {
            if pool.alloc(1500, &mut regions, &mut ctx).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "scratchpad must eventually overflow");
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn foreign_free_panics() {
        let (mut regions, mut ctx) = setup();
        let mut pool = FixedBlockPool::new(L0, 74, 4);
        pool.alloc(74, &mut regions, &mut ctx).unwrap();
        pool.free(0xdead_beef, &mut ctx);
    }

    #[test]
    fn live_block_count_tracks() {
        let (mut regions, mut ctx) = setup();
        let mut pool = FixedBlockPool::new(L0, 32, 8);
        let a = pool.alloc(32, &mut regions, &mut ctx).unwrap();
        let _b = pool.alloc(32, &mut regions, &mut ctx).unwrap();
        assert_eq!(pool.live_blocks(), 2);
        pool.free(a.addr, &mut ctx);
        assert_eq!(pool.live_blocks(), 1);
    }
}
