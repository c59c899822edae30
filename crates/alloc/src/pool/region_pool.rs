//! Arena (region) pool: bump allocation, bulk reclamation.
//!
//! Individual frees only decrement a live counter; when the last live block
//! dies the whole arena resets its bump pointer. This matches
//! phase-structured workloads (the VTC decoder frees everything at image
//! boundaries) and is the cheapest possible allocator when lifetimes nest.

use dmx_memhier::{LevelId, Region, RegionTable};

use crate::block::{align_up, BlockInfo};
use crate::ctx::AllocCtx;
use crate::error::AllocError;
use crate::pool::{Pool, PoolStats};

/// A bump-pointer arena with whole-arena reset.
#[derive(Debug, Clone)]
pub struct RegionPool {
    level: LevelId,
    chunk_bytes: u64,
    chunks: Vec<Region>,
    /// Index of the chunk currently bumped into.
    current: usize,
    /// Offset within the current chunk.
    offset: u64,
    live: u64,
    live_bytes: u64,
    /// Host-side size tables so stats can report live bytes (the simulated
    /// arena stores no per-block metadata). One table per chunk, indexed
    /// at 8-byte granularity — every bump offset is 8-aligned, so
    /// `(addr - base) / 8` is a perfect slot index; 0 means "no live block
    /// starts here".
    sizes: Vec<Vec<u32>>,
}

impl RegionPool {
    /// An arena on `level` growing `chunk_bytes` at a time.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero.
    pub fn new(level: LevelId, chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0, "chunk must be non-zero");
        RegionPool {
            level,
            chunk_bytes,
            chunks: Vec::new(),
            current: 0,
            offset: 0,
            live: 0,
            live_bytes: 0,
            sizes: Vec::new(),
        }
    }

    /// Bytes of region space this arena has reserved.
    pub fn reserved_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.size).sum()
    }

    /// The chunk index containing `addr` (chunks are address-sorted —
    /// per-level regions are carved ascending).
    fn chunk_of(&self, addr: u64) -> Option<usize> {
        let i = self.chunks.partition_point(|c| c.base <= addr);
        let ci = i.checked_sub(1)?;
        self.chunks[ci].contains(addr).then_some(ci)
    }
}

impl Pool for RegionPool {
    fn alloc(
        &mut self,
        size: u32,
        regions: &mut RegionTable,
        ctx: &mut AllocCtx,
    ) -> Result<BlockInfo, AllocError> {
        let asize = u64::from(align_up(size, 8));
        // Read the bump pointer.
        ctx.meta_read(self.level, 1);
        loop {
            if let Some(chunk) = self.chunks.get(self.current) {
                if self.offset + asize <= chunk.size {
                    let addr = chunk.base + self.offset;
                    self.sizes[self.current][(self.offset / 8) as usize] = asize as u32;
                    self.offset += asize;
                    ctx.meta_write(self.level, 1); // bump update
                    self.live += 1;
                    self.live_bytes += asize;
                    return Ok(BlockInfo {
                        addr,
                        level: self.level,
                        requested: size,
                        occupied: asize as u32,
                    });
                }
                // Current chunk exhausted: move to the next (pre-reserved
                // after a reset) or grow.
                if self.current + 1 < self.chunks.len() {
                    self.current += 1;
                    self.offset = 0;
                    ctx.meta_write(self.level, 1);
                    continue;
                }
            }
            let bytes = self.chunk_bytes.max(asize);
            let region = regions.reserve(self.level, bytes)?;
            ctx.footprint.grow(self.level, bytes);
            ctx.meta_write(self.level, 2);
            self.chunks.push(region);
            self.sizes.push(vec![0; bytes.div_ceil(8) as usize]);
            self.current = self.chunks.len() - 1;
            self.offset = 0;
        }
    }

    fn free(&mut self, addr: u64, ctx: &mut AllocCtx) {
        assert!(self.live > 0, "free on an empty arena");
        // Decrement the arena's live counter.
        ctx.meta_read(self.level, 1);
        ctx.meta_write(self.level, 1);
        self.live -= 1;
        if let Some(ci) = self.chunk_of(addr) {
            let slot = ((addr - self.chunks[ci].base) / 8) as usize;
            let size = std::mem::replace(&mut self.sizes[ci][slot], 0);
            self.live_bytes -= u64::from(size);
        }
        if self.live == 0 {
            // Whole-arena reset: bump back to the first chunk. The regions
            // stay reserved (footprint unchanged) but are fully reusable.
            self.current = 0;
            self.offset = 0;
            ctx.meta_write(self.level, 1);
        }
    }

    fn nominal_occupied(&self, size: u32) -> u32 {
        align_up(size, 8)
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
            live_bytes: self.live_bytes,
            live_blocks: self.live,
            free_blocks: 0,
        }
    }

    fn validate(&self) {
        if let Some(chunk) = self.chunks.get(self.current) {
            assert!(self.offset <= chunk.size, "bump offset past chunk end");
        } else {
            assert_eq!(self.offset, 0, "offset without a chunk");
        }
        assert!(
            self.current == 0 || self.current < self.chunks.len(),
            "current chunk out of range"
        );
        assert_eq!(self.sizes.len(), self.chunks.len(), "size table per chunk");
        let table_bytes: u64 = self
            .sizes
            .iter()
            .flat_map(|t| t.iter().map(|&s| u64::from(s)))
            .sum();
        assert_eq!(table_bytes, self.live_bytes, "size tables vs live bytes");
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
    fn bump_allocates_contiguously() {
        let (mut regions, mut ctx) = setup();
        let mut p = RegionPool::new(L1, 4096);
        let a = p.alloc(100, &mut regions, &mut ctx).unwrap();
        let b = p.alloc(100, &mut regions, &mut ctx).unwrap();
        assert_eq!(b.addr, a.addr + 104, "aligned bump");
        p.validate();
    }

    #[test]
    fn reset_reuses_space() {
        let (mut regions, mut ctx) = setup();
        let mut p = RegionPool::new(L1, 1024);
        let a = p.alloc(500, &mut regions, &mut ctx).unwrap();
        let b = p.alloc(400, &mut regions, &mut ctx).unwrap();
        p.free(a.addr, &mut ctx);
        p.free(b.addr, &mut ctx); // live hits 0 → reset
        let fp = ctx.footprint.peak_total();
        let c = p.alloc(500, &mut regions, &mut ctx).unwrap();
        assert_eq!(c.addr, a.addr, "arena reset rewinds the bump pointer");
        assert_eq!(ctx.footprint.peak_total(), fp, "no growth after reset");
        p.validate();
    }

    #[test]
    fn grows_when_phase_overflows() {
        let (mut regions, mut ctx) = setup();
        let mut p = RegionPool::new(L1, 1024);
        let _a = p.alloc(800, &mut regions, &mut ctx).unwrap();
        let _b = p.alloc(800, &mut regions, &mut ctx).unwrap(); // needs 2nd chunk
        assert_eq!(p.reserved_bytes(), 2048);
        p.validate();
    }

    #[test]
    fn alloc_cost_is_two_accesses() {
        let (mut regions, mut ctx) = setup();
        let mut p = RegionPool::new(L1, 4096);
        let _ = p.alloc(64, &mut regions, &mut ctx).unwrap();
        let before = ctx.meta_counters.total_accesses();
        let _ = p.alloc(64, &mut regions, &mut ctx).unwrap();
        assert_eq!(ctx.meta_counters.total_accesses() - before, 2);
    }

    #[test]
    fn oversized_request_gets_own_chunk() {
        let (mut regions, mut ctx) = setup();
        let mut p = RegionPool::new(L1, 512);
        let big = p.alloc(2000, &mut regions, &mut ctx).unwrap();
        assert_eq!(big.occupied, 2000);
        p.validate();
    }

    #[test]
    fn live_bytes_track_frees_across_chunks() {
        let (mut regions, mut ctx) = setup();
        let mut p = RegionPool::new(L1, 1024);
        let a = p.alloc(800, &mut regions, &mut ctx).unwrap();
        let b = p.alloc(800, &mut regions, &mut ctx).unwrap(); // 2nd chunk
        assert_eq!(p.stats().live_bytes, 1600);
        p.free(a.addr, &mut ctx);
        assert_eq!(p.stats().live_bytes, 800);
        p.free(b.addr, &mut ctx);
        assert_eq!(p.stats().live_bytes, 0);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "empty arena")]
    fn free_on_empty_panics() {
        let (_regions, mut ctx) = setup();
        let mut p = RegionPool::new(L1, 512);
        p.free(0, &mut ctx);
    }
}
