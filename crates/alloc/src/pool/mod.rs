//! Pool implementations — the building blocks of composed allocators.
//!
//! | Pool | Serves | Cost profile |
//! |------|--------|--------------|
//! | [`FixedBlockPool`] | one block size | O(1), no header |
//! | [`GeneralPool`] | any size | parameterized free-list search |
//! | [`SegregatedPool`] | any size via classes | O(1), internal fragmentation |
//! | [`BuddyPool`] | any size up to a max order | O(log n) split/merge |
//! | [`RegionPool`] | any size, arena lifetime | O(1) bump, bulk reset |
//!
//! Every pool lives on one memory level and charges its metadata traffic
//! there through [`AllocCtx`].

mod buddy;
mod fixed;
mod general;
mod region_pool;
mod segregated;
mod stats;

pub use buddy::BuddyPool;
pub use fixed::FixedBlockPool;
pub use general::GeneralPool;
pub use region_pool::RegionPool;
pub use segregated::SegregatedPool;
pub use stats::PoolStats;

use dmx_memhier::{LevelId, RegionTable};

use crate::block::BlockInfo;
use crate::ctx::AllocCtx;
use crate::error::AllocError;

/// A memory pool: the unit of placement and the unit of composition.
///
/// Pools are driven by a [`CompositeAllocator`](crate::CompositeAllocator),
/// which owns the shared [`RegionTable`]; standalone use works the same way
/// (see the `custom_allocator` example).
pub trait Pool {
    /// Serves an allocation of `size` bytes.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when the pool cannot grow on its level,
    /// [`AllocError::Unservable`] when the size exceeds what the pool can
    /// ever serve.
    fn alloc(
        &mut self,
        size: u32,
        regions: &mut RegionTable,
        ctx: &mut AllocCtx,
    ) -> Result<BlockInfo, AllocError>;

    /// Frees the block starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not returned by a previous [`Pool::alloc`] on
    /// this pool (routing blocks to their owning pool is the composite's
    /// job; a miss is a logic error).
    fn free(&mut self, addr: u64, ctx: &mut AllocCtx);

    /// The bytes a served `size`-byte request normally occupies: the
    /// slot, class or order size, or the general pool's padded block
    /// size. A served block may occupy more only when a general pool
    /// hands out an unsplit free block or a whole chunk; the pool memo
    /// stores just those exceptions.
    fn nominal_occupied(&self, size: u32) -> u32;

    /// The memory level this pool is placed on.
    fn level(&self) -> LevelId;

    /// Number of currently live blocks.
    fn live_blocks(&self) -> u64;

    /// A point-in-time occupancy snapshot.
    fn stats(&self) -> PoolStats;

    /// Checks internal invariants; panics with a diagnostic on violation.
    ///
    /// Intended for tests and debugging, not for per-operation use.
    fn validate(&self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
    use dmx_memhier::presets;

    /// One fresh pool of every kind, the general pool under each fit and
    /// split policy and with and without boundary tags.
    fn every_kind() -> Vec<Box<dyn Pool>> {
        let l = LevelId(1);
        let mut pools: Vec<Box<dyn Pool>> = vec![
            Box::new(FixedBlockPool::new(l, 74, 8)),
            Box::new(FixedBlockPool::new(l, 3, 8)),
            Box::new(SegregatedPool::new(l, 16, 1024, 4096)),
            Box::new(BuddyPool::new(l, 5, 14)),
            Box::new(RegionPool::new(l, 4096)),
        ];
        for fit in [FitPolicy::FirstFit, FitPolicy::BestFit, FitPolicy::NextFit] {
            for (order, coalesce) in [
                (FreeOrder::Lifo, CoalescePolicy::Immediate),
                (FreeOrder::AddressOrdered, CoalescePolicy::Never),
            ] {
                for split in [SplitPolicy::Never, SplitPolicy::MinRemainder(16)] {
                    pools.push(Box::new(GeneralPool::new(
                        l, fit, order, coalesce, split, 8, 4096,
                    )));
                }
            }
        }
        pools
    }

    /// The pool memo stores occupancy as exceptions to
    /// `nominal_occupied`; a fresh pool's first allocation of a size well
    /// below its chunk must not be one.
    #[test]
    fn first_alloc_of_a_size_occupies_the_nominal_size() {
        let hier = presets::sp64k_dram4m();
        for size in [1, 3, 8, 24, 74, 100, 1000, 1500, 2000, 4000] {
            for mut pool in every_kind() {
                let mut regions = RegionTable::new(&hier);
                let mut ctx = AllocCtx::new(hier.len());
                let nominal = pool.nominal_occupied(size);
                if let Ok(info) = pool.alloc(size, &mut regions, &mut ctx) {
                    assert_eq!(
                        info.occupied,
                        nominal,
                        "size {size}, pool {:?}",
                        pool.stats()
                    );
                }
            }
        }
    }
}
