//! Per-level address-space carving for pool placement.
//!
//! Every allocator pool owns a *region*: a placed, bounded address range on
//! one memory level. Regions never overlap; each level hands ranges out in
//! address order (pools only ever grow, mirroring the static pool carving an
//! embedded linker script would perform). Addresses from different levels
//! live in disjoint windows so a simulated address uniquely identifies its
//! level.

use crate::error::RegionError;
use crate::hierarchy::{LevelId, MemoryHierarchy};

/// Width of each level's address window. 2^40 bytes per level is far above
/// any embedded memory size, so windows never collide.
const LEVEL_WINDOW_SHIFT: u32 = 40;

/// A placed address range on a memory level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// The level this region lives on.
    pub level: LevelId,
    /// First simulated address of the region.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl Region {
    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// `true` if `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// What to do when a reservation does not fit on the requested level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Fail the reservation with [`RegionError::OutOfLevel`].
    #[default]
    Strict,
    /// Try each slower level in turn; fail only when none fits.
    SpillToSlower,
}

/// Tracks how much of each level's capacity has been handed out and carves
/// new regions.
#[derive(Debug, Clone)]
pub struct RegionTable {
    capacity: Vec<u64>,
    used: Vec<u64>,
}

impl RegionTable {
    /// A fresh table over `hierarchy` with nothing reserved.
    pub fn new(hierarchy: &MemoryHierarchy) -> Self {
        RegionTable {
            capacity: hierarchy.iter().map(|(_, l)| l.capacity()).collect(),
            used: vec![0; hierarchy.len()],
        }
    }

    /// Bytes already reserved on `level`.
    pub fn used(&self, level: LevelId) -> u64 {
        self.used[level.index()]
    }

    /// Bytes still available on `level`.
    pub fn available(&self, level: LevelId) -> u64 {
        self.capacity[level.index()] - self.used[level.index()]
    }

    /// Total bytes reserved over all levels.
    pub fn total_used(&self) -> u64 {
        self.used.iter().sum()
    }

    /// Reserves `size` bytes on `level` (strict placement).
    ///
    /// # Errors
    ///
    /// [`RegionError::ZeroSize`] for a zero-byte request;
    /// [`RegionError::UnknownLevel`] if `level` is out of range;
    /// [`RegionError::OutOfLevel`] if the level lacks capacity.
    pub fn reserve(&mut self, level: LevelId, size: u64) -> Result<Region, RegionError> {
        self.reserve_with(level, size, PlacementPolicy::Strict)
    }

    /// Reserves `size` bytes on `level`, applying `policy` on overflow.
    ///
    /// # Errors
    ///
    /// As [`RegionTable::reserve`]; with
    /// [`PlacementPolicy::SpillToSlower`], `OutOfLevel` is returned only
    /// when no level at or below `level` can hold the request.
    pub fn reserve_with(
        &mut self,
        level: LevelId,
        size: u64,
        policy: PlacementPolicy,
    ) -> Result<Region, RegionError> {
        if size == 0 {
            return Err(RegionError::ZeroSize);
        }
        if level.index() >= self.capacity.len() {
            return Err(RegionError::UnknownLevel(level));
        }
        let last = match policy {
            PlacementPolicy::Strict => level.index(),
            PlacementPolicy::SpillToSlower => self.capacity.len() - 1,
        };
        for idx in level.index()..=last {
            if self.capacity[idx] - self.used[idx] >= size {
                let base = ((idx as u64) << LEVEL_WINDOW_SHIFT) + self.used[idx];
                self.used[idx] += size;
                return Ok(Region {
                    level: LevelId(idx as u16),
                    base,
                    size,
                });
            }
        }
        Err(RegionError::OutOfLevel {
            level,
            requested: size,
            available: self.available(level),
        })
    }

    /// The level owning a simulated address (inverse of the address window
    /// encoding). Returns `None` for addresses outside every window.
    pub fn level_of_addr(&self, addr: u64) -> Option<LevelId> {
        let idx = (addr >> LEVEL_WINDOW_SHIFT) as usize;
        (idx < self.capacity.len()).then_some(LevelId(idx as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{LevelKind, MemoryLevel};

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(vec![
            MemoryLevel::builder("sp", LevelKind::Scratchpad)
                .capacity(1024)
                .build(),
            MemoryLevel::builder("main", LevelKind::Dram)
                .capacity(1 << 20)
                .build(),
        ])
        .unwrap()
    }

    #[test]
    fn reserve_carves_in_address_order() {
        let h = hier();
        let mut t = RegionTable::new(&h);
        let a = t.reserve(LevelId(0), 100).unwrap();
        let b = t.reserve(LevelId(0), 200).unwrap();
        assert_eq!(a.end(), b.base);
        assert_eq!(t.used(LevelId(0)), 300);
        assert_eq!(t.available(LevelId(0)), 724);
    }

    #[test]
    fn windows_are_disjoint_across_levels() {
        let h = hier();
        let mut t = RegionTable::new(&h);
        let a = t.reserve(LevelId(0), 100).unwrap();
        let b = t.reserve(LevelId(1), 100).unwrap();
        assert!(a.end() <= b.base || b.end() <= a.base);
        assert_eq!(t.level_of_addr(a.base), Some(LevelId(0)));
        assert_eq!(t.level_of_addr(b.base), Some(LevelId(1)));
    }

    #[test]
    fn strict_overflow_fails() {
        let h = hier();
        let mut t = RegionTable::new(&h);
        let err = t.reserve(LevelId(0), 2048).unwrap_err();
        match err {
            RegionError::OutOfLevel {
                level,
                requested,
                available,
            } => {
                assert_eq!(level, LevelId(0));
                assert_eq!(requested, 2048);
                assert_eq!(available, 1024);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn spill_places_on_slower_level() {
        let h = hier();
        let mut t = RegionTable::new(&h);
        let r = t
            .reserve_with(LevelId(0), 2048, PlacementPolicy::SpillToSlower)
            .unwrap();
        assert_eq!(r.level, LevelId(1));
    }

    #[test]
    fn spill_fails_when_nothing_fits() {
        let h = hier();
        let mut t = RegionTable::new(&h);
        let err = t
            .reserve_with(LevelId(0), 2 << 20, PlacementPolicy::SpillToSlower)
            .unwrap_err();
        assert!(matches!(err, RegionError::OutOfLevel { .. }));
    }

    #[test]
    fn zero_size_rejected() {
        let h = hier();
        let mut t = RegionTable::new(&h);
        assert_eq!(t.reserve(LevelId(0), 0), Err(RegionError::ZeroSize));
    }

    #[test]
    fn unknown_level_rejected() {
        let h = hier();
        let mut t = RegionTable::new(&h);
        assert_eq!(
            t.reserve(LevelId(9), 8),
            Err(RegionError::UnknownLevel(LevelId(9)))
        );
    }

    #[test]
    fn region_contains() {
        let r = Region {
            level: LevelId(0),
            base: 100,
            size: 10,
        };
        assert!(r.contains(100));
        assert!(r.contains(109));
        assert!(!r.contains(110));
        assert!(!r.contains(99));
    }

    #[test]
    fn total_used_sums_levels() {
        let h = hier();
        let mut t = RegionTable::new(&h);
        t.reserve(LevelId(0), 10).unwrap();
        t.reserve(LevelId(1), 20).unwrap();
        assert_eq!(t.total_used(), 30);
    }

    #[test]
    fn level_of_addr_rejects_foreign_windows() {
        let h = hier();
        let t = RegionTable::new(&h);
        assert_eq!(t.level_of_addr(5 << 40), None);
    }
}
