//! Subsampled exploration for very large spaces.
//!
//! The paper's spaces reach "tens of thousands" of configurations; when a
//! full sweep is too slow, a uniform random subsample still recovers most
//! of the Pareto front (the `tab6_ablation` bench quantifies how much).
//! Sampling is deterministic in the seed, so subsampled studies stay
//! reproducible.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dmx_alloc::AllocatorConfig;
use dmx_memhier::MemoryHierarchy;

use crate::param::ParamSpace;

/// Draws `n` distinct indices uniformly from `0..total` (all of them, in
/// order, if `n >= total`), returned sorted ascending. Deterministic in
/// `seed`. Memory is O(n) — independent of `total`, so huge spaces can be
/// subsampled cheaply.
///
/// Two regimes share the work: sparse requests (`n` under half the space)
/// use rejection sampling, whose expected draw count stays below `2n`;
/// dense requests switch to a partial Fisher–Yates shuffle over the full
/// index range, because rejection sampling degenerates as `n` approaches
/// `total` — the last few picks each reject almost the whole range, and
/// the loop's *expected* time goes coupon-collector (`total·ln total`)
/// with no upper bound on the unlucky tail. A dense request already pays
/// O(n) ≥ O(total/2) memory, so materializing the range costs nothing
/// extra.
pub(crate) fn sample_indices(total: usize, n: usize, seed: u64) -> Vec<usize> {
    if n >= total {
        return (0..total).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A3D_17E1);
    if n * 2 >= total {
        // Dense fallback: shuffle the first `n` positions of the full
        // index range (classic partial Fisher–Yates), keep them.
        let mut all: Vec<usize> = (0..total).collect();
        for i in 0..n {
            let j = rng.gen_range(i..total);
            all.swap(i, j);
        }
        all.truncate(n);
        all.sort_unstable();
        return all;
    }
    let mut seen: HashSet<usize> = HashSet::with_capacity(n);
    let mut picks: Vec<usize> = Vec::with_capacity(n);
    while picks.len() < n {
        let i = rng.gen_range(0..total);
        if seen.insert(i) {
            picks.push(i);
        }
    }
    picks.sort_unstable();
    picks
}

/// Draws `n` distinct configurations uniformly from `space`
/// (all of them if `n >= space.len()`). Deterministic in `seed`.
///
/// Indices are drawn by rejection sampling and materialized by random
/// access ([`ParamSpace::genome_at`]), so neither time nor memory is
/// proportional to the full space size when `n` is small — the paper's
/// "tens of thousands of configurations" subsample in microseconds.
pub fn sample_configs(
    space: &ParamSpace,
    hierarchy: &MemoryHierarchy,
    n: usize,
    seed: u64,
) -> Vec<AllocatorConfig> {
    sample_indices(space.len(), n, seed)
        .into_iter()
        .map(|i| space.config_at(hierarchy, &space.genome_at(i)))
        .collect()
}

/// The 2-D hypervolume indicator of a point set (all objectives
/// minimized), relative to a reference point that must dominate no input
/// point: the area dominated by the set inside the reference box. Larger
/// is better; used to quantify how much of the full front a subsample
/// recovers.
///
/// # Panics
///
/// Panics if any point exceeds the reference point in either dimension.
pub fn hypervolume_2d(points: &[(u64, u64)], reference: (u64, u64)) -> u128 {
    if points.is_empty() {
        return 0;
    }
    let mut sorted: Vec<(u64, u64)> = points.to_vec();
    for &(x, y) in &sorted {
        assert!(
            x <= reference.0 && y <= reference.1,
            "point ({x}, {y}) outside reference box {reference:?}"
        );
    }
    sorted.sort_unstable();
    // Sweep in x; only points that improve y contribute area.
    let mut volume: u128 = 0;
    let mut best_y = reference.1;
    for &(x, y) in &sorted {
        if y < best_y {
            volume += u128::from(reference.0 - x) * u128::from(best_y - y);
            best_y = y;
        }
    }
    volume
}

/// How much of the reference front's dominated area a candidate front
/// recovers, in percent: `hypervolume(front) / hypervolume(full) × 100`,
/// both measured against the same reference point (component-wise max
/// over both sets, plus one). This is the "front coverage" number the
/// `search_convergence` bench and the guided-search example report.
///
/// Returns 100.0 when the reference front has zero volume (e.g. a single
/// point — nothing to recover).
pub fn front_coverage_pct(front: &[(u64, u64)], full: &[(u64, u64)]) -> f64 {
    let reference = (
        full.iter().chain(front).map(|p| p.0).max().unwrap_or(0) + 1,
        full.iter().chain(front).map(|p| p.1).max().unwrap_or(0) + 1,
    );
    let vf = hypervolume_2d(full, reference);
    if vf == 0 {
        return 100.0;
    }
    hypervolume_2d(front, reference) as f64 / vf as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{easyport_space, StudyScale};
    use dmx_memhier::presets;

    #[test]
    fn coverage_pct_bounds() {
        let full = vec![(2, 8), (6, 3)];
        assert!((front_coverage_pct(&full, &full) - 100.0).abs() < 1e-9);
        // A subset covers less; the empty front covers nothing.
        let part = front_coverage_pct(&full[..1], &full);
        assert!(part > 0.0 && part < 100.0, "{part}");
        assert_eq!(front_coverage_pct(&[], &full), 0.0);
        // Degenerate reference front: nothing to recover.
        assert_eq!(front_coverage_pct(&[], &[]), 100.0);
    }

    #[test]
    fn sample_is_deterministic_and_distinct() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let a = sample_configs(&space, &hier, 10, 7);
        let b = sample_configs(&space, &hier, 10, 7);
        assert_eq!(a.len(), 10);
        let la: Vec<String> = a.iter().map(|c| c.label()).collect();
        let lb: Vec<String> = b.iter().map(|c| c.label()).collect();
        assert_eq!(la, lb, "same seed, same sample");
        let mut dedup = la.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "sampled configs are distinct");
    }

    #[test]
    fn different_seed_different_sample() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let a: Vec<String> = sample_configs(&space, &hier, 12, 1)
            .iter()
            .map(|c| c.label())
            .collect();
        let b: Vec<String> = sample_configs(&space, &hier, 12, 2)
            .iter()
            .map(|c| c.label())
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn tiny_sample_from_huge_index_space_is_cheap() {
        // Rejection sampling touches O(n) memory, so a space far too large
        // to materialize samples instantly.
        let picks = sample_indices(1 << 40, 5, 11);
        assert_eq!(picks.len(), 5);
        assert!(picks.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        assert_eq!(picks, sample_indices(1 << 40, 5, 11), "deterministic");
    }

    #[test]
    fn oversized_request_returns_whole_space() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let all = sample_configs(&space, &hier, usize::MAX, 3);
        assert_eq!(all.len(), space.len());
    }

    /// Regression: near-total requests must take the dense path. With the
    /// pure rejection sampler these sizes re-drew almost the full range
    /// for every one of the last picks (coupon-collector tail) — on big
    /// spaces `sample_n == total - 1` could spin effectively unboundedly.
    #[test]
    fn near_total_requests_use_the_dense_path_and_stay_uniform() {
        for total in [10usize, 1_000, 50_000] {
            for n in [total - 1, total * 3 / 4, total / 2] {
                let picks = sample_indices(total, n, 7);
                assert_eq!(picks.len(), n, "total={total} n={n}");
                assert!(
                    picks.windows(2).all(|w| w[0] < w[1]),
                    "sorted + distinct (total={total} n={n})"
                );
                assert!(picks.iter().all(|&i| i < total));
                assert_eq!(
                    picks,
                    sample_indices(total, n, 7),
                    "deterministic (total={total} n={n})"
                );
            }
        }
        // Exactly the full space: the identity path, in order.
        assert_eq!(sample_indices(9, 9, 1), (0..9).collect::<Vec<_>>());
        // And the strategy-level entry point at `sample_n == total`.
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = crate::study::easyport_trace(StudyScale::Quick, 42);
        let outcome = crate::Explorer::new(&hier).search(
            &crate::SubsampleSearch {
                n: space.len(),
                seed: 5,
            },
            &space,
            &trace,
            &crate::Objective::FIG1,
        );
        assert_eq!(
            outcome.evaluations,
            space.len(),
            "degenerates to exhaustive"
        );
    }

    #[test]
    fn hypervolume_of_single_point() {
        // Point (2, 3) with reference (10, 10): area 8 * 7 = 56.
        assert_eq!(hypervolume_2d(&[(2, 3)], (10, 10)), 56);
    }

    #[test]
    fn hypervolume_staircase() {
        // Two trade-off points: (2, 8) and (6, 3), reference (10, 10).
        // (2,8): (10-2)*(10-8) = 16; (6,3): (10-6)*(8-3) = 20. Total 36.
        assert_eq!(hypervolume_2d(&[(2, 8), (6, 3)], (10, 10)), 36);
        // Order must not matter.
        assert_eq!(hypervolume_2d(&[(6, 3), (2, 8)], (10, 10)), 36);
    }

    #[test]
    fn dominated_points_add_nothing() {
        let with = hypervolume_2d(&[(2, 3), (5, 5)], (10, 10));
        let without = hypervolume_2d(&[(2, 3)], (10, 10));
        assert_eq!(with, without);
    }

    #[test]
    fn empty_set_has_zero_volume() {
        assert_eq!(hypervolume_2d(&[], (10, 10)), 0);
    }

    #[test]
    #[should_panic(expected = "outside reference box")]
    fn reference_must_bound_points() {
        let _ = hypervolume_2d(&[(11, 3)], (10, 10));
    }

    #[test]
    fn subsample_front_volume_close_to_full() {
        use crate::objective::Objective;
        use crate::runner::Explorer;
        use crate::study::easyport_trace;

        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let explorer = Explorer::new(&hier);

        let full = explorer.run(&space, &trace).unwrap();
        let half = explorer
            .run_configs(sample_configs(&space, &hier, space.len() / 2, 9), &trace)
            .unwrap();

        let points = |e: &crate::runner::Exploration| -> Vec<(u64, u64)> {
            e.pareto(&Objective::FIG1)
                .points
                .iter()
                .map(|p| (p[0], p[1]))
                .collect()
        };
        let pf = points(&full);
        let ph = points(&half);
        let reference = (
            pf.iter().chain(&ph).map(|p| p.0).max().unwrap() + 1,
            pf.iter().chain(&ph).map(|p| p.1).max().unwrap() + 1,
        );
        let vf = hypervolume_2d(&pf, reference);
        let vh = hypervolume_2d(&ph, reference);
        assert!(vh <= vf, "subsample cannot beat the full front");
        assert!(
            vh * 10 >= vf * 7,
            "a 50% sample should recover >=70% of the front volume ({vh} vs {vf})"
        );
    }
}
