//! Ablation: what each parameter axis contributes to the Pareto front.
//!
//! DESIGN.md §5 calls out the design choices to ablate: dedicated pools,
//! placement, coalescing, and fit policy. For each axis this bench freezes
//! the axis at its naive default, re-runs the Easyport exploration, and
//! prints how much of the full space's best-achievable metrics is lost —
//! evidence for *why* the paper explores that axis at all.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use dmx_alloc::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
use dmx_core::study::{easyport_space, easyport_trace, StudyScale};
use dmx_core::{Exploration, Explorer, ParamSpace, PlacementStrategy};
use dmx_memhier::presets;

fn best(exploration: &Exploration) -> (u64, u64, u64, u64) {
    let feasible = exploration.feasible();
    let min = |f: &dyn Fn(&dmx_alloc::SimMetrics) -> u64| {
        feasible.iter().map(|r| f(&r.metrics)).min().unwrap_or(0)
    };
    (
        min(&|m| m.footprint),
        min(&|m| m.total_accesses()),
        min(&|m| m.energy_pj),
        min(&|m| m.cycles),
    )
}

fn pct_worse(frozen: u64, full: u64) -> f64 {
    if full == 0 {
        return 0.0;
    }
    (frozen as f64 - full as f64) / full as f64 * 100.0
}

fn bench_ablation(c: &mut Criterion) {
    let hierarchy = presets::sp64k_dram4m();
    // Quick scale keeps the 5-variant ablation affordable; the axes and
    // their ordering are identical at paper scale.
    let trace = easyport_trace(StudyScale::Quick, 42);
    let explorer = Explorer::new(&hierarchy);
    let full_space = easyport_space(&hierarchy, StudyScale::Quick);

    let variants: Vec<(&str, ParamSpace)> = vec![
        ("full space", full_space.clone()),
        (
            "no dedicated pools",
            ParamSpace {
                dedicated_size_sets: vec![vec![]],
                ..full_space.clone()
            },
        ),
        (
            "no scratchpad placement",
            ParamSpace {
                placements: vec![PlacementStrategy::AllOn(hierarchy.slowest().into())],
                ..full_space.clone()
            },
        ),
        (
            "no coalescing choice (never)",
            ParamSpace {
                coalesces: vec![CoalescePolicy::Never],
                ..full_space.clone()
            },
        ),
        (
            "first-fit only",
            ParamSpace {
                fits: vec![FitPolicy::FirstFit],
                ..full_space.clone()
            },
        ),
        (
            "single naive config",
            ParamSpace {
                dedicated_size_sets: vec![vec![]],
                placements: vec![PlacementStrategy::AllOn(hierarchy.slowest().into())],
                fits: vec![FitPolicy::FirstFit],
                orders: vec![FreeOrder::Lifo],
                coalesces: vec![CoalescePolicy::Never],
                splits: vec![SplitPolicy::Never],
                ..full_space.clone()
            },
        ),
    ];

    println!("\n==== Table B (ablation): best achievable metric with an axis frozen ====");
    println!(
        "{:<30} {:>8} {:>11} {:>11} {:>11} {:>11}",
        "space variant", "configs", "footprint+%", "accesses+%", "energy+%", "time+%"
    );
    let full_best = best(
        &explorer
            .run(&full_space, &trace)
            .expect("enumerated spaces produce valid configurations"),
    );
    for (name, space) in &variants {
        let exploration = explorer
            .run(space, &trace)
            .expect("enumerated spaces produce valid configurations");
        let (fp, ac, en, cy) = best(&exploration);
        println!(
            "{:<30} {:>8} {:>11.1} {:>11.1} {:>11.1} {:>11.1}",
            name,
            space.len(),
            pct_worse(fp, full_best.0),
            pct_worse(ac, full_best.1),
            pct_worse(en, full_best.2),
            pct_worse(cy, full_best.3),
        );
    }
    println!("(+% = how much worse the best achievable value gets without the axis)");

    // Subsampling fidelity: how much of the full Pareto front's
    // hypervolume does a uniform 25% / 50% sample recover?
    let full = explorer
        .run(&full_space, &trace)
        .expect("enumerated spaces produce valid configurations");
    let full_front: Vec<(u64, u64)> = full
        .pareto(&dmx_core::Objective::FIG1)
        .points
        .iter()
        .map(|p| (p[0], p[1]))
        .collect();
    println!("\n==== Table B2: Pareto-front recovery from subsampled exploration ====");
    println!("{:<18} {:>8} {:>16}", "sample", "configs", "front volume %");
    for frac in [4usize, 2] {
        let n = full_space.len() / frac;
        let sampled = explorer
            .run_configs(
                dmx_core::sample_configs(&full_space, &hierarchy, n, 99),
                &trace,
            )
            .expect("sampled space configurations are valid");
        let front: Vec<(u64, u64)> = sampled
            .pareto(&dmx_core::Objective::FIG1)
            .points
            .iter()
            .map(|p| (p[0], p[1]))
            .collect();
        let reference = (
            full_front
                .iter()
                .chain(&front)
                .map(|p| p.0)
                .max()
                .unwrap_or(1)
                + 1,
            full_front
                .iter()
                .chain(&front)
                .map(|p| p.1)
                .max()
                .unwrap_or(1)
                + 1,
        );
        let vf = dmx_core::hypervolume_2d(&full_front, reference);
        let vs = dmx_core::hypervolume_2d(&front, reference);
        let pct = if vf == 0 {
            100.0
        } else {
            vs as f64 / vf as f64 * 100.0
        };
        println!(
            "{:<18} {:>8} {:>15.1}%",
            format!("1/{frac} of space"),
            n,
            pct
        );
    }
    println!("(exhaustive = 100%; high recovery justifies sampling huge spaces)");

    // Measured unit: one full quick-scale exploration (the ablation's unit
    // of work).
    let small = ParamSpace {
        dedicated_size_sets: vec![vec![], vec![28, 74]],
        fits: vec![FitPolicy::FirstFit],
        orders: vec![FreeOrder::Lifo],
        coalesces: vec![CoalescePolicy::Immediate],
        ..full_space
    };
    c.bench_function("tab6/quick_exploration_unit", |b| {
        b.iter(|| explorer.run(std::hint::black_box(&small), std::hint::black_box(&trace)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_secs(1));
    targets = bench_ablation
}
criterion_main!(benches);
