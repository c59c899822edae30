//! Exploration under designer constraints, and comparing explorations.
//!
//! Two workflows layered on the core tool:
//!
//! 1. **Constraints** — "the design may use at most 192 KB of memory and
//!    half the scratchpad": filter the explored space to admissible
//!    configurations *before* Pareto selection;
//! 2. **Comparison** — "the firmware now pushes twice the packets: do
//!    yesterday's Pareto winners still win?".
//!
//! ```sh
//! cargo run --release --example constrained_exploration
//! ```

use dmx_core::study::{easyport_space, StudyScale};
use dmx_core::{Comparison, Constraint, ConstraintSet, Explorer, Objective, StudySummary};
use dmx_memhier::presets;
use dmx_trace::gen::{EasyportConfig, TraceGenerator};

fn main() {
    let hier = presets::sp64k_dram4m();
    let space = easyport_space(&hier, StudyScale::Quick);
    let explorer = Explorer::new(&hier);
    let trace = EasyportConfig {
        packets: 1_000,
        ..EasyportConfig::paper()
    }
    .generate(42);
    let exploration = explorer
        .run(&space, &trace)
        .expect("enumerated spaces produce valid configurations");

    // --- 1. Constraints ---------------------------------------------------
    let sp = hier.fastest();
    let budget = ConstraintSet::new()
        .and(Constraint::Feasible)
        .and(Constraint::Max(Objective::Footprint, 192 * 1024))
        .and(Constraint::MaxLevelFootprint(
            sp,
            hier.level(sp).capacity() / 2,
        ));
    let admissible = budget.restrict(&exploration);
    println!(
        "constraints: {} of {} configurations are admissible",
        admissible.results.len(),
        exploration.results.len()
    );
    let summary = StudySummary::compute(&admissible);
    println!(
        "constrained Pareto set: {} configurations, energy lever {:.1}%",
        summary.pareto_count, summary.energy_saving_pct
    );
    if let Some(knee) = &summary.knee {
        println!("recommended (knee): {knee}");
    }

    // --- 2. Comparison ----------------------------------------------------
    let heavier = EasyportConfig {
        packets: 2_000,
        ..EasyportConfig::paper()
    }
    .generate(42);
    let exploration2 = explorer
        .run(&space, &heavier)
        .expect("enumerated spaces produce valid configurations");
    let cmp = Comparison::between(&exploration, &exploration2, Objective::Accesses);
    if let Some(g) = cmp.geomean_ratio() {
        println!("\nworkload 2x: accesses move by x{g:.2} (geometric mean over all configs)");
    }
    let (survivors, total) =
        Comparison::pareto_survivors(&exploration, &exploration2, &Objective::FIG1);
    println!(
        "Pareto shortlist stability: {survivors}/{total} configurations survive the 2x workload"
    );
}
