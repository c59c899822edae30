//! Exploration over a three-level platform (32 KB scratchpad, 256 KB SRAM,
//! 8 MB DRAM): the parameter space is derived automatically from the
//! profiled trace (`ParamSpace::suggest`), exactly the paper's automated
//! flow — profile once, explore the derived space.
//!
//! ```sh
//! cargo run --release --example three_level_platform
//! ```

use dmx_core::{Explorer, Objective, ParamSpace, StudySummary};
use dmx_memhier::presets;
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::TraceStats;

fn main() {
    let hier = presets::sp32k_sram256k_dram8m();
    println!("platform:\n{hier}");

    let trace = EasyportConfig::small().generate(42);
    let stats = TraceStats::compute(&trace);
    println!(
        "profiled `{}`: hot sizes {:?} cover {:.0}% of allocations\n",
        trace.name(),
        stats.dominant_sizes(4),
        stats.dominant_coverage(4) * 100.0,
    );

    // The automated step: derive the space from the profile.
    let space = ParamSpace::suggest(&stats, &hier);
    println!(
        "derived space: {} configurations ({} dedicated-size sets x {} placements x policies)",
        space.len(),
        space.dedicated_size_sets.len(),
        space.placements.len(),
    );

    let exploration = Explorer::new(&hier)
        .run(&space, &trace)
        .expect("enumerated spaces produce valid configurations");
    let summary = StudySummary::compute(&exploration);
    print!("{}", summary.render());

    // Show where the Pareto-best-energy configuration placed its pools.
    let front = exploration.pareto(&[Objective::EnergyPj, Objective::Footprint]);
    let best = &exploration.results[front.indices[0]];
    println!("\nbest-energy configuration: {}", best.label);
    for (i, fp) in best.metrics.footprint_per_level.iter().enumerate() {
        let level = hier.level(dmx_memhier::LevelId(i as u16));
        println!("  {:<16} {fp:>8} B reserved", level.name());
    }
}
