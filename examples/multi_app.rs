//! Multi-application exploration: a wireless stack and a texture decoder
//! sharing one allocator subsystem.
//!
//! Embedded devices run several dynamic applications at once; the right
//! allocator for the *combination* is not the union of the individually
//! best ones. This example merges the Easyport and VTC traces round-robin
//! and explores a space whose dedicated-pool candidates come from the
//! combined profile.
//!
//! ```sh
//! cargo run --release --example multi_app
//! ```

use dmx_core::{Explorer, ParamSpace, StudySummary};
use dmx_memhier::presets;
use dmx_trace::gen::{EasyportConfig, TraceGenerator, VtcConfig};
use dmx_trace::ops::merge_round_robin;
use dmx_trace::TraceStats;

fn main() {
    let hier = presets::sp64k_dram4m();
    let net = EasyportConfig {
        packets: 800,
        ..EasyportConfig::paper()
    }
    .generate(42);
    let video = VtcConfig {
        images: 2,
        width: 128,
        height: 128,
        wavelet_levels: 3,
        bitplanes: 6,
    }
    .generate(42);
    let combined = merge_round_robin("easyport+vtc", &[&net, &video]).expect("well-formed inputs");

    let stats = TraceStats::compute(&combined);
    println!(
        "combined workload: {} events, {} allocs, hot sizes {:?}",
        stats.events,
        stats.allocs,
        stats.dominant_sizes(5),
    );
    println!(
        "(network headers AND zerotree nodes are hot — neither app's profile alone finds both)\n"
    );

    let space = ParamSpace::suggest(&stats, &hier);
    let exploration = Explorer::new(&hier)
        .run(&space, &combined)
        .expect("enumerated spaces produce valid configurations");
    let summary = StudySummary::compute(&exploration);
    print!("{}", summary.render());

    // Sanity: the best configurations dedicate pools to hot sizes from
    // *both* applications.
    let mixed = summary
        .pareto_curve
        .iter()
        .filter(|(label, ..)| label.contains("fix74") && label.contains("fix32"))
        .count();
    println!(
        "\n{mixed} of {} Pareto configurations dedicate pools to both apps' hot sizes",
        summary.pareto_count
    );
}
