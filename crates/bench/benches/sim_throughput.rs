//! Simulation-kernel throughput: the compiled-trace slab kernel versus
//! the retained hash-map reference interpreter, on the `embedded-mix`
//! scenario suite.
//!
//! Replay is the dominant cost of every search strategy (robust runs
//! multiply it by the suite size), so this bench is the regression gate
//! for the kernel refactor:
//!
//! * both paths replay every suite scenario under several representative
//!   configurations (general-only, dedicated-pool genomes, the paper's
//!   worked example) and must produce **byte-identical metrics**;
//! * the slab kernel must sustain **≥ 2× the reference events/sec**
//!   (asserted — a regression fails the CI bench smoke run);
//! * the general pool's four fit policies must cost the host about the
//!   same per pool op: `general_fit_spread` is the slowest fit's ns per
//!   pool op over the fastest's, on `general_only(·, lifo, co-no, sp-16)`
//!   over the paper-scale Easyport trace. It is a ratio of two timings on
//!   one host, so its ceiling holds on any host;
//! * contention charging must stay cheap next to the replay it rides
//!   on: `contention_overhead` is the kernel's median ns per pool op
//!   under the default contention model over the same with the model
//!   disabled (`window: 0`), on the threaded `server-mix` suite under
//!   the configurations above. Another ratio of two timings on one host;
//! * the headline numbers are recorded to `BENCH_sim_throughput.json` at
//!   the workspace root, validated by CI against the checked-in floor in
//!   `crates/bench/floors/sim_throughput.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

use dmx_alloc::{
    AllocatorConfig, CoalescePolicy, ContentionParams, FitPolicy, FreeOrder, SimArena, Simulator,
    SplitPolicy,
};
use dmx_bench::{json_num, json_str, write_bench_json};
use dmx_core::scenario::ScenarioSuite;
use dmx_memhier::presets;
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::CompiledTrace;

/// Per-(path, scenario, config) measurement window. Large enough to damp
/// scheduler noise, small enough for the CI smoke run.
const WINDOW: Duration = Duration::from_millis(120);

/// Replays per fit policy in [`general_fit_ns_per_pool_op`], at least.
const FIT_RUNS: usize = 3;

/// Median host ns per pool op of each general-pool fit policy
/// ([`FitPolicy::ALL`] order) on `general_only(·, lifo, co-no, sp-16)`
/// over the paper-scale Easyport trace. Worst-fit without coalescing
/// grows the longest free lists, so this is where a search that walks
/// the host container node by node shows.
fn general_fit_ns_per_pool_op() -> Vec<f64> {
    let hier = presets::sp64k_dram4m();
    let compiled = CompiledTrace::compile(&EasyportConfig::paper().generate(42));
    let pool_ops = compiled.pool_ops().len() as f64;
    let sim = Simulator::new(&hier);
    let mut arena = SimArena::new();
    FitPolicy::ALL
        .iter()
        .map(|&fit| {
            let config = AllocatorConfig::general_only(
                hier.slowest(),
                fit,
                FreeOrder::Lifo,
                CoalescePolicy::Never,
                SplitPolicy::MinRemainder(16),
            );
            let mut samples = Vec::new();
            let t0 = Instant::now();
            while samples.len() < FIT_RUNS || t0.elapsed() < WINDOW {
                let t = Instant::now();
                std::hint::black_box(
                    sim.run_in_arena(&config, &compiled, &mut arena)
                        .expect("valid config"),
                );
                samples.push(t.elapsed().as_nanos() as f64 / pool_ops);
            }
            samples.sort_by(f64::total_cmp);
            samples[samples.len() / 2]
        })
        .collect()
}

/// Replays per (scenario, config) and contention setting in
/// [`contention_overhead`]. A fixed count, so every pair weighs the same
/// in the medians however fast it replays.
const CONTENTION_RUNS: usize = 15;

/// Median kernel ns per pool op on the threaded `server-mix` suite under
/// the default contention model, over the same with the model disabled.
/// Charged and uncharged replays alternate, so host drift hits both
/// sides alike. `configs` that name a level a platform lacks are skipped
/// for that platform.
fn contention_overhead(configs: &[AllocatorConfig]) -> f64 {
    let suite = ScenarioSuite::builtin("server-mix").expect("built-in suite");
    let off = ContentionParams {
        window: 0,
        ..ContentionParams::default()
    };
    let mut on_ns = Vec::new();
    let mut off_ns = Vec::new();
    let mut stalls = 0u64;
    let mut arena = SimArena::new();
    for m in &suite.materialize(42) {
        assert!(m.compiled.is_threaded(), "server-mix traces are threaded");
        let pool_ops = m.compiled.pool_ops().len() as f64;
        let charged = Simulator::new(&m.hierarchy).with_contention(ContentionParams::default());
        let uncharged = Simulator::new(&m.hierarchy).with_contention(off);
        for config in configs.iter().filter(|c| c.validate(&m.hierarchy).is_ok()) {
            for _ in 0..CONTENTION_RUNS {
                for (sim, samples) in [(&charged, &mut on_ns), (&uncharged, &mut off_ns)] {
                    let t = Instant::now();
                    let metrics = sim
                        .run_in_arena(config, &m.compiled, &mut arena)
                        .expect("valid config");
                    samples.push(t.elapsed().as_nanos() as f64 / pool_ops);
                    stalls += std::hint::black_box(metrics).contention_stalls;
                }
            }
        }
    }
    assert!(
        !on_ns.is_empty(),
        "some configuration fits a server-mix platform"
    );
    assert!(stalls > 0, "the charged replays must charge contention");
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    median(&mut on_ns) / median(&mut off_ns)
}

fn bench_sim_throughput(c: &mut Criterion) {
    let suite = ScenarioSuite::builtin("embedded-mix").expect("built-in suite");
    let mats = suite.materialize(42);
    assert!(mats.len() >= 6, "embedded-mix must stay broad");
    let space = suite.suggest_space(&mats);

    // Representative configurations: the suite space's two extremes (a
    // general-only baseline and the most pool-rich genome), plus the
    // paper's worked example.
    let configs: Vec<AllocatorConfig> = vec![
        space.config_at(&mats[0].hierarchy, &space.genome_at(0)),
        space.config_at(&mats[0].hierarchy, &space.genome_at(space.len() - 1)),
        AllocatorConfig::paper_example(&mats[0].hierarchy),
    ];

    let mut ref_events = 0u64;
    let mut ref_nanos = 0u64;
    let mut kernel_events = 0u64;
    let mut kernel_nanos = 0u64;
    let mut arena = SimArena::new();

    for config in &configs {
        for m in &mats {
            if config.validate(&m.hierarchy).is_err() {
                // A config naming a level a platform lacks is skipped for
                // that platform (the suite space itself is always valid).
                continue;
            }
            let sim = Simulator::new(&m.hierarchy);

            // Warm-up doubles as the equivalence gate: both interpreters
            // must agree byte-for-byte before anything is timed.
            let reference = sim.run_reference(config, &m.trace).expect("valid config");
            let kernel = sim
                .run_in_arena(config, &m.compiled, &mut arena)
                .expect("valid config");
            assert_eq!(
                reference,
                kernel,
                "kernel diverges from the reference on `{}` × {}",
                m.scenario.name,
                config.label()
            );

            let t0 = Instant::now();
            while t0.elapsed() < WINDOW {
                std::hint::black_box(sim.run_reference(config, &m.trace).expect("valid"));
                ref_events += m.trace.len() as u64;
            }
            ref_nanos += t0.elapsed().as_nanos() as u64;

            let t1 = Instant::now();
            while t1.elapsed() < WINDOW {
                std::hint::black_box(
                    sim.run_in_arena(config, &m.compiled, &mut arena)
                        .expect("valid"),
                );
                kernel_events += m.compiled.len() as u64;
            }
            kernel_nanos += t1.elapsed().as_nanos() as u64;
        }
    }

    let ref_eps = ref_events as f64 * 1e9 / ref_nanos as f64;
    let kernel_eps = kernel_events as f64 * 1e9 / kernel_nanos as f64;
    let speedup = kernel_eps / ref_eps;
    let total_secs = (ref_nanos + kernel_nanos) as f64 / 1e9;
    println!(
        "\n==== sim throughput: suite `{}`, {} scenarios × {} configs ====",
        suite.name,
        mats.len(),
        configs.len()
    );
    println!(
        "reference (hash-map): {:>10.0} events/sec ({} events)",
        ref_eps, ref_events
    );
    println!(
        "slab kernel         : {:>10.0} events/sec ({} events, {} arena reuses)",
        kernel_eps,
        kernel_events,
        arena.reuses()
    );
    println!("speedup             : {speedup:.2}x  (target ≥ 2.0x)");

    let fit_ns = general_fit_ns_per_pool_op();
    let slowest = fit_ns.iter().copied().fold(f64::MIN, f64::max);
    let fastest = fit_ns.iter().copied().fold(f64::MAX, f64::min);
    let fit_spread = slowest / fastest;
    for (fit, ns) in FitPolicy::ALL.iter().zip(&fit_ns) {
        println!("general {fit} (lifo)   : {ns:>10.1} ns/pool op");
    }
    println!("general fit spread  : {fit_spread:.2}x  (ceiling 8.0x)");

    let overhead = contention_overhead(&configs);
    println!("contention overhead : {overhead:.2}x  (ceiling 1.6x, server-mix)");

    let path = write_bench_json(
        "sim_throughput",
        &[
            ("bench", json_str("sim_throughput")),
            ("suite", json_str(&suite.name)),
            ("scenarios", mats.len().to_string()),
            ("configs", configs.len().to_string()),
            ("events_replayed", (ref_events + kernel_events).to_string()),
            ("baseline_events_per_sec", json_num(ref_eps)),
            ("events_per_sec", json_num(kernel_eps)),
            ("speedup", json_num(speedup)),
            ("total_sim_seconds", json_num(total_secs)),
            ("arena_reuses", arena.reuses().to_string()),
            ("general_fit_spread", json_num(fit_spread)),
            ("contention_overhead", json_num(overhead)),
        ],
    );
    println!("recorded {}", path.display());

    // Acceptance bar: the slab kernel must at least double replay
    // throughput over the hash-map reference on the embedded-mix suite.
    assert!(
        speedup >= 2.0,
        "slab kernel speedup {speedup:.2}x fell below the 2.0x floor \
         ({kernel_eps:.0} vs {ref_eps:.0} events/sec)"
    );

    // Measured unit for the harness: one kernel replay of the first
    // scenario under the pool-rich configuration.
    let m = &mats[0];
    let sim = Simulator::new(&m.hierarchy);
    let config = &configs[1];
    c.bench_function("sim_throughput/kernel_one_scenario", |b| {
        b.iter(|| {
            sim.run_in_arena(std::hint::black_box(config), &m.compiled, &mut arena)
                .expect("valid")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_secs(1));
    targets = bench_sim_throughput
}
criterion_main!(benches);
