//! Layer probes for the traced run. Each probe times the benchmark's own
//! calls into one layer, outside the timed explorations.

use std::time::Instant;

use dmx_alloc::pool::{BuddyPool, FixedBlockPool, GeneralPool, Pool, RegionPool, SegregatedPool};
use dmx_alloc::{AllocCtx, CoalescePolicy, FitPolicy, FreeOrder, SimArena, Simulator, SplitPolicy};
use dmx_core::{FidelityPlan, Genome, GenomeSpace, ScenarioSuite};
use dmx_memhier::{LevelId, LevelKind, MemoryHierarchy, MemoryLevel, RegionTable};
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::{textfmt, CompiledTrace};

use crate::pipeline::Instance;
use crate::stats::median;

/// Repetitions of each set-up probe; the median is reported.
const REPEATS: usize = 3;

/// Seconds spent in each set-up layer (medians of [`REPEATS`]). A layer
/// the workload does not run stays 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    pub gen_s: f64,
    pub parse_s: f64,
    pub parse_bytes: usize,
    pub compile_s: f64,
    pub materialize_s: f64,
    pub prefix_s: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64()
}

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPEATS).map(|_| f()).collect::<Vec<_>>())
}

/// Times trace generation, parsing, compilation, suite materialization
/// and the fidelity plan's prefix cuts separately.
pub fn setup_layers(
    suite: Option<&ScenarioSuite>,
    seed: u64,
    instances: &[Instance],
    plan: Option<&FidelityPlan>,
) -> SetupLayers {
    let mut out = SetupLayers::default();
    match suite {
        None => {
            out.gen_s = median_of(|| timed(|| EasyportConfig::paper().generate(seed)));
            let text = textfmt::to_string(&instances[0].trace);
            out.parse_bytes = text.len();
            out.parse_s = median_of(|| timed(|| textfmt::from_str(&text)));
        }
        Some(suite) => {
            out.gen_s = median_of(|| {
                suite
                    .scenarios
                    .iter()
                    .map(|s| timed(|| s.workload.generate(s.seed ^ seed)))
                    .sum()
            });
            out.materialize_s = median_of(|| timed(|| suite.materialize(seed)));
        }
    }
    out.compile_s = median_of(|| {
        instances
            .iter()
            .map(|i| timed(|| CompiledTrace::compile(&i.trace)))
            .sum()
    });
    if let Some(plan) = plan {
        out.prefix_s = median_of(|| {
            instances
                .iter()
                .flat_map(|i| {
                    plan.screening_fractions()
                        .iter()
                        .map(move |&f| timed(|| i.compiled.prefix(f)))
                })
                .sum()
        });
    }
    out
}

/// Evenly strided sample of at most `n` genomes, in outcome order.
pub fn sample(genomes: &[Genome], n: usize) -> Vec<&Genome> {
    let step = genomes.len().div_ceil(n.max(1)).max(1);
    genomes.iter().step_by(step).collect()
}

/// Mean µs to decode one genome into a configuration and build its
/// allocator, on the first instance's platform.
pub fn decode_build_us(
    space: &dyn GenomeSpace,
    instances: &[Instance],
    genomes: &[&Genome],
) -> f64 {
    let hierarchy = &instances[0].hierarchy;
    let t = Instant::now();
    for g in genomes {
        let config = space.config_at(hierarchy, g);
        let _ = std::hint::black_box(config.build(hierarchy));
    }
    t.elapsed().as_secs_f64() * 1e6 / genomes.len().max(1) as f64
}

/// The replay kernel on sampled configurations, one thread.
#[derive(Debug, Clone, Default)]
pub struct KernelProbe {
    /// Host ns per pool op, one entry per sampled configuration.
    pub ns_per_op: Vec<f64>,
    /// Configuration labels (first instance), parallel to `ns_per_op`.
    pub labels: Vec<String>,
    /// Summed kernel and reference-interpreter ns over the sample.
    pub kernel_ns: f64,
    pub reference_ns: f64,
}

pub fn kernel_probe(
    space: &dyn GenomeSpace,
    instances: &[Instance],
    genomes: &[&Genome],
) -> KernelProbe {
    let mut out = KernelProbe::default();
    let mut arena = SimArena::new();
    for g in genomes {
        let mut kernel_ns = 0.0;
        let mut ops = 0usize;
        for inst in instances {
            let config = space.config_at(&inst.hierarchy, g);
            let sim = Simulator::new(&inst.hierarchy);
            let t = Instant::now();
            let _ = std::hint::black_box(sim.run_in_arena(&config, &inst.compiled, &mut arena));
            kernel_ns += t.elapsed().as_nanos() as f64;
            ops += inst.compiled.pool_ops().len();
            let t = Instant::now();
            let _ = std::hint::black_box(sim.run_reference(&config, &inst.trace));
            out.reference_ns += t.elapsed().as_nanos() as f64;
        }
        out.kernel_ns += kernel_ns;
        out.ns_per_op.push(kernel_ns / ops.max(1) as f64);
        out.labels
            .push(space.config_at(&instances[0].hierarchy, g).label());
    }
    out
}

/// The pool kinds the harness drives, by metric suffix.
pub const POOL_KINDS: [&str; 8] = [
    "fixed",
    "segregated",
    "buddy",
    "region",
    "general-first",
    "general-next",
    "general-best",
    "general-worst",
];

/// One big DRAM level, so no pool kind runs out of platform memory.
fn harness_platform() -> MemoryHierarchy {
    MemoryHierarchy::new(vec![MemoryLevel::builder("harness-dram", LevelKind::Dram)
        .capacity(1 << 32)
        .read_energy_pj(1480)
        .write_energy_pj(1620)
        .read_latency(18)
        .write_latency(20)
        .leakage_pj_per_kcycle(24)
        .build()])
    .expect("harness platform is valid")
}

fn general(fit: FitPolicy) -> Box<dyn Pool> {
    Box::new(GeneralPool::new(
        LevelId(0),
        fit,
        FreeOrder::Lifo,
        CoalescePolicy::Immediate,
        SplitPolicy::MinRemainder(16),
        8,
        16 * 1024,
    ))
}

/// A fresh pool of `kind` sized for a trace whose largest request is
/// `max_size` bytes.
fn make_pool(kind: &str, hot_size: u32, max_size: u32) -> Box<dyn Pool> {
    let level = LevelId(0);
    match kind {
        "fixed" => Box::new(FixedBlockPool::new(level, hot_size, 32)),
        "segregated" => Box::new(SegregatedPool::new(
            level,
            8,
            max_size.next_power_of_two().max(8),
            64 * 1024,
        )),
        "buddy" => {
            let order = (max_size + 64).next_power_of_two().trailing_zeros();
            Box::new(BuddyPool::new(level, 4, order.clamp(16, 31)))
        }
        "region" => Box::new(RegionPool::new(level, 64 * 1024)),
        "general-first" => general(FitPolicy::FirstFit),
        "general-next" => general(FitPolicy::NextFit),
        "general-best" => general(FitPolicy::BestFit),
        "general-worst" => general(FitPolicy::WorstFit),
        other => unreachable!("unknown pool kind {other}"),
    }
}

/// The most frequent request size of a trace.
fn hot_size(compiled: &CompiledTrace) -> u32 {
    let mut sizes = compiled.alloc_sizes().to_vec();
    sizes.sort_unstable();
    let mut best = (0usize, sizes.first().copied().unwrap_or(8));
    for run in sizes.chunk_by(|a, b| a == b) {
        if run.len() > best.0 {
            best = (run.len(), run[0]);
        }
    }
    best.1
}

/// Ops issued, ops that failed, and ns spent replaying one trace's
/// alloc/free stream straight into `pool`. A fixed-block pool only sees
/// the requests of its own size.
fn drive(pool: &mut dyn Pool, compiled: &CompiledTrace, only: Option<u32>) -> (u64, u64, f64) {
    let platform = harness_platform();
    let mut regions = RegionTable::new(&platform);
    let mut ctx = AllocCtx::new(platform.len());
    let mut live: Vec<Option<u64>> = vec![None; compiled.max_live_slots() as usize];
    let sizes = compiled.alloc_sizes();
    let mut next_alloc = 0usize;
    let (mut ops, mut failed) = (0u64, 0u64);
    let t = Instant::now();
    for op in compiled.pool_ops() {
        let slot = op.slot() as usize;
        if slot >= live.len() {
            live.resize(slot + 1, None);
        }
        if op.is_free() {
            if let Some(addr) = live[slot].take() {
                pool.free(addr, &mut ctx);
                ops += 1;
            }
        } else {
            let size = sizes[next_alloc];
            next_alloc += 1;
            if only.is_none_or(|s| s == size) {
                match pool.alloc(size, &mut regions, &mut ctx) {
                    Ok(info) => live[slot] = Some(info.addr),
                    Err(_) => failed += 1,
                }
                ops += 1;
            }
        }
    }
    (ops, failed, t.elapsed().as_nanos() as f64)
}

/// Host ns per pool op for every kind in [`POOL_KINDS`] (median of
/// [`REPEATS`] passes over every instance's stream), plus ops that
/// failed.
pub fn pool_harness(instances: &[Instance]) -> Vec<(&'static str, f64, u64)> {
    POOL_KINDS
        .iter()
        .map(|&kind| {
            let mut failed = 0;
            let ns = median_of(|| {
                let (mut ops, mut ns) = (0u64, 0.0);
                failed = 0;
                for inst in instances {
                    let c = &inst.compiled;
                    let hot = hot_size(c);
                    let max = c.alloc_sizes().iter().copied().max().unwrap_or(8);
                    let mut pool = make_pool(kind, hot, max);
                    let only = (kind == "fixed").then_some(hot);
                    let (o, f, n) = drive(&mut *pool, c, only);
                    ops += o;
                    failed += f;
                    ns += n;
                }
                ns / ops.max(1) as f64
            });
            (kind, ns, failed)
        })
        .collect()
}
