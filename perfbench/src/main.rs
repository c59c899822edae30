//! `dmx-perfbench` — the dmx pipeline benchmark.
//!
//! ```text
//! dmx-perfbench reference --workload W --seed N --out FILE
//! dmx-perfbench measure   --workload W --seed N --seconds S --trace 0|1
//!                         --reference FILE --out DIR
//! ```
//!
//! `reference` runs the exhaustive sweep of the workload's space, suite,
//! aggregate and seed on every CPU and writes its front. `measure` acts
//! as one closed-loop caller: it sets the workload up several times,
//! then runs one fixed-budget exploration after another for `--seconds`
//! and checks each. With `--trace 1` it also probes every layer and
//! records span timelines. It prints one JSON line; `run.py` builds this
//! binary and turns that line into the benchmark's result.

mod json;
mod layers;
mod pipeline;
mod stats;
mod timeline;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dmx_core::front_coverage_pct;

use crate::json::Json;
use crate::pipeline::{
    explore, guarded, instances, load_suite, setup, spans, verify_point, work_dir, Explored,
    Instance, Prepared, Workload,
};
use crate::stats::{median, quantile};
use crate::timeline::Attribution;

/// Set-ups run in rounds: one before the first exploration and one
/// after each, so the samples span the whole run. A round sets up at
/// least once and repeats until it has taken [`SETUP_ROUND_S`] (at most
/// [`SETUP_ROUND_MAX`] times). `setup_s` is the median of all samples.
const SETUP_ROUND_S: f64 = 0.05;
const SETUP_ROUND_MAX: usize = 20;
/// Explorations per untraced run even when one outlasts `--seconds`;
/// also at least one per search seed.
const MIN_EXPLORATIONS: usize = 3;
/// Configurations the kernel probe replays.
const KERNEL_SAMPLE: usize = 48;
/// Genomes the decode/build probe converts.
const DECODE_SAMPLE: usize = 4096;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("dmx-perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn opt<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {flag}"))
}

fn num<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    opt(args, flag)?.parse().map_err(|_| format!("bad {flag}"))
}

fn run(args: &[String]) -> Result<String, String> {
    let mode = args.first().ok_or("missing mode (reference|measure)")?;
    let workload = Workload::parse(opt(args, "--workload")?)?;
    let seed: u64 = num(args, "--seed")?;
    let out = PathBuf::from(opt(args, "--out")?);
    match mode.as_str() {
        "reference" => reference(workload, seed, &out),
        "measure" => {
            let seconds: f64 = num(args, "--seconds")?;
            let trace = match opt(args, "--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad --trace `{other}`")),
            };
            let reference = Reference::read(Path::new(opt(args, "--reference")?))?;
            measure(workload, seed, seconds, trace, &reference, &out)
        }
        other => Err(format!("unknown mode `{other}`")),
    }
}

/// The exhaustive front a run's `front_hv_pct` is measured against,
/// with what it was computed from.
struct Reference {
    workload: String,
    seed: u64,
    space: String,
    space_len: usize,
    points: Vec<(u64, u64)>,
}

impl Reference {
    fn render(&self) -> String {
        let mut s = format!(
            "dmx-perfbench reference v1\nworkload {}\nseed {}\nspace {} {}\npoints {}\n",
            self.workload,
            self.seed,
            self.space,
            self.space_len,
            self.points.len()
        );
        for (a, b) in &self.points {
            s.push_str(&format!("{a} {b}\n"));
        }
        s
    }

    fn read(path: &Path) -> Result<Self, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let bad = || format!("malformed reference file {}", path.display());
        let mut lines = text.lines();
        if lines.next() != Some("dmx-perfbench reference v1") {
            return Err(bad());
        }
        let mut field = |key: &str| -> Result<Vec<String>, String> {
            let line = lines.next().ok_or_else(bad)?;
            let mut words = line.split_whitespace();
            if words.next() != Some(key) {
                return Err(bad());
            }
            Ok(words.map(str::to_owned).collect())
        };
        let workload = field("workload")?.concat();
        let seed = field("seed")?.concat().parse().map_err(|_| bad())?;
        let space = field("space")?;
        let [space_name, space_len] = <[String; 2]>::try_from(space).map_err(|_| bad())?;
        let count: usize = field("points")?.concat().parse().map_err(|_| bad())?;
        let points = lines
            .map(|l| {
                let (a, b) = l.split_once(' ').ok_or_else(bad)?;
                Ok((a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?))
            })
            .collect::<Result<Vec<(u64, u64)>, String>>()?;
        if points.len() != count || points.is_empty() {
            return Err(bad());
        }
        Ok(Reference {
            workload,
            seed,
            space: space_name,
            space_len: space_len.parse().map_err(|_| bad())?,
            points,
        })
    }
}

fn reference(workload: Workload, seed: u64, out: &Path) -> Result<String, String> {
    let suite = load_suite(workload)?;
    let work = work_dir(out.parent().unwrap_or(Path::new(".")), workload, seed)?;
    let prepared = setup(workload, seed, suite.as_ref(), &work, true)?;
    let _ = fs::remove_dir_all(&work);
    let points = pipeline::exhaustive_front(&prepared);
    let space = prepared.space();
    let reference = Reference {
        workload: workload.name().to_owned(),
        seed,
        space: space.name().to_owned(),
        space_len: space.len(),
        points,
    };
    fs::write(out, reference.render()).map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(format!(
        "reference front of {} (seed {seed}): {} points over {} configurations",
        workload.name(),
        reference.points.len(),
        reference.space_len
    ))
}

/// Operations attempted and the failures among them.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failures.push(msg);
        }
    }
}

/// Named metrics with units, in emission order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (name, value, unit) in &self.0 {
            let mut m = Json::obj();
            m.set("value", *value);
            m.set("unit", *unit);
            o.set(name, m);
        }
        o
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median, quartiles and count of a sample, for the details record.
fn summary(v: &[f64]) -> Json {
    let mut o = Json::obj();
    o.set("samples", v.len());
    o.set("median", median(v));
    o.set("q1", quantile(v, 0.25));
    o.set("q3", quantile(v, 0.75));
    o.set("values", v.to_vec());
    o
}

/// Runs one exploration and checks it: its own outputs must agree, and
/// its JSON export must be byte-equal to the run's first with the same
/// search seed.
fn checked_explore(
    prepared: &Prepared<'_>,
    workload: Workload,
    search_seed: u64,
    records_path: &Path,
    first_json: &mut Option<String>,
    checks: &mut Checks,
) -> Option<Explored> {
    match guarded("exploration", || {
        explore(prepared, workload, search_seed, records_path)
    }) {
        Ok(e) => {
            let mut problems = e.problems.clone();
            match first_json {
                Some(json) if *json != e.json => problems.push(format!(
                    "JSON export differs from the run's first with search seed {search_seed}"
                )),
                Some(_) => {}
                None => *first_json = Some(e.json.clone()),
            }
            checks.record(if problems.is_empty() {
                Ok(())
            } else {
                Err(problems.join("; "))
            });
            Some(e)
        }
        Err(msg) => {
            checks.record(Err(msg));
            None
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: &Reference,
    out: &Path,
) -> Result<String, String> {
    if reference.workload != workload.name() || reference.seed != seed {
        return Err("the reference front is for another workload or seed".to_owned());
    }
    let suite = load_suite(workload)?;
    let work = work_dir(out, workload, seed)?;

    let mut setup_s: Vec<f64> = Vec::new();
    let setup_round = |samples: &mut Vec<f64>| -> Result<Prepared<'_>, String> {
        let round = Instant::now();
        let mut last = None;
        for _ in 0..SETUP_ROUND_MAX {
            // Drop the previous set-up first, so each one starts from scratch.
            drop(last.take());
            let t = Instant::now();
            last = Some(setup(workload, seed, suite.as_ref(), &work, false)?);
            samples.push(t.elapsed().as_secs_f64());
            if round.elapsed().as_secs_f64() >= SETUP_ROUND_S {
                break;
            }
        }
        Ok(last.expect("a round sets up at least once"))
    };
    let prepared = setup_round(&mut setup_s)?;
    let space = prepared.space();
    if space.len() != reference.space_len || space.name() != reference.space {
        return Err(format!(
            "the reference front covers the {} space of {} configurations, not the {} space of {}",
            reference.space,
            reference.space_len,
            space.name(),
            space.len()
        ));
    }
    let instances = instances(&prepared, seed);
    let records_path = work.join("records.prof");
    let budget = Duration::from_secs_f64(seconds);

    let mut checks = Checks::default();
    if let Some(parsed) = pipeline::check_parsed_trace(&prepared, seed) {
        checks.record(parsed);
    }
    let search_seeds = workload.search_seeds(seed);
    let mut first_json = vec![None; search_seeds.len()];
    let mut untraced: Vec<Explored> = Vec::new();
    // Peak memory after the first exploration with each search seed, so
    // that it does not depend on how many explorations the run fits in.
    let mut peak_rss = None;
    let mut traced: Vec<(Explored, Attribution, u64, u64, u64)> = Vec::new();
    let mut last_timeline = Vec::new();
    let mut setup_layers = layers::SetupLayers::default();
    let mut pools = Vec::new();
    if trace {
        setup_layers = layers::setup_layers(
            suite.as_ref(),
            seed,
            &instances,
            workload.fidelity().as_ref(),
        );
        pools = layers::pool_harness(&instances);
    }

    // The closed loop: one exploration at a time until the budget is
    // spent. A traced run alternates untraced and traced explorations.
    let min = if trace {
        1
    } else {
        MIN_EXPLORATIONS.max(search_seeds.len())
    };
    let start = Instant::now();
    loop {
        if untraced.len() >= min
            && start.elapsed() >= budget
            && (!trace || traced.len() == untraced.len())
        {
            break;
        }
        let recording = trace && traced.len() < untraced.len();
        // Explorations cycle through the search seeds; a traced one
        // repeats its untraced twin's.
        let round = if recording {
            traced.len()
        } else {
            untraced.len()
        } % search_seeds.len();
        if recording {
            dmx_obs::reset();
            dmx_obs::set_recording(true);
        }
        let e = checked_explore(
            &prepared,
            workload,
            search_seeds[round],
            &records_path,
            &mut first_json[round],
            &mut checks,
        );
        if recording {
            dmx_obs::set_recording(false);
            last_timeline = dmx_obs::drain_timelines();
            let m = dmx_obs::metrics();
            let counts = (
                m.queue_steals.value(),
                m.cache_hits.value(),
                m.cache_misses.value(),
            );
            if let Some(mut e) = e {
                e.drop_outputs();
                let a = Attribution::of(&last_timeline);
                traced.push((e, a, counts.0, counts.1, counts.2));
            } else {
                break;
            }
        } else if let Some(mut e) = e {
            if untraced.len() >= search_seeds.len() {
                e.drop_outputs();
            }
            untraced.push(e);
            if untraced.len() == search_seeds.len() {
                peak_rss = Some(peak_rss_mb());
            }
        } else {
            break;
        }
        setup_round(&mut setup_s)?;
    }
    let first = untraced.first().ok_or("no exploration completed")?;
    // The first exploration with each search seed.
    let firsts = &untraced[..untraced.len().min(search_seeds.len())];

    // Correctness gate: every front point re-simulated by the reference
    // interpreter, folded, and compared.
    for e in firsts {
        for (genome, reported) in e.front_genomes.iter().zip(&e.front_metrics) {
            checks.record(guarded("reference replay", || {
                verify_point(&**space, &instances, workload.aggregate(), genome, reported)
            }));
        }
    }
    let hvs: Vec<f64> = firsts
        .iter()
        .map(|e| front_coverage_pct(&e.front, &reference.points))
        .collect();
    if workload == Workload::EasyportExhaustive {
        for &hv in &hvs {
            checks.record(if hv == 100.0 {
                Ok(())
            } else {
                Err(format!(
                    "exhaustive front covers {hv}% of the reference, not 100%"
                ))
            });
        }
    }

    let walls: Vec<f64> = untraced.iter().map(|e| e.wall).collect();
    let mut metrics = Metrics::default();
    let mut details = Json::obj();
    details.set("workload", workload.name());
    details.set("seed", seed);
    details.set("space", space.name());
    details.set("space_len", space.len());
    details.set("workers", pipeline::WORKERS);
    details.set("search_seeds", search_seeds.clone());
    details.set("nproc", pipeline::host_cpus());
    details.set("cpu_model", cpu_model());
    details.set("obs_compiled", dmx_obs::compiled());
    details.set("explore_s", summary(&walls));
    details.set("setup_s", summary(&setup_s));
    details.set("front_hv_pct", hvs.clone());
    details.set("front_size", first.front.len());
    details.set("reference_front_size", reference.points.len());
    details.set("failures", checks.failures.clone());

    if !trace {
        let verified = (checks.attempted - checks.failures.len() as u64) as f64;
        metrics.put("explore_s", median(&walls), "s");
        metrics.put("setup_s", median(&setup_s), "s");
        metrics.put("front_hv_pct", median(&hvs), "%");
        metrics.put("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mb), "MiB");
        metrics.put(
            "verified_frac",
            ratio(verified, checks.attempted as f64),
            "ratio",
        );
    } else {
        layer_metrics(
            &mut metrics,
            &mut details,
            LayerInputs {
                workload,
                space: &**space,
                instances: &instances,
                setup: &setup_layers,
                pools: &pools,
                untraced: &untraced,
                traced: &traced,
            },
        );
        let path = out.join(format!("{}-seed{seed}-timeline.json", workload.name()));
        fs::write(&path, dmx_obs::timelines_to_trace_json(&last_timeline))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        details.set("timeline", path.display().to_string());
    }

    let _ = fs::remove_dir_all(&work);
    let mut result = Json::obj();
    result.set("correct", checks.failures.is_empty());
    result.set("attempted", checks.attempted);
    result.set("failed", checks.failures.len());
    result.set("metrics", metrics.to_json());
    result.set("details", details);
    Ok(result.render())
}

struct LayerInputs<'a> {
    workload: Workload,
    space: &'a dyn dmx_core::GenomeSpace,
    instances: &'a [Instance],
    setup: &'a layers::SetupLayers,
    pools: &'a [(&'static str, f64, u64)],
    untraced: &'a [Explored],
    /// Traced explorations with their span attribution and the steal,
    /// cache-hit and cache-miss counts each one added.
    traced: &'a [(Explored, Attribution, u64, u64, u64)],
}

/// Every per-layer metric of a traced run. Layers the workload does not
/// run report 0.
fn layer_metrics(m: &mut Metrics, details: &mut Json, x: LayerInputs<'_>) {
    let first = &x.untraced[0];
    let workers = pipeline::WORKERS as f64;
    let suite = x.workload.suite_name().is_some();
    let s = x.setup;

    // trace
    let events: usize = x.instances.iter().map(|i| i.compiled.len()).sum();
    let pool_ops: usize = x
        .instances
        .iter()
        .map(|i| i.compiled.pool_ops().len())
        .sum();
    m.put("trace.gen_s", s.gen_s, "s");
    m.put("trace.parse_s", s.parse_s, "s");
    m.put(
        "trace.parse_mb_per_s",
        ratio(s.parse_bytes as f64 / (1 << 20) as f64, s.parse_s),
        "MiB/s",
    );
    m.put("trace.compile_s", s.compile_s, "s");
    m.put(
        "trace.compile_ns_per_event",
        ratio(s.compile_s * 1e9, events as f64),
        "ns",
    );
    m.put("trace.events", events as f64, "count");
    m.put("trace.pool_ops", pool_ops as f64, "count");
    m.put(
        "trace.pool_ops_per_event",
        ratio(pool_ops as f64, events as f64),
        "ratio",
    );
    m.put("trace.prefix_s", s.prefix_s, "s");

    // space
    let decode = layers::sample(&first.genomes, DECODE_SAMPLE);
    m.put(
        "space.decode_build_us",
        layers::decode_build_us(x.space, x.instances, &decode),
        "us",
    );

    // alloc: the kernel on sampled evaluated configurations
    let sampled = layers::sample(&first.genomes, KERNEL_SAMPLE);
    let k = layers::kernel_probe(x.space, x.instances, &sampled);
    let (mut worst, mut best) = (0, 0);
    for (i, v) in k.ns_per_op.iter().enumerate() {
        if *v > k.ns_per_op[worst] {
            worst = i;
        }
        if *v < k.ns_per_op[best] {
            best = i;
        }
    }
    let kernel_ns = median(&k.ns_per_op);
    m.put("alloc.kernel_ns_per_pool_op", kernel_ns, "ns");
    m.put("alloc.kernel_pool_ops_per_s", ratio(1e9, kernel_ns), "1/s");
    m.put(
        "alloc.kernel_spread_ratio",
        ratio(k.ns_per_op[worst], k.ns_per_op[best]),
        "ratio",
    );
    m.put(
        "alloc.kernel_vs_reference",
        ratio(k.reference_ns, k.kernel_ns),
        "ratio",
    );
    let st = first.sim_stats;
    m.put(
        "alloc.arena_reuse_frac",
        ratio(st.arena_reuses as f64, st.runs as f64),
        "ratio",
    );
    m.put(
        "alloc.batch_width",
        ratio(st.batch_runs as f64, st.batches as f64),
        "lanes",
    );
    let mut kernel = Json::obj();
    kernel.set("sampled_configs", k.ns_per_op.len());
    kernel.set("worst_label", k.labels[worst].clone());
    kernel.set("worst_ns_per_pool_op", k.ns_per_op[worst]);
    kernel.set("best_label", k.labels[best].clone());
    kernel.set("best_ns_per_pool_op", k.ns_per_op[best]);
    details.set("kernel", kernel);
    let mut pool_failures = Json::obj();
    for (kind, ns, failed) in x.pools {
        m.put(&format!("alloc.pool_ns_per_op.{kind}"), *ns, "ns");
        pool_failures.set(kind, *failed);
    }
    details.set("pool_harness_failed_ops", pool_failures);

    // Span shares, per traced exploration, then the median.
    let share = |f: &dyn Fn(&Attribution, f64) -> f64| -> f64 {
        let v: Vec<f64> = x
            .traced
            .iter()
            .map(|(_, a, ..)| f(a, a.total_ns(spans::EXPLORE) as f64))
            .collect();
        median(&v)
    };
    m.put(
        "alloc.kernel_share",
        share(&|a, wall| ratio(a.self_ns("kernel.batch") as f64, workers * wall)),
        "ratio",
    );

    // search
    let (steals, hits, misses) = x
        .traced
        .last()
        .map_or((0, 0, 0), |(_, _, s, h, mi)| (*s, *h, *mi));
    m.put("search.evaluations", first.evaluations as f64, "count");
    m.put("search.full_sims", first.simulations as f64, "count");
    m.put(
        "search.cache_hit_frac",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    m.put(
        "search.strategy_share",
        share(&|a, wall| ratio(a.self_ns("search.generation") as f64, wall)),
        "ratio",
    );
    m.put(
        "search.eval_share",
        share(&|a, wall| ratio(a.total_ns("eval.batch") as f64, wall)),
        "ratio",
    );
    m.put(
        "search.worker_busy_frac",
        share(&|a, _| {
            ratio(
                a.total_ns("eval.job") as f64,
                workers * a.total_ns("eval.batch") as f64,
            )
        }),
        "ratio",
    );
    m.put("search.queue_steals", steals as f64, "count");

    // fidelity
    let (screened, promoted, surrogate) = first.fidelity.as_ref().map_or((0, 0, 0), |f| {
        (
            f.rungs.first().map_or(0, |r| r.screened),
            f.rungs.last().map_or(0, |r| r.promoted),
            f.surrogate_hits,
        )
    });
    let on = first.fidelity.is_some();
    m.put("fidelity.screened", screened as f64, "count");
    m.put("fidelity.promoted", promoted as f64, "count");
    m.put("fidelity.surrogate_hits", surrogate as f64, "count");
    m.put(
        "fidelity.sims_avoided_frac",
        ratio(screened.saturating_sub(promoted) as f64, screened as f64),
        "ratio",
    );
    m.put(
        "fidelity.front_yield",
        if on {
            ratio(first.front.len() as f64, first.evaluations as f64)
        } else {
            0.0
        },
        "ratio",
    );
    m.put(
        "fidelity.screen_share",
        share(&|a, wall| ratio(a.self_ns("eval.screen") as f64, wall)),
        "ratio",
    );

    // scenario
    m.put("scenario.materialize_s", s.materialize_s, "s");
    m.put(
        "scenario.sims_per_eval",
        if suite {
            ratio(first.simulations as f64, first.evaluations as f64)
        } else {
            0.0
        },
        "ratio",
    );

    // pareto, export, profile: medians over the untraced explorations
    let stage = |f: fn(&Explored) -> f64| median(&x.untraced.iter().map(f).collect::<Vec<_>>());
    m.put("pareto.front_s", stage(|e| e.stages.pareto), "s");
    m.put("pareto.points_in", first.points_in as f64, "count");
    m.put("pareto.front_size", first.front.len() as f64, "count");
    m.put("export.json_s", stage(|e| e.stages.json), "s");
    m.put("export.records_s", stage(|e| e.stages.records), "s");
    let parse_s = stage(|e| e.stages.parse);
    m.put("profile.parse_s", parse_s, "s");
    m.put(
        "profile.records_per_s",
        ratio(first.records as f64, parse_s),
        "1/s",
    );

    // obs guards
    let untraced_wall = stage(|e| e.wall);
    let traced_wall = median(&x.traced.iter().map(|(e, ..)| e.wall).collect::<Vec<_>>());
    m.put(
        "obs.overhead_frac",
        ratio(traced_wall, untraced_wall) - 1.0,
        "ratio",
    );
    m.put(
        "obs.uncovered_share",
        share(&|a, wall| ratio(a.self_ns(spans::EXPLORE) as f64, wall)),
        "ratio",
    );

    // The last traced exploration's span table, for reading by hand.
    if let Some((e, a, ..)) = x.traced.last() {
        let wall = a.total_ns(spans::EXPLORE) as f64;
        let mut table = Json::obj();
        for (name, t) in &a.spans {
            let mut row = Json::obj();
            row.set("count", t.count);
            row.set("total_ms", t.total_ns as f64 / 1e6);
            row.set("self_ms", t.self_ns as f64 / 1e6);
            row.set("self_share", ratio(t.self_ns as f64, wall));
            table.set(name, row);
        }
        details.set("spans", table);
        details.set("spans_dropped", a.dropped);
        details.set("traced_explore_s", e.wall);
    }
}
