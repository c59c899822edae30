//! The three workloads: set-up, one timed exploration, and the
//! correctness gate, all through the public calls `dmx explore` makes.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dmx_alloc::{SimMetrics, Simulator};
use dmx_core::export::{robust_to_json, search_to_json};
use dmx_core::scenario::{aggregate_metrics, ScenarioMetrics};
use dmx_core::{
    pareto_front, Aggregate, ConstraintSet, ExhaustiveSearch, Explorer, FidelityPlan,
    FidelityStats, GeneticSearch, Genome, GenomeSpace, GrammarSpace, MultiScenarioEvaluator,
    Objective, ParamSpace, RobustOutcome, ScenarioSuite, SearchOutcome, SearchStrategy, SimStats,
};
use dmx_memhier::{presets, MemoryHierarchy};
use dmx_profile::{parse_records, records_to_string};
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::{textfmt, CompiledTrace, Trace, TraceStats};

/// The objective pair every workload optimizes (the paper's Figure 1).
pub const OBJECTIVES: [Objective; 2] = Objective::FIG1;

/// Evaluation workers of a measured exploration. One: on a host shared
/// with others, two workers on two CPUs time the scheduler more than the
/// program.
pub const WORKERS: usize = 1;

/// Search seeds per run of a GA workload (see [`Workload::search_seeds`]).
pub const GA_SEEDS_PER_RUN: u64 = 4;

/// Span names the benchmark records around its own calls into each
/// layer. They nest with the program's spans on the calling thread.
pub mod spans {
    pub const EXPLORE: &str = "bench.explore";
    pub const SEARCH: &str = "bench.search";
    pub const PARETO: &str = "bench.pareto";
    pub const EXPORT_JSON: &str = "bench.export_json";
    pub const EXPORT_RECORDS: &str = "bench.export_records";
    pub const PROFILE_PARSE: &str = "bench.profile_parse";
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exhaustive sweep of the paper-scale Easyport trace, parsed from
    /// its text form, 1 worker.
    EasyportExhaustive,
    /// Robust GA over `embedded-mix` on the grammar space, 1 worker.
    EmbeddedMixGrammarGa,
    /// Robust GA over `server-mix` with prefix screening and the k-NN
    /// surrogate, 1 worker.
    ServerMixFidelity,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "easyport-exhaustive" => Ok(Workload::EasyportExhaustive),
            "embedded-mix-grammar-ga" => Ok(Workload::EmbeddedMixGrammarGa),
            "server-mix-fidelity" => Ok(Workload::ServerMixFidelity),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EasyportExhaustive => "easyport-exhaustive",
            Workload::EmbeddedMixGrammarGa => "embedded-mix-grammar-ga",
            Workload::ServerMixFidelity => "server-mix-fidelity",
        }
    }

    /// The search seeds a run's explorations cycle through, all derived
    /// from the run's seed. A GA's cost depends on the configurations its
    /// trajectory visits, so a run spreads its samples over
    /// [`GA_SEEDS_PER_RUN`] trajectories; the exhaustive sweep ignores
    /// the seed and needs one.
    pub fn search_seeds(self, seed: u64) -> Vec<u64> {
        match self {
            Workload::EasyportExhaustive => vec![seed],
            _ => (0..GA_SEEDS_PER_RUN)
                .map(|i| seed.wrapping_mul(GA_SEEDS_PER_RUN).wrapping_add(i))
                .collect(),
        }
    }

    pub fn suite_name(self) -> Option<&'static str> {
        match self {
            Workload::EasyportExhaustive => None,
            Workload::EmbeddedMixGrammarGa => Some("embedded-mix"),
            Workload::ServerMixFidelity => Some("server-mix"),
        }
    }

    pub fn aggregate(self) -> Option<Aggregate> {
        self.suite_name().map(|_| Aggregate::WorstCase)
    }

    pub fn fidelity(self) -> Option<FidelityPlan> {
        (self == Workload::ServerMixFidelity).then(FidelityPlan::halving)
    }

    fn genetic(self, seed: u64) -> GeneticSearch {
        let generations = match self {
            Workload::ServerMixFidelity => 48,
            _ => 96,
        };
        GeneticSearch {
            population: 64,
            generations,
            seed,
            ..GeneticSearch::default()
        }
    }
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A workload ready to explore: what set-up builds and every timed
/// exploration reuses.
pub enum Prepared<'s> {
    Single {
        hierarchy: MemoryHierarchy,
        trace: Trace,
        space: Arc<dyn GenomeSpace>,
        threads: usize,
    },
    Suite {
        suite: &'s ScenarioSuite,
        evaluator: MultiScenarioEvaluator<'s>,
        space: Arc<dyn GenomeSpace>,
    },
}

impl Prepared<'_> {
    pub fn space(&self) -> &Arc<dyn GenomeSpace> {
        match self {
            Prepared::Single { space, .. } | Prepared::Suite { space, .. } => space,
        }
    }
}

/// Set-up: trace generate → textfmt write → parse (single trace) or
/// suite materialize (suites), compile, hierarchy and space
/// construction. A `reference` set-up is for the exhaustive reference
/// sweep: every CPU, full fidelity.
pub fn setup<'s>(
    workload: Workload,
    seed: u64,
    suite: Option<&'s ScenarioSuite>,
    work_dir: &Path,
    reference: bool,
) -> Result<Prepared<'s>, String> {
    let threads = if reference { host_cpus() } else { WORKERS };
    match suite {
        None => {
            let generated = EasyportConfig::paper().generate(seed);
            let path = work_dir.join("easyport.trace");
            fs::write(&path, textfmt::to_string(&generated))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let trace = textfmt::from_str(&text).map_err(|e| format!("parsing trace: {e}"))?;
            // `Explorer::search` compiles the trace itself on every call,
            // so this compile only stands for the set-up cost; the layer
            // probes use `instances` instead.
            std::hint::black_box(CompiledTrace::compile(&trace));
            let hierarchy = presets::sp64k_dram4m();
            let stats = TraceStats::compute(&trace);
            let space: Arc<dyn GenomeSpace> = Arc::new(ParamSpace::suggest(&stats, &hierarchy));
            Ok(Prepared::Single {
                hierarchy,
                trace,
                space,
                threads,
            })
        }
        Some(suite) => {
            let mut evaluator = MultiScenarioEvaluator::new(suite)
                .with_aggregate(workload.aggregate().expect("suite workloads aggregate"))
                .with_objectives(&OBJECTIVES)
                .with_seed(seed)
                .with_threads(threads);
            if let Some(plan) = workload.fidelity().filter(|_| !reference) {
                evaluator = evaluator.with_fidelity(plan);
            }
            let odometer = evaluator.odometer_space();
            let space: Arc<dyn GenomeSpace> = match workload {
                Workload::EmbeddedMixGrammarGa => Arc::new(GrammarSpace::covering(&odometer)),
                _ => Arc::new(odometer),
            };
            let evaluator = evaluator.with_space_arc(Arc::clone(&space));
            Ok(Prepared::Suite {
                suite,
                evaluator,
                space,
            })
        }
    }
}

/// Checks that the parsed single trace is the one the seed generates
/// (the textfmt write/parse round trip); suites parse nothing.
pub fn check_parsed_trace(prepared: &Prepared<'_>, seed: u64) -> Option<Result<(), String>> {
    let Prepared::Single { trace, .. } = prepared else {
        return None;
    };
    Some(
        if trace.events() == EasyportConfig::paper().generate(seed).events() {
            Ok(())
        } else {
            Err("the textfmt round trip changed the trace".to_owned())
        },
    )
}

/// The built-in suite a workload explores, if any.
pub fn load_suite(workload: Workload) -> Result<Option<ScenarioSuite>, String> {
    workload
        .suite_name()
        .map(|name| {
            ScenarioSuite::builtin(name).ok_or_else(|| format!("no built-in suite `{name}`"))
        })
        .transpose()
}

/// One (platform, trace) pair the explored configurations replay on —
/// what the correctness gate and the layer probes simulate directly.
pub struct Instance {
    pub hierarchy: MemoryHierarchy,
    pub trace: Trace,
    pub compiled: Arc<CompiledTrace>,
    pub weight: f64,
    pub constraints: Option<ConstraintSet>,
}

/// The instances of a prepared workload (untimed: a second
/// materialization for suites, whose evaluator keeps its own private).
pub fn instances(prepared: &Prepared<'_>, seed: u64) -> Vec<Instance> {
    match prepared {
        Prepared::Single {
            hierarchy, trace, ..
        } => vec![Instance {
            hierarchy: hierarchy.clone(),
            compiled: CompiledTrace::compile_shared(trace),
            trace: trace.clone(),
            weight: 1.0,
            constraints: None,
        }],
        Prepared::Suite { suite, .. } => suite
            .materialize(seed)
            .into_iter()
            .map(|m| Instance {
                hierarchy: m.hierarchy,
                trace: m.trace,
                compiled: m.compiled,
                weight: m.scenario.weight,
                constraints: Some(m.scenario.constraints.clone()),
            })
            .collect(),
    }
}

enum Outcome {
    Single(SearchOutcome),
    Robust(RobustOutcome),
}

impl Outcome {
    fn search(&self) -> &SearchOutcome {
        match self {
            Outcome::Single(o) => o,
            Outcome::Robust(r) => &r.outcome,
        }
    }

    fn to_json(&self) -> String {
        match self {
            Outcome::Single(o) => search_to_json(o, &OBJECTIVES),
            Outcome::Robust(r) => robust_to_json(r),
        }
    }
}

/// Runs `strategy` once on the prepared workload (the search call only).
fn search(prepared: &Prepared<'_>, strategy: &dyn SearchStrategy) -> Outcome {
    match prepared {
        Prepared::Single {
            hierarchy,
            trace,
            space,
            threads,
        } => Outcome::Single(Explorer::new(hierarchy).with_threads(*threads).search(
            strategy,
            &**space,
            trace,
            &OBJECTIVES,
        )),
        Prepared::Suite { evaluator, .. } => Outcome::Robust(evaluator.run(strategy)),
    }
}

/// The workload's own strategy.
fn strategy(workload: Workload, seed: u64) -> Box<dyn SearchStrategy> {
    match workload {
        Workload::EasyportExhaustive => Box::new(ExhaustiveSearch),
        _ => Box::new(workload.genetic(seed)),
    }
}

/// The exhaustive front of a (reference) set-up, as sorted
/// `(footprint, accesses)` points.
pub fn exhaustive_front(prepared: &Prepared<'_>) -> Vec<(u64, u64)> {
    let outcome = search(prepared, &ExhaustiveSearch);
    sorted(
        outcome
            .search()
            .front
            .points
            .iter()
            .map(|p| (p[0], p[1]))
            .collect(),
    )
}

/// Seconds spent in each stage of one exploration.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub search: f64,
    pub pareto: f64,
    pub json: f64,
    pub records: f64,
    pub parse: f64,
}

/// What one exploration produced, reduced to what the benchmark checks
/// and reports (the full outcome is dropped before the next one runs).
pub struct Explored {
    /// Wall seconds from the search call through the records re-read.
    pub wall: f64,
    pub stages: StageTimes,
    /// The byte-deterministic JSON export.
    pub json: String,
    /// Front points `(footprint, accesses)`, sorted.
    pub front: Vec<(u64, u64)>,
    pub front_genomes: Vec<Genome>,
    pub front_metrics: Vec<SimMetrics>,
    /// Every distinct evaluated genome, in the outcome's order.
    pub genomes: Vec<Genome>,
    /// Feasible points fed to the Pareto filter.
    pub points_in: usize,
    pub records: usize,
    pub evaluations: usize,
    pub simulations: usize,
    pub sim_stats: SimStats,
    pub fidelity: Option<FidelityStats>,
    /// Disagreements found inside the exploration's own outputs.
    pub problems: Vec<String>,
}

impl Explored {
    /// Frees the outputs kept for checking and keeps the timings and
    /// counts. A run keeps outputs only for the first exploration with
    /// each search seed, so its memory does not grow with its length.
    pub fn drop_outputs(&mut self) {
        self.json = String::new();
        self.front = Vec::new();
        self.front_genomes = Vec::new();
        self.front_metrics = Vec::new();
        self.genomes = Vec::new();
    }
}

/// One timed exploration: search → Pareto filter → JSON export →
/// profile records written, re-read and re-filtered (the `dmx pareto`
/// path).
pub fn explore(
    prepared: &Prepared<'_>,
    workload: Workload,
    seed: u64,
    records_path: &Path,
) -> Result<Explored, String> {
    let mut stages = StageTimes::default();
    let start = Instant::now();
    let explore_span = dmx_obs::span(spans::EXPLORE, 0);

    let outcome = {
        let _span = dmx_obs::span(spans::SEARCH, 0);
        let t = Instant::now();
        let outcome = search(prepared, &*strategy(workload, seed));
        stages.search = t.elapsed().as_secs_f64();
        outcome
    };
    let result = outcome.search();

    let (indices, points, front) = {
        let _span = dmx_obs::span(spans::PARETO, 0);
        let t = Instant::now();
        let (indices, points) = result.exploration.objective_points(&OBJECTIVES);
        let front = pareto_front(&points);
        stages.pareto = t.elapsed().as_secs_f64();
        (indices, points, front)
    };

    let json = {
        let _span = dmx_obs::span(spans::EXPORT_JSON, 0);
        let t = Instant::now();
        let json = outcome.to_json();
        stages.json = t.elapsed().as_secs_f64();
        json
    };

    let records = {
        let _span = dmx_obs::span(spans::EXPORT_RECORDS, 0);
        let t = Instant::now();
        let records = result.exploration.to_records();
        fs::write(records_path, records_to_string(&records))
            .map_err(|e| format!("writing {}: {e}", records_path.display()))?;
        stages.records = t.elapsed().as_secs_f64();
        records
    };

    let (reread, record_front) = {
        let _span = dmx_obs::span(spans::PROFILE_PARSE, 0);
        let t = Instant::now();
        let text = fs::read_to_string(records_path)
            .map_err(|e| format!("reading {}: {e}", records_path.display()))?;
        let reread = parse_records(&text).map_err(|e| format!("parsing records: {e}"))?;
        let record_points: Vec<Vec<u64>> = reread
            .iter()
            .filter(|r| r.feasible())
            .map(|r| vec![r.footprint, r.total_accesses()])
            .collect();
        let record_front = pareto_front(&record_points);
        stages.parse = t.elapsed().as_secs_f64();
        (reread, record_front)
    };
    drop(explore_span);
    let wall = start.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    let front_indices: Vec<usize> = front.indices.iter().map(|&k| indices[k]).collect();
    if sorted(front_indices.clone()) != sorted(result.front.indices.clone()) {
        problems.push("Pareto filter disagrees with the outcome's front".to_owned());
    }
    if reread != records {
        problems.push("profile records changed in the write/read round trip".to_owned());
    }
    let front_points = sorted(front.points.iter().map(|p| (p[0], p[1])).collect());
    let record_points = sorted(record_front.points.iter().map(|p| (p[0], p[1])).collect());
    if front_points != record_points {
        problems.push("the records' Pareto front differs from the outcome's".to_owned());
    }

    Ok(Explored {
        wall,
        stages,
        front: front_points,
        front_genomes: front_indices
            .iter()
            .map(|&i| result.genomes[i].clone())
            .collect(),
        front_metrics: front_indices
            .iter()
            .map(|&i| result.exploration.results[i].metrics.clone())
            .collect(),
        genomes: result.genomes.clone(),
        points_in: points.len(),
        records: records.len(),
        evaluations: result.evaluations,
        simulations: result.simulations,
        sim_stats: result.sim_stats,
        fidelity: result.fidelity.clone(),
        json,
        problems,
    })
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v
}

/// Runs `f`, turning a panic into an error naming `what`.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err(format!("{what} panicked")))
}

/// The correctness gate for one front point: re-simulates the genome
/// with the reference interpreter on every instance, folds the results
/// with the workload's aggregate, and compares them with what the
/// exploration reported.
pub fn verify_point(
    space: &dyn GenomeSpace,
    instances: &[Instance],
    aggregate: Option<Aggregate>,
    genome: &Genome,
    reported: &SimMetrics,
) -> Result<(), String> {
    let parts: Vec<SimMetrics> = instances
        .iter()
        .map(|inst| {
            let config = space.config_at(&inst.hierarchy, genome);
            Simulator::new(&inst.hierarchy)
                .run_reference(&config, &inst.trace)
                .map_err(|e| format!("{}: {e}", config.label()))
        })
        .collect::<Result<_, _>>()?;
    let expected = match aggregate {
        None => parts.into_iter().next().ok_or("no instance to replay")?,
        Some(aggregate) => {
            let folded: Vec<ScenarioMetrics<'_>> = instances
                .iter()
                .zip(&parts)
                .map(|(inst, metrics)| ScenarioMetrics {
                    metrics,
                    weight: inst.weight,
                    admissible: inst.constraints.as_ref().is_none_or(|c| c.accepts(metrics)),
                })
                .collect();
            aggregate_metrics(aggregate, &folded)
        }
    };
    if &expected == reported {
        Ok(())
    } else {
        Err(format!(
            "genome {genome:?}: reference replay disagrees with the reported metrics"
        ))
    }
}

/// Where a run keeps its scratch files.
pub fn work_dir(out: &Path, workload: Workload, seed: u64) -> Result<PathBuf, String> {
    let dir = out
        .join("work")
        .join(format!("{}-seed{seed}", workload.name()));
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}
