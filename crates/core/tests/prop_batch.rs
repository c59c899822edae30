//! Property tests for the parallel evaluator.
//!
//! The evaluator fans every batch out as one job per (instance, genome)
//! pair over scoped workers, each replaying through its own arena. Two
//! invariants pin that design down:
//!
//! 1. **Thread invariance** — job outputs are collected by job index, so
//!    scheduling can only change who runs a job, never what it computes:
//!    a genetic search produces byte-identical results (genomes, fronts,
//!    labels, cache accounting) and identical *logical* kernel counters
//!    (events, runs) at 1 and 8 evaluation workers.
//! 2. **Every fresh genome is simulated** — each simulation is exactly
//!    one kernel run, and the kernel replays one genome per pass.

use proptest::prelude::*;

use dmx_core::search::GeneticSearch;
use dmx_core::study::{easyport_space, easyport_trace, StudyScale};
use dmx_core::{Explorer, Objective, SearchOutcome};

fn run_with_threads(seed: u64, threads: usize) -> SearchOutcome {
    let hierarchy = dmx_memhier::presets::sp64k_dram4m();
    let space = easyport_space(&hierarchy, StudyScale::Quick);
    let trace = easyport_trace(StudyScale::Quick, 42);
    let strategy = GeneticSearch {
        population: 16,
        generations: 4,
        seed,
        ..GeneticSearch::default()
    };
    Explorer::new(&hierarchy).with_threads(threads).search(
        &strategy,
        &space,
        &trace,
        &Objective::FIG1,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Same seed ⇒ identical search output and identical logical kernel
    /// counters at 1 and 8 workers. Only the physical counters (arena
    /// reuse pattern, wall clock) may depend on the worker count.
    #[test]
    fn batched_evaluation_is_thread_invariant(seed in 0u64..1000) {
        let a = run_with_threads(seed, 1);
        let b = run_with_threads(seed, 8);
        prop_assert_eq!(&a.genomes, &b.genomes);
        prop_assert_eq!(&a.front.points, &b.front.points);
        prop_assert_eq!(a.evaluations, b.evaluations);
        prop_assert_eq!(a.simulations, b.simulations);
        prop_assert_eq!(a.cache_hits, b.cache_hits);
        let la: Vec<&str> = a.exploration.results.iter().map(|r| r.label.as_str()).collect();
        let lb: Vec<&str> = b.exploration.results.iter().map(|r| r.label.as_str()).collect();
        prop_assert_eq!(la, lb);
        // Logical kernel counters: what was replayed, not who replayed it.
        // One kernel run per simulation, whatever the worker count.
        prop_assert_eq!(a.sim_stats.runs, a.simulations as u64);
        prop_assert_eq!(a.sim_stats.runs, b.sim_stats.runs);
        prop_assert_eq!(a.sim_stats.events, b.sim_stats.events);
        prop_assert!(a.sim_stats.events > 0);
    }

    /// Fresh genomes flow through the kernel: one run per simulation, one
    /// genome per kernel pass.
    #[test]
    fn fresh_genomes_flow_through_the_batch_kernel(seed in 0u64..1000) {
        let outcome = run_with_threads(seed, 4);
        let stats = &outcome.sim_stats;
        prop_assert!(outcome.simulations > 0);
        prop_assert_eq!(stats.runs, outcome.simulations as u64);
        prop_assert_eq!(stats.batches, stats.runs, "one genome per kernel pass");
        prop_assert_eq!(stats.batch_runs, stats.runs);
        prop_assert!(stats.arena_reuses > 0, "worker arenas stay warm across batches");
        prop_assert!(stats.events > 0);
    }
}
