//! Comparing two explorations of the same configuration space.
//!
//! Designers re-run the exploration when something changes — a new
//! firmware workload, a different platform, a scaled trace. The questions
//! are always the same: *which configurations moved, and do yesterday's
//! Pareto winners still win?* This module answers both.

use std::collections::HashMap;

use crate::objective::Objective;
use crate::runner::Exploration;

/// Per-configuration deltas between two explorations, joined by label.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Configuration label present in both explorations.
    pub label: String,
    /// Objective value in the baseline exploration.
    pub before: u64,
    /// Objective value in the updated exploration.
    pub after: u64,
}

impl ComparisonRow {
    /// Relative change, `after / before` (∞ encoded as `f64::INFINITY`).
    pub fn ratio(&self) -> f64 {
        if self.before == 0 {
            if self.after == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.after as f64 / self.before as f64
        }
    }
}

/// The outcome of comparing two explorations on one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The objective compared.
    pub objective: Objective,
    /// Rows for every label present in both explorations, in the baseline's
    /// result order.
    pub rows: Vec<ComparisonRow>,
    /// Labels only present in the baseline.
    pub only_before: Vec<String>,
    /// Labels only present in the updated exploration.
    pub only_after: Vec<String>,
}

impl Comparison {
    /// Joins two explorations on configuration labels and compares
    /// `objective` (feasible results only).
    pub fn between(before: &Exploration, after: &Exploration, objective: Objective) -> Comparison {
        let after_by_label: HashMap<&str, u64> = after
            .results
            .iter()
            .filter(|r| r.metrics.feasible())
            .map(|r| (r.label.as_str(), objective.extract(&r.metrics)))
            .collect();
        let mut rows = Vec::new();
        let mut only_before = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        for r in before.results.iter().filter(|r| r.metrics.feasible()) {
            seen.push(&r.label);
            match after_by_label.get(r.label.as_str()) {
                Some(&v) => rows.push(ComparisonRow {
                    label: r.label.clone(),
                    before: objective.extract(&r.metrics),
                    after: v,
                }),
                None => only_before.push(r.label.clone()),
            }
        }
        let only_after = after_by_label
            .keys()
            .filter(|l| !seen.contains(l))
            .map(|l| (*l).to_owned())
            .collect();
        Comparison {
            objective,
            rows,
            only_before,
            only_after,
        }
    }

    /// Geometric-mean ratio over all joined rows (1.0 = unchanged).
    /// `None` when there are no joined rows or a ratio is infinite.
    pub fn geomean_ratio(&self) -> Option<f64> {
        if self.rows.is_empty() {
            return None;
        }
        let mut log_sum = 0.0f64;
        for row in &self.rows {
            let r = row.ratio();
            if !r.is_finite() || r <= 0.0 {
                return None;
            }
            log_sum += r.ln();
        }
        Some((log_sum / self.rows.len() as f64).exp())
    }

    /// How many of the baseline's Pareto-optimal configurations (on
    /// `objectives`) are still Pareto-optimal in the updated exploration —
    /// the stability of the designer's shortlist.
    pub fn pareto_survivors(
        before: &Exploration,
        after: &Exploration,
        objectives: &[Objective],
    ) -> (usize, usize) {
        let front_labels = |e: &Exploration| -> Vec<String> {
            e.pareto(objectives)
                .indices
                .iter()
                .map(|&i| e.results[i].label.clone())
                .collect()
        };
        let before_front = front_labels(before);
        let after_front = front_labels(after);
        let survivors = before_front
            .iter()
            .filter(|l| after_front.contains(l))
            .count();
        (survivors, before_front.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Explorer;
    use crate::study::{easyport_space, StudyScale};
    use dmx_memhier::presets;
    use dmx_trace::gen::{EasyportConfig, TraceGenerator};

    fn explorations() -> (Exploration, Exploration) {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let explorer = Explorer::new(&hier);
        let a = explorer
            .run(
                &space,
                &EasyportConfig {
                    packets: 400,
                    ..EasyportConfig::paper()
                }
                .generate(1),
            )
            .unwrap();
        let b = explorer
            .run(
                &space,
                &EasyportConfig {
                    packets: 800,
                    ..EasyportConfig::paper()
                }
                .generate(1),
            )
            .unwrap();
        (a, b)
    }

    #[test]
    fn join_covers_shared_labels() {
        let (a, b) = explorations();
        let cmp = Comparison::between(&a, &b, Objective::Accesses);
        assert_eq!(cmp.rows.len(), a.feasible().len().min(b.feasible().len()));
        assert!(cmp.only_before.is_empty());
        assert!(cmp.only_after.is_empty());
    }

    #[test]
    fn doubling_the_workload_roughly_doubles_accesses() {
        let (a, b) = explorations();
        let cmp = Comparison::between(&a, &b, Objective::Accesses);
        let g = cmp.geomean_ratio().expect("finite ratios");
        assert!(
            (1.5..3.0).contains(&g),
            "2x packets should mean ~2x accesses, got x{g:.2}"
        );
    }

    #[test]
    fn identical_explorations_have_unit_ratio() {
        let (a, _) = explorations();
        let cmp = Comparison::between(&a, &a, Objective::EnergyPj);
        let g = cmp.geomean_ratio().unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        let (survivors, total) = Comparison::pareto_survivors(&a, &a, &Objective::FIG1);
        assert_eq!(survivors, total);
    }

    #[test]
    fn pareto_shortlist_is_reasonably_stable_across_scale() {
        // The paper's flow profiles once and trusts the chosen
        // configuration; this checks the shortlist survives a workload
        // scale-up at least partially.
        let (a, b) = explorations();
        let (survivors, total) = Comparison::pareto_survivors(&a, &b, &Objective::FIG1);
        assert!(total > 0);
        assert!(
            survivors * 3 >= total,
            "at least a third of the shortlist should survive ({survivors}/{total})"
        );
    }

    #[test]
    fn ratio_edge_cases() {
        let row = ComparisonRow {
            label: "x".into(),
            before: 0,
            after: 0,
        };
        assert_eq!(row.ratio(), 1.0);
        let row = ComparisonRow {
            label: "x".into(),
            before: 0,
            after: 5,
        };
        assert!(row.ratio().is_infinite());
        let row = ComparisonRow {
            label: "x".into(),
            before: 4,
            after: 2,
        };
        assert!((row.ratio() - 0.5).abs() < 1e-12);
    }
}
