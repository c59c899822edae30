//! Work-stealing job distribution for the parallel evaluation workers.
//!
//! A batch of simulation jobs (genome × instance) is split into one
//! contiguous chunk per worker. Each worker drains its own chunk with a
//! single uncontended atomic increment per job, and only when its chunk is
//! empty does it scan the other chunks and *steal* their remaining jobs.
//! Compared to one global shared counter this keeps workers on disjoint
//! cache lines for the common balanced case, while uneven job costs — a
//! scenario suite mixes traces whose replay times differ by an order of
//! magnitude — still even out through stealing instead of leaving the
//! unlucky worker to finish alone.
//!
//! The queue hands out *indices*, and [`fan_out`] returns every job's
//! output at its index, so the assignment of jobs to workers can never
//! change a result — only the wall clock.
//!
//! [`fan_out`] is the one place evaluation workers are spawned: the
//! evaluator's full-fidelity batches, the multi-fidelity prefix rungs and
//! the explicit-configuration runner all run through it, each worker on
//! its own [`ReplayState`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dmx_alloc::{AllocatorConfig, BuildError, PoolMemo, SimArena, SimMetrics, Simulator};
use dmx_memhier::MemoryHierarchy;
use dmx_trace::CompiledTrace;

/// One evaluation worker's replay state: its [`SimArena`], reused by
/// every replay, and one [`PoolMemo`] per full-trace workload, created
/// on first use. It lives as long as its owner (an evaluator or one
/// `run_configs` call), so nothing carries over between explorations.
#[derive(Debug, Default)]
pub(crate) struct ReplayState {
    pub(crate) arena: SimArena,
    memos: Vec<Option<PoolMemo>>,
}

impl ReplayState {
    /// Replays `config` on full-trace workload number `workload` through
    /// the arena and that workload's memo. A workload number must name
    /// the same (`hierarchy`, `trace`) pair on every call.
    pub(crate) fn run_full(
        &mut self,
        workload: usize,
        hierarchy: &MemoryHierarchy,
        trace: &Arc<CompiledTrace>,
        config: &AllocatorConfig,
    ) -> Result<SimMetrics, BuildError> {
        if self.memos.len() <= workload {
            self.memos.resize_with(workload + 1, || None);
        }
        let memo = self.memos[workload].get_or_insert_with(|| PoolMemo::new(hierarchy, trace));
        Simulator::new(hierarchy).run_memo(config, trace, &mut self.arena, memo)
    }

    /// The memos' (pools served, pools simulated, reruns), summed over
    /// workloads.
    pub(crate) fn memo_counts(&self) -> (u64, u64, u64) {
        self.memos
            .iter()
            .flatten()
            .fold((0, 0, 0), |(served, simulated, reruns), m| {
                (
                    served + m.served(),
                    simulated + m.simulated(),
                    reruns + m.reruns(),
                )
            })
    }
}

/// Cache-line padding so per-chunk heads do not false-share.
#[repr(align(64))]
struct Head(AtomicUsize);

/// A fixed batch of `jobs` indices, split into per-worker chunks with
/// stealing. Every index in `0..jobs` is handed out exactly once across
/// all concurrent callers of [`Self::pop`].
pub(crate) struct StealQueue {
    /// Next un-issued index per chunk (monotone; may run past `end`).
    heads: Vec<Head>,
    /// Half-open `[start, end)` index range per chunk.
    ranges: Vec<(usize, usize)>,
}

impl StealQueue {
    /// Splits `jobs` indices into `workers` chunks (at most one chunk per
    /// job, so no empty chunks unless `jobs == 0`).
    pub(crate) fn new(jobs: usize, workers: usize) -> Self {
        let chunks = workers.max(1).min(jobs.max(1));
        let base = jobs / chunks;
        let extra = jobs % chunks;
        let mut ranges = Vec::with_capacity(chunks);
        let mut start = 0;
        for c in 0..chunks {
            let len = base + usize::from(c < extra);
            ranges.push((start, start + len));
            start += len;
        }
        debug_assert_eq!(start, jobs);
        StealQueue {
            heads: ranges.iter().map(|r| Head(AtomicUsize::new(r.0))).collect(),
            ranges,
        }
    }

    /// Takes the next index of chunk `c`, if any is left.
    fn take(&self, c: usize) -> Option<usize> {
        let (_, end) = self.ranges[c];
        // Opportunistic check keeps exhausted chunks from being bumped
        // forever while workers poll for leftovers.
        if self.heads[c].0.load(Ordering::Relaxed) >= end {
            return None;
        }
        let i = self.heads[c].0.fetch_add(1, Ordering::Relaxed);
        (i < end).then_some(i)
    }

    /// Pops the next job for `worker`: its own chunk first, then the other
    /// chunks in round-robin order (stealing). Returns `None` only when
    /// every chunk is drained.
    pub(crate) fn pop(&self, worker: usize) -> Option<usize> {
        let n = self.ranges.len();
        let own = worker % n;
        for off in 0..n {
            if let Some(i) = self.take((own + off) % n) {
                if off > 0 {
                    dmx_obs::metrics().queue_steals.incr();
                }
                return Some(i);
            }
        }
        None
    }
}

/// Runs `jobs` independent jobs on scoped worker threads and returns
/// their outputs in job order.
///
/// One worker is spawned per state, capped at the job count. Workers pop
/// job indices from a [`StealQueue`] and replay through their own state
/// (a [`ReplayState`]), whose arena and memos therefore stay warm across
/// jobs and — since the caller owns the states — across calls.
pub(crate) fn fan_out<S: Send, T: Send>(
    states: &mut [S],
    jobs: usize,
    job: impl Fn(usize, &mut S) -> T + Sync,
) -> Vec<T> {
    let workers = states.len().min(jobs);
    let queue = StealQueue::new(jobs, workers);
    let mut out: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = states[..workers]
            .iter_mut()
            .enumerate()
            .map(|(w, state)| {
                let (queue, job) = (&queue, &job);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    while let Some(j) = queue.pop(w) {
                        let _span = dmx_obs::span(dmx_obs::names::EVAL_JOB, j as u64);
                        dmx_obs::metrics().eval_jobs.incr();
                        done.push((j, job(j, state)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (j, value) in done {
                out[j] = Some(value);
            }
        }
    });
    out.into_iter()
        .map(|value| value.expect("every job ran exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn every_job_issued_exactly_once_single_worker() {
        let q = StealQueue::new(10, 4);
        let mut seen = Vec::new();
        while let Some(i) = q.pop(0) {
            seen.push(i);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(q.pop(0), None, "drained queue stays drained");
    }

    #[test]
    fn chunks_cover_the_range_without_overlap() {
        for (jobs, workers) in [(0, 3), (1, 8), (7, 3), (16, 4), (5, 5), (3, 1)] {
            let q = StealQueue::new(jobs, workers);
            let mut covered = 0;
            for (i, &(s, e)) in q.ranges.iter().enumerate() {
                assert!(s <= e, "jobs={jobs} workers={workers} chunk {i}");
                covered += e - s;
            }
            assert_eq!(covered, jobs, "jobs={jobs} workers={workers}");
        }
    }

    #[test]
    fn stealing_drains_other_workers_chunks() {
        // Worker 1 never pops; worker 0 must steal chunk 1's jobs.
        let q = StealQueue::new(8, 2);
        let mut seen = HashSet::new();
        while let Some(i) = q.pop(0) {
            assert!(seen.insert(i), "job {i} issued twice");
        }
        assert_eq!(seen.len(), 8, "worker 0 stole the idle worker's chunk");
    }

    #[test]
    fn concurrent_pops_issue_each_job_exactly_once() {
        let jobs = 10_000;
        let workers = 8;
        let q = StealQueue::new(jobs, workers);
        let seen = Mutex::new(vec![0u32; jobs]);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let q = &q;
                let seen = &seen;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    while let Some(i) = q.pop(w) {
                        local.push(i);
                    }
                    let mut counts = seen.lock().unwrap();
                    for i in local {
                        counts[i] += 1;
                    }
                });
            }
        });
        assert!(
            seen.into_inner().unwrap().iter().all(|&c| c == 1),
            "every job must be issued exactly once"
        );
    }

    #[test]
    fn fan_out_returns_outputs_in_job_order() {
        for workers in [1usize, 3, 8] {
            let mut arenas: Vec<SimArena> = (0..workers).map(|_| SimArena::new()).collect();
            let out = fan_out(&mut arenas, 50, |j, _| j * j);
            assert_eq!(out, (0..50).map(|j| j * j).collect::<Vec<_>>());
            assert!(fan_out(&mut arenas, 0, |j, _| j).is_empty());
        }
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let q = StealQueue::new(2, 16);
        let a = q.pop(7);
        let b = q.pop(13);
        let mut got = [a, b].map(|x| x.expect("two jobs available"));
        got.sort_unstable();
        assert_eq!(got, [0, 1]);
        assert_eq!(q.pop(0), None);
    }
}
