//! What the program's own counters and its existing trace say about each
//! layer: `RuntimeStats` differences and task phases read from
//! `Runtime::trace()`. Nothing here adds tracing to the program.

use std::collections::HashMap;

use ompss::{RuntimeStats, TraceEvent};

use crate::stats::median;

/// The `RuntimeStats` counters the ledger reports, as a difference between
/// two snapshots or a sum over runtimes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub spawned: u64,
    pub executed: u64,
    pub taskwaits: u64,
    pub raw: u64,
    pub war: u64,
    pub waw: u64,
    pub fast_hits: u64,
    pub fast_fallbacks: u64,
    pub lock_contention: u64,
    pub renames: u64,
    pub renames_recycled: u64,
    pub rename_fallbacks: u64,
    pub renames_elided: u64,
    pub local_pops: u64,
    pub global_pops: u64,
    pub steals: u64,
    pub immediately_ready: u64,
    pub replay_passes: u64,
    pub replay_tasks: u64,
}

impl Counts {
    /// What the counters gained from `before` to `after`, added to `self`:
    /// one call per runtime sums a workload's runtimes.
    pub fn gain(mut self, before: &RuntimeStats, after: &RuntimeStats) -> Counts {
        let acc = |field: &mut u64, get: fn(&RuntimeStats) -> u64| {
            *field += get(after) - get(before);
        };
        acc(&mut self.spawned, |s| s.tasks_spawned);
        acc(&mut self.executed, |s| s.tasks_executed);
        acc(&mut self.taskwaits, |s| s.taskwaits);
        acc(&mut self.raw, |s| s.raw_edges);
        acc(&mut self.war, |s| s.war_edges);
        acc(&mut self.waw, |s| s.waw_edges);
        acc(&mut self.fast_hits, |s| s.tracker_fast_path_hits);
        acc(&mut self.fast_fallbacks, |s| s.tracker_fast_path_fallbacks);
        acc(&mut self.lock_contention, |s| s.tracker_lock_contention);
        acc(&mut self.renames, |s| s.renames);
        acc(&mut self.renames_recycled, |s| s.renames_recycled);
        acc(&mut self.rename_fallbacks, |s| s.rename_fallbacks);
        acc(&mut self.renames_elided, |s| s.renames_elided);
        acc(&mut self.local_pops, |s| s.sched_local_pops);
        acc(&mut self.global_pops, |s| s.sched_global_pops);
        acc(&mut self.steals, |s| s.sched_steals);
        acc(&mut self.immediately_ready, |s| s.immediately_ready);
        acc(&mut self.replay_passes, |s| s.replay_passes);
        acc(&mut self.replay_tasks, |s| s.replay_tasks);
        self
    }
}

/// Time tasks spent in each phase of their life, summed over the tasks of
/// a trace that went through all four events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phases {
    pub tasks: u64,
    /// `Started` to `Finished`: the body, on a worker (`kernels`).
    pub body_ns: u64,
    /// `Spawned` to `Ready`: waiting for predecessors (`graph`).
    pub dep_wait_ns: u64,
    /// `Ready` to `Started`: waiting in a queue (`scheduler`).
    pub ready_wait_ns: u64,
    /// Median time from one `Spawned` event to the next: what the creating
    /// thread pays per task. Gaps across a `taskwait` are the slow tail the
    /// median ignores.
    pub spawn_gap_ns: f64,
}

impl Phases {
    pub fn of(events: &[TraceEvent]) -> Phases {
        // [spawned, ready, started, finished], 0 while unseen; the trace
        // clock starts with the runtime, before any task.
        let mut life: HashMap<u64, [u64; 4]> = HashMap::new();
        let mut spawn_times = Vec::new();
        for event in events {
            let slot = match event {
                TraceEvent::Spawned { at_ns, .. } => {
                    spawn_times.push(*at_ns);
                    0
                }
                TraceEvent::Ready { .. } => 1,
                TraceEvent::Started { .. } => 2,
                TraceEvent::Finished { .. } => 3,
                _ => continue,
            };
            life.entry(event.task().raw()).or_default()[slot] = event.at_ns().max(1);
        }
        let mut phases = Phases::default();
        for [spawned, ready, started, finished] in life.into_values() {
            if spawned == 0 || ready == 0 || started == 0 || finished == 0 {
                continue;
            }
            phases.tasks += 1;
            phases.body_ns += finished.saturating_sub(started);
            phases.dep_wait_ns += ready.saturating_sub(spawned);
            phases.ready_wait_ns += started.saturating_sub(ready);
        }
        spawn_times.sort_unstable();
        let gaps: Vec<f64> = spawn_times
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64)
            .collect();
        if !gaps.is_empty() {
            phases.spawn_gap_ns = median(&gaps);
        }
        phases
    }

    /// Combine the traces of several runtimes; the gap is weighted by tasks.
    pub fn plus(self, other: Phases) -> Phases {
        let tasks = self.tasks + other.tasks;
        Phases {
            tasks,
            body_ns: self.body_ns + other.body_ns,
            dep_wait_ns: self.dep_wait_ns + other.dep_wait_ns,
            ready_wait_ns: self.ready_wait_ns + other.ready_wait_ns,
            spawn_gap_ns: if tasks == 0 {
                0.0
            } else {
                (self.spawn_gap_ns * self.tasks as f64 + other.spawn_gap_ns * other.tasks as f64)
                    / tasks as f64
            },
        }
    }
}

/// What a traced pass saw inside the runtimes of one workload.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    pub counts: Counts,
    pub phases: Phases,
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl Observed {
    /// The per-layer metrics every workload reports, `(name, value)`;
    /// `wall_ns` is the time the traced OmpSs phases took.
    pub fn metrics(&self, wall_ns: u64) -> Vec<(&'static str, f64)> {
        let (c, p) = (&self.counts, &self.phases);
        let us_per_task = |ns: u64| per(ns, p.tasks) / 1e3;
        let pops = c.local_pops + c.global_pops + c.steals;
        vec![
            ("kernels.body_us_per_task", us_per_task(p.body_ns)),
            ("kernels.body_busy_share", per(p.body_ns, wall_ns)),
            ("graph.dep_wait_us_per_task", us_per_task(p.dep_wait_ns)),
            (
                "scheduler.ready_wait_us_per_task",
                us_per_task(p.ready_wait_ns),
            ),
            ("task.spawn_gap_ns", p.spawn_gap_ns),
            ("graph.raw_edges_per_task", per(c.raw, c.spawned)),
            ("graph.war_edges_per_task", per(c.war, c.spawned)),
            ("graph.waw_edges_per_task", per(c.waw, c.spawned)),
            (
                "graph.fast_path_share",
                per(c.fast_hits, c.fast_hits + c.fast_fallbacks),
            ),
            (
                "graph.lock_contention_per_ktask",
                1e3 * per(c.lock_contention, c.spawned),
            ),
            ("rename.renames_per_task", per(c.renames, c.spawned)),
            ("rename.recycled_share", per(c.renames_recycled, c.renames)),
            (
                "rename.fallbacks_per_ktask",
                1e3 * per(c.rename_fallbacks, c.spawned),
            ),
            ("rename.elided_per_task", per(c.renames_elided, c.spawned)),
            ("scheduler.local_pop_share", per(c.local_pops, pops)),
            ("scheduler.steal_share", per(c.steals, pops)),
            (
                "scheduler.immediately_ready_share",
                per(c.immediately_ready, c.spawned),
            ),
            ("capture.replay_task_share", per(c.replay_tasks, c.spawned)),
            (
                "capture.tasks_per_replay_pass",
                per(c.replay_tasks, c.replay_passes),
            ),
            (
                "barrier.taskwaits_per_ktask",
                1e3 * per(c.taskwaits, c.spawned),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss::{Runtime, RuntimeConfig};

    #[test]
    fn phases_of_a_traced_chain() {
        let rt = Runtime::new(RuntimeConfig::default().with_workers(1).with_tracing(true));
        let before = rt.stats();
        let cell = rt.data(0u64);
        for _ in 0..8 {
            let c = cell.clone();
            rt.task().inout(&c).spawn(move |ctx| *ctx.write(&c) += 1);
        }
        rt.taskwait();
        let counts = Counts::default().gain(&before, &rt.stats());
        let phases = Phases::of(&rt.trace());
        rt.shutdown();
        assert_eq!(
            (counts.spawned, counts.executed, counts.taskwaits),
            (8, 8, 1)
        );
        assert_eq!(phases.tasks, 8);
        assert!(phases.body_ns > 0 && phases.spawn_gap_ns > 0.0);
        let observed = Observed { counts, phases };
        let metrics = observed.metrics(1_000_000);
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("capture.replay_task_share"), 0.0);
        assert_eq!(get("barrier.taskwaits_per_ktask"), 125.0);
        assert!(get("kernels.body_busy_share") > 0.0);
    }
}
