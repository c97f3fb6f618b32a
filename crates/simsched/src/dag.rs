//! Virtual-time simulation of task-DAG execution on a multicore runtime.
//!
//! The simulator models the runtime the way Nanos++ (the OmpSs runtime of
//! the paper) actually behaves:
//!
//! * the master creates tasks serially (each paying a creation overhead);
//!   dependence-free tasks enter a global FIFO ready queue at their creation
//!   time;
//! * each virtual core repeatedly takes work: first from its own LIFO stack,
//!   then from the global queue, then by stealing from another core;
//! * when a task completes, the successors it releases are pushed onto the
//!   completing core's own stack (locality-aware mode — they typically run
//!   next, back to back with their producer, finding their input data still
//!   in cache) or onto the global queue (non-locality mode);
//! * a consumer that starts on its producer's core within the cache
//!   retention window earns the locality bonus on the memory-bound part of
//!   its work; consumers on another socket pay the NUMA penalty.
//!
//! A [`SimDag`] is static and complete before it runs — costs annotated,
//! dependences as indices, listed in topological order — because list
//! scheduling needs the whole graph; `ompss`'s `graph` module is the
//! opposite (live, edges discovered at spawn time and retired at
//! completion), so the two share no representation until real
//! traces are replayed through this one (ROADMAP direction 5).

use crate::machine::{DataLocality, MachineParams};

/// Specification of one simulated task.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTaskSpec {
    /// Pure work contained in the task, in nanoseconds.
    pub cost_ns: u64,
    /// Fraction of `cost_ns` that is memory bound (subject to locality bonus
    /// and NUMA penalty).
    pub mem_fraction: f64,
    /// Indices (into the DAG's task vector) of tasks this task depends on.
    pub deps: Vec<usize>,
}

impl SimTaskSpec {
    /// A compute-only task with no dependences.
    pub fn independent(cost_ns: u64) -> Self {
        SimTaskSpec {
            cost_ns,
            mem_fraction: 0.0,
            deps: Vec::new(),
        }
    }

    /// A task with a memory-bound fraction and explicit dependences.
    pub fn new(cost_ns: u64, mem_fraction: f64, deps: Vec<usize>) -> Self {
        SimTaskSpec {
            cost_ns,
            mem_fraction,
            deps,
        }
    }
}

/// A DAG of simulated tasks. Tasks must be listed in a valid topological
/// order (dependences always point to earlier indices), which is how the
/// workload builders construct them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimDag {
    /// The tasks, in creation (program) order.
    pub tasks: Vec<SimTaskSpec>,
}

impl SimDag {
    /// Create an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task, returning its index.
    ///
    /// # Panics
    /// Panics if a dependence refers to a not-yet-added task.
    pub fn push(&mut self, task: SimTaskSpec) -> usize {
        let idx = self.tasks.len();
        for &d in &task.deps {
            assert!(d < idx, "dependence {d} of task {idx} is not yet defined");
        }
        self.tasks.push(task);
        idx
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total work contained in the DAG (sum of task costs), in nanoseconds.
    pub fn total_work_ns(&self) -> u64 {
        self.tasks.iter().map(|t| t.cost_ns).sum()
    }

    /// Length of the critical path (longest dependence chain by cost), in
    /// nanoseconds — a lower bound on any schedule's makespan (ignoring
    /// overheads).
    pub fn critical_path_ns(&self) -> u64 {
        let mut finish = vec![0u64; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let ready = t.deps.iter().map(|&d| finish[d]).max().unwrap_or(0);
            finish[i] = ready + t.cost_ns;
        }
        finish.into_iter().max().unwrap_or(0)
    }

    /// Successor adjacency lists (reverse of `deps`).
    pub fn successors(&self) -> Vec<Vec<usize>> {
        let mut succ = vec![Vec::new(); self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                succ[d].push(i);
            }
        }
        succ
    }
}

/// Options controlling how the simulated runtime behaves.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOptions {
    /// Serial per-task creation overhead charged on a master timeline; a
    /// task cannot become ready before the master has created it.
    pub creation_overhead: bool,
    /// Per-task dispatch overhead added to every task's execution time.
    pub dispatch_overhead: bool,
    /// Push released successors onto the completing core's own stack (the
    /// OmpSs locality scheduler) instead of the global queue.
    pub locality_aware: bool,
}

impl ScheduleOptions {
    /// The OmpSs runtime behaviour (all overheads and locality scheduling).
    pub fn ompss() -> Self {
        ScheduleOptions {
            creation_overhead: true,
            dispatch_overhead: true,
            locality_aware: true,
        }
    }

    /// An idealised zero-overhead scheduler (used for bounds in tests and
    /// ablations).
    pub fn ideal() -> Self {
        ScheduleOptions {
            creation_overhead: false,
            dispatch_overhead: false,
            locality_aware: false,
        }
    }
}

/// Result of simulating a DAG execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Virtual time at which the last task finishes.
    pub makespan_ns: u64,
    /// Busy time accumulated per core.
    pub core_busy_ns: Vec<u64>,
    /// Core each task executed on.
    pub assignment: Vec<usize>,
    /// Number of tasks that executed warm (on their producer's core, within
    /// the cache retention window).
    pub locality_hits: usize,
    /// Number of tasks obtained by stealing from another core's stack.
    pub steals: usize,
}

impl ScheduleResult {
    /// Average core utilisation over the makespan (0..1).
    pub fn utilisation(&self) -> f64 {
        if self.makespan_ns == 0 || self.core_busy_ns.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.core_busy_ns.iter().sum();
        busy as f64 / (self.makespan_ns as f64 * self.core_busy_ns.len() as f64)
    }
}

/// A ready task waiting in a queue, remembering when it became ready.
#[derive(Debug, Clone, Copy)]
struct ReadyEntry {
    task: usize,
    ready_at: u64,
}

/// Simulate executing `dag` on `cores` virtual cores.
///
/// # Panics
/// Panics if `cores == 0` or if the DAG contains an unsatisfiable dependence
/// (which cannot happen for DAGs built through [`SimDag::push`]).
pub fn list_schedule(
    dag: &SimDag,
    cores: usize,
    machine: &MachineParams,
    options: &ScheduleOptions,
) -> ScheduleResult {
    assert!(cores > 0, "need at least one core");
    let n = dag.tasks.len();
    if n == 0 {
        return ScheduleResult {
            makespan_ns: 0,
            core_busy_ns: vec![0; cores],
            assignment: Vec::new(),
            locality_hits: 0,
            steals: 0,
        };
    }

    let successors = dag.successors();
    let mut remaining_deps: Vec<usize> = dag.tasks.iter().map(|t| t.deps.len()).collect();
    let mut finish = vec![0u64; n];
    let mut assignment = vec![usize::MAX; n];
    let mut core_free = vec![0u64; cores];
    let mut core_busy = vec![0u64; cores];
    let mut local: Vec<Vec<ReadyEntry>> = vec![Vec::new(); cores];
    let mut global: std::collections::VecDeque<ReadyEntry> = std::collections::VecDeque::new();
    let mut locality_hits = 0usize;
    let mut steals = 0usize;

    // Master creation timeline.
    let mut creation_clock = 0u64;
    let mut created_at = vec![0u64; n];
    for i in 0..n {
        if options.creation_overhead {
            creation_clock += machine.task_create_ns;
        }
        created_at[i] = creation_clock;
        if remaining_deps[i] == 0 {
            global.push_back(ReadyEntry {
                task: i,
                ready_at: created_at[i],
            });
        }
    }

    let mut completed = 0usize;
    while completed < n {
        // The core with the smallest clock acts next.
        let core = (0..cores)
            .min_by_key(|&c| (core_free[c], c))
            .expect("cores > 0");
        let now = core_free[core];

        // 1. Own stack (LIFO), 2. global queue (FIFO among currently
        // available), 3. steal (oldest entry of the fullest victim).
        let mut stolen = false;
        let picked: Option<ReadyEntry> = if let Some(entry) = local[core].pop() {
            Some(entry)
        } else if let Some(pos) = global.iter().position(|e| e.ready_at <= now) {
            global.remove(pos)
        } else if let Some(victim) = (0..cores)
            .filter(|&c| c != core)
            .filter(|&c| local[c].iter().any(|e| e.ready_at <= now))
            .max_by_key(|&c| local[c].len())
        {
            stolen = true;
            let pos = local[victim]
                .iter()
                .position(|e| e.ready_at <= now)
                .expect("victim has an available entry");
            Some(local[victim].remove(pos))
        } else {
            None
        };

        let Some(entry) = picked else {
            // Nothing is available right now: advance this core's clock to
            // the next time anything can become available.
            let mut next: Option<u64> = None;
            let mut consider = |t: u64| {
                if t > now {
                    next = Some(next.map_or(t, |n: u64| n.min(t)));
                }
            };
            for e in &global {
                consider(e.ready_at);
            }
            for stack in &local {
                for e in stack {
                    consider(e.ready_at);
                }
            }
            for (c, &f) in core_free.iter().enumerate() {
                if c != core {
                    consider(f);
                }
            }
            match next {
                Some(t) => {
                    core_free[core] = t;
                    continue;
                }
                None => panic!(
                    "simulation stalled with {} of {n} tasks completed",
                    completed
                ),
            }
        };

        if stolen {
            steals += 1;
        }
        let task_idx = entry.task;
        let task = &dag.tasks[task_idx];
        let start = now.max(entry.ready_at);

        // Producer = the dependence that finished last.
        let producer = task
            .deps
            .iter()
            .max_by_key(|&&d| finish[d])
            .map(|&d| (assignment[d], finish[d]));
        let locality = machine.classify_locality(core, producer, start);
        if locality == DataLocality::Warm {
            locality_hits += 1;
        }
        let mut exec = machine.effective_task_cost(task.cost_ns, task.mem_fraction, locality);
        if options.dispatch_overhead {
            exec += machine.task_dispatch_ns;
        }
        let end = start + exec;
        core_free[core] = end;
        core_busy[core] += exec;
        finish[task_idx] = end;
        assignment[task_idx] = core;
        completed += 1;

        // Release successors.
        for &succ in &successors[task_idx] {
            remaining_deps[succ] -= 1;
            if remaining_deps[succ] == 0 {
                let ready_at = dag.tasks[succ]
                    .deps
                    .iter()
                    .map(|&d| finish[d])
                    .max()
                    .unwrap_or(0)
                    .max(created_at[succ]);
                let entry = ReadyEntry {
                    task: succ,
                    ready_at,
                };
                if options.locality_aware {
                    local[core].push(entry);
                } else {
                    global.push_back(entry);
                }
            }
        }
    }

    ScheduleResult {
        makespan_ns: finish.into_iter().max().unwrap_or(0),
        core_busy_ns: core_busy,
        assignment,
        locality_hits,
        steals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn machine() -> MachineParams {
        MachineParams::default()
    }

    #[test]
    fn empty_dag_has_zero_makespan() {
        let dag = SimDag::new();
        let r = list_schedule(&dag, 4, &machine(), &ScheduleOptions::ideal());
        assert_eq!(r.makespan_ns, 0);
        assert_eq!(r.utilisation(), 0.0);
    }

    #[test]
    #[should_panic(expected = "need at least one core")]
    fn zero_cores_panics() {
        let dag = SimDag::new();
        let _ = list_schedule(&dag, 0, &machine(), &ScheduleOptions::ideal());
    }

    #[test]
    #[should_panic(expected = "is not yet defined")]
    fn forward_dependence_panics() {
        let mut dag = SimDag::new();
        dag.push(SimTaskSpec::new(10, 0.0, vec![5]));
    }

    #[test]
    fn successors_are_reverse_of_deps() {
        let mut dag = SimDag::new();
        let a = dag.push(SimTaskSpec::independent(1));
        let b = dag.push(SimTaskSpec::new(1, 0.0, vec![a]));
        let c = dag.push(SimTaskSpec::new(1, 0.0, vec![a, b]));
        let succ = dag.successors();
        assert_eq!(succ[a], vec![b, c]);
        assert_eq!(succ[b], vec![c]);
        assert!(succ[c].is_empty());
    }

    #[test]
    fn independent_tasks_scale_linearly_in_the_ideal_model() {
        let mut dag = SimDag::new();
        for _ in 0..64 {
            dag.push(SimTaskSpec::independent(1_000_000));
        }
        let t1 = list_schedule(&dag, 1, &machine(), &ScheduleOptions::ideal()).makespan_ns;
        let t8 = list_schedule(&dag, 8, &machine(), &ScheduleOptions::ideal()).makespan_ns;
        assert_eq!(t1, 64_000_000);
        assert_eq!(t8, 8_000_000);
    }

    #[test]
    fn chain_is_limited_by_critical_path() {
        let mut dag = SimDag::new();
        let mut prev = None;
        for _ in 0..10 {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(dag.push(SimTaskSpec::new(500_000, 0.0, deps)));
        }
        assert_eq!(dag.critical_path_ns(), 5_000_000);
        let r = list_schedule(&dag, 16, &machine(), &ScheduleOptions::ideal());
        assert_eq!(r.makespan_ns, 5_000_000, "extra cores cannot help a chain");
    }

    #[test]
    fn creation_overhead_serialises_small_tasks() {
        // 1000 tiny tasks: with creation overhead the master becomes the
        // bottleneck and more cores stop helping.
        let mut dag = SimDag::new();
        for _ in 0..1000 {
            dag.push(SimTaskSpec::independent(1_000));
        }
        let opts = ScheduleOptions::ompss();
        let t4 = list_schedule(&dag, 4, &machine(), &opts).makespan_ns;
        let t32 = list_schedule(&dag, 32, &machine(), &opts).makespan_ns;
        let serial_creation = 1000 * machine().task_create_ns;
        assert!(t32 >= serial_creation, "creation time bounds the makespan");
        // Going from 4 to 32 cores helps by far less than 8x.
        assert!(t4 < 3 * t32, "task-creation bound limits scaling");
    }

    #[test]
    fn locality_scheduling_speeds_up_producer_consumer_chains() {
        // Pairs of producer->consumer tasks with a large memory-bound part.
        let mut dag = SimDag::new();
        for _ in 0..32 {
            let p = dag.push(SimTaskSpec::new(2_000_000, 0.8, vec![]));
            dag.push(SimTaskSpec::new(2_000_000, 0.8, vec![p]));
        }
        let m = machine();
        let with = list_schedule(
            &dag,
            8,
            &m,
            &ScheduleOptions {
                locality_aware: true,
                ..ScheduleOptions::ideal()
            },
        );
        let without = list_schedule(&dag, 8, &m, &ScheduleOptions::ideal());
        assert!(
            with.makespan_ns < without.makespan_ns,
            "locality-aware placement must win on producer-consumer chains: {} vs {}",
            with.makespan_ns,
            without.makespan_ns
        );
        assert!(with.locality_hits > 24, "most consumers run warm");
        assert!(
            with.locality_hits > without.locality_hits,
            "locality mode produces more warm executions"
        );
    }

    #[test]
    fn work_stealing_balances_a_deep_local_stack() {
        // One producer releases many successors onto its own stack; other
        // cores must steal them.
        let mut dag = SimDag::new();
        let p = dag.push(SimTaskSpec::independent(100_000));
        for _ in 0..64 {
            dag.push(SimTaskSpec::new(1_000_000, 0.0, vec![p]));
        }
        let r = list_schedule(
            &dag,
            8,
            &machine(),
            &ScheduleOptions {
                locality_aware: true,
                ..ScheduleOptions::ideal()
            },
        );
        assert!(
            r.steals > 0,
            "other cores must steal from the producer's stack"
        );
        // The 64 successors must spread over the cores: makespan well below
        // the serial 64 ms.
        assert!(r.makespan_ns < 20_000_000);
    }

    #[test]
    fn utilisation_is_at_most_one() {
        let mut dag = SimDag::new();
        for i in 0..20 {
            let deps = if i >= 4 { vec![i - 4] } else { vec![] };
            dag.push(SimTaskSpec::new(300_000 + i as u64 * 10_000, 0.3, deps));
        }
        let r = list_schedule(&dag, 4, &machine(), &ScheduleOptions::ompss());
        assert!(r.utilisation() > 0.0 && r.utilisation() <= 1.0);
        assert_eq!(r.assignment.len(), 20);
        assert!(r.assignment.iter().all(|&c| c < 4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Work conservation and causality: the makespan is at least
        /// max(total work / cores, critical path) and at most total work,
        /// for the ideal model.
        #[test]
        fn prop_makespan_bounds(
            costs in proptest::collection::vec(1_000u64..1_000_000, 1..60),
            cores in 1usize..16,
            chain in proptest::bool::ANY,
        ) {
            let mut dag = SimDag::new();
            for (i, &c) in costs.iter().enumerate() {
                let deps = if chain && i > 0 { vec![i - 1] } else { vec![] };
                dag.push(SimTaskSpec::new(c, 0.0, deps));
            }
            let r = list_schedule(&dag, cores, &machine(), &ScheduleOptions::ideal());
            let total = dag.total_work_ns();
            let cp = dag.critical_path_ns();
            let lower = cp.max(total / cores as u64);
            prop_assert!(r.makespan_ns >= lower);
            prop_assert!(r.makespan_ns <= total);
            // Busy time equals total work exactly (no overheads in ideal mode).
            prop_assert_eq!(r.core_busy_ns.iter().sum::<u64>(), total);
        }

        /// Every task is assigned to a valid core and the simulation is
        /// deterministic.
        #[test]
        fn prop_simulation_is_deterministic(
            costs in proptest::collection::vec(1_000u64..200_000, 1..50),
            cores in 1usize..8,
            fan in 1usize..4,
        ) {
            let mut dag = SimDag::new();
            for (i, &c) in costs.iter().enumerate() {
                let deps = if i >= fan { vec![i - fan] } else { vec![] };
                dag.push(SimTaskSpec::new(c, 0.4, deps));
            }
            let a = list_schedule(&dag, cores, &machine(), &ScheduleOptions::ompss());
            let b = list_schedule(&dag, cores, &machine(), &ScheduleOptions::ompss());
            prop_assert_eq!(&a, &b);
            prop_assert!(a.assignment.iter().all(|&c| c < cores));
        }

        /// Adding cores never makes the ideal schedule slower for
        /// independent tasks.
        #[test]
        fn prop_more_cores_never_hurt(
            costs in proptest::collection::vec(10_000u64..500_000, 1..40),
            cores in 1usize..8,
        ) {
            let mut dag = SimDag::new();
            for &c in &costs {
                dag.push(SimTaskSpec::independent(c));
            }
            let a = list_schedule(&dag, cores, &machine(), &ScheduleOptions::ideal()).makespan_ns;
            let b = list_schedule(&dag, cores * 2, &machine(), &ScheduleOptions::ideal()).makespan_ns;
            prop_assert!(b <= a);
        }
    }
}
