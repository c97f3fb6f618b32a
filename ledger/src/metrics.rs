//! The names, units and regression bounds of the benchmark's metrics: the
//! one table that `BENCHMARK.json` copies (a test holds the two together).

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the system sees, with the share of the parent's median by
/// which each may get worse before a change counts as a regression. Every
/// workload reports every one of them.
pub const END_TO_END: [(Def, f64); 4] = [
    (def("fresh_time_ms", "ms", "lower"), 0.25),
    (def("replay_time_ms", "ms", "lower"), 0.18),
    (def("tasks_per_s", "1/s", "higher"), 0.25),
    (def("setup_s", "s", "lower"), 0.25),
];

/// Metrics of single layers, from the traced run. The part of a name
/// before the dot is the layer: a module of this repository.
pub const PER_LAYER: [Def; 39] = [
    // From `Runtime::trace()` of the workload's own runtimes.
    def("kernels.body_us_per_task", "us", "lower"),
    def("kernels.body_busy_share", "ratio", "higher"),
    def("graph.dep_wait_us_per_task", "us", "lower"),
    def("scheduler.ready_wait_us_per_task", "us", "lower"),
    def("task.spawn_gap_ns", "ns", "lower"),
    // From `RuntimeStats` of the workload's own runtimes.
    def("graph.raw_edges_per_task", "ratio", "lower"),
    def("graph.war_edges_per_task", "ratio", "lower"),
    def("graph.waw_edges_per_task", "ratio", "lower"),
    def("graph.fast_path_share", "ratio", "higher"),
    def("graph.lock_contention_per_ktask", "ratio", "lower"),
    def("rename.renames_per_task", "ratio", "lower"),
    def("rename.recycled_share", "ratio", "higher"),
    def("rename.fallbacks_per_ktask", "ratio", "lower"),
    def("rename.elided_per_task", "ratio", "higher"),
    def("scheduler.local_pop_share", "ratio", "higher"),
    def("scheduler.steal_share", "ratio", "lower"),
    def("scheduler.immediately_ready_share", "ratio", "higher"),
    def("capture.replay_task_share", "ratio", "higher"),
    def("capture.tasks_per_replay_pass", "count", "higher"),
    def("barrier.taskwaits_per_ktask", "ratio", "lower"),
    // From the benchmark's own spans and its two passes.
    def("trace.overhead_ratio", "ratio", "lower"),
    def("trace.span_coverage", "ratio", "higher"),
    // Probes: the same calls whatever the workload.
    def("runtime.rt_start_us", "us", "lower"),
    def("runtime.rt_shutdown_us", "us", "lower"),
    def("barrier.taskwait_empty_ns", "ns", "lower"),
    def("task.spawn0_ns", "ns", "lower"),
    def("graph.spawn1_ns", "ns", "lower"),
    def("graph.spawn2_ns", "ns", "lower"),
    def("graph.per_access_ns", "ns", "lower"),
    def("capture.replay_resolved_ns_per_task", "ns", "lower"),
    def("capture.replay_prewired_ns_per_task", "ns", "lower"),
    def("capture.replay_fused_ns_per_task", "ns", "lower"),
    def("rename.versioned_output_ns", "ns", "lower"),
    def("rename.rename_extra_ns", "ns", "lower"),
    def("scheduler.dispatch_roundtrip_us", "us", "lower"),
    def("scheduler.drain_ns_per_task", "ns", "lower"),
    def("critical.uncontended_ns", "ns", "lower"),
    def("threadkit.barrier_roundtrip_ns", "ns", "lower"),
    def("threadkit.queue_handoff_ns", "ns", "lower"),
];

/// The workloads, with the one line on why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "table1.coarse",
        "Table 1 rows cut into tasks of 50 us and more: kernel bodies do the work, so barrier, idle-polling, steal and locality changes show and per-task costs do not",
    ),
    (
        "table1.fine",
        "the same rows and work cut into tasks of 5 us and less: creating, registering, queueing, waking and retiring tasks dominates, with real bodies and dependence shapes",
    ),
    (
        "insert.storm",
        "one-add bodies in 256-task batches over 16 shared cells: graph, capture and task do all the work, fresh spawning and replay side by side on one tracker",
    ),
    (
        "service.closed",
        "closed loop of T clients on two tenants, 50% spawn, 40% replay, 10% empty jobs: per-job cost is admission, queueing and hand-off to the runtime",
    ),
];

/// Seconds one timed run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 20;

/// The seed when none is given (the first day of PPoPP 2012).
pub const DEFAULT_SEED: u64 = 20_120_225;
