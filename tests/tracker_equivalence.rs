//! Equivalence of the dependence tracker's default gate acquisition with the
//! forced-locked reference configuration (every acquisition forced to count
//! as a fallback, every retirement through the inbox).
//!
//! The fast path must be invisible except in throughput: for any program,
//! the default tracker must discover exactly the dependence structure the
//! forced-locked tracker discovers, and execution must produce exactly the
//! values of sequential (spawn-order) execution.
//!
//! Two angles, both over randomly generated access programs (mixed
//! `input` / `output` / `inout` / `concurrent` accesses over many handles):
//!
//! 1. **Edge-structure equivalence.** Task bodies are *gated* on a shared
//!    flag, so no task completes (and nothing retires) while the program is
//!    being spawned — registration is then fully deterministic, and the edge
//!    multiset (recorded by the tracing `Edge` events), the per-task
//!    dependence counts, and every edge counter must be identical in both
//!    configurations.
//! 2. **Value equivalence.** The same programs run ungated in both
//!    configurations and must end with exactly the sequential final values.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ompss::{Data, FaultPlan, Runtime, RuntimeConfig, TraceEvent};

/// The tracker configuration under test: optimistic (the default), or
/// forced-locked — every gate acquisition forced off the fast path and
/// every retirement through the inbox, the suite's reference.
fn tracker_config(fast_path: bool) -> RuntimeConfig {
    if fast_path {
        RuntimeConfig::default()
    } else {
        RuntimeConfig::default().with_fault_plan(FaultPlan::seeded(0).tracker_fallback_one_in(1))
    }
}

/// One step of a random program over a fixed set of cells.
#[derive(Debug, Clone)]
enum Op {
    /// cells[dst] = value (`output`)
    Set { dst: usize, value: u64 },
    /// cells[dst] += cells[src] (`inout` dst, `input` src)
    AddFrom { dst: usize, src: usize },
    /// cells[dst] = cells[dst] * 3 + 1 (`inout`)
    Scale { dst: usize },
    /// cells[dst] += k, commutatively (`concurrent`, update under a
    /// critical section as the access kind requires)
    Accumulate { dst: usize, k: u64 },
}

fn op_strategy(cells: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..cells, 0u64..100).prop_map(|(dst, value)| Op::Set { dst, value }),
        (0..cells, 0..cells).prop_map(|(dst, src)| Op::AddFrom { dst, src }),
        (0..cells).prop_map(|dst| Op::Scale { dst }),
        (0..cells, 1u64..9).prop_map(|(dst, k)| Op::Accumulate { dst, k }),
    ]
}

/// Reference semantics: execute the ops sequentially in spawn order.
fn run_sequential(cells: usize, ops: &[Op]) -> Vec<u64> {
    let mut v = vec![0u64; cells];
    for op in ops {
        match *op {
            Op::Set { dst, value } => v[dst] = value,
            Op::AddFrom { dst, src } => v[dst] = v[dst].wrapping_add(v[src]),
            Op::Scale { dst } => v[dst] = v[dst].wrapping_mul(3).wrapping_add(1),
            Op::Accumulate { dst, k } => v[dst] = v[dst].wrapping_add(k),
        }
    }
    v
}

/// Spawn one task per op. When `gate` is given, the body spins on it before
/// doing its work, so nothing completes until the caller releases the gate.
fn spawn_program(
    rt: &Runtime,
    handles: &[Data<u64>],
    ops: &[Op],
    gate: Option<&Arc<AtomicBool>>,
) -> Vec<ompss::TaskId> {
    let mut ids = Vec::with_capacity(ops.len());
    for op in ops {
        let gate = gate.cloned();
        let wait = move || {
            if let Some(g) = &gate {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        };
        let id = match *op {
            Op::Set { dst, value } => {
                let d = handles[dst].clone();
                rt.task().output(&d).spawn(move |ctx| {
                    wait();
                    *ctx.write(&d) = value;
                })
            }
            Op::AddFrom { dst, src } if dst != src => {
                let d = handles[dst].clone();
                let s = handles[src].clone();
                rt.task().inout(&d).input(&s).spawn(move |ctx| {
                    wait();
                    let add = *ctx.read(&s);
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(add);
                })
            }
            Op::AddFrom { dst, .. } => {
                let d = handles[dst].clone();
                rt.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(*d);
                })
            }
            Op::Scale { dst } => {
                let d = handles[dst].clone();
                rt.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_mul(3).wrapping_add(1);
                })
            }
            Op::Accumulate { dst, k } => {
                let d = handles[dst].clone();
                rt.task().concurrent(&d).spawn(move |ctx| {
                    wait();
                    ctx.critical("equivalence-acc", || {
                        let mut d = ctx.write(&d);
                        *d = d.wrapping_add(k);
                    });
                })
            }
        };
        ids.push(id);
    }
    ids
}

/// Sequential semantics of `Op::AddFrom { dst == src }` differs from the
/// tasked doubling only if the program-order value differs — keep the
/// reference model in sync with the task body.
fn run_sequential_matching_tasks(cells: usize, ops: &[Op]) -> Vec<u64> {
    // `AddFrom { dst == src }` doubles the cell in both models, so the plain
    // sequential interpreter is already exact.
    run_sequential(cells, ops)
}

/// Everything that must be identical across tracker configurations when no
/// task can complete during registration.
#[derive(Debug, PartialEq, Eq)]
struct EdgeStructure {
    /// Dependence edges as (pred spawn index, succ spawn index), sorted.
    edges: Vec<(usize, usize)>,
    /// Per-task edge count in spawn order (the `deps` of `Spawned`).
    deps: Vec<usize>,
    /// (edges_added, raw, war, waw, dependences_seen).
    counters: (u64, u64, u64, u64, u64),
}

fn edge_structure(fast_path: bool, cells: usize, ops: &[Op]) -> EdgeStructure {
    let rt = Runtime::new(tracker_config(fast_path).with_workers(2).with_tracing(true));
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    let gate = Arc::new(AtomicBool::new(false));
    let ids = spawn_program(&rt, &handles, ops, Some(&gate));
    // All registrations done, nothing has completed: snapshot the
    // deterministic structure, then release the tasks and drain.
    let stats = rt.stats();
    // Hit/fallback accounting: every registration that has accesses is
    // either a hit or a fallback, and a forced fallback is a fallback.
    assert_eq!(
        stats.tracker_fast_path_hits + stats.tracker_fast_path_fallbacks,
        stats.tasks_spawned,
        "every registration is accounted as fast-path hit or fallback"
    );
    if !fast_path {
        assert_eq!(stats.tracker_fast_path_hits, 0);
    }
    let trace = rt.trace();
    gate.store(true, Ordering::Release);
    rt.taskwait();
    rt.shutdown();

    let index_of = |id: ompss::TaskId| ids.iter().position(|t| *t == id);
    let mut edges = Vec::new();
    let mut deps = vec![usize::MAX; ids.len()];
    for ev in &trace {
        match ev {
            TraceEvent::Edge { task, from, .. } => {
                let (Some(f), Some(t)) = (index_of(*from), index_of(*task)) else {
                    panic!("edge references an unknown task");
                };
                edges.push((f, t));
            }
            TraceEvent::Spawned { task, deps: d, .. } => {
                if let Some(i) = index_of(*task) {
                    deps[i] = *d;
                }
            }
            _ => {}
        }
    }
    edges.sort_unstable();
    assert!(
        deps.iter().all(|&d| d != usize::MAX),
        "missing Spawned events"
    );
    EdgeStructure {
        edges,
        deps,
        counters: (
            stats.edges_added,
            stats.raw_edges,
            stats.war_edges,
            stats.waw_edges,
            stats.dependences_seen,
        ),
    }
}

fn final_values(fast_path: bool, cells: usize, ops: &[Op]) -> Vec<u64> {
    let rt = Runtime::new(tracker_config(fast_path).with_workers(3));
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    spawn_program(&rt, &handles, ops, None);
    rt.taskwait();
    let out = handles.iter().map(|h| rt.fetch(h)).collect();
    rt.shutdown();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With task completion gated off during spawning, the tracker —
    /// optimistic fast path enabled — discovers exactly the edge multiset,
    /// per-task dependence counts and edge-class counters of the
    /// forced-locked reference. (The name predates the one-gate tracker; the
    /// reference was the one-shard configuration.)
    #[test]
    fn sharded_edge_structure_equals_single_shard(
        ops in proptest::collection::vec(op_strategy(4), 1..32),
    ) {
        let reference = edge_structure(false, 4, &ops);
        prop_assert_eq!(reference.edges.len() as u64, reference.counters.0);
        let optimistic = edge_structure(true, 4, &ops);
        prop_assert_eq!(&optimistic, &reference);
    }

    /// Ungated execution — optimistic and forced-locked — ends in exactly
    /// the sequential final values.
    #[test]
    fn sharded_execution_matches_sequential_semantics(
        ops in proptest::collection::vec(op_strategy(5), 1..48),
    ) {
        let expected = run_sequential_matching_tasks(5, &ops);
        let got = final_values(true, 5, &ops);
        prop_assert_eq!(&got, &expected, "optimistic");
        let got = final_values(false, 5, &ops);
        prop_assert_eq!(&got, &expected, "forced-locked");
    }
}

/// Run one program under the dcheck race oracle on a given tracker
/// configuration and return (final values, race reports, audit verdict).
fn final_values_dcheck(
    fast_path: bool,
    cells: usize,
    ops: &[Op],
) -> (Vec<u64>, Vec<ompss::RaceReport>, bool) {
    let rt = Runtime::new(tracker_config(fast_path).with_workers(3).with_dcheck(true));
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    spawn_program(&rt, &handles, ops, None);
    rt.taskwait();
    let values = handles.iter().map(|h| rt.fetch(h)).collect();
    let races = rt.take_dcheck_reports();
    let audit_ok = rt.audit().is_ok() && rt.take_dcheck_audit_violations().is_empty();
    rt.shutdown();
    (values, races, audit_ok)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tracker matrix under the dcheck race oracle: {optimistic,
    /// forced-locked} runs random programs with zero race reports and a
    /// clean audit — the tracker orders every conflicting pair no matter
    /// which registration path is active, and the oracle agrees.
    #[test]
    fn tracker_matrix_is_race_free_under_dcheck(
        ops in proptest::collection::vec(op_strategy(4), 1..32),
    ) {
        let expected = run_sequential_matching_tasks(4, &ops);
        for fast_path in [true, false] {
            let (got, races, audit_ok) = final_values_dcheck(fast_path, 4, &ops);
            let tag = format!("fast_path = {fast_path}");
            prop_assert_eq!(&got, &expected, "values diverged: {}", tag);
            prop_assert!(races.is_empty(), "races under {}: {:?}", tag, races);
            prop_assert!(audit_ok, "audit violation under {}", tag);
        }
    }
}

/// A fixed two-stage pipeline whose structure is easy to reason about:
/// `n` producer→consumer pairs over disjoint handles, plus a final reader of
/// everything. The edge multiset is the same with the optimistic gate
/// acquisition and in the forced-locked reference. (The name predates the
/// one-gate tracker, when the edges were also spread over several shards.)
#[test]
fn pipeline_edges_identical_and_spread_across_shards() {
    let n = 8;
    let run = |fast_path: bool| {
        let rt = Runtime::new(tracker_config(fast_path).with_workers(2).with_tracing(true));
        let cells: Vec<Data<u64>> = (0..n).map(|_| rt.data(0u64)).collect();
        let sum = rt.data(0u64);
        let gate = Arc::new(AtomicBool::new(false));
        let mut ids = Vec::new();
        for (i, c) in cells.iter().enumerate() {
            let d = c.clone();
            let g = gate.clone();
            ids.push(rt.task().output(&d).spawn(move |ctx| {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                *ctx.write(&d) = i as u64 + 1;
            }));
        }
        for c in &cells {
            let d = c.clone();
            let s = sum.clone();
            let g = gate.clone();
            ids.push(rt.task().input(&d).inout(&s).spawn(move |ctx| {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let v = *ctx.read(&d);
                let mut s = ctx.write(&s);
                *s = s.wrapping_add(v);
            }));
        }
        let trace = rt.trace();
        gate.store(true, Ordering::Release);
        rt.taskwait();
        let total = rt.fetch(&sum);
        rt.shutdown();
        let index_of = |id: ompss::TaskId| ids.iter().position(|t| *t == id).unwrap();
        let mut edges = Vec::new();
        for ev in &trace {
            if let TraceEvent::Edge { task, from, .. } = ev {
                edges.push((index_of(*from), index_of(*task)));
            }
        }
        edges.sort_unstable();
        (edges, total)
    };

    let (reference_edges, total) = run(false);
    assert_eq!(total, (1..=n as u64).sum::<u64>());
    // n RAW producer→consumer edges + the inout chain through `sum`.
    assert_eq!(reference_edges.len(), n + n - 1);
    assert_eq!(run(true), (reference_edges, total));
}
