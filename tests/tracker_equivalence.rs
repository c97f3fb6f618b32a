//! Equivalence of the dependence tracker with an independent model of its
//! rules, and of execution with sequential program order.
//!
//! The runtime's claim is OmpSs semantics: a run equals sequential program
//! order over the declared `input` / `output` / `inout` / `concurrent`
//! accesses. Two angles, both over randomly generated access programs over
//! many handles:
//!
//! 1. **Edge structure against a model.** Task bodies are *gated* on a
//!    shared flag, so no task completes while the program is being spawned —
//!    registration is then fully deterministic, and the edge multiset
//!    (recorded by the tracing `Edge` events), the per-task dependence
//!    counts and every edge counter must be exactly what [`model`] predicts:
//!    a short sequential interpreter of the tracker's rules that shares no
//!    code with the tracker.
//! 2. **Value equivalence.** The same programs run ungated and must end with
//!    exactly the sequential final values.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ompss::{Data, Runtime, RuntimeConfig, TraceEvent};

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

/// An access kind as the model sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Input,
    Output,
    InOut,
    Concurrent,
}

/// The accesses `spawn_program` declares for `op`, in declaration order.
fn accesses(op: &Op) -> Vec<(usize, Kind)> {
    match *op {
        Op::Set { dst, .. } => vec![(dst, Kind::Output)],
        Op::AddFrom { dst, src } if dst != src => vec![(dst, Kind::InOut), (src, Kind::Input)],
        Op::AddFrom { dst, .. } | Op::Scale { dst } => vec![(dst, Kind::InOut)],
        Op::Accumulate { dst, .. } => vec![(dst, Kind::Concurrent)],
    }
}

/// What one cell's history holds, as spawn indices.
#[derive(Debug, Clone, Default)]
struct CellHistory {
    /// The last writer generation.
    writers: Vec<usize>,
    /// Plain readers since it.
    readers: Vec<usize>,
    /// `concurrent` accessors since it.
    concurrent: Vec<usize>,
}

/// Edge classes, as the tracker's counters split them.
#[derive(Debug, Clone, Copy)]
enum Class {
    Raw,
    War,
    Waw,
}

/// The model: registers `ops` one after another, nothing completing, by
/// the tracker's rules. A later access depends on every earlier writer; an
/// `input` also on earlier `concurrent` accessors; an `output`/`inout` also
/// on earlier readers and `concurrent` accessors; a `concurrent` also on
/// earlier readers, but not on other `concurrent` accessors. An edge is RAW
/// when the later access reads (`input`, `inout`, `concurrent`) what a
/// writer or `concurrent` accessor left, WAR when it writes over a reader,
/// and WAW when an `output` overwrites without reading. A task's
/// predecessors are collected over its accesses in declaration order, each
/// once, classed by its first conflict; then its accesses are recorded, an
/// `output`/`inout` starting a new writer generation.
fn model(cells: usize, ops: &[Op]) -> EdgeStructure {
    let mut history = vec![CellHistory::default(); cells];
    let mut edges = Vec::new();
    let mut deps = Vec::new();
    let (mut raw, mut war, mut waw) = (0, 0, 0);
    for (task, op) in ops.iter().enumerate() {
        let mut preds: Vec<(usize, Class)> = Vec::new();
        for &(cell, kind) in &accesses(op) {
            let h = &history[cell];
            let after_write = if kind == Kind::Output {
                Class::Waw
            } else {
                Class::Raw
            };
            let mut found: Vec<(usize, Class)> =
                h.writers.iter().map(|&p| (p, after_write)).collect();
            match kind {
                Kind::Input => found.extend(h.concurrent.iter().map(|&p| (p, Class::Raw))),
                Kind::Output | Kind::InOut => {
                    found.extend(h.readers.iter().map(|&p| (p, Class::War)));
                    found.extend(h.concurrent.iter().map(|&p| (p, after_write)));
                }
                Kind::Concurrent => found.extend(h.readers.iter().map(|&p| (p, Class::War))),
            }
            for (p, class) in found {
                if preds.iter().all(|&(q, _)| q != p) {
                    preds.push((p, class));
                }
            }
        }
        for &(cell, kind) in &accesses(op) {
            let h = &mut history[cell];
            match kind {
                Kind::Input => h.readers.push(task),
                Kind::Concurrent => h.concurrent.push(task),
                Kind::Output | Kind::InOut => {
                    *h = CellHistory {
                        writers: vec![task],
                        ..CellHistory::default()
                    }
                }
            }
        }
        deps.push(preds.len());
        for (p, class) in preds {
            edges.push((p, task));
            match class {
                Class::Raw => raw += 1,
                Class::War => war += 1,
                Class::Waw => waw += 1,
            }
        }
    }
    edges.sort_unstable();
    let n = edges.len() as u64;
    EdgeStructure {
        edges,
        deps,
        // Nothing completed, so every predecessor seen took an edge.
        counters: (n, raw, war, waw, n),
    }
}

/// The dependence structure of a registration during which no task could
/// complete.
#[derive(Debug, PartialEq, Eq)]
struct EdgeStructure {
    /// Dependence edges as (pred spawn index, succ spawn index), sorted.
    edges: Vec<(usize, usize)>,
    /// Per-task edge count in spawn order (the `deps` of `Spawned`).
    deps: Vec<usize>,
    /// (edges_added, raw, war, waw, dependences_seen).
    counters: (u64, u64, u64, u64, u64),
}

fn edge_structure(cells: usize, ops: &[Op]) -> EdgeStructure {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_tracing(true));
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    let gate = Arc::new(AtomicBool::new(false));
    let ids = spawn_program(&rt, &handles, ops, Some(&gate));
    // All registrations done, nothing has completed: snapshot the
    // deterministic structure, then release the tasks and drain.
    let stats = rt.stats();
    // Hit/fallback accounting: every task has an access, and with one
    // spawning thread every registration takes the gate at the first try.
    assert_eq!(
        (
            stats.tracker_fast_path_hits,
            stats.tracker_fast_path_fallbacks
        ),
        (stats.tasks_spawned, 0),
        "one spawner: every registration is a fast-path hit"
    );
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

fn final_values(cells: usize, ops: &[Op]) -> Vec<u64> {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(3));
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    spawn_program(&rt, &handles, ops, None);
    rt.taskwait();
    let out = handles.iter().map(|h| rt.fetch(h)).collect();
    rt.shutdown();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With task completion gated off during spawning, the tracker
    /// discovers exactly the edge multiset, per-task dependence counts and
    /// edge-class counters the model predicts. (The name predates the
    /// one-gate tracker, when the reference was the one-shard
    /// configuration.)
    #[test]
    fn sharded_edge_structure_equals_single_shard(
        ops in proptest::collection::vec(op_strategy(4), 1..32),
    ) {
        prop_assert_eq!(&edge_structure(4, &ops), &model(4, &ops));
    }

    /// Ungated execution ends in exactly the sequential final values.
    #[test]
    fn sharded_execution_matches_sequential_semantics(
        ops in proptest::collection::vec(op_strategy(5), 1..48),
    ) {
        let expected = run_sequential_matching_tasks(5, &ops);
        prop_assert_eq!(&final_values(5, &ops), &expected);
    }
}

/// Run one program under the dcheck race oracle and return (final values,
/// race reports, audit verdict).
fn final_values_dcheck(cells: usize, ops: &[Op]) -> (Vec<u64>, Vec<ompss::RaceReport>, bool) {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(3).with_dcheck(true));
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

    /// Under the dcheck race oracle, random programs run with zero race
    /// reports and a clean audit: the tracker orders every conflicting
    /// pair, and the oracle agrees. (The name predates the one tracker
    /// configuration, when this ran a matrix of them.)
    #[test]
    fn tracker_matrix_is_race_free_under_dcheck(
        ops in proptest::collection::vec(op_strategy(4), 1..32),
    ) {
        let expected = run_sequential_matching_tasks(4, &ops);
        let (got, races, audit_ok) = final_values_dcheck(4, &ops);
        prop_assert_eq!(&got, &expected, "values diverged");
        prop_assert!(races.is_empty(), "races: {:?}", races);
        prop_assert!(audit_ok, "audit violation");
    }
}

/// A fixed two-stage pipeline whose structure is easy to reason about:
/// `n` producers over disjoint handles, each read by a consumer that also
/// folds into one shared sum. The edge list is exactly the `n` RAW
/// producer→consumer edges plus the `inout` chain through the sum. (The
/// name predates the one-gate tracker, when the edges were also spread over
/// several shards.)
#[test]
fn pipeline_edges_identical_and_spread_across_shards() {
    let n = 8;
    let run = || {
        let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_tracing(true));
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

    // Producers are tasks 0..n, consumers n..2n: producer i → consumer
    // n + i, and each consumer → the next through `sum`.
    let expected: Vec<(usize, usize)> = (0..n)
        .map(|i| (i, n + i))
        .chain((n..2 * n - 1).map(|c| (c, c + 1)))
        .collect();
    assert_eq!(run(), (expected, (1..=n as u64).sum::<u64>()));
}
