//! Equivalence of template replay with fresh spawning.
//!
//! A [`GraphTemplate`] replay must be invisible except in insertion cost:
//! for any captured program, every replay pass must discover exactly the
//! dependence structure that spawning the same tasks freshly through
//! `TaskBuilder` discovers, and execution must produce exactly the values of
//! repeating the program sequentially — across shard counts {1, 2, 7, 16}
//! and with the task-node recycler on and off.
//!
//! The measurement idiom mirrors `tests/tracker_equivalence.rs`: task bodies
//! are *gated* on a shared flag, so nothing completes (and nothing retires)
//! while an iteration is being inserted — insertion is then deterministic,
//! and the edge multiset (from tracing `Edge` events), the per-task
//! dependence counts (`Spawned { deps }`), and the edge-class counter deltas
//! of the final fresh iteration must be byte-identical to those of the final
//! replay pass. Both sides drain (`taskwait`) between iterations, so each
//! measured segment starts from an empty dependence history.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ompss::{Data, GraphTemplate, PartitionedData, ReplayBindings, Runtime, RuntimeConfig, TraceEvent};

/// The shard counts the suite compares (matching `tracker_equivalence`).
const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// One step of a random program over a fixed set of cells.
#[derive(Debug, Clone)]
enum Op {
    /// cells[dst] = value (`output`)
    Set { dst: usize, value: u64 },
    /// cells[dst] += cells[src] (`inout` dst, `input` src)
    AddFrom { dst: usize, src: usize },
    /// cells[dst] = cells[dst] * 3 + 1 (`inout`)
    Scale { dst: usize },
    /// cells[dst] += k, commutatively (`concurrent`)
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

/// Reference semantics: the ops run sequentially, `rounds` times over the
/// same persistent cells (one round per fresh iteration / replay pass).
fn run_sequential_rounds(cells: usize, ops: &[Op], rounds: usize) -> Vec<u64> {
    let mut v = vec![0u64; cells];
    for _ in 0..rounds {
        for op in ops {
            match *op {
                Op::Set { dst, value } => v[dst] = value,
                Op::AddFrom { dst, src } if dst != src => {
                    v[dst] = v[dst].wrapping_add(v[src])
                }
                Op::AddFrom { dst, .. } => v[dst] = v[dst].wrapping_add(v[dst]),
                Op::Scale { dst } => v[dst] = v[dst].wrapping_mul(3).wrapping_add(1),
                Op::Accumulate { dst, k } => v[dst] = v[dst].wrapping_add(k),
            }
        }
    }
    v
}

/// Spawn one task per op through the plain builder. Bodies spin on `gate`
/// before doing their work, so nothing completes until the caller releases
/// the gate.
fn spawn_program(rt: &Runtime, handles: &[Data<u64>], ops: &[Op], gate: &Arc<AtomicBool>) {
    for op in ops {
        let gate = gate.clone();
        let wait = move || {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        match *op {
            Op::Set { dst, value } => {
                let d = handles[dst].clone();
                rt.task().output(&d).spawn(move |ctx| {
                    wait();
                    *ctx.write(&d) = value;
                });
            }
            Op::AddFrom { dst, src } if dst != src => {
                let d = handles[dst].clone();
                let s = handles[src].clone();
                rt.task().inout(&d).input(&s).spawn(move |ctx| {
                    wait();
                    let add = *ctx.read(&s);
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(add);
                });
            }
            Op::AddFrom { dst, .. } => {
                let d = handles[dst].clone();
                rt.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(*d);
                });
            }
            Op::Scale { dst } => {
                let d = handles[dst].clone();
                rt.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_mul(3).wrapping_add(1);
                });
            }
            Op::Accumulate { dst, k } => {
                let d = handles[dst].clone();
                rt.task().concurrent(&d).spawn(move |ctx| {
                    wait();
                    ctx.critical("replay-equivalence-acc", || {
                        let mut d = ctx.write(&d);
                        *d = d.wrapping_add(k);
                    });
                });
            }
        }
    }
}

/// The same program spawned through a capture scope: the capture iteration
/// runs now, and the recipes land in the scope's template.
fn capture_program(
    rt: &Runtime,
    handles: &[Data<u64>],
    ops: &[Op],
    gate: &Arc<AtomicBool>,
) -> GraphTemplate {
    let mut scope = rt.capture();
    for op in ops {
        let gate = gate.clone();
        let wait = move || {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        match *op {
            Op::Set { dst, value } => {
                let d = handles[dst].clone();
                scope.task().output(&d).spawn(move |ctx| {
                    wait();
                    *ctx.write(&d) = value;
                });
            }
            Op::AddFrom { dst, src } if dst != src => {
                let d = handles[dst].clone();
                let s = handles[src].clone();
                scope.task().inout(&d).input(&s).spawn(move |ctx| {
                    wait();
                    let add = *ctx.read(&s);
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(add);
                });
            }
            Op::AddFrom { dst, .. } => {
                let d = handles[dst].clone();
                scope.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(*d);
                });
            }
            Op::Scale { dst } => {
                let d = handles[dst].clone();
                scope.task().inout(&d).spawn(move |ctx| {
                    wait();
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_mul(3).wrapping_add(1);
                });
            }
            Op::Accumulate { dst, k } => {
                let d = handles[dst].clone();
                scope.task().concurrent(&d).spawn(move |ctx| {
                    wait();
                    ctx.critical("replay-equivalence-acc", || {
                        let mut d = ctx.write(&d);
                        *d = d.wrapping_add(k);
                    });
                });
            }
        }
    }
    scope.finish()
}

/// Everything that must be identical between the final fresh iteration and
/// the final replay pass, when no task can complete during insertion.
#[derive(Debug, PartialEq, Eq)]
struct InsertionStructure {
    /// Dependence edges as (pred insertion index, succ insertion index),
    /// sorted — indices are positions in the segment's `Spawned` order.
    edges: Vec<(usize, usize)>,
    /// Per-task dependence count in insertion order (`Spawned { deps }`).
    deps: Vec<usize>,
    /// Deltas over the measured segment:
    /// (tasks_spawned, edges_added, raw, war, waw, dependences_seen).
    counters: (u64, u64, u64, u64, u64, u64),
}

fn runtime_for(shards: usize, recycler: bool) -> Runtime {
    Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tracker_shards(shards)
            .with_task_recycler(recycler)
            .with_tracing(true),
    )
}

/// Build the structure of one trace segment (events recorded between the
/// previous drain and the end of this iteration's insertion).
fn segment_structure(
    seg: &[TraceEvent],
    expected_tasks: usize,
    shards: usize,
    before: &ompss::RuntimeStats,
    after: &ompss::RuntimeStats,
) -> InsertionStructure {
    let mut order: Vec<ompss::TaskId> = Vec::new();
    let mut deps = Vec::new();
    for ev in seg {
        if let TraceEvent::Spawned { task, deps: d, .. } = ev {
            order.push(*task);
            deps.push(*d);
        }
    }
    assert_eq!(order.len(), expected_tasks, "one Spawned event per task");
    let index_of = |id: ompss::TaskId| order.iter().position(|t| *t == id);
    let mut edges = Vec::new();
    for ev in seg {
        if let TraceEvent::Edge { task, from, shard, .. } = ev {
            assert!(*shard < shards, "edge shard id out of range");
            let (Some(f), Some(t)) = (index_of(*from), index_of(*task)) else {
                // The previous iteration fully drained, so its (retired)
                // tasks must take no edges from this one.
                panic!("edge references a task outside the measured iteration");
            };
            edges.push((f, t));
        }
    }
    edges.sort_unstable();
    InsertionStructure {
        edges,
        deps,
        counters: (
            after.tasks_spawned - before.tasks_spawned,
            after.edges_added - before.edges_added,
            after.raw_edges - before.raw_edges,
            after.war_edges - before.war_edges,
            after.waw_edges - before.waw_edges,
            after.dependences_seen - before.dependences_seen,
        ),
    }
}

/// Run `rounds` gated fresh iterations of the program; return the structure
/// of the final iteration and the final cell values.
fn fresh(
    shards: usize,
    recycler: bool,
    cells: usize,
    ops: &[Op],
    rounds: usize,
) -> (InsertionStructure, Vec<u64>) {
    let rt = runtime_for(shards, recycler);
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    let gate = Arc::new(AtomicBool::new(false));
    let mut structure = None;
    for round in 0..rounds {
        gate.store(false, Ordering::Release);
        let skip = rt.trace().len();
        let before = rt.stats();
        spawn_program(&rt, &handles, ops, &gate);
        if round == rounds - 1 {
            let after = rt.stats();
            let trace = rt.trace();
            structure = Some(segment_structure(
                &trace[skip..],
                ops.len(),
                shards,
                &before,
                &after,
            ));
        }
        gate.store(true, Ordering::Release);
        rt.taskwait();
    }
    let values = handles.iter().map(|h| rt.fetch(h)).collect();
    rt.shutdown();
    (structure.expect("at least one round"), values)
}

/// Capture one gated iteration, then run `replays` gated replay passes;
/// return the structure of the final pass and the final cell values.
fn replayed(
    shards: usize,
    recycler: bool,
    cells: usize,
    ops: &[Op],
    replays: usize,
) -> (InsertionStructure, Vec<u64>) {
    let rt = runtime_for(shards, recycler);
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    let gate = Arc::new(AtomicBool::new(false));
    let template = capture_program(&rt, &handles, ops, &gate);
    assert_eq!(template.len(), ops.len());
    gate.store(true, Ordering::Release);
    rt.taskwait();

    let bindings = ReplayBindings::new();
    let mut structure = None;
    for pass in 0..replays {
        gate.store(false, Ordering::Release);
        let skip = rt.trace().len();
        let before = rt.stats();
        let stamped = rt.replay(&template, &bindings);
        assert_eq!(stamped, pass as u64 + 1, "passes number from 1");
        if pass == replays - 1 {
            let after = rt.stats();
            let trace = rt.trace();
            structure = Some(segment_structure(
                &trace[skip..],
                ops.len(),
                shards,
                &before,
                &after,
            ));
        }
        gate.store(true, Ordering::Release);
        rt.taskwait();
    }
    assert_eq!(template.passes(), replays as u64);
    let values = handles.iter().map(|h| rt.fetch(h)).collect();
    rt.shutdown();
    (structure.expect("at least one pass"), values)
}

/// A fixed workload exercising every access kind and every edge class:
/// RAW (AddFrom after Set), WAR (Set after a read), WAW (Set after Set),
/// inout chains (Scale) and commutative clusters (Accumulate).
fn demo_ops() -> Vec<Op> {
    vec![
        Op::Set { dst: 0, value: 5 },
        Op::Set { dst: 1, value: 7 },
        Op::AddFrom { dst: 2, src: 0 },
        Op::AddFrom { dst: 2, src: 1 },
        Op::Scale { dst: 2 },
        Op::Accumulate { dst: 3, k: 2 },
        Op::Accumulate { dst: 3, k: 3 },
        Op::AddFrom { dst: 0, src: 2 },
        Op::Set { dst: 1, value: 1 },
        Op::AddFrom { dst: 1, src: 3 },
        Op::Scale { dst: 0 },
        Op::AddFrom { dst: 3, src: 3 },
    ]
}

/// The full configuration grid: shard counts {1, 2, 7, 16} × recycler
/// {on, off}. The final replay pass must discover byte-identical edge
/// multisets, per-task dependence counts, and counter deltas as the final
/// fresh iteration, and both must end in the sequential values.
#[test]
fn replay_structure_and_values_match_fresh_across_grid() {
    let ops = demo_ops();
    let rounds = 3; // capture + 2 replays on the replay side
    let expected = run_sequential_rounds(4, &ops, rounds);
    for shards in SHARD_COUNTS {
        for recycler in [true, false] {
            let (fresh_structure, fresh_values) = fresh(shards, recycler, 4, &ops, rounds);
            let (replay_structure, replay_values) =
                replayed(shards, recycler, 4, &ops, rounds - 1);
            assert_eq!(
                replay_structure, fresh_structure,
                "shards = {shards}, recycler = {recycler}"
            );
            assert_eq!(
                fresh_values, expected,
                "fresh values, shards = {shards}, recycler = {recycler}"
            );
            assert_eq!(
                replay_values, expected,
                "replay values, shards = {shards}, recycler = {recycler}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random programs: the final replay pass matches the final fresh
    /// iteration structurally, and both match sequential semantics, on a
    /// single-shard and a multi-shard tracker.
    #[test]
    fn prop_replay_equals_fresh(
        ops in proptest::collection::vec(op_strategy(4), 1..24),
    ) {
        let expected = run_sequential_rounds(4, &ops, 3);
        for shards in [1usize, 7] {
            let (fresh_structure, fresh_values) = fresh(shards, true, 4, &ops, 3);
            let (replay_structure, replay_values) = replayed(shards, true, 4, &ops, 2);
            prop_assert_eq!(&replay_structure, &fresh_structure, "shards = {}", shards);
            prop_assert_eq!(&fresh_values, &expected, "fresh, shards = {}", shards);
            prop_assert_eq!(&replay_values, &expected, "replay, shards = {}", shards);
        }
    }
}

/// `Captured` and `Replayed` trace events carry the batch size and the pass
/// number, and there is exactly one `Replayed` per replay call.
#[test]
fn capture_and_replay_trace_events() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_tracing(true));
    let a = rt.data(0u64);
    let gate = Arc::new(AtomicBool::new(true));
    let ops = vec![Op::Set { dst: 0, value: 3 }, Op::Scale { dst: 0 }];
    let template = capture_program(&rt, std::slice::from_ref(&a), &ops, &gate);
    rt.taskwait();
    for _ in 0..3 {
        rt.replay(&template, &ReplayBindings::new());
        rt.taskwait();
    }
    let trace = rt.trace();
    let captured: Vec<usize> = trace
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Captured { tasks, .. } => Some(*tasks),
            _ => None,
        })
        .collect();
    assert_eq!(captured, vec![2]);
    let replayed: Vec<(usize, u64)> = trace
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Replayed { tasks, pass, .. } => Some((*tasks, *pass)),
            _ => None,
        })
        .collect();
    assert_eq!(replayed, vec![(2, 1), (2, 2), (2, 3)]);
    // Plain handles: pass 1 resolves (and freezes the template), passes
    // 2 and 3 stamp through the pre-wired plan.
    assert!(template.is_frozen());
    let prewired: Vec<bool> = trace
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Replayed { prewired, .. } => Some(*prewired),
            _ => None,
        })
        .collect();
    assert_eq!(prewired, vec![false, true, true]);
    rt.shutdown();
}

/// Replaying a template on a runtime other than the one that captured it is
/// a programming error and must panic, not silently stamp into the wrong
/// tracker.
#[test]
#[should_panic(expected = "different Runtime")]
fn replaying_on_another_runtime_panics() {
    let rt1 = Runtime::new(RuntimeConfig::default().with_workers(1));
    let rt2 = Runtime::new(RuntimeConfig::default().with_workers(1));
    let a = rt1.data(0u64);
    let mut scope = rt1.capture();
    {
        let a = a.clone();
        scope.task().inout(&a).spawn(move |ctx| *ctx.write(&a) += 1);
    }
    let template = scope.finish();
    rt1.taskwait();
    rt2.replay(&template, &ReplayBindings::new());
}

/// Listing 1's circular-buffer pipeline, captured once and replayed with
/// [`RenameRing::rebind`] bindings: clause substitution rotates the slot the
/// dependences bind to, and the bodies pick their slot from the pass number,
/// so `passes` replays of a one-iteration template compute the same result
/// as writing the pipeline out iteration by iteration.
#[test]
fn rename_ring_rebind_rotates_replayed_slots() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let ring = ompss::RenameRing::new(3, |_| 0u64);
    let slots: Vec<Data<u64>> = ring.iter().cloned().collect();
    let sum = rt.data(0u64);

    // Capture iteration 0: a producer fills slot 0, a consumer folds it
    // into `sum`. Bodies address slot `pass % depth` — iteration 0 is the
    // capture itself (`replay_pass() == 0`), pass k is iteration k.
    let mut scope = rt.capture();
    {
        let slots = slots.clone();
        scope
            .task()
            .output(ring.slot(0))
            .spawn(move |ctx| {
                let k = ctx.replay_pass() as usize;
                *ctx.write(&slots[k % 3]) = k as u64 * 10;
            });
    }
    {
        let slots = slots.clone();
        let sum = sum.clone();
        scope
            .task()
            .input(ring.slot(0))
            .inout(&sum)
            .spawn(move |ctx| {
                let k = ctx.replay_pass() as usize;
                let v = *ctx.read(&slots[k % 3]);
                *ctx.write(&sum) += v;
            });
    }
    let template = scope.finish();
    rt.taskwait();

    let mut bindings = ReplayBindings::new();
    for iteration in 1..=5usize {
        bindings.clear();
        ring.rebind(&mut bindings, 0, iteration);
        let pass = rt.replay(&template, &bindings);
        assert_eq!(pass as usize, iteration);
        // Bound passes must never freeze the template (and the versioned
        // slots would forbid it anyway — see
        // `versioned_template_never_freezes`).
        assert!(!template.is_frozen(), "bound replay froze the template");
    }
    rt.taskwait();
    // Iteration k contributes 10k: 0 + 10 + 20 + 30 + 40 + 50.
    assert_eq!(rt.fetch(&sum), 150);
    rt.shutdown();
}

/// Capture the program, optionally run one warm (drained) replay so the
/// template freezes, then stamp `k` more passes gated as one measured
/// segment — either one [`Runtime::replay_fused`] super-batch or `k`
/// sequential [`Runtime::replay`] calls with no drain between them — and
/// return the segment's structure plus the final cell values.
fn replayed_multi(
    shards: usize,
    recycler: bool,
    cells: usize,
    ops: &[Op],
    k: usize,
    fused: bool,
    warm: bool,
) -> (InsertionStructure, Vec<u64>) {
    let rt = runtime_for(shards, recycler);
    let handles: Vec<Data<u64>> = (0..cells).map(|_| rt.data(0u64)).collect();
    let gate = Arc::new(AtomicBool::new(false));
    let template = capture_program(&rt, &handles, ops, &gate);
    gate.store(true, Ordering::Release);
    rt.taskwait();
    assert!(!template.is_frozen(), "capture alone must not freeze");
    if warm {
        rt.replay(&template, &ReplayBindings::new());
        rt.taskwait();
        assert!(
            template.is_frozen(),
            "a pure empty-bindings pass freezes a plain-handle template"
        );
    }

    gate.store(false, Ordering::Release);
    let skip = rt.trace().len();
    let before = rt.stats();
    if fused {
        let last = rt.replay_fused(&template, k);
        assert_eq!(last, warm as u64 + k as u64, "fused passes number from 1");
    } else {
        let bindings = ReplayBindings::new();
        for _ in 0..k {
            rt.replay(&template, &bindings);
        }
    }
    let after = rt.stats();
    let trace = rt.trace();
    let structure = segment_structure(
        &trace[skip..],
        ops.len() * k,
        shards,
        &before,
        &after,
    );
    gate.store(true, Ordering::Release);
    rt.taskwait();
    assert_eq!(template.passes(), warm as u64 + k as u64);
    let values = handles.iter().map(|h| rt.fetch(h)).collect();
    rt.shutdown();
    (structure, values)
}

/// One `replay_fused(k)` super-batch must discover byte-identical structure
/// (edge multiset over all k·n tasks, per-task dependence counts, counter
/// deltas) to `k` sequential `replay` calls with no drain between them —
/// including the carried inter-iteration dependences — across the full
/// shard × recycler grid, both before the template freezes (fused resolved
/// insertion) and after (fused pre-wired insertion).
#[test]
fn fused_replay_matches_sequential_replays_across_grid() {
    let ops = demo_ops();
    let k = 2;
    for warm in [false, true] {
        let rounds = 1 + usize::from(warm) + k; // capture + warm + measured
        let expected = run_sequential_rounds(4, &ops, rounds);
        for shards in SHARD_COUNTS {
            for recycler in [true, false] {
                let (seq_structure, seq_values) =
                    replayed_multi(shards, recycler, 4, &ops, k, false, warm);
                let (fused_structure, fused_values) =
                    replayed_multi(shards, recycler, 4, &ops, k, true, warm);
                assert_eq!(
                    fused_structure, seq_structure,
                    "shards = {shards}, recycler = {recycler}, warm = {warm}"
                );
                assert_eq!(
                    seq_values, expected,
                    "sequential values, shards = {shards}, recycler = {recycler}, warm = {warm}"
                );
                assert_eq!(
                    fused_values, expected,
                    "fused values, shards = {shards}, recycler = {recycler}, warm = {warm}"
                );
            }
        }
    }
}

/// A template over **versioned** handles must never freeze, even across
/// empty-bindings passes: every pass produces version tickets, so clause
/// resolution is not pass-invariant and every `Replayed` event reports the
/// resolved (non-pre-wired) path.
#[test]
fn versioned_template_never_freezes() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_tracing(true));
    let v = rt.versioned_data(0u64);
    let out = rt.data(0u64);
    let mut scope = rt.capture();
    {
        let v = v.clone();
        scope.task().output(&v).spawn(move |ctx| *ctx.write(&v) = 7);
    }
    {
        let v = v.clone();
        let out = out.clone();
        scope.task().input(&v).inout(&out).spawn(move |ctx| {
            let add = *ctx.read(&v);
            *ctx.write(&out) += add;
        });
    }
    let template = scope.finish();
    rt.taskwait();
    for _ in 0..3 {
        rt.replay(&template, &ReplayBindings::new());
        rt.taskwait();
        assert!(!template.is_frozen(), "versioned template froze");
    }
    let prewired: Vec<bool> = rt
        .trace()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Replayed { prewired, .. } => Some(*prewired),
            _ => None,
        })
        .collect();
    assert_eq!(prewired, vec![false, false, false]);
    // Capture + 3 passes, each writing 7 then folding it in.
    assert_eq!(rt.fetch(&out), 28);
    rt.shutdown();
}

/// Spawn a gated no-op task on `chunk`, minting its region id in the live
/// history while the gate is closed.
fn spawn_chunk_disturbance(rt: &Runtime, chunk: &ompss::Chunk<u64>, gate: &Arc<AtomicBool>) {
    let gate = gate.clone();
    rt.task().inout(chunk).spawn(move |_ctx| {
        while !gate.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    });
}

/// A frozen template whose allocation gains a second live region id mid-run
/// — here a gated task on a sibling chunk of the same allocation, the same
/// live-state change a rename would make — must fail plan validation for
/// that pass and fall back to resolved-per-pass insertion, keep the plan,
/// and recover the pre-wired path once the disturbance drains (the
/// quiescent `taskwait` garbage-collects the stale region id).
#[test]
fn sibling_chunk_mid_run_forces_fallback_then_recovers() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_tracing(true));
    let part = PartitionedData::new(vec![0u64, 0], 1);
    let c0 = part.chunk(0);
    let acc = rt.data(0u64);
    let gate = Arc::new(AtomicBool::new(false));

    let mut scope = rt.capture();
    {
        let c0 = c0.clone();
        let gate = gate.clone();
        scope.task().inout(&c0).spawn(move |ctx| {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            ctx.write_chunk(&c0)[0] += 1;
        });
    }
    {
        let c0 = c0.clone();
        let acc = acc.clone();
        let gate = gate.clone();
        scope.task().input(&c0).inout(&acc).spawn(move |ctx| {
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let add = ctx.read_chunk(&c0)[0];
            *ctx.write(&acc) += add;
        });
    }
    let template = scope.finish();
    gate.store(true, Ordering::Release);
    rt.taskwait();

    // Pass 1 resolves (and freezes); pass 2 stamps pre-wired.
    rt.replay(&template, &ReplayBindings::new());
    rt.taskwait();
    assert!(template.is_frozen());
    rt.replay(&template, &ReplayBindings::new());
    rt.taskwait();

    // Pass 3: while a gated task holds chunk 1 live, the template's
    // allocation carries a region id the plan does not know — validation
    // must reject the pre-wired path for this pass only.
    gate.store(false, Ordering::Release);
    spawn_chunk_disturbance(&rt, &part.chunk(1), &gate);
    rt.replay(&template, &ReplayBindings::new());
    gate.store(true, Ordering::Release);
    rt.taskwait();
    assert!(template.is_frozen(), "fallback must keep the plan");

    // Pass 4: disturbance drained and garbage-collected; pre-wired again.
    rt.replay(&template, &ReplayBindings::new());
    rt.taskwait();

    let prewired: Vec<bool> = rt
        .trace()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Replayed { prewired, .. } => Some(*prewired),
            _ => None,
        })
        .collect();
    assert_eq!(prewired, vec![false, true, false, true]);
    // chunk 0 increments once per round (capture + 4 passes) and each
    // round folds the running value into `acc`: 1 + 2 + 3 + 4 + 5.
    assert_eq!(rt.fetch(&acc), 15);
    rt.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random interleavings of clean passes, passes with a live
    /// sibling-chunk disturbance on a frozen allocation (the mid-run
    /// invalidation), and passes with non-empty bindings: every pass that
    /// cannot use the plan must fall back to resolved-per-pass insertion
    /// (pinned through `Replayed.prewired`), the plan must survive, and
    /// every pass must compute the sequential values.
    #[test]
    fn prop_invalidated_passes_fall_back_with_correct_values(
        actions in proptest::collection::vec(0u8..3, 1..8),
    ) {
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(2)
                .with_tracker_shards(7)
                .with_tracing(true),
        );
        let part = PartitionedData::new(vec![0u64, 0], 1);
        let c0 = part.chunk(0);
        let acc = rt.data(0u64);
        let spare = rt.data(0u64);
        let gate = Arc::new(AtomicBool::new(false));

        let mut scope = rt.capture();
        {
            let c0 = c0.clone();
            let gate = gate.clone();
            scope.task().inout(&c0).spawn(move |ctx| {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                ctx.write_chunk(&c0)[0] += 1;
            });
        }
        // Passes with a binding redirect the `inout(acc)` clause to
        // `spare`; the body follows the driver-set flag so it writes
        // through the handle whose access the pass actually declared
        // (bindings substitute the dependence, not the body's storage —
        // passes are drained, so the flag cannot race).
        let bound_now = Arc::new(AtomicBool::new(false));
        {
            let c0 = c0.clone();
            let acc = acc.clone();
            let spare = spare.clone();
            let gate = gate.clone();
            let bound_now = bound_now.clone();
            scope.task().input(&c0).inout(&acc).spawn(move |ctx| {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let add = ctx.read_chunk(&c0)[0];
                let target = if bound_now.load(Ordering::Acquire) {
                    &spare
                } else {
                    &acc
                };
                *ctx.write(target) += add;
            });
        }
        let template = scope.finish();
        gate.store(true, Ordering::Release);
        rt.taskwait();

        // Warm pass: resolved, freezes the template.
        rt.replay(&template, &ReplayBindings::new());
        rt.taskwait();
        prop_assert!(template.is_frozen());

        // Oracle: chunk 0 increments once per round; each round folds the
        // running value into the pass's accumulator (`spare` on bound
        // passes, `acc` otherwise).
        let mut expect_c0 = 2u64; // capture + warm pass
        let mut expect_acc = 3u64; // 1 + 2
        let mut expect_spare = 0u64;
        let mut expected_prewired = vec![false]; // the warm pass

        for &action in &actions {
            gate.store(false, Ordering::Release);
            bound_now.store(action == 2, Ordering::Release);
            if action == 1 {
                spawn_chunk_disturbance(&rt, &part.chunk(1), &gate);
            }
            let mut bindings = ReplayBindings::new();
            if action == 2 {
                bindings.bind(&acc, &spare);
            }
            rt.replay(&template, &bindings);
            gate.store(true, Ordering::Release);
            rt.taskwait();
            expect_c0 += 1;
            if action == 2 {
                expect_spare += expect_c0;
            } else {
                expect_acc += expect_c0;
            }
            expected_prewired.push(action == 0);
            prop_assert!(template.is_frozen(), "plan lost after action {}", action);
        }

        let prewired: Vec<bool> = rt
            .trace()
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Replayed { prewired, .. } => Some(*prewired),
                _ => None,
            })
            .collect();
        prop_assert_eq!(prewired, expected_prewired);
        prop_assert_eq!(rt.fetch(&acc), expect_acc);
        prop_assert_eq!(rt.fetch(&spare), expect_spare);
        rt.shutdown();
    }
}

/// A replay whose bindings fold two captured versioned handles onto one
/// target clashes exactly as the fresh-spawn loop it stands for would: the
/// recipes before the clashing one are inserted and run, the clashing
/// recipe's bindings — the renames it had already allocated and the versions
/// its earlier clauses had bound — are released, and only then does the
/// write-clash panic propagate. Nothing stays pinned, the ticket ledger
/// balances, and the template is as replayable as before.
#[test]
fn replay_write_clash_inserts_the_prefix_and_releases_the_rest() {
    // No recycle pool: a released never-current version returns its bytes to
    // the budget instead of parking them, so `rename_bytes_held` reads zero.
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_rename_pool_depth(0),
    );
    let a = rt.versioned_data(1u64);
    let b = rt.versioned_data(2u64);
    let c = rt.versioned_data(3u64);
    let total = rt.data(0u64);
    // The program, folded sequentially: `upto` recipes of one pass.
    let fold = |s: &mut [u64; 4], upto: usize| {
        let [a, b, c, total] = s;
        if upto > 0 {
            *total += *a;
        }
        if upto > 1 {
            *total += *c;
        }
        if upto > 2 {
            *a = *c + 1;
            *b = *c + 2;
        }
    };
    let mut scope = rt.capture();
    {
        let (a, total) = (a.clone(), total.clone());
        scope.task().input(&a).inout(&total).spawn(move |ctx| {
            let add = *ctx.read(&a);
            *ctx.write(&total) += add;
        });
    }
    {
        let (c, total) = (c.clone(), total.clone());
        scope.task().input(&c).inout(&total).spawn(move |ctx| {
            let add = *ctx.read(&c);
            *ctx.write(&total) += add;
        });
    }
    // Drain first, so the capture iteration's two outputs elide (nobody
    // holds `a` or `b`) and the run starts with no renamed version live.
    rt.taskwait();
    {
        let (a, b, c) = (a.clone(), b.clone(), c.clone());
        scope.task().input(&c).output(&a).output(&b).spawn(move |ctx| {
            let v = *ctx.read(&c);
            *ctx.write(&a) = v + 1;
            *ctx.write(&b) = v + 2;
        });
    }
    let template = scope.finish();
    rt.taskwait();
    let mut expected = [1u64, 2, 3, 0];
    fold(&mut expected, 3);
    assert_eq!(rt.stats().rename_bytes_held, 0, "the capture iteration elided");

    // `b` folded onto `a`: recipe 2 now declares `output(a)` twice. By then
    // its `input(c)` is bound and its first `output(a)` has renamed (recipe
    // 0's unstarted read holds `a`'s current version).
    let mut bindings = ReplayBindings::new();
    bindings.bind(&b, &a);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.replay(&template, &bindings);
    }))
    .expect_err("the folded bindings clash");
    let message = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        message.contains("more than one writing access"),
        "the builder's own rejection propagates: {message}"
    );
    rt.taskwait();
    fold(&mut expected, 2);
    for (name, handle) in [("a", &a), ("b", &b), ("c", &c)] {
        assert_eq!(handle.live_versions(), 1, "a version of `{name}` stayed pinned");
    }
    let stats = rt.stats();
    assert_eq!(stats.rename_bytes_held, 0, "an uncommitted rename kept its bytes");
    assert_eq!(stats.tasks_executed, stats.tasks_spawned);
    let report = rt.audit().expect("ledgers balance after the clash");
    assert_eq!(report.ticket_refs_bound, report.ticket_refs_released);
    assert_eq!(rt.fetch(&total), expected[3], "recipes 0 and 1 were inserted and ran");
    assert_eq!(rt.fetch(&a), expected[0], "recipe 2 never ran");

    // The template is untouched: an empty-binding pass is a whole pass.
    rt.replay(&template, &ReplayBindings::new());
    rt.taskwait();
    fold(&mut expected, 3);
    let got = [rt.fetch(&a), rt.fetch(&b), rt.fetch(&c), rt.fetch(&total)];
    assert_eq!(got, expected);
    assert!(rt.take_panics().is_empty());
    rt.audit().expect("ledgers balance after the clean pass");
    rt.shutdown();
}
