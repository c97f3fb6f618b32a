//! Property-based integration tests: randomly generated task programs
//! executed on the OmpSs-style runtime must produce exactly the result of
//! executing the same program sequentially in spawn order.
//!
//! This is the strongest end-to-end statement about the dependence system:
//! whatever interleaving the scheduler picks, the observable outcome equals
//! the sequential semantics of the annotated program.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ompss::{ReplayBindings, Runtime, RuntimeConfig, SchedulerPolicy};

/// One step of a random program over a fixed set of cells.
#[derive(Debug, Clone)]
enum Op {
    /// cells[dst] = constant
    Set { dst: usize, value: u64 },
    /// cells[dst] += cells[src] (reads src, read-modify-writes dst)
    AddFrom { dst: usize, src: usize },
    /// cells[dst] *= 3 (read-modify-write)
    Triple { dst: usize },
}

fn op_strategy(cells: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..cells, 0u64..100).prop_map(|(dst, value)| Op::Set { dst, value }),
        (0..cells, 0..cells).prop_map(|(dst, src)| Op::AddFrom { dst, src }),
        (0..cells).prop_map(|dst| Op::Triple { dst }),
    ]
}

/// Reference semantics: execute the ops in order on a plain vector.
fn run_sequential(cells: usize, ops: &[Op]) -> Vec<u64> {
    let mut v = vec![0u64; cells];
    for op in ops {
        match *op {
            Op::Set { dst, value } => v[dst] = value,
            Op::AddFrom { dst, src } => v[dst] = v[dst].wrapping_add(v[src]),
            Op::Triple { dst } => v[dst] = v[dst].wrapping_mul(3),
        }
    }
    v
}

/// Task semantics: one task per op, with accesses declared exactly as the op
/// needs them; the runtime's dependence analysis must reconstruct the
/// sequential order wherever it matters.
fn run_tasked(cells: usize, ops: &[Op], workers: usize, policy: SchedulerPolicy) -> Vec<u64> {
    run_tasked_with(
        cells,
        ops,
        RuntimeConfig::default()
            .with_workers(workers)
            .with_policy(policy),
        false,
    )
}

/// Like [`run_tasked`], with full control over the runtime configuration and
/// the choice of plain vs versioned (renaming-capable) handles.
fn run_tasked_with(
    cells: usize,
    ops: &[Op],
    config: RuntimeConfig,
    versioned: bool,
) -> Vec<u64> {
    let rt = Runtime::new(config);
    let handles: Vec<_> = (0..cells)
        .map(|_| {
            if versioned {
                rt.versioned_data(0u64)
            } else {
                rt.data(0u64)
            }
        })
        .collect();
    for op in ops {
        match *op {
            Op::Set { dst, value } => {
                let d = handles[dst].clone();
                rt.task().output(&d).spawn(move |ctx| {
                    *ctx.write(&d) = value;
                });
            }
            Op::AddFrom { dst, src } if dst != src => {
                let d = handles[dst].clone();
                let s = handles[src].clone();
                rt.task().inout(&d).input(&s).spawn(move |ctx| {
                    let add = *ctx.read(&s);
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(add);
                });
            }
            Op::AddFrom { dst, .. } => {
                // src == dst: a single inout access doubling the cell.
                let d = handles[dst].clone();
                rt.task().inout(&d).spawn(move |ctx| {
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_add(*d);
                });
            }
            Op::Triple { dst } => {
                let d = handles[dst].clone();
                rt.task().inout(&d).spawn(move |ctx| {
                    let mut d = ctx.write(&d);
                    *d = d.wrapping_mul(3);
                });
            }
        }
    }
    rt.taskwait();
    handles.into_iter().map(|h| rt.into_inner(h)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs over 4 cells on 3 workers match sequential semantics
    /// under the default (locality work-stealing) policy.
    #[test]
    fn random_programs_match_sequential_semantics(
        ops in proptest::collection::vec(op_strategy(4), 1..60),
    ) {
        let expected = run_sequential(4, &ops);
        let got = run_tasked(4, &ops, 3, SchedulerPolicy::LocalityWorkStealing);
        prop_assert_eq!(got, expected);
    }

    /// The result is independent of the scheduling policy.
    #[test]
    fn result_is_policy_independent(
        ops in proptest::collection::vec(op_strategy(3), 1..40),
    ) {
        let expected = run_sequential(3, &ops);
        for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::WorkStealing] {
            let got = run_tasked(3, &ops, 2, policy);
            prop_assert_eq!(&got, &expected, "policy {:?}", policy);
        }
    }

    /// The result is independent of the worker count.
    #[test]
    fn result_is_worker_count_independent(
        ops in proptest::collection::vec(op_strategy(5), 1..40),
        workers in 1usize..5,
    ) {
        let expected = run_sequential(5, &ops);
        let got = run_tasked(5, &ops, workers, SchedulerPolicy::LocalityWorkStealing);
        prop_assert_eq!(got, expected);
    }

    /// Automatic renaming preserves sequential semantics: the same random
    /// program over *versioned* handles, with renaming enabled, produces
    /// exactly the result of the renaming-free FIFO runtime (which itself
    /// matches plain sequential execution).
    #[test]
    fn renaming_preserves_sequential_semantics(
        ops in proptest::collection::vec(op_strategy(4), 1..60),
        workers in 1usize..5,
    ) {
        let reference = run_tasked_with(
            4,
            &ops,
            RuntimeConfig::default()
                .with_workers(1)
                .with_policy(SchedulerPolicy::Fifo)
                .with_renaming(false),
            true,
        );
        prop_assert_eq!(&reference, &run_sequential(4, &ops));
        let renamed = run_tasked_with(
            4,
            &ops,
            RuntimeConfig::default().with_workers(workers),
            true,
        );
        prop_assert_eq!(renamed, reference);
    }

    /// A starved rename budget only affects scheduling, never results.
    #[test]
    fn rename_backpressure_preserves_semantics(
        ops in proptest::collection::vec(op_strategy(3), 1..40),
        cap in 0usize..64,
    ) {
        let expected = run_sequential(3, &ops);
        let got = run_tasked_with(
            3,
            &ops,
            RuntimeConfig::default()
                .with_workers(3)
                .with_rename_memory_cap(cap)
                .with_rename_pool_depth(cap % 3),
            true,
        );
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------------
// Graph capture/replay: a random program captured once and replayed N times
// must match the sequential oracle after *every* replay pass — including
// when the template is dropped mid-run and a different program is
// re-captured on the same cells.
// ---------------------------------------------------------------------------

/// Spawn one op through a capture scope (the capture iteration runs it too).
fn capture_op(scope: &mut ompss::CaptureScope<'_>, handles: &[ompss::Data<u64>], op: &Op) {
    match *op {
        Op::Set { dst, value } => {
            let d = handles[dst].clone();
            scope.task().output(&d).spawn(move |ctx| {
                *ctx.write(&d) = value;
            });
        }
        Op::AddFrom { dst, src } if dst != src => {
            let d = handles[dst].clone();
            let s = handles[src].clone();
            scope.task().inout(&d).input(&s).spawn(move |ctx| {
                let add = *ctx.read(&s);
                let mut d = ctx.write(&d);
                *d = d.wrapping_add(add);
            });
        }
        Op::AddFrom { dst, .. } => {
            let d = handles[dst].clone();
            scope.task().inout(&d).spawn(move |ctx| {
                let mut d = ctx.write(&d);
                *d = d.wrapping_add(*d);
            });
        }
        Op::Triple { dst } => {
            let d = handles[dst].clone();
            scope.task().inout(&d).spawn(move |ctx| {
                let mut d = ctx.write(&d);
                *d = d.wrapping_mul(3);
            });
        }
    }
}

/// For each `(ops, replays)` segment: capture `ops` (running them once),
/// then replay the template `replays` times, draining and snapshotting the
/// cell values after every round. The template is dropped at the end of its
/// segment — the next segment re-captures from scratch, which is the
/// documented way to "invalidate" a template whose program changed.
fn replay_value_history(
    cells: usize,
    segments: &[(Vec<Op>, usize)],
    config: RuntimeConfig,
    versioned: bool,
) -> Vec<Vec<u64>> {
    let rt = Runtime::new(config);
    let handles: Vec<_> = (0..cells)
        .map(|_| {
            if versioned {
                rt.versioned_data(0u64)
            } else {
                rt.data(0u64)
            }
        })
        .collect();
    let snapshot = |rt: &Runtime| handles.iter().map(|h| rt.fetch(h)).collect::<Vec<u64>>();
    let mut history = Vec::new();
    let bindings = ReplayBindings::new();
    for (ops, replays) in segments {
        let mut scope = rt.capture();
        for op in ops {
            capture_op(&mut scope, &handles, op);
        }
        let template = scope.finish();
        rt.taskwait();
        history.push(snapshot(&rt));
        for pass in 0..*replays {
            assert_eq!(rt.replay(&template, &bindings), pass as u64 + 1);
            rt.taskwait();
            history.push(snapshot(&rt));
        }
    }
    rt.shutdown();
    history
}

/// The oracle counterpart: run each segment's ops sequentially `replays + 1`
/// times over the same persistent cells, snapshotting after every round.
fn sequential_history(cells: usize, segments: &[(Vec<Op>, usize)]) -> Vec<Vec<u64>> {
    let mut v = vec![0u64; cells];
    let mut history = Vec::new();
    for (ops, replays) in segments {
        for _ in 0..replays + 1 {
            for op in ops {
                match *op {
                    Op::Set { dst, value } => v[dst] = value,
                    Op::AddFrom { dst, src } => v[dst] = v[dst].wrapping_add(v[src]),
                    Op::Triple { dst } => v[dst] = v[dst].wrapping_mul(3),
                }
            }
            history.push(v.clone());
        }
    }
    history
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A captured random program replayed N times matches the sequential
    /// oracle after every pass, on plain handles.
    #[test]
    fn replayed_programs_match_sequential_semantics(
        ops in proptest::collection::vec(op_strategy(4), 1..32),
        replays in 1usize..4,
        workers in 1usize..4,
    ) {
        let segments = [(ops, replays)];
        let expected = sequential_history(4, &segments);
        let got = replay_value_history(
            4,
            &segments,
            RuntimeConfig::default().with_workers(workers),
            false,
        );
        prop_assert_eq!(got, expected);
    }

    /// Dropping a template mid-run and re-capturing a different program on
    /// the same cells keeps every subsequent replay consistent with the
    /// oracle — stale version/dependence state from the first template's
    /// passes must not leak into the second's.
    #[test]
    fn recaptured_templates_match_sequential_semantics(
        ops_a in proptest::collection::vec(op_strategy(4), 1..24),
        ops_b in proptest::collection::vec(op_strategy(4), 1..24),
        replays_a in 1usize..3,
        replays_b in 1usize..3,
    ) {
        let segments = [(ops_a, replays_a), (ops_b, replays_b)];
        let expected = sequential_history(4, &segments);
        let got = replay_value_history(
            4,
            &segments,
            RuntimeConfig::default().with_workers(3),
            false,
        );
        prop_assert_eq!(got, expected);
    }

    /// Replay over *versioned* handles: every pass re-runs renaming and
    /// elision against the live version chains, and still matches the
    /// oracle after every pass.
    #[test]
    fn replayed_programs_match_sequential_semantics_versioned(
        ops in proptest::collection::vec(op_strategy(3), 1..24),
        replays in 1usize..4,
    ) {
        let segments = [(ops, replays)];
        let expected = sequential_history(3, &segments);
        let got = replay_value_history(
            3,
            &segments,
            RuntimeConfig::default().with_workers(2),
            true,
        );
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------------
// Region-granularity renaming: random chunk/whole programs on a versioned
// partition must match sequential semantics.
// ---------------------------------------------------------------------------

/// One step of a random program over one partitioned vector plus a scalar
/// accumulator cell.
#[derive(Debug, Clone)]
enum PartOp {
    /// Overwrite chunk `c` with `value + index` (`output` on the chunk).
    FillChunk { c: usize, value: u64 },
    /// Add 1 to every element of chunk `c` (`inout` on the chunk).
    BumpChunk { c: usize },
    /// Overwrite the whole array with `value + index` (`output` on whole).
    FillWhole { value: u64 },
    /// acc += sum of chunk `c` (`input` chunk + `inout` acc).
    SumChunk { c: usize },
    /// acc += sum of the whole array (`input` whole + `inout` acc).
    SumWhole,
}

fn part_op_strategy(chunks: usize) -> impl Strategy<Value = PartOp> {
    prop_oneof![
        (0..chunks, 0u64..50).prop_map(|(c, value)| PartOp::FillChunk { c, value }),
        (0..chunks).prop_map(|c| PartOp::BumpChunk { c }),
        (0u64..50).prop_map(|value| PartOp::FillWhole { value }),
        (0..chunks).prop_map(|c| PartOp::SumChunk { c }),
        Just(PartOp::SumWhole),
    ]
}

/// Reference semantics on a plain vector.
fn run_part_sequential(len: usize, chunk_len: usize, ops: &[PartOp]) -> (Vec<u64>, u64) {
    let mut v = vec![0u64; len];
    let mut acc = 0u64;
    let range = |c: usize| (c * chunk_len)..((c + 1) * chunk_len).min(len);
    for op in ops {
        match *op {
            PartOp::FillChunk { c, value } => {
                for (i, slot) in v[range(c)].iter_mut().enumerate() {
                    *slot = value + i as u64;
                }
            }
            PartOp::BumpChunk { c } => {
                for slot in &mut v[range(c)] {
                    *slot = slot.wrapping_add(1);
                }
            }
            PartOp::FillWhole { value } => {
                for (i, slot) in v.iter_mut().enumerate() {
                    *slot = value + i as u64;
                }
            }
            PartOp::SumChunk { c } => {
                acc = acc.wrapping_add(v[range(c)].iter().sum::<u64>());
            }
            PartOp::SumWhole => acc = acc.wrapping_add(v.iter().sum::<u64>()),
        }
    }
    (v, acc)
}

/// Task semantics: one task per op on a **versioned** partition.
fn run_part_tasked(
    len: usize,
    chunk_len: usize,
    ops: &[PartOp],
    config: RuntimeConfig,
) -> (Vec<u64>, u64) {
    let rt = Runtime::new(config);
    let part = rt.versioned_partitioned(vec![0u64; len], chunk_len);
    let acc = rt.data(0u64);
    for op in ops {
        match *op {
            PartOp::FillChunk { c, value } => {
                let chunk = part.chunk(c);
                rt.task().output(&chunk).spawn(move |ctx| {
                    for (i, slot) in ctx.write_chunk(&chunk).iter_mut().enumerate() {
                        *slot = value + i as u64;
                    }
                });
            }
            PartOp::BumpChunk { c } => {
                let chunk = part.chunk(c);
                rt.task().inout(&chunk).spawn(move |ctx| {
                    for slot in ctx.write_chunk(&chunk).iter_mut() {
                        *slot = slot.wrapping_add(1);
                    }
                });
            }
            PartOp::FillWhole { value } => {
                let whole = part.whole();
                rt.task().output(&whole).spawn(move |ctx| {
                    let src: Vec<u64> = (0..whole.len()).map(|i| value + i as u64).collect();
                    ctx.scatter_whole(&whole, &src);
                });
            }
            PartOp::SumChunk { c } => {
                let chunk = part.chunk(c);
                let acc = acc.clone();
                rt.task().input(&chunk).inout(&acc).spawn(move |ctx| {
                    let sum = ctx.read_chunk(&chunk).iter().sum::<u64>();
                    let mut acc = ctx.write(&acc);
                    *acc = acc.wrapping_add(sum);
                });
            }
            PartOp::SumWhole => {
                let whole = part.whole();
                let acc = acc.clone();
                rt.task().input(&whole).inout(&acc).spawn(move |ctx| {
                    let sum = ctx.gather_whole(&whole).iter().sum::<u64>();
                    let mut acc = ctx.write(&acc);
                    *acc = acc.wrapping_add(sum);
                });
            }
        }
    }
    rt.taskwait();
    let acc = rt.fetch(&acc);
    (rt.into_vec(part), acc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random mixes of chunk/whole reads and writes on a versioned partition
    /// preserve sequential semantics, with renaming on.
    #[test]
    fn per_chunk_renaming_preserves_sequential_semantics(
        ops in proptest::collection::vec(part_op_strategy(3), 1..40),
        workers in 1usize..5,
    ) {
        let expected = run_part_sequential(8, 3, &ops);
        let got = run_part_tasked(
            8,
            3,
            &ops,
            RuntimeConfig::default().with_workers(workers),
        );
        prop_assert_eq!(got, expected);
    }

    /// The same programs with renaming disabled (pure serialisation) also
    /// match — and so do starved rename budgets (fallback paths).
    #[test]
    fn per_chunk_renaming_off_and_backpressure_preserve_semantics(
        ops in proptest::collection::vec(part_op_strategy(3), 1..30),
        cap in 0usize..128,
    ) {
        let expected = run_part_sequential(8, 3, &ops);
        let off = run_part_tasked(
            8,
            3,
            &ops,
            RuntimeConfig::default().with_workers(2).with_renaming(false),
        );
        prop_assert_eq!(&off, &expected);
        let starved = run_part_tasked(
            8,
            3,
            &ops,
            RuntimeConfig::default()
                .with_workers(3)
                .with_rename_memory_cap(cap)
                .with_rename_max_versions(2),
        );
        prop_assert_eq!(starved, expected);
    }
}

/// Graph-level claim of region granularity: WAR/WAW pairs on *disjoint
/// chunks* of one versioned partition produce zero dependence edges when
/// renaming is on — every band write gets its own version, so nothing
/// conflicts.
#[test]
fn disjoint_chunk_war_waw_pairs_produce_zero_edges() {
    let gate = Arc::new(AtomicUsize::new(0));
    let edge_counts = |renaming: bool| {
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(2)
                .with_renaming(renaming),
        );
        let part = rt.versioned_partitioned(vec![0u64; 32], 8);
        gate.store(0, Ordering::SeqCst);
        for round in 0..6u64 {
            for chunk in part.chunk_handles() {
                // Reader pinned by the gate so the next round's writer finds
                // it in flight (a genuine WAR hazard without renaming)...
                let reader = chunk.clone();
                let gate = gate.clone();
                rt.task().input(&reader).spawn(move |ctx| {
                    let _sum: u64 = ctx.read_chunk(&reader).iter().sum();
                    while gate.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                });
                // ... and the writer overwrites the same chunk (WAW vs the
                // previous round's writer).
                rt.task().output(&chunk).spawn(move |ctx| {
                    for (i, v) in ctx.write_chunk(&chunk).iter_mut().enumerate() {
                        *v = round * 100 + i as u64;
                    }
                });
            }
        }
        gate.store(1, Ordering::SeqCst);
        rt.taskwait();
        let stats = rt.stats();
        let out = rt.into_vec(part);
        assert_eq!(out[0], 500, "last round's writes are the final value");
        (stats.war_edges + stats.waw_edges, stats.chunk_renames)
    };

    let (false_edges_off, renames_off) = edge_counts(false);
    let (false_edges_on, renames_on) = edge_counts(true);
    assert_eq!(renames_off, 0);
    assert_eq!(
        false_edges_on, 0,
        "per-chunk renaming removes every WAR/WAW edge between disjoint-chunk pairs"
    );
    assert!(renames_on > 0, "chunk writes renamed");
    assert!(
        false_edges_off > 0,
        "without renaming the in-flight readers/writers serialise the bands"
    );
}

/// The headline claim of automatic renaming: a WAR/WAW chain (readers
/// followed by an overwriting task, repeated) serialises without renaming
/// and decouples with it — visible as a drop in graph edge counts.
#[test]
fn war_waw_chains_no_longer_serialise() {
    // Keep every reader in flight until the end so that each writer's
    // WAR/WAW edges are genuinely added in the no-renaming configuration.
    let gate = Arc::new(AtomicUsize::new(0));
    let edge_counts = |renaming: bool| {
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(2)
                .with_renaming(renaming),
        );
        let d = rt.versioned_data(0u64);
        let gate = gate.clone();
        gate.store(0, Ordering::SeqCst);
        for round in 0..10u64 {
            for _ in 0..3 {
                let d = d.clone();
                let gate = gate.clone();
                rt.task().input(&d).spawn(move |ctx| {
                    let _v = *ctx.read(&d);
                    while gate.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                });
            }
            let d = d.clone();
            rt.task().output(&d).spawn(move |ctx| {
                *ctx.write(&d) = round + 1;
            });
        }
        gate.store(1, Ordering::SeqCst);
        rt.taskwait();
        let stats = rt.stats();
        assert_eq!(rt.into_inner(d), 10, "final version committed on taskwait");
        (stats.edges_added, stats.war_edges + stats.waw_edges)
    };

    let (edges_off, false_off) = edge_counts(false);
    let (edges_on, false_on) = edge_counts(true);
    assert_eq!(false_on, 0, "renaming removes every WAR/WAW edge");
    assert!(false_off >= 10, "without renaming the chain serialises");
    assert!(
        edges_on < edges_off,
        "renaming must shrink the graph: {edges_on} vs {edges_off} edges"
    );
}

#[test]
fn partitioned_data_random_chunk_writers() {
    // Many tasks write random disjoint chunks, then a final task reads the
    // whole array; the read must observe every write.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(4));
    let data = rt.partitioned(vec![0u32; 400], 25);
    for round in 0..3u32 {
        for chunk in data.chunk_handles() {
            rt.task().output(&chunk).spawn(move |ctx| {
                for (i, v) in ctx.write_chunk(&chunk).iter_mut().enumerate() {
                    *v = round * 1000 + i as u32;
                }
            });
        }
    }
    let sum = rt.data(0u64);
    {
        let whole = data.whole();
        let sum = sum.clone();
        rt.task().input(&whole).inout(&sum).spawn(move |ctx| {
            *ctx.write(&sum) = ctx.read_whole(&whole).iter().map(|&v| v as u64).sum();
        });
    }
    rt.taskwait();
    let expected: u64 = (0..16u64)
        .flat_map(|_| (0..25u64).map(|i| 2000 + i))
        .sum();
    assert_eq!(rt.into_inner(sum), expected);
}
