//! The dcheck race oracle and invariant auditor, exercised end to end.
//!
//! Two directions, both required for the oracle to mean anything:
//!
//! 1. **Soundness on correct schedules** — random task programs (plain and
//!    versioned handles, spawned, and replayed with and without drains) run
//!    under `with_dcheck(true)` and must produce *zero* race reports and a
//!    clean audit: the runtime's tracker orders every conflicting pair, and the
//!    oracle must agree.
//! 2. **Sensitivity to a missed edge** — a seeded mutation suppresses the
//!    clock merge of exactly one RAW edge, simulating a tracker that lost a
//!    dependence. The oracle must report exactly that W-R pair and nothing
//!    else. Without this test, an oracle that never fires would pass every
//!    other suite.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ompss::{Error, ReplayBindings, Runtime, RuntimeConfig};

/// One step of a random program over a fixed set of cells (the same shape
/// the plain property suite uses, so coverage carries over).
#[derive(Debug, Clone)]
enum Op {
    /// cells[dst] = constant (`output`)
    Set { dst: usize, value: u64 },
    /// cells[dst] += cells[src] (`inout` dst, `input` src)
    AddFrom { dst: usize, src: usize },
    /// cells[dst] *= 3 (`inout`)
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

fn spawn_op(rt: &Runtime, handles: &[ompss::Data<u64>], op: &Op) {
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

/// Everything the oracle accumulated over a drained runtime, pulled in one
/// place so every test asserts the same three facts.
struct OracleOutcome {
    races: Vec<ompss::RaceReport>,
    auto_audit: Vec<ompss::AuditViolation>,
    audit: std::result::Result<ompss::AuditReport, ompss::AuditViolation>,
}

fn oracle_outcome(rt: &Runtime) -> OracleOutcome {
    OracleOutcome {
        races: rt.take_dcheck_reports(),
        auto_audit: rt.take_dcheck_audit_violations(),
        audit: rt.audit(),
    }
}

/// Run a random program under dcheck and return the final values plus the
/// oracle's verdict.
fn run_checked(
    cells: usize,
    ops: &[Op],
    config: RuntimeConfig,
    versioned: bool,
) -> (Vec<u64>, OracleOutcome) {
    let rt = Runtime::new(config.with_dcheck(true));
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
        spawn_op(&rt, &handles, op);
    }
    rt.taskwait();
    let outcome = oracle_outcome(&rt);
    let values = handles.into_iter().map(|h| rt.into_inner(h)).collect();
    (values, outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random programs on plain handles: correct values, zero races, clean
    /// audit — across worker counts.
    #[test]
    fn random_programs_are_race_free_under_dcheck(
        ops in proptest::collection::vec(op_strategy(4), 1..48),
        workers in 1usize..5,
    ) {
        let expected = run_sequential(4, &ops);
        let (got, oracle) = run_checked(
            4,
            &ops,
            RuntimeConfig::default().with_workers(workers),
            false,
        );
        prop_assert_eq!(got, expected);
        prop_assert!(oracle.races.is_empty(), "races: {:?}", oracle.races);
        prop_assert!(oracle.auto_audit.is_empty(), "auto audit: {:?}", oracle.auto_audit);
        let report = oracle.audit.expect("drained runtime must audit clean");
        prop_assert!(report.quiescent);
        prop_assert_eq!(report.executed, ops.len() as u64);
    }

    /// Versioned handles add renaming: fresh allocation ids per version mean
    /// accesses to different versions of one cell never alias in the
    /// oracle's view — and the runtime's within-version ordering must still
    /// cover every remaining conflict.
    #[test]
    fn renamed_programs_are_race_free_under_dcheck(
        ops in proptest::collection::vec(op_strategy(4), 1..48),
        workers in 1usize..5,
    ) {
        let expected = run_sequential(4, &ops);
        let (got, oracle) = run_checked(
            4,
            &ops,
            RuntimeConfig::default().with_workers(workers),
            true,
        );
        prop_assert_eq!(got, expected);
        prop_assert!(oracle.races.is_empty(), "races: {:?}", oracle.races);
        prop_assert!(oracle.auto_audit.is_empty(), "auto audit: {:?}", oracle.auto_audit);
        prop_assert!(oracle.audit.is_ok());
    }

    /// A captured program replayed with a drain after each pass, then
    /// several passes back to back, must stay race-free through every pass:
    /// replays re-stamp the same nodes, so the oracle's per-epoch clocks
    /// have to be rebuilt correctly each drain.
    #[test]
    fn replayed_and_fused_programs_are_race_free_under_dcheck(
        ops in proptest::collection::vec(op_strategy(4), 1..24),
        replays in 1usize..3,
        back_to_back in 2usize..4,
    ) {
        let rt = Runtime::new(
            RuntimeConfig::default().with_workers(3).with_dcheck(true),
        );
        let handles: Vec<_> = (0..4).map(|_| rt.data(0u64)).collect();
        let mut scope = rt.capture();
        for op in &ops {
            capture_op(&mut scope, &handles, op);
        }
        let template = scope.finish();
        rt.taskwait();
        let bindings = ReplayBindings::new();
        for pass in 0..replays {
            prop_assert_eq!(rt.replay(&template, &bindings), pass as u64 + 1);
            rt.taskwait();
        }
        for pass in replays..replays + back_to_back {
            prop_assert_eq!(rt.replay(&template, &bindings), pass as u64 + 1);
        }
        rt.taskwait();

        // Oracle verdict over every pass (each drain ran its own check).
        let oracle = oracle_outcome(&rt);
        prop_assert!(oracle.races.is_empty(), "races: {:?}", oracle.races);
        prop_assert!(oracle.auto_audit.is_empty(), "auto audit: {:?}", oracle.auto_audit);
        let report = oracle.audit.expect("drained replay runtime must audit clean");
        prop_assert!(report.quiescent);

        // Values: capture pass + every replay, all sequential.
        let mut v = vec![0u64; 4];
        for _ in 0..(1 + replays + back_to_back) {
            for op in &ops {
                match *op {
                    Op::Set { dst, value } => v[dst] = value,
                    Op::AddFrom { dst, src } => v[dst] = v[dst].wrapping_add(v[src]),
                    Op::Triple { dst } => v[dst] = v[dst].wrapping_mul(3),
                }
            }
        }
        let got: Vec<u64> = handles.iter().map(|h| rt.fetch(h)).collect();
        prop_assert_eq!(got, v);
        rt.shutdown();
    }
}

/// A poisoned graph drains without tripping the oracle: poisoned bodies
/// never ran, so they logged no accesses, and the audit identity
/// (executed + poisoned + cancelled == spawned) still balances.
#[test]
fn poisoned_graph_audits_clean_under_dcheck() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_dcheck(true));
    let data = rt.data(0u64);
    {
        let d = data.clone();
        rt.task().inout(&d).spawn(move |ctx| {
            *ctx.write(&d) += 1;
        });
    }
    // Poison travels along live edges: the failing task is held until the
    // whole chain is registered behind it.
    let chain_spawned = Arc::new(AtomicBool::new(false));
    {
        let (d, go) = (data.clone(), chain_spawned.clone());
        rt.task().inout(&d).spawn(move |_ctx| {
            while !go.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            panic!("dcheck poison probe");
        });
    }
    for _ in 0..6 {
        let d = data.clone();
        rt.task().inout(&d).spawn(move |ctx| {
            *ctx.write(&d) += 1;
        });
    }
    chain_spawned.store(true, Ordering::SeqCst);
    let err = rt.try_taskwait().expect_err("panicked chain must poison");
    assert!(matches!(err, Error::Poisoned { .. }), "got {err}");
    assert_eq!(rt.take_panics().len(), 1);

    let oracle = oracle_outcome(&rt);
    assert!(
        oracle.races.is_empty(),
        "poison is not a race: {:?}",
        oracle.races
    );
    assert!(
        oracle.auto_audit.is_empty(),
        "auto audit: {:?}",
        oracle.auto_audit
    );
    let report = oracle.audit.expect("poisoned drain must still audit clean");
    assert!(report.quiescent);
    assert_eq!(report.spawned, 8);
    assert_eq!(report.executed + report.poisoned + report.cancelled, 8);
    assert_eq!(
        report.poisoned, 6,
        "the panicking task's successors poisoned"
    );
    rt.shutdown();
}

/// The mutation test: suppress the oracle's view of the RAW edge between
/// the first two spawned tasks (epoch indices 0 and 1). The runtime still
/// *enforces* the edge — execution stays correct — but the oracle must now
/// see an unordered write/read pair on the shared cell and report exactly
/// that W-R race, proving the checker actually discriminates.
#[test]
fn suppressed_raw_edge_is_reported_as_write_read_race() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_dcheck(true));
    rt.dcheck_suppress_edge(0, 1);
    let data = rt.data(0u64);
    let writer = {
        let d = data.clone();
        rt.task().name("writer").output(&d).spawn(move |ctx| {
            *ctx.write(&d) = 7;
        })
    };
    let reader = {
        let d = data.clone();
        rt.task().name("reader").input(&d).spawn(move |ctx| {
            assert_eq!(*ctx.read(&d), 7, "the real edge still ordered execution");
        })
    };
    rt.taskwait();

    let races = rt.take_dcheck_reports();
    assert_eq!(races.len(), 1, "exactly the suppressed pair: {races:?}");
    let race = &races[0];
    assert_eq!(race.kind(), "W-R");
    assert_eq!(race.first, writer);
    assert_eq!(race.second, reader);
    assert!(race.first_write && !race.second_write);

    // The mutation corrupts only the oracle's clocks, not the ledger: the
    // audit must still be clean, and the graph really did execute in order.
    assert!(rt.take_dcheck_audit_violations().is_empty());
    assert!(rt.audit().is_ok());
    assert!(rt.take_panics().is_empty(), "reader saw the written value");
    assert_eq!(rt.into_inner(data), 7);
    rt.shutdown();
}

/// After the mutation epoch is drained and reported, the next epoch starts
/// with fresh clocks: the same runtime running a correct program afterwards
/// reports nothing new.
#[test]
fn epoch_reset_clears_the_mutation() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_dcheck(true));
    rt.dcheck_suppress_edge(0, 1);
    let data = rt.data(0u64);
    for _ in 0..2 {
        let d = data.clone();
        rt.task().inout(&d).spawn(move |ctx| {
            *ctx.write(&d) += 1;
        });
    }
    rt.taskwait();
    assert_eq!(rt.take_dcheck_reports().len(), 1, "mutation epoch fires");

    // Epoch indices 0 and 1 are spent; the suppression pair can never match
    // again, so a fresh correct program must be silent.
    for _ in 0..8 {
        let d = data.clone();
        rt.task().inout(&d).spawn(move |ctx| {
            *ctx.write(&d) += 1;
        });
    }
    rt.taskwait();
    assert!(
        rt.take_dcheck_reports().is_empty(),
        "post-mutation epoch is clean"
    );
    assert!(rt.audit().is_ok());
    assert_eq!(rt.into_inner(data), 10);
    rt.shutdown();
}
