//! End-to-end failure semantics of the core runtime: cancel scopes,
//! deterministic fault injection (panics, delays, rename exhaustion,
//! tracker fallbacks), and the drain-clean guarantee — however a graph is
//! poisoned or cancelled, every node retires, every diagnostic returns to
//! zero, and unaffected results stay exact.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use ompss::{Error, FaultClass, FaultPlan, Runtime, RuntimeConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Deterministic tests
// ---------------------------------------------------------------------------

/// Cancelling a scope retires every not-yet-started task without running it:
/// the first pending task is counted `cancelled` and becomes the poison
/// origin, its successors are counted `poisoned`, and the already-running
/// task's effect commits.
#[test]
fn cancel_scope_retires_pending_tasks_without_running_them() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let token = rt.cancel_scope();
    let data = rt.data(0u64);
    let (started_tx, started_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    rt.with_cancel_scope(&token, || {
        {
            let h = data.clone();
            rt.task().name("gate").inout(&h).spawn(move |ctx| {
                started_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                *ctx.write(&h) += 1;
            });
        }
        for _ in 0..19 {
            let h = data.clone();
            rt.task().inout(&h).spawn(move |ctx| *ctx.write(&h) += 1);
        }
    });
    // The gate task is running and immune to cancellation; the 19 serialized
    // successors have not started.
    started_rx.recv().unwrap();
    token.cancel();
    go_tx.send(()).unwrap();

    let err = rt
        .try_taskwait()
        .expect_err("cancelled graph must surface poison");
    assert!(matches!(err, Error::Poisoned { .. }), "got {err}");
    let stats = rt.stats();
    assert_eq!(stats.tasks_executed, 1, "only the gate task ran");
    assert_eq!(
        stats.tasks_cancelled, 1,
        "the first pending task was cancelled"
    );
    assert_eq!(stats.tasks_poisoned, 18, "its successors were poisoned");
    assert_eq!(rt.in_flight_tasks(), 0);
    rt.audit()
        .expect("a cancelled graph leaves no node outstanding");
    assert!(rt.take_panics().is_empty(), "cancellation is not a panic");
    assert_eq!(rt.into_inner(data), 1, "only the running task committed");
    rt.shutdown();
}

/// A cancel scope set around a spawn burst is inherited by child tasks
/// spawned from inside a task body.
#[test]
fn cancel_scope_is_inherited_by_child_tasks() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let token = rt.cancel_scope();
    let data = rt.data(0u64);
    let (started_tx, started_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    rt.with_cancel_scope(&token, || {
        let h = data.clone();
        rt.task().inout(&h).spawn(move |ctx| {
            started_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            // Children spawned mid-cancellation join the parent's scope and
            // are retired without running.
            for _ in 0..5 {
                let h2 = h.clone();
                ctx.task().inout(&h2).spawn(move |c| *c.write(&h2) += 10);
            }
            *ctx.write(&h) += 1;
        });
    });
    started_rx.recv().unwrap();
    token.cancel();
    go_tx.send(()).unwrap();

    assert!(rt.try_taskwait().is_err());
    let stats = rt.stats();
    assert_eq!(stats.tasks_executed, 1);
    assert_eq!(stats.tasks_cancelled + stats.tasks_poisoned, 5);
    assert_eq!(rt.into_inner(data), 1, "no cancelled child committed");
    rt.shutdown();
}

/// Injected completion delays reorder nothing and lose nothing: the chain
/// drains to the exact sequential result.
#[test]
fn delayed_completion_faults_still_drain_exact() {
    let plan = FaultPlan::seeded(5).delay_one_in(1, 64);
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_fault_plan(plan.clone()),
    );
    let data = rt.data(0u64);
    for _ in 0..30 {
        let h = data.clone();
        rt.task().inout(&h).spawn(move |ctx| *ctx.write(&h) += 1);
    }
    rt.taskwait();
    assert!(plan.injected(FaultClass::DelayedCompletion) >= 30);
    assert_eq!(rt.in_flight_tasks(), 0);
    assert_eq!(rt.into_inner(data), 30);
    rt.shutdown();
}

/// Forcing every rename-budget reservation to fail falls the runtime back to
/// in-place serialized execution — observably slower, never wrong: every
/// reader still sees exactly its program-order predecessor's write.
#[test]
fn forced_rename_exhaustion_falls_back_without_changing_results() {
    let plan = FaultPlan::seeded(11).rename_exhaust_one_in(1);
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_fault_plan(plan),
    );
    let x = rt.versioned_data(0u64);
    for i in 0..10u64 {
        let w = x.clone();
        rt.task().output(&w).spawn(move |ctx| *ctx.write(&w) = i);
        let r = x.clone();
        rt.task().input(&r).spawn(move |ctx| {
            assert_eq!(*ctx.read(&r), i, "reader must see its own writer");
        });
    }
    rt.taskwait();
    let stats = rt.stats();
    assert!(
        stats.rename_fallbacks > 0,
        "every reservation was forced to fail, got {} fallbacks",
        stats.rename_fallbacks
    );
    assert!(rt.take_panics().is_empty(), "all reader assertions held");
    assert_eq!(rt.into_inner(x), 9);
    rt.shutdown();
}

/// Forcing every tracker gate acquisition to count as a fallback leaves
/// dependency order identical.
#[test]
fn forced_tracker_fallback_keeps_dependency_order() {
    let plan = FaultPlan::seeded(23).tracker_fallback_one_in(1);
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_fault_plan(plan),
    );
    let data = rt.data(0u64);
    for i in 1..=16u64 {
        let h = data.clone();
        rt.task().inout(&h).spawn(move |ctx| *ctx.write(&h) += i);
    }
    rt.taskwait();
    let stats = rt.stats();
    assert!(
        stats.tracker_fast_path_fallbacks > 0,
        "forced fallbacks must be taken and counted"
    );
    assert_eq!(rt.in_flight_tasks(), 0);
    assert_eq!(rt.into_inner(data), (1..=16).sum::<u64>());
    rt.shutdown();
}

/// A replay pass whose task panics poisons only that batch: the template
/// stays usable and the next pass completes with correct values.
#[test]
fn poisoned_replay_batch_leaves_template_usable() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let data = rt.data(0u64);
    let mut scope = rt.capture();
    {
        let h = data.clone();
        scope.task().inout(&h).spawn(move |ctx| {
            if ctx.replay_pass() == 1 {
                panic!("pass 1 goes down");
            }
            *ctx.write(&h) += 1;
        });
    }
    let template = scope.finish();
    let bindings = ompss::ReplayBindings::new();
    // The capture iteration itself runs as pass 0.
    rt.try_taskwait().expect("capture pass is clean");

    rt.replay(&template, &bindings); // pass 1: panics and poisons the batch
    let err = rt.try_taskwait().expect_err("pass 1 must poison");
    assert!(matches!(err, Error::Poisoned { .. }));
    assert_eq!(rt.take_panics().len(), 1);

    rt.replay(&template, &bindings); // pass 2: the template still works
    rt.try_taskwait()
        .expect("poison does not outlive its batch");
    drop(template); // the template owns a clone of the data handle
    let stats = rt.stats();
    assert_eq!(stats.tasks_panicked, 1);
    assert_eq!(rt.in_flight_tasks(), 0);
    assert_eq!(
        rt.into_inner(data),
        2,
        "passes 0 and 2 committed, pass 1 did not"
    );
    rt.shutdown();
}

/// Run `f` on a helper thread and return its panic message, failing instead
/// of hanging if it has not returned within 10 s. The runtime is then
/// leaked: dropping it would join workers the blocked helper still uses.
fn panic_message_within_10s(rt: Arc<Runtime>, f: impl FnOnce(&Runtime) + Send + 'static) -> String {
    let (done_tx, done_rx) = mpsc::channel();
    let helper = {
        let rt = rt.clone();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&rt)));
            let _ = done_tx.send(outcome.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            }));
        })
    };
    match done_rx.recv_timeout(Duration::from_secs(10)) {
        Ok(message) => {
            helper.join().expect("the helper caught the call's panic");
            message.expect("the call must panic")
        }
        Err(_) => {
            std::mem::forget(rt);
            panic!("the call had not returned after 10 s");
        }
    }
}

/// `fetch` after a panicked writer refuses the torn value, as `into_inner`
/// does: its reader task is poisoned and never runs, so the call panics
/// naming the origin instead of waiting for it forever.
#[test]
fn fetch_after_a_poisoned_write_panics_naming_the_origin() {
    let rt = Arc::new(Runtime::new(RuntimeConfig::default().with_workers(2)));
    let data = rt.data(0u64);
    {
        // The writer goes down only once the fetch's reader is in flight
        // behind it, so the reader is poisoned rather than run.
        let (h, rt) = (data.clone(), rt.clone());
        rt.clone().task().output(&h).spawn(move |_| {
            let start = std::time::Instant::now();
            while rt.in_flight_tasks() < 2 && start.elapsed() < Duration::from_secs(10) {
                std::thread::yield_now();
            }
            panic!("writer goes down");
        });
    }
    let message = panic_message_within_10s(rt.clone(), move |rt| {
        rt.fetch(&data);
    });
    let Err(Error::Poisoned { origin }) = rt.try_taskwait() else {
        panic!("the writer's panic must poison the run");
    };
    assert!(
        message.contains(&format!("origin {origin}")),
        "message: {message}"
    );
    assert_eq!(rt.take_panics().len(), 1);
    assert_eq!(rt.in_flight_tasks(), 0);
}

/// `fetch` inside a cancelled scope: its reader task is cancelled before it
/// starts, becomes the poison origin, and the call panics naming it.
#[test]
fn fetch_in_a_cancelled_scope_panics_naming_the_origin() {
    let rt = Arc::new(Runtime::new(RuntimeConfig::default().with_workers(2)));
    let data = rt.data(7u64);
    let token = rt.cancel_scope();
    token.cancel();
    let message = panic_message_within_10s(rt.clone(), move |rt| {
        rt.with_cancel_scope(&token, || rt.fetch(&data));
    });
    let Err(Error::Poisoned { origin }) = rt.try_taskwait() else {
        panic!("the cancelled reader must poison the run");
    };
    assert!(
        message.contains(&format!("origin {origin}")),
        "message: {message}"
    );
    let stats = rt.stats();
    assert_eq!((stats.tasks_executed, stats.tasks_cancelled), (0, 1));
    assert!(rt.take_panics().is_empty(), "cancellation is not a panic");
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// However a graph is randomly poisoned (injected panics) and/or
    /// cancelled: the graph drains (no in-flight tasks, no outstanding slab nodes, no
    /// tracked regions), the retirement ledger balances
    /// (`executed + poisoned + cancelled == spawned`), and the committed
    /// value equals exactly the number of bodies that ran to completion.
    #[test]
    fn prop_poisoned_and_cancelled_graphs_drain_clean(
        seed in 0u64..1_000_000,
        n_tasks in 1usize..40,
        panic_one_in in 2u64..12,
        cancel in proptest::bool::ANY,
    ) {
        let plan = FaultPlan::seeded(seed)
            .panic_one_in(panic_one_in)
            .delay_one_in(5, 8);
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(2)
                .with_fault_plan(plan),
        );
        let token = rt.cancel_scope();
        let data = rt.data(0u64);
        rt.with_cancel_scope(&token, || {
            for _ in 0..n_tasks {
                let h = data.clone();
                rt.task().inout(&h).spawn(move |ctx| *ctx.write(&h) += 1);
            }
        });
        if cancel {
            token.cancel();
        }
        let _ = rt.try_taskwait();
        let stats = rt.stats();
        prop_assert_eq!(rt.in_flight_tasks(), 0);
        rt.audit().expect("no node outstanding, no region tracked");
        prop_assert_eq!(
            stats.tasks_executed + stats.tasks_poisoned + stats.tasks_cancelled,
            n_tasks as u64,
            "every spawned task must retire exactly once"
        );
        let committed = stats.tasks_executed - stats.tasks_panicked;
        let _ = rt.take_panics();
        let value = rt
            .try_into_inner(data)
            .expect("poison note was consumed by try_taskwait");
        prop_assert_eq!(value, committed, "only completed bodies commit");
        rt.shutdown();
    }

    /// Repeated cancelled/poisoned bursts on one runtime never leak: after
    /// each burst's acknowledging `try_taskwait`, the next burst starts from
    /// a clean runtime and unpoisoned bursts complete exactly.
    #[test]
    fn prop_poison_never_leaks_across_bursts(
        seed in 0u64..1_000_000,
        bursts in proptest::collection::vec((1usize..12, 0u64..3), 1..6),
    ) {
        let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
        for (i, (n_tasks, mode)) in bursts.iter().enumerate() {
            let data = rt.data(0u64);
            let token = rt.cancel_scope();
            let poison_burst = *mode == 1;
            let cancel_burst = *mode == 2;
            rt.with_cancel_scope(&token, || {
                for t in 0..*n_tasks {
                    let h = data.clone();
                    let boom = poison_burst && t == 0;
                    rt.task().inout(&h).spawn(move |ctx| {
                        if boom {
                            panic!("burst goes down");
                        }
                        *ctx.write(&h) += 1;
                    });
                }
            });
            if cancel_burst {
                token.cancel();
            }
            let result = rt.try_taskwait();
            let _ = rt.take_panics();
            if poison_burst {
                prop_assert!(result.is_err(), "burst {} (seed {}) must poison", i, seed);
            }
            if !poison_burst && !cancel_burst {
                prop_assert!(result.is_ok(), "clean burst {} must not inherit poison", i);
                prop_assert_eq!(
                    rt.try_into_inner(data).expect("clean burst unwraps"),
                    *n_tasks as u64
                );
            }
            prop_assert_eq!(rt.in_flight_tasks(), 0);
        }
        rt.audit().expect("no node outstanding after the bursts");
        rt.shutdown();
    }
}
