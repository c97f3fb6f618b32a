//! End-to-end failure semantics of the job service: deadlines (shed at
//! dequeue and enforced mid-run by the watchdog), ticket cancellation
//! (queued and running), the stall watchdog, injected queue-full bursts,
//! and a seeded chaos property driving several fault classes through the
//! full service stack at once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ompss::{FaultClass, FaultPlan, RuntimeConfig};
use proptest::prelude::*;
use service::{JobService, JobSpec, JobStatus, ServiceConfig, TenantSpec};

/// Assert the terminal-state ledger: every admitted job resolved exactly one
/// way.
fn assert_ledger(m: &service::ServiceMetrics) {
    assert_eq!(
        m.completed + m.failed + m.cancelled + m.expired,
        m.accepted,
        "ledger must balance: {m:?}"
    );
}

/// Plug the service's single dispatcher with a gate job, so everything
/// submitted after it stays queued until the gate opens.
fn plug(svc: &JobService, tenant: service::TenantId) -> (Arc<AtomicBool>, service::JobTicket) {
    let gate = Arc::new(AtomicBool::new(false));
    let ticket = {
        let gate = Arc::clone(&gate);
        svc.submit(
            tenant,
            JobSpec::spawn(move |_cx| {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }),
        )
        .unwrap()
    };
    (gate, ticket)
}

/// A job whose deadline passes while it is still queued is shed at dequeue:
/// its body never runs and the ticket resolves `Expired`.
#[test]
fn deadline_expired_while_queued_is_shed_at_dequeue() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(1));
    let tenant = svc
        .register_tenant(TenantSpec::new("t").with_in_flight_budget(8))
        .unwrap();
    let (gate, plug_ticket) = plug(&svc, tenant);

    let ran = Arc::new(AtomicBool::new(false));
    let ticket = {
        let ran = Arc::clone(&ran);
        svc.submit(
            tenant,
            JobSpec::spawn(move |_cx| ran.store(true, Ordering::SeqCst))
                .with_deadline(Duration::from_millis(5)),
        )
        .unwrap()
    };
    std::thread::sleep(Duration::from_millis(30));
    gate.store(true, Ordering::SeqCst);

    assert!(plug_ticket.wait().is_completed());
    assert_eq!(ticket.wait(), JobStatus::Expired);
    assert!(!ran.load(Ordering::SeqCst), "an expired job must not run");
    let m = svc.shutdown();
    assert_eq!(m.expired, 1);
    assert_ledger(&m);
}

/// Cancelling a still-queued job sheds it at dequeue without running it.
#[test]
fn cancelled_queued_job_never_runs() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(1));
    let tenant = svc
        .register_tenant(TenantSpec::new("t").with_in_flight_budget(8))
        .unwrap();
    let (gate, plug_ticket) = plug(&svc, tenant);

    let ran = Arc::new(AtomicBool::new(false));
    let ticket = {
        let ran = Arc::clone(&ran);
        svc.submit(
            tenant,
            JobSpec::spawn(move |_cx| ran.store(true, Ordering::SeqCst)),
        )
        .unwrap()
    };
    ticket.cancel();
    gate.store(true, Ordering::SeqCst);

    assert!(plug_ticket.wait().is_completed());
    assert_eq!(ticket.wait(), JobStatus::Cancelled);
    assert!(!ran.load(Ordering::SeqCst), "a cancelled job must not run");
    let m = svc.shutdown();
    assert_eq!(m.cancelled, 1);
    assert_ledger(&m);
}

/// Cancelling a *running* job reaches into its task graph: the task already
/// executing finishes, every not-yet-started task is retired without
/// running, and the ticket resolves `Cancelled` — not `Failed`.
#[test]
fn cancelling_running_job_cancels_its_remaining_tasks() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(1));
    let tenant = svc
        .register_tenant(TenantSpec::new("t").with_in_flight_budget(8))
        .unwrap();

    let executed = Arc::new(AtomicU64::new(0));
    let (started_tx, started_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let ticket = {
        let executed = Arc::clone(&executed);
        svc.submit(
            tenant,
            JobSpec::spawn(move |cx| {
                let data = cx.runtime.data(0u64);
                {
                    let h = data.clone();
                    let executed = Arc::clone(&executed);
                    let started_tx = started_tx.clone();
                    cx.runtime.task().inout(&h).spawn(move |ctx| {
                        started_tx.send(()).unwrap();
                        go_rx.recv().unwrap();
                        executed.fetch_add(1, Ordering::SeqCst);
                        *ctx.write(&h) += 1;
                    });
                }
                for _ in 0..10 {
                    let h = data.clone();
                    let executed = Arc::clone(&executed);
                    cx.runtime.task().inout(&h).spawn(move |ctx| {
                        executed.fetch_add(1, Ordering::SeqCst);
                        *ctx.write(&h) += 1;
                    });
                }
            }),
        )
        .unwrap()
    };

    started_rx.recv().unwrap();
    ticket.cancel();
    go_tx.send(()).unwrap();

    assert_eq!(ticket.wait(), JobStatus::Cancelled);
    assert_eq!(
        executed.load(Ordering::SeqCst),
        1,
        "only the already-running task may commit"
    );
    let m = svc.shutdown();
    assert_eq!(m.cancelled, 1);
    assert_eq!(m.failed, 0, "cancellation is not a failure");
    assert_ledger(&m);
}

/// A deadline that passes mid-run is enforced by the watchdog: the running
/// task finishes, the rest of the graph is cancelled, and the ticket
/// resolves `Expired`.
#[test]
fn deadline_expiring_mid_run_cancels_remaining_tasks() {
    let svc = JobService::new(
        ServiceConfig::default()
            .with_dispatchers(1)
            .with_watchdog_interval(Duration::from_millis(2)),
    );
    let tenant = svc
        .register_tenant(TenantSpec::new("t").with_in_flight_budget(8))
        .unwrap();

    let executed = Arc::new(AtomicU64::new(0));
    let ticket = {
        let executed = Arc::clone(&executed);
        svc.submit(
            tenant,
            JobSpec::spawn(move |cx| {
                let data = cx.runtime.data(0u64);
                {
                    let h = data.clone();
                    let executed = Arc::clone(&executed);
                    cx.runtime.task().inout(&h).spawn(move |ctx| {
                        // Outlive the 10ms deadline, then return; the
                        // watchdog cancels the successors in the meantime.
                        std::thread::sleep(Duration::from_millis(60));
                        executed.fetch_add(1, Ordering::SeqCst);
                        *ctx.write(&h) += 1;
                    });
                }
                for _ in 0..10 {
                    let h = data.clone();
                    let executed = Arc::clone(&executed);
                    cx.runtime.task().inout(&h).spawn(move |ctx| {
                        executed.fetch_add(1, Ordering::SeqCst);
                        *ctx.write(&h) += 1;
                    });
                }
            })
            .with_deadline(Duration::from_millis(10)),
        )
        .unwrap()
    };

    assert_eq!(ticket.wait(), JobStatus::Expired);
    assert_eq!(
        executed.load(Ordering::SeqCst),
        1,
        "successors of the overrunning task must be cancelled"
    );
    let m = svc.shutdown();
    assert_eq!(m.expired, 1);
    assert_eq!(m.failed, 0);
    assert_ledger(&m);
}

/// `wait_timeout` reports a non-terminal status on timeout and the terminal
/// one once the job resolves.
#[test]
fn wait_timeout_observes_progress() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(1));
    let tenant = svc
        .register_tenant(TenantSpec::new("t").with_in_flight_budget(8))
        .unwrap();
    let (gate, plug_ticket) = plug(&svc, tenant);

    let ticket = svc.submit(tenant, JobSpec::spawn(|_cx| {})).unwrap();
    let observed = ticket.wait_timeout(Duration::from_millis(10));
    assert!(
        !observed.is_terminal(),
        "job is plugged behind the gate, got {observed:?}"
    );
    gate.store(true, Ordering::SeqCst);
    assert!(plug_ticket.wait().is_completed());
    assert!(ticket.wait_timeout(Duration::from_secs(30)).is_completed());
    svc.shutdown();
}

/// A job that reads back data its own panicked task poisoned fails; it does
/// not wedge its dispatcher. The same dispatcher then runs the tenant's
/// next job, and the service shuts down.
#[test]
fn fetch_after_a_task_panic_fails_the_job_not_the_dispatcher() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(1));
    let tenant = svc
        .register_tenant(
            TenantSpec::new("t")
                .with_in_flight_budget(8)
                .with_runtime_config(RuntimeConfig::default().with_workers(1)),
        )
        .unwrap();
    // A wedged dispatcher would make `shutdown` (or the drop) join it
    // forever: leak the service and fail instead.
    let wait = |svc: JobService, ticket: &service::JobTicket| {
        let status = ticket.wait_timeout(Duration::from_secs(10));
        if !status.is_terminal() {
            std::mem::forget(svc);
            panic!("the job had not resolved after 10 s: {status:?}");
        }
        (svc, status)
    };

    let poisoned = svc
        .submit(
            tenant,
            JobSpec::spawn(|cx| {
                // The writer goes down once the task queued after it has run.
                // Until the fetching thread helps, the tenant's one worker
                // can run only the writer (queued first), so the fetch's
                // reader is in flight behind the writer when it panics.
                let a = cx.runtime.data(0u64);
                let released = Arc::new(AtomicBool::new(false));
                {
                    let (h, released) = (a.clone(), released.clone());
                    cx.runtime.task().output(&h).spawn(move |_| {
                        let start = Instant::now();
                        while !released.load(Ordering::SeqCst)
                            && start.elapsed() < Duration::from_secs(10)
                        {
                            std::thread::yield_now();
                        }
                        panic!("writer goes down")
                    });
                }
                cx.runtime
                    .task()
                    .spawn(move |_| released.store(true, Ordering::SeqCst));
                cx.runtime.fetch(&a);
            }),
        )
        .unwrap();
    let (svc, status) = wait(svc, &poisoned);
    match status {
        JobStatus::Failed(msg) => assert!(msg.contains("poisoned run (origin"), "message {msg}"),
        other => panic!("expected failure, got {other:?}"),
    }

    let next = svc
        .submit(
            tenant,
            JobSpec::spawn(|cx| {
                let a = cx.runtime.data(1u64);
                let h = a.clone();
                cx.runtime.task().inout(&h).spawn(move |tc| *tc.write(&h) += 1);
                assert_eq!(cx.runtime.fetch(&a), 2);
            }),
        )
        .unwrap();
    let (svc, status) = wait(svc, &next);
    assert!(status.is_completed(), "got {status:?}");
    let m = svc.shutdown();
    assert_eq!((m.completed, m.failed), (1, 1));
    assert_ledger(&m);
}

/// A job whose graph stops making progress trips the stall watchdog: a
/// `StallReport` names the stuck tenant while the job is wedged, and the
/// job still completes normally once it unwedges.
#[test]
fn watchdog_reports_stall_for_wedged_job() {
    let svc = JobService::new(
        ServiceConfig::default()
            .with_dispatchers(1)
            .with_watchdog_interval(Duration::from_millis(2))
            .with_stall_window(Duration::from_millis(10)),
    );
    let tenant = svc
        .register_tenant(TenantSpec::new("wedged").with_in_flight_budget(8))
        .unwrap();

    let gate = Arc::new(AtomicBool::new(false));
    let ticket = {
        let gate = Arc::clone(&gate);
        svc.submit(
            tenant,
            JobSpec::spawn(move |cx| {
                let h = cx.runtime.data(0u64);
                cx.runtime.task().inout(&h).spawn(move |_ctx| {
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                });
            }),
        )
        .unwrap()
    };

    // Give the watchdog several windows of flatlined progress.
    let mut stalled = false;
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(5));
        let m = svc.metrics();
        if m.stalls_detected > 0 {
            let report = m.last_stall.expect("a detected stall carries a report");
            assert_eq!(report.tenant, tenant);
            assert!(report.stuck_jobs >= 1);
            stalled = true;
            break;
        }
    }
    assert!(stalled, "watchdog never reported the wedged job");

    gate.store(true, Ordering::SeqCst);
    assert!(ticket.wait().is_completed(), "a stall is a report, not a kill");
    let m = svc.shutdown();
    assert!(m.stalls_detected >= 1);
    assert_ledger(&m);
}

/// Injected queue-full faults shed submissions as ordinary soft rejections;
/// the ledger still balances over the jobs that were admitted.
#[test]
fn injected_queue_full_bursts_shed_cleanly() {
    let svc = JobService::new(
        ServiceConfig::default()
            .with_dispatchers(2)
            .with_fault_plan(FaultPlan::seeded(7).queue_full_one_in(3)),
    );
    let tenant = svc
        .register_tenant(TenantSpec::new("t").with_in_flight_budget(64))
        .unwrap();

    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for _ in 0..40 {
        match svc.submit(tenant, JobSpec::spawn(|_cx| {})) {
            Ok(t) => tickets.push(t),
            Err(_) => shed += 1,
        }
    }
    assert!(shed > 0, "the plan must shed some submissions");
    assert!(!tickets.is_empty(), "the plan must admit some submissions");
    for t in &tickets {
        assert!(t.wait().is_completed());
    }
    let m = svc.shutdown();
    assert_eq!(m.rejected_queue_full, shed);
    assert_eq!(m.completed, tickets.len() as u64);
    assert_ledger(&m);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chaos: a seeded `FaultPlan` injecting task panics, delayed
    /// completions, rename exhaustion and tracker fallbacks inside the
    /// tenants' runtimes — plus queue-full bursts at the service edge —
    /// driven through the full stack. Every admitted ticket reaches a
    /// terminal state, the ledger balances, completed jobs' effects are
    /// exactly intact, and the tenant's runtime drains clean.
    #[test]
    fn prop_chaos_plan_loses_no_tickets(
        seed in 0u64..1_000_000,
        n_jobs in 4usize..24,
        panic_one_in in 3u64..16,
    ) {
        let tenant_plan = FaultPlan::seeded(seed)
            .panic_one_in(panic_one_in)
            .delay_one_in(4, 8)
            .rename_exhaust_one_in(5)
            .tracker_fallback_one_in(6);
        let svc = JobService::new(
            ServiceConfig::default()
                .with_dispatchers(2)
                .with_queue_capacity(256)
                .with_fault_plan(FaultPlan::seeded(seed ^ 0xdead).queue_full_one_in(9)),
        );
        let tenant = svc
            .register_tenant(
                TenantSpec::new("chaos")
                    .with_in_flight_budget(256)
                    .with_runtime_config(
                        RuntimeConfig::default()
                            .with_workers(2)
                            .with_fault_plan(tenant_plan.clone()),
                    ),
            )
            .unwrap();

        const TASKS_PER_JOB: u64 = 6;
        let mut jobs = Vec::new();
        let mut shed = 0u64;
        for _ in 0..n_jobs {
            let effect = Arc::new(AtomicU64::new(0));
            let ticket = {
                let effect = Arc::clone(&effect);
                svc.submit(
                    tenant,
                    JobSpec::spawn(move |cx| {
                        let data = cx.runtime.data(0u64);
                        for _ in 0..TASKS_PER_JOB {
                            let h = data.clone();
                            let effect = Arc::clone(&effect);
                            cx.runtime.task().inout(&h).spawn(move |ctx| {
                                effect.fetch_add(1, Ordering::SeqCst);
                                *ctx.write(&h) += 1;
                            });
                        }
                    }),
                )
            };
            match ticket {
                Ok(t) => jobs.push((t, effect)),
                Err(_) => shed += 1,
            }
        }

        // Liveness: every admitted ticket must resolve (the harness timeout
        // is the backstop for a hang).
        let mut completed = 0u64;
        for (ticket, effect) in &jobs {
            let status = ticket.wait();
            prop_assert!(status.is_terminal());
            match status {
                JobStatus::Completed => {
                    completed += 1;
                    prop_assert_eq!(
                        effect.load(Ordering::SeqCst),
                        TASKS_PER_JOB,
                        "a completed job's effects must be exactly intact"
                    );
                }
                JobStatus::Failed(_) => {}
                other => prop_assert!(false, "unexpected terminal state {:?}", other),
            }
        }

        // The runtime drained clean: one follow-up job audits it before it
        // spawns anything. A tenant runs one job at a time and each ends in a
        // `taskwait`, so nothing spawns meanwhile and the verdict holds —
        // no tracked regions or allocations, no slab node out, tickets
        // balanced, every gate free, the task ledger closed.
        let audit_job = || {
            JobSpec::spawn(|cx| {
                let report = cx.runtime.audit().expect("the tenant's runtime drains clean");
                assert!(report.quiescent, "no task may be left in flight: {report:?}");
            })
        };
        let audit = loop {
            match svc.submit(tenant, audit_job()) {
                Ok(ticket) => break ticket,
                Err(_) => shed += 1,
            }
        };
        let status = audit.wait();
        prop_assert!(status.is_completed(), "audit job: {:?}", status);

        let m = svc.shutdown();
        prop_assert_eq!(m.accepted, jobs.len() as u64 + 1);
        prop_assert_eq!(m.rejected_queue_full, shed);
        prop_assert_eq!(m.completed, completed + 1);
        prop_assert_eq!(
            m.completed + m.failed + m.cancelled + m.expired,
            m.accepted,
            "ledger must balance"
        );
        let t = &m.tenants[0];
        prop_assert_eq!(t.in_flight, 0, "no job may be left in flight");
        let rs = &t.runtime;
        prop_assert_eq!(
            rs.tasks_executed + rs.tasks_poisoned + rs.tasks_cancelled,
            (jobs.len() as u64) * TASKS_PER_JOB,
            "every spawned task must retire exactly once"
        );
        prop_assert_eq!(
            rs.tasks_panicked,
            tenant_plan.injected(FaultClass::TaskPanic),
            "every injected panic must surface as a panicked task"
        );
    }
}
