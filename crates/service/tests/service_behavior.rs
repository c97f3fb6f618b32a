//! Deterministic end-to-end tests of the job service: priority lanes,
//! template capture/replay through the frontend, failure isolation, retry,
//! overload from many client threads, and shutdown draining.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use service::{
    AdmissionError, JobService, JobSpec, JobStatus, Lane, RetryPolicy, ServiceConfig, TenantSpec,
};

/// A saturated bulk tenant cannot starve the latency lane: with a single
/// dispatcher plugged by a gate job, a backlog of bulk jobs queued *before*
/// the latency jobs still runs *after* them.
#[test]
fn latency_lane_is_not_starved_by_bulk_backlog() {
    let svc = JobService::new(
        ServiceConfig::default()
            .with_dispatchers(1)
            .with_queue_capacity(64),
    );
    let bulk = svc
        .register_tenant(TenantSpec::new("bulk").with_in_flight_budget(64))
        .unwrap();
    let latency = svc
        .register_tenant(
            TenantSpec::new("interactive")
                .with_lane(Lane::Latency)
                .with_in_flight_budget(64),
        )
        .unwrap();

    // Plug the only dispatcher so everything below queues up behind it.
    let gate = Arc::new(AtomicBool::new(false));
    let plug = {
        let gate = Arc::clone(&gate);
        svc.submit(
            bulk,
            JobSpec::spawn(move |_cx| {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }),
        )
        .unwrap()
    };

    let order = Arc::new(parking_lot_order::OrderLog::default());
    let mut tickets = Vec::new();
    for i in 0..8 {
        let order = Arc::clone(&order);
        tickets.push(
            svc.submit(bulk, JobSpec::spawn(move |_cx| order.push(('b', i))))
                .unwrap(),
        );
    }
    for i in 0..4 {
        let order = Arc::clone(&order);
        tickets.push(
            svc.submit(latency, JobSpec::spawn(move |_cx| order.push(('l', i))))
                .unwrap(),
        );
    }

    gate.store(true, Ordering::SeqCst);
    assert!(plug.wait().is_completed());
    for t in &tickets {
        assert!(t.wait().is_completed());
    }
    let log = order.snapshot();
    assert_eq!(log.len(), 12);
    // Every latency job ran before every bulk job, despite the bulk backlog
    // being queued first.
    assert_eq!(
        &log[..4],
        &[('l', 0), ('l', 1), ('l', 2), ('l', 3)],
        "latency lane was starved: {log:?}"
    );
    svc.shutdown();
}

/// Capture and replay through the frontend: a capture job stores a template
/// in a slot, a replay job stamps it, and the tenant's
/// metrics expose the replay passes/tasks counted by the core runtime.
#[test]
fn capture_then_replay_jobs_share_a_template_slot() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(1));
    let tenant = svc.register_tenant(TenantSpec::new("acme")).unwrap();

    let counter = Arc::new(AtomicUsize::new(0));
    let capture = {
        let counter = Arc::clone(&counter);
        svc.submit(
            tenant,
            JobSpec::spawn(move |cx| {
                let h = cx.runtime.data(0u64);
                let mut scope = cx.runtime.capture();
                for _ in 0..3 {
                    let h = h.clone();
                    let counter = Arc::clone(&counter);
                    scope.task().inout(&h).spawn(move |tc| {
                        *tc.write(&h) += 1;
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
                cx.templates.store(5, scope.finish());
            }),
        )
        .unwrap()
    };
    assert!(capture.wait().is_completed());
    // The capture pass itself ran the 3 tasks once.
    assert_eq!(counter.load(Ordering::SeqCst), 3);

    let replay = svc.submit(tenant, JobSpec::replay(5, 4)).unwrap();
    assert!(replay.wait().is_completed());
    assert_eq!(counter.load(Ordering::SeqCst), 3 + 4 * 3);

    let m = svc.shutdown();
    let tm = &m.tenants[0];
    assert_eq!(tm.replay_jobs, 1);
    assert_eq!(tm.spawn_jobs, 1);
    assert_eq!(tm.runtime.replay_passes, 4);
    assert_eq!(tm.runtime.replay_tasks, 4 * 3);
}

/// A replay job naming an empty slot fails with a message, not a panic —
/// and the failure is the tenant's alone.
#[test]
fn replay_of_an_empty_slot_fails_cleanly() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(1));
    let tenant = svc.register_tenant(TenantSpec::new("acme")).unwrap();
    let ticket = svc.submit(tenant, JobSpec::replay(9, 1)).unwrap();
    match ticket.wait() {
        JobStatus::Failed(msg) => assert!(msg.contains("slot 9"), "unexpected message {msg}"),
        other => panic!("expected failure, got {other:?}"),
    }
    // The service is still healthy for the next job.
    let ok = svc
        .submit(tenant, JobSpec::spawn(|_cx| {}))
        .unwrap();
    assert!(ok.wait().is_completed());
    let m = svc.shutdown();
    assert_eq!(m.failed, 1);
    assert_eq!(m.completed, 1);
}

/// A panicking job body fails its own ticket; the dispatcher, the tenant's
/// runtime and other tenants' jobs are unaffected.
#[test]
fn panicking_job_does_not_poison_the_service() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(1));
    let bad = svc.register_tenant(TenantSpec::new("bad")).unwrap();
    let good = svc.register_tenant(TenantSpec::new("good")).unwrap();

    let boom = svc
        .submit(bad, JobSpec::spawn(|_cx| panic!("tenant bug")))
        .unwrap();
    let fine = svc
        .submit(good, JobSpec::spawn(|cx| {
            let h = cx.runtime.data(1u64);
            let hh = h.clone();
            cx.runtime.task().inout(&hh).spawn(move |tc| *tc.write(&hh) += 1);
            cx.runtime.taskwait();
            assert_eq!(cx.runtime.fetch(&h), 2);
        }))
        .unwrap();

    match boom.wait() {
        JobStatus::Failed(msg) => assert!(msg.contains("tenant bug"), "message {msg}"),
        other => panic!("expected failure, got {other:?}"),
    }
    assert!(fine.wait().is_completed());

    // The bad tenant can still run its next (correct) job.
    let retry = svc.submit(bad, JobSpec::spawn(|_cx| {})).unwrap();
    assert!(retry.wait().is_completed());
    svc.shutdown();
}

/// A tenant's jobs run one at a time even with a dispatcher free to start
/// the next one: job B is popped while job A is still running, waits for A,
/// and the task panic A's body caused is charged to A alone.
#[test]
fn one_tenants_jobs_never_overlap_and_failures_stay_their_own() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(2));
    let tenant = svc.register_tenant(TenantSpec::new("acme")).unwrap();
    let running = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));

    let a = {
        let (running, release) = (Arc::clone(&running), Arc::clone(&release));
        svc.submit(
            tenant,
            JobSpec::spawn(move |cx| {
                running.fetch_add(1, Ordering::SeqCst);
                cx.runtime.task().spawn(|_| panic!("job A's task"));
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                running.fetch_sub(1, Ordering::SeqCst);
            }),
        )
        .unwrap()
    };
    while running.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }

    let max_seen = Arc::new(AtomicUsize::new(0));
    let b = {
        let (running, max_seen) = (Arc::clone(&running), Arc::clone(&max_seen));
        svc.submit(
            tenant,
            JobSpec::spawn(move |_cx| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(now, Ordering::SeqCst);
                running.fetch_sub(1, Ordering::SeqCst);
            }),
        )
        .unwrap()
    };
    // Both dispatchers hold a job before A is let go, so B had every chance
    // to overlap A.
    while svc.metrics().active_dispatchers < 2 {
        std::thread::yield_now();
    }
    release.store(true, Ordering::SeqCst);

    match a.wait() {
        JobStatus::Failed(msg) => {
            assert!(msg.starts_with("1 task panic(s)"), "message {msg}");
            assert!(msg.contains("job A's task"), "message {msg}");
        }
        other => panic!("job A: expected failure, got {other:?}"),
    }
    assert!(b.wait().is_completed(), "job B was charged A's panic");
    assert_eq!(max_seen.load(Ordering::SeqCst), 1, "jobs A and B overlapped");
    let m = svc.shutdown();
    assert_eq!((m.failed, m.completed), (1, 1));
    assert_eq!(m.tenants[0].runtime.tasks_panicked, 1);
}

/// `submit_with_retry` rides out transient budget pressure that a plain
/// `submit` would shed, and gives up with the job handed back on a hard
/// rejection.
#[test]
fn retry_with_backoff_absorbs_transient_overload() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(1));
    let tenant = svc
        .register_tenant(TenantSpec::new("tight").with_in_flight_budget(1))
        .unwrap();

    let gate = Arc::new(AtomicBool::new(false));
    let plug = {
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

    // Budget is 1 and the plug holds it: a plain submit sheds immediately.
    let rejected = svc.submit(tenant, JobSpec::spawn(|_cx| {})).unwrap_err();
    assert!(matches!(
        rejected.error,
        AdmissionError::TenantBudget { in_flight: 1, .. }
    ));

    // A retrying submit started before the gate opens gets in once the plug
    // finishes (release the gate from a helper thread mid-retry).
    let opener = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            gate.store(true, Ordering::SeqCst);
        })
    };
    let policy = RetryPolicy {
        attempts: 200,
        backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(1),
        jitter_seed: 0,
    };
    let admitted = svc
        .submit_with_retry(tenant, rejected.job, &policy)
        .expect("retry should eventually admit");
    opener.join().unwrap();
    assert!(plug.wait().is_completed());
    assert!(admitted.wait().is_completed());

    let m = svc.metrics();
    assert!(m.retries > 0, "retry path never exercised");
    assert!(m.rejected_tenant_budget > 0);
    svc.shutdown();
}

/// Shutdown stops admission (typed hard error) but drains every job already
/// admitted — nothing is lost.
#[test]
fn shutdown_rejects_new_work_and_drains_admitted_work() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(2));
    let tenant = svc
        .register_tenant(TenantSpec::new("acme").with_in_flight_budget(64))
        .unwrap();
    let ran = Arc::new(AtomicUsize::new(0));
    let tickets: Vec<_> = (0..16)
        .map(|_| {
            let ran = Arc::clone(&ran);
            svc.submit(
                tenant,
                JobSpec::spawn(move |_cx| {
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
            )
            .unwrap()
        })
        .collect();
    let metrics = svc.shutdown();
    assert_eq!(ran.load(Ordering::SeqCst), 16, "admitted jobs were lost");
    for t in &tickets {
        assert!(t.status().is_completed());
    }
    assert_eq!(metrics.completed, 16);
    assert_eq!(metrics.ingest_queue_depth, 0);
}

/// Overload from many threads at once: 8 client threads stream jobs at 4
/// tenants (a latency tenant, two bulk tenants and a "flood" tenant whose
/// budget of 1 is held by a plug job, so every job aimed at it sheds) through 2 dispatchers. No accepted job is lost or
/// run twice, the queue never exceeds its capacity, admission control
/// engages, and the ledgers balance at service and tenant level.
#[test]
fn overload_from_many_clients_loses_nothing() {
    const CLIENTS: usize = 8;
    const JOBS_PER_CLIENT: usize = 40;

    let svc = Arc::new(JobService::new(
        ServiceConfig::default()
            .with_dispatchers(2)
            .with_queue_capacity(16),
    ));
    let tenants = vec![
        svc.register_tenant(
            TenantSpec::new("interactive")
                .with_lane(Lane::Latency)
                .with_in_flight_budget(8),
        )
        .unwrap(),
        svc.register_tenant(TenantSpec::new("batch-a").with_in_flight_budget(8))
            .unwrap(),
        svc.register_tenant(TenantSpec::new("batch-b").with_in_flight_budget(8))
            .unwrap(),
        svc.register_tenant(TenantSpec::new("flood").with_in_flight_budget(1))
            .unwrap(),
    ];

    let gate = Arc::new(AtomicBool::new(false));
    let plug = {
        let gate = Arc::clone(&gate);
        svc.submit(
            tenants[3],
            JobSpec::spawn(move |_cx| {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }),
        )
        .expect("plug job must admit")
    };

    // Per-tenant observed side-effect sum; each job adds its unique weight
    // exactly once if and only if it runs exactly once.
    let effects: Vec<Arc<AtomicU64>> = tenants
        .iter()
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let svc = Arc::clone(&svc);
            let tenants = tenants.clone();
            let effects = effects.clone();
            std::thread::spawn(move || {
                let policy = RetryPolicy::default();
                // (ticket, tenant index, weight) per accepted job.
                let mut accepted = Vec::new();
                let mut rejected = 0u64;
                for j in 0..JOBS_PER_CLIENT {
                    let t = (c + j) % tenants.len();
                    let weight = (c * JOBS_PER_CLIENT + j) as u64 + 1;
                    let sum = Arc::clone(&effects[t]);
                    let job = JobSpec::spawn(move |cx| {
                        let h = cx.runtime.data(0u64);
                        cx.runtime.task().inout(&h.clone()).spawn(move |tc| {
                            *tc.write(&h) = weight;
                            sum.fetch_add(weight, Ordering::SeqCst);
                        });
                    });
                    // Even clients retry soft rejections; odd clients shed
                    // immediately — both paths must keep the ledger exact.
                    let outcome = if c % 2 == 0 {
                        svc.submit_with_retry(tenants[t], job, &policy)
                    } else {
                        svc.submit(tenants[t], job)
                    };
                    match outcome {
                        Ok(ticket) => accepted.push((ticket, t, weight)),
                        Err(r) => {
                            assert!(
                                r.error.is_soft(),
                                "client {c}: unexpected hard rejection {:?}",
                                r.error
                            );
                            rejected += 1;
                        }
                    }
                }
                (accepted, rejected)
            })
        })
        .collect();

    let mut accepted = Vec::new();
    let mut client_rejected = 0u64;
    for client in clients {
        let (a, r) = client.join().expect("client thread");
        accepted.extend(a);
        client_rejected += r;
    }

    // Submission phase over: release the plug and let everything drain.
    gate.store(true, Ordering::SeqCst);
    assert!(plug.wait().is_completed(), "plug job failed");
    svc.drain();

    let mut expected = vec![0u64; tenants.len()];
    for (ticket, t, weight) in &accepted {
        assert!(
            ticket.status().is_completed(),
            "accepted job (tenant {t}, weight {weight}) not completed after drain"
        );
        expected[*t] += weight;
    }
    for (t, sum) in effects.iter().enumerate() {
        assert_eq!(
            sum.load(Ordering::SeqCst),
            expected[t],
            "tenant {t}: side effects disagree with accepted jobs (lost or duplicated work)"
        );
    }

    let m = Arc::into_inner(svc).expect("clients joined").shutdown();
    // `submitted`/`rejected` count submission *attempts*: a job retried R
    // times contributes R+1 submissions, R+[finally shed] rejections, and R
    // retries — so the client-side job count reconciles through `retries`.
    let jobs_offered = (CLIENTS * JOBS_PER_CLIENT) as u64 + 1; // + plug
    assert_eq!(m.submitted, jobs_offered + m.retries, "ledger lost submissions");
    assert_eq!(m.submitted, m.accepted + m.rejected());
    assert_eq!(m.accepted, accepted.len() as u64 + 1);
    assert_eq!(m.rejected(), client_rejected + m.retries);
    assert_eq!(m.completed, m.accepted, "accepted jobs failed or were lost");
    assert_eq!(m.failed, 0);
    assert!(
        m.rejected() > 0,
        "deliberate overload produced no rejections — admission control never engaged"
    );
    assert!(
        m.peak_queue_depth <= m.queue_capacity,
        "queue depth {} exceeded capacity {}",
        m.peak_queue_depth,
        m.queue_capacity
    );
    for tm in &m.tenants {
        assert_eq!(
            tm.submitted,
            tm.accepted + tm.rejected_queue_full + tm.rejected_budget,
            "tenant {} ledger does not balance",
            tm.name
        );
        assert_eq!(tm.in_flight, 0, "tenant {} still has in-flight jobs", tm.name);
    }
}

/// Submitting to an unknown tenant is a hard typed error.
#[test]
fn unknown_tenant_is_a_hard_rejection() {
    let svc = JobService::new(ServiceConfig::default().with_dispatchers(1));
    let rejected = svc
        .submit(service::TenantId(3), JobSpec::spawn(|_cx| {}))
        .unwrap_err();
    assert_eq!(
        rejected.error,
        AdmissionError::UnknownTenant(service::TenantId(3))
    );
    assert!(!rejected.error.is_soft());
    svc.shutdown();
}

/// A `QueueFull` rejection reports the depth the queue held, not its
/// capacity: a fault plan that refuses every push refuses this one at an
/// empty queue.
#[test]
fn injected_queue_full_reports_the_depth_it_saw() {
    let svc = JobService::new(
        ServiceConfig::default()
            .with_dispatchers(1)
            .with_fault_plan(ompss::FaultPlan::seeded(1).queue_full_one_in(1)),
    );
    let tenant = svc.register_tenant(TenantSpec::new("t")).unwrap();
    match svc.submit(tenant, JobSpec::spawn(|_cx| {})).unwrap_err().error {
        AdmissionError::QueueFull { depth, capacity } => {
            assert_eq!(depth, 0, "nothing was queued");
            assert!(depth < capacity);
        }
        other => panic!("expected QueueFull, got {other}"),
    }
    svc.shutdown();
}

/// Tiny ordered log used by the lane test (Mutex<Vec>, snapshot at the end).
mod parking_lot_order {
    use parking_lot::Mutex;

    #[derive(Default)]
    pub struct OrderLog {
        entries: Mutex<Vec<(char, usize)>>,
    }

    impl OrderLog {
        pub fn push(&self, entry: (char, usize)) {
            self.entries.lock().push(entry);
        }

        pub fn snapshot(&self) -> Vec<(char, usize)> {
            self.entries.lock().clone()
        }
    }
}
