//! Property tests for admission control: whatever random job mix a fleet of
//! clients throws at the service, the admission ledger must balance — every
//! submission is either accepted or rejected with a typed reason, every
//! accepted job runs exactly once, and the per-tenant counters reconcile
//! with the core runtime's own statistics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use service::{JobService, JobSpec, JobStatus, JobTicket, ServiceConfig, TenantSpec};

/// One randomly generated submission: which tenant, how many tasks the job
/// spawns, and how much fake work each task does (spin iterations — real
/// time so the queue actually backs up under overload).
#[derive(Debug, Clone)]
struct Submission {
    tenant: usize,
    tasks: usize,
    spin: u64,
}

fn submission_strategy(tenants: usize) -> impl Strategy<Value = Submission> {
    (0..tenants, 1usize..4, 0u64..400).prop_map(|(tenant, tasks, spin)| Submission {
        tenant,
        tasks,
        spin,
    })
}

/// Run `subs` against a deliberately tight service (small queue, small
/// budgets, one dispatcher) and return, per submission, the ticket of each
/// accepted job along with its recorded weight.
struct Outcome {
    svc: JobService,
    tenant_ids: Vec<service::TenantId>,
    /// (submission index, weight, tasks, tenant, ticket) per accepted job.
    accepted: Vec<(usize, u64, usize, usize, JobTicket)>,
    /// Observed side-effect sum per tenant (each task of job `i` adds
    /// `weight(i)` exactly once if and only if the job runs exactly once).
    effect: Vec<Arc<AtomicU64>>,
}

fn weight(index: usize) -> u64 {
    index as u64 + 1
}

fn run_mix(subs: &[Submission], tenants: usize, queue_capacity: usize, budget: usize) -> Outcome {
    let svc = JobService::new(
        ServiceConfig::default()
            .with_dispatchers(1)
            .with_queue_capacity(queue_capacity),
    );
    let tenant_ids: Vec<_> = (0..tenants)
        .map(|t| {
            svc.register_tenant(
                TenantSpec::new(&format!("tenant-{t}")).with_in_flight_budget(budget),
            )
            .unwrap()
        })
        .collect();
    let effect: Vec<Arc<AtomicU64>> = (0..tenants).map(|_| Arc::new(AtomicU64::new(0))).collect();

    let mut accepted = Vec::new();
    for (i, sub) in subs.iter().enumerate() {
        let w = weight(i);
        let sum = Arc::clone(&effect[sub.tenant]);
        let tasks = sub.tasks;
        let spin = sub.spin;
        let job = JobSpec::spawn(move |cx| {
            for _ in 0..tasks {
                let sum = Arc::clone(&sum);
                let h = cx.runtime.data(0u64);
                let hh = h.clone();
                cx.runtime.task().inout(&hh).spawn(move |tc| {
                    let mut acc = 0u64;
                    for k in 0..spin {
                        acc = acc.wrapping_add(k);
                    }
                    *tc.write(&hh) = std::hint::black_box(acc);
                    sum.fetch_add(w, Ordering::SeqCst);
                });
            }
        });
        match svc.submit(tenant_ids[sub.tenant], job) {
            Ok(ticket) => accepted.push((i, w, sub.tasks, sub.tenant, ticket)),
            Err(rejected) => {
                // A rejection must carry a soft, typed reason here: the
                // tenants exist and the service is up, so only queue or
                // budget pressure can shed.
                assert!(rejected.error.is_soft(), "unexpected {:?}", rejected.error);
            }
        }
    }
    svc.drain();
    Outcome {
        svc,
        tenant_ids,
        accepted,
        effect,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The admission ledger balances at both levels: service-wide
    /// `submitted == accepted + rejected`, and per tenant
    /// `submitted == accepted + rejected_queue_full + rejected_budget`.
    #[test]
    fn accepted_plus_rejected_equals_submitted(
        subs in proptest::collection::vec(submission_strategy(3), 1..80),
    ) {
        let out = run_mix(&subs, 3, 4, 2);
        let m = out.svc.metrics();
        prop_assert_eq!(m.submitted, subs.len() as u64);
        prop_assert_eq!(m.submitted, m.accepted + m.rejected());
        prop_assert_eq!(m.accepted, out.accepted.len() as u64);
        for (t, id) in out.tenant_ids.iter().enumerate() {
            let tm = &m.tenants[id.0 as usize];
            let submitted = subs.iter().filter(|s| s.tenant == t).count() as u64;
            prop_assert_eq!(tm.submitted, submitted);
            prop_assert_eq!(
                tm.submitted,
                tm.accepted + tm.rejected_queue_full + tm.rejected_budget
            );
        }
    }

    /// No lost and no duplicated jobs: every accepted job completes, and
    /// each tenant's observed side-effect sum is exactly the sum of its
    /// accepted jobs' unique weights — a lost job would undershoot, a
    /// double-run would overshoot.
    #[test]
    fn accepted_jobs_run_exactly_once(
        subs in proptest::collection::vec(submission_strategy(2), 1..60),
    ) {
        let out = run_mix(&subs, 2, 4, 3);
        for (i, _, _, _, ticket) in &out.accepted {
            let status = ticket.wait();
            prop_assert_eq!(status, JobStatus::Completed, "job {} not completed", i);
        }
        for t in 0..2 {
            let expected: u64 = out
                .accepted
                .iter()
                .filter(|(_, _, _, tenant, _)| *tenant == t)
                .map(|(_, w, tasks, _, _)| w * *tasks as u64)
                .sum();
            prop_assert_eq!(out.effect[t].load(Ordering::SeqCst), expected);
        }
    }

    /// Per-tenant counters reconcile with the core runtime's own stats:
    /// the tasks the accepted jobs spawned are exactly the tasks the
    /// tenant's pooled runtime counted, and completed+failed == accepted
    /// once drained.
    #[test]
    fn tenant_counters_reconcile_with_runtime_stats(
        subs in proptest::collection::vec(submission_strategy(2), 1..50),
    ) {
        let out = run_mix(&subs, 2, 6, 4);
        let m = out.svc.metrics();
        prop_assert_eq!(m.completed + m.failed, m.accepted);
        for (t, id) in out.tenant_ids.iter().enumerate() {
            let tm = &m.tenants[id.0 as usize];
            prop_assert_eq!(tm.completed + tm.failed, tm.accepted);
            prop_assert_eq!(tm.in_flight, 0);
            let tasks_expected: u64 = out
                .accepted
                .iter()
                .filter(|(_, _, _, tenant, _)| *tenant == t)
                .map(|(_, _, tasks, _, _)| *tasks as u64)
                .sum();
            prop_assert_eq!(
                tm.runtime.tasks_spawned, tasks_expected,
                "tenant {}: runtime counted {} tasks, service accepted jobs spawning {}",
                t, tm.runtime.tasks_spawned, tasks_expected
            );
            prop_assert_eq!(tm.spawn_jobs, tm.accepted);
        }
    }
}
