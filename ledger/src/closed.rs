//! `service.closed`: a closed loop of `T` clients on the job service.
//!
//! Each client submits its next job only when the previous ticket's
//! `wait()` has returned, so a slower service receives less load. Two
//! tenants (`interactive` on the latency lane, `batch` on the bulk lane)
//! with budgets no client count here can exhaust: nothing sheds. The mix,
//! drawn from the seed: 50 % fresh-spawn jobs (a 16-task chain-and-fan),
//! 40 % replay jobs (one pass of a 64-task template captured in set-up),
//! 10 % empty jobs. Bodies spin for about 2 µs, so a job's cost is
//! admission, queueing, hand-off to the runtime and task insertion.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ompss::{Runtime, RuntimeConfig};
use service::{JobService, JobSpec, Lane, ServiceConfig, ServiceMetrics, TenantId, TenantSpec};

use crate::calib::HostSpeed;
use crate::layers::{Counts, Observed, Phases};
use crate::span::{SpanLog, Spans};
use crate::stats::{percentile, summarize, tail_percentile, Summary};
use crate::workload::{Budget, Cfg, Measured, Record, SplitMix, Workload};

const GROUP_TASKS: u64 = 16;
const TEMPLATE_GROUPS: u64 = 4;
/// Jobs per client in one counted pass.
const PASS_JOBS: usize = 300;
/// How long the clients run between two calibration spins.
const SEGMENT_SECONDS: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Spawn,
    Replay,
    Empty,
}

const KINDS: [(Kind, &str); 3] = [
    (Kind::Spawn, "spawn"),
    (Kind::Replay, "replay"),
    (Kind::Empty, "empty"),
];

impl Kind {
    fn draw(rng: &mut SplitMix) -> Kind {
        match rng.below(10) {
            0..=4 => Kind::Spawn,
            5..=8 => Kind::Replay,
            _ => Kind::Empty,
        }
    }

    /// Tasks a completed job of this kind has run.
    fn tasks(self) -> u64 {
        match self {
            Kind::Spawn => GROUP_TASKS,
            Kind::Replay => GROUP_TASKS * TEMPLATE_GROUPS,
            Kind::Empty => 0,
        }
    }
}

/// About 2 µs of arithmetic the compiler cannot drop.
fn body() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..600 {
        x = black_box(x ^ (x << 13) ^ (x >> 7));
    }
    x & 1
}

/// The tasks of one chain-and-fan group of 16: a chain of four writers, a
/// fan of eleven readers, one closing writer. Every task adds one to
/// `effects`, the side effect the oracle sums. `task` spawns one of them on
/// whatever hands out task builders: the runtime for a fresh job, a
/// capture scope for the template.
fn group(
    rt: &Runtime,
    mut task: impl FnMut(bool, ompss::Data<u64>, Arc<AtomicU64>),
    effects: &Arc<AtomicU64>,
) {
    let head = rt.data(0u64);
    for writer in (0..4)
        .map(|_| true)
        .chain((0..11).map(|_| false))
        .chain([true])
    {
        task(writer, head.clone(), effects.clone());
    }
}

fn writer_body(ctx: &ompss::TaskContext<'_>, head: &ompss::Data<u64>, effects: &AtomicU64) {
    *ctx.write(head) += body();
    effects.fetch_add(1, Ordering::SeqCst);
}

fn reader_body(ctx: &ompss::TaskContext<'_>, head: &ompss::Data<u64>, effects: &AtomicU64) {
    black_box(*ctx.read(head) + body());
    effects.fetch_add(1, Ordering::SeqCst);
}

fn spawn_job(effects: Arc<AtomicU64>) -> JobSpec {
    JobSpec::spawn(move |cx| {
        let rt = cx.runtime;
        group(
            rt,
            |writer, head, effects| {
                if writer {
                    rt.task()
                        .inout(&head)
                        .spawn(move |ctx| writer_body(ctx, &head, &effects));
                } else {
                    rt.task()
                        .input(&head)
                        .spawn(move |ctx| reader_body(ctx, &head, &effects));
                }
            },
            &effects,
        );
    })
}

/// Captures the 64-task template into slot 0 of the tenant's runtime; the
/// capture pass runs the tasks once.
fn capture_job(effects: Arc<AtomicU64>) -> JobSpec {
    JobSpec::spawn(move |cx| {
        let mut scope = cx.runtime.capture();
        for _ in 0..TEMPLATE_GROUPS {
            group(
                cx.runtime,
                |writer, head, effects| {
                    if writer {
                        scope
                            .task()
                            .inout(&head)
                            .spawn(move |ctx| writer_body(ctx, &head, &effects));
                    } else {
                        scope
                            .task()
                            .input(&head)
                            .spawn(move |ctx| reader_body(ctx, &head, &effects));
                    }
                },
                &effects,
            );
        }
        cx.templates.store(0, scope.finish());
    })
}

/// Mean latency with the quartiles beside it. Latency under time-slicing
/// has two modes, on a core at once or after a time slice, and its median
/// flips between them from run to run; the mean moves with the share of
/// each mode, and in a closed loop it is what sets the throughput.
fn mean_latency(samples_ms: &[f64]) -> Summary {
    Summary {
        median: samples_ms.iter().sum::<f64>() / samples_ms.len() as f64,
        ..summarize(samples_ms)
    }
}

/// What one client saw, or several pooled.
#[derive(Default)]
struct ClientLog {
    /// Milliseconds from `submit()` entry to `wait()` return, per kind.
    latency_ms: [Vec<f64>; 3],
    submit_us: Vec<f64>,
    failed: u64,
}

impl ClientLog {
    /// Pool `other` into `self`, its times multiplied by `scale`.
    fn absorb(&mut self, other: ClientLog, scale: f64) {
        for (mine, theirs) in self.latency_ms.iter_mut().zip(other.latency_ms) {
            mine.extend(theirs.into_iter().map(|ms| ms * scale));
        }
        self.submit_us
            .extend(other.submit_us.into_iter().map(|us| us * scale));
        self.failed += other.failed;
    }
}

pub struct Closed {
    cfg: Cfg,
    svc: JobService,
    tenants: [TenantId; 2],
    effects: Arc<AtomicU64>,
    expected_effects: u64,
    at_start: ServiceMetrics,
    /// Metrics when the last loop ended: the base of the next ledger check.
    ledger: ServiceMetrics,
    loops: u64,
    loop_ns: u64,
    attempted: u64,
    failed: u64,
}

impl Closed {
    pub fn setup(cfg: &Cfg) -> Closed {
        let svc = JobService::new(
            ServiceConfig::default()
                .with_dispatchers(cfg.threads)
                .with_queue_capacity(256),
        );
        let runtime = RuntimeConfig::default()
            .with_workers(1)
            .with_tracing(cfg.traced);
        let tenant = |name, lane| {
            svc.register_tenant(
                TenantSpec::new(name)
                    .with_lane(lane)
                    .with_in_flight_budget(cfg.threads.max(8))
                    .with_runtime_config(runtime.clone()),
            )
            .expect("a fresh service admits tenants")
        };
        let tenants = [
            tenant("interactive", Lane::Latency),
            tenant("batch", Lane::Bulk),
        ];
        let at_start = svc.metrics();
        let effects = Arc::new(AtomicU64::new(0));
        let mut this = Closed {
            cfg: *cfg,
            svc,
            tenants,
            effects,
            expected_effects: 0,
            ledger: at_start.clone(),
            at_start,
            loops: 0,
            loop_ns: 0,
            attempted: 0,
            failed: 0,
        };
        for tenant in this.tenants {
            let ticket = this.svc.submit(tenant, capture_job(this.effects.clone()));
            let ok = ticket.is_ok_and(|t| t.wait().is_completed());
            this.attempted += 1;
            this.failed += u64::from(!ok);
            this.expected_effects += u64::from(ok) * Kind::Replay.tasks();
        }
        this.svc.drain();
        this.ledger = this.svc.metrics();
        // Warm the pooled runtimes and let the templates freeze.
        this.closed_loop(Budget::Passes(1), &mut Spans::new(false));
        this
    }

    /// One client: draw a job, submit it, wait for it, repeat.
    fn client(
        &self,
        client: usize,
        stream: u64,
        stop: &(dyn Fn(usize) -> bool + Sync),
        log: &mut SpanLog,
    ) -> ClientLog {
        let mut rng = SplitMix(self.cfg.seed ^ (stream << 32) ^ client as u64);
        let mut out = ClientLog::default();
        let root = log.begin("client", client as u32);
        let mut jobs = 0;
        while !stop(jobs) {
            let kind = Kind::draw(&mut rng);
            let tenant = self.tenants[rng.below(2) as usize];
            let spec = match kind {
                Kind::Spawn => spawn_job(self.effects.clone()),
                Kind::Replay => JobSpec::replay(0, 1),
                Kind::Empty => JobSpec::spawn(|_| {}),
            };
            let job = log.begin("job", kind as u32);
            let (ticket, submit) =
                log.time("submit", kind as u32, || self.svc.submit(tenant, spec));
            let completed = ticket.is_ok_and(|ticket| {
                log.time("ticket_wait", kind as u32, || ticket.wait())
                    .0
                    .is_completed()
            });
            let latency = log.end(job);
            // A job that is rejected, fails or expires counts as failed and
            // has no latency to report.
            if completed {
                out.latency_ms[kind as usize].push(latency.as_secs_f64() * 1e3);
                out.submit_us.push(submit.as_secs_f64() * 1e6);
            } else {
                out.failed += 1;
            }
            jobs += 1;
        }
        log.end(root);
        out
    }

    /// Run the clients side by side, then check the books.
    fn closed_loop(&mut self, budget: Budget, spans: &mut Spans) -> (ClientLog, f64) {
        self.loops += 1;
        let start = Instant::now();
        let stop = move |jobs: usize| match budget {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Budget::Passes(p) => jobs >= p * PASS_JOBS,
        };
        let logs: Vec<SpanLog> = (0..self.cfg.threads).map(|c| spans.log(c as u32)).collect();
        let this = &*self;
        let finished: Vec<(ClientLog, SpanLog)> = std::thread::scope(|scope| {
            let clients: Vec<_> = logs
                .into_iter()
                .enumerate()
                .map(|(c, mut log)| {
                    scope.spawn(move || (this.client(c, this.loops, &stop, &mut log), log))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect()
        });
        let wall = start.elapsed();
        self.loop_ns += wall.as_nanos() as u64;
        self.svc.drain();

        let mut pooled = ClientLog::default();
        for (out, log) in finished {
            spans.keep(log);
            pooled.absorb(out, 1.0);
        }
        let jobs_of = |k: usize| pooled.latency_ms[k].len() as u64;
        let completed: u64 = (0..3).map(jobs_of).sum();
        let failed = pooled.failed;
        self.expected_effects += KINDS
            .iter()
            .map(|(kind, _)| kind.tasks() * jobs_of(*kind as usize))
            .sum::<u64>();

        // The four-way ledger and the side-effect sum, one more checked
        // operation on top of the jobs.
        let now = self.svc.metrics();
        let then = &self.ledger;
        let offered = completed + failed;
        let books_balance = now.submitted - then.submitted == offered
            && now.accepted - then.accepted == offered
            && now.completed - then.completed == completed
            && now.failed + now.cancelled + now.expired
                == then.failed + then.cancelled + then.expired
            && now.rejected() == then.rejected()
            && self.effects.load(Ordering::SeqCst) == self.expected_effects;
        self.ledger = now;
        self.attempted += offered + 1;
        self.failed += failed + u64::from(!books_balance);
        (pooled, wall.as_secs_f64())
    }
}

impl Workload for Closed {
    fn reference(&self) -> u64 {
        // The job order a client draws: what the seed means here.
        let mut rng = SplitMix(self.cfg.seed);
        (0..64).fold(0, |acc: u64, _| {
            acc.rotate_left(3) ^ Kind::draw(&mut rng) as u64 ^ rng.below(2)
        })
    }

    fn measure(mut self: Box<Self>, budget: Budget, spans: &mut Spans) -> Measured {
        // The clients run in segments with a calibration spin between them,
        // which must not run beside them.
        let mut speed = HostSpeed::new(self.cfg.threads);
        let mut pooled = ClientLog::default();
        let mut wall_s = 0.0;
        let start = Instant::now();
        let mut segments = 0;
        loop {
            let segment = match budget {
                Budget::Seconds(s) => Budget::Seconds(s.min(SEGMENT_SECONDS)),
                Budget::Passes(_) => Budget::Passes(1),
            };
            let before = speed.factor();
            let (seen, wall) = self.closed_loop(segment, spans);
            let at_nominal = (before + speed.factor()) / 2.0;
            pooled.absorb(seen, at_nominal);
            wall_s += wall * at_nominal;
            segments += 1;
            let done = match budget {
                Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
                Budget::Passes(p) => segments >= p,
            };
            if done {
                break;
            }
        }
        let ClientLog {
            latency_ms: by_kind,
            submit_us: submit,
            ..
        } = pooled;
        let all: Vec<f64> = by_kind.concat();
        let tasks: u64 = KINDS
            .iter()
            .map(|(kind, _)| kind.tasks() * by_kind[*kind as usize].len() as u64)
            .sum();

        let whole =
            |layer, name: String, unit, summary| Record::new(layer, name, "", unit, summary);
        let mut details = vec![
            whole(
                "service",
                "jobs_per_s".into(),
                "1/s",
                Summary::point(all.len() as f64 / wall_s),
            ),
            whole(
                "service",
                "job_latency_p50_ms".into(),
                "ms",
                summarize(&all),
            ),
            whole(
                "service::admission",
                "submit_call_p50_us".into(),
                "us",
                summarize(&submit),
            ),
        ];
        // The highest percentile with at least ten samples beyond it; p99
        // needs a thousand jobs.
        if let Some(p) = tail_percentile(all.len()) {
            let tail = |samples: &[f64]| Summary {
                n: samples.len(),
                ..Summary::point(percentile(samples, p))
            };
            details.push(whole(
                "service",
                format!("job_latency_p{p}_ms"),
                "ms",
                tail(&all),
            ));
            details.push(whole(
                "service::admission",
                format!("submit_call_p{p}_us"),
                "us",
                tail(&submit),
            ));
        }
        for (kind, name) in KINDS {
            let us: Vec<f64> = by_kind[kind as usize].iter().map(|ms| ms * 1e3).collect();
            details.push(whole(
                "service",
                format!("{name}_job_p50_us"),
                "us",
                summarize(&us),
            ));
        }
        let m = &self.ledger;
        for (name, value) in [
            ("peak_queue_depth", m.peak_queue_depth as u64),
            ("retries", m.retries),
            ("rejected_queue_full", m.rejected_queue_full),
            ("rejected_tenant_budget", m.rejected_tenant_budget),
        ] {
            details.push(whole(
                "service::queue",
                name.into(),
                "count",
                Summary::point(value as f64),
            ));
        }
        Measured {
            fresh_ms: mean_latency(&by_kind[Kind::Spawn as usize]),
            replay_ms: mean_latency(&by_kind[Kind::Replay as usize]),
            tasks_per_s: tasks as f64 / wall_s,
            attempted: self.attempted,
            failed: self.failed,
            details,
            observed: self.observe(),
            ompss_ns: self.loop_ns,
        }
    }
}

impl Closed {
    /// The pooled runtimes are the service's own; a job is the way in to
    /// their traces.
    fn observe(&mut self) -> Observed {
        let phases = Arc::new(Mutex::new(Phases::default()));
        for tenant in self.tenants.into_iter().filter(|_| self.cfg.traced) {
            let sink = phases.clone();
            let job = JobSpec::spawn(move |cx| {
                let mut sum = sink.lock().expect("no job panics holding it");
                *sum = std::mem::take(&mut *sum).plus(Phases::of(&cx.runtime.trace()));
            });
            let ticket = self.svc.submit(tenant, job);
            assert!(
                ticket.is_ok_and(|t| t.wait().is_completed()),
                "an idle service must run the job that reads its runtime's trace"
            );
        }
        self.svc.drain();
        let now = self.svc.metrics();
        let mut counts = Counts::default();
        for (before, after) in self.at_start.tenants.iter().zip(&now.tenants) {
            counts = counts.gain(&before.runtime, &after.runtime);
        }
        let phases = std::mem::take(&mut *phases.lock().expect("the jobs are done"));
        Observed { counts, phases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_half_spawn_two_fifths_replay() {
        let mut rng = SplitMix(1);
        let mut seen = [0usize; 3];
        for _ in 0..10_000 {
            seen[Kind::draw(&mut rng) as usize] += 1;
        }
        assert!((4_800..5_200).contains(&seen[0]), "{seen:?}");
        assert!((3_800..4_200).contains(&seen[1]), "{seen:?}");
        assert!((800..1_200).contains(&seen[2]), "{seen:?}");
    }
}
