//! What the four workloads have in common.

use crate::json::Json;
use crate::layers::Observed;
use crate::span::Spans;
use crate::stats::Summary;

/// What a workload is generated from. The seed reaches the program only as
/// generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// OmpSs workers, Pthreads threads, service clients.
    pub threads: usize,
    /// Inputs shrunk for the tests.
    pub quick: bool,
    /// Build OmpSs runtimes with `with_tracing(true)`.
    pub traced: bool,
}

/// How long to measure: the timed run goes by the clock, the traced pass
/// by a count, so that the trace the program keeps in memory stays small.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Passes(usize),
}

/// One named number with its spread: a line of output.
#[derive(Debug, Clone)]
pub struct Record {
    pub name: String,
    /// Row or job kind the number belongs to; empty for the whole workload.
    pub scope: String,
    pub unit: &'static str,
    pub layer: &'static str,
    pub summary: Summary,
}

impl Record {
    pub fn new(
        layer: &'static str,
        name: impl Into<String>,
        scope: impl Into<String>,
        unit: &'static str,
        summary: Summary,
    ) -> Record {
        Record {
            name: name.into(),
            scope: scope.into(),
            unit,
            layer,
            summary,
        }
    }

    pub fn line(&self, workload: &str) -> String {
        let Summary { median, q1, q3, n } = self.summary;
        let scope = if self.scope.is_empty() {
            String::new()
        } else {
            format!("[{}]", self.scope)
        };
        format!(
            "{workload} {layer} {name}{scope} = {median:.6} {unit} (q1 {q1:.6}, q3 {q3:.6}, n {n})",
            layer = self.layer,
            name = self.name,
            unit = self.unit,
        )
    }

    pub fn to_json(&self) -> Json {
        let Summary { median, q1, q3, n } = self.summary;
        Json::obj([
            ("name", Json::str(&self.name)),
            ("scope", Json::str(&self.scope)),
            ("layer", Json::str(self.layer)),
            ("unit", Json::str(self.unit)),
            ("median", Json::Num(median)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", Json::Int(n as u64)),
        ])
    }
}

/// What one measurement of a workload found.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Time of the workload's unit of work when its tasks are inserted by
    /// `rt.task()…spawn()`.
    pub fresh_ms: Summary,
    /// The same when they are inserted by `Runtime::replay`.
    pub replay_ms: Summary,
    /// Tasks executed per second of the time the OmpSs work took.
    pub tasks_per_s: f64,
    /// Operations checked against their reference, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Everything else worth a line: per row, per job kind, per layer.
    pub details: Vec<Record>,
    /// Counters of the workload's runtimes since set-up and, under
    /// `Cfg::traced`, the phases of their tasks.
    pub observed: Observed,
    /// Time the OmpSs work behind `observed` took.
    pub ompss_ns: u64,
}

pub trait Workload {
    /// Digest of the sequential references, to compare across set-ups.
    fn reference(&self) -> u64;
    /// Measure once, then stop every thread the workload started; dropping
    /// a workload unmeasured stops them too.
    fn measure(self: Box<Self>, budget: Budget, spans: &mut Spans) -> Measured;
}

/// SplitMix64: the one generator behind every seeded choice the ledger
/// itself makes (access patterns, job order).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
