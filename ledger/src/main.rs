//! `ledger`: the repository's benchmark. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and how they interact.
//!
//! ```text
//! ledger [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//!        [--trace-out <file>] [--out <file>] [--aa] [--quick]
//! ```
//!
//! Everything is measured from outside, by timing calls into the public
//! functions of the workspace's crates. The last line printed for a
//! workload is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics of a timed run (`--trace 0`), the
//! per-layer metrics of a traced run (`--trace 1`).

mod calib;
mod closed;
mod host;
mod json;
mod layers;
mod metrics;
mod probes;
mod span;
mod stats;
mod storm;
mod table1;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use host::Host;
use json::Json;
use metrics::{Def, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use span::Spans;
use stats::Summary;
use workload::{Budget, Cfg, Measured, Record, Workload};

/// Episodes (a set-up, then a measurement) per timed run: as many as keep
/// the set-ups within `SETUP_SHARE` of the measuring time, within limits.
const MIN_EPISODES: usize = 3;
const MAX_EPISODES: usize = 16;
const SETUP_SHARE: f64 = 0.2;
/// Passes of the traced run, traced and untraced alike.
const TRACED_PASSES: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    aa: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        trace_out: None,
        out: None,
        aa: false,
        quick: false,
    };
    let mut seconds = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|(w, _)| w == name) {
                    return Err(format!("unknown workload {name}"));
                }
                o.workload = Some(name.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => o.trace_out = Some(value()?.clone()),
            "--out" => o.out = Some(value()?.clone()),
            "--aa" => o.aa = true,
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    o.seconds = seconds.unwrap_or(if o.quick { 0.2 } else { RUN_SECONDS as f64 });
    if o.trace_out.is_some() && !o.trace {
        return Err("--trace-out needs --trace 1".into());
    }
    if o.aa && o.trace {
        return Err("--aa compares timed runs; it does not go with --trace 1".into());
    }
    Ok(o)
}

fn setup(name: &str, cfg: &Cfg) -> Box<dyn Workload> {
    match name {
        "table1.coarse" => Box::new(table1::Table1::setup(cfg, false)),
        "table1.fine" => Box::new(table1::Table1::setup(cfg, true)),
        "insert.storm" => Box::new(storm::Storm::setup(cfg)),
        "service.closed" => Box::new(closed::Closed::setup(cfg)),
        other => unreachable!("parse admits only known workloads, not {other}"),
    }
}

/// One run of one workload: what its last line reports, and the rest.
struct Run {
    workload: String,
    traced: bool,
    attempted: u64,
    failed: u64,
    /// The metrics `BENCHMARK.json` names, in its order.
    metrics: Vec<(Def, Summary)>,
    details: Vec<Record>,
}

impl Run {
    fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(def, s)| {
                    let value = Json::obj([
                        ("value", Json::Num(s.median)),
                        ("unit", Json::str(def.unit)),
                    ]);
                    (def.name, value)
                })),
            ),
        ])
    }

    /// The named metrics as output lines; a per-layer metric's layer is the
    /// part of its name before the dot.
    fn named(&self) -> impl Iterator<Item = Record> + '_ {
        self.metrics.iter().map(|(def, s)| {
            let layer = match def.name.split_once('.') {
                Some((layer, _)) if self.traced => layer,
                _ => "end_to_end",
            };
            Record::new(layer, def.name, "", def.unit, *s)
        })
    }

    fn to_json(&self) -> Json {
        let records = |records: &mut dyn Iterator<Item = Record>| {
            Json::Arr(records.map(|r| r.to_json()).collect())
        };
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("result", self.result_line()),
            ("metrics", records(&mut self.named())),
            ("details", records(&mut self.details.iter().cloned())),
        ])
    }

    fn print(&self) {
        for record in self.named().chain(self.details.iter().cloned()) {
            println!("{}", record.line(&self.workload));
        }
        println!("{}", self.result_line().render());
    }
}

/// The timed run, nothing traced: several episodes, each a set-up followed
/// by a measurement for its share of `seconds`; every metric is the median
/// over the episodes. How the OS places a runtime's threads, and whether
/// the master shares a core with a worker, is drawn once per runtime and
/// shifts a whole episode by a tenth or more, so one long measurement is
/// less steady than many short ones. The first set-up tells how many
/// episodes fit: set-ups may take a fifth of `seconds` on top of it.
/// Fails if two set-ups disagree on the sequential references: then there
/// is nothing to check outputs against.
fn timed_run(name: &str, cfg: &Cfg, seconds: f64) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut reference = None;
    let mut episodes = Vec::new();
    let mut speed = calib::HostSpeed::new(cfg.threads);
    let mut planned = MIN_EPISODES;
    while episodes.len() < planned {
        let before = speed.factor();
        let start = Instant::now();
        let workload = setup(name, cfg);
        let elapsed = start.elapsed().as_secs_f64();
        setup_s.push(elapsed * (before + speed.factor()) / 2.0);
        let digest = workload.reference();
        if let Some(earlier) = reference
            .replace(digest)
            .filter(|earlier| *earlier != digest)
        {
            return Err(format!(
                "{name}: two sequential reference runs disagree ({earlier:#x} vs {digest:#x})"
            ));
        }
        if episodes.is_empty() {
            planned =
                ((SETUP_SHARE * seconds / elapsed) as usize).clamp(MIN_EPISODES, MAX_EPISODES);
        }
        episodes.push(workload.measure(
            Budget::Seconds(seconds / planned as f64),
            &mut Spans::new(false),
        ));
    }
    let over_episodes = |value: fn(&Measured) -> f64| {
        stats::summarize(&episodes.iter().map(value).collect::<Vec<_>>())
    };
    let values = [
        over_episodes(|m| m.fresh_ms.median),
        over_episodes(|m| m.replay_ms.median),
        over_episodes(|m| m.tasks_per_s),
        stats::summarize(&setup_s),
    ];
    let attempted = episodes.iter().map(|m| m.attempted).sum();
    let failed = episodes.iter().map(|m| m.failed).sum();
    // The detail lines of the episode in the middle.
    episodes.sort_by(|a, b| a.fresh_ms.median.total_cmp(&b.fresh_ms.median));
    Ok(Run {
        workload: name.to_string(),
        traced: false,
        attempted,
        failed,
        metrics: END_TO_END.iter().map(|(def, _)| *def).zip(values).collect(),
        details: episodes.swap_remove(planned / 2).details,
    })
}

/// The traced run: the same few passes twice, first with nothing traced,
/// then with the benchmark's spans stored and the runtimes built with
/// `with_tracing(true)`; then the probes.
fn traced_run(name: &str, cfg: &Cfg, trace_out: Option<&str>) -> Result<Run, String> {
    let pass = |traced: bool| -> (Measured, Spans) {
        let mut spans = Spans::new(traced);
        let measured =
            setup(name, &Cfg { traced, ..*cfg }).measure(Budget::Passes(TRACED_PASSES), &mut spans);
        (measured, spans)
    };
    let (plain, _) = pass(false);
    let (traced, spans) = pass(true);

    let unit_ms = |m: &Measured| m.fresh_ms.median + m.replay_ms.median;
    let self_ns = span::self_ns_by_name(&spans.logs);
    let root_ns = span::root_ns(&spans.logs);
    let mut values = traced.observed.metrics(traced.ompss_ns);
    values.push(("trace.overhead_ratio", unit_ms(&traced) / unit_ms(&plain)));
    values.push((
        "trace.span_coverage",
        self_ns.values().sum::<u64>() as f64 / root_ns as f64,
    ));
    values.extend(probes::run(cfg.threads, cfg.seed));

    let mut details = traced.details;
    for (span_name, ns) in &self_ns {
        details.push(Record::new(
            "trace",
            "span_self_ms",
            *span_name,
            "ms",
            Summary::point(*ns as f64 / 1e6),
        ));
    }
    details.push(Record::new(
        "trace",
        "span_root_ms",
        "",
        "ms",
        Summary::point(root_ns as f64 / 1e6),
    ));
    if let Some(path) = trace_out {
        std::fs::write(path, span::chrome_trace(name, &spans.logs))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let (_, value) = values
                .iter()
                .find(|(n, _)| *n == def.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", def.name));
            (*def, Summary::point(*value))
        })
        .collect();
    Ok(Run {
        workload: name.to_string(),
        traced: true,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        details,
    })
}

/// Compare two timed runs of the same code; prints one line per metric and
/// returns whether every difference stayed within its bound.
fn aa_within_bounds(first: &Run, second: &Run) -> bool {
    let mut within = true;
    for (((def, a), (_, b)), (_, bound)) in
        first.metrics.iter().zip(&second.metrics).zip(&END_TO_END)
    {
        let difference = (b.median - a.median).abs() / a.median;
        let ok = difference <= *bound;
        within &= ok;
        println!(
            "aa {} {} first {:.6} second {:.6} {} difference {:.4} bound {:.2} {}",
            first.workload,
            def.name,
            a.median,
            b.median,
            def.unit,
            difference,
            bound,
            if ok { "ok" } else { "EXCEEDED" }
        );
    }
    within
}

fn run(o: &Options) -> Result<bool, String> {
    let host = Host::probe();
    println!("host {}", host.to_json().render());
    if let Some(warning) = host.warning() {
        println!("{warning}");
    }
    let cfg = Cfg {
        seed: o.seed,
        threads: host.threads,
        quick: o.quick,
        traced: false,
    };
    let names: Vec<&str> = match &o.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|(name, _)| *name).collect(),
    };
    let mut all_ok = true;
    let mut runs = Vec::new();
    for name in names {
        let one = || {
            if o.trace {
                traced_run(name, &cfg, o.trace_out.as_deref())
            } else {
                timed_run(name, &cfg, o.seconds)
            }
        };
        let first = one()?;
        first.print();
        let second = if o.aa { Some(one()?) } else { None };
        if let Some(second) = &second {
            second.print();
            all_ok &= aa_within_bounds(&first, second);
        }
        runs.push(first);
        runs.extend(second);
    }
    if let Some(path) = &o.out {
        let report = Json::obj([
            ("host", host.to_json()),
            ("seed", Json::Int(o.seed)),
            ("seconds", Json::Num(o.seconds)),
            ("quick", Json::Bool(o.quick)),
            ("runs", Json::Arr(runs.iter().map(Run::to_json).collect())),
        ]);
        std::fs::write(path, report.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("ledger: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests;
