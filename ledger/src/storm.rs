//! `insert.storm`: bodies of one add, so that creating, registering,
//! stamping and retiring tasks is all the work there is.
//!
//! A batch is 256 tasks over 16 shared cells; each task reads one cell and
//! writes another, drawn from the seed, so writers chain on WAW hazards,
//! readers hang RAW and WAR edges off every write and registrations
//! contend on the cells' tracker shards. A round stamps the batch
//! `round_batches` times and waits for quiescence, and is timed from the
//! first spawn until `taskwait` returns. Fresh rounds spawn every task
//! through `rt.task()`; replay rounds stamp the captured batch through
//! `Runtime::replay` under the default configuration. Both use one runtime
//! and the same cells: two uses of one tracker.

use std::time::Instant;

use ompss::{Data, GraphTemplate, ReplayBindings, Runtime, RuntimeConfig, RuntimeStats};

use crate::calib::HostSpeed;
use crate::layers::{Counts, Observed, Phases};
use crate::span::{SpanLog, Spans};
use crate::stats::{summarize, Summary};
use crate::workload::{Budget, Cfg, Measured, Record, SplitMix, Workload};

pub const BATCH: usize = 256;
pub const CELLS: usize = 16;
/// Rounds of each kind in one counted pass.
const PASS_ROUNDS: usize = 8;

/// `(cell read, cell written)` of each task of the batch; never the same
/// cell, which the runtime would reject as a clash.
pub fn pattern(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = SplitMix(seed);
    (0..BATCH)
        .map(|_| {
            let write = rng.below(CELLS as u64) as usize;
            let read = (write + 1 + rng.below(CELLS as u64 - 1) as usize) % CELLS;
            (read, write)
        })
        .collect()
}

/// What one batch does to the cells when run in program order.
pub fn fold(cells: &mut [u64; CELLS], pattern: &[(usize, usize)]) {
    for (i, &(read, write)) in pattern.iter().enumerate() {
        cells[write] = cells[read].wrapping_add(i as u64);
    }
}

pub struct Storm {
    threads: usize,
    round_batches: usize,
    rt: Runtime,
    cells: Vec<Data<u64>>,
    pattern: Vec<(usize, usize)>,
    template: GraphTemplate,
    bindings: ReplayBindings,
    /// The cells as a sequential run of everything stamped so far leaves
    /// them.
    model: [u64; CELLS],
    stats_at_start: RuntimeStats,
    ompss_ns: u64,
    attempted: u64,
    failed: u64,
}

impl Storm {
    pub fn setup(cfg: &Cfg) -> Storm {
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(cfg.threads)
                .with_tracing(cfg.traced),
        );
        let stats_at_start = rt.stats();
        let cells: Vec<Data<u64>> = (0..CELLS).map(|_| rt.data(0u64)).collect();
        let pattern = pattern(cfg.seed);
        let mut scope = rt.capture();
        for (i, &(read, write)) in pattern.iter().enumerate() {
            let (r, w) = (cells[read].clone(), cells[write].clone());
            scope
                .task()
                .input(&r)
                .output(&w)
                .spawn(move |ctx| *ctx.write(&w) = ctx.read(&r).wrapping_add(i as u64));
        }
        let template = scope.finish();
        rt.taskwait();
        let mut model = [0u64; CELLS];
        fold(&mut model, &pattern);
        let mut this = Storm {
            threads: cfg.threads,
            // Short enough that a traced pass, which keeps five events
            // per task in memory, stays small.
            round_batches: if cfg.quick { 2 } else { 16 },
            rt,
            cells,
            pattern,
            template,
            bindings: ReplayBindings::new(),
            model,
            stats_at_start,
            ompss_ns: 0,
            attempted: 0,
            failed: 0,
        };
        // Warm the slab, the queues and the tracker maps, and let the
        // template freeze into its pre-wired form.
        let mut log = SpanLog::new(Instant::now(), 0, false);
        for _ in 0..3 {
            this.round(false, &mut log);
            this.round(true, &mut log);
        }
        this
    }

    fn round_tasks(&self) -> usize {
        self.round_batches * BATCH
    }

    /// One round, timed from the first insertion until quiescence, then
    /// checked against the sequential fold. Returns milliseconds.
    fn round(&mut self, replay: bool, log: &mut SpanLog) -> f64 {
        let before = self.rt.stats();
        let round = log.begin("round", u32::from(replay));
        if replay {
            let insert = log.begin("replay", 1);
            for _ in 0..self.round_batches {
                self.rt.replay(&self.template, &self.bindings);
            }
            log.end(insert);
        } else {
            let insert = log.begin("spawn_loop", 0);
            for _ in 0..self.round_batches {
                for (i, &(read, write)) in self.pattern.iter().enumerate() {
                    let (r, w) = (self.cells[read].clone(), self.cells[write].clone());
                    self.rt
                        .task()
                        .input(&r)
                        .output(&w)
                        .spawn(move |ctx| *ctx.write(&w) = ctx.read(&r).wrapping_add(i as u64));
                }
            }
            log.end(insert);
        }
        log.time("taskwait", u32::from(replay), || self.rt.taskwait());
        let elapsed = log.end(round);
        self.ompss_ns += elapsed.as_nanos() as u64;

        for _ in 0..self.round_batches {
            fold(&mut self.model, &self.pattern);
        }
        let after = self.rt.stats();
        let cells_ok = self
            .cells
            .iter()
            .zip(&self.model)
            .all(|(cell, expected)| self.rt.fetch(cell) == *expected);
        let ledger_ok = after.tasks_spawned - before.tasks_spawned == self.round_tasks() as u64
            && after.tasks_executed == after.tasks_spawned
            && self.rt.audit().is_ok();
        self.attempted += 1;
        self.failed += u64::from(!(cells_ok && ledger_ok));
        elapsed.as_secs_f64() * 1e3
    }
}

impl Workload for Storm {
    fn reference(&self) -> u64 {
        // The fold of one batch from zeroed cells: what the pattern means.
        let mut cells = [0u64; CELLS];
        fold(&mut cells, &self.pattern);
        cells.iter().fold(0, |acc, c| acc.rotate_left(7) ^ c)
    }

    fn measure(mut self: Box<Self>, budget: Budget, spans: &mut Spans) -> Measured {
        let mut log = spans.log(0);
        let root = log.begin("insert.storm", 0);
        let start = Instant::now();
        let (mut fresh, mut replay) = (Vec::new(), Vec::new());
        let mut speed = HostSpeed::new(self.threads);
        loop {
            // Alternate which kind goes first.
            let replay_first = fresh.len() % 2 == 1;
            let at_nominal = speed.factor();
            for is_replay in [replay_first, !replay_first] {
                let ms = self.round(is_replay, &mut log);
                if is_replay { &mut replay } else { &mut fresh }.push(ms * at_nominal);
            }
            let done = match budget {
                Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
                Budget::Passes(p) => fresh.len() >= p * PASS_ROUNDS,
            };
            if done {
                break;
            }
        }
        log.end(root);
        spans.keep(log);

        let (fresh_ms, replay_ms) = (summarize(&fresh), summarize(&replay));
        let tasks = self.round_tasks() as f64;
        let rate = |s: Summary| Summary {
            median: tasks / (s.median / 1e3),
            q1: tasks / (s.q3 / 1e3),
            q3: tasks / (s.q1 / 1e3),
            n: s.n,
        };
        let details = vec![
            Record::new("ompss", "fresh_tasks_per_s", "", "1/s", rate(fresh_ms)),
            Record::new("ompss", "replay_tasks_per_s", "", "1/s", rate(replay_ms)),
            Record::new(
                "ompss",
                "tasks_per_round",
                "",
                "count",
                Summary::point(tasks),
            ),
        ];
        let observed = Observed {
            counts: Counts::default().gain(&self.stats_at_start, &self.rt.stats()),
            phases: Phases::of(&self.rt.trace()),
        };
        Measured {
            fresh_ms,
            replay_ms,
            tasks_per_s: 2.0 * tasks / ((fresh_ms.median + replay_ms.median) / 1e3),
            attempted: self.attempted,
            failed: self.failed,
            details,
            observed,
            ompss_ns: self.ompss_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_pattern_and_no_task_reads_what_it_writes() {
        assert_eq!(pattern(7), pattern(7));
        assert_ne!(pattern(7), pattern(8));
        let p = pattern(7);
        assert_eq!(p.len(), BATCH);
        assert!(p.iter().all(|&(r, w)| r != w && r < CELLS && w < CELLS));
    }

    #[test]
    fn fold_is_program_order() {
        let mut cells = [0u64; CELLS];
        fold(&mut cells, &[(1, 0), (0, 2), (2, 0)]);
        // cell0 = cell1 + 0 = 0; cell2 = cell0 + 1 = 1; cell0 = cell2 + 2 = 3
        assert_eq!((cells[0], cells[2]), (3, 1));
    }
}
