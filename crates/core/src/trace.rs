//! Execution tracing.
//!
//! When enabled in [`RuntimeConfig`](crate::RuntimeConfig), the runtime
//! records one event per task state change, timestamped relative to runtime
//! start. Traces are the raw material for the utilisation and locality
//! analyses in the benchmark harness (and loosely correspond to the
//! Paraver/Extrae traces the OmpSs toolchain produces).

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::task::TaskId;

/// A single trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A task was spawned (inserted into the graph).
    Spawned {
        /// Task id.
        task: TaskId,
        /// Task name if one was given.
        name: Option<Arc<str>>,
        /// Nanoseconds since runtime start.
        at_ns: u64,
        /// Number of dependence edges the task was created with.
        deps: usize,
        /// Reuse count of the slab node the task was spawned into (0 for a
        /// freshly allocated node). Together with the never-reused id it
        /// makes node recycling visible — and ABA-detectable — in traces.
        generation: u32,
    },
    /// A task became ready (all dependencies satisfied).
    Ready {
        /// Task id.
        task: TaskId,
        /// Nanoseconds since runtime start.
        at_ns: u64,
    },
    /// A dependence edge was added at registration time, `from` (the
    /// predecessor) → `task` (the registering successor).
    Edge {
        /// The successor task being registered.
        task: TaskId,
        /// The predecessor the edge points from.
        from: TaskId,
        /// Nanoseconds since runtime start.
        at_ns: u64,
    },
    /// An `output` access of a task renamed a versioned handle (or one chunk
    /// of a versioned partition) to a fresh data version (see
    /// [`crate::rename`]).
    Renamed {
        /// The task whose access triggered the rename.
        task: TaskId,
        /// Raw allocation id of the superseded version.
        from_alloc: u64,
        /// Raw allocation id of the new current version.
        to_alloc: u64,
        /// Whether pooled storage was reused.
        recycled: bool,
        /// For per-chunk renames: index of the renamed chunk within its
        /// partition. `None` for whole-handle renames.
        chunk: Option<u32>,
        /// Nanoseconds since runtime start.
        at_ns: u64,
    },
    /// A worker started executing a task.
    Started {
        /// Task id.
        task: TaskId,
        /// Executing worker index; the number of workers for a thread that
        /// ran the task while waiting in `taskwait`.
        worker: usize,
        /// Nanoseconds since runtime start.
        at_ns: u64,
    },
    /// A worker finished executing a task.
    Finished {
        /// Task id.
        task: TaskId,
        /// Executing worker index; the number of workers for a thread that
        /// ran the task while waiting in `taskwait`.
        worker: usize,
        /// Nanoseconds since runtime start.
        at_ns: u64,
        /// Whether the task body panicked.
        panicked: bool,
    },
    /// A capture scope finished recording a
    /// [`GraphTemplate`](crate::capture::GraphTemplate) (see
    /// [`crate::capture`]). The template's tasks were spawned normally and
    /// have their own `Spawned` events; this marks the batch boundary.
    Captured {
        /// Id of the first task recorded into the template (`TaskId` 0 when
        /// the scope captured no tasks).
        task: TaskId,
        /// Number of tasks recorded into the template.
        tasks: usize,
        /// Nanoseconds since runtime start.
        at_ns: u64,
    },
    /// A [`GraphTemplate`](crate::capture::GraphTemplate) was replayed: the
    /// whole batch was re-stamped under a single tracker acquisition. Each
    /// stamped task also gets its own `Spawned`/`Edge` events (with fresh
    /// ids), recorded between the batch registration and this marker.
    Replayed {
        /// Id of the first task stamped by this replay pass (`TaskId` 0 when
        /// the template is empty).
        task: TaskId,
        /// Number of tasks stamped by this replay pass.
        tasks: usize,
        /// 1-based replay pass number (the capture itself is pass 0).
        pass: u64,
        /// Whether this pass was stamped through the frozen, pre-wired plan
        /// (baked interior edges) rather than resolved per pass.
        prewired: bool,
        /// Nanoseconds since runtime start.
        at_ns: u64,
    },
    /// A task was retired without running because a failing predecessor
    /// (panic or cancellation) poisoned it (see the README's "Failure
    /// semantics").
    Poisoned {
        /// The poisoned task.
        task: TaskId,
        /// The panicked or cancelled task the poison originated from.
        origin: TaskId,
        /// Nanoseconds since runtime start.
        at_ns: u64,
    },
    /// A task was retired without running because its
    /// [`CancelToken`](crate::CancelToken) scope was cancelled before it
    /// started.
    Cancelled {
        /// The cancelled task.
        task: TaskId,
        /// Nanoseconds since runtime start.
        at_ns: u64,
    },
}

impl TraceEvent {
    /// The task this event refers to.
    pub fn task(&self) -> TaskId {
        match self {
            TraceEvent::Spawned { task, .. }
            | TraceEvent::Ready { task, .. }
            | TraceEvent::Edge { task, .. }
            | TraceEvent::Renamed { task, .. }
            | TraceEvent::Started { task, .. }
            | TraceEvent::Finished { task, .. }
            | TraceEvent::Captured { task, .. }
            | TraceEvent::Replayed { task, .. }
            | TraceEvent::Poisoned { task, .. }
            | TraceEvent::Cancelled { task, .. } => *task,
        }
    }

    /// Timestamp of the event in nanoseconds since runtime start.
    pub fn at_ns(&self) -> u64 {
        match self {
            TraceEvent::Spawned { at_ns, .. }
            | TraceEvent::Ready { at_ns, .. }
            | TraceEvent::Edge { at_ns, .. }
            | TraceEvent::Renamed { at_ns, .. }
            | TraceEvent::Started { at_ns, .. }
            | TraceEvent::Finished { at_ns, .. }
            | TraceEvent::Captured { at_ns, .. }
            | TraceEvent::Replayed { at_ns, .. }
            | TraceEvent::Poisoned { at_ns, .. }
            | TraceEvent::Cancelled { at_ns, .. } => *at_ns,
        }
    }
}

/// Collects trace events from all workers.
pub(crate) struct TraceRecorder {
    enabled: bool,
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceRecorder {
    /// Create a recorder; when `enabled` is false all recording calls are
    /// no-ops (and cost one branch).
    pub(crate) fn new(enabled: bool) -> Self {
        TraceRecorder {
            enabled,
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Whether recording is active.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds elapsed since the recorder was created.
    pub(crate) fn now_ns(&self) -> u64 {
        duration_to_ns(self.epoch.elapsed())
    }

    /// Record an event (no-op when disabled).
    pub(crate) fn record(&self, event: TraceEvent) {
        if self.enabled {
            self.events.lock().push(event);
        }
    }

    /// Snapshot of all events recorded so far, in recording order.
    pub(crate) fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Total busy time (sum of task execution intervals) per worker, derived
    /// from Started/Finished pairs. The returned vector is indexed by worker
    /// id and sized to the largest worker index seen; threads that ran tasks
    /// while waiting in `taskwait` share one more slot after the workers'.
    pub(crate) fn busy_ns_per_worker(&self) -> Vec<u64> {
        let events = self.events.lock();
        let mut start_of: std::collections::HashMap<(usize, TaskId), u64> =
            std::collections::HashMap::new();
        let mut busy: Vec<u64> = Vec::new();
        for ev in events.iter() {
            match ev {
                TraceEvent::Started {
                    task,
                    worker,
                    at_ns,
                } => {
                    start_of.insert((*worker, *task), *at_ns);
                }
                TraceEvent::Finished {
                    task,
                    worker,
                    at_ns,
                    ..
                } => {
                    if let Some(s) = start_of.remove(&(*worker, *task)) {
                        if busy.len() <= *worker {
                            busy.resize(worker + 1, 0);
                        }
                        busy[*worker] += at_ns.saturating_sub(s);
                    }
                }
                _ => {}
            }
        }
        busy
    }

    /// Export the execution intervals as a Chrome-tracing (`chrome://tracing`
    /// / Perfetto) JSON array: one complete ("X") event per executed task,
    /// with the worker index as the thread id. The output plays the role the
    /// Paraver traces play in the original OmpSs toolchain.
    pub(crate) fn to_chrome_trace(&self) -> String {
        type StartInfo = (u64, Option<Arc<str>>);
        let events = self.events.lock();
        let mut start_of: std::collections::HashMap<(usize, TaskId), StartInfo> =
            std::collections::HashMap::new();
        let mut names: std::collections::HashMap<TaskId, Option<Arc<str>>> =
            std::collections::HashMap::new();
        let mut out = String::from("[");
        let mut first = true;
        for ev in events.iter() {
            match ev {
                TraceEvent::Spawned { task, name, .. } => {
                    names.insert(*task, name.clone());
                }
                TraceEvent::Started {
                    task,
                    worker,
                    at_ns,
                } => {
                    let name = names.get(task).cloned().flatten();
                    start_of.insert((*worker, *task), (*at_ns, name));
                }
                TraceEvent::Finished {
                    task,
                    worker,
                    at_ns,
                    panicked,
                } => {
                    if let Some((start, name)) = start_of.remove(&(*worker, *task)) {
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        let label = name
                            .map(|n| n.to_string())
                            .unwrap_or_else(|| format!("task {}", task.raw()));
                        out.push_str(&format!(
                            "{{\"name\":\"{}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"panicked\":{}}}}}",
                            label.replace('"', "'"),
                            start as f64 / 1_000.0,
                            at_ns.saturating_sub(start) as f64 / 1_000.0,
                            worker,
                            panicked
                        ));
                    }
                }
                TraceEvent::Ready { .. }
                | TraceEvent::Edge { .. }
                | TraceEvent::Renamed { .. }
                | TraceEvent::Captured { .. }
                | TraceEvent::Replayed { .. }
                | TraceEvent::Poisoned { .. }
                | TraceEvent::Cancelled { .. } => {}
            }
        }
        out.push(']');
        out
    }
}

fn duration_to_ns(d: Duration) -> u64 {
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u64) -> TaskId {
        TaskId(n)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = TraceRecorder::new(false);
        r.record(TraceEvent::Ready {
            task: tid(1),
            at_ns: 5,
        });
        assert!(r.snapshot().is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn enabled_recorder_keeps_order() {
        let r = TraceRecorder::new(true);
        r.record(TraceEvent::Spawned {
            task: tid(1),
            name: Some("a".into()),
            at_ns: 1,
            deps: 0,
            generation: 0,
        });
        r.record(TraceEvent::Ready {
            task: tid(1),
            at_ns: 2,
        });
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].task(), tid(1));
        assert_eq!(snap[0].at_ns(), 1);
        assert_eq!(snap[1].at_ns(), 2);
    }

    #[test]
    fn edge_event_carries_endpoints() {
        let r = TraceRecorder::new(true);
        r.record(TraceEvent::Edge {
            task: tid(2),
            from: tid(1),
            at_ns: 7,
        });
        let snap = r.snapshot();
        assert_eq!(snap[0].task(), tid(2));
        assert_eq!(snap[0].at_ns(), 7);
        match &snap[0] {
            TraceEvent::Edge { from, .. } => assert_eq!(*from, tid(1)),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn busy_time_accounts_started_finished_pairs() {
        let r = TraceRecorder::new(true);
        r.record(TraceEvent::Started {
            task: tid(1),
            worker: 0,
            at_ns: 100,
        });
        r.record(TraceEvent::Started {
            task: tid(2),
            worker: 1,
            at_ns: 150,
        });
        r.record(TraceEvent::Finished {
            task: tid(1),
            worker: 0,
            at_ns: 300,
            panicked: false,
        });
        r.record(TraceEvent::Finished {
            task: tid(2),
            worker: 1,
            at_ns: 250,
            panicked: false,
        });
        let busy = r.busy_ns_per_worker();
        assert_eq!(busy, vec![200, 100]);
    }

    #[test]
    fn unmatched_finished_is_ignored() {
        let r = TraceRecorder::new(true);
        r.record(TraceEvent::Finished {
            task: tid(9),
            worker: 3,
            at_ns: 50,
            panicked: false,
        });
        let busy = r.busy_ns_per_worker();
        assert!(busy.iter().all(|&b| b == 0));
    }

    #[test]
    fn now_ns_is_monotonic() {
        let r = TraceRecorder::new(true);
        let a = r.now_ns();
        let b = r.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn chrome_trace_export_contains_complete_events() {
        let r = TraceRecorder::new(true);
        r.record(TraceEvent::Spawned {
            task: tid(1),
            name: Some("render".into()),
            at_ns: 0,
            deps: 0,
            generation: 0,
        });
        r.record(TraceEvent::Started {
            task: tid(1),
            worker: 2,
            at_ns: 1_000,
        });
        r.record(TraceEvent::Finished {
            task: tid(1),
            worker: 2,
            at_ns: 4_000,
            panicked: false,
        });
        let json = r.to_chrome_trace();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"render\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"dur\":3.000"));
    }

    #[test]
    fn chrome_trace_of_empty_recorder_is_empty_array() {
        let r = TraceRecorder::new(true);
        assert_eq!(r.to_chrome_trace(), "[]");
    }
}
