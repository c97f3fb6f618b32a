//! Worker threads: the polling execution loop and task execution.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};

use crate::error::Error;
use crate::failpoint::FaultClass;
use crate::graph;
use crate::runtime::{RuntimeInner, TaskContext};
use crate::stats::StatField;
use crate::task::{TaskId, TaskNode, TaskState};
use crate::trace::TraceEvent;

/// Successors one completion can wake before the worker's wakeup buffer
/// grows.
const WAKEUP_BUFFER_CAPACITY: usize = 64;

/// Main loop of one worker thread.
///
/// The loop polls for ready tasks (own deque → global queue → stealing) and
/// only terminates once the runtime has been shut down *and* no task is in
/// flight — mirroring the always-polling Nanos++ workers described in the
/// paper.
pub(crate) fn worker_loop(inner: Arc<RuntimeInner>, worker_id: usize, started: Arc<Barrier>) {
    // Reused across every task this worker executes, so the steady-state
    // wakeup path allocates nothing (see `graph::complete_into`). Sized up
    // front: whether a worker ever wakes a successor while a program warms
    // up depends on how far the spawner runs ahead of it.
    let mut ready = Vec::with_capacity(WAKEUP_BUFFER_CAPACITY);
    // `Runtime::try_new` returns once every worker got here: its thread's
    // start-up allocations are behind it, and nothing a caller times or
    // counts after `new` includes them.
    started.wait();
    loop {
        match inner.sched.pop(Some(worker_id), &inner.stats) {
            Some(node) => {
                execute_task(&inner, node, Some(worker_id), &mut ready);
            }
            None => {
                if inner.shutdown.load(Ordering::SeqCst) && inner.in_flight.count() == 0 {
                    break;
                }
                inner.sched.idle_wait();
            }
        }
    }
}

/// Execute one task: run the body, notify successors, update counters, and
/// hand the node back to the slab when this worker held its last reference.
///
/// Also used by threads that help while they wait: `worker` is `None` for
/// one that is not a worker (the main thread at a task barrier), whose woken
/// successors go to the shared queue. `ready` is the caller's reusable wakeup
/// buffer; it is drained before returning.
pub(crate) fn execute_task(
    inner: &Arc<RuntimeInner>,
    node: Arc<TaskNode>,
    worker: Option<usize>,
    ready: &mut Vec<Arc<TaskNode>>,
) {
    // Poison / cancellation short-circuit: the node is retired through the
    // exact same tracker/ticket tail as an executed task — only the body is
    // skipped — so the tracker still drains to zero and versions recycle.
    if let Some(origin) = node.poison_origin() {
        retire_without_run(inner, node, worker, ready, Some(origin));
        return;
    }
    if node.is_cancelled() {
        retire_without_run(inner, node, worker, ready, None);
        return;
    }

    node.set_state(TaskState::Running);
    // Snapshot the identity: the node must not be re-initialised (a recycle
    // would mint a new id and bump the generation) while we execute it.
    let (task_id, generation) = (node.id, node.generation);
    let trace_enabled = inner.trace.is_enabled();
    // A thread that runs the task while it waits in `taskwait` is traced in
    // the slot after the last worker's, like its dcheck shadow log.
    let traced_worker = worker.unwrap_or(inner.config.workers);
    if trace_enabled {
        inner.trace.record(TraceEvent::Started {
            task: task_id,
            worker: traced_worker,
            at_ns: inner.trace.now_ns(),
        });
    }

    // A missing body means the node was already executed (a duplicate
    // wakeup would be a scheduler bug, surfaced loudly in debug builds) —
    // whoever ran the body also owns the completion tail, so the only safe
    // move here is to drop this reference without double-retiring.
    let Some(body) = node.body.lock().take() else {
        debug_assert!(false, "task body executed more than once");
        return;
    };
    let inject_panic = inner
        .fault
        .as_ref()
        .is_some_and(|plan| plan.roll(FaultClass::TaskPanic, task_id.raw()));
    let panicked = {
        let ctx = TaskContext {
            inner,
            node: &node,
            worker,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                // lint: allow(panic) — deliberate fault injection, caught by
                // the surrounding catch_unwind (see failpoint.rs).
                panic!("injected fault: task panic");
            }
            body.run(&ctx)
        }));
        match result {
            Ok(()) => false,
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                inner.record_panic(Error::TaskPanicked {
                    task: node.display_name(),
                    message,
                });
                true
            }
        }
    };

    if trace_enabled {
        inner.trace.record(TraceEvent::Finished {
            task: task_id,
            worker: traced_worker,
            at_ns: inner.trace.now_ns(),
            panicked,
        });
    }

    // Deterministic completion delay: widens the window between "body done"
    // and "successors woken / history retired" to shake out ordering bugs,
    // without touching the wall clock.
    if let Some(plan) = inner.fault.as_ref() {
        if plan.roll(FaultClass::DelayedCompletion, task_id.raw()) {
            for _ in 0..plan.delay_spins() {
                std::thread::yield_now();
            }
        }
    }

    // Wake successors. A panicked task still releases its dependants so the
    // graph always drains — but it *poisons* them on the way out: they flow
    // through the scheduler and the retire tail below like any other task,
    // they just never run their bodies (see `retire_without_run`).
    debug_assert!(ready.is_empty());
    let dcheck = inner.dcheck.as_ref();
    if panicked {
        inner.note_poison(task_id);
    }
    graph::complete_into(&node, ready, panicked.then_some(task_id), dcheck);

    inner.stats.add(StatField::TasksExecuted, 1);
    retire_node(inner, node, worker, ready, task_id, generation);
}

/// Retire a poisoned or cancelled task without running its body.
///
/// `poisoned_by` is `Some(origin)` for a node poisoned by an upstream
/// failure and `None` for a node whose cancel flag was raised — in the
/// latter case this node becomes the poison origin for everything
/// downstream. Either way the node takes the exact same completion tail as
/// an executed task (poison-propagate → retire → release tickets →
/// recycle), which is what keeps `in_flight`, the tracker's residue and
/// the slab ledger balanced after a failed run.
fn retire_without_run(
    inner: &Arc<RuntimeInner>,
    node: Arc<TaskNode>,
    worker: Option<usize>,
    ready: &mut Vec<Arc<TaskNode>>,
    poisoned_by: Option<TaskId>,
) {
    let (task_id, generation) = (node.id, node.generation);
    // Drop the unrun closure now: a skipped task must release its captured
    // data handles exactly like an executed one, or `into_inner` could
    // never regain exclusivity after a poisoned drain.
    node.body.lock().clear();

    let origin = match poisoned_by {
        Some(origin) => {
            inner.stats.add(StatField::TasksPoisoned, 1);
            if inner.trace.is_enabled() {
                inner.trace.record(TraceEvent::Poisoned {
                    task: task_id,
                    origin,
                    at_ns: inner.trace.now_ns(),
                });
            }
            origin
        }
        None => {
            inner.stats.add(StatField::TasksCancelled, 1);
            inner.note_poison(task_id);
            if inner.trace.is_enabled() {
                inner.trace.record(TraceEvent::Cancelled {
                    task: task_id,
                    at_ns: inner.trace.now_ns(),
                });
            }
            task_id
        }
    };

    debug_assert!(ready.is_empty());
    graph::complete_into(&node, ready, Some(origin), inner.dcheck.as_ref());
    retire_node(inner, node, worker, ready, task_id, generation);
}

/// The shared completion tail: wake (already-drained-into-`ready`)
/// successors, retire the dependence history, release version tickets, and
/// hand the node back to the slab. Identical for executed, panicked,
/// poisoned and cancelled tasks — the ordering here is load-bearing (see
/// the comments inline).
fn retire_node(
    inner: &Arc<RuntimeInner>,
    node: Arc<TaskNode>,
    worker: Option<usize>,
    ready: &mut Vec<Arc<TaskNode>>,
    task_id: TaskId,
    generation: u32,
) {
    let trace_enabled = inner.trace.is_enabled();
    for succ in ready.drain(..) {
        if trace_enabled {
            inner.trace.record(TraceEvent::Ready {
                task: succ.id,
                at_ns: inner.trace.now_ns(),
            });
        }
        inner.sched.push(succ, worker, true, &inner.stats);
    }

    // Retire the task's dependence history: its live references become
    // tombstones — in place where the tracker's gate is free, through its
    // retire inbox where it is held. The
    // call never waits for a gate: a worker parked behind a spawner's long
    // registration completes nothing, and the spawner's next registration
    // then finds even more live predecessors (see `graph`, "Retirement").
    inner.tracker.retire(&node);

    // Only now release the version bindings, so superseded versions can be
    // recycled (see rename.rs; successors bound to the same versions hold
    // their own tickets). Releasing strictly *after* `retire` returned —
    // i.e. after every access is a tombstone or sits in an inbox — is what
    // makes first-write rename elision deterministic: a spawner that reads
    // a binding count of zero also sees those inbox entries, and its
    // registration applies them before it scans, so every earlier task on
    // the version is a tombstone by then — an elided overwrite can inherit
    // no WAR/WAW edge.
    let released = node.release_tickets();
    if released != 0 {
        inner
            .stats
            .add(StatField::TicketRefsReleased, released as u64);
    }

    debug_assert!(
        node.id == task_id && node.generation == generation,
        "task node was recycled while executing"
    );

    // Retired, tickets released, bookkeeping done: if this worker holds the
    // last reference, the node's storage goes back to the slab for the next
    // spawn (best-effort). If a `taskwait on` waiter or the history of a
    // *deferred* retirement still references the node, the hand-back fails
    // and the waiter or the inbox drain that drops the last reference parks
    // the node instead. A worker or a drain does this *before* the completion
    // counters of its thread tick over, so once `taskwait` observes a drained
    // runtime every node really is parked or freed — the slab's
    // `outstanding == 0` (`Runtime::audit`, `RuntimeStats`) is a firm
    // post-drain invariant, not a race. The parent tracker of a nested task comes back
    // out of the node (the worker still owes it the `child_done` below).
    if let Some(parent) = inner.slab.try_recycle(node) {
        parent.child_done();
    }
    inner.in_flight.leave();
}

/// The recorded [`Error::TaskPanicked`] message. `service.rs` has a function
/// of the same name on purpose: that one words a job's failure reason, and
/// the two crates share no private home.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
