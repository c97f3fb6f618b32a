//! Edge insertion and completion: the successor-list side of the task graph
//! (the tracker decides *which* edges exist; these functions add them and
//! release them).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::task::{TaskId, TaskNode, TaskState};

// lint: hot-path-begin — edge insertion + completion tier: run once per
// predecessor / per task; no panicking calls allowed (see `cargo xtask lint`).

/// Add a dependence edge `pred -> succ`. Returns `false` (and adds nothing)
/// if `pred` already completed.
pub(crate) fn add_edge(pred: &Arc<TaskNode>, succ: &Arc<TaskNode>) -> bool {
    let mut links = pred.links.lock();
    if links.completed {
        return false;
    }
    links.successors.push(succ.clone());
    succ.pending.fetch_add(1, Ordering::SeqCst);
    true
}

/// Release the registration sentinel of a freshly registered task. Returns
/// `true` if the task became ready (no unresolved predecessors).
pub(crate) fn finish_registration(node: &Arc<TaskNode>) -> bool {
    let prev = node.pending.fetch_sub(1, Ordering::SeqCst);
    debug_assert!(prev >= 1);
    let ready = prev == 1;
    if ready {
        node.set_state(TaskState::Ready);
    }
    ready
}

/// Mark `node` completed and notify its successors, appending those that
/// became ready onto `ready`. The successor list is drained **in place** —
/// its capacity stays with the node for its next (recycled) life, and the
/// caller's `ready` buffer is reused across completions, so the steady-state
/// wakeup path allocates nothing. Decrementing `pending` under the
/// predecessor's links lock is the same single-lock+atomic pattern
/// [`add_edge`] uses, so no lock ordering is introduced.
///
/// With `poison: Some(origin)` — the node panicked, was cancelled or was
/// itself poisoned — every still-linked successor is poisoned with `origin`
/// before it is released. Poisoning under the predecessor's links lock
/// before the `pending` decrement is race-free: a successor cannot become
/// ready (and so cannot start running) until every predecessor has
/// completed, so the poison mark is always visible to the worker that
/// eventually dequeues it. Transitive propagation is inductive — each
/// poisoned node passes the *same* origin to its own successors when it is
/// retired without running (see `worker::retire_without_run`).
pub(crate) fn complete_into(
    node: &Arc<TaskNode>,
    ready: &mut Vec<Arc<TaskNode>>,
    poison: Option<TaskId>,
    dcheck: Option<&crate::dcheck::DcheckState>,
) {
    // Publish completion to the race oracle's snapshot *before* anything
    // can tell that the task completed — the `Completed` state (a tracker GC
    // sweep drops history references to completed tasks, so a later
    // registration finds no predecessor at all) and the closed successor
    // list: a registration racing with this completion then either gets a
    // live edge (merged below) or inherits the ordering from the snapshot
    // instead. Poisoned completions participate in happens-before like any
    // other (their bodies never ran, so they log no accesses — but their
    // successors still inherit the ordering).
    if let Some(d) = dcheck {
        d.mark_completed(node);
    }
    node.set_state(TaskState::Completed);
    let mut links = node.links.lock();
    links.completed = true;
    for succ in links.successors.drain(..) {
        if let Some(d) = dcheck {
            d.merge_edge(node, &succ);
        }
        if let Some(origin) = poison {
            succ.poison_with(origin);
        }
        let prev = succ.pending.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev >= 1);
        if prev == 1 {
            succ.set_state(TaskState::Ready);
            ready.push(succ);
        }
    }
}
// lint: hot-path-end

/// Mark `node` completed and notify its successors. Returns the successors
/// that became ready as a result. Allocating convenience wrapper around
/// [`complete_into`] for unit tests; the worker hot path passes its own
/// reusable buffer.
#[cfg(test)]
pub(crate) fn complete(node: &Arc<TaskNode>) -> Vec<Arc<TaskNode>> {
    let mut ready = Vec::new();
    complete_into(node, &mut ready, None, None);
    ready
}
