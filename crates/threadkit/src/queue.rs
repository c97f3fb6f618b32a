//! A bounded blocking MPMC queue (mutex + condition variables), the
//! communication channel of hand-rolled Pthreads pipelines.
//!
//! Blocking in both directions — a full queue stalls the producer, which is
//! the back-pressure a Pthreads pipeline runs on — and nothing else: it is
//! the baseline's channel ([`Pipeline`](crate::Pipeline)) and the ledger's
//! `threadkit.queue_handoff_ns` probe. The service's ingest queue sheds
//! instead of blocking and keeps admission accounting under its lock, so the
//! two stay apart.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Error returned when pushing to or popping from a closed queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueClosed;

impl std::fmt::Display for QueueClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "queue is closed")
    }
}

impl std::error::Error for QueueClosed {}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

struct QueueInner<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

/// A bounded blocking queue shared by cloning.
pub struct BoundedQueue<T> {
    inner: Arc<QueueInner<T>>,
}

impl<T> Clone for BoundedQueue<T> {
    fn clone(&self) -> Self {
        BoundedQueue {
            inner: self.inner.clone(),
        }
    }
}

impl<T> BoundedQueue<T> {
    /// Create a queue holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Arc::new(QueueInner {
                capacity,
                state: Mutex::new(QueueState {
                    items: VecDeque::with_capacity(capacity),
                    closed: false,
                }),
                not_full: Condvar::new(),
                not_empty: Condvar::new(),
            }),
        }
    }

    /// Maximum number of items the queue holds.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.inner.state.lock().items.len()
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.state.lock().closed
    }

    /// Push an item, blocking while the queue is full. Fails once the queue
    /// has been closed.
    pub fn push(&self, item: T) -> Result<(), QueueClosed> {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        loop {
            if state.closed {
                return Err(QueueClosed);
            }
            if state.items.len() < inner.capacity {
                state.items.push_back(item);
                inner.not_empty.notify_one();
                return Ok(());
            }
            inner.not_full.wait(&mut state);
        }
    }

    /// Pop an item, blocking while the queue is empty. Returns `Err` once the
    /// queue is closed *and* drained.
    pub fn pop(&self) -> Result<T, QueueClosed> {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                inner.not_full.notify_one();
                return Ok(item);
            }
            if state.closed {
                return Err(QueueClosed);
            }
            inner.not_empty.wait(&mut state);
        }
    }

    /// Close the queue: producers can no longer push; consumers drain the
    /// remaining items and then receive [`QueueClosed`].
    pub fn close(&self) {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        state.closed = true;
        inner.not_empty.notify_all();
        inner.not_full.notify_all();
    }
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BoundedQueue(len {}/{}, closed: {})",
            self.len(),
            self.capacity(),
            self.is_closed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn fifo_order_single_thread() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap(), 1);
        assert_eq!(q.pop().unwrap(), 2);
        assert_eq!(q.pop().unwrap(), 3);
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_errors() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(QueueClosed));
        assert_eq!(q.pop().unwrap(), 1);
        assert_eq!(q.pop().unwrap(), 2);
        assert_eq!(q.pop(), Err(QueueClosed));
    }

    #[test]
    fn blocking_push_unblocks_on_pop() {
        let q = BoundedQueue::new(1);
        q.push(0).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push(1));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(q.pop().unwrap(), 0);
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop().unwrap(), 1);
    }

    #[test]
    fn producer_consumer_transfers_everything_in_order() {
        let q = BoundedQueue::new(8);
        let q_prod = q.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..1000u32 {
                q_prod.push(i).unwrap();
            }
            q_prod.close();
        });
        let mut received = Vec::new();
        while let Ok(v) = q.pop() {
            received.push(v);
        }
        producer.join().unwrap();
        assert_eq!(received, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_producers_multiple_consumers() {
        let q = BoundedQueue::new(4);
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        q.push(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<u64> = (0..3)
            .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn debug_format() {
        let q = BoundedQueue::<u8>::new(2);
        assert!(format!("{q:?}").contains("0/2"));
    }
}
