//! A bounded multi-producer/multi-consumer job queue with backpressure
//! accounting — the feed of the campaign engine's one worker pool.
//!
//! Both front doors of the engine feed its workers through a
//! [`JobQueue`]. A batch campaign ([`Campaign::run`](crate::Campaign::run))
//! is a closed, pre-filled queue: every item, tagged with its index, is
//! pushed before the workers start, and the queue is closed at once, so
//! the workers drain it and stop. A campaign *service* instead receives
//! work over time and must answer the question the batch path never
//! faces: what happens when mutants arrive faster than the workers
//! classify them? The queue's admission side is that answer, kept
//! deliberately small:
//!
//! * **bounded** — a fixed capacity chosen at construction; the depth a
//!   queue is allowed to reach *is* the latency budget the operator
//!   signed up for;
//! * **non-blocking admission** — [`JobQueue::push`] never blocks the
//!   submitting connection: a full queue **sheds** the item back to the
//!   caller, which reports the rejection upstream instead of silently
//!   stalling the whole intake path;
//! * **blocking consumption** — [`JobQueue::pop`] parks workers until an
//!   item or [`JobQueue::close`] arrives; after close, the remaining
//!   items drain in order and then every worker sees `None`;
//! * **accounted** — accepted/shed totals, current depth and the
//!   high-water mark are tracked under the same lock that moves items,
//!   so a [`JobQueue::stats`] snapshot is always internally consistent.
//!
//! Built on `Mutex` + `Condvar` only: like the rest of the engine it is
//! dependency-free, and the campaign hot path (classify a mutant: tens of
//! microseconds to milliseconds) amortises the lock far below noise.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Backpressure counters observed at one instant (see [`JobQueue::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Items accepted into the queue since creation.
    pub accepted: u64,
    /// Items rejected because the queue was at capacity.
    pub shed: u64,
    /// Items currently waiting (accepted, not yet popped).
    pub depth: usize,
    /// Highest depth ever observed — the high-water mark.
    pub max_depth: usize,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    stats: QueueStats,
}

/// A bounded MPMC queue feeding campaign workers; see the [module
/// docs](self) for the admission/consumption contract.
#[derive(Debug)]
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// Create a queue holding at most `capacity` items (minimum 1).
    pub fn bounded(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                stats: QueueStats::default(),
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The fixed capacity this queue admits up to.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer one item. A full or closed queue **sheds**: the item comes
    /// straight back as `Err` and the shed counter increments (closed
    /// queues shed too — a draining service must not accept work it will
    /// never run). Never blocks.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed || inner.items.len() >= self.capacity {
            inner.stats.shed += 1;
            return Err(item);
        }
        inner.items.push_back(item);
        inner.stats.accepted += 1;
        inner.stats.depth = inner.items.len();
        inner.stats.max_depth = inner.stats.max_depth.max(inner.items.len());
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Take the next item, blocking while the queue is open and empty.
    /// Returns `None` once the queue is closed **and** drained — the
    /// worker-loop termination signal.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                inner.stats.depth = inner.items.len();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    /// Take the next item only if one is queued right now — never blocks,
    /// open or closed. The drain path uses this to shed the backlog
    /// explicitly once a drain deadline passes, racing the workers for
    /// the same items (each item still goes to exactly one taker).
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        let item = inner.items.pop_front();
        if item.is_some() {
            inner.stats.depth = inner.items.len();
        }
        item
    }

    /// Close the queue: no further admissions, already-queued items still
    /// drain, and blocked [`JobQueue::pop`] calls wake up.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// A consistent snapshot of the backpressure counters.
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().unwrap().stats
    }

    /// Current queued depth (shorthand for `stats().depth`).
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_preserves_fifo_order() {
        let q = JobQueue::bounded(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_queue_sheds_and_counts() {
        let q = JobQueue::bounded(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.push(4), Err(4));
        let s = q.stats();
        assert_eq!((s.accepted, s.shed, s.depth, s.max_depth), (2, 2, 2, 2));
        // Popping frees a slot; admission resumes.
        assert_eq!(q.pop(), Some(1));
        q.push(5).unwrap();
        assert_eq!(q.stats().accepted, 3);
    }

    #[test]
    fn closed_queue_sheds_but_drains() {
        let q = JobQueue::bounded(4);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "pop after drain stays None");
    }

    #[test]
    fn capacity_is_at_least_one() {
        let q = JobQueue::bounded(0);
        assert_eq!(q.capacity(), 1);
        q.push(1).unwrap();
        assert_eq!(q.push(2), Err(2));
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q = Arc::new(JobQueue::bounded(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));

        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn try_pop_never_blocks() {
        let q = JobQueue::bounded(4);
        assert_eq!(q.try_pop(), None, "empty open queue: None, no blocking");
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.stats().depth, 1);
        q.close();
        assert_eq!(q.try_pop(), Some(2), "closed queues still drain");
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn high_water_mark_tracks_peak_not_current() {
        let q = JobQueue::bounded(8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        for _ in 0..6 {
            q.pop();
        }
        let s = q.stats();
        assert_eq!(s.depth, 0);
        assert_eq!(s.max_depth, 6);
    }
}
