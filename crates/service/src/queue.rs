//! The service's bounded priority job queue. Admission control is
//! strictly non-blocking — [`JobQueue::try_push`] either takes the job or
//! returns [`QueueFull`] immediately, so the accept loop can never be
//! wedged by a slow worker pool — while the worker side blocks on a
//! condvar until a job (or shutdown) arrives.
//!
//! Ordering: higher [`Priority`] first, FIFO within a priority level (a
//! monotone sequence number breaks ties), which makes rejection and
//! completion order deterministic under a single worker — the property
//! the queue-semantics tests pin.

use crate::protocol::RingCounters;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Condvar, LockRecover, Mutex};
use std::collections::BinaryHeap;
use std::time::Instant;

/// Job priority: `0` (batch) to `9` (interactive); the default is
/// [`DEFAULT_PRIORITY`]. Higher values are served first.
pub type Priority = u8;

/// Default priority for requests that do not specify one.
pub const DEFAULT_PRIORITY: Priority = 5;

/// Highest accepted priority value.
pub const MAX_PRIORITY: Priority = 9;

/// Rejection: the queue is at capacity. Carries the capacity so callers
/// can report a useful error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured capacity that was hit.
    pub capacity: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "queue full (capacity {})", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

/// Monotone transit counters of one ring. `dequeued` counts every entry
/// that *left* the ring — popped by a stage worker or removed by ticket
/// cancellation — so `enqueued == dequeued` exactly when the ring is
/// empty. `wait_us` accumulates in-ring residence time (microseconds) of
/// popped entries only; it is informational (wall-clock) and never
/// CI-asserted.
#[derive(Default)]
struct TransitCounters {
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    wait_us: AtomicU64,
}

struct Entry<T> {
    priority: Priority,
    seq: u64,
    at: Instant,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority wins; within a priority, the *lower*
        // sequence number (earlier submission) must surface first.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct State<T> {
    heap: BinaryHeap<Entry<T>>,
    closed: bool,
    seq: u64,
}

/// A bounded, closable priority queue (see the module docs).
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
    counters: TransitCounters,
}

impl<T> JobQueue<T> {
    /// An empty queue admitting at most `capacity` queued jobs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "degenerate queue capacity");
        Self {
            state: Mutex::new(State { heap: BinaryHeap::new(), closed: false, seq: 0 }),
            available: Condvar::new(),
            capacity,
            counters: TransitCounters::default(),
        }
    }

    /// Snapshot of this ring's transit counters and current depth, as
    /// reported under the `stages` member of the `stats` JSON.
    pub fn ring_stats(&self) -> RingCounters {
        let c = &self.counters;
        RingCounters {
            enqueued: c.enqueued.load(Ordering::Relaxed),
            dequeued: c.dequeued.load(Ordering::Relaxed),
            wait_us: c.wait_us.load(Ordering::Relaxed),
            depth: self.len() as u64,
        }
    }

    /// Non-blocking admission: enqueues `item` or rejects immediately.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] at capacity; also when the queue is closed (a
    /// draining service admits nothing new).
    pub fn try_push(&self, item: T, priority: Priority) -> Result<(), QueueFull> {
        let mut st = self.state.lock_recover();
        if st.closed || st.heap.len() >= self.capacity {
            return Err(QueueFull { capacity: self.capacity });
        }
        let seq = st.seq;
        st.seq += 1;
        st.heap.push(Entry { priority, seq, at: Instant::now(), item });
        drop(st);
        self.counters.enqueued.fetch_add(1, Ordering::Relaxed);
        self.available.notify_one();
        Ok(())
    }

    fn record_pop(&self, at: Instant) {
        self.counters.dequeued.fetch_add(1, Ordering::Relaxed);
        self.counters.wait_us.fetch_add(at.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    /// Blocking worker pop: returns the highest-priority job, waiting for
    /// one if none is queued. Returns `None` once the queue is closed
    /// *and* drained — the worker-exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock_recover();
        loop {
            if let Some(e) = st.heap.pop() {
                drop(st);
                self.record_pop(e.at);
                return Some(e.item);
            }
            if st.closed {
                return None;
            }
            st = crate::sync::wait_recover(&self.available, st);
        }
    }

    /// Raises the priority of the first queued entry matching `pred`
    /// (only upward — a lower `priority` leaves the entry untouched).
    /// Returns whether an entry was re-prioritized; `false` also covers
    /// "already popped by a worker". The boosted entry keeps its original
    /// sequence number, so it still sorts FIFO-fair among its new peers.
    /// O(n) heap rebuild under the lock — queues are small by
    /// construction (bounded capacity).
    pub fn boost(&self, pred: impl Fn(&T) -> bool, priority: Priority) -> bool {
        let mut st = self.state.lock_recover();
        let mut entries: Vec<Entry<T>> = std::mem::take(&mut st.heap).into_vec();
        let mut boosted = false;
        for e in &mut entries {
            if !boosted && e.priority < priority && pred(&e.item) {
                e.priority = priority;
                boosted = true;
            }
        }
        st.heap = entries.into();
        boosted
    }

    /// Removes the first queued entry matching `pred`, returning whether
    /// one was removed (`false` also covers "already popped by a
    /// worker"). Used by ticket cancellation: a job whose waiters all
    /// disconnected must not occupy a worker or a queue slot. O(n) heap
    /// rebuild under the lock — queues are small by construction.
    pub fn remove_first(&self, pred: impl Fn(&T) -> bool) -> bool {
        let mut st = self.state.lock_recover();
        let entries: Vec<Entry<T>> = std::mem::take(&mut st.heap).into_vec();
        let mut removed = false;
        let kept: Vec<Entry<T>> = entries
            .into_iter()
            .filter(|e| {
                if !removed && pred(&e.item) {
                    removed = true;
                    false
                } else {
                    true
                }
            })
            .collect();
        st.heap = kept.into();
        drop(st);
        if removed {
            // A cancelled entry left the ring: count the departure (but
            // no wait time — it was never claimed by a worker).
            self.counters.dequeued.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Closes the queue: future pushes reject, workers drain what is
    /// queued and then see `None`.
    pub fn close(&self) {
        self.state.lock_recover().closed = true;
        self.available.notify_all();
    }

    /// Queued (not yet popped) job count.
    pub fn len(&self) -> usize {
        self.state.lock_recover().heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_then_fifo_order() {
        let q: JobQueue<u32> = JobQueue::new(8);
        q.try_push(1, 5).unwrap();
        q.try_push(2, 5).unwrap();
        q.try_push(3, 9).unwrap();
        q.try_push(4, 0).unwrap();
        q.try_push(5, 9).unwrap();
        q.close();
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![3, 5, 1, 2, 4], "priority desc, FIFO within");
    }

    #[test]
    fn rejects_at_capacity_and_after_close() {
        let q: JobQueue<u32> = JobQueue::new(2);
        q.try_push(1, 5).unwrap();
        q.try_push(2, 5).unwrap();
        assert_eq!(q.try_push(3, 9), Err(QueueFull { capacity: 2 }), "full rejects even high-pri");
        assert_eq!(q.pop(), Some(1));
        q.try_push(3, 5).unwrap();
        q.close();
        assert!(q.try_push(4, 5).is_err(), "closed queue admits nothing");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None, "closed + drained");
    }

    #[test]
    fn remove_first_drops_one_matching_entry() {
        let q: JobQueue<u32> = JobQueue::new(8);
        q.try_push(1, 5).unwrap();
        q.try_push(2, 5).unwrap();
        q.try_push(2, 9).unwrap();
        assert!(q.remove_first(|&v| v == 2), "queued entry must be removable");
        assert!(!q.remove_first(|&v| v == 7), "absent entries report false");
        assert_eq!(q.len(), 2);
        let rs = q.ring_stats();
        assert_eq!((rs.enqueued, rs.dequeued, rs.depth), (3, 1, 2), "a removal leaves the ring");
        q.close();
        // Exactly one of the two v=2 entries was removed; order intact.
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert!(order == vec![1, 2] || order == vec![2, 1], "got {order:?}");
    }

    #[test]
    fn blocking_pop_wakes_on_push_and_close() {
        let q: std::sync::Arc<JobQueue<u32>> = std::sync::Arc::new(JobQueue::new(4));
        let q2 = q.clone();
        let h = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = q2.pop() {
                got.push(v);
            }
            got
        });
        q.try_push(7, 5).unwrap();
        q.try_push(8, 5).unwrap();
        // Give the worker a moment to drain, then close to release it.
        while !q.is_empty() {
            std::thread::yield_now();
        }
        q.close();
        let got = h.join().unwrap();
        assert_eq!(got, vec![7, 8]);
    }
}
