//! The service's completion ring: an unbounded, closable FIFO that
//! submission (warm hits) and the solve workers (finished cold jobs) both
//! feed, and that the single dispatcher thread drains in arrival order.
//! FIFO delivery is what makes the global `done_seq` assignment
//! deterministic: the dispatcher stamps sequence numbers at pop time, so
//! completion order *is* delivery order by construction.
//!
//! Unbounded is deliberate: no producer may ever block on it. Cold
//! completions are bounded by the solve ring's capacity, and each warm
//! hit is posted by the thread that submitted it, which the dispatcher
//! answers with one channel send.

use crate::queue::RingStats;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Condvar, LockRecover, Mutex};
use std::collections::VecDeque;
use std::time::Instant;

struct RingState<T> {
    items: VecDeque<(T, Instant)>,
    closed: bool,
}

/// An unbounded, closable FIFO handoff ring (see the module docs).
pub struct FifoRing<T> {
    fifo: Mutex<RingState<T>>,
    ready: Condvar,
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    wait_us: AtomicU64,
}

impl<T> Default for FifoRing<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FifoRing<T> {
    /// An empty, open ring.
    pub fn new() -> Self {
        Self {
            fifo: Mutex::new(RingState { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            enqueued: AtomicU64::new(0),
            dequeued: AtomicU64::new(0),
            wait_us: AtomicU64::new(0),
        }
    }

    /// Posts one completion. Returns `false` (dropping `item`) if the
    /// ring is already closed: the service closes it only after its solve
    /// workers have been joined, so only a submission racing shutdown
    /// sees this, and it rejects the request.
    pub fn push_completion(&self, item: T) -> bool {
        let mut st = self.fifo.lock_recover();
        if st.closed {
            return false;
        }
        st.items.push_back((item, Instant::now()));
        drop(st);
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.ready.notify_one();
        true
    }

    /// Blocking consumer pop in strict FIFO order. Returns `None` once
    /// the ring is closed *and* drained — the dispatcher-exit signal.
    pub fn pop_completion(&self) -> Option<T> {
        let mut st = self.fifo.lock_recover();
        loop {
            if let Some((item, at)) = st.items.pop_front() {
                drop(st);
                self.dequeued.fetch_add(1, Ordering::Relaxed);
                self.wait_us.fetch_add(at.elapsed().as_micros() as u64, Ordering::Relaxed);
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = crate::sync::wait_recover(&self.ready, st);
        }
    }

    /// Closes the ring: future pushes report `false`, the consumer
    /// drains what is posted and then sees `None`.
    pub fn close(&self) {
        self.fifo.lock_recover().closed = true;
        self.ready.notify_all();
    }

    /// Completions posted but not yet dispatched.
    pub fn len(&self) -> usize {
        self.fifo.lock_recover().items.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of this ring's transit counters (see [`RingStats`]).
    pub fn ring_stats(&self) -> RingStats {
        RingStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            dequeued: self.dequeued.load(Ordering::Relaxed),
            wait_us: self.wait_us.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_close_semantics() {
        let r: FifoRing<u32> = FifoRing::new();
        assert!(r.push_completion(1));
        assert!(r.push_completion(2));
        assert!(r.push_completion(3));
        assert_eq!(r.len(), 3);
        r.close();
        assert!(!r.push_completion(4), "closed ring drops new completions");
        assert_eq!(r.pop_completion(), Some(1));
        assert_eq!(r.pop_completion(), Some(2));
        assert_eq!(r.pop_completion(), Some(3));
        assert_eq!(r.pop_completion(), None, "closed + drained");
        let s = r.ring_stats();
        assert_eq!((s.enqueued, s.dequeued), (3, 3));
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let r: std::sync::Arc<FifoRing<u32>> = std::sync::Arc::new(FifoRing::new());
        let r2 = r.clone();
        let h = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = r2.pop_completion() {
                got.push(v);
            }
            got
        });
        assert!(r.push_completion(7));
        assert!(r.push_completion(8));
        while !r.is_empty() {
            std::thread::yield_now();
        }
        r.close();
        assert_eq!(h.join().unwrap(), vec![7, 8]);
    }
}
