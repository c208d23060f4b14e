//! The comparison algorithms from the paper's evaluation (Section 4), plus
//! two auxiliary published structures the paper builds on or cites.
//!
//! | Type | Algorithm | Properties |
//! |---|---|---|
//! | [`SingleLockQueue`] | one test-and-test_and_set lock around both ends | blocking; the paper's "straightforward single-lock queue" |
//! | [`McQueue`] | Mellor-Crummey TR 229 (reconstructed) | lock-free *but blocking*: `fetch_and_store`-based enqueue is ABA-immune, yet a stalled enqueuer stalls every dequeuer |
//! | [`PljQueue`] | Prakash–Lee–Johnson (reconstructed) | non-blocking, linearizable; takes a two-variable snapshot and helps stalled operations |
//! | [`ValoisQueue`] | Valois with the corrected reference-count manager | non-blocking; `Tail` may lag arbitrarily, so reclamation needs per-node counts — with the paper's memory-exhaustion failure mode |
//! | [`TreiberStack`] | Treiber's non-blocking stack | the free-list algorithm, exposed as a structure |
//! | [`LamportQueue`] | Lamport's wait-free ring | single-producer/single-consumer only |
//! | [`RepairableSingleLockQueue`] / [`RepairableMcQueue`] | the same two bodies under the [`msq_sync::Repair`] policy (DESIGN.md §13) | revocable-lock / announce-cell repair closes the blocking baselines' wedge-on-death hole |
//!
//! All queues implement [`msq_platform::ConcurrentWordQueue`] over any
//! [`msq_platform::Platform`], so the harness can drive them natively or in
//! the simulator. Reconstructions preserve exactly the properties the
//! paper's analysis depends on; see `DESIGN.md` §7.

#![warn(missing_docs)]

mod lamport;
mod mellor_crummey;
mod plj;
mod single_lock;
mod treiber;
mod valois_queue;

pub use lamport::LamportQueue;
pub use mellor_crummey::{McQueue, MellorCrummey, RepairableMcQueue, REPAIR_PIDS};
pub use plj::PljQueue;
pub use single_lock::{RepairableSingleLockQueue, SingleLock, SingleLockQueue};
pub use treiber::TreiberStack;
pub use valois_queue::ValoisQueue;

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use msq_platform::ConcurrentWordQueue;

    /// Runs `producers` threads enqueueing `per_producer` distinct values
    /// each against `consumers` threads dequeueing until all have been
    /// seen, then checks every value arrived exactly once by sum.
    pub(crate) fn conserves_values(
        q: Arc<dyn ConcurrentWordQueue>,
        producers: u64,
        consumers: usize,
        per_producer: u64,
    ) {
        let total = producers * per_producer;
        let sum = Arc::new(AtomicU64::new(0));
        let got = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    while q.enqueue(t * per_producer + i + 1).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for _ in 0..consumers {
            let (q, sum, got) = (Arc::clone(&q), Arc::clone(&sum), Arc::clone(&got));
            handles.push(std::thread::spawn(move || {
                while got.load(Ordering::SeqCst) < total {
                    if let Some(v) = q.dequeue() {
                        sum.fetch_add(v, Ordering::SeqCst);
                        got.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::SeqCst), (1..=total).sum::<u64>());
        assert_eq!(q.dequeue(), None, "{}", q.name());
    }
}
