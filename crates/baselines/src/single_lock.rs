//! The single-lock queue: the baseline every experiment includes.

use std::sync::Arc;

use msq_arena::{MemBudget, NodeArena};
use msq_platform::{
    AtomicWord, BackoffConfig, ConcurrentWordQueue, Platform, QueueFull, NULL_INDEX,
};
use msq_sync::{Acquired, NoRepair, Repair, RepairLabels, RepairPolicy};

/// A linked-list FIFO queue protected by one lock, generic over its
/// [`RepairPolicy`] `R`: the one body behind [`SingleLockQueue`] and
/// [`RepairableSingleLockQueue`].
pub struct SingleLock<P: Platform, R: RepairPolicy<P> = NoRepair> {
    head: P::Cell,
    tail: P::Cell,
    lock: R::Lock,
    /// `node + 1` while an enqueue is inside the critical section and its
    /// effect may be torn; `0` otherwise. Only the lock holder writes it.
    enq_intent: R::Intent,
    /// `old_dummy + 1` while a dequeue is past its emptiness check; `0`
    /// otherwise. Only the lock holder writes it.
    deq_intent: R::Intent,
    arena: NodeArena<P>,
    platform: P,
}

/// A linked-list FIFO queue protected by one test-and-test_and_set lock
/// (with bounded exponential backoff, as in the paper's experiments).
///
/// Head and tail operations serialize completely — the queue the paper
/// calls "a straightforward single-lock queue", which wins at one or two
/// processors (lowest constant overhead) and collapses under contention
/// and multiprogramming.
///
/// # Example
///
/// ```
/// use msq_baselines::SingleLockQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = SingleLockQueue::with_capacity(&NativePlatform::new(), 8);
/// queue.enqueue(5).unwrap();
/// assert_eq!(queue.dequeue(), Some(5));
/// ```
pub type SingleLockQueue<P> = SingleLock<P, NoRepair>;

/// The single-lock queue under a [`msq_sync::RevocableLock`], with
/// intent-cell repair (DESIGN.md §13): a waiter that revokes the lock
/// from a dead holder reads the intent cells and either *completes* the
/// half-done operation (the link or head swing already landed) or
/// *discards* it (frees the half-inserted node back to the arena).
///
/// # Example
///
/// ```
/// use msq_baselines::RepairableSingleLockQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = RepairableSingleLockQueue::with_capacity(&NativePlatform::new(), 8);
/// queue.enqueue(5).unwrap();
/// assert_eq!(queue.dequeue(), Some(5));
/// ```
pub type RepairableSingleLockQueue<P> = SingleLock<P, Repair>;

const LABELS: RepairLabels = RepairLabels {
    enq_complete: "single-lock:repair:enq-complete",
    enq_discard: "single-lock:repair:enq-discard",
    deq_complete: "single-lock:repair:deq-complete",
    deq_rollback: "single-lock:repair:deq-rollback",
};

impl<P: Platform> SingleLockQueue<P> {
    /// Creates a queue able to hold `capacity` values simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        Self::with_budget_and_backoff(platform, capacity, None, BackoffConfig::DEFAULT)
    }

    /// As [`SingleLockQueue::with_capacity`] with explicit lock backoff.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity_and_backoff(platform: &P, capacity: u32, backoff: BackoffConfig) -> Self {
        Self::with_budget_and_backoff(platform, capacity, None, backoff)
    }

    /// As [`SingleLockQueue::with_capacity`], metering the node pool (one
    /// unit per node, `capacity + 1` total for the dummy) against `budget`
    /// for the queue's lifetime. The pool is force-reserved — an
    /// over-budget queue surfaces in [`msq_arena::MemBudget::overruns`],
    /// not as a construction failure.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity_and_budget(
        platform: &P,
        capacity: u32,
        budget: Arc<MemBudget<P>>,
    ) -> Self {
        Self::with_budget_and_backoff(platform, capacity, Some(budget), BackoffConfig::DEFAULT)
    }
}

impl<P: Platform> RepairableSingleLockQueue<P> {
    /// Creates a queue able to hold `capacity` values simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        Self::with_budget_and_backoff(platform, capacity, None, BackoffConfig::DEFAULT)
    }

    /// As [`RepairableSingleLockQueue::with_capacity`], metering the node
    /// pool against `budget` for the queue's lifetime. A node discarded
    /// by repair goes back to the arena free list, so its unit stays
    /// reserved by the pool and is credited back when the queue drops —
    /// repair never leaks a reservation.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity_and_budget(
        platform: &P,
        capacity: u32,
        budget: Arc<MemBudget<P>>,
    ) -> Self {
        Self::with_budget_and_backoff(platform, capacity, Some(budget), BackoffConfig::DEFAULT)
    }
}

impl<P: Platform, R: RepairPolicy<P>> SingleLock<P, R> {
    /// The constructor the others forward to, under either policy: a
    /// queue of `capacity` values whose node pool is metered against
    /// `budget` if one is given, with explicit lock backoff.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_budget_and_backoff(
        platform: &P,
        capacity: u32,
        budget: Option<Arc<MemBudget<P>>>,
        backoff: BackoffConfig,
    ) -> Self {
        let nodes = capacity.checked_add(1).expect("capacity overflow");
        let arena = match budget {
            Some(budget) => NodeArena::with_budget(platform, nodes, budget),
            None => NodeArena::new(platform, nodes),
        };
        let dummy = arena.alloc().expect("fresh arena");
        arena.set_next(dummy, NULL_INDEX);
        R::prepare(platform);
        SingleLock {
            head: platform.alloc_cell(u64::from(dummy)),
            tail: platform.alloc_cell(u64::from(dummy)),
            lock: R::new_lock(platform, backoff),
            enq_intent: R::new_intent(platform),
            deq_intent: R::new_intent(platform),
            arena,
            platform: platform.clone(),
        }
    }

    /// Maximum number of values the queue can hold.
    pub fn capacity(&self) -> u32 {
        self.arena.capacity() - 1
    }

    /// Takes the lock, first repairing the torn critical section of a
    /// dead holder it was revoked from: whichever intent is published
    /// says what was in flight (`intact` when neither is).
    fn acquire(&self) {
        if let Acquired::Repairing { victim } = R::lock(&self.lock, &self.platform) {
            // A repairer killed here leaves `repairing(dead)` in the lock
            // word — revocable by the same rule, so the next waiter
            // re-revokes and inherits the repair duty (the fault sweep in
            // `tests/fault_injection.rs` drives exactly that chain).
            self.platform.fault_point("single-lock:repair:window");
            let outcome = R::repair_tail(&self.enq_intent, &self.tail, &self.arena, &LABELS)
                .or_else(|| R::repair_head(&self.deq_intent, &self.head, &self.arena, &LABELS))
                .unwrap_or("single-lock:repair:intact");
            self.platform.mark_repaired(victim, outcome);
        }
    }
}

impl<P: Platform, R: RepairPolicy<P>> ConcurrentWordQueue for SingleLock<P, R> {
    fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
        let Some(node) = self.arena.alloc() else {
            return Err(QueueFull(value));
        };
        self.arena.set_value(node, value);
        self.arena.set_next(node, NULL_INDEX);
        self.acquire();
        R::publish(&self.enq_intent, node);
        // Holding the only lock: a process halted or killed here blocks
        // the entire queue — the behaviour the fault suite's watchdog
        // detects and asserts for the blocking baselines — unless the
        // policy repairs, when it leaves an intent record instead.
        self.platform.fault_point("single-lock:enq:locked");
        let tail = self.tail.load() as u32;
        self.arena.set_next(tail, node);
        self.tail.store(u64::from(node));
        R::clear(&self.enq_intent);
        R::unlock(&self.lock, &self.platform);
        Ok(())
    }

    fn dequeue(&self) -> Option<u64> {
        self.acquire();
        // Holding the lock: death here blocks every other process. A
        // repairing queue reaches the kill label only once its intent is
        // published, after the emptiness check; a plain one reaches it
        // first. Kill plans count label hits, and only a plain empty
        // dequeue hits it, so each policy keeps its position.
        if !R::REPAIRS {
            self.platform.fault_point("single-lock:deq:locked");
        }
        let node = self.head.load() as u32;
        let next = self.arena.next(node);
        if next.is_null() {
            R::unlock(&self.lock, &self.platform);
            return None;
        }
        R::publish(&self.deq_intent, node);
        if R::REPAIRS {
            self.platform.fault_point("single-lock:deq:locked");
        }
        let value = self.arena.value(next.index());
        self.head.store(u64::from(next.index()));
        R::clear(&self.deq_intent);
        R::unlock(&self.lock, &self.platform);
        self.arena.free(node);
        Some(value)
    }

    fn name(&self) -> &'static str {
        if R::REPAIRS {
            "single-lock-repair"
        } else {
            "single-lock"
        }
    }

    fn is_nonblocking(&self) -> bool {
        false
    }
}

impl<P: Platform, R: RepairPolicy<P>> std::fmt::Debug for SingleLock<P, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = if R::REPAIRS {
            "RepairableSingleLockQueue"
        } else {
            "SingleLockQueue"
        };
        write!(f, "{name}(capacity={})", self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::conserves_values;
    use msq_platform::NativePlatform;

    /// The queue under each policy, plain first.
    fn both(capacity: u32) -> [Arc<dyn ConcurrentWordQueue>; 2] {
        let p = NativePlatform::new();
        [
            Arc::new(SingleLockQueue::with_capacity(&p, capacity)),
            Arc::new(RepairableSingleLockQueue::with_capacity(&p, capacity)),
        ]
    }

    #[test]
    fn fifo_order() {
        for q in both(16) {
            for i in 0..10 {
                q.enqueue(i).unwrap();
            }
            for i in 0..10 {
                assert_eq!(q.dequeue(), Some(i));
            }
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn capacity_is_enforced_and_recovers() {
        for q in both(1) {
            q.enqueue(9).unwrap();
            assert_eq!(q.enqueue(10), Err(QueueFull(10)));
            assert_eq!(q.dequeue(), Some(9));
            q.enqueue(10).unwrap();
            assert_eq!(q.dequeue(), Some(10));
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn concurrent_conservation() {
        for q in both(256) {
            conserves_values(q, 4, 2, 3_000);
        }
    }

    #[test]
    fn works_under_simulation() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 2,
            processes_per_processor: 2,
            quantum_ns: 100_000,
            ..SimConfig::default()
        });
        let q = Arc::new(SingleLockQueue::with_capacity(&sim.platform(), 32));
        sim.run({
            let q = Arc::clone(&q);
            move |info| {
                for i in 0..40 {
                    q.enqueue((info.pid as u64) << 32 | i).unwrap();
                    q.dequeue().expect("never empty after own enqueue");
                }
            }
        });
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn reports_identity() {
        let [plain, repair] = both(1);
        assert_eq!(plain.name(), "single-lock");
        assert_eq!(repair.name(), "single-lock-repair");
        assert!(!plain.is_nonblocking() && !repair.is_nonblocking());
        let p = NativePlatform::new();
        assert_eq!(
            format!("{:?}", SingleLockQueue::with_capacity(&p, 3)),
            "SingleLockQueue(capacity=3)"
        );
        assert_eq!(
            format!("{:?}", RepairableSingleLockQueue::with_capacity(&p, 3)),
            "RepairableSingleLockQueue(capacity=3)"
        );
    }

    /// The headline repair property at the queue level: a process
    /// killed while holding the (single) queue lock is dispossessed by a
    /// survivor, the half-done enqueue is repaired, and the queue keeps
    /// serving — no watchdog retirement, conservation intact.
    #[test]
    fn killed_enqueuer_is_repaired_and_survivors_proceed() {
        use msq_sim::{FaultPlan, SimConfig, Simulation};
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 3,
                watchdog_ns: 400_000_000,
                ..SimConfig::default()
            },
            FaultPlan::new().kill_at_label(0, "single-lock:enq:locked", 2),
        );
        let platform = sim.platform();
        let q = Arc::new(RepairableSingleLockQueue::with_capacity(&platform, 64));
        let report = sim.run({
            let q = Arc::clone(&q);
            move |info| {
                for i in 0..20u64 {
                    q.enqueue((info.pid as u64) << 32 | i).unwrap();
                    q.dequeue().expect("a value is always available");
                }
            }
        });
        assert_eq!(report.killed, vec![0]);
        assert!(report.blocked.is_empty(), "repair must beat the watchdog");
        assert_eq!(report.repairs.len(), 1);
        assert_eq!(report.repairs[0].victim, 0);
        assert!(report.repairs[0].point.starts_with("single-lock:repair:"));
        assert!(report.repairs[0].time_to_repair_ns() > 0);
        // Survivors completed all their pairs; at most the victim's
        // in-flight value remains (completed repair) or none (discard).
        let mut rest = 0;
        while q.dequeue().is_some() {
            rest += 1;
        }
        assert!(rest <= 1, "at most the victim's in-flight enqueue remains");
    }
}
