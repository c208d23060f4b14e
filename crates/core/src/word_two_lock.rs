//! Figure 2: the two-lock concurrent queue.

use std::sync::Arc;

use msq_arena::{MemBudget, NodeArena};
use msq_platform::{
    AtomicWord, BackoffConfig, ConcurrentWordQueue, Platform, QueueFull, NULL_INDEX,
};
use msq_sync::{Acquired, NoRepair, Repair, RepairLabels, RepairPolicy};

/// The two-lock queue generic over its [`RepairPolicy`] `R`: the one
/// body behind [`WordTwoLockQueue`] and [`RepairableTwoLockQueue`].
pub struct WordTwoLock<P: Platform, R: RepairPolicy<P> = NoRepair> {
    head: P::Cell,
    tail: P::Cell,
    h_lock: R::Lock,
    t_lock: R::Lock,
    /// `node + 1` while an enqueue holds `t_lock` and its update may be
    /// torn; `0` otherwise. Only the `t_lock` holder writes it.
    enq_intent: R::Intent,
    /// `old_dummy + 1` while a dequeue holds `h_lock` past its emptiness
    /// check; `0` otherwise. Only the `h_lock` holder writes it.
    deq_intent: R::Intent,
    arena: NodeArena<P>,
    platform: P,
}

/// The Michael–Scott two-lock queue over a node arena.
///
/// Separate head and tail locks (test-and-test_and_set with bounded
/// exponential backoff, as in the paper's experiments) let one enqueue and
/// one dequeue proceed concurrently. The dummy node at the head means
/// enqueuers never touch `Head` and dequeuers never touch `Tail`, so the
/// locks are never taken in opposite orders and deadlock is impossible.
///
/// `Head`/`Tail` here are plain (untagged) words: they are only read and
/// written under their respective locks, so no ABA defence is needed.
///
/// # Example
///
/// ```
/// use msq_core::WordTwoLockQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = WordTwoLockQueue::with_capacity(&NativePlatform::new(), 8);
/// queue.enqueue(1).unwrap();
/// assert_eq!(queue.dequeue(), Some(1));
/// ```
pub type WordTwoLockQueue<P> = WordTwoLock<P, NoRepair>;

/// The two-lock queue under revocable locks, with intent-cell repair
/// (DESIGN.md §13).
///
/// A waiter that revokes a lock from a dead holder reads the matching
/// intent and repairs the end it guards: the tail end completes or
/// discards the half-inserted node, the head end completes or rolls back
/// the half-finished dequeue. Because enqueuers never touch `Head` and
/// dequeuers never touch `Tail`, each repair only ever inspects its own
/// end, exactly like the operations themselves.
///
/// # Example
///
/// ```
/// use msq_core::RepairableTwoLockQueue;
/// use msq_platform::{ConcurrentWordQueue, NativePlatform};
///
/// let queue = RepairableTwoLockQueue::with_capacity(&NativePlatform::new(), 8);
/// queue.enqueue(1).unwrap();
/// assert_eq!(queue.dequeue(), Some(1));
/// ```
pub type RepairableTwoLockQueue<P> = WordTwoLock<P, Repair>;

const LABELS: RepairLabels = RepairLabels {
    enq_complete: "two-lock:repair:enq-complete",
    enq_discard: "two-lock:repair:enq-discard",
    deq_complete: "two-lock:repair:deq-complete",
    deq_rollback: "two-lock:repair:deq-rollback",
};

impl<P: Platform> WordTwoLockQueue<P> {
    /// Creates a queue able to hold `capacity` values simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        Self::with_budget_and_backoff(platform, capacity, None, BackoffConfig::DEFAULT)
    }

    /// As [`WordTwoLockQueue::with_capacity`] with explicit lock backoff.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity_and_backoff(platform: &P, capacity: u32, backoff: BackoffConfig) -> Self {
        Self::with_budget_and_backoff(platform, capacity, None, backoff)
    }

    /// As [`WordTwoLockQueue::with_capacity`], metering the node pool (one
    /// unit per node, `capacity + 1` total for the dummy) against `budget`
    /// for the queue's lifetime.
    ///
    /// The pool is preallocated unconditionally — as in Figure 2 — so the
    /// reservation goes through [`MemBudget::force_reserve`]: a queue larger
    /// than the remaining budget shows up in [`MemBudget::overruns`] rather
    /// than failing construction. All units are credited back when the queue
    /// drops.
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

impl<P: Platform> RepairableTwoLockQueue<P> {
    /// Creates a queue able to hold `capacity` values simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` does not fit a tagged index.
    pub fn with_capacity(platform: &P, capacity: u32) -> Self {
        Self::with_budget_and_backoff(platform, capacity, None, BackoffConfig::DEFAULT)
    }

    /// As [`RepairableTwoLockQueue::with_capacity`], metering the node
    /// pool against `budget` for the queue's lifetime. A node discarded
    /// by repair goes back to the arena free list, so no reservation is
    /// ever leaked by a repaired death.
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

impl<P: Platform, R: RepairPolicy<P>> WordTwoLock<P, R> {
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
        // initialize(Q): one dummy node; Head and Tail point to it; locks free.
        let dummy = arena.alloc().expect("fresh arena");
        arena.set_next(dummy, NULL_INDEX);
        R::prepare(platform);
        WordTwoLock {
            head: platform.alloc_cell(u64::from(dummy)),
            tail: platform.alloc_cell(u64::from(dummy)),
            h_lock: R::new_lock(platform, backoff),
            t_lock: R::new_lock(platform, backoff),
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

    /// Takes `lock`, first repairing its end if it was revoked from a
    /// dead holder: `repair` reads that end's intent (`intact` when none
    /// was published).
    fn acquire(&self, lock: &R::Lock, repair: impl FnOnce() -> Option<&'static str>) {
        if let Acquired::Repairing { victim } = R::lock(lock, &self.platform) {
            // A repairer killed here leaves `repairing(dead)` in the lock
            // word — revocable by the same rule, so repair duty is never
            // lost.
            self.platform.fault_point("two-lock:repair:window");
            let outcome = repair().unwrap_or("two-lock:repair:intact");
            self.platform.mark_repaired(victim, outcome);
        }
    }
}

impl<P: Platform, R: RepairPolicy<P>> ConcurrentWordQueue for WordTwoLock<P, R> {
    fn enqueue(&self, value: u64) -> Result<(), QueueFull> {
        // Allocate and fill the node before taking the lock, as in Figure 2.
        let Some(node) = self.arena.alloc() else {
            return Err(QueueFull(value));
        };
        self.arena.set_value(node, value);
        self.arena.set_next(node, NULL_INDEX);
        // Acquire T_lock in order to access Tail.
        self.acquire(&self.t_lock, || {
            R::repair_tail(&self.enq_intent, &self.tail, &self.arena, &LABELS)
        });
        R::publish(&self.enq_intent, node);
        // Holding T_lock: a process halted or killed here blocks every
        // other enqueuer forever — the blocking behaviour Figures 4–5
        // punish, and what the fault suite asserts via the watchdog —
        // unless the policy repairs, when it leaves an intent record.
        self.platform.fault_point("two-lock:enq:locked");
        let tail = self.tail.load() as u32;
        // Link the node at the end of the list, then swing Tail to it.
        self.arena.set_next(tail, node);
        self.tail.store(u64::from(node));
        R::clear(&self.enq_intent);
        R::unlock(&self.t_lock, &self.platform);
        Ok(())
    }

    fn dequeue(&self) -> Option<u64> {
        // Acquire H_lock in order to access Head.
        self.acquire(&self.h_lock, || {
            R::repair_head(&self.deq_intent, &self.head, &self.arena, &LABELS)
        });
        // Holding H_lock: death here blocks every other dequeuer. A
        // repairing queue reaches the kill label only once its intent is
        // published, after the emptiness check; a plain one reaches it
        // first. Kill plans count label hits, and only a plain empty
        // dequeue hits it, so each policy keeps its position.
        if !R::REPAIRS {
            self.platform.fault_point("two-lock:deq:locked");
        }
        let node = self.head.load() as u32;
        let new_head = self.arena.next(node);
        if new_head.is_null() {
            // Queue is empty; release H_lock before returning.
            R::unlock(&self.h_lock, &self.platform);
            return None;
        }
        R::publish(&self.deq_intent, node);
        if R::REPAIRS {
            self.platform.fault_point("two-lock:deq:locked");
        }
        // Queue not empty: read the value before moving Head.
        let value = self.arena.value(new_head.index());
        self.head.store(u64::from(new_head.index()));
        R::clear(&self.deq_intent);
        R::unlock(&self.h_lock, &self.platform);
        // Free the old dummy outside the critical section (Figure 2 frees
        // after unlock); safe because Head no longer reaches it and
        // enqueuers only dereference Tail, which never lags behind Head.
        self.arena.free(node);
        Some(value)
    }

    fn name(&self) -> &'static str {
        if R::REPAIRS {
            "ms-two-lock-repair"
        } else {
            "ms-two-lock"
        }
    }

    fn is_nonblocking(&self) -> bool {
        false
    }
}

impl<P: Platform, R: RepairPolicy<P>> std::fmt::Debug for WordTwoLock<P, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = if R::REPAIRS {
            "RepairableTwoLockQueue"
        } else {
            "WordTwoLockQueue"
        };
        write!(f, "{name}(capacity={})", self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::NativePlatform;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The queue under each policy, plain first.
    fn both(capacity: u32) -> [Arc<dyn ConcurrentWordQueue>; 2] {
        let p = NativePlatform::new();
        [
            Arc::new(WordTwoLockQueue::with_capacity(&p, capacity)),
            Arc::new(RepairableTwoLockQueue::with_capacity(&p, capacity)),
        ]
    }

    #[test]
    fn fifo_order_single_thread() {
        for q in both(16) {
            for i in 0..10 {
                q.enqueue(i * 3).unwrap();
            }
            for i in 0..10 {
                assert_eq!(q.dequeue(), Some(i * 3));
            }
            assert_eq!(q.dequeue(), None);
        }
    }

    #[test]
    fn full_queue_rejects_and_recovers() {
        for q in both(1) {
            q.enqueue(1).unwrap();
            assert_eq!(q.enqueue(2), Err(QueueFull(2)));
            assert_eq!(q.dequeue(), Some(1));
            q.enqueue(2).unwrap();
            assert_eq!(q.dequeue(), Some(2));
        }
    }

    #[test]
    fn node_reuse_across_generations() {
        for q in both(2) {
            for i in 0..5_000 {
                q.enqueue(i).unwrap();
                assert_eq!(q.dequeue(), Some(i));
            }
        }
    }

    #[test]
    fn concurrent_enqueue_dequeue_conserve_values() {
        for q in both(512) {
            let mut handles = Vec::new();
            let total = Arc::new(AtomicU64::new(0));
            for t in 0..3_u64 {
                let q = Arc::clone(&q);
                handles.push(std::thread::spawn(move || {
                    for i in 0..4_000_u64 {
                        let v = t * 4_000 + i + 1;
                        while q.enqueue(v).is_err() {
                            std::thread::yield_now();
                        }
                    }
                }));
            }
            let stop = Arc::new(AtomicU64::new(0));
            for _ in 0..3 {
                let q = Arc::clone(&q);
                let total = Arc::clone(&total);
                let stop = Arc::clone(&stop);
                handles.push(std::thread::spawn(move || loop {
                    match q.dequeue() {
                        Some(v) => {
                            total.fetch_add(v, Ordering::SeqCst);
                        }
                        None if stop.load(Ordering::SeqCst) == 1 => break,
                        None => std::thread::yield_now(),
                    }
                }));
            }
            for h in handles.drain(..3) {
                h.join().unwrap();
            }
            // Producers done; let consumers drain then stop. The probe
            // itself may win values off the queue — count them like any
            // consumer.
            loop {
                std::thread::sleep(std::time::Duration::from_millis(10));
                match q.dequeue() {
                    Some(v) => {
                        total.fetch_add(v, Ordering::SeqCst);
                    }
                    None => break,
                }
            }
            stop.store(1, Ordering::SeqCst);
            for h in handles {
                h.join().unwrap();
            }
            let expected: u64 = (1..=12_000_u64).sum();
            assert_eq!(total.load(Ordering::SeqCst), expected, "{}", q.name());
        }
    }

    #[test]
    fn works_under_simulation() {
        use msq_sim::{SimConfig, Simulation};
        let sim = Simulation::new(SimConfig {
            processors: 4,
            processes_per_processor: 2,
            quantum_ns: 200_000,
            ..SimConfig::default()
        });
        let q = Arc::new(WordTwoLockQueue::with_capacity(&sim.platform(), 64));
        sim.run({
            let q = Arc::clone(&q);
            move |info| {
                for i in 0..50 {
                    q.enqueue((info.pid as u64) << 32 | i).unwrap();
                    q.dequeue().expect("an item is always available");
                }
            }
        });
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn reports_identity() {
        let [plain, repair] = both(1);
        assert_eq!(plain.name(), "ms-two-lock");
        assert_eq!(repair.name(), "ms-two-lock-repair");
        assert!(!plain.is_nonblocking() && !repair.is_nonblocking());
        let p = NativePlatform::new();
        assert_eq!(
            format!("{:?}", WordTwoLockQueue::with_capacity(&p, 3)),
            "WordTwoLockQueue(capacity=3)"
        );
        assert_eq!(
            format!("{:?}", RepairableTwoLockQueue::with_capacity(&p, 3)),
            "RepairableTwoLockQueue(capacity=3)"
        );
    }

    /// A dequeuer killed while holding `H_lock` is dispossessed by the
    /// next dequeuer, which repairs the head end and proceeds — the
    /// scenario the plain two-lock queue can only watchdog.
    #[test]
    fn killed_dequeuer_holding_h_lock_is_repaired() {
        use msq_sim::{FaultPlan, SimConfig, Simulation};
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 3,
                watchdog_ns: 400_000_000,
                ..SimConfig::default()
            },
            FaultPlan::new().kill_at_label(0, "two-lock:deq:locked", 1),
        );
        let platform = sim.platform();
        let q = Arc::new(RepairableTwoLockQueue::with_capacity(&platform, 64));
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
        assert!(report.repairs[0].point.starts_with("two-lock:repair:deq-"));
        assert!(report.repairs[0].time_to_repair_ns() > 0);
    }
}
