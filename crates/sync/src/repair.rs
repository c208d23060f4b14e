//! Repair policies: whether a blocking queue survives a process that dies
//! inside its critical window (DESIGN.md §13).
//!
//! The single-lock, two-lock and Mellor-Crummey queues each have one
//! body, generic over a zero-sized [`RepairPolicy`]:
//!
//! * [`NoRepair`], the default, is the paper's algorithm: [`TtasLock`]s,
//!   no intent cells, and no read of the death board. Every policy call
//!   is a plain lock operation or compiles to nothing, so a dead lock
//!   holder wedges the queue until the simulator's watchdog retires the
//!   waiters (DESIGN.md §11).
//! * [`Repair`] takes [`RevocableLock`]s and publishes an **intent
//!   cell** inside each critical section: `node + 1` while an enqueue
//!   (or the old dummy while a dequeue) may be torn, `0` otherwise. A
//!   waiter that revokes the lock from a dead holder reads the intent
//!   and completes or rolls back the half-done operation
//!   ([`RepairPolicy::repair_tail`], [`RepairPolicy::repair_head`]).
//!
//! The intent traffic is charged like any other shared-memory op:
//! repairability has an honest price, which `faultbench` Cell 4 reports.

use msq_arena::NodeArena;
use msq_platform::{AtomicWord, BackoffConfig, Platform};

use crate::{Acquired, RawLock, RevocableLock, TtasLock};

/// The outcome labels one lock queue stamps on its repairs via
/// [`Platform::mark_repaired`], all of the form `<queue>:repair:<outcome>`.
#[derive(Clone, Copy, Debug)]
pub struct RepairLabels {
    /// The victim's enqueue took effect; any lagging `Tail` was swung.
    pub enq_complete: &'static str,
    /// The victim's node was never linked and went back to the arena.
    pub enq_discard: &'static str,
    /// `Head` had swung past the victim's dummy, which is now freed.
    pub deq_complete: &'static str,
    /// `Head` never swung: the victim's dequeue did not happen.
    pub deq_rollback: &'static str,
}

/// How a blocking queue's critical sections behave when their holder
/// dies: the lock they take and the intent cells they publish.
pub trait RepairPolicy<P: Platform>: Send + Sync + 'static {
    /// Whether the policy repairs. Queues also read it for what has no
    /// cell to hang on: the position of a dequeue's kill label, and the
    /// Mellor-Crummey queue's announce protocol.
    const REPAIRS: bool;

    /// The lock each critical section takes.
    type Lock: Send + Sync;

    /// One intent cell (zero-sized when the policy does not repair).
    type Intent: Send + Sync;

    /// Creates an unlocked lock.
    fn new_lock(platform: &P, backoff: BackoffConfig) -> Self::Lock;

    /// Creates an intent cell holding "nothing in flight".
    fn new_intent(platform: &P) -> Self::Intent;

    /// The shared word behind `intent`, if the policy allocates one.
    fn cell(intent: &Self::Intent) -> Option<&P::Cell>;

    /// Acquires `lock`; [`Acquired::Repairing`] names a dead holder whose
    /// torn critical section the caller must repair first.
    fn lock(lock: &Self::Lock, platform: &P) -> Acquired;

    /// Releases `lock`.
    fn unlock(lock: &Self::Lock, platform: &P);

    /// Untimed set-up, run before a queue allocates its cells. A
    /// repairing policy reads the death board once so that its lazily
    /// allocated cell id, and so every trace, is fixed before the run.
    fn prepare(platform: &P) {
        if Self::REPAIRS {
            let _ = platform.dead_peers();
        }
    }

    /// Records that the update of `node` is in flight.
    #[inline]
    fn publish(intent: &Self::Intent, node: u32) {
        if let Some(cell) = Self::cell(intent) {
            cell.store(u64::from(node) + 1);
        }
    }

    /// Records that nothing is in flight.
    #[inline]
    fn clear(intent: &Self::Intent) {
        if let Some(cell) = Self::cell(intent) {
            cell.store(0);
        }
    }

    /// Reads and clears a published intent, returning its node.
    fn take(intent: &Self::Intent) -> Option<u32> {
        let cell = Self::cell(intent)?;
        let raw = cell.load();
        if raw == 0 {
            return None;
        }
        cell.store(0);
        Some((raw - 1) as u32)
    }

    /// Repairs the tail end after the enqueue lock was revoked from a
    /// dead holder: completes the enqueue if its link (or the `Tail`
    /// swing) landed, discards the node otherwise. `None` when no
    /// enqueue was in flight.
    ///
    /// | `Tail` state | action | outcome |
    /// |---|---|---|
    /// | `Tail == n` | nothing torn | `enq_complete` |
    /// | `next(Tail) == n` | swing `Tail` to `n` | `enq_complete` |
    /// | `n` unlinked | free `n` | `enq_discard` |
    fn repair_tail(
        enq_intent: &Self::Intent,
        tail: &P::Cell,
        arena: &NodeArena<P>,
        labels: &RepairLabels,
    ) -> Option<&'static str> {
        let node = Self::take(enq_intent)?;
        let last = tail.load() as u32;
        if last == node {
            // The victim finished everything but the intent clear.
            return Some(labels.enq_complete);
        }
        let link = arena.next(last);
        if !link.is_null() && link.index() == node {
            // Linked but Tail not swung: finish the enqueue. The
            // victim's operation took effect — count it linearized.
            tail.store(u64::from(node));
            return Some(labels.enq_complete);
        }
        // Never linked: the enqueue did not happen. Discard the node so
        // its arena unit (and any budget reservation it backs) is not
        // leaked.
        arena.free(node);
        Some(labels.enq_discard)
    }

    /// Repairs the head end after the dequeue lock was revoked from a
    /// dead holder: frees the stranded dummy if `Head` already swung past
    /// it, rolls the dequeue back otherwise. `None` when no dequeue was
    /// past its emptiness check.
    fn repair_head(
        deq_intent: &Self::Intent,
        head: &P::Cell,
        arena: &NodeArena<P>,
        labels: &RepairLabels,
    ) -> Option<&'static str> {
        let node = Self::take(deq_intent)?;
        if head.load() as u32 == node {
            return Some(labels.deq_rollback);
        }
        // Head swung but the victim died before recycling the old dummy.
        arena.free(node);
        Some(labels.deq_complete)
    }
}

/// The paper's blocking queues as published: a dead lock holder wedges
/// them. Zero-sized, and the default policy of every blocking queue.
#[derive(Clone, Copy, Debug)]
pub struct NoRepair;

impl<P: Platform> RepairPolicy<P> for NoRepair {
    const REPAIRS: bool = false;
    type Lock = TtasLock<P>;
    type Intent = ();

    fn new_lock(platform: &P, backoff: BackoffConfig) -> TtasLock<P> {
        TtasLock::with_backoff(platform, backoff)
    }

    fn new_intent(_platform: &P) {}

    #[inline(always)]
    fn cell(_intent: &()) -> Option<&P::Cell> {
        None
    }

    #[inline]
    fn lock(lock: &TtasLock<P>, platform: &P) -> Acquired {
        lock.lock(platform);
        Acquired::Clean
    }

    #[inline]
    fn unlock(lock: &TtasLock<P>, platform: &P) {
        lock.unlock(platform);
    }
}

/// Crash-survivable blocking queues: revocable locks plus intent-cell
/// repair. Zero-sized.
#[derive(Clone, Copy, Debug)]
pub struct Repair;

impl<P: Platform> RepairPolicy<P> for Repair {
    const REPAIRS: bool = true;
    type Lock = RevocableLock<P>;
    type Intent = P::Cell;

    fn new_lock(platform: &P, backoff: BackoffConfig) -> RevocableLock<P> {
        RevocableLock::with_backoff(platform, backoff)
    }

    fn new_intent(platform: &P) -> P::Cell {
        platform.alloc_cell(0)
    }

    #[inline(always)]
    fn cell(intent: &P::Cell) -> Option<&P::Cell> {
        Some(intent)
    }

    #[inline]
    fn lock(lock: &RevocableLock<P>, platform: &P) -> Acquired {
        lock.lock(platform)
    }

    #[inline]
    fn unlock(lock: &RevocableLock<P>, platform: &P) {
        lock.unlock(platform);
    }
}
