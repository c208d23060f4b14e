//! `MsQueue<T>`: the idiomatic, heap-allocated Michael–Scott queue.

use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

use crossbeam_utils::CachePadded;
use msq_hazard::{PooledHazard, GLOBAL_DOMAIN};
use msq_platform::{Backoff, BackoffConfig, NativePlatform, Platform};
use parking_lot::{Mutex, MutexGuard};

use crate::recycler::{free_list, ChainStack, Node, CHAIN_LEN};

/// Stripes of spare nodes; a thread uses the one its affinity hint picks.
const STRIPES: usize = 4;

/// One thread's share of the recycled nodes, reached only by `try_lock`.
struct Stripe<T> {
    /// Old dummies unlinked by this stripe's dequeuers, waiting for the
    /// hazard gate. They sit in an array, not a list: until the gate has
    /// shown that no reader protects one, its `next` field must not be
    /// written (DESIGN.md §16).
    filed: [*mut Node<T>; CHAIN_LEN],
    filed_len: usize,
    /// Null-terminated list of nodes that passed the gate, for this
    /// stripe's enqueuers.
    spare: *mut Node<T>,
}

impl<T> Drop for Stripe<T> {
    fn drop(&mut self) {
        // Safety: dropped only with the queue, which then has exclusive
        // access; filed and spare nodes hold no value.
        unsafe {
            for &node in &self.filed[..self.filed_len] {
                drop(Box::from_raw(node));
            }
            free_list(self.spare);
        }
    }
}

/// An unbounded multi-producer multi-consumer lock-free FIFO queue — the
/// paper's non-blocking algorithm with heap nodes, recycled through a
/// bounded free list behind a hazard-pointer gate.
///
/// This is the variant a downstream Rust user would reach for: `T` is any
/// `Send` type and operations never block.
///
/// Nodes are recycled as in the paper's free list, but only once hazard
/// pointers show no reader still holds them. A dequeuer files the dummy it
/// unlinks in its thread's stripe. When a stripe has filed 32 nodes, one
/// snapshot of the hazard slots sorts them: a node some slot names is
/// retired to the hazard domain, the others form a chain. The chain goes
/// to the stripe's own spare list if that is empty, else onto a shared
/// stack of at most 8 chains, else back to the allocator. An enqueuer takes
/// a node from its stripe's spare list, refills that list by taking the
/// whole shared stack, and allocates only when both are empty. Stripes are
/// only ever `try_lock`ed; an operation that finds its stripe busy
/// allocates or retires instead, so no operation waits for another.
///
/// However long the queue once grew, it keeps at most 1,404 spare nodes at
/// rest beyond those holding values and the dummy: 256 on the shared
/// stack, and in each of the 4 stripes 31 filed and 256 spare. To these
/// add the nodes waiting in the hazard domain and, for each dequeuer caught
/// between its gate and its push, the chain in its hands.
///
/// # Example
///
/// ```
/// use msq_core::MsQueue;
///
/// let queue = MsQueue::new();
/// queue.enqueue("a");
/// queue.enqueue("b");
/// assert_eq!(queue.dequeue(), Some("a"));
/// assert_eq!(queue.dequeue(), Some("b"));
/// assert_eq!(queue.dequeue(), None);
/// ```
pub struct MsQueue<T> {
    head: CachePadded<AtomicPtr<Node<T>>>,
    tail: CachePadded<AtomicPtr<Node<T>>>,
    stripes: [CachePadded<Mutex<Stripe<T>>>; STRIPES],
    /// Full chains on their way from the dequeuers to the enqueuers.
    depot: CachePadded<ChainStack<T>>,
    backoff: BackoffConfig,
}

// Safety: values move between threads by value and are never shared by
// reference. Every node is owned by the queue: reached through Head/Tail
// under hazard protection, or by one thread at a time through a stripe's
// lock or the depot's swap and CAS. So `T: Send` is all the threads need.
unsafe impl<T: Send> Send for MsQueue<T> {}
unsafe impl<T: Send> Sync for MsQueue<T> {}

impl<T> MsQueue<T> {
    /// Creates an empty queue with [`BackoffConfig::DEFAULT`] applied to
    /// contended CAS retries.
    pub fn new() -> Self {
        MsQueue::with_backoff(BackoffConfig::DEFAULT)
    }

    /// Creates an empty queue with explicit backoff parameters, the same
    /// knob the word-level queues expose (the ablation benches pass
    /// [`BackoffConfig::DISABLED`]).
    pub fn with_backoff(backoff: BackoffConfig) -> Self {
        let dummy = Node::alloc();
        MsQueue {
            head: CachePadded::new(AtomicPtr::new(dummy)),
            tail: CachePadded::new(AtomicPtr::new(dummy)),
            stripes: std::array::from_fn(|_| {
                CachePadded::new(Mutex::new(Stripe {
                    filed: [ptr::null_mut(); CHAIN_LEN],
                    filed_len: 0,
                    spare: ptr::null_mut(),
                }))
            }),
            depot: CachePadded::new(ChainStack::new()),
            backoff,
        }
    }

    /// Adds `value` to the tail of the queue.
    ///
    /// Lock-free: a stalled thread cannot prevent others from enqueueing.
    pub fn enqueue(&self, value: T) {
        let node = self.take_node();
        // Safety: `node` is ours alone until E9 links it, and its value
        // slot is uninitialized.
        unsafe {
            (*node).value.write(value);
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
        }
        let mut hazard = PooledHazard::acquire(&GLOBAL_DOMAIN);
        let mut backoff = Backoff::new(self.backoff);
        loop {
            // Protect Tail so dereferencing it for `next` is safe even if a
            // concurrent dequeue unlinks the node.
            let tail = hazard.protect(&self.tail);
            // Safety: protected and re-validated against self.tail.
            let next = unsafe { (*tail).next.load(Ordering::Acquire) };
            if self.tail.load(Ordering::Acquire) != tail {
                continue;
            }
            if next.is_null() {
                // Tail was pointing at the last node: link ours (E9).
                if unsafe { &(*tail).next }
                    .compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // E13: swing Tail to the inserted node (best effort).
                    let _ =
                        self.tail
                            .compare_exchange(tail, node, Ordering::AcqRel, Ordering::Acquire);
                    return;
                }
                // E9 lost: another enqueuer linked first — the contended
                // case the paper applies backoff to.
                backoff.spin(&NativePlatform::new());
            } else {
                // E12: help a lagging Tail forward (no backoff: helping is
                // progress, not contention).
                let _ = self
                    .tail
                    .compare_exchange(tail, next, Ordering::AcqRel, Ordering::Acquire);
            }
        }
    }

    /// Removes and returns the value at the head of the queue, or `None`
    /// if it is observed empty.
    pub fn dequeue(&self) -> Option<T> {
        let mut head_hazard = PooledHazard::acquire(&GLOBAL_DOMAIN);
        let mut next_hazard = PooledHazard::acquire(&GLOBAL_DOMAIN);
        let mut backoff = Backoff::new(self.backoff);
        loop {
            let head = head_hazard.protect(&self.head);
            // Safety: head is protected and re-validated below.
            let next = unsafe { (*head).next.load(Ordering::Acquire) };
            // Protect next, then re-validate head: if Head is unchanged,
            // `next` is still Head's successor, hence reachable and now
            // protected.
            next_hazard.protect_raw(next);
            if self.head.load(Ordering::SeqCst) != head {
                continue;
            }
            if next.is_null() {
                // Queue empty (Head == Tail == dummy with no successor).
                return None;
            }
            // Tail is always the last or the second-to-last node, so once
            // `next` has a successor Tail is past `head` for good. Only
            // otherwise can Tail lag at `head` (D9), and only then is
            // Tail's cache line, which every enqueue writes, worth a read.
            // Safety: `next` is protected and was reachable above.
            if unsafe { (*next).next.load(Ordering::Acquire) }.is_null() {
                let tail = self.tail.load(Ordering::Acquire);
                if head == tail {
                    // Tail is falling behind: help it.
                    let _ =
                        self.tail
                            .compare_exchange(tail, next, Ordering::AcqRel, Ordering::Acquire);
                    continue;
                }
            }
            if self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // We won: `next` is the new dummy and its value is ours to
                // move out. Unlike the arena version (which must read the
                // value before the CAS), hazard protection makes the node
                // stable until our guards drop.
                // Safety: exactly one dequeuer wins this CAS, so the value
                // is moved out exactly once; `next` is protected.
                let value = unsafe { ptr::read((*next).value.as_ptr()) };
                drop(head_hazard);
                drop(next_hazard);
                self.file(head);
                return Some(value);
            }
            // D12 lost: another dequeuer swung Head first.
            backoff.spin(&NativePlatform::new());
        }
    }

    /// Whether the queue was observed empty. Like every concurrent size
    /// probe this is a snapshot: it may be stale by the time it returns.
    pub fn is_empty(&self) -> bool {
        let mut head_hazard = PooledHazard::acquire(&GLOBAL_DOMAIN);
        loop {
            let head = head_hazard.protect(&self.head);
            // Safety: protected head.
            let next = unsafe { (*head).next.load(Ordering::Acquire) };
            if self.head.load(Ordering::Acquire) == head {
                return next.is_null();
            }
        }
    }

    /// The calling thread's stripe, if no other thread holds it.
    fn stripe(&self) -> Option<MutexGuard<'_, Stripe<T>>> {
        self.stripes[NativePlatform::new().affinity_hint() % STRIPES].try_lock()
    }

    /// A node with no value: a recycled one if the stripe or the depot has
    /// one, else a fresh one.
    fn take_node(&self) -> *mut Node<T> {
        if let Some(mut stripe) = self.stripe() {
            if stripe.spare.is_null() {
                stripe.spare = self.depot.take_all();
            }
            let node = stripe.spare;
            if !node.is_null() {
                // Safety: spare nodes belong to the stripe's holder.
                stripe.spare = unsafe { (*node).next.load(Ordering::Relaxed) };
                return node;
            }
        }
        Node::alloc()
    }

    /// Disposes of `node`, the old dummy this thread just unlinked, after
    /// dropping its own hazards: files it in the stripe, or retires it if
    /// the stripe is busy. Every [`CHAIN_LEN`]th filing runs the gate.
    fn file(&self, node: *mut Node<T>) {
        let Some(mut guard) = self.stripe() else {
            // Safety: `node` is unlinked (Head moved past it), came from
            // Box::into_raw and is retired exactly once. Its value was
            // moved out when it became the dummy, and Node's value is
            // MaybeUninit, so freeing it drops no T.
            unsafe { GLOBAL_DOMAIN.retire(node) };
            return;
        };
        let stripe = &mut *guard;
        stripe.filed[stripe.filed_len] = node;
        stripe.filed_len += 1;
        if stripe.filed_len < CHAIN_LEN {
            return;
        }
        stripe.filed_len = 0;
        // The gate: one snapshot of the hazard slots, taken after every
        // filed node was unlinked. A reader that protected a node before
        // its unlink shows up here; one that protects it later fails its
        // re-validation and never dereferences it.
        let mut named = [false; CHAIN_LEN];
        for hazard in GLOBAL_DOMAIN.hazards() {
            for (named, &node) in named.iter_mut().zip(&stripe.filed) {
                *named |= node.cast() == hazard;
            }
        }
        let (mut first, mut last) = (ptr::null_mut(), ptr::null_mut());
        for (&named, &node) in named.iter().zip(&stripe.filed) {
            if named {
                // Safety: as for a busy stripe above.
                unsafe { GLOBAL_DOMAIN.retire(node) };
                continue;
            }
            // Safety: no reader holds `node` or can come to hold it, so
            // from now on it is ours to write.
            unsafe { (*node).next.store(first, Ordering::Relaxed) };
            if first.is_null() {
                last = node;
            }
            first = node;
        }
        if first.is_null() {
            return;
        }
        if stripe.spare.is_null() {
            stripe.spare = first;
            return;
        }
        drop(guard);
        // Safety: the chain passed the gate and left the stripe, so it is
        // ours alone, and its nodes hold no value.
        unsafe { self.depot.push(first, last) };
    }
}

impl<T> Default for MsQueue<T> {
    fn default() -> Self {
        MsQueue::new()
    }
}

impl<T> Drop for MsQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: drop every value still queued, then free the
        // list; the stripes and the depot free their nodes themselves.
        let head = *self.head.get_mut();
        // Safety: only the nodes after the dummy hold values.
        unsafe {
            let mut node = (*head).next.load(Ordering::Relaxed);
            while !node.is_null() {
                ptr::drop_in_place((*node).value.as_mut_ptr());
                node = (*node).next.load(Ordering::Relaxed);
            }
            free_list(head);
        }
    }
}

impl<T> std::fmt::Debug for MsQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MsQueue(empty={})", self.is_empty())
    }
}

impl<T: Send> FromIterator<T> for MsQueue<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let queue = MsQueue::new();
        for value in iter {
            queue.enqueue(value);
        }
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = MsQueue::new();
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn a_node_a_stalled_enqueuer_holds_keeps_its_link() {
        // An enqueuer that protected Tail, read a null `next` and stalled
        // before its E9 CAS. Meanwhile the node gets a successor, is
        // unlinked and filed, and two gates run. No field of the node may
        // be written while the hazard names it: a `next` reset to null
        // would let the stale CAS link a value onto a node outside the
        // queue.
        let q = MsQueue::new();
        q.enqueue(0_u64);
        let mut stalled = msq_hazard::HazardPointer::new(&GLOBAL_DOMAIN);
        let held = stalled.protect(&q.tail);
        // Safety: protected by `stalled` until the end of the test.
        let link = unsafe { &(*held).next };
        assert!(link.load(Ordering::SeqCst).is_null());
        q.enqueue(1);
        let successor = link.load(Ordering::SeqCst);
        for i in 0..2 * CHAIN_LEN as u64 {
            assert_eq!(q.dequeue(), Some(i));
            q.enqueue(i + 2);
        }
        assert_eq!(link.load(Ordering::SeqCst), successor);
        stalled.clear();
    }

    #[test]
    fn a_busy_stripe_makes_no_operation_wait() {
        let q = MsQueue::new();
        for i in 0..100 {
            q.enqueue(i);
        }
        // With the calling thread's stripe held, enqueues allocate and
        // dequeues retire instead of waiting for it.
        let stripe = q.stripe().expect("no other thread uses this queue");
        for i in 100..200 {
            q.enqueue(i);
        }
        for i in 0..200 {
            assert_eq!(q.dequeue(), Some(i));
        }
        drop(stripe);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn is_empty_tracks_contents() {
        let q = MsQueue::new();
        assert!(q.is_empty());
        q.enqueue(1);
        assert!(!q.is_empty());
        q.dequeue();
        assert!(q.is_empty());
    }

    #[test]
    fn works_with_owned_types() {
        let q = MsQueue::new();
        q.enqueue(String::from("hello"));
        q.enqueue(String::from("world"));
        assert_eq!(q.dequeue().as_deref(), Some("hello"));
        assert_eq!(q.dequeue().as_deref(), Some("world"));
    }

    #[test]
    fn from_iterator_collects_in_order() {
        let q: MsQueue<i32> = (0..5).collect();
        for i in 0..5 {
            assert_eq!(q.dequeue(), Some(i));
        }
    }

    #[test]
    fn drop_releases_remaining_values() {
        struct Tracked(Arc<AtomicU64>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        {
            let q = MsQueue::new();
            for _ in 0..10 {
                q.enqueue(Tracked(Arc::clone(&drops)));
            }
            drop(q.dequeue()); // one dropped by us
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10, "queue drop released 9");
    }

    #[test]
    fn mpmc_stress() {
        let q = Arc::new(MsQueue::new());
        let produced_per_thread = 10_000_u64;
        let producers = 4_u64;
        let consumed = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..produced_per_thread {
                    q.enqueue(t * produced_per_thread + i + 1);
                }
            }));
        }
        let total = producers * produced_per_thread;
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            let sum = Arc::clone(&sum);
            handles.push(std::thread::spawn(move || {
                while consumed.load(Ordering::SeqCst) < total {
                    if let Some(v) = q.dequeue() {
                        sum.fetch_add(v, Ordering::SeqCst);
                        consumed.fetch_add(1, Ordering::SeqCst);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::SeqCst), (1..=total).sum::<u64>());
        assert!(q.is_empty());
    }

    #[test]
    fn per_producer_order_preserved_under_concurrency() {
        let q = Arc::new(MsQueue::new());
        let mut handles = Vec::new();
        for t in 0..3_u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000_u64 {
                    q.enqueue((t << 32) | i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut last = [None::<u64>; 3];
        while let Some(v) = q.dequeue() {
            let producer = (v >> 32) as usize;
            let seq = v & 0xffff_ffff;
            if let Some(prev) = last[producer] {
                assert!(seq > prev);
            }
            last[producer] = Some(seq);
        }
    }
}
