//! `TwoLockQueue<T>`: the idiomatic, heap-allocated two-lock queue.

use std::mem;
use std::ptr;
use std::sync::atomic::Ordering;

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::recycler::{free_list, ChainStack, Node, CHAIN_LEN};

/// What `H_lock` guards: `Head` and the chain of old dummies that has not
/// yet been handed to the enqueuers.
struct HeadEnd<T> {
    dummy: *mut Node<T>,
    /// Newest old dummy first; null-terminated at `chain_last`.
    chain: *mut Node<T>,
    chain_last: *mut Node<T>,
    chain_len: usize,
}

/// What `T_lock` guards: `Tail` and the recycled nodes the enqueuers take
/// before they allocate.
struct TailEnd<T> {
    last: *mut Node<T>,
    /// Null-terminated list of nodes whose values are uninitialized.
    spare: *mut Node<T>,
}

/// An unbounded FIFO queue with separate head and tail locks — the paper's
/// blocking algorithm (Figure 2) with heap nodes and `parking_lot` mutexes
/// in place of the experiments' spin locks and arena.
///
/// One enqueue and one dequeue can always proceed in parallel; multiple
/// enqueuers (or multiple dequeuers) serialize on their respective lock.
/// The dummy node keeps the two locks from ever being nested, so deadlock
/// is impossible by construction. Each lock sits on its own cache line, so
/// the two ends do not slow each other down through false sharing.
///
/// Nodes are recycled as in the paper's free list. A dequeuer gathers the
/// dummies it unlinks into a chain under `H_lock`, and every 32 nodes
/// pushes the whole chain onto a shared stack with one CAS. An
/// enqueuer takes nodes from a chain under `T_lock`, refills it by taking
/// the entire shared stack at once, and allocates only when both are empty.
/// The shared stack holds at most 8 chains; a dequeuer that finds it full
/// frees its chain. So however long the queue once grew, it keeps at most
/// 543 spare nodes (256 on the stack, 256 with the enqueuers, 31 with the
/// dequeuers) beyond those holding values and the dummy, plus, for each
/// dequeuer caught between its unlock and its push, the chain in its hands.
///
/// # Example
///
/// ```
/// use msq_core::TwoLockQueue;
///
/// let queue = TwoLockQueue::new();
/// queue.enqueue(10);
/// queue.enqueue(20);
/// assert_eq!(queue.dequeue(), Some(10));
/// assert_eq!(queue.dequeue(), Some(20));
/// assert_eq!(queue.dequeue(), None);
/// ```
pub struct TwoLockQueue<T> {
    head: CachePadded<Mutex<HeadEnd<T>>>,
    tail: CachePadded<Mutex<TailEnd<T>>>,
    /// Full chains on their way from the dequeuers to the enqueuers.
    free: ChainStack<T>,
}

// Safety: the raw pointers are owned by the queue. Values move between
// threads by value, and every node is reached only under one of the locks
// or through the free stack's swap and CAS, so `&TwoLockQueue<T>` never
// shares a `&T`; `T: Send` is all the threads need.
unsafe impl<T: Send> Send for TwoLockQueue<T> {}
unsafe impl<T: Send> Sync for TwoLockQueue<T> {}

impl<T> TwoLockQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let dummy = Node::alloc();
        TwoLockQueue {
            head: CachePadded::new(Mutex::new(HeadEnd {
                dummy,
                chain: ptr::null_mut(),
                chain_last: ptr::null_mut(),
                chain_len: 0,
            })),
            tail: CachePadded::new(Mutex::new(TailEnd {
                last: dummy,
                spare: ptr::null_mut(),
            })),
            free: ChainStack::new(),
        }
    }

    /// Adds `value` at the tail. Blocks only other enqueuers.
    pub fn enqueue(&self, value: T) {
        let mut tail = self.tail.lock();
        if tail.spare.is_null() {
            tail.spare = self.free.take_all();
        }
        let node = if tail.spare.is_null() {
            Node::alloc()
        } else {
            let node = tail.spare;
            // Safety: spare nodes belong to the tail lock's holder.
            tail.spare = unsafe { (*node).next.load(Ordering::Relaxed) };
            node
        };
        // Safety: `node` is ours alone until linked, and its value slot is
        // uninitialized. *tail.last is the last node, owned by the queue;
        // we hold the tail lock, so no other enqueuer touches its next link.
        unsafe {
            (*node).value.write(value);
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
            (*tail.last).next.store(node, Ordering::Release);
        }
        tail.last = node;
    }

    /// Removes and returns the head value, or `None` if the queue is
    /// empty. Blocks only other dequeuers.
    pub fn dequeue(&self) -> Option<T> {
        let mut head = self.head.lock();
        let node = head.dummy;
        // Safety: head.dummy is the dummy node, kept alive by the queue.
        let next = unsafe { (*node).next.load(Ordering::Acquire) };
        if next.is_null() {
            return None;
        }
        // Safety: `next` holds an initialized value (only the dummy does
        // not); exactly one dequeuer moves it out because Head advances
        // under the lock.
        let value = unsafe { ptr::read((*next).value.as_ptr()) };
        head.dummy = next;
        // The old dummy is unreachable: enqueuers only dereference Tail,
        // which never points behind Head, and only dequeuers holding the
        // head lock read a dummy's link. So it can join the chain.
        // Safety: from here on `node` belongs to the head lock's holder.
        unsafe { (*node).next.store(head.chain, Ordering::Relaxed) };
        if head.chain.is_null() {
            head.chain_last = node;
        }
        head.chain = node;
        head.chain_len += 1;
        let full = (head.chain_len == CHAIN_LEN).then(|| {
            head.chain_len = 0;
            (
                mem::replace(&mut head.chain, ptr::null_mut()),
                head.chain_last,
            )
        });
        drop(head);
        // Hand the chain over outside the critical section (as Figure 2
        // frees the old dummy outside it).
        if let Some((first, last)) = full {
            // Safety: the chain left the head end with the lock, so it is
            // ours alone, and its nodes are old dummies holding no value.
            unsafe { self.free.push(first, last) };
        }
        Some(value)
    }

    /// Whether the queue was observed empty (snapshot semantics).
    pub fn is_empty(&self) -> bool {
        let head = self.head.lock();
        // Safety: dummy is alive while the queue is.
        unsafe { (*head.dummy).next.load(Ordering::Acquire).is_null() }
    }
}

impl<T> Default for TwoLockQueue<T> {
    fn default() -> Self {
        TwoLockQueue::new()
    }
}

impl<T> Drop for TwoLockQueue<T> {
    fn drop(&mut self) {
        let head = self.head.get_mut();
        // Safety: exclusive access during drop. Only the nodes after the
        // dummy hold values; the dummy and every spare node hold none.
        unsafe {
            let mut node = (*head.dummy).next.load(Ordering::Relaxed);
            while !node.is_null() {
                ptr::drop_in_place((*node).value.as_mut_ptr());
                node = (*node).next.load(Ordering::Relaxed);
            }
            free_list(head.dummy);
            free_list(head.chain);
            free_list(self.tail.get_mut().spare);
        }
    }
}

impl<T> std::fmt::Debug for TwoLockQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TwoLockQueue(empty={})", self.is_empty())
    }
}

impl<T: Send> FromIterator<T> for TwoLockQueue<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let queue = TwoLockQueue::new();
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
        let q = TwoLockQueue::new();
        for i in 0..50 {
            q.enqueue(i);
        }
        for i in 0..50 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn head_and_tail_locks_never_share_a_cache_line() {
        // An enqueuer and a dequeuer each take only their own lock, so the
        // two locks must sit at least one 64-byte line apart.
        let q = TwoLockQueue::<u64>::new();
        let head = std::ptr::addr_of!(q.head) as usize;
        let tail = std::ptr::addr_of!(q.tail) as usize;
        assert!(
            head.abs_diff(tail) >= 64,
            "head and tail locks are {} bytes apart",
            head.abs_diff(tail)
        );
    }

    #[test]
    fn is_empty_tracks_contents() {
        let q = TwoLockQueue::new();
        assert!(q.is_empty());
        q.enqueue("x");
        assert!(!q.is_empty());
        assert_eq!(q.dequeue(), Some("x"));
        assert!(q.is_empty());
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
            let q = TwoLockQueue::new();
            for _ in 0..7 {
                q.enqueue(Tracked(Arc::clone(&drops)));
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_values() {
        let q = Arc::new(TwoLockQueue::new());
        let total_items = 4 * 8_000_u64;
        let consumed = Arc::new(AtomicU64::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..4_u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..8_000_u64 {
                    q.enqueue(t * 8_000 + i + 1);
                }
            }));
        }
        for _ in 0..2 {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            let sum = Arc::clone(&sum);
            handles.push(std::thread::spawn(move || {
                while consumed.load(Ordering::SeqCst) < total_items {
                    if let Some(v) = q.dequeue() {
                        sum.fetch_add(v, Ordering::SeqCst);
                        consumed.fetch_add(1, Ordering::SeqCst);
                    } else {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::SeqCst), (1..=total_items).sum::<u64>());
        assert!(q.is_empty());
    }

    #[test]
    fn single_element_enqueue_dequeue_race() {
        // Hammer the empty<->single transition, the delicate case the
        // dummy node exists to simplify.
        let q = Arc::new(TwoLockQueue::new());
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..20_000_u64 {
                    q.enqueue(i);
                }
            })
        };
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut expected = 0_u64;
                while expected < 20_000 {
                    if let Some(v) = q.dequeue() {
                        assert_eq!(v, expected, "SPSC order violated");
                        expected += 1;
                    }
                }
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
        assert!(q.is_empty());
    }
}
