//! `TwoLockQueue<T>` and `MsQueue<T>` recycle their nodes through bounded
//! free lists: a steady stream allocates nothing, a drained burst leaves a
//! bounded number of spare nodes, dropping the queue frees every byte, and
//! no value is dropped twice or leaked on its trips through the pool. The
//! top-level tests check `TwoLockQueue<T>`, the `ms_queue` module the same
//! for `MsQueue<T>`.
//!
//! A counting global allocator, local to this test binary, measures the
//! allocations. Its counters are per thread, so tests running in parallel
//! do not see each other's allocations; each measurement below is taken on
//! one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ms_queues::{MsQueue, TwoLockQueue};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn record(allocations: u64, bytes: isize) {
    // `try_with` because the allocator also runs while a thread's locals
    // are being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + allocations));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// Safety: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// The heap queues that recycle their nodes, as the tests below use them.
trait Recycling<T>: Send + Sync + Sized {
    fn create() -> Self;
    fn put(&self, value: T);
    fn take(&self) -> Option<T>;
}

impl<T: Send> Recycling<T> for TwoLockQueue<T> {
    fn create() -> Self {
        TwoLockQueue::new()
    }
    fn put(&self, value: T) {
        self.enqueue(value);
    }
    fn take(&self) -> Option<T> {
        self.dequeue()
    }
}

impl<T: Send> Recycling<T> for MsQueue<T> {
    fn create() -> Self {
        MsQueue::new()
    }
    fn put(&self, value: T) {
        self.enqueue(value);
    }
    fn take(&self) -> Option<T> {
        self.dequeue()
    }
}

/// Runs a queue once on this thread, so that the thread's lasting state
/// (its pooled hazard pointers) is in place before bytes are counted.
fn warm_thread<Q: Recycling<u64>>() {
    let q = Q::create();
    q.put(0);
    assert_eq!(q.take(), Some(0));
}

/// The spare nodes `TwoLockQueue<T>` may keep at rest, as its
/// documentation states: 256 on the shared stack, 256 with the enqueuers
/// and 31 with the dequeuers.
const SPARE_NODE_BOUND: isize = 543;

#[test]
fn steady_stream_allocates_nothing_after_warm_up() {
    steady_stream::<TwoLockQueue<u64>>();
}

#[test]
fn drained_burst_keeps_a_bounded_number_of_nodes() {
    drained_burst::<TwoLockQueue<u64>>(SPARE_NODE_BOUND);
}

#[test]
fn drop_frees_every_byte() {
    drop_frees::<TwoLockQueue<u64>>();
}

#[test]
fn values_are_dropped_exactly_once_across_trips_through_the_pool() {
    dropped_exactly_once::<TwoLockQueue<Counted>>();
}

mod ms_queue {
    use super::*;

    /// The spare nodes `MsQueue<T>` may keep at rest, as its documentation
    /// states: 256 on the shared stack, and in each of 4 stripes 31 filed
    /// and 256 spare.
    const SPARE_NODE_BOUND: isize = 256 + 4 * (31 + 256);

    #[test]
    fn steady_stream_allocates_nothing_after_warm_up() {
        steady_stream::<MsQueue<u64>>();
    }

    #[test]
    fn drained_burst_keeps_a_bounded_number_of_nodes() {
        drained_burst::<MsQueue<u64>>(SPARE_NODE_BOUND);
    }

    #[test]
    fn drop_frees_every_byte() {
        drop_frees::<MsQueue<u64>>();
    }

    #[test]
    fn values_are_dropped_exactly_once_across_trips_through_the_pool() {
        dropped_exactly_once::<MsQueue<Counted>>();
    }
}

fn steady_stream<Q: Recycling<u64>>() {
    warm_thread::<Q>();
    let q = Q::create();
    for i in 0..64_u64 {
        q.put(i);
    }
    // Warm-up: enough pairs for chains to reach the shared stack and come
    // back to the enqueuer.
    for i in 64..1_064_u64 {
        q.put(i);
        assert_eq!(q.take(), Some(i - 64));
    }
    let before = allocations();
    for i in 1_064..101_064_u64 {
        q.put(i);
        assert_eq!(q.take(), Some(i - 64));
    }
    let made = allocations() - before;
    assert!(
        made <= 64,
        "100k enqueue/dequeue pairs with a backlog of 64 made {made} allocations"
    );
}

fn drained_burst<Q: Recycling<u64>>(spare_node_bound: isize) {
    warm_thread::<Q>();
    let before = live_bytes();
    let q = Q::create();
    // The empty queue holds exactly one node, its dummy.
    let node_bytes = live_bytes() - before;
    assert!(node_bytes > 0);
    for i in 0..100_000_u64 {
        q.put(i);
    }
    for i in 0..100_000_u64 {
        assert_eq!(q.take(), Some(i));
    }
    let kept = live_bytes() - before;
    assert!(
        kept <= (spare_node_bound + 1) * node_bytes,
        "a drained 100k burst keeps {} nodes, more than the dummy and {spare_node_bound} spares",
        kept / node_bytes
    );
    drop(q);
}

fn drop_frees<Q: Recycling<u64>>() {
    warm_thread::<Q>();
    let before = live_bytes();
    {
        let q = Q::create();
        // Fill every place a node can rest: the queue itself, the shared
        // stack, the enqueuers' spares and a dequeuers' partial chain.
        for i in 0..10_000_u64 {
            q.put(i);
        }
        for _ in 0..9_000 {
            q.take();
        }
        for i in 0..100_u64 {
            q.put(i);
        }
        for _ in 0..5 {
            q.take();
        }
    }
    assert_eq!(
        live_bytes(),
        before,
        "dropping the queue leaked or overfreed"
    );
}

/// Counts its own drops in a shared table, one slot per id.
struct Counted {
    id: usize,
    drops: Arc<Vec<AtomicU32>>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops[self.id].fetch_add(1, Ordering::Relaxed);
    }
}

fn dropped_exactly_once<Q: Recycling<Counted> + 'static>() {
    const ITEMS: usize = 20_000;
    // Fewer than the 64-item backlog, so the producer never waits for a
    // value the consumer leaves in the queue.
    const LEFT_QUEUED: usize = 50;
    let drops: Arc<Vec<AtomicU32>> = Arc::new((0..ITEMS).map(|_| AtomicU32::new(0)).collect());
    let q = Arc::new(Q::create());
    // A producer and a consumer with a backlog of at most 64, so every node
    // goes round the free list many times.
    let producer = {
        let q = Arc::clone(&q);
        let drops = Arc::clone(&drops);
        std::thread::spawn(move || {
            for id in 0..ITEMS {
                q.put(Counted {
                    id,
                    drops: Arc::clone(&drops),
                });
                while id >= 64 && drops[id - 64].load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
            }
        })
    };
    let mut taken = 0;
    while taken < ITEMS - LEFT_QUEUED {
        match q.take() {
            Some(value) => {
                assert_eq!(value.id, taken, "FIFO order violated");
                taken += 1;
            }
            None => std::thread::yield_now(),
        }
    }
    producer.join().unwrap();
    for (id, count) in drops.iter().enumerate().take(taken) {
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "value {id} dropped wrongly"
        );
    }
    drop(q);
    for (id, count) in drops.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "value {id} not dropped exactly once"
        );
    }
}
