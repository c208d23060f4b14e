//! `TwoLockQueue<T>` recycles its nodes through a bounded free list: a
//! steady stream allocates nothing, a drained burst leaves a bounded
//! number of spare nodes, dropping the queue frees every byte, and no
//! value is dropped twice or leaked on its trips through the pool.
//!
//! A counting global allocator, local to this test binary, measures the
//! allocations. Its counters are per thread, so tests running in parallel
//! do not see each other's allocations; each measurement below is taken on
//! one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ms_queues::TwoLockQueue;

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

/// The spare nodes the queue may keep at rest, as its documentation
/// states: 256 on the shared stack, 256 with the enqueuers and 31 with
/// the dequeuers.
const SPARE_NODE_BOUND: isize = 543;

#[test]
fn steady_stream_allocates_nothing_after_warm_up() {
    let q = TwoLockQueue::new();
    for i in 0..64_u64 {
        q.enqueue(i);
    }
    // Warm-up: enough pairs for chains to reach the shared stack and come
    // back to the enqueuer.
    for i in 64..1_064_u64 {
        q.enqueue(i);
        assert_eq!(q.dequeue(), Some(i - 64));
    }
    let before = allocations();
    for i in 1_064..101_064_u64 {
        q.enqueue(i);
        assert_eq!(q.dequeue(), Some(i - 64));
    }
    let made = allocations() - before;
    assert!(
        made <= 64,
        "100k enqueue/dequeue pairs with a backlog of 64 made {made} allocations"
    );
}

#[test]
fn drained_burst_keeps_a_bounded_number_of_nodes() {
    let before = live_bytes();
    let q = TwoLockQueue::new();
    // The empty queue holds exactly one node, its dummy.
    let node_bytes = live_bytes() - before;
    assert!(node_bytes > 0);
    for i in 0..100_000_u64 {
        q.enqueue(i);
    }
    for i in 0..100_000_u64 {
        assert_eq!(q.dequeue(), Some(i));
    }
    let kept = live_bytes() - before;
    assert!(
        kept <= (SPARE_NODE_BOUND + 1) * node_bytes,
        "a drained 100k burst keeps {} nodes, more than the dummy and {SPARE_NODE_BOUND} spares",
        kept / node_bytes
    );
    drop(q);
}

#[test]
fn drop_frees_every_byte() {
    let before = live_bytes();
    {
        let q = TwoLockQueue::new();
        // Fill every place a node can rest: the queue itself, the shared
        // stack, the enqueuers' spares and a dequeuers' partial chain.
        for i in 0..10_000_u64 {
            q.enqueue(i);
        }
        for _ in 0..9_000 {
            q.dequeue();
        }
        for i in 0..100_u64 {
            q.enqueue(i);
        }
        for _ in 0..5 {
            q.dequeue();
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

#[test]
fn values_are_dropped_exactly_once_across_trips_through_the_pool() {
    const ITEMS: usize = 20_000;
    // Fewer than the 64-item backlog, so the producer never waits for a
    // value the consumer leaves in the queue.
    const LEFT_QUEUED: usize = 50;
    let drops: Arc<Vec<AtomicU32>> = Arc::new((0..ITEMS).map(|_| AtomicU32::new(0)).collect());
    let q = Arc::new(TwoLockQueue::new());
    // A producer and a consumer with a backlog of at most 64, so every node
    // goes round the free list many times.
    let producer = {
        let q = Arc::clone(&q);
        let drops = Arc::clone(&drops);
        std::thread::spawn(move || {
            for id in 0..ITEMS {
                q.enqueue(Counted {
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
        match q.dequeue() {
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
