//! The heap node of `TwoLockQueue<T>` and `MsQueue<T>`, and the bounded
//! take-all stack of node chains through which both recycle their nodes
//! (DESIGN.md §15 and §16).

use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Nodes in one recycled chain: the old dummies a dequeuer collects before
/// handing them to the enqueuers.
pub(crate) const CHAIN_LEN: usize = 32;

/// Chains the stack holds; a dequeuer that finds it full frees its chain
/// instead.
const MAX_CHAINS: usize = 8;

/// A non-null top of the stack carries in its low bits the number of
/// chains below it, at most 7; nodes are 8-aligned, so those bits are free.
const TAG_MASK: usize = MAX_CHAINS - 1;

const _: () = assert!(MAX_CHAINS.is_power_of_two() && MAX_CHAINS <= 8);

#[repr(align(8))]
pub(crate) struct Node<T> {
    /// Initialized for every node in the queue except the current dummy;
    /// uninitialized in the dummy and in every recycled node.
    pub(crate) value: MaybeUninit<T>,
    /// The queue link, or the chain link of a recycled node. Atomic
    /// because a queue link is read while another thread installs it: the
    /// two-lock queue's dummy across its two locks, every link of the
    /// lock-free queue by its CAS.
    pub(crate) next: AtomicPtr<Node<T>>,
}

impl<T> Node<T> {
    /// A fresh node with no value and no successor.
    pub(crate) fn alloc() -> *mut Node<T> {
        Box::into_raw(Box::new(Node {
            value: MaybeUninit::uninit(),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// Frees a null-terminated list of nodes without dropping their values.
///
/// # Safety
///
/// The caller owns every node of the list, and none is reachable elsewhere.
pub(crate) unsafe fn free_list<T>(mut node: *mut Node<T>) {
    while !node.is_null() {
        let boxed = Box::from_raw(node);
        node = boxed.next.load(Ordering::Relaxed);
    }
}

fn untag<T>(top: *mut Node<T>) -> *mut Node<T> {
    top.map_addr(|addr| addr & !TAG_MASK)
}

/// A Treiber stack of whole chains, holding at most [`MAX_CHAINS`]. It is
/// only ever pushed a chain or emptied at once, never popped a node, so
/// its CAS has no ABA problem.
pub(crate) struct ChainStack<T> {
    top: AtomicPtr<Node<T>>,
}

impl<T> ChainStack<T> {
    pub(crate) fn new() -> Self {
        ChainStack {
            top: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Pushes the chain `first..=last`, or frees it if the stack already
    /// holds [`MAX_CHAINS`] chains.
    ///
    /// # Safety
    ///
    /// The caller owns every node of the chain, no other thread can reach
    /// one, and none holds a value.
    pub(crate) unsafe fn push(&self, first: *mut Node<T>, last: *mut Node<T>) {
        let mut top = self.top.load(Ordering::Relaxed);
        loop {
            let held = if top.is_null() {
                0
            } else {
                (top.addr() & TAG_MASK) + 1
            };
            // The chain's nodes are the caller's until the CAS publishes
            // them, so writing their links and freeing them is sound.
            if held == MAX_CHAINS {
                // `last` may still link into the stack from a failed
                // attempt, so cut it there first.
                (*last).next.store(ptr::null_mut(), Ordering::Relaxed);
                free_list(first);
                return;
            }
            (*last).next.store(untag(top), Ordering::Relaxed);
            let pushed = first.map_addr(|addr| addr | held);
            match self
                .top
                .compare_exchange_weak(top, pushed, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => top = seen,
            }
        }
    }

    /// Empties the stack, returning all its nodes as one null-terminated
    /// list (null if it was empty). The caller owns them.
    pub(crate) fn take_all(&self) -> *mut Node<T> {
        if self.top.load(Ordering::Relaxed).is_null() {
            return ptr::null_mut();
        }
        untag(self.top.swap(ptr::null_mut(), Ordering::Acquire))
    }
}

impl<T> Drop for ChainStack<T> {
    fn drop(&mut self) {
        // Safety: exclusive access; the stack owns its nodes.
        unsafe { free_list(untag(*self.top.get_mut())) };
    }
}
