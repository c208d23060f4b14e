//! Spin locks for the lock-based queue algorithms.
//!
//! The paper's lock-based contenders (the single-lock queue and the new
//! two-lock queue) use "test-and-test_and_set locks with bounded
//! exponential backoff"; this crate provides that lock ([`TtasLock`]),
//! plus a plain [`TasLock`] (the machines-with-only-`test_and_set`
//! motivation for the two-lock algorithm) and a [`TicketLock`] (FIFO
//! extension, useful in the ablation benches). All are expressed over
//! [`msq_platform::Platform`] so they run natively and under simulation.
//!
//! The blocking queues take their locks through a zero-sized
//! [`RepairPolicy`]: [`NoRepair`] (plain [`TtasLock`]s, the paper's
//! algorithms) or [`Repair`] ([`RevocableLock`]s plus intent cells, so a
//! survivor can repair a dead holder's critical section; DESIGN.md §13).
//!
//! # Example
//!
//! ```
//! use msq_platform::NativePlatform;
//! use msq_sync::{RawLock, TtasLock};
//!
//! let platform = NativePlatform::new();
//! let lock = TtasLock::new(&platform);
//! lock.lock(&platform);
//! // ... critical section ...
//! lock.unlock(&platform);
//! ```

#![warn(missing_docs)]

mod locks;
mod qlocks;
mod repair;
mod revocable;

pub use locks::{RawLock, TasLock, TicketLock, TtasLock};
pub use qlocks::{ClhLock, ClhToken, McsLock, TokenLock};
pub use repair::{NoRepair, Repair, RepairLabels, RepairPolicy};
pub use revocable::{Acquired, RevocableLock};
