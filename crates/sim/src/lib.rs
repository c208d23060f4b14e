//! A deterministic multiprocessor simulator for reproducing the paper's
//! SGI Challenge experiments on an arbitrary (even single-core) host.
//!
//! # Why a simulator
//!
//! Michael & Scott's evaluation ran on a dedicated 12-processor SGI
//! Challenge; their analysis attributes every result to a handful of
//! machine-level effects — cache misses on the contended `Head`/`Tail`
//! words, serialization of the enqueue/dequeue critical path, spin-wait
//! traffic, and (for Figures 4 and 5) preemption of a process that holds a
//! lock or is mid-operation. This crate models exactly those effects:
//!
//! * **Virtual time.** Each simulated processor has a nanosecond clock.
//!   A global scheduler always advances the runnable process on the
//!   least-advanced processor, so the interleaving of shared-memory
//!   operations is a legal sequentially-consistent history, identical on
//!   every run (no dependence on the host OS scheduler).
//! * **Coherence cost model.** Every cell tracks which processors hold it
//!   in cache. Reads by a sharer cost `t_hit_ns`; other reads cost
//!   `t_miss_ns` and join the sharer set. Writes and read-modify-writes by
//!   a non-exclusive owner cost a miss plus `t_inval_ns` per invalidated
//!   sharer; they leave the writer as the only sharer. RMWs add `t_rmw_ns`.
//! * **Multiprogramming.** Each processor round-robins
//!   `processes_per_processor` processes with quantum `quantum_ns`
//!   (default 10 ms, the paper's value) and a context-switch cost. A
//!   process that is preempted simply stops advancing — which is precisely
//!   how a blocking algorithm ends up stalling every other process.
//!
//! Algorithms do not know they are being simulated: [`SimPlatform`]
//! implements [`msq_platform::Platform`], and each simulated process runs
//! the ordinary Rust implementation of its algorithm on a dedicated worker
//! thread. Only one process thread executes at a time: an execution token
//! passes to the process chosen by the virtual-time rule, so the
//! simulation is sequentialized and deterministic regardless of host
//! parallelism. The same configuration and fault plan always produce the
//! same [`SimReport`] — the `backend_equivalence` integration test replays
//! every contender, scale, fault plan and scenario shape twice to
//! enforce it.
//!
//! Parallelism lives one level up, across *runs*: seed sweeps
//! ([`schedule_sweep`]) dispatch independent seeds onto
//! `MSQ_SWEEP_LANES` host threads (default: one per available core),
//! with failures always reported at the minimal failing seed index,
//! exactly as a one-lane sweep would.
//!
//! # Example
//!
//! ```
//! use msq_platform::{AtomicWord, Platform};
//! use msq_sim::{SimConfig, Simulation};
//! use std::sync::Arc;
//!
//! let sim = Simulation::new(SimConfig { processors: 4, ..SimConfig::default() });
//! let counter = Arc::new(sim.platform().alloc_cell(0));
//! let report = sim.run({
//!     let counter = Arc::clone(&counter);
//!     move |_proc| {
//!         for _ in 0..100 {
//!             counter.fetch_add(1);
//!         }
//!     }
//! });
//! assert_eq!(counter.load(), 400);
//! assert!(report.elapsed_ns > 0);
//! ```

#![warn(missing_docs)]

mod config;
mod core;
mod fault;
mod platform;
mod recovery;
mod report;
mod runner;
mod sweep;

pub use config::SimConfig;
pub use fault::{FaultAction, FaultPlan, FaultSpec, FaultTrigger};
pub use platform::{SimCell, SimPlatform};
pub use recovery::RecoveryPolicy;
pub use report::{
    BlockedKind, LatencySample, ProcessReport, RecoveryReport, RepairReport, SimReport, TraceEvent,
    TraceKind,
};
pub use runner::{ProcessInfo, Simulation};
pub use sweep::{schedule_sweep, schedule_sweep_with};
