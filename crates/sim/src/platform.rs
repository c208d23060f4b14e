//! [`SimPlatform`] and [`SimCell`]: the `msq_platform::Platform`
//! implementation that routes every operation through the simulator.

use std::cell::Cell;
use std::sync::Arc;

use msq_platform::{AtomicWord, Platform};

use crate::core::{MemOp, SimShared};

thread_local! {
    /// The simulated process id bound to the current worker thread, or
    /// `usize::MAX` when the thread is the coordinator (setup/inspection).
    static CURRENT_PID: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Per-process counter feeding deterministic backoff-jitter seeds.
    static SEED_COUNTER: Cell<u64> = const { Cell::new(0) };
}

pub(crate) fn bind_current_process(pid: usize) {
    CURRENT_PID.with(|c| c.set(pid));
}

pub(crate) fn unbind_current_process() {
    CURRENT_PID.with(|c| c.set(usize::MAX));
}

fn current_pid() -> Option<usize> {
    CURRENT_PID.with(|c| {
        let v = c.get();
        (v != usize::MAX).then_some(v)
    })
}

/// Handle to a simulation's memory and clock, implementing
/// [`msq_platform::Platform`].
///
/// Cloning is cheap; clones refer to the same simulated machine. When used
/// from a simulated process (inside [`crate::Simulation::run`]) every
/// operation costs virtual time and participates in the deterministic
/// interleaving; when used from any other thread (queue construction before
/// the run, result inspection after it) operations apply directly and cost
/// nothing, mirroring the paper's untimed initialization.
#[derive(Clone)]
pub struct SimPlatform {
    shared: Arc<SimShared>,
}

impl SimPlatform {
    pub(crate) fn new(shared: Arc<SimShared>) -> Self {
        SimPlatform { shared }
    }

    /// The simulation's **death board**: a cell whose bit `pid` is set
    /// the instant the fault layer kills `pid` (watchdog retirements are
    /// *not* posted — a watchdog-flagged process is wedged, not dead,
    /// and nothing deterministic distinguishes the two from inside).
    ///
    /// The cell is allocated lazily on first call (so runs that never
    /// ask keep their cell ids, and therefore traces, unchanged) and is
    /// shared by all callers. Survivors implementing a recovery policy
    /// poll it with ordinary charged loads; the coherence model prices
    /// the polls but never hides the bits.
    pub fn death_board(&self) -> SimCell {
        SimCell {
            id: self.shared.death_board(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Records that the calling simulated process has fully absorbed the
    /// remaining work share of killed process `victim`, stamping a
    /// [`crate::RecoveryReport`] with the victim's death time and the
    /// caller's current virtual time. Free, like a fault point: the
    /// catch-up work itself was already charged op by op. No-op outside
    /// a simulated process.
    pub fn mark_recovered(&self, victim: usize) {
        if let Some(pid) = current_pid() {
            self.shared.mark_recovered(pid, victim);
        }
    }
}

impl std::fmt::Debug for SimPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimPlatform({} processors)",
            self.shared.config().processors
        )
    }
}

impl Platform for SimPlatform {
    type Cell = SimCell;

    fn alloc_cell(&self, init: u64) -> SimCell {
        SimCell {
            id: self.shared.alloc_cell(init),
            shared: Arc::clone(&self.shared),
        }
    }

    fn delay(&self, nanos: u64) {
        if let Some(pid) = current_pid() {
            self.shared.delay(pid, nanos);
        }
        // Outside the simulation, delay is free: setup time is untimed.
    }

    fn cpu_relax(&self) {
        if let Some(pid) = current_pid() {
            // A failed spin probe that does not touch memory: charge one
            // local-work unit.
            self.shared.delay(pid, 1);
        }
    }

    fn jitter_seed(&self) -> u64 {
        // Derived purely from the calling process's identity and its own
        // program order, so the seed sequence is identical on every run
        // regardless of how worker threads interleave on the host.
        let counter = SEED_COUNTER.with(|c| {
            let v = c.get();
            c.set(v + 1);
            v
        });
        let pid = current_pid().map_or(u64::MAX, |p| p as u64);
        // splitmix64-style finalizer for good bit spread.
        let mut z = pid
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(counter)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn affinity_hint(&self) -> usize {
        // The simulated process id: stable for the process's lifetime and
        // identical on every run, so sharded structures dispatch
        // deterministically. Setup/inspection threads (unbound) all map
        // to 0, which is fine — setup is untimed and single-threaded.
        current_pid().unwrap_or(0)
    }

    fn fault_point(&self, label: &'static str) {
        // Routes to the run's FaultPlan. The shared side prechecks the
        // plan lock-free, so unwatched processes (and every process of an
        // unfaulted run) take a few instructions and no scheduler
        // interaction — the canonical schedule is untouched.
        if let Some(pid) = current_pid() {
            self.shared.fault_point(pid, label);
        }
    }

    fn dead_peers(&self) -> u64 {
        // A charged load of the death board: consulting the board is an
        // ordinary shared-memory read, priced like any survivor poll.
        // The board cell is allocated lazily on first use; structures
        // that call this mid-run should touch `death_board()` during
        // untimed setup so cell ids (and traces) stay schedule-stable.
        // Outside a simulated process the read is direct and free.
        let cell = self.shared.death_board();
        match current_pid() {
            Some(pid) => self
                .shared
                .mem_op(pid, cell, MemOp::Load)
                .expect("load is infallible"),
            None => self.shared.peek(cell),
        }
    }

    fn mark_recovered(&self, victim: usize) {
        // Same stamp as the inherent method: generic code reaches it
        // through the `Platform` trait.
        SimPlatform::mark_recovered(self, victim);
    }

    fn mark_repaired(&self, victim: usize, point: &'static str) {
        // Free, like mark_recovered: the repair's memory traffic was
        // already charged op by op. No-op outside a simulated process.
        if let Some(pid) = current_pid() {
            self.shared.mark_repaired(pid, victim, point);
        }
    }

    fn now_ns(&self) -> u64 {
        // The calling process's virtual time. Free and token-keeping: a
        // clock read touches no shared memory. The coordinator (setup /
        // inspection) reads 0 — setup is untimed.
        match current_pid() {
            Some(pid) => self.shared.now_ns(pid),
            None => 0,
        }
    }

    fn record_latency(&self, arrival_ns: u64) {
        // Free, like mark_recovered: the dequeue that surfaced the item
        // was already charged. No-op outside a simulated process.
        if let Some(pid) = current_pid() {
            self.shared.record_latency(pid, arrival_ns);
        }
    }
}

/// A simulated shared-memory word.
///
/// Operations performed from a simulated process are charged virtual time
/// under the coherence cost model and are serialized by the scheduler;
/// operations from other threads apply immediately and free of charge.
pub struct SimCell {
    id: u32,
    shared: Arc<SimShared>,
}

impl SimCell {
    fn op(&self, op: MemOp) -> Result<u64, u64> {
        match current_pid() {
            Some(pid) => self.shared.mem_op(pid, self.id, op),
            None => self.direct(op),
        }
    }

    /// Setup-mode operation: applied atomically (under the core lock) but
    /// with no cost and no cache effects.
    fn direct(&self, op: MemOp) -> Result<u64, u64> {
        let prev = self.shared.peek(self.id);
        match op {
            MemOp::Load => Ok(prev),
            MemOp::Store(v) => {
                self.shared.poke(self.id, v);
                Ok(prev)
            }
            MemOp::CompareExchange { current, new } => {
                if prev == current {
                    self.shared.poke(self.id, new);
                    Ok(prev)
                } else {
                    Err(prev)
                }
            }
            MemOp::Swap(v) => {
                self.shared.poke(self.id, v);
                Ok(prev)
            }
            MemOp::FetchAdd(d) => {
                self.shared.poke(self.id, prev.wrapping_add(d));
                Ok(prev)
            }
        }
    }
}

impl std::fmt::Debug for SimCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimCell(#{id})", id = self.id)
    }
}

impl AtomicWord for SimCell {
    fn load(&self) -> u64 {
        self.op(MemOp::Load).expect("load is infallible")
    }

    fn store(&self, value: u64) {
        let _ = self.op(MemOp::Store(value));
    }

    fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.op(MemOp::CompareExchange { current, new })
    }

    fn swap(&self, value: u64) -> u64 {
        self.op(MemOp::Swap(value)).expect("swap is infallible")
    }

    fn fetch_add(&self, delta: u64) -> u64 {
        self.op(MemOp::FetchAdd(delta))
            .expect("fetch_add is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulation};

    #[test]
    fn setup_mode_operations_are_direct_and_free() {
        let sim = Simulation::new(SimConfig::default());
        let p = sim.platform();
        let c = p.alloc_cell(4);
        assert_eq!(c.load(), 4);
        c.store(6);
        assert_eq!(c.swap(8), 6);
        assert_eq!(c.compare_exchange(8, 9), Ok(8));
        assert_eq!(c.compare_exchange(1, 2), Err(9));
        assert_eq!(c.fetch_add(1), 9);
        assert_eq!(c.load(), 10);
        // None of that advanced any clock.
        let report = sim.run(|_| {});
        assert_eq!(report.elapsed_ns, 0);
    }

    #[test]
    fn latency_stamps_and_clock_reads_are_free() {
        let sim = Simulation::new(SimConfig::default());
        let p = sim.platform();
        assert_eq!(p.now_ns(), 0, "coordinator clock reads are zero");
        p.record_latency(5); // no-op outside a simulated process
        let report = sim.run({
            let p = p.clone();
            move |_| {
                let before = p.now_ns();
                p.delay(100);
                let after = p.now_ns();
                assert_eq!(after, before + 100);
                // Stamp then re-read: the stamp is free, so the clock
                // must not have moved — the host-side latency equals the
                // report's sample exactly.
                p.record_latency(before);
                assert_eq!(p.now_ns(), after);
            }
        });
        assert_eq!(report.latencies.len(), 1);
        assert_eq!(report.latencies[0].latency_ns(), 100);
        assert_eq!(report.total_ops, 0, "stamps and clock reads are free");
    }

    #[test]
    fn simulated_operations_cost_time() {
        let sim = Simulation::new(SimConfig::default());
        let c = std::sync::Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let c = std::sync::Arc::clone(&c);
            move |_| {
                c.store(3);
            }
        });
        assert_eq!(c.load(), 3);
        assert!(report.elapsed_ns > 0);
        assert_eq!(report.total_ops, 1);
    }
}
