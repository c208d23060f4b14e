//! [`Simulation`]: construction, worker-thread orchestration, teardown.

use std::sync::Arc;

use crate::config::SimConfig;
use crate::core::{ProcessKilled, SimShared};
use crate::fault::FaultPlan;
use crate::platform::{bind_current_process, unbind_current_process, SimPlatform};
use crate::report::SimReport;

/// Identity of a simulated process, passed to the process body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcessInfo {
    /// Process id, `0..num_processes`.
    pub pid: usize,
    /// The simulated processor this process is bound to.
    pub processor: usize,
    /// Total number of processes in the simulation.
    pub num_processes: usize,
}

/// A deterministic multiprocessor simulation.
///
/// Lifecycle: create with [`Simulation::new`], allocate shared state through
/// [`Simulation::platform`] (untimed setup), then call [`Simulation::run`]
/// once with the per-process body. The platform handle (and any cells)
/// remain usable afterwards for untimed inspection.
pub struct Simulation {
    shared: Arc<SimShared>,
    cfg: SimConfig,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Simulation({} processors x {} processes)",
            self.cfg.processors, self.cfg.processes_per_processor
        )
    }
}

impl Simulation {
    /// Creates a simulation of the machine described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`SimConfig::validate`]).
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_faults(cfg, FaultPlan::new())
    }

    /// Creates a simulation that injects the faults scheduled in `plan`
    /// (see [`FaultPlan`]). An empty plan is exactly [`Simulation::new`]:
    /// the schedule is not perturbed in any way.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or if `plan` targets a pid outside
    /// `0..cfg.num_processes()`.
    pub fn with_faults(cfg: SimConfig, plan: FaultPlan) -> Self {
        cfg.validate();
        Simulation {
            shared: Arc::new(SimShared::with_plan(cfg, plan)),
            cfg,
        }
    }

    /// The platform handle used to allocate shared cells and to construct
    /// the data structures under test.
    pub fn platform(&self) -> SimPlatform {
        SimPlatform::new(Arc::clone(&self.shared))
    }

    /// The simulation's configuration.
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// Total number of simulated processes.
    pub fn num_processes(&self) -> usize {
        self.cfg.num_processes()
    }

    /// Runs `body` once per simulated process (on dedicated worker threads,
    /// strictly serialized by the virtual-time scheduler) and returns the
    /// run's statistics.
    ///
    /// The interleaving of `Platform`/`AtomicWord` operations across
    /// processes is deterministic: it depends only on the configuration and
    /// the operations the bodies perform, never on host scheduling.
    ///
    /// # Panics
    ///
    /// Panics if a worker panics (the worker's panic is propagated), or if
    /// called twice on the same simulation.
    pub fn run<F>(self, body: F) -> SimReport
    where
        F: Fn(ProcessInfo) + Send + Sync + 'static,
    {
        let n = self.cfg.num_processes();
        let body = Arc::new(body);
        let mut handles = Vec::with_capacity(n);
        for pid in 0..n {
            let shared = Arc::clone(&self.shared);
            let body = Arc::clone(&body);
            let info = ProcessInfo {
                pid,
                processor: pid % self.cfg.processors,
                num_processes: n,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sim-proc-{pid}"))
                    .spawn(move || {
                        bind_current_process(pid);
                        // Catch panics so a failing body cannot strand the
                        // scheduler with a token holder that never yields.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(info)));
                        let outcome = match outcome {
                            // A fault-layer kill: the scheduler already
                            // retired this process; swallow the unwind.
                            Err(payload) => match payload.downcast::<ProcessKilled>() {
                                Ok(_) => {
                                    unbind_current_process();
                                    return;
                                }
                                Err(other) => Err(other),
                            },
                            ok => ok,
                        };
                        shared.finish(pid);
                        unbind_current_process();
                        if let Err(panic) = outcome {
                            std::panic::resume_unwind(panic);
                        }
                    })
                    .expect("spawn simulated process"),
            );
        }
        self.shared.start();
        self.shared.wait_all_done();
        let mut worker_panic = None;
        for handle in handles {
            if let Err(panic) = handle.join() {
                worker_panic.get_or_insert(panic);
            }
        }
        if let Some(panic) = worker_panic {
            std::panic::resume_unwind(panic);
        }
        self.shared.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msq_platform::{AtomicWord, Platform};

    #[test]
    fn single_process_accumulates_costs() {
        let sim = Simulation::new(SimConfig::default());
        let cfg = sim.config();
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                cell.store(1); // miss
                cell.store(2); // hit
            }
        });
        assert_eq!(cell.load(), 2);
        assert_eq!(report.total_ops, 2);
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(
            report.elapsed_ns,
            2 * cfg.t_local_ns + cfg.t_miss_ns + cfg.t_hit_ns
        );
    }

    #[test]
    fn fetch_add_from_many_processes_is_atomic() {
        for processors in [1, 2, 7] {
            for ppp in [1, 3] {
                let sim = Simulation::new(SimConfig {
                    processors,
                    processes_per_processor: ppp,
                    quantum_ns: 5_000,
                    ..SimConfig::default()
                });
                let n = sim.num_processes() as u64;
                let cell = Arc::new(sim.platform().alloc_cell(0));
                let report = sim.run({
                    let cell = Arc::clone(&cell);
                    move |_| {
                        for _ in 0..200 {
                            cell.fetch_add(1);
                        }
                    }
                });
                assert_eq!(cell.load(), 200 * n);
                assert_eq!(report.total_ops, 200 * n);
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let run_once = || {
            let sim = Simulation::new(SimConfig {
                processors: 3,
                processes_per_processor: 2,
                quantum_ns: 3_000,
                ..SimConfig::default()
            });
            let cell = Arc::new(sim.platform().alloc_cell(0));
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let report = sim.run({
                let cell = Arc::clone(&cell);
                let log = Arc::clone(&log);
                move |info| {
                    for _ in 0..50 {
                        let seen = cell.fetch_add(1);
                        log.lock().unwrap().push((info.pid, seen));
                    }
                }
            });
            // The log vector's *push order* races at the host level (pushes
            // happen after the token is passed on), but the simulated
            // interleaving — which pid observed which counter value — is
            // fully determined. Sort by observed value to recover it.
            let mut log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
            log.sort_by_key(|&(_, seen)| seen);
            (report, log)
        };
        let (r1, l1) = run_once();
        let (r2, l2) = run_once();
        assert_eq!(r1, r2);
        assert_eq!(l1, l2, "operation interleaving must be reproducible");
    }

    #[test]
    fn parallel_processes_overlap_in_virtual_time() {
        // Two processors each doing independent work should take barely
        // longer than one (true parallelism in virtual time).
        let elapsed = |processors| {
            let sim = Simulation::new(SimConfig {
                processors,
                ..SimConfig::default()
            });
            let cells: Vec<_> = (0..processors)
                .map(|_| Arc::new(sim.platform().alloc_cell(0)))
                .collect();
            sim.run(move |info| {
                let cell = &cells[info.processor];
                for _ in 0..1000 {
                    cell.fetch_add(1);
                }
            })
            .elapsed_ns
        };
        let one = elapsed(1);
        let four = elapsed(4);
        assert!(
            four <= one + one / 10,
            "independent work should scale: 1p={one}ns 4p={four}ns"
        );
    }

    #[test]
    fn multiprogramming_serializes_processes_on_one_processor() {
        // Two processes on ONE processor take about twice as long as one
        // process doing the same per-process work.
        let elapsed = |ppp| {
            let sim = Simulation::new(SimConfig {
                processors: 1,
                processes_per_processor: ppp,
                quantum_ns: 10_000,
                ..SimConfig::default()
            });
            let p = sim.platform();
            let cell = Arc::new(p.alloc_cell(0));
            sim.run(move |_| {
                let _ = &cell;
                for _ in 0..500 {
                    cell.fetch_add(1);
                }
            })
            .elapsed_ns
        };
        let one = elapsed(1);
        let two = elapsed(2);
        assert!(
            two >= 2 * one,
            "multiprogrammed work must serialize: 1x={one}ns 2x={two}ns"
        );
    }

    #[test]
    fn preemptions_occur_only_when_multiprogrammed() {
        let run = |ppp| {
            let sim = Simulation::new(SimConfig {
                processors: 2,
                processes_per_processor: ppp,
                quantum_ns: 2_000,
                ..SimConfig::default()
            });
            let p = sim.platform();
            let cell = Arc::new(p.alloc_cell(0));
            sim.run(move |_| {
                let _ = &cell;
                for _ in 0..200 {
                    cell.fetch_add(1);
                }
            })
        };
        assert_eq!(run(1).preemptions, 0);
        assert!(run(2).preemptions > 0);
    }

    #[test]
    fn delay_advances_clock_without_memory_ops() {
        let sim = Simulation::new(SimConfig::default());
        let platform = sim.platform();
        let report = sim.run(move |_| {
            platform.delay(123_456);
        });
        assert_eq!(report.total_ops, 0);
        assert_eq!(report.elapsed_ns, 123_456);
    }

    #[test]
    fn empty_bodies_finish_immediately() {
        let sim = Simulation::new(SimConfig {
            processors: 4,
            processes_per_processor: 2,
            ..SimConfig::default()
        });
        let report = sim.run(|_| {});
        assert_eq!(report.total_ops, 0);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let sim = Simulation::new(SimConfig {
            processors: 2,
            ..SimConfig::default()
        });
        let platform = sim.platform();
        let cell = Arc::new(platform.alloc_cell(0));
        sim.run(move |info| {
            // Both processes do some work; pid 1 then panics. The
            // simulation must still drain and re-raise.
            cell.fetch_add(1);
            if info.pid == 1 {
                panic!("boom");
            }
            cell.fetch_add(1);
        });
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_unfaulted() {
        let run = |faulted: bool| {
            let cfg = SimConfig {
                processors: 3,
                processes_per_processor: 2,
                quantum_ns: 3_000,
                ..SimConfig::default()
            };
            let sim = if faulted {
                Simulation::with_faults(cfg, crate::FaultPlan::new())
            } else {
                Simulation::new(cfg)
            };
            let cell = Arc::new(sim.platform().alloc_cell(0));
            sim.run(move |_| {
                for _ in 0..100 {
                    cell.fetch_add(1);
                }
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn kill_fault_retires_victim_while_others_complete() {
        let plan = crate::FaultPlan::new().kill_at_op(1, 5);
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 2,
                ..SimConfig::default()
            },
            plan,
        );
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                for _ in 0..100 {
                    cell.fetch_add(1);
                }
            }
        });
        assert_eq!(report.killed, vec![1]);
        assert!(report.blocked.is_empty());
        // Victim got exactly 5 increments in before dying mid-operation.
        assert_eq!(cell.load(), 105);
        assert_eq!(report.per_process[1].ops, 5);
        assert_eq!(report.per_process[0].ops, 100);
        assert!(report.per_process[0].finished_at_ns > 0);
    }

    #[test]
    fn kill_at_label_fires_on_the_chosen_occurrence() {
        let plan = crate::FaultPlan::new().kill_at_label(0, "test:window", 3);
        let sim = Simulation::with_faults(SimConfig::default(), plan);
        let platform = sim.platform();
        let cell = Arc::new(platform.alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                for _ in 0..10 {
                    cell.fetch_add(1);
                    platform.fault_point("test:window");
                }
            }
        });
        assert_eq!(report.killed, vec![0]);
        // Occurrence 3 is the fourth hit: four increments landed.
        assert_eq!(cell.load(), 4);
    }

    #[test]
    fn stall_fault_idles_the_victim_for_its_duration() {
        const STALL_NS: u64 = 5_000_000;
        let base = SimConfig::default();
        let unfaulted = {
            let sim = Simulation::new(base);
            let cell = Arc::new(sim.platform().alloc_cell(0));
            sim.run(move |_| {
                for _ in 0..50 {
                    cell.fetch_add(1);
                }
            })
        };
        let faulted = {
            let sim =
                Simulation::with_faults(base, crate::FaultPlan::new().stall_at_op(0, 10, STALL_NS));
            let cell = Arc::new(sim.platform().alloc_cell(0));
            sim.run(move |_| {
                for _ in 0..50 {
                    cell.fetch_add(1);
                }
            })
        };
        assert_eq!(faulted.stalls_injected, 1);
        assert_eq!(
            faulted.elapsed_ns,
            unfaulted.elapsed_ns + STALL_NS,
            "a lone stalled process idles its processor for exactly the stall"
        );
        assert_eq!(faulted.total_ops, unfaulted.total_ops, "work unchanged");
    }

    #[test]
    fn stalled_process_cedes_its_processor_to_queue_mates() {
        // Two processes multiprogrammed on one processor; pid 0 stalls for
        // a long time early on. Pid 1 must finish long before pid 0's
        // stall would allow if the stall blocked the whole processor.
        const STALL_NS: u64 = 50_000_000;
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 1,
                processes_per_processor: 2,
                quantum_ns: 10_000,
                ..SimConfig::default()
            },
            crate::FaultPlan::new().stall_at_op(0, 1, STALL_NS),
        );
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                for _ in 0..100 {
                    cell.fetch_add(1);
                }
            }
        });
        assert_eq!(cell.load(), 200, "both processes finish all their work");
        assert!(
            report.per_process[1].finished_at_ns < STALL_NS,
            "pid 1 finished at {}ns, inside pid 0's {}ns stall",
            report.per_process[1].finished_at_ns,
            STALL_NS
        );
        assert!(report.per_process[0].finished_at_ns >= STALL_NS);
    }

    #[test]
    fn preempt_fault_rotates_and_charges_a_context_switch() {
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 1,
                processes_per_processor: 2,
                ..SimConfig::default()
            },
            crate::FaultPlan::new().preempt_storm(0, "test:crit", 3),
        );
        let platform = sim.platform();
        let cell = Arc::new(platform.alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                for _ in 0..5 {
                    cell.fetch_add(1);
                    platform.fault_point("test:crit");
                }
            }
        });
        assert_eq!(report.preempts_injected, 3);
        assert!(report.preemptions >= 3);
        assert_eq!(cell.load(), 10);
    }

    #[test]
    fn watchdog_reports_a_spinning_survivor_as_blocked() {
        // Pid 0 "holds a lock" forever by dying; pid 1 spins on the flag.
        // The watchdog must convert pid 1's infinite spin into a recorded
        // `blocked` verdict and terminate the run.
        let sim = Simulation::with_faults(
            SimConfig {
                processors: 2,
                watchdog_ns: 3_000_000,
                ..SimConfig::default()
            },
            crate::FaultPlan::new().kill_at_op(0, 0),
        );
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |info| {
                if info.pid == 0 {
                    cell.store(1); // killed before this ever lands
                    cell.store(0);
                } else {
                    while cell.load() == 0 {
                        // spin: each probe charges virtual time
                    }
                }
            }
        });
        assert_eq!(report.killed, vec![0]);
        assert_eq!(report.blocked, vec![1]);
        assert!(!report.survivors_completed());
        assert_eq!(cell.load(), 0, "the killed store never executed");
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = || {
            let sim = Simulation::with_faults(
                SimConfig {
                    processors: 2,
                    processes_per_processor: 2,
                    quantum_ns: 3_000,
                    seed: 42,
                    ..SimConfig::default()
                },
                crate::FaultPlan::new()
                    .kill_at_op(3, 17)
                    .stall_at_op(1, 9, 100_000)
                    .preempt_at_label(2, "test:w", 1),
            );
            let platform = sim.platform();
            let cell = Arc::new(platform.alloc_cell(0));
            let report = sim.run({
                let cell = Arc::clone(&cell);
                move |_| {
                    for _ in 0..40 {
                        cell.fetch_add(1);
                        platform.fault_point("test:w");
                    }
                }
            });
            (report, cell.load())
        };
        let (r1, v1) = run();
        let (r2, v2) = run();
        assert_eq!(r1, r2, "same plan, same schedule, same history");
        assert_eq!(v1, v2);
        assert_eq!(r1.killed, vec![3]);
        assert_eq!(r1.stalls_injected, 1);
        assert_eq!(r1.preempts_injected, 1);
    }

    #[test]
    #[should_panic(expected = "targets pid 9")]
    fn fault_plan_pid_out_of_range_is_rejected() {
        let _ = Simulation::with_faults(
            SimConfig::default(),
            crate::FaultPlan::new().kill_at_op(9, 0),
        );
    }

    #[test]
    fn trace_records_operations_in_time_order() {
        use crate::report::TraceKind;
        let sim = Simulation::new(SimConfig {
            processors: 2,
            trace_capacity: 64,
            ..SimConfig::default()
        });
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |info| {
                if info.pid == 0 {
                    cell.store(1);
                    cell.fetch_add(2);
                } else {
                    let _ = cell.load();
                    let _ = cell.compare_exchange(1_000, 0); // will fail
                }
            }
        });
        assert_eq!(report.trace.len(), 4);
        // Virtual-time order is non-decreasing.
        for pair in report.trace.windows(2) {
            assert!(pair[0].at_ns <= pair[1].at_ns);
        }
        // Kinds and outcomes are recorded.
        assert!(report
            .trace
            .iter()
            .any(|e| e.kind == TraceKind::CompareExchange { success: false }));
        assert!(report.trace.iter().any(|e| e.kind == TraceKind::FetchAdd));
        assert!(report.trace.iter().all(|e| e.cell == 0));
    }

    #[test]
    fn trace_capacity_caps_recording() {
        let sim = Simulation::new(SimConfig {
            trace_capacity: 5,
            ..SimConfig::default()
        });
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                for _ in 0..50 {
                    cell.fetch_add(1);
                }
            }
        });
        assert_eq!(report.trace.len(), 5, "capped at capacity");
        assert_eq!(report.total_ops, 50, "execution itself unaffected");
    }

    #[test]
    fn tracing_disabled_by_default() {
        let sim = Simulation::new(SimConfig::default());
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |_| {
                cell.store(1);
            }
        });
        assert!(report.trace.is_empty());
    }

    #[test]
    fn per_process_stats_sum_to_totals() {
        let sim = Simulation::new(SimConfig {
            processors: 3,
            processes_per_processor: 2,
            ..SimConfig::default()
        });
        let cell = Arc::new(sim.platform().alloc_cell(0));
        let report = sim.run({
            let cell = Arc::clone(&cell);
            move |info| {
                for _ in 0..(info.pid as u64 + 1) * 10 {
                    cell.fetch_add(1);
                }
            }
        });
        assert_eq!(report.per_process.len(), 6);
        for (pid, p) in report.per_process.iter().enumerate() {
            assert_eq!(p.pid, pid);
            assert_eq!(p.processor, pid % 3);
            assert_eq!(p.ops, (pid as u64 + 1) * 10, "per-process op counts");
            assert_eq!(p.cache_hits + p.cache_misses, p.ops);
        }
        assert_eq!(
            report.per_process.iter().map(|p| p.ops).sum::<u64>(),
            report.total_ops
        );
        assert_eq!(
            report
                .per_process
                .iter()
                .map(|p| p.cache_misses)
                .sum::<u64>(),
            report.cache_misses
        );
    }

    #[test]
    fn process_info_is_consistent() {
        let sim = Simulation::new(SimConfig {
            processors: 3,
            processes_per_processor: 2,
            ..SimConfig::default()
        });
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.run({
            let seen = Arc::clone(&seen);
            move |info| {
                seen.lock().unwrap().push(info);
            }
        });
        let mut infos = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
        infos.sort_by_key(|i| i.pid);
        assert_eq!(infos.len(), 6);
        for (pid, info) in infos.iter().enumerate() {
            assert_eq!(info.pid, pid);
            assert_eq!(info.processor, pid % 3);
            assert_eq!(info.num_processes, 6);
        }
    }
}
