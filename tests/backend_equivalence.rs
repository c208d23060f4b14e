//! The simulator's determinism contract as a committed test, not a
//! claim: the same `SimConfig` and `FaultPlan` run twice produce equal
//! `SimReport`s, field for field. Each replay spawns fresh process
//! threads that the host schedules differently, so equality shows the
//! report depends only on the configuration. Coverage: every registered
//! contender across a 16-seed schedule sweep, 64 and 128 processors,
//! kill/stall/preempt/watchdog/recovery/repair fault plans, and the three
//! scenario shapes. The unified scenario driver is also pinned
//! byte-identical to the pre-refactor inline loops.
//!
//! The file and test names date from when these tests compared a serial
//! and a frame-stepped backend; they are kept so test history stays
//! continuous across that backend's removal (DESIGN.md §12).

use std::fmt::Display;
use std::sync::Arc;

use ms_queues::platform::Platform;
use ms_queues::{Algorithm, AtomicWord, FaultPlan, SimConfig, SimReport, Simulation};

/// Runs `run` twice and asserts the two reports are equal; returns the
/// first.
fn assert_replays(what: impl Display, run: impl Fn() -> SimReport) -> SimReport {
    let first = run();
    let replay = run();
    assert_eq!(first, replay, "{what}: replay diverged from the first run");
    first
}

/// Drives `algorithm` through an enqueue/dequeue pairs workload on a
/// simulation configured by `cfg` and returns the full report.
fn run_report(
    algorithm: Algorithm,
    cfg: SimConfig,
    plan: FaultPlan,
    pairs_per_process: u64,
) -> SimReport {
    let sim = Simulation::with_faults(cfg, plan);
    let platform = sim.platform();
    let queue = algorithm.build(&platform, 1_024);
    sim.run({
        let queue = Arc::clone(&queue);
        move |info| {
            for i in 0..pairs_per_process {
                let value = ((info.pid as u64) << 32) | i;
                while queue.enqueue(value).is_err() {
                    platform.delay(50);
                }
                platform.delay(200);
                while queue.dequeue().is_none() {
                    platform.delay(50);
                }
                platform.delay(200);
            }
        }
    })
}

/// Asserts that `algorithm`'s pairs workload under `cfg` and `plan`
/// replays to an equal report.
fn assert_pairs_replay(
    algorithm: Algorithm,
    cfg: SimConfig,
    plan: &FaultPlan,
    pairs_per_process: u64,
) {
    assert_replays(
        format_args!(
            "{label} (seed {seed}, {procs} processors)",
            label = algorithm.label(),
            seed = cfg.seed,
            procs = cfg.processors,
        ),
        || run_report(algorithm, cfg, plan.clone(), pairs_per_process),
    );
}

fn sweep_config(seed: u64) -> SimConfig {
    SimConfig {
        processors: 3,
        processes_per_processor: 2,
        quantum_ns: 60_000,
        seed,
        ..SimConfig::default()
    }
}

/// Sixteen deterministic sweep seeds: the canonical schedule plus fifteen
/// perturbations (same derivation schedule_sweep uses: any fixed distinct
/// values exercise distinct initial clock offsets).
fn sweep_seeds() -> Vec<u64> {
    (0..16).map(|i| i * 0x9e37_79b9).collect()
}

#[test]
fn every_contender_is_byte_identical_across_backends_over_a_seed_sweep() {
    for algorithm in Algorithm::WITH_EXTENSIONS {
        for seed in sweep_seeds() {
            assert_pairs_replay(algorithm, sweep_config(seed), &FaultPlan::new(), 20);
        }
    }
}

#[test]
fn backends_agree_at_high_processor_counts() {
    for algorithm in [Algorithm::NewNonBlocking, Algorithm::NewTwoLock] {
        for processors in [64, 128] {
            let cfg = SimConfig {
                processors,
                seed: 7,
                ..SimConfig::default()
            };
            assert_pairs_replay(algorithm, cfg, &FaultPlan::new(), 4);
        }
    }
}

#[test]
fn backends_agree_under_a_kill_fault_on_the_nonblocking_queue() {
    // Killing a process inside the M&S enqueue window leaves a recoverable
    // half-finished operation; the run completes either way, and every
    // replay must report the identical kill, clocks, and counters.
    let algorithm = Algorithm::NewNonBlocking;
    for seed in [0, 11, 42, 1_000_003] {
        let plan = FaultPlan::new().kill_at_label(1, algorithm.enqueue_fault_label(), 2);
        assert_pairs_replay(algorithm, sweep_config(seed), &plan, 20);
    }
}

#[test]
fn backends_agree_under_a_kill_fault_on_the_lock_queue_with_watchdog() {
    // Killing the lock holder wedges every other process; the watchdog
    // detects the stall and every replay must produce the identical
    // blocked-process verdict at the identical virtual instant.
    let algorithm = Algorithm::SingleLock;
    for seed in [0, 13, 97] {
        let cfg = SimConfig {
            watchdog_ns: 40_000_000,
            ..sweep_config(seed)
        };
        let plan = FaultPlan::new().kill_at_label(0, algorithm.enqueue_fault_label(), 1);
        assert_pairs_replay(algorithm, cfg, &plan, 20);
    }
}

/// Drives the MS queue through the pairs workload with a
/// restart-and-catch-up recovery loop layered on: every process posts its
/// progress to a shared cell, and pid 0 polls the simulator's death board,
/// replays each victim's residual share, and stamps the handoff with
/// `mark_recovered`. The death board, the progress cells, and the recovery
/// record are all ordinary scheduler traffic, so the whole recovery
/// schedule — including `recoveries` and the derived time-to-recover —
/// must replay byte-identically.
fn run_recovery_report(cfg: SimConfig, plan: FaultPlan) -> SimReport {
    const PAIRS: u64 = 20;
    let sim = Simulation::with_faults(cfg, plan);
    let platform = sim.platform();
    let queue = Algorithm::NewNonBlocking.build(&platform, 1_024);
    let n = sim.num_processes();
    // Untimed setup so every replay sees identical cell ids.
    let progress: Arc<Vec<_>> = Arc::new((0..n).map(|_| platform.alloc_cell(0)).collect());
    let board = Arc::new(platform.death_board());
    sim.run({
        let queue = Arc::clone(&queue);
        let progress = Arc::clone(&progress);
        let board = Arc::clone(&board);
        move |info| {
            let n = info.num_processes;
            let run_pair = |value: u64| {
                while queue.enqueue(value).is_err() {
                    platform.delay(50);
                }
                platform.delay(200);
                while queue.dequeue().is_none() {
                    platform.delay(50);
                }
                platform.delay(200);
            };
            let absorb_new_deaths = |absorbed: &mut [bool]| {
                let notices = board.load();
                for victim in 0..n.min(64) {
                    if victim == info.pid || absorbed[victim] || notices & (1 << victim) == 0 {
                        continue;
                    }
                    absorbed[victim] = true;
                    let done = progress[victim].load();
                    for i in done..PAIRS {
                        // Bit 24 marks replayed values as recovery work,
                        // distinct from anything the victim left in flight.
                        run_pair(((victim as u64) << 32) | (1 << 24) | i);
                    }
                    platform.mark_recovered(victim);
                }
            };
            let mut absorbed = vec![false; n];
            for i in 0..PAIRS {
                run_pair(((info.pid as u64) << 32) | i);
                progress[info.pid].store(i + 1);
                if info.pid == 0 {
                    absorb_new_deaths(&mut absorbed);
                }
            }
            if info.pid == 0 {
                loop {
                    absorb_new_deaths(&mut absorbed);
                    let all_settled =
                        (0..n).all(|v| v == 0 || absorbed[v] || progress[v].load() == PAIRS);
                    if all_settled {
                        break;
                    }
                    platform.delay(200);
                }
            }
        }
    })
}

#[test]
fn backends_agree_under_a_recovery_enabled_kill() {
    for seed in [0, 11, 42] {
        let cfg = SimConfig {
            watchdog_ns: 400_000_000,
            ..sweep_config(seed)
        };
        let plan =
            FaultPlan::new().kill_at_label(1, Algorithm::NewNonBlocking.dequeue_fault_label(), 0);
        let report = assert_replays(format_args!("recovery run (seed {seed})"), || {
            run_recovery_report(cfg, plan.clone())
        });
        assert_eq!(report.killed, vec![1], "seed {seed}");
        assert_eq!(
            report.recoveries.len(),
            1,
            "seed {seed}: pid 0 absorbed the victim"
        );
        assert!(
            report.time_to_recover_ns().expect("one handoff completed") > 0,
            "seed {seed}"
        );
    }
}

/// As [`run_report`] but over `algorithm`'s *repairable* build
/// (DESIGN.md §13): the kill leaves a dead lock holder whose waiters
/// revoke the lock and repair the torn invariant instead of wedging.
/// Revocation probes, death-board loads, and the repair record itself
/// are all ordinary scheduler traffic, so the whole dispossession
/// schedule — `repairs`, `blocked_kinds`, and the derived
/// time-to-repair — must replay byte-identically.
fn run_repair_report(algorithm: Algorithm, cfg: SimConfig, plan: FaultPlan) -> SimReport {
    let sim = Simulation::with_faults(cfg, plan);
    let platform = sim.platform();
    let queue = algorithm.build_repairable(&platform, 1_024);
    sim.run({
        let queue = Arc::clone(&queue);
        move |info| {
            for i in 0..20_u64 {
                let value = ((info.pid as u64) << 32) | i;
                while queue.enqueue(value).is_err() {
                    platform.delay(50);
                }
                platform.delay(200);
                while queue.dequeue().is_none() {
                    platform.delay(50);
                }
                platform.delay(200);
            }
        }
    })
}

#[test]
fn backends_agree_under_a_repair_enabled_kill() {
    for (algorithm, label) in [
        (Algorithm::SingleLock, "single-lock:enq:locked"),
        (Algorithm::NewTwoLock, "two-lock:deq:locked"),
        (Algorithm::MellorCrummey, "mc:enq:window"),
    ] {
        for seed in [0, 11, 42] {
            let cfg = SimConfig {
                watchdog_ns: 400_000_000,
                ..sweep_config(seed)
            };
            let plan = FaultPlan::new().kill_at_label(1, label, 0);
            let report = assert_replays(
                format_args!("repair run ({algorithm}, seed {seed})"),
                || run_repair_report(algorithm, cfg, plan.clone()),
            );
            assert_eq!(report.killed, vec![1], "{algorithm} seed {seed}");
            assert!(
                report.blocked.is_empty(),
                "{algorithm} seed {seed}: repair must beat the watchdog"
            );
            assert_eq!(report.repairs.len(), 1, "{algorithm} seed {seed}");
            assert!(
                report
                    .time_to_repair_ns()
                    .expect("one dispossession completed")
                    > 0,
                "{algorithm} seed {seed}"
            );
        }
    }
}

#[test]
fn backends_agree_under_stall_and_preempt_faults() {
    let algorithm = Algorithm::NewNonBlocking;
    let plan = FaultPlan::new()
        .stall_at_label(0, algorithm.enqueue_fault_label(), 1, 2_000_000)
        .preempt_at_label(2, algorithm.enqueue_fault_label(), 3);
    assert_pairs_replay(algorithm, sweep_config(5), &plan, 20);
}

// ---------------------------------------------------------------------------
// The scenario engine under the same contract: every new workload shape
// must replay byte-identically, and every legacy entry point must be
// byte-identical to its pre-refactor inline loop.
// ---------------------------------------------------------------------------

use ms_queues::{
    run_scenario_simulated, OpenLoopScenario, PairedScenario, PipelineScenario, PolicyScenario,
    RecoveryPolicy, Scenario, SimPlatform, StealingScenario, WorkloadConfig,
};

fn scenario_workload() -> WorkloadConfig {
    WorkloadConfig {
        pairs_total: 240,
        other_work_ns: 500,
        capacity: 1_024,
        mem_budget: None,
    }
}

/// Runs `scenario` through the unified driver and returns the raw report.
fn scenario_report<S: Scenario<SimPlatform> + Clone>(
    algorithm: Algorithm,
    cfg: SimConfig,
    scenario: &S,
    plan: FaultPlan,
) -> SimReport {
    run_scenario_simulated(algorithm, cfg, scenario.clone(), plan)
        .sim_report
        .expect("simulated run carries a report")
}

fn assert_scenario_replays<S: Scenario<SimPlatform> + Clone>(
    name: &str,
    algorithm: Algorithm,
    cfg: SimConfig,
    scenario: &S,
) {
    assert_replays(
        format_args!(
            "{name} scenario on {label} (seed {seed})",
            label = algorithm.label(),
            seed = cfg.seed,
        ),
        || scenario_report(algorithm, cfg, scenario, FaultPlan::new()),
    );
}

#[test]
fn stealing_scenario_is_byte_identical_across_backends() {
    let scenario = StealingScenario {
        workload: scenario_workload(),
    };
    for algorithm in [Algorithm::NewNonBlocking, Algorithm::NewTwoLock] {
        for seed in [0, 11, 42] {
            assert_scenario_replays("stealing", algorithm, sweep_config(seed), &scenario);
        }
    }
}

#[test]
fn pipeline_scenario_is_byte_identical_across_backends() {
    let scenario = PipelineScenario {
        workload: scenario_workload(),
        stages: 3,
    };
    for algorithm in [Algorithm::NewNonBlocking, Algorithm::SingleLock] {
        for seed in [0, 11, 42] {
            assert_scenario_replays("pipeline", algorithm, sweep_config(seed), &scenario);
        }
    }
}

#[test]
fn open_loop_scenario_is_byte_identical_across_backends() {
    // The latency samples ride inside the SimReport (its `latencies`
    // field), so this equality also pins the whole latency distribution
    // — percentiles included — across replays.
    let scenario = OpenLoopScenario {
        workload: scenario_workload(),
        mean_gap_ns: 2_000,
        seed: 42,
    };
    for algorithm in [Algorithm::NewNonBlocking, Algorithm::NewTwoLock] {
        for seed in [0, 11, 42] {
            assert_scenario_replays("open-loop", algorithm, sweep_config(seed), &scenario);
        }
    }
}

#[test]
fn stealing_scenario_backends_agree_under_a_producer_kill() {
    let scenario = StealingScenario {
        workload: scenario_workload(),
    };
    let cfg = SimConfig {
        watchdog_ns: 400_000_000,
        ..sweep_config(11)
    };
    let plan = FaultPlan::new().kill_at_label(1, "msq:enq:window", 0);
    let report = assert_replays("killed stealing run", || {
        scenario_report(Algorithm::NewNonBlocking, cfg, &scenario, plan.clone())
    });
    assert_eq!(report.killed, vec![1]);
}

/// The pre-refactor `run_simulated` loop, inlined verbatim: the legacy
/// entry points are now thin wrappers over the scenario engine, so the
/// old inline driver only survives here, as the fixture pinning the
/// refactor byte-identical.
fn legacy_paired_report(
    algorithm: Algorithm,
    cfg: SimConfig,
    plan: FaultPlan,
    workload: &WorkloadConfig,
) -> SimReport {
    let sim = Simulation::with_faults(cfg, plan);
    let platform = sim.platform();
    let queue = algorithm.build(&platform, workload.capacity);
    let pairs_total = workload.pairs_total;
    let other_work_ns = workload.other_work_ns;
    sim.run({
        let queue = Arc::clone(&queue);
        move |info| {
            let n = info.num_processes as u64;
            let my_pairs = pairs_total / n + u64::from((info.pid as u64) < pairs_total % n);
            for i in 0..my_pairs {
                let value = ((info.pid as u64) << 40) | i;
                while queue.enqueue(value).is_err() {
                    platform.cpu_relax();
                }
                platform.delay(other_work_ns);
                while queue.dequeue().is_none() {
                    platform.cpu_relax();
                }
                platform.delay(other_work_ns);
            }
        }
    })
}

/// The pre-refactor `run_simulated_with_policy` loop, inlined verbatim
/// (progress cells, death-board polling, residual-share replay with the
/// recovery bit, and the survivor's watch loop).
fn legacy_policy_report(
    algorithm: Algorithm,
    cfg: SimConfig,
    plan: FaultPlan,
    workload: &WorkloadConfig,
    survivor: usize,
    repairable: bool,
) -> SimReport {
    const RECOVERY_BIT: u64 = 1 << 39;
    let sim = Simulation::with_faults(cfg, plan);
    let platform = sim.platform();
    let queue = if repairable {
        algorithm.build_repairable(&platform, workload.capacity)
    } else {
        algorithm.build(&platform, workload.capacity)
    };
    let n = sim.num_processes();
    let progress: Arc<Vec<_>> = Arc::new((0..n).map(|_| platform.alloc_cell(0)).collect());
    let board = Arc::new(platform.death_board());
    let pairs_total = workload.pairs_total;
    let other_work_ns = workload.other_work_ns;
    let share =
        move |pid: usize| pairs_total / n as u64 + u64::from((pid as u64) < pairs_total % n as u64);
    sim.run({
        let queue = Arc::clone(&queue);
        let progress = Arc::clone(&progress);
        let board = Arc::clone(&board);
        move |info| {
            let my_pairs = share(info.pid);
            let mut absorbed = vec![false; n];
            let run_pair = |value: u64| {
                while queue.enqueue(value).is_err() {
                    platform.cpu_relax();
                }
                platform.delay(other_work_ns);
                while queue.dequeue().is_none() {
                    platform.cpu_relax();
                }
                platform.delay(other_work_ns);
            };
            let absorb_new_deaths = |absorbed: &mut [bool]| {
                let notices = board.load();
                for victim in 0..n.min(64) {
                    if victim == info.pid || absorbed[victim] || notices & (1 << victim) == 0 {
                        continue;
                    }
                    absorbed[victim] = true;
                    let done = progress[victim].load();
                    for i in done..share(victim) {
                        run_pair(((victim as u64) << 40) | RECOVERY_BIT | i);
                    }
                    platform.mark_recovered(victim);
                }
            };
            for i in 0..my_pairs {
                run_pair(((info.pid as u64) << 40) | i);
                progress[info.pid].store(i + 1);
                if info.pid == survivor {
                    absorb_new_deaths(&mut absorbed);
                }
            }
            if info.pid == survivor {
                loop {
                    absorb_new_deaths(&mut absorbed);
                    let all_settled = (0..n)
                        .all(|v| v == info.pid || absorbed[v] || progress[v].load() == share(v));
                    if all_settled {
                        break;
                    }
                    platform.delay(other_work_ns);
                }
            }
        }
    })
}

#[test]
fn unified_driver_reproduces_the_legacy_paired_loop_byte_identically() {
    // `run_simulated`, `run_simulated_faulted`, and the figure sweeps all
    // reduce to PairedScenario through the unified driver; the refactor
    // holds only if that path replays the old inline loop exactly —
    // including under a kill plan.
    let workload = scenario_workload();
    for algorithm in Algorithm::WITH_EXTENSIONS {
        for seed in [0, 11, 42] {
            let cfg = sweep_config(seed);
            let old = legacy_paired_report(algorithm, cfg, FaultPlan::new(), &workload);
            let new = scenario_report(
                algorithm,
                cfg,
                &PairedScenario { workload },
                FaultPlan::new(),
            );
            assert_eq!(
                old, new,
                "paired scenario diverged from the pre-refactor loop \
                 ({algorithm}, seed {seed})"
            );
        }
    }
    let cfg = SimConfig {
        watchdog_ns: 400_000_000,
        ..sweep_config(11)
    };
    let algorithm = Algorithm::NewNonBlocking;
    let plan = FaultPlan::new().kill_at_label(1, algorithm.enqueue_fault_label(), 2);
    let old = legacy_paired_report(algorithm, cfg, plan.clone(), &scenario_workload());
    let new = scenario_report(
        algorithm,
        cfg,
        &PairedScenario {
            workload: scenario_workload(),
        },
        plan,
    );
    assert_eq!(
        old, new,
        "faulted paired scenario diverged from the old loop"
    );
}

#[test]
fn unified_driver_reproduces_the_legacy_policy_loop_byte_identically() {
    // `run_simulated_recovered` / `run_simulated_repaired` reduce to
    // PolicyScenario; pin both the plain and the repairable builds, each
    // under the kill that exercises the recovery path.
    let workload = scenario_workload();
    let cfg = SimConfig {
        watchdog_ns: 400_000_000,
        ..sweep_config(0)
    };
    for (algorithm, label, repairable) in [
        (
            Algorithm::NewNonBlocking,
            Algorithm::NewNonBlocking.dequeue_fault_label(),
            false,
        ),
        (Algorithm::SingleLock, "single-lock:enq:locked", true),
        (Algorithm::NewTwoLock, "two-lock:deq:locked", true),
    ] {
        let plan = FaultPlan::new().kill_at_label(1, label, 0);
        let old = legacy_policy_report(algorithm, cfg, plan.clone(), &workload, 0, repairable);
        assert_eq!(old.killed, vec![1], "{algorithm}");
        let new = scenario_report(
            algorithm,
            cfg,
            &PolicyScenario {
                workload,
                policy: RecoveryPolicy::designated(0),
                repairable,
            },
            plan,
        );
        assert_eq!(
            old, new,
            "policy scenario (repairable={repairable}) diverged from the \
             pre-refactor loop ({algorithm})"
        );
    }
}
