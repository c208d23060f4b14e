//! Wall-clock cost of the deterministic simulator → `BENCH_sim.json`.
//!
//! The simulator's *results* are virtual-time and host-independent; this
//! bench measures how long the host takes to produce them:
//!
//! 1. **Sweep dispatch**: a 16-seed `schedule_sweep_with` of the Section 4
//!    workload on the M&S queue, timed at 1 lane and at 4 lanes. Per-seed
//!    runs are independent, so on a host with >= 4 cores the 4-lane sweep
//!    should finish at least twice as fast. A host with fewer than 4
//!    cores cannot test that claim: its flag is recorded as `null` (not
//!    measured), while the measured times are always recorded.
//! 2. **Scheduler cost at scale**: one run at 64 and at 128 simulated
//!    processors, repeated [`SCALE_TRIALS`] times. Every trial must
//!    replay the same report; the min/median/max wall-clock and the
//!    median wall time per simulated memory operation are recorded as the
//!    yardstick for any change to the scheduler's token handoff.
//! 3. **High-scale sweep completion**: a 32-seed sweep at 64 simulated
//!    processors, the raised processor ceiling exercised end to end. A
//!    seed counts as completed when every pair ran and the queue drained
//!    empty afterwards; `high_scale_completed` is true only when every
//!    seed did.
//!
//! Run from the workspace root: `cargo run --release -p msq-bench --bin
//! simbench`. Writes `BENCH_sim.json` in the current directory. Pass
//! `--smoke` for a scaled-down CI sanity run (same cells, same shape).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use msq_harness::{run_simulated, run_simulated_faulted, Algorithm, WorkloadConfig};
use msq_sim::{schedule_sweep_with, FaultPlan, SimConfig, SimReport, Simulation};

/// Seeds in the timed dispatch sweep.
const SWEEP_SEEDS: u64 = 16;
const SMOKE_SWEEP_SEEDS: u64 = 6;

/// Seeds in the high-scale completion sweep.
const HIGH_SCALE_SEEDS: u64 = 32;
const SMOKE_HIGH_SCALE_SEEDS: u64 = 8;

/// Pairs moved per sweep run (split across processes).
const SWEEP_PAIRS: u64 = 2_000;
const SMOKE_SWEEP_PAIRS: u64 = 400;

/// Timed repetitions of each scale cell.
const SCALE_TRIALS: usize = 3;
const SMOKE_SCALE_TRIALS: usize = 1;

/// One full run at `processors`, returning the report (to check that
/// trials replay) and the host wall-clock.
fn scale_run(processors: usize, pairs_per_proc: u64) -> (SimReport, f64) {
    let start = Instant::now();
    let sim = Simulation::new(SimConfig {
        processors,
        ..SimConfig::default()
    });
    let platform = sim.platform();
    let queue = Algorithm::NewNonBlocking.build(&platform, 8_192);
    let report = sim.run({
        let queue = Arc::clone(&queue);
        move |info| {
            for i in 0..pairs_per_proc {
                let value = ((info.pid as u64) << 32) | i;
                while queue.enqueue(value).is_err() {}
                while queue.dequeue().is_none() {}
            }
        }
    });
    (report, start.elapsed().as_secs_f64())
}

/// Times one `schedule_sweep_with` dispatch of the Section 4 workload at
/// the given lane count, printing the per-sweep wall-clock.
fn timed_sweep(lanes: usize, seeds: u64, workload: &WorkloadConfig) -> f64 {
    let start = Instant::now();
    schedule_sweep_with(
        SimConfig {
            processors: 8,
            ..SimConfig::default()
        },
        seeds,
        lanes,
        |cfg| {
            run_simulated(Algorithm::NewNonBlocking, cfg, workload);
        },
    );
    let secs = start.elapsed().as_secs_f64();
    eprintln!("sweep {seeds} seeds x {lanes} lane(s): {secs:.3}s wall-clock");
    secs
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let (sweep_seeds, high_seeds, sweep_pairs, scale_trials) = if smoke {
        (
            SMOKE_SWEEP_SEEDS,
            SMOKE_HIGH_SCALE_SEEDS,
            SMOKE_SWEEP_PAIRS,
            SMOKE_SCALE_TRIALS,
        )
    } else {
        (SWEEP_SEEDS, HIGH_SCALE_SEEDS, SWEEP_PAIRS, SCALE_TRIALS)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("host cores: {host_cores}");

    // --- Cell 1: sweep dispatch, 1 lane vs 4. ---
    let workload = WorkloadConfig {
        pairs_total: sweep_pairs,
        other_work_ns: 6_000,
        capacity: 4_096,
        mem_budget: None,
    };
    let serial_secs = timed_sweep(1, sweep_seeds, &workload);
    let parallel_secs = timed_sweep(4, sweep_seeds, &workload);
    let sweep_speedup = serial_secs / parallel_secs;
    eprintln!("sweep dispatch speedup at 4 lanes: {sweep_speedup:.2}x");

    // --- Cell 2: scheduler wall-clock at 64/128 processors. ---
    let scale_pairs = if smoke { 8 } else { 25 };
    let mut scale_cells = Vec::new();
    for processors in [64_usize, 128] {
        let (report, first_wall) = scale_run(processors, scale_pairs);
        let mut walls = vec![first_wall];
        for _ in 1..scale_trials {
            let (replay, wall) = scale_run(processors, scale_pairs);
            assert_eq!(
                report, replay,
                "{processors}p: a trial replayed differently"
            );
            walls.push(wall);
        }
        walls.sort_by(f64::total_cmp);
        let median = walls[walls.len() / 2];
        let ns_per_op = median * 1e9 / report.total_ops as f64;
        eprintln!(
            "{processors}p x {scale_pairs} pairs, {scale_trials} trial(s): wall \
             {:.3}..{:.3}s (median {median:.3}s, {ns_per_op:.0} ns per simulated op)",
            walls[0],
            walls[walls.len() - 1],
        );
        scale_cells.push((processors, report, walls, ns_per_op));
    }

    // --- Cell 3: the 32-seed sweep at 64 processors completes. ---
    let high_workload = WorkloadConfig {
        pairs_total: 64 * scale_pairs,
        other_work_ns: 6_000,
        capacity: 8_192,
        mem_budget: None,
    };
    let seeds_completed = AtomicU64::new(0);
    let start = Instant::now();
    schedule_sweep_with(
        SimConfig {
            processors: 64,
            ..SimConfig::default()
        },
        high_seeds,
        4,
        |cfg| {
            let seed = cfg.seed;
            let run = run_simulated_faulted(
                Algorithm::NewNonBlocking,
                cfg,
                &high_workload,
                FaultPlan::new(),
            );
            if run.drained == Some(0) && run.pairs_completed == high_workload.pairs_total {
                seeds_completed.fetch_add(1, Ordering::Relaxed);
            } else {
                eprintln!(
                    "high-scale seed {seed:#x}: {} of {} pairs, drained {:?}",
                    run.pairs_completed, high_workload.pairs_total, run.drained
                );
            }
        },
    );
    let high_scale_secs = start.elapsed().as_secs_f64();
    let seeds_completed = seeds_completed.into_inner();
    let high_scale_completed = seeds_completed == high_seeds;
    eprintln!(
        "high-scale sweep ({high_seeds} seeds x 64p): {high_scale_secs:.3}s wall-clock, \
         {seeds_completed} seed(s) completed and drained"
    );

    // --- Acceptance. ---
    // The >= 2x dispatch claim can only be tested on a host that runs 4
    // lanes on 4 cores; smaller hosts record `null` (not measured).
    let sweep_speedup_ok = if host_cores < 4 {
        "null".to_string()
    } else {
        (sweep_speedup >= 2.0).to_string()
    };
    eprintln!(
        "acceptance: sweep_speedup_ok={sweep_speedup_ok} \
         high_scale_completed={high_scale_completed}"
    );

    // --- JSON report. ---
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"description\": \"simulator host cost: seed-sweep dispatch wall-clock (1 vs 4 lanes), scheduler wall-clock per simulated op at 64/128 processors, 32-seed sweep completion at 64 processors\","
    );
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"sweep\": {{");
    let _ = writeln!(json, "    \"seeds\": {sweep_seeds},");
    let _ = writeln!(json, "    \"workload_pairs\": {sweep_pairs},");
    let _ = writeln!(json, "    \"serial_secs\": {serial_secs:.4},");
    let _ = writeln!(json, "    \"four_lane_secs\": {parallel_secs:.4},");
    let _ = writeln!(json, "    \"speedup_at_4_lanes\": {sweep_speedup:.3}");
    json.push_str("  },\n  \"scale\": [\n");
    for (i, (processors, report, walls, ns_per_op)) in scale_cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"processors\": {processors}, \"pairs_per_process\": {scale_pairs}, \"elapsed_virtual_ns\": {}, \"total_ops\": {}, \"trials\": {scale_trials}, \"wall_secs_min\": {:.4}, \"wall_secs_median\": {:.4}, \"wall_secs_max\": {:.4}, \"wall_ns_per_op_median\": {ns_per_op:.0}}}{}",
            report.elapsed_ns,
            report.total_ops,
            walls[0],
            walls[walls.len() / 2],
            walls[walls.len() - 1],
            if i + 1 == scale_cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"high_scale_sweep\": {{\"seeds\": {high_seeds}, \"processors\": 64, \"wall_secs\": {high_scale_secs:.4}, \"seeds_completed\": {seeds_completed}, \"completed\": {high_scale_completed}}},"
    );
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"sweep_speedup_ok\": {sweep_speedup_ok}, \"high_scale_completed\": {high_scale_completed}}}"
    );
    json.push_str("}\n");

    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("{json}");
}
