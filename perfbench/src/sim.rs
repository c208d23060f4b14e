//! `sim-paper` and `sim-sweep`: the paper's experiments on the simulator.
//!
//! Both go through the harness's public entry points only
//! (`run_scenario_simulated`, `run_simulated_repaired`,
//! `schedule_sweep_with`, `Simulation::new`, `Recorder`,
//! `is_linearizable_queue`) and leave the execution backend to the
//! simulator's default, so a change of backend or of a queue's body is
//! measured without editing this file.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ms_queues::sim::schedule_sweep_with;
use ms_queues::{
    is_linearizable_queue, run_scenario_simulated, run_simulated_repaired, Algorithm, FaultPlan,
    PairedScenario, Recorder, RecoveryPolicy, SimConfig, Simulation, WorkloadConfig,
};

use crate::trace::{median, ratio, splitmix64, Span, Tracer};
use crate::{Metrics, Outcome, Params};

/// The paper's dedicated point (Figure 3) and multiprogrammed point
/// (Figure 5), as (processors, processes per processor).
pub const POINTS: [(usize, usize); 2] = [(8, 1), (4, 3)];
/// The scale cell: new-nonblocking alone at 64 processors.
pub const SCALE_POINT: (usize, usize) = (64, 1);

pub fn point_label((p, m): (usize, usize)) -> String {
    format!("{p}x{m}")
}

/// Every `sim-paper` cell: all contenders at both points, then the scale
/// cell.
pub fn paper_cells() -> Vec<(Algorithm, (usize, usize))> {
    POINTS
        .iter()
        .flat_map(|&pt| Algorithm::WITH_EXTENSIONS.map(|a| (a, pt)))
        .chain([(Algorithm::NewNonBlocking, SCALE_POINT)])
        .collect()
}

/// The three queues the end-to-end `*_mops` metrics follow.
fn mops_index(algorithm: Algorithm) -> Option<usize> {
    match algorithm {
        Algorithm::NewNonBlocking => Some(0),
        Algorithm::SegBatched => Some(1),
        Algorithm::NewTwoLock => Some(2),
        _ => None,
    }
}
const MOPS_NAMES: [&str; 3] = ["ms_mops", "seg_mops", "two_lock_mops"];

/// Pairs per `sim-paper` cell.
const PAPER_PAIRS: u64 = 800;

/// One cell's result within one pass.
#[derive(Clone, Debug)]
struct Cell {
    wall_s: f64,
    total_ops: u64,
    queue_ops: u64,
    net_ns: u64,
    elapsed_ns: u64,
    misses: u64,
    cas_failures: u64,
}

/// Time spent building each cell's `Simulation`, plus one small
/// simulation run end to end, so threads and allocator are warm before
/// the first timed cell.
fn paper_setup(cells: &[(Algorithm, (usize, usize))], seed: u64) -> (f64, f64) {
    let start = Instant::now();
    let mut new_s = 0.0;
    for &(_, (processors, ppp)) in cells {
        let t = Instant::now();
        let sim = Simulation::new(SimConfig {
            processors,
            processes_per_processor: ppp,
            seed,
            ..SimConfig::default()
        });
        new_s += t.elapsed().as_secs_f64();
        drop(sim);
    }
    let warm = run_scenario_simulated(
        Algorithm::NewNonBlocking,
        SimConfig {
            processors: 8,
            seed,
            ..SimConfig::default()
        },
        PairedScenario {
            workload: WorkloadConfig {
                pairs_total: 64,
                ..WorkloadConfig::default()
            },
        },
        FaultPlan::new(),
    );
    assert_eq!(warm.point.drained, Some(0), "warm-up cell must drain");
    (start.elapsed().as_secs_f64(), new_s / cells.len() as f64)
}

/// `sim-paper`: passes over every cell until `params.seconds` have
/// passed. Each pass uses the same schedule seed, so virtual results must
/// repeat exactly from pass to pass; wall-clock figures are medians over
/// passes.
pub fn run_paper(params: &Params, tracer: &Tracer) -> Outcome {
    let cells = paper_cells();
    let seed = splitmix64(params.seed);
    let pairs = if params.smoke { 48 } else { PAPER_PAIRS };
    let mut out = Outcome::default();
    let mut passes: Vec<Vec<Cell>> = Vec::new();
    let mut traced_pass = Vec::new();
    let mut new_s = Vec::new();
    let started = Instant::now();
    while passes.len() < 2 || started.elapsed().as_secs_f64() < params.seconds {
        let (setup_s, new_per_sim) = paper_setup(&cells, seed);
        out.setup_s.push(setup_s);
        new_s.push(new_per_sim);
        let pass = passes.len() as u64;
        let traced = tracer.enabled() && pass % 2 == 1;
        let root = tracer.next_id();
        let root_start = tracer.now_ns();
        let mut results = Vec::new();
        for &(algorithm, (processors, ppp)) in &cells {
            let cfg = SimConfig {
                processors,
                processes_per_processor: ppp,
                seed,
                ..SimConfig::default()
            };
            let scenario = PairedScenario {
                workload: WorkloadConfig {
                    pairs_total: pairs,
                    ..WorkloadConfig::default()
                },
            };
            let call = || {
                catch_unwind(AssertUnwindSafe(|| {
                    run_scenario_simulated(algorithm, cfg, scenario, FaultPlan::new())
                }))
            };
            let (outcome, wall_s) = if traced {
                tracer.time("harness.run_scenario_simulated", root, pass, call)
            } else {
                let t = Instant::now();
                let o = call();
                (o, t.elapsed().as_secs_f64())
            };
            let label = format!("{algorithm} {}", point_label((processors, ppp)));
            out.attempted += 2 * pairs;
            let outcome = match outcome {
                Ok(o) => o,
                Err(_) => {
                    out.fail(2 * pairs, format!("{label}: the harness panicked"));
                    continue;
                }
            };
            let point = &outcome.point;
            let report = outcome
                .sim_report
                .as_ref()
                .expect("simulated runs carry a report");
            if point.drained != Some(0) {
                out.fail(
                    point.drained.unwrap_or(1),
                    format!("{label}: drained {:?}", point.drained),
                );
            }
            if point.pairs_completed != pairs
                || !point.killed.is_empty()
                || !point.blocked.is_empty()
            {
                out.fail(
                    2 * pairs.abs_diff(point.pairs_completed).max(1),
                    format!(
                        "{label}: completed {} of {pairs} pairs",
                        point.pairs_completed
                    ),
                );
            }
            results.push(Cell {
                wall_s,
                total_ops: report.total_ops,
                queue_ops: 2 * point.pairs_completed,
                net_ns: point.point.net_ns,
                elapsed_ns: report.elapsed_ns,
                misses: report.cache_misses,
                cas_failures: report.cas_failures,
            });
        }
        if traced {
            tracer.record(Span {
                id: root,
                parent: 0,
                trial: pass,
                name: "bench.pass",
                start_ns: root_start,
                end_ns: tracer.now_ns(),
            });
            traced_pass.push(true);
        } else {
            traced_pass.push(false);
        }
        passes.push(results);
    }
    if passes.iter().any(|p| p.len() != cells.len()) {
        return out;
    }
    // Determinism: the same seed must give the same virtual run.
    for (i, pass) in passes.iter().enumerate().skip(1) {
        for (c, (a, b)) in passes[0].iter().zip(pass).enumerate() {
            if (a.elapsed_ns, a.total_ops, a.misses) != (b.elapsed_ns, b.total_ops, b.misses) {
                out.fail(
                    a.queue_ops,
                    format!("{} pass {i}: virtual run differs from pass 0", cells[c].0),
                );
            }
        }
    }
    let first = &passes[0];
    let us_per_pair = |c: &Cell| c.net_ns as f64 / 1e3 / pairs as f64;
    let find = |alg: Algorithm, pt: (usize, usize)| {
        cells
            .iter()
            .position(|&(a, p)| a == alg && p == pt)
            .expect("cell exists")
    };
    // The paper's Figure 5 ordering at the multiprogrammed point.
    let (nb, sl) = (
        find(Algorithm::NewNonBlocking, POINTS[1]),
        find(Algorithm::SingleLock, POINTS[1]),
    );
    if first[nb].net_ns >= first[sl].net_ns {
        out.fail(
            2 * pairs,
            format!(
                "4x3: new-nonblocking ({} ns) does not beat single-lock ({} ns)",
                first[nb].net_ns, first[sl].net_ns
            ),
        );
    }
    let per_pass = |traced: bool, f: &dyn Fn(&[Cell]) -> f64| {
        median(
            &passes
                .iter()
                .zip(&traced_pass)
                .filter(|(_, &t)| t == traced)
                .map(|(p, _)| f(p))
                .collect::<Vec<_>>(),
        )
    };
    let cells = &cells;
    // Host cost: each cell's wall time is its median over passes, which
    // rides out a pass that the host slowed down.
    let cell_wall = |traced: bool| -> Vec<f64> {
        (0..cells.len())
            .map(|c| per_pass(traced, &|p: &[Cell]| p[c].wall_s))
            .collect()
    };
    let untraced_wall = cell_wall(false);
    let mops = |k: usize| {
        let (ops, wall) = first
            .iter()
            .zip(cells)
            .zip(&untraced_wall)
            .filter(|((_, (a, _)), _)| mops_index(*a) == Some(k))
            .fold((0.0, 0.0), |(o, w), ((c, _), wall)| {
                (o + c.queue_ops as f64, w + wall)
            });
        ratio(ops, wall) / 1e6
    };
    let sim_ops = |wall: &[f64]| {
        ratio(
            first.iter().map(|c| c.total_ops as f64).sum(),
            wall.iter().sum(),
        )
    };
    for (k, name) in MOPS_NAMES.iter().enumerate() {
        out.e2e.push((name.to_string(), mops(k), "Mop/s"));
    }
    let virtual_sum = |alg: Algorithm| {
        POINTS
            .iter()
            .map(|&pt| us_per_pair(&first[find(alg, pt)]))
            .sum::<f64>()
    };
    let gmean = {
        let paper: Vec<f64> = first[..POINTS.len() * Algorithm::WITH_EXTENSIONS.len()]
            .iter()
            .map(us_per_pair)
            .collect();
        (paper.iter().map(|v| v.ln()).sum::<f64>() / paper.len() as f64).exp()
    };
    let figures: Metrics = vec![
        ("sim_ops_per_s".into(), sim_ops(&untraced_wall), "1/s"),
        (
            "ms_virtual_us_per_pair".into(),
            virtual_sum(Algorithm::NewNonBlocking),
            "us",
        ),
        (
            "two_lock_virtual_us_per_pair".into(),
            virtual_sum(Algorithm::NewTwoLock),
            "us",
        ),
        ("virtual_us_per_pair_gmean".into(), gmean, "us"),
    ];
    out.extra.extend(figures.iter().cloned());
    if tracer.enabled() {
        out.layers.extend(figures);
        let traced_wall = cell_wall(true);
        for (c, &(alg, pt)) in cells.iter().enumerate() {
            let prefix = format!("sim.{alg}.{}", point_label(pt));
            let cell = &first[c];
            let wall = ratio(traced_wall[c] * 1e9, cell.total_ops as f64);
            out.layers.extend([
                (format!("{prefix}.wall_ns_per_op"), wall, "ns"),
                (
                    format!("{prefix}.misses_per_pair"),
                    cell.misses as f64 / pairs as f64,
                    "count",
                ),
                (
                    format!("{prefix}.cas_failures_per_pair"),
                    cell.cas_failures as f64 / pairs as f64,
                    "count",
                ),
                (
                    format!("{prefix}.virtual_us_per_pair"),
                    us_per_pair(cell),
                    "us",
                ),
            ]);
        }
        let run_s = traced_wall.iter().sum::<f64>() / cells.len() as f64;
        out.layers.push(("sim.new_s".into(), median(&new_s), "s"));
        out.layers.push(("sim.run_s".into(), run_s, "s"));
        out.overhead_pct = ratio(sim_ops(&untraced_wall), sim_ops(&traced_wall)) * 100.0 - 100.0;
    }
    out
}

/// Processes in each recorded history, and pairs each runs.
const HISTORY_PROCESSES: usize = 4;
const HISTORY_PAIRS: u64 = 3;
/// Queues whose simulated histories are checked with Wing–Gong.
const HISTORY_QUEUES: [Algorithm; 3] = [
    Algorithm::NewNonBlocking,
    Algorithm::NewTwoLock,
    Algorithm::SegBatched,
];
/// Queues killed while holding a lock and then repaired.
const REPAIR_QUEUES: [Algorithm; 2] = [Algorithm::SingleLock, Algorithm::NewTwoLock];
/// Pairs of each repaired run (three processes share them).
const REPAIR_PAIRS: u64 = 96;

/// Everything one sweep batch accumulates across its lanes.
#[derive(Default)]
struct SweepTally {
    seeds_checked: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Wall seconds of each history (construction, run and check), per
    /// `*_mops` queue.
    history_s: [Vec<f64>; 3],
    /// Wall seconds of each repaired run, per [`REPAIR_QUEUES`] entry.
    repair_s: [Vec<f64>; 2],
    new_s: Vec<f64>,
    run_s: Vec<f64>,
    check_s: Vec<f64>,
    events: Vec<f64>,
    repair_us: [Vec<f64>; 2],
    repairs: u64,
    blocked: u64,
    spans: Vec<Span>,
}

impl SweepTally {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }
}

/// One sweep seed: a checked history per [`HISTORY_QUEUES`] entry and a
/// repaired kill per [`REPAIR_QUEUES`] entry.
fn sweep_seed(
    cfg: SimConfig,
    tracer: &Tracer,
    traced: bool,
    batch: u64,
    tally: &Mutex<SweepTally>,
) {
    let mut local = SweepTally::default();
    let root = tracer.next_id();
    let root_start = tracer.now_ns();
    let span = |local: &mut SweepTally, name: &'static str, start: u64| {
        if traced {
            local.spans.push(Span {
                id: tracer.next_id(),
                parent: root,
                trial: batch,
                name,
                start_ns: start,
                end_ns: tracer.now_ns(),
            });
        }
    };
    for algorithm in HISTORY_QUEUES {
        let k = mops_index(algorithm).expect("history queues are the mops queues");
        let ops = 2 * HISTORY_PROCESSES as u64 * HISTORY_PAIRS;
        local.attempted += ops;
        let t0 = tracer.now_ns();
        let sim = Simulation::new(cfg);
        let t1 = tracer.now_ns();
        span(&mut local, "sim.Simulation::new", t0);
        let queue = algorithm.build(&sim.platform(), 64);
        let recorder = Recorder::new();
        let handles: Vec<_> = (0..HISTORY_PROCESSES)
            .map(|p| Some(recorder.handle(p)))
            .collect();
        let handles = Arc::new(Mutex::new(handles));
        let t2 = tracer.now_ns();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let (queue, handles) = (Arc::clone(&queue), Arc::clone(&handles));
            sim.run(move |info| {
                let mut handle = handles.lock().expect("history handles")[info.pid]
                    .take()
                    .expect("one handle per process");
                for i in 0..HISTORY_PAIRS {
                    let value = (info.pid as u64) << 8 | i;
                    if handle.enqueue(&*queue, value).is_err() {
                        return;
                    }
                    handle.dequeue(&*queue);
                }
            })
        }));
        let t3 = tracer.now_ns();
        span(&mut local, "sim.run", t2);
        drop(handles);
        let history = recorder.finish();
        let t4 = tracer.now_ns();
        let linearizable = ran.is_ok() && is_linearizable_queue(history.events());
        let t5 = tracer.now_ns();
        span(&mut local, "linearize.is_linearizable_queue", t4);
        local.new_s.push((t1 - t0) as f64 / 1e9);
        local.run_s.push((t3 - t2) as f64 / 1e9);
        local.check_s.push((t5 - t4) as f64 / 1e9);
        local.events.push(history.len() as f64);
        local.history_s[k].push(((t1 - t0) + (t3 - t2) + (t5 - t4)) as f64 / 1e9);
        if !linearizable || history.len() as u64 != ops {
            local.fail(
                ops,
                format!(
                    "{algorithm} seed {:#x}: history of {} events is not linearizable",
                    cfg.seed,
                    history.len()
                ),
            );
        }
    }
    for (r, algorithm) in REPAIR_QUEUES.into_iter().enumerate() {
        // The seed picks the lock (enqueue or dequeue side) and how many
        // times the victim passes it before it is killed.
        let pick = splitmix64(cfg.seed ^ r as u64);
        let label = if pick & 1 == 0 {
            algorithm.enqueue_fault_label()
        } else {
            algorithm.dequeue_fault_label()
        };
        let occurrence = (pick >> 1) % (REPAIR_PAIRS / 3 - 4);
        let repair_cfg = SimConfig {
            processors: 3,
            processes_per_processor: 1,
            watchdog_ns: 400_000_000,
            ..cfg
        };
        let workload = WorkloadConfig {
            pairs_total: REPAIR_PAIRS,
            other_work_ns: 500,
            capacity: 256,
            mem_budget: None,
        };
        local.attempted += 2 * REPAIR_PAIRS;
        let t0 = tracer.now_ns();
        let point = catch_unwind(AssertUnwindSafe(|| {
            run_simulated_repaired(
                algorithm,
                repair_cfg,
                &workload,
                FaultPlan::new().kill_at_label(1, label, occurrence),
                RecoveryPolicy::designated(0),
            )
        }));
        let t1 = tracer.now_ns();
        span(&mut local, "harness.run_simulated_repaired", t0);
        local.run_s.push((t1 - t0) as f64 / 1e9);
        local.repair_s[r].push((t1 - t0) as f64 / 1e9);
        let what = format!(
            "{algorithm} killed at {label}#{occurrence}, seed {:#x}",
            cfg.seed
        );
        let Ok(point) = point else {
            local.fail(2 * REPAIR_PAIRS, format!("{what}: the harness panicked"));
            continue;
        };
        local.blocked += point.blocked.len() as u64;
        local.repairs += point.repairs.len() as u64;
        if !point.survivors_completed() {
            // Every op a blocked survivor still owed counts as failed.
            let share = REPAIR_PAIRS / 3;
            local.fail(
                2 * share * point.blocked.len() as u64,
                format!("{what}: survivors {:?} blocked", point.blocked),
            );
        }
        let done = point.pairs_completed + point.recovered_pairs;
        if done != REPAIR_PAIRS || point.killed != [1] || point.repairs.len() != 1 {
            local.fail(
                2 * REPAIR_PAIRS.abs_diff(done).max(1),
                format!(
                    "{what}: {done} of {REPAIR_PAIRS} pairs, killed {:?}, {} repairs",
                    point.killed,
                    point.repairs.len()
                ),
            );
        }
        if let Some(ns) = point.time_to_repair_ns {
            local.repair_us[r].push(ns as f64 / 1e3);
        }
    }
    if traced {
        local.spans.push(Span {
            id: root,
            parent: 0,
            trial: batch,
            name: "bench.seed",
            start_ns: root_start,
            end_ns: tracer.now_ns(),
        });
    }
    local.seeds_checked = 1;
    let mut tally = tally.lock().expect("sweep tally");
    tally.seeds_checked += local.seeds_checked;
    tally.attempted += local.attempted;
    tally.failed += local.failed;
    tally.failures.append(&mut local.failures);
    for k in 0..3 {
        tally.history_s[k].append(&mut local.history_s[k]);
    }
    tally.new_s.append(&mut local.new_s);
    tally.run_s.append(&mut local.run_s);
    tally.check_s.append(&mut local.check_s);
    tally.events.append(&mut local.events);
    for r in 0..2 {
        tally.repair_us[r].append(&mut local.repair_us[r]);
        tally.repair_s[r].append(&mut local.repair_s[r]);
    }
    tally.repairs += local.repairs;
    tally.blocked += local.blocked;
    tally.spans.append(&mut local.spans);
}

/// Sweep lanes: fixed, so the figure does not depend on the host beyond
/// its first two cores.
const LANES: usize = 2;

/// `sim-sweep`: batches of seeds through `schedule_sweep_with` until
/// `params.seconds` have passed.
pub fn run_sweep(params: &Params, tracer: &Tracer) -> Outcome {
    let seeds_per_batch: u64 = if params.smoke { 4 } else { 24 };
    let base = SimConfig {
        processors: HISTORY_PROCESSES / 2,
        processes_per_processor: 2,
        quantum_ns: 60_000,
        ..SimConfig::default()
    };
    let mut out = Outcome::default();
    let mut batches: Vec<(bool, f64, SweepTally)> = Vec::new();
    let started = Instant::now();
    while batches.len() < 2 || started.elapsed().as_secs_f64() < params.seconds {
        let batch = batches.len() as u64;
        let traced = tracer.enabled() && batch % 2 == 1;
        // Set-up: derive the batch's seed offset, then sweep one seed
        // untimed so the lanes' first simulations are not cold.
        let setup_start = Instant::now();
        let offset = splitmix64(params.seed ^ splitmix64(batch + 1));
        let warm = Mutex::new(SweepTally::default());
        sweep_seed(
            SimConfig {
                seed: offset,
                ..base
            },
            tracer,
            false,
            batch,
            &warm,
        );
        out.setup_s.push(setup_start.elapsed().as_secs_f64());
        let tally = Mutex::new(SweepTally::default());
        let start = Instant::now();
        schedule_sweep_with(base, seeds_per_batch, LANES, |cfg| {
            let cfg = SimConfig {
                seed: cfg.seed ^ offset,
                ..cfg
            };
            sweep_seed(cfg, tracer, traced, batch, &tally);
        });
        let wall = start.elapsed().as_secs_f64();
        let mut tally = tally.into_inner().expect("sweep tally");
        let warm = warm.into_inner().expect("sweep tally");
        out.attempted += tally.attempted + warm.attempted;
        out.failed += tally.failed + warm.failed;
        out.failures.append(&mut tally.failures);
        out.failures.extend(warm.failures);
        tracer.record_all(std::mem::take(&mut tally.spans));
        batches.push((traced, wall, tally));
    }
    let per_batch = |traced: bool, f: &dyn Fn(f64, &SweepTally) -> f64| {
        median(
            &batches
                .iter()
                .filter(|(t, _, _)| *t == traced)
                .map(|(_, wall, tally)| f(*wall, tally))
                .collect::<Vec<_>>(),
        )
    };
    let seeds_per_s = |wall: f64, t: &SweepTally| ratio(t.seeds_checked as f64, wall);
    let all = |f: &dyn Fn(&SweepTally) -> &Vec<f64>| -> Vec<f64> {
        batches
            .iter()
            .flat_map(|(_, _, t)| f(t).iter().copied())
            .collect()
    };
    // Host cost: the ops of one call of each kind over that kind's median
    // wall time in the untraced batches, which rides out calls the host
    // slowed down.
    let untraced_median = |f: &dyn Fn(&SweepTally) -> &Vec<f64>| {
        median(
            &batches
                .iter()
                .filter(|(traced, _, _)| !traced)
                .flat_map(|(_, _, t)| f(t).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let history_ops = (2 * HISTORY_PROCESSES as u64 * HISTORY_PAIRS) as f64;
    for (k, name) in MOPS_NAMES.iter().enumerate() {
        let algorithm = HISTORY_QUEUES
            .into_iter()
            .find(|&a| mops_index(a) == Some(k))
            .expect("every mops queue has a history");
        let (mut ops, mut wall) = (history_ops, untraced_median(&|t| &t.history_s[k]));
        if let Some(r) = REPAIR_QUEUES.iter().position(|&a| a == algorithm) {
            ops += 2.0 * REPAIR_PAIRS as f64;
            wall += untraced_median(&|t| &t.repair_s[r]);
        }
        out.e2e
            .push((name.to_string(), ratio(ops, wall) / 1e6, "Mop/s"));
    }
    let repair: Vec<Vec<f64>> = (0..2).map(|r| all(&|t| &t.repair_us[r])).collect();
    let both: Vec<f64> = repair.concat();
    let figures: Metrics = vec![
        ("seeds_per_s".into(), per_batch(false, &seeds_per_s), "1/s"),
        ("repair_virtual_us".into(), median(&both), "us"),
    ];
    out.extra.extend(figures.iter().cloned());
    if tracer.enabled() {
        out.layers.extend(figures);
        let mean = |v: Vec<f64>| ratio(v.iter().sum(), v.len() as f64);
        out.layers.extend([
            ("sim.new_s".into(), mean(all(&|t| &t.new_s)), "s"),
            ("sim.run_s".into(), mean(all(&|t| &t.run_s)), "s"),
            ("linearize.check_s".into(), mean(all(&|t| &t.check_s)), "s"),
            (
                "linearize.events_per_history".into(),
                mean(all(&|t| &t.events)),
                "count",
            ),
            (
                "sim.repair.single_lock.virtual_us".into(),
                median(&repair[0]),
                "us",
            ),
            (
                "sim.repair.two_lock.virtual_us".into(),
                median(&repair[1]),
                "us",
            ),
            (
                "sim.repairs".into(),
                batches.iter().map(|b| b.2.repairs as f64).sum(),
                "count",
            ),
            (
                "sim.blocked".into(),
                batches.iter().map(|b| b.2.blocked as f64).sum(),
                "count",
            ),
        ]);
        out.overhead_pct = ratio(
            per_batch(false, &seeds_per_s),
            per_batch(true, &seeds_per_s),
        ) * 100.0
            - 100.0;
    }
    out
}
