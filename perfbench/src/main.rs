//! The repository's benchmark: one command per workload that runs it,
//! checks its outputs, and prints its metrics.
//!
//! ```text
//! msq-perfbench --workload <native-pairs|native-stream|sim-paper|sim-sweep>
//!               --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, taken from spans recorded around calls into the
//! library's public functions. See `perfbench/README.md` for what each
//! metric means and which layer metric should move which end-to-end one.

mod native;
mod sim;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// `(name, value, unit)` triples in print order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Command-line parameters, checked.
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for the benchmark's own self-test.
    pub smoke: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NativePairs,
    NativeStream,
    SimPaper,
    SimSweep,
}

impl Workload {
    const ALL: [(Workload, &'static str); 4] = [
        (Workload::NativePairs, "native-pairs"),
        (Workload::NativeStream, "native-stream"),
        (Workload::SimPaper, "sim-paper"),
        (Workload::SimSweep, "sim-sweep"),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(w, _)| *w == self)
            .expect("every workload is named")
            .1
    }
}

/// What a workload measured and what its checks found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// One entry per set-up the workload performed.
    pub setup_s: Vec<f64>,
    /// The workload's `*_mops` end-to-end metrics (untraced trials).
    pub e2e: Metrics,
    /// Further end-to-end figures only this workload defines; printed in
    /// the report and repeated among the per-layer metrics.
    pub extra: Metrics,
    /// Per-layer metrics, from traced trials.
    pub layers: Metrics,
    /// Untraced over traced throughput, minus one, in percent.
    pub overhead_pct: f64,
}

impl Outcome {
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }
}

/// Environment variables that change what the library runs: a sweep
/// pinned to one seed, a different simulator backend or lane count, or a
/// global segment budget other than the default.
const FORBIDDEN_ENV: [&str; 4] = [
    "MSQ_SIM_WORKERS",
    "MSQ_SWEEP_LANES",
    "MSQ_SWEEP_SEED",
    "MSQ_MEM_BUDGET",
];

fn parse_args() -> Result<Params, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(_, n)| *n == name)
                        .ok_or(format!("unknown workload {name:?}"))?
                        .0,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Params {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Output of a command, or `unknown` when it cannot run.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(params: &Params) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"smoke\":{},\"git_rev\":\"{}\",\"nproc\":{},\"rustc\":\"{}\"}}",
        params.workload.name(),
        params.seed,
        params.seconds,
        params.trace,
        params.smoke,
        command_output("git", &["rev-parse", "HEAD"]),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_output("rustc", &["-V"]),
    )
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Every per-layer metric the benchmark prints, in order, with its unit.
/// A workload that does not reach a layer prints that layer's metrics as
/// 0: no calls, no time.
pub fn per_layer_specs() -> Vec<(String, &'static str)> {
    let mut specs = Vec::new();
    let mut add = |name: String, unit| specs.push((name, unit));
    for q in ["ms", "seg", "two_lock"] {
        for op in ["enqueue", "dequeue"] {
            for p in ["p50", "p99"] {
                add(format!("core.{q}.{op}_ns.{p}"), "ns");
            }
        }
        add(format!("core.{q}.empty_dequeue_ratio"), "ratio");
    }
    add("core.seg.pool_reuse_ratio".into(), "ratio");
    add("core.seg.segs_retired".into(), "count");
    add("arena.budget_peak".into(), "count");
    add("arena.budget_denials".into(), "count");
    for (alg, pt) in sim::paper_cells() {
        let prefix = format!("sim.{alg}.{}", sim::point_label(pt));
        add(format!("{prefix}.wall_ns_per_op"), "ns");
        add(format!("{prefix}.misses_per_pair"), "count");
        add(format!("{prefix}.cas_failures_per_pair"), "count");
        add(format!("{prefix}.virtual_us_per_pair"), "us");
    }
    for (name, unit) in [
        ("sim_ops_per_s", "1/s"),
        ("ms_virtual_us_per_pair", "us"),
        ("two_lock_virtual_us_per_pair", "us"),
        ("virtual_us_per_pair_gmean", "us"),
        ("seeds_per_s", "1/s"),
        ("repair_virtual_us", "us"),
        ("sim.new_s", "s"),
        ("sim.run_s", "s"),
        ("linearize.check_s", "s"),
        ("linearize.events_per_history", "count"),
        ("sim.repair.single_lock.virtual_us", "us"),
        ("sim.repair.two_lock.virtual_us", "us"),
        ("sim.repairs", "count"),
        ("sim.blocked", "count"),
        ("error_rate", "ratio"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
    ] {
        add(name.into(), unit);
    }
    specs
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let params = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("msq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "msq-perfbench: refusing to run with {var} set: it changes what the library runs"
        );
        return ExitCode::from(2);
    }
    let provenance = provenance(&params);
    println!("# provenance {provenance}");
    let tracer = Tracer::new(params.trace);
    let started = Instant::now();
    let mut out = match params.workload {
        Workload::NativePairs => native::run(native::Shape::Pairs, &params, &tracer),
        Workload::NativeStream => native::run(native::Shape::Stream, &params, &tracer),
        Workload::SimPaper => sim::run_paper(&params, &tracer),
        Workload::SimSweep => sim::run_sweep(&params, &tracer),
    };
    let error_rate = trace::ratio(out.failed as f64, out.attempted as f64);
    let mut e2e: Metrics = vec![
        ("setup_s".into(), trace::median(&out.setup_s), "s"),
        ("peak_rss_mib".into(), peak_rss_mib(), "MiB"),
    ];
    e2e.append(&mut out.e2e);
    let metrics = if params.trace {
        let path = std::path::PathBuf::from(".bench_trace").join(format!(
            "{}-seed{}.jsonl",
            params.workload.name(),
            params.seed
        ));
        let spans = match tracer.write_out(&path, &provenance) {
            Ok(n) => {
                println!("# spans written to {}", path.display());
                n
            }
            Err(e) => {
                eprintln!("msq-perfbench: could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        out.layers.extend([
            ("error_rate".into(), error_rate, "ratio"),
            ("trace.overhead_pct".into(), out.overhead_pct, "%"),
            ("trace.spans".into(), spans as f64, "count"),
        ]);
        per_layer_specs()
            .into_iter()
            .map(|(name, unit)| {
                let value = out.layers.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
                (name, value, unit)
            })
            .collect()
    } else {
        e2e.clone()
    };
    for (name, value, unit) in e2e.iter().chain(&out.extra) {
        println!("# {name} = {value} {unit}");
    }
    println!("# error_rate = {error_rate} failed/attempted");
    if params.trace {
        println!(
            "# tracing overhead = {:.2}% of untraced throughput",
            out.overhead_pct
        );
    }
    for f in &out.failures {
        println!("# FAILED: {f}");
    }
    println!("# wall {:.3} s", started.elapsed().as_secs_f64());
    let correct = out.failed == 0 && out.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
