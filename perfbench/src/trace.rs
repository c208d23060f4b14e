//! Spans, counters and the small statistics the benchmark reports.
//!
//! A span is recorded around a call into one of the library's public
//! functions, from the benchmark's side of the boundary: nothing inside
//! the library is instrumented. Spans stay in memory until the run ends
//! and are then written out as JSON lines.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `name` is the layer boundary (`core.ms.enqueue`,
/// `harness.run_scenario_simulated`, …), `parent` the id of the span that
/// caused it (0 for a root), `trial` the trial or pass it belongs to.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trial: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans when tracing is on; every method is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Records a finished span (no-op when tracing is off).
    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span buffer").push(span);
        }
    }

    /// Appends a thread's locally buffered spans in one lock.
    pub fn record_all(&self, spans: Vec<Span>) {
        if self.enabled && !spans.is_empty() {
            self.spans.lock().expect("span buffer").extend(spans);
        }
    }

    /// Times `f` as a span named `name` under `parent`, returning its
    /// result and its duration in seconds. The duration is measured even
    /// when tracing is off, because the end-to-end metrics use it.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u64,
        trial: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        if self.enabled {
            self.record(Span {
                id: self.next_id(),
                parent,
                trial,
                name,
                start_ns,
                end_ns,
            });
        }
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Durations (ns) of every span called `name`, sorted ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .spans
            .lock()
            .expect("span buffer")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect();
        out.sort_unstable();
        out
    }

    /// Writes every span as one JSON object per line, preceded by a
    /// provenance line, and returns the number of spans written.
    pub fn write_out(&self, path: &std::path::Path, provenance: &str) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        // A span's self time is its duration minus the part of it its
        // children cover (children of one parent never overlap here,
        // except across sweep lanes, so the result is clamped at 0).
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            *covered.entry(s.parent).or_default() += s.duration_ns();
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{provenance}")?;
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trial\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent,
                s.trial,
                s.name,
                s.start_ns,
                s.end_ns,
                s.duration_ns()
                    .saturating_sub(covered.get(&s.id).copied().unwrap_or(0))
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// The splitmix64 step: the benchmark derives every input from the
/// workload seed through it.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[u64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
