//! `native-pairs` and `native-stream`: the heap queues on real threads.
//!
//! Both are closed loops with two load threads (the host has two cores).
//! Every trial builds a fresh queue, spawns its threads, warms up, and
//! only then starts the clock; that preparation is the trial's set-up
//! time. Values carry their producer and sequence number, so each trial
//! checks conservation and FIFO order.

use std::hint::{black_box, spin_loop};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use ms_queues::{MsQueue, SegQueue, TwoLockQueue};

use crate::trace::{median, percentile, ratio, splitmix64, Span, Tracer};
use crate::{Outcome, Params};

const THREADS: usize = 2;
/// Producer id lives above bit 40, the sequence number below.
const PRODUCER_SHIFT: u32 = 40;
const SEQ_MASK: u64 = (1 << PRODUCER_SHIFT) - 1;
/// Warm-up values are tagged so a timed check can tell them apart.
const WARM_TAG: u64 = 1 << 62;
/// Every `SAMPLE`-th call is wrapped in a span when tracing.
const SAMPLE: u64 = 1024;
/// `native-stream` keeps at most this many items in flight: 32 segments
/// of the default 32-slot `SegQueue`, so the queue holds a backlog.
const WINDOW: u64 = 1024;
/// Largest producer burst in `native-stream`.
const MAX_BURST: u64 = 256;
/// A `native-stream` consumer leaves this many items queued until the
/// producer has sent everything.
const LOW_WATER: u64 = 256;
/// `native-pairs` threads meet at a barrier every `LOCKSTEP` pairs.
const LOCKSTEP: u64 = 1024;
/// Consecutive empty dequeues after which a `native-pairs` thread checks
/// whether its item can still arrive.
const LONG_WAIT: u64 = 1 << 16;

/// The public surface every heap queue shares.
pub trait HeapQueue: Send + Sync {
    /// Short name used in metric names.
    const NAME: &'static str;
    const ENQ_SPAN: &'static str;
    const DEQ_SPAN: &'static str;
    fn create() -> Self;
    fn enqueue(&self, value: u64);
    fn dequeue(&self) -> Option<u64>;
    /// Segment pool and budget counters, for the segment queue only.
    fn seg_counters(&self) -> Option<SegCounters> {
        None
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SegCounters {
    pub allocated: u64,
    pub pooled: u64,
    pub retired: u64,
    pub budget_peak: u64,
    pub budget_denials: u64,
}

impl HeapQueue for MsQueue<u64> {
    const NAME: &'static str = "ms";
    const ENQ_SPAN: &'static str = "core.ms.enqueue";
    const DEQ_SPAN: &'static str = "core.ms.dequeue";
    fn create() -> Self {
        MsQueue::new()
    }
    fn enqueue(&self, value: u64) {
        MsQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        MsQueue::dequeue(self)
    }
}

impl HeapQueue for SegQueue<u64> {
    const NAME: &'static str = "seg";
    const ENQ_SPAN: &'static str = "core.seg.enqueue";
    const DEQ_SPAN: &'static str = "core.seg.dequeue";
    fn create() -> Self {
        SegQueue::new()
    }
    fn enqueue(&self, value: u64) {
        SegQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        SegQueue::dequeue(self)
    }
    fn seg_counters(&self) -> Option<SegCounters> {
        let stats = self.stats();
        let budget = self.budget();
        Some(SegCounters {
            allocated: stats.segs_allocated as u64,
            pooled: stats.segs_pooled as u64,
            retired: stats.segs_retired as u64,
            budget_peak: budget.peak(),
            budget_denials: budget.denials(),
        })
    }
}

impl HeapQueue for TwoLockQueue<u64> {
    const NAME: &'static str = "two_lock";
    const ENQ_SPAN: &'static str = "core.two_lock.enqueue";
    const DEQ_SPAN: &'static str = "core.two_lock.dequeue";
    fn create() -> Self {
        TwoLockQueue::new()
    }
    fn enqueue(&self, value: u64) {
        TwoLockQueue::enqueue(self, value)
    }
    fn dequeue(&self) -> Option<u64> {
        TwoLockQueue::dequeue(self)
    }
}

/// What one trial measured and found.
#[derive(Debug, Default)]
pub struct Trial {
    pub setup_s: f64,
    pub wall_s: f64,
    pub ops: u64,
    pub deq_calls: u64,
    pub empties: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub seg: Option<SegCounters>,
}

impl Trial {
    fn mops(&self) -> f64 {
        ratio(self.ops as f64, self.wall_s) / 1e6
    }

    fn check(&mut self, what: &str, expected: u64, got: u64) {
        if expected != got {
            self.failed += expected.abs_diff(got);
            self.failures
                .push(format!("{what}: expected {expected}, got {got}"));
        }
    }

    /// Checks what every tally must show: nothing lost, foreign or out of
    /// order.
    fn check_tally(&mut self, phase: &str, t: &Tally) {
        self.check(&format!("{phase}: out-of-order items"), 0, t.out_of_order);
        self.check(&format!("{phase}: items never enqueued"), 0, t.foreign);
        self.check(&format!("{phase}: items lost"), 0, t.lost);
    }
}

/// Sizes and trace identity of one trial.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrialSpec {
    /// Seeds `native-stream`'s burst sizes.
    pub seed: u64,
    /// Pairs per thread (`native-pairs`) or items sent (`native-stream`).
    pub ops: u64,
    /// Untimed items pushed through the queue before the clock starts.
    pub warm: u64,
    /// Whether every [`SAMPLE`]-th call is wrapped in a span.
    pub traced: bool,
    pub trial: u64,
    pub parent: u64,
}

impl TrialSpec {
    /// The untraced warm-up before this trial's timed section.
    fn warm_up(self) -> Self {
        TrialSpec {
            ops: self.warm,
            traced: false,
            ..self
        }
    }
}

/// Per-thread tallies of one timed section.
#[derive(Default)]
struct Tally {
    received: u64,
    sum: u64,
    deq_calls: u64,
    empties: u64,
    out_of_order: u64,
    foreign: u64,
    lost: u64,
    spans: Vec<Span>,
}

fn sampled_span(tracer: &Tracer, name: &'static str, spec: &TrialSpec, start: u64) -> Span {
    Span {
        id: tracer.next_id(),
        parent: spec.parent,
        trial: spec.trial,
        name,
        start_ns: start,
        end_ns: tracer.now_ns(),
    }
}

/// One `native-pairs` trial: each of two threads runs the paper's Section
/// 4 loop (enqueue, then dequeue) `spec.ops` times on one shared queue,
/// after `spec.warm` untimed pairs.
pub fn pairs_trial<Q: HeapQueue>(spec: &TrialSpec, tracer: &Tracer) -> Trial {
    let setup_start = Instant::now();
    let queue = Q::create();
    let gate = Barrier::new(THREADS + 1);
    let (warming, waiting) = (Waiting::default(), Waiting::default());
    let (setup_s, wall_s, tallies) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS as u64)
            .map(|tid| {
                let (queue, gate, warming, waiting) = (&queue, &gate, &warming, &waiting);
                scope.spawn(move || {
                    pin_to_cpu(tid as usize);
                    let warm = pairs_worker(queue, warming, tid, WARM_TAG, &spec.warm_up(), tracer);
                    gate.wait();
                    let timed = pairs_worker(queue, waiting, tid, 0, spec, tracer);
                    (warm, timed)
                })
            })
            .collect();
        gate.wait();
        let setup_s = setup_start.elapsed().as_secs_f64();
        let start = Instant::now();
        let tallies: Vec<(Tally, Tally)> = workers
            .into_iter()
            .map(|w| w.join().expect("pairs worker panicked"))
            .collect();
        (setup_s, start.elapsed().as_secs_f64(), tallies)
    });
    let pairs = spec.ops;
    let mut out = Trial {
        setup_s,
        wall_s,
        ops: 2 * THREADS as u64 * pairs,
        ..Trial::default()
    };
    let expected_sum = (0..THREADS as u64).fold(0u64, |acc, tid| {
        acc.wrapping_add((tid << PRODUCER_SHIFT).wrapping_mul(pairs))
            .wrapping_add(pairs * pairs.saturating_sub(1) / 2)
    });
    let (mut received, mut sum) = (0u64, 0u64);
    for (warm, mut t) in tallies {
        out.check_tally("warm-up", &warm);
        out.check_tally("timed", &t);
        received += t.received;
        sum = sum.wrapping_add(t.sum);
        out.deq_calls += t.deq_calls;
        out.empties += t.empties;
        tracer.record_all(std::mem::take(&mut t.spans));
    }
    out.check("items dequeued", THREADS as u64 * pairs, received);
    if received == THREADS as u64 * pairs && sum != expected_sum {
        out.check("lost-and-duplicated items (checksum)", 0, 1);
    }
    out.check("items left after drain", 0, drain(&queue));
    out.seg = queue.seg_counters();
    out
}

/// How many `native-pairs` threads are idle (finished, or at a
/// [`LOCKSTEP`] barrier) or have waited long for an item, and how many
/// barrier arrivals there have been. Touched only off the fast path.
#[derive(Default)]
struct Waiting {
    idle: AtomicU64,
    long: AtomicU64,
    arrived: AtomicU64,
}

/// Runs `spec.ops` enqueue-then-dequeue pairs of values `tag | tid | i`
/// and checks what it dequeues: `tag` must match and each producer's items
/// must come in order. Gives up on an item, counting it lost, once every
/// other thread is idle or waits too.
///
/// The threads meet at a barrier every [`LOCKSTEP`] pairs. Without it, a
/// thread whose CPU the host takes away for a few milliseconds hands the
/// other one the queue to itself, uncontended and several times faster,
/// so the host's preemptions would raise the figure; with it, they only
/// cost the time they take.
fn pairs_worker<Q: HeapQueue>(
    queue: &Q,
    waiting: &Waiting,
    tid: u64,
    tag: u64,
    spec: &TrialSpec,
    tracer: &Tracer,
) -> Tally {
    let mut t = Tally::default();
    let mut last_seen = [None::<u64>; THREADS];
    for i in 0..spec.ops {
        if i > 0 && i.is_multiple_of(LOCKSTEP) {
            // A thread here has dequeued as many items as it enqueued,
            // until its next enqueue: idle, for the give-up rule below.
            waiting.idle.fetch_add(1, Ordering::SeqCst);
            waiting.arrived.fetch_add(1, Ordering::SeqCst);
            let due = THREADS as u64 * (i / LOCKSTEP);
            while waiting.arrived.load(Ordering::SeqCst) < due {
                spin_loop();
            }
            waiting.idle.fetch_sub(1, Ordering::SeqCst);
        }
        let sample = spec.traced && i.is_multiple_of(SAMPLE);
        let value = tag | (tid << PRODUCER_SHIFT) | i;
        let start = if sample { tracer.now_ns() } else { 0 };
        queue.enqueue(black_box(value));
        if sample {
            t.spans.push(sampled_span(tracer, Q::ENQ_SPAN, spec, start));
        }
        let mut empty_run = 0u64;
        let mut may_give_up = false;
        let got = loop {
            let start = if sample && empty_run == 0 {
                tracer.now_ns()
            } else {
                0
            };
            let got = queue.dequeue();
            if sample && empty_run == 0 {
                t.spans.push(sampled_span(tracer, Q::DEQ_SPAN, spec, start));
            }
            t.deq_calls += 1;
            match got {
                Some(v) => break Some(v),
                None if may_give_up => break None,
                None => {
                    t.empties += 1;
                    empty_run += 1;
                    if empty_run == LONG_WAIT {
                        waiting.long.fetch_add(1, Ordering::SeqCst);
                    }
                    // Every thread mid-pair has enqueued one more item than
                    // it has dequeued. Once every other thread is idle or
                    // waits too, an empty queue on the next call means an
                    // item was lost and will never arrive.
                    may_give_up = empty_run >= LONG_WAIT
                        && waiting.long.load(Ordering::SeqCst)
                            + waiting.idle.load(Ordering::SeqCst)
                            == THREADS as u64;
                    spin_loop();
                }
            }
        };
        if empty_run >= LONG_WAIT {
            waiting.long.fetch_sub(1, Ordering::SeqCst);
        }
        let Some(got) = got else {
            t.lost += 1;
            continue;
        };
        t.received += 1;
        t.sum = t.sum.wrapping_add(got);
        let producer = ((got & !WARM_TAG) >> PRODUCER_SHIFT) as usize;
        if got & WARM_TAG != tag || producer >= THREADS {
            t.foreign += 1;
            continue;
        }
        // FIFO: one consumer sees each producer's items in order.
        let seq = got & SEQ_MASK;
        if last_seen[producer].is_some_and(|last| seq <= last) {
            t.out_of_order += 1;
        }
        last_seen[producer] = Some(seq);
    }
    waiting.idle.fetch_add(1, Ordering::SeqCst);
    t
}

/// One `native-stream` trial: one producer sends seeded bursts while
/// keeping at most [`WINDOW`] items in flight; one consumer takes items
/// while more than [`LOW_WATER`] of them are queued (all of them once the
/// producer is done), and checks that it receives exactly `0, 1, 2, …`.
/// The queue so holds a backlog of a few hundred items, and the two
/// threads work at its two ends at the same time.
pub fn stream_trial<Q: HeapQueue>(spec: &TrialSpec, tracer: &Tracer) -> Trial {
    let setup_start = Instant::now();
    let bursts = bursts(spec.seed, spec.ops);
    let queue = Q::create();
    let gate = Barrier::new(THREADS + 1);
    let (warming, flow) = (Flow::default(), Flow::default());
    let (setup_s, wall_s, producer_spans, (warm, mut tally)) = std::thread::scope(|scope| {
        let (queue, gate, warming, flow, bursts) = (&queue, &gate, &warming, &flow, &bursts);
        let producer = scope.spawn(move || {
            pin_to_cpu(0);
            for i in 0..spec.warm {
                queue.enqueue(WARM_TAG | i);
                if (i + 1) % CHUNK == 0 || i + 1 == spec.warm {
                    warming.sent.store(i + 1, Ordering::Release);
                }
            }
            gate.wait();
            let mut spans = Vec::new();
            let mut sent = 0u64;
            for &burst in bursts {
                while sent + burst - flow.consumed.load(Ordering::Acquire) > WINDOW {
                    spin_loop();
                }
                for _ in 0..burst {
                    let sample = spec.traced && sent.is_multiple_of(SAMPLE);
                    let start = if sample { tracer.now_ns() } else { 0 };
                    queue.enqueue(black_box(sent));
                    if sample {
                        spans.push(sampled_span(tracer, Q::ENQ_SPAN, spec, start));
                    }
                    sent += 1;
                }
                flow.sent.store(sent, Ordering::Release);
            }
            spans
        });
        let consumer = scope.spawn(move || {
            pin_to_cpu(1);
            let warm = stream_consumer(queue, warming, WARM_TAG, &spec.warm_up(), tracer);
            gate.wait();
            (warm, stream_consumer(queue, flow, 0, spec, tracer))
        });
        gate.wait();
        let setup_s = setup_start.elapsed().as_secs_f64();
        let start = Instant::now();
        let producer_spans = producer.join().expect("stream producer panicked");
        let tallies = consumer.join().expect("stream consumer panicked");
        (
            setup_s,
            start.elapsed().as_secs_f64(),
            producer_spans,
            tallies,
        )
    });
    tracer.record_all(producer_spans);
    tracer.record_all(std::mem::take(&mut tally.spans));
    let mut out = Trial {
        setup_s,
        wall_s,
        ops: 2 * spec.ops,
        deq_calls: tally.deq_calls,
        empties: tally.empties,
        ..Trial::default()
    };
    out.check_tally("warm-up", &warm);
    out.check_tally("timed", &tally);
    out.check("items received", spec.ops, tally.received);
    out.check("items left after drain", 0, drain(&queue));
    out.seg = queue.seg_counters();
    out
}

/// The two counts `native-stream`'s threads publish to each other, each
/// on a cache line of its own.
#[derive(Default)]
struct Flow {
    /// Items whose enqueue has returned.
    sent: CachePadded<AtomicU64>,
    /// Items the consumer has taken (or given up on).
    consumed: CachePadded<AtomicU64>,
}

/// A value alone on its cache line (two lines, against adjacent-line
/// prefetch), so the producer's and consumer's counters never share one.
#[derive(Default)]
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Items the consumer takes between two looks at `Flow::sent`, and
/// between two updates of `Flow::consumed`: one default segment.
const CHUNK: u64 = 32;

/// Takes `spec.ops` items `tag | 0, tag | 1, …` from `queue`, only ever
/// items whose enqueue has returned, keeping [`LOW_WATER`] of them queued
/// until the producer is done. An empty dequeue is a lost item.
fn stream_consumer<Q: HeapQueue>(
    queue: &Q,
    flow: &Flow,
    tag: u64,
    spec: &TrialSpec,
    tracer: &Tracer,
) -> Tally {
    let items = spec.ops;
    let mut t = Tally::default();
    let mut expected = 0u64;
    let mut taken = 0u64;
    while taken < items {
        let sent = flow.sent.load(Ordering::Acquire);
        let floor = if sent < items { LOW_WATER } else { 0 };
        let ready = (sent - taken).saturating_sub(floor);
        if ready == 0 {
            spin_loop();
            continue;
        }
        for _ in 0..ready.min(CHUNK) {
            let sample = spec.traced && t.deq_calls.is_multiple_of(SAMPLE);
            let start = if sample { tracer.now_ns() } else { 0 };
            let got = queue.dequeue();
            if sample {
                t.spans.push(sampled_span(tracer, Q::DEQ_SPAN, spec, start));
            }
            t.deq_calls += 1;
            taken += 1;
            match got {
                Some(v) if v & !SEQ_MASK != tag || v & SEQ_MASK >= items => t.foreign += 1,
                Some(v) => {
                    if v & SEQ_MASK != expected {
                        t.out_of_order += 1;
                    }
                    expected = (v & SEQ_MASK) + 1;
                    t.received += 1;
                }
                // Every one of these items' enqueues had returned, so an
                // empty queue here has lost one.
                None => {
                    t.empties += 1;
                    t.lost += 1;
                }
            }
        }
        flow.consumed.store(taken, Ordering::Release);
    }
    t
}

/// Pins the calling load thread to CPU `cpu` modulo the host's CPU
/// count, so that every trial runs its two threads on two different CPUs
/// instead of wherever the OS first places them: a stream whose threads
/// share one CPU runs in long time slices and measures the scheduler, not
/// the queue. Best effort: on failure the thread stays unpinned.
fn pin_to_cpu(cpu: usize) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut mask = [0u64; 16];
        let cpu = cpu % cpus.min(mask.len() * 64);
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: pid 0 names the calling thread, and `mask` is a live,
        // initialised buffer of exactly the size passed.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = cpu;
}

/// Seeded burst sizes in `1..=MAX_BURST` summing to exactly `items`.
fn bursts(seed: u64, items: u64) -> Vec<u64> {
    let mut state = seed;
    let mut left = items;
    let mut out = Vec::new();
    while left > 0 {
        state = splitmix64(state);
        let burst = (state % MAX_BURST + 1).min(left);
        out.push(burst);
        left -= burst;
    }
    out
}

fn drain<Q: HeapQueue>(queue: &Q) -> u64 {
    let mut n = 0;
    while queue.dequeue().is_some() {
        n += 1;
    }
    n
}

/// Which of the two native workloads to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Pairs,
    Stream,
}

/// One heap queue's trials, split by whether they were traced.
struct QueueRuns {
    name: &'static str,
    spans: [(&'static str, &'static str); 2],
    trial: fn(Shape, &TrialSpec, &Tracer) -> Trial,
    untraced: Vec<Trial>,
    traced: Vec<Trial>,
}

impl QueueRuns {
    fn of<Q: HeapQueue>() -> Self {
        QueueRuns {
            name: Q::NAME,
            spans: [("enqueue", Q::ENQ_SPAN), ("dequeue", Q::DEQ_SPAN)],
            trial: |shape, spec, tracer| match shape {
                Shape::Pairs => pairs_trial::<Q>(spec, tracer),
                Shape::Stream => stream_trial::<Q>(spec, tracer),
            },
            untraced: Vec::new(),
            traced: Vec::new(),
        }
    }
}

/// Runs rounds of one trial per queue (in rotating order) until
/// `params.seconds` have passed. With tracing on, rounds alternate
/// between traced and untraced, so the untraced ones give the overhead.
pub fn run(shape: Shape, params: &Params, tracer: &Tracer) -> Outcome {
    let (pairs, items, warm) = if params.smoke {
        (2_000, 4_000, 500)
    } else {
        (150_000, 300_000, 20_000)
    };
    let mut runs = [
        QueueRuns::of::<MsQueue<u64>>(),
        QueueRuns::of::<SegQueue<u64>>(),
        QueueRuns::of::<TwoLockQueue<u64>>(),
    ];
    let started = Instant::now();
    let mut round = 0u64;
    while round < 2 || started.elapsed().as_secs_f64() < params.seconds {
        let traced = tracer.enabled() && round % 2 == 1;
        for k in 0..runs.len() {
            let which = (round as usize + k) % runs.len();
            let spec = TrialSpec {
                seed: splitmix64(params.seed ^ splitmix64(round)),
                ops: if shape == Shape::Pairs { pairs } else { items },
                warm,
                traced,
                trial: round * runs.len() as u64 + which as u64,
                parent: tracer.next_id(),
            };
            let queue = &mut runs[which];
            let start_ns = tracer.now_ns();
            let result = (queue.trial)(shape, &spec, tracer);
            if traced {
                tracer.record(Span {
                    id: spec.parent,
                    parent: 0,
                    trial: spec.trial,
                    name: "bench.trial",
                    start_ns,
                    end_ns: tracer.now_ns(),
                });
                queue.traced.push(result);
            } else {
                queue.untraced.push(result);
            }
        }
        round += 1;
    }
    summarize(&runs, tracer)
}

fn summarize(runs: &[QueueRuns], tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut overheads = Vec::new();
    for queue in runs {
        let name = queue.name;
        let (mut deq_calls, mut empties) = (0, 0);
        for t in queue.untraced.iter().chain(&queue.traced) {
            out.setup_s.push(t.setup_s);
            out.attempted += t.ops;
            out.failed += t.failed;
            out.failures
                .extend(t.failures.iter().map(|f| format!("{name}: {f}")));
            deq_calls += t.deq_calls;
            empties += t.empties;
        }
        let mops = |trials: &[Trial]| median(&trials.iter().map(Trial::mops).collect::<Vec<_>>());
        let untraced = mops(&queue.untraced);
        out.e2e.push((format!("{name}_mops"), untraced, "Mop/s"));
        if tracer.enabled() {
            overheads.push(ratio(untraced, mops(&queue.traced)) * 100.0 - 100.0);
            for (op, span) in queue.spans {
                let d = tracer.durations(span);
                for p in [50, 99] {
                    out.layers.push((
                        format!("core.{name}.{op}_ns.p{p}"),
                        percentile(&d, p as f64),
                        "ns",
                    ));
                }
            }
            out.layers.push((
                format!("core.{name}.empty_dequeue_ratio"),
                ratio(empties as f64, deq_calls as f64),
                "ratio",
            ));
        }
    }
    if tracer.enabled() {
        // The segment queue's counters from its last traced trial: the
        // pool is per queue, the budget process-global.
        let seg = runs
            .iter()
            .find_map(|q| q.traced.last().and_then(|t| t.seg))
            .unwrap_or_default();
        out.layers.extend([
            (
                "core.seg.pool_reuse_ratio".to_string(),
                ratio(seg.pooled as f64, (seg.pooled + seg.allocated) as f64),
                "ratio",
            ),
            (
                "core.seg.segs_retired".to_string(),
                seg.retired as f64,
                "count",
            ),
            (
                "arena.budget_peak".to_string(),
                seg.budget_peak as f64,
                "count",
            ),
            (
                "arena.budget_denials".to_string(),
                seg.budget_denials as f64,
                "count",
            ),
        ]);
        out.overhead_pct = median(&overheads);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loses the 1000th item it is given.
    struct DropOne(MsQueue<u64>, AtomicU64);

    impl HeapQueue for DropOne {
        const NAME: &'static str = "drop_one";
        const ENQ_SPAN: &'static str = "test.enqueue";
        const DEQ_SPAN: &'static str = "test.dequeue";
        fn create() -> Self {
            DropOne(MsQueue::new(), AtomicU64::new(0))
        }
        fn enqueue(&self, value: u64) {
            if self.1.fetch_add(1, Ordering::Relaxed) != 1000 {
                self.0.enqueue(value);
            }
        }
        fn dequeue(&self) -> Option<u64> {
            self.0.dequeue()
        }
    }

    fn spec(ops: u64, traced: bool) -> TrialSpec {
        TrialSpec {
            seed: 7,
            ops,
            warm: 100,
            traced,
            ..TrialSpec::default()
        }
    }

    #[test]
    fn correct_queues_pass_the_oracle() {
        let tracer = Tracer::new(true);
        for t in [
            pairs_trial::<MsQueue<u64>>(&spec(3_000, true), &tracer),
            pairs_trial::<SegQueue<u64>>(&spec(3_000, false), &tracer),
            stream_trial::<TwoLockQueue<u64>>(&spec(5_000, true), &tracer),
            stream_trial::<SegQueue<u64>>(&spec(5_000, false), &tracer),
        ] {
            assert_eq!(t.failed, 0, "{:?}", t.failures);
        }
        assert!(!tracer.durations("core.ms.enqueue").is_empty());
    }

    #[test]
    fn a_queue_that_drops_one_item_raises_the_error_count() {
        let tracer = Tracer::new(false);
        // The warm-up's 100 × 2 items come first, so item 1000 is timed.
        let pairs = pairs_trial::<DropOne>(&spec(3_000, false), &tracer);
        assert!(pairs.failed > 0, "pairs: {:?}", pairs.failures);
        let stream = stream_trial::<DropOne>(&spec(5_000, false), &tracer);
        assert!(stream.failed > 0, "stream: {:?}", stream.failures);
    }

    #[test]
    fn a_loss_during_the_warm_up_is_a_failure_not_a_hang() {
        let tracer = Tracer::new(false);
        // Item 1000 falls in a 2 000-item warm-up.
        let mut lossy = spec(3_000, false);
        lossy.warm = 2_000;
        let pairs = pairs_trial::<DropOne>(&lossy, &tracer);
        assert!(pairs.failed > 0, "pairs: {:?}", pairs.failures);
        let stream = stream_trial::<DropOne>(&lossy, &tracer);
        assert!(stream.failed > 0, "stream: {:?}", stream.failures);
    }

    #[test]
    fn bursts_are_seeded_and_sum_to_the_item_count() {
        assert_eq!(bursts(3, 10_000), bursts(3, 10_000));
        assert_ne!(bursts(3, 10_000), bursts(4, 10_000));
        assert_eq!(bursts(3, 10_000).iter().sum::<u64>(), 10_000);
    }
}
