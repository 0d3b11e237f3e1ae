//! Set-up shared by every workload, plus the small helpers the workloads
//! use to report: a seeded RNG, an input digest, percentiles and the
//! result record.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use axiombase_core::journal::wire::encode_op;
use axiombase_core::{EngineKind, LatticeConfig, RecordedOp, Schema};
use axiombase_workload::{LatticeGen, OpMix};

/// Size-neutral op mix: equal add and drop weights per kind, so the
/// lattice stays near its starting size however long a run lasts (with
/// `OpMix::BALANCED` it doubles within 40 migrations, and per-op cost
/// grows with it).
pub const MIX: OpMix = OpMix {
    add_type: 2,
    drop_type: 2,
    add_edge: 2,
    drop_edge: 2,
    add_prop: 3,
    drop_prop: 3,
};

/// The base lattice every workload starts from: 1,000 types under the
/// Orion configuration with the incremental engine.
pub fn base_lattice(seed: u64) -> (Schema, Vec<axiombase_core::TypeId>) {
    let g = LatticeGen {
        types: 1000,
        max_parents: 3,
        props_per_type: 1.5,
        redeclare_prob: 0.1,
        seed,
    }
    .generate(LatticeConfig::ORION, EngineKind::Incremental);
    (g.schema, g.types)
}

/// splitmix64: a seeded stream for the benchmark's own choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `tag`.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a digest of a workload's generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in a number.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mix in a trace, op by op, in its journal text form.
    pub fn ops(&mut self, ops: &[RecordedOp]) {
        self.u64(ops.len() as u64);
        for op in ops {
            self.bytes(encode_op(op).as_bytes());
            self.bytes(b"\n");
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile `q` (0..=100) of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// Percentile of the `*_tail_*` metrics. On a 2-vCPU Xeon VM shared with
/// other tenants the p99s of `online` moved by up to 5x between runs of
/// the same code, its p90s far less; the report still prints p95, p99
/// and p99.9 with the sample count.
pub const TAIL: f64 = 90.0;

/// Median and tail of one timing, as reported.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Samples.
    pub n: usize,
    /// Median, ns.
    pub p50_ns: u64,
    /// Tail percentile used.
    pub tail_q: f64,
    /// Tail value, ns.
    pub tail_ns: u64,
    /// p90, p95, p99 and p99.9, ns, for the report.
    pub ladder: [u64; 4],
}

impl Timing {
    /// Summarise `samples` (ns) with the fixed tail percentile `tail_q`.
    pub fn of(samples: &mut [u64], tail_q: f64) -> Timing {
        samples.sort_unstable();
        Timing {
            n: samples.len(),
            p50_ns: percentile(samples, 50.0),
            tail_q,
            tail_ns: percentile(samples, tail_q),
            ladder: [90.0, 95.0, 99.0, 99.9].map(|q| percentile(samples, q)),
        }
    }

    /// Does the tail have at least ten samples beyond it?
    pub fn tail_supported(&self) -> bool {
        beyond(self.n, self.tail_q) >= 10
    }
}

/// Median of a small set of durations.
pub fn median_secs(v: &[Duration]) -> f64 {
    let mut s: Vec<f64> = v.iter().map(Duration::as_secs_f64).collect();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests and operations the workload issued.
    pub attempted: u64,
    /// Of those, the ones that failed or were refused.
    pub failed: u64,
    /// Oracle mismatches; the run is incorrect if any.
    pub problems: Vec<String>,
    /// Metrics for the final result line.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Digest of the generated inputs.
    pub digest: u64,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record an oracle mismatch.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Add a report line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Report a timing under the workload's own name, with its count.
    pub fn timing_line(&mut self, name: &str, t: &Timing, unit_ns: f64, unit: &str) {
        let tail = if t.tail_supported() {
            String::new()
        } else {
            format!(" [fewer than 10 samples beyond p{}]", t.tail_q)
        };
        let [p90, p95, p99, p999] = t.ladder.map(|v| v as f64 / unit_ns);
        self.line(format!(
            "{name}: p50 {:.4} {unit}, p{} {:.4} {unit} (n={}){tail}; p90 {p90:.4} p95 {p95:.4} p99 {p99:.4} p99.9 {p999:.4}",
            t.p50_ns as f64 / unit_ns,
            t.tail_q,
            t.tail_ns as f64 / unit_ns,
            t.n
        ));
    }
}

/// Probe medians, in ns, that define the reference machine speed: about
/// the two kernels' medians on the 2-vCPU Xeon (Sapphire Rapids) VM the
/// benchmark was tuned on, in its faster phases. Only the scale of the
/// normalised metrics depends on them.
const NOMINAL_HEAP_NS: f64 = 550_000.0;
/// See [`NOMINAL_HEAP_NS`].
const NOMINAL_CHASE_NS: f64 = 300_000.0;
/// Minimum spacing of probes.
const PROBE_EVERY: Duration = Duration::from_millis(40);
/// Entries in the chase kernel's cycle: 256 KiB of `u32`, inside a core's
/// L2, so its cost does not depend on where the workload left the TLB.
const CHASE_ENTRIES: usize = 1 << 16;

/// Heap kernel: 3,000 ordered-map inserts of small heap vectors, a scan
/// and a drop, so it allocates and chases pointers like the program.
fn heap_kernel() -> u64 {
    let t0 = Instant::now();
    let mut m = BTreeMap::new();
    let mut x = 0x1234_5678u64;
    for i in 0..3000u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        m.insert(z ^ (z >> 27), vec![i; 6]);
    }
    black_box(m.iter().fold(0u64, |a, (k, v)| a ^ k ^ v[0]));
    drop(m);
    t0.elapsed().as_nanos() as u64
}

/// Chase kernel: a walk of a random cycle through a buffer allocated
/// once, with integer mixing per step; an untimed walk first brings the
/// buffer back into cache.
fn chase_kernel(cycle: &[u32]) -> u64 {
    let walk = || {
        let mut i = 0u32;
        let mut acc = 0u64;
        for _ in 0..cycle.len() {
            i = cycle[i as usize];
            acc = (acc ^ u64::from(i))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17);
        }
        acc
    };
    black_box(walk());
    let t0 = Instant::now();
    black_box(walk());
    t0.elapsed().as_nanos() as u64
}

/// Machine-speed calibration. A shared VM's speed drifts by up to ~2x
/// over minutes with no change in code (other tenants share the host),
/// which no bound of 25% survives. Workloads call [`Calibration::tick`]
/// between requests; each tick times two kernels owned by the benchmark,
/// so their cost does not depend on the program under test, and the
/// end-to-end times are scaled by the geometric mean of `nominal / median`
/// over both, i.e. reported at the reference machine speed. Raw values
/// and the factor are printed alongside.
///
/// Neither kernel alone tracks every workload: in slow phases the heap
/// kernel slowed 1.7x while `online` slowed 1.3x, and the chase kernel
/// 1.35x while `restart` slowed 2x. The kernels run on a thread of their
/// own, which the caller waits for, so they allocate from that thread's
/// heap: the heap a workload leaves behind (100k objects, freed schemas)
/// made the heap kernel ten times slower on the workload's thread.
#[derive(Debug)]
pub struct Calibration {
    ask: Option<mpsc::Sender<()>>,
    answer: mpsc::Receiver<(u64, u64)>,
    worker: Option<JoinHandle<()>>,
    heap: Vec<u64>,
    chase: Vec<u64>,
    next: Instant,
    /// Time spent probing, which the caller leaves out of throughput.
    pub spent: Duration,
}

impl Default for Calibration {
    fn default() -> Self {
        let (ask, asked) = mpsc::channel::<()>();
        let (answer_tx, answer) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            // Sattolo's shuffle: one cycle through every entry.
            let mut cycle: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
            let mut rng = Rng::new(0x5eed, 0);
            for i in (1..CHASE_ENTRIES).rev() {
                let j = rng.below(i);
                cycle.swap(i, j);
            }
            for () in asked {
                let sample = (heap_kernel(), chase_kernel(&cycle));
                if answer_tx.send(sample).is_err() {
                    break;
                }
            }
        });
        Calibration {
            ask: Some(ask),
            answer,
            worker: Some(worker),
            heap: Vec::new(),
            chase: Vec::new(),
            next: Instant::now(),
            spent: Duration::ZERO,
        }
    }
}

impl Drop for Calibration {
    fn drop(&mut self) {
        // Closing the channel ends the probe thread; wait for it.
        self.ask.take();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

fn median(v: &[u64]) -> u64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    percentile(&s, 50.0)
}

impl Calibration {
    /// Probe if the last probe is at least 40 ms old.
    pub fn tick(&mut self) {
        if Instant::now() < self.next {
            return;
        }
        let began = Instant::now();
        let got = self
            .ask
            .as_ref()
            .and_then(|a| a.send(()).ok())
            .and_then(|()| self.answer.recv().ok());
        if let Some((heap, chase)) = got {
            self.heap.push(heap);
            self.chase.push(chase);
        }
        self.spent += began.elapsed();
        self.next = Instant::now() + PROBE_EVERY;
    }

    /// Factor that scales a time measured in this run to the reference
    /// machine speed (1.0 without samples).
    pub fn factor(&self) -> f64 {
        match (median(&self.heap), median(&self.chase)) {
            (0, _) | (_, 0) => 1.0,
            (h, c) => (NOMINAL_HEAP_NS / h as f64 * NOMINAL_CHASE_NS / c as f64).sqrt(),
        }
    }

    /// Report line.
    pub fn line(&self) -> String {
        format!(
            "calibration: heap kernel median {:.1} us, chase kernel median {:.1} us (n={}); end-to-end times scaled by {:.4} to the reference speed ({:.0} us, {:.0} us)",
            median(&self.heap) as f64 / 1e3,
            median(&self.chase) as f64 / 1e3,
            self.heap.len(),
            self.factor(),
            NOMINAL_HEAP_NS / 1e3,
            NOMINAL_CHASE_NS / 1e3,
        )
    }
}

/// Nanoseconds per millisecond and per microsecond.
pub const MS: f64 = 1e6;
/// See [`MS`].
pub const US: f64 = 1e3;
