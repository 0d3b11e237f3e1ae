//! Lock-free metrics primitives: named counters and log-scale histograms.
//!
//! The registry is deliberately zero-dependency and allocation-light:
//! registration (name → handle) takes a mutex, but every *increment* is a
//! single atomic `fetch_add` on a pre-resolved [`Counter`] or [`Histogram`]
//! handle — the hot evolution paths never touch a lock or a map. All
//! atomics use `SeqCst` so cross-counter orderings a writer establishes
//! (e.g. "journal append is counted before publish") are observable by
//! concurrent readers polling [`MetricsRegistry::snapshot`]; the cost is
//! irrelevant next to the set algebra being measured.
//!
//! Determinism: none of these primitives read clocks or randomness, so on
//! a single writer thread (e.g. `MemIo` + a fixed trace) every count is a
//! pure function of the operation sequence — the test suites assert exact
//! equality of whole snapshots across runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::EngineStats;
use crate::journal::RecoveryReport;

use super::names;

/// A monotonically increasing counter. Cheap to clone the `Arc` handle;
/// increments are single atomic adds.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::SeqCst);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Number of power-of-two buckets in a [`Histogram`]: bucket 0 holds the
/// value 0; bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Lower bound of bucket `i` (see [`BUCKETS`]).
#[inline]
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A log-scale (power-of-two bucket) histogram of `u64` observations.
///
/// Observations are two atomic adds (bucket + running sum); the count is
/// derived from the buckets at snapshot time, so a snapshot is always
/// internally consistent (`count == Σ bucket counts`).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation of `v`.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::SeqCst);
        self.sum.fetch_add(v, Ordering::SeqCst);
    }

    /// A stable snapshot of the current buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for i in 0..BUCKETS {
            let c = self.buckets[i].load(Ordering::SeqCst);
            if c > 0 {
                count += c;
                buckets.push((bucket_lower(i), c));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::SeqCst),
            buckets,
        }
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of observations (`Σ` bucket counts — derived from the
    /// buckets themselves, so always consistent with them).
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty buckets as `(lower_bound, count)` pairs; bucket `[l, 2l)`
    /// for `l ≥ 1`, and the singleton `{0}` for `l = 0`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn bucket_label(lower: u64) -> String {
        if lower <= 1 {
            format!("{lower}")
        } else {
            format!("{lower}-{}", 2 * lower - 1)
        }
    }
}

/// A registry of named [`Counter`]s and [`Histogram`]s.
///
/// Components resolve their handles once (at attach time) and then count
/// lock-free; ad-hoc callers can use the name-based convenience methods.
/// Names are free-form but the evolution pipeline uses the fixed catalog
/// in [`names`](super::names).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it (at zero) if new.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// The histogram named `name`, registering it (empty) if new.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::default());
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Add `v` to the counter named `name` (registering it if new).
    pub fn add(&self, name: &str, v: u64) {
        self.counter(name).add(v);
    }

    /// Current value of the counter named `name` (0 if never registered).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.lock().get(name).map_or(0, |c| c.get())
    }

    /// Record `v` into the histogram named `name` (registering it if new).
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).observe(v);
    }

    /// Fold a schema's cumulative [`EngineStats`] into the `engine.*`
    /// counters — the bridge from the plain per-`Schema` counters to the
    /// registry (used by the CLI `stats` REPL command and the benchmark
    /// emitter; `last_types_derived` is a gauge, not a counter, and is not
    /// folded).
    pub fn fold_engine_stats(&self, stats: &EngineStats) {
        self.add(names::ENGINE_FULL, stats.full_recomputes);
        self.add(names::ENGINE_SCOPED, stats.scoped_recomputes);
        self.add(names::ENGINE_NOOP, stats.noop_recomputes);
        self.add(names::ENGINE_TYPES_DERIVED, stats.types_derived);
    }

    /// Fold a [`RecoveryReport`] into the `recovery.*` counters: records
    /// replayed, checkpoints skipped as damaged, and the salvaged
    /// (dropped) tail, byte-for-byte.
    pub fn fold_recovery(&self, report: &RecoveryReport) {
        self.add(names::RECOVERY_REPLAYED, report.replayed as u64);
        self.add(
            names::RECOVERY_SKIPPED_CHECKPOINTS,
            report.skipped_checkpoints.len() as u64,
        );
        if let Some(tail) = &report.dropped_tail {
            self.add(names::RECOVERY_DROPPED_TAILS, 1);
            self.add(names::RECOVERY_DROPPED_BYTES, tail.bytes as u64);
        }
    }

    /// Fold a [`TraceAnalysis`](crate::analysis::TraceAnalysis) into the
    /// `analysis.*` counters: one trace, its op and pair-verdict counts,
    /// its independence classes, and whether the whole trace was
    /// certified order-independent.
    pub fn fold_trace_analysis(&self, analysis: &crate::analysis::TraceAnalysis) {
        self.add(names::ANALYSIS_TRACES, 1);
        self.add(names::ANALYSIS_OPS, analysis.len() as u64);
        self.add(names::ANALYSIS_PAIRS_COMMUTE, analysis.commuting as u64);
        self.add(names::ANALYSIS_PAIRS_CONFLICT, analysis.conflicting as u64);
        self.add(
            names::ANALYSIS_PAIRS_CONSTRAINED,
            analysis.constrained as u64,
        );
        self.add(names::ANALYSIS_CLASSES, analysis.classes.len() as u64);
        if analysis.certified {
            self.add(names::ANALYSIS_CERTIFIED, 1);
        }
    }

    /// Fold a successful [`PlanCheck`](crate::analysis::plan::PlanCheck)
    /// into the `plan.*` counters. All inputs are plan *structure* — the
    /// counters are independent of execution order, so every run of one
    /// plan produces identical snapshots.
    pub fn fold_plan_check(&self, verdict: &crate::analysis::plan::PlanCheck) {
        self.add(names::PLAN_CHECKS, 1);
        self.add(names::PLAN_STAGES, verdict.stages as u64);
        self.add(names::PLAN_CLASSES, verdict.classes as u64);
        self.add(names::PLAN_MAX_PARALLELISM, verdict.max_parallelism as u64);
    }

    /// Fold an [`ImpactCertificate`](crate::analysis::ImpactCertificate)
    /// into the `impact.*` counters: one analysis, its per-level op
    /// counts, and its obligation totals. Purely structural — identical
    /// traces produce identical snapshots.
    pub fn fold_impact(&self, cert: &crate::analysis::ImpactCertificate) {
        self.add(names::IMPACT_ANALYSES, 1);
        self.add(names::IMPACT_OPS, cert.op_count as u64);
        let [preserving, extending, refining, destructive] = cert.level_counts();
        self.add(names::IMPACT_PRESERVING, preserving as u64);
        self.add(names::IMPACT_EXTENDING, extending as u64);
        self.add(names::IMPACT_REFINING, refining as u64);
        self.add(names::IMPACT_DESTRUCTIVE, destructive as u64);
        self.add(names::IMPACT_OBLIGATIONS, cert.obligations.len() as u64);
        self.add(names::IMPACT_GUARDED, cert.guarded_obligations() as u64);
    }

    /// Count one certificate re-verification by `impact::check`;
    /// `accepted` is whether the checker accepted it.
    pub fn fold_impact_check(&self, accepted: bool) {
        self.add(names::IMPACT_CHECKS, 1);
        if !accepted {
            self.add(names::IMPACT_CHECKS_FAILED, 1);
        }
    }

    /// A stable point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`], in stable
/// (lexicographic) name order. Comparable with `==` — the determinism
/// suites assert snapshot equality across runs of the same trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// All counters by name.
    pub counters: BTreeMap<String, u64>,
    /// All histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Render as human-readable text, one metric per line, stable order.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "counters:");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  {name:<32} {v}");
        }
        let _ = writeln!(out, "histograms:");
        for (name, h) in &self.histograms {
            let mut buckets = String::new();
            for (lower, c) in &h.buckets {
                let _ = write!(
                    buckets,
                    " {}:{}",
                    HistogramSnapshot::bucket_label(*lower),
                    c
                );
            }
            let _ = writeln!(
                out,
                "  {name:<32} count={} sum={} buckets:{}",
                h.count,
                h.sum,
                if buckets.is_empty() {
                    " (empty)".to_string()
                } else {
                    buckets
                }
            );
        }
        out
    }

    /// Render as a single-line JSON object with stable key order.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{name:?}:{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{name:?}:{{\"count\":{},\"sum\":{}", h.count, h.sum);
            out.push_str(",\"buckets\":[");
            for (j, (lower, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lower},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let r = MetricsRegistry::new();
        let c = r.counter("a");
        c.inc();
        c.add(4);
        assert_eq!(r.get("a"), 5);
        // Same name resolves to the same counter.
        r.counter("a").inc();
        assert_eq!(c.get(), 6);
        assert_eq!(r.get("never"), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 4, 7, 8, 1024] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 9);
        assert_eq!(s.sum, 1050);
        assert_eq!(
            s.buckets,
            vec![(0, 1), (1, 2), (2, 2), (4, 2), (8, 1), (1024, 1)]
        );
    }

    #[test]
    fn snapshot_is_stable_and_comparable() {
        let r = MetricsRegistry::new();
        r.add("z.second", 2);
        r.add("a.first", 1);
        r.observe("h", 3);
        let s1 = r.snapshot();
        let s2 = r.snapshot();
        assert_eq!(s1, s2);
        let text = s1.to_text();
        // Lexicographic order regardless of registration order.
        assert!(text.find("a.first").unwrap() < text.find("z.second").unwrap());
        let json = s1.to_json();
        assert!(json.starts_with("{\"counters\":{\"a.first\":1,\"z.second\":2}"));
        assert!(json.contains("\"h\":{\"count\":1,\"sum\":3,\"buckets\":[[2,1]]}"));
    }

    #[test]
    fn fold_engine_stats_mirrors_counters() {
        let r = MetricsRegistry::new();
        let stats = EngineStats {
            full_recomputes: 2,
            scoped_recomputes: 7,
            noop_recomputes: 1,
            types_derived: 40,
            last_types_derived: 3,
        };
        r.fold_engine_stats(&stats);
        assert_eq!(r.get(names::ENGINE_FULL), 2);
        assert_eq!(r.get(names::ENGINE_SCOPED), 7);
        assert_eq!(r.get(names::ENGINE_NOOP), 1);
        assert_eq!(r.get(names::ENGINE_TYPES_DERIVED), 40);
    }

    #[test]
    fn fold_impact_mirrors_certificate_structure() {
        use crate::config::LatticeConfig;
        use crate::history::RecordedOp;
        use crate::model::Schema;

        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let a = s.add_type("a", [], []).unwrap();
        let p = s.define_property_on(a, "x").unwrap();
        let q = s.add_property("y");
        let ops = vec![
            RecordedOp::AddEssentialProperty { t: a, p: q },
            RecordedOp::DropProperty { p },
        ];
        let ia = crate::analysis::impact::analyze(&s, &ops);

        let r = MetricsRegistry::new();
        r.fold_impact(&ia.certificate);
        assert_eq!(r.get(names::IMPACT_ANALYSES), 1);
        assert_eq!(r.get(names::IMPACT_OPS), 2);
        assert_eq!(r.get(names::IMPACT_EXTENDING), 1);
        assert_eq!(r.get(names::IMPACT_DESTRUCTIVE), 1);
        assert_eq!(r.get(names::IMPACT_OBLIGATIONS), 1);
        assert_eq!(r.get(names::IMPACT_GUARDED), 1);

        r.fold_impact_check(crate::analysis::impact::check(&s, &ops, &ia.certificate).is_ok());
        assert_eq!(r.get(names::IMPACT_CHECKS), 1);
        assert_eq!(r.get(names::IMPACT_CHECKS_FAILED), 0);
        let mut bad = ia.certificate.clone();
        bad.initial_fingerprint ^= 1;
        r.fold_impact_check(crate::analysis::impact::check(&s, &ops, &bad).is_ok());
        assert_eq!(r.get(names::IMPACT_CHECKS), 2);
        assert_eq!(r.get(names::IMPACT_CHECKS_FAILED), 1);
    }
}
