//! Seeded operation-trace generation: the dynamic half of the workload.
//!
//! An evolution trace is a weighted random mix of the paper's schema-change
//! operations applied to a live schema. Used by the engine-ablation and
//! propagation benchmarks; the same `(mix, seed)` pair always produces the
//! same trace.
//!
//! The generator is written against the [`EvolveSink`] trait so the same
//! seeded decision stream can either mutate a [`Schema`] directly
//! ([`apply_random_ops`]) or be *recorded* as a replayable
//! [`RecordedOp`] trace ([`generate_trace`], in one batch, or
//! [`record_random_ops`], op by op into a [`History`]) — the recovery
//! tests use the recorded form as the oracle for crash-point sweeps: the
//! recorded ops are exactly the successful operations, in order, so any
//! prefix of the trace is a valid evolution path.

use axiombase_core::history::History;
use axiombase_core::{PropId, RecordedOp, Schema, SchemaError, TypeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Relative weights for each operation kind in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// AT — add a type under 1–2 random parents.
    pub add_type: u32,
    /// DT — drop a random non-frozen, non-root/base type.
    pub drop_type: u32,
    /// MT-ASR — add a random essential supertype edge.
    pub add_edge: u32,
    /// MT-DSR — drop a random essential supertype edge.
    pub drop_edge: u32,
    /// MT-AB — declare a (fresh or existing) property essential on a type.
    pub add_prop: u32,
    /// MT-DB — drop a random essential property from a type.
    pub drop_prop: u32,
}

impl OpMix {
    /// A balanced mix exercising every operation.
    pub const BALANCED: OpMix = OpMix {
        add_type: 3,
        drop_type: 1,
        add_edge: 2,
        drop_edge: 2,
        add_prop: 4,
        drop_prop: 2,
    };

    /// Property-churn-heavy mix (the engineering-design scenario of the
    /// paper's introduction: components keep changing shape).
    pub const PROPERTY_CHURN: OpMix = OpMix {
        add_type: 1,
        drop_type: 0,
        add_edge: 0,
        drop_edge: 0,
        add_prop: 6,
        drop_prop: 4,
    };

    /// Lattice-churn-heavy mix (restructuring-dominated evolution).
    pub const LATTICE_CHURN: OpMix = OpMix {
        add_type: 2,
        drop_type: 2,
        add_edge: 4,
        drop_edge: 4,
        add_prop: 1,
        drop_prop: 0,
    };

    fn total(&self) -> u32 {
        self.add_type
            + self.drop_type
            + self.add_edge
            + self.drop_edge
            + self.add_prop
            + self.drop_prop
    }
}

/// Outcome counters for an applied trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Operations that mutated the schema.
    pub applied: usize,
    /// Operations rejected by the paper's rules (cycles, root edges, …).
    pub rejected: usize,
    /// Operations skipped because no applicable target existed.
    pub skipped: usize,
}

/// Where the trace generator sends its operations: a plain [`Schema`]
/// (mutate in place), a [`History`] (mutate *and* record), or
/// [`generate_trace`]'s recorder (mutate in one batch and record). Every
/// target sees identical guard reads, so the seeded decision stream —
/// and therefore the resulting schema — is the same either way.
pub trait EvolveSink {
    /// The schema the generator's pick/guard logic reads.
    fn schema(&self) -> &Schema;
    /// AT.
    fn add_type(&mut self, name: String, supers: Vec<TypeId>) -> Result<(), SchemaError>;
    /// DT.
    fn drop_type(&mut self, t: TypeId) -> Result<(), SchemaError>;
    /// MT-ASR.
    fn add_edge(&mut self, t: TypeId, s: TypeId) -> Result<(), SchemaError>;
    /// MT-DSR.
    fn drop_edge(&mut self, t: TypeId, s: TypeId) -> Result<(), SchemaError>;
    /// Introduce a property.
    fn add_property(&mut self, name: String) -> PropId;
    /// MT-AB.
    fn add_essential_property(&mut self, t: TypeId, p: PropId) -> Result<(), SchemaError>;
    /// MT-DB.
    fn drop_essential_property(&mut self, t: TypeId, p: PropId) -> Result<(), SchemaError>;
}

impl EvolveSink for Schema {
    fn schema(&self) -> &Schema {
        self
    }
    fn add_type(&mut self, name: String, supers: Vec<TypeId>) -> Result<(), SchemaError> {
        Schema::add_type(self, name, supers, []).map(|_| ())
    }
    fn drop_type(&mut self, t: TypeId) -> Result<(), SchemaError> {
        Schema::drop_type(self, t).map(|_| ())
    }
    fn add_edge(&mut self, t: TypeId, s: TypeId) -> Result<(), SchemaError> {
        self.add_essential_supertype(t, s)
    }
    fn drop_edge(&mut self, t: TypeId, s: TypeId) -> Result<(), SchemaError> {
        self.drop_essential_supertype(t, s)
    }
    fn add_property(&mut self, name: String) -> PropId {
        Schema::add_property(self, name)
    }
    fn add_essential_property(&mut self, t: TypeId, p: PropId) -> Result<(), SchemaError> {
        Schema::add_essential_property(self, t, p).map(|_| ())
    }
    fn drop_essential_property(&mut self, t: TypeId, p: PropId) -> Result<(), SchemaError> {
        Schema::drop_essential_property(self, t, p)
    }
}

impl EvolveSink for History {
    fn schema(&self) -> &Schema {
        History::schema(self)
    }
    fn add_type(&mut self, name: String, supers: Vec<TypeId>) -> Result<(), SchemaError> {
        History::add_type(self, name, supers, []).map(|_| ())
    }
    fn drop_type(&mut self, t: TypeId) -> Result<(), SchemaError> {
        History::drop_type(self, t).map(|_| ())
    }
    fn add_edge(&mut self, t: TypeId, s: TypeId) -> Result<(), SchemaError> {
        self.add_essential_supertype(t, s)
    }
    fn drop_edge(&mut self, t: TypeId, s: TypeId) -> Result<(), SchemaError> {
        self.drop_essential_supertype(t, s)
    }
    fn add_property(&mut self, name: String) -> PropId {
        History::add_property(self, name)
    }
    fn add_essential_property(&mut self, t: TypeId, p: PropId) -> Result<(), SchemaError> {
        History::add_essential_property(self, t, p).map(|_| ())
    }
    fn drop_essential_property(&mut self, t: TypeId, p: PropId) -> Result<(), SchemaError> {
        History::drop_essential_property(self, t, p)
    }
}

/// Apply `n` random operations drawn from `mix` to `schema`. Rejections
/// (per the paper's rules) are counted, not errors.
pub fn apply_random_ops(schema: &mut Schema, n: usize, mix: OpMix, seed: u64) -> TraceStats {
    run_random_ops(schema, n, mix, seed)
}

/// Apply `n` random operations to a recording [`History`]: the same
/// decision stream as [`apply_random_ops`], with every successful
/// operation recorded in the history's replayable log.
pub fn record_random_ops(history: &mut History, n: usize, mix: OpMix, seed: u64) -> TraceStats {
    run_random_ops(history, n, mix, seed)
}

/// Generate a replayable trace from `base`: the successful operations of
/// an `n`-op seeded run, in order. Replaying any prefix of the returned
/// ops onto a copy of `base` is a valid evolution path — the oracle the
/// crash-recovery tests compare against.
///
/// The run is one [`Schema::evolve_batch`] on a copy of `base`, so the
/// schema is derived once, after the last op, and the ops are recorded
/// as [`History`] would record them. Every pick and every verdict reads
/// inputs only (see [`apply_random_ops_batched`]), so the trace and the
/// stats are exactly what [`record_random_ops`] records op by op.
pub fn generate_trace(
    base: &Schema,
    n: usize,
    mix: OpMix,
    seed: u64,
) -> (Vec<RecordedOp>, TraceStats) {
    base.clone()
        .evolve_batch(|schema| {
            let mut rec = Recorder {
                schema,
                ops: Vec::new(),
            };
            let stats = run_random_ops(&mut rec, n, mix, seed);
            Ok((rec.ops, stats))
        })
        .expect("trace generation classifies rejections instead of failing")
}

/// Mutates a schema in place and records each successful operation as
/// the [`RecordedOp`] that [`History`] records for it.
struct Recorder<'a> {
    schema: &'a mut Schema,
    ops: Vec<RecordedOp>,
}

impl Recorder<'_> {
    /// Apply `op`, and record it if it applied.
    fn apply(&mut self, op: RecordedOp) -> Result<(), SchemaError> {
        op.apply(self.schema)?;
        self.ops.push(op);
        Ok(())
    }
}

impl EvolveSink for Recorder<'_> {
    fn schema(&self) -> &Schema {
        self.schema
    }
    fn add_type(&mut self, name: String, supers: Vec<TypeId>) -> Result<(), SchemaError> {
        self.apply(RecordedOp::AddType {
            name,
            supers,
            props: Vec::new(),
        })
    }
    fn drop_type(&mut self, t: TypeId) -> Result<(), SchemaError> {
        self.apply(RecordedOp::DropType { t })
    }
    fn add_edge(&mut self, t: TypeId, s: TypeId) -> Result<(), SchemaError> {
        self.apply(RecordedOp::AddEssentialSupertype { t, s })
    }
    fn drop_edge(&mut self, t: TypeId, s: TypeId) -> Result<(), SchemaError> {
        self.apply(RecordedOp::DropEssentialSupertype { t, s })
    }
    fn add_property(&mut self, name: String) -> PropId {
        let p = self.schema.add_property(name.clone());
        self.ops.push(RecordedOp::AddProperty { name });
        p
    }
    fn add_essential_property(&mut self, t: TypeId, p: PropId) -> Result<(), SchemaError> {
        // Recorded only when `N_e` changed, as `History` does.
        if self.schema.add_essential_property(t, p)? {
            self.ops.push(RecordedOp::AddEssentialProperty { t, p });
        }
        Ok(())
    }
    fn drop_essential_property(&mut self, t: TypeId, p: PropId) -> Result<(), SchemaError> {
        self.apply(RecordedOp::DropEssentialProperty { t, p })
    }
}

/// Apply the same seeded trace as [`apply_random_ops`], but inside a single
/// [`Schema::evolve_batch`] — one scoped recomputation amortized over all
/// `n` operations instead of one per mutation.
///
/// The generator and the operation guards read only designer inputs
/// (`P_e`/`N_e`, names, liveness), which are always current mid-batch, so
/// accept/reject decisions — and therefore the final schema fingerprint —
/// are identical to the op-by-op replay. A proptest pins this equivalence
/// on both engines.
pub fn apply_random_ops_batched(
    schema: &mut Schema,
    n: usize,
    mix: OpMix,
    seed: u64,
) -> TraceStats {
    schema
        .evolve_batch(|s| Ok(apply_random_ops(s, n, mix, seed)))
        .expect("trace replay classifies rejections instead of failing")
}

fn run_random_ops<S: EvolveSink>(sink: &mut S, n: usize, mix: OpMix, seed: u64) -> TraceStats {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tag = format!("{seed:x}");
    let mut stats = TraceStats::default();
    let total = mix.total().max(1);
    let mut fresh = 0u64;

    for _ in 0..n {
        let mut pick = rng.gen_range(0..total);
        let mut take = |w: u32| {
            if pick < w {
                true
            } else {
                pick -= w;
                false
            }
        };
        let outcome = if take(mix.add_type) {
            op_add_type(sink, &mut rng, &mut fresh, &tag)
        } else if take(mix.drop_type) {
            op_drop_type(sink, &mut rng)
        } else if take(mix.add_edge) {
            op_add_edge(sink, &mut rng)
        } else if take(mix.drop_edge) {
            op_drop_edge(sink, &mut rng)
        } else if take(mix.add_prop) {
            op_add_prop(sink, &mut rng, &mut fresh, &tag)
        } else {
            op_drop_prop(sink, &mut rng)
        };
        match outcome {
            Outcome::Applied => stats.applied += 1,
            Outcome::Rejected => stats.rejected += 1,
            Outcome::Skipped => stats.skipped += 1,
        }
    }
    stats
}

enum Outcome {
    Applied,
    Rejected,
    Skipped,
}

fn classify(r: Result<(), SchemaError>) -> Outcome {
    match r {
        Ok(()) => Outcome::Applied,
        Err(SchemaError::WouldCreateCycle { .. })
        | Err(SchemaError::SelfSupertype(_))
        | Err(SchemaError::RootEdgeDrop { .. })
        | Err(SchemaError::BaseEdgeDrop { .. })
        | Err(SchemaError::DuplicateSupertype { .. })
        | Err(SchemaError::SubtypeOfBase(_))
        | Err(SchemaError::CannotDropRoot(_))
        | Err(SchemaError::CannotDropBase(_))
        | Err(SchemaError::FrozenType(_)) => Outcome::Rejected,
        Err(e) => panic!("trace generator produced an invalid operation: {e}"),
    }
}

fn pick_type(schema: &Schema, rng: &mut SmallRng) -> Option<TypeId> {
    // Same pick as indexing a collected live list (the iterator is the
    // ascending live set), without materializing the list per op.
    let n = schema.type_count();
    if n == 0 {
        None
    } else {
        schema.iter_types().nth(rng.gen_range(0..n))
    }
}

fn pick_droppable(schema: &Schema, rng: &mut SmallRng) -> Option<TypeId> {
    let live: Vec<TypeId> = schema
        .iter_types()
        .filter(|&t| Some(t) != schema.root() && Some(t) != schema.base() && !schema.is_frozen(t))
        .collect();
    if live.is_empty() {
        None
    } else {
        Some(live[rng.gen_range(0..live.len())])
    }
}

fn op_add_type<S: EvolveSink>(
    sink: &mut S,
    rng: &mut SmallRng,
    fresh: &mut u64,
    tag: &str,
) -> Outcome {
    let mut parents = Vec::new();
    for _ in 0..rng.gen_range(1..=2u32) {
        if let Some(t) = pick_type(sink.schema(), rng) {
            if Some(t) != sink.schema().base() && !parents.contains(&t) {
                parents.push(t);
            }
        }
    }
    *fresh += 1;
    let name = format!("trace_{tag}_t{fresh}");
    if sink.schema().type_by_name(&name).is_some() {
        return Outcome::Skipped; // same (seed, counter) replayed on this schema
    }
    classify(sink.add_type(name, parents))
}

fn op_drop_type<S: EvolveSink>(sink: &mut S, rng: &mut SmallRng) -> Outcome {
    match pick_droppable(sink.schema(), rng) {
        Some(t) => classify(sink.drop_type(t)),
        None => Outcome::Skipped,
    }
}

fn op_add_edge<S: EvolveSink>(sink: &mut S, rng: &mut SmallRng) -> Outcome {
    match (pick_type(sink.schema(), rng), pick_type(sink.schema(), rng)) {
        (Some(t), Some(s)) if t != s => classify(sink.add_edge(t, s)),
        _ => Outcome::Skipped,
    }
}

fn op_drop_edge<S: EvolveSink>(sink: &mut S, rng: &mut SmallRng) -> Outcome {
    let Some(t) = pick_type(sink.schema(), rng) else {
        return Outcome::Skipped;
    };
    let pe: Vec<TypeId> = sink
        .schema()
        .essential_supertypes(t)
        .expect("live")
        .iter()
        .copied()
        .collect();
    if pe.is_empty() {
        return Outcome::Skipped;
    }
    let s = pe[rng.gen_range(0..pe.len())];
    classify(sink.drop_edge(t, s))
}

fn op_add_prop<S: EvolveSink>(
    sink: &mut S,
    rng: &mut SmallRng,
    fresh: &mut u64,
    tag: &str,
) -> Outcome {
    let Some(t) = pick_type(sink.schema(), rng) else {
        return Outcome::Skipped;
    };
    // 70% fresh property, 30% redeclare an existing one.
    let p = if rng.gen_bool(0.7) {
        *fresh += 1;
        sink.add_property(format!("trace_{tag}_p{fresh}"))
    } else {
        let n = sink.schema().prop_count();
        if n == 0 {
            *fresh += 1;
            sink.add_property(format!("trace_{tag}_p{fresh}"))
        } else {
            let k = rng.gen_range(0..n);
            sink.schema().iter_props().nth(k).expect("k < live count")
        }
    };
    classify(sink.add_essential_property(t, p))
}

fn op_drop_prop<S: EvolveSink>(sink: &mut S, rng: &mut SmallRng) -> Outcome {
    let Some(t) = pick_type(sink.schema(), rng) else {
        return Outcome::Skipped;
    };
    let ne: Vec<PropId> = sink
        .schema()
        .essential_properties(t)
        .expect("live")
        .iter()
        .copied()
        .collect();
    if ne.is_empty() {
        return Outcome::Skipped;
    }
    let p = ne[rng.gen_range(0..ne.len())];
    classify(sink.drop_essential_property(t, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::LatticeGen;
    use axiombase_core::{oracle, EngineKind, LatticeConfig};

    #[test]
    fn traces_preserve_axioms_and_oracle() {
        for seed in 0..3 {
            let mut out = LatticeGen {
                types: 40,
                seed,
                ..Default::default()
            }
            .generate(LatticeConfig::TIGUKAT, EngineKind::Incremental);
            let stats = apply_random_ops(&mut out.schema, 200, OpMix::BALANCED, seed ^ 0xABCD);
            assert!(stats.applied > 0);
            assert!(out.schema.verify().is_empty());
            assert!(oracle::check_schema(&out.schema).is_empty());
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let build = || {
            let mut out = LatticeGen {
                types: 30,
                seed: 5,
                ..Default::default()
            }
            .generate(LatticeConfig::ORION, EngineKind::Incremental);
            apply_random_ops(&mut out.schema, 100, OpMix::LATTICE_CHURN, 99);
            out.schema.fingerprint()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn batched_replay_matches_op_by_op() {
        for seed in 0..3 {
            let gen = LatticeGen {
                types: 40,
                seed,
                ..Default::default()
            };
            let mut single = gen.generate(LatticeConfig::TIGUKAT, EngineKind::Incremental);
            let mut batched = gen.generate(LatticeConfig::TIGUKAT, EngineKind::Incremental);
            let s1 = apply_random_ops(&mut single.schema, 150, OpMix::BALANCED, seed ^ 0x5EED);
            batched.schema.reset_stats();
            let s2 =
                apply_random_ops_batched(&mut batched.schema, 150, OpMix::BALANCED, seed ^ 0x5EED);
            assert_eq!(s1, s2, "outcome counters must agree");
            assert_eq!(single.schema.fingerprint(), batched.schema.fingerprint());
            let st = batched.schema.stats();
            assert_eq!(
                st.scoped_recomputes + st.full_recomputes + st.noop_recomputes,
                1,
                "the whole batch shares one recomputation"
            );
            assert!(batched.schema.verify().is_empty());
        }
    }

    #[test]
    fn property_churn_mix_never_drops_types() {
        let mut out = LatticeGen {
            types: 20,
            seed: 1,
            ..Default::default()
        }
        .generate(LatticeConfig::ORION, EngineKind::Incremental);
        let before = out.schema.type_count();
        apply_random_ops(&mut out.schema, 100, OpMix::PROPERTY_CHURN, 3);
        // add_type weight 1 can only grow the count; drop_type weight 0.
        assert!(out.schema.type_count() >= before);
    }

    #[test]
    fn recorded_trace_matches_direct_application() {
        // The recording sink must take the same decisions as the direct
        // one, and replaying the recorded ops must land on the same schema.
        for seed in 0..3 {
            let gen = LatticeGen {
                types: 30,
                seed,
                ..Default::default()
            };
            let mut direct = gen.generate(LatticeConfig::TIGUKAT, EngineKind::Incremental);
            let base = gen
                .generate(LatticeConfig::TIGUKAT, EngineKind::Incremental)
                .schema;
            let s1 = apply_random_ops(&mut direct.schema, 120, OpMix::BALANCED, seed ^ 0xFACE);
            let (ops, s2) = generate_trace(&base, 120, OpMix::BALANCED, seed ^ 0xFACE);
            assert_eq!(s1, s2, "decision streams must agree");
            // Property introductions are recorded but not classified, so
            // the log is at least as long as the applied count.
            assert!(ops.len() >= s2.applied, "{} < {}", ops.len(), s2.applied);

            let mut replayed = base.clone();
            let n = replayed.apply_trace(&ops).unwrap();
            assert_eq!(n, ops.len());
            assert_eq!(replayed.fingerprint(), direct.schema.fingerprint());
            // And every prefix is a valid evolution path.
            let mut prefix = base.clone();
            for op in &ops {
                op.apply(&mut prefix).unwrap();
                assert!(prefix.verify().is_empty());
            }
        }
    }
}
