//! Static re-derivation of the §5 order-dependence contrast.
//!
//! The paper's §5 observation: under the axioms, dropping essential
//! supertypes is order-independent — each drop is a *row-local* edit of
//! one `P_e(t)` (with a canonical relink to `⊤` when the row empties) —
//! while Orion's OP4 relinks an emptied class to `P_e(S)`, the
//! superclasses of the *dropped parent*: a cross-row read that makes the
//! outcome depend on which drop ran first.
//!
//! This module re-derives that contrast **statically**. Both semantics
//! are evaluated symbolically on a captured copy of the `P_e` rows — no
//! schema is mutated, no engine runs, nothing is executed. For every
//! unordered pair of drops the two orders are evaluated under both
//! semantics; a pair whose Orion rows diverge (or where one order is
//! rejected and the other is not) is an order-dependence witness, with
//! the differing rows spelled out.
//!
//! The axiomatic side is evaluated with the same machinery purely as a
//! cross-check: it converges on every pair (the claim the commutativity
//! engine certifies from footprints, and which the bounded model checker
//! verifies exhaustively on small schemas).
//!
//! The same OP4 evaluator judges lint L5's adjacent drop pairs, on the
//! `P_e` rows of the symbolic shadow's pre-state.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use super::footprint::SymbolicState;
use crate::ids::TypeId;
use crate::model::Schema;

/// Which drop semantics a symbolic evaluation follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropSemantics {
    /// Axiomatic MT-DSR: remove `s` from `P_e(t)`; an emptied row relinks
    /// to the canonical root. Row-local.
    Axiomatic,
    /// Orion OP4: a last-edge drop relinks `P_e(t) := P_e(s)` (the
    /// *dropped parent's* row) unless `s` is `OBJECT`, which rejects.
    /// Cross-row.
    Orion,
}

/// The symbolic `P_e` table the contrast evaluates over.
type Rows = BTreeMap<TypeId, BTreeSet<TypeId>>;

/// One unordered pair of drops, evaluated in both orders under both
/// semantics.
#[derive(Debug, Clone)]
pub struct ContrastPair {
    /// Index of the first drop in the input list.
    pub a: usize,
    /// Index of the second drop.
    pub b: usize,
    /// Did the two Orion orders land on different rows (or differ in
    /// rejection)?
    pub orion_divergent: bool,
    /// Did the two axiomatic orders diverge? (Expected `false`; kept as a
    /// cross-check, never assumed.)
    pub axiomatic_divergent: bool,
    /// Human-readable account of the Orion divergence (empty when none).
    pub detail: String,
}

/// The full static contrast over a drop list.
#[derive(Debug, Clone)]
pub struct ContrastReport {
    /// Every unordered pair.
    pub pairs: Vec<ContrastPair>,
    /// Any Orion-divergent pair present?
    pub order_dependent: bool,
}

impl ContrastReport {
    /// The first Orion-divergent pair, if any.
    pub fn first_witness(&self) -> Option<&ContrastPair> {
        self.pairs.iter().find(|p| p.orion_divergent)
    }

    /// Render the report with type names resolved against `schema`.
    pub fn to_text(&self, schema: &Schema, drops: &[(TypeId, TypeId)]) -> String {
        use std::fmt::Write as _;
        let name = |t: TypeId| {
            schema
                .type_name(t)
                .map_or_else(|_| format!("{t}"), str::to_owned)
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "orion contrast: {} drop(s), {} pair(s), {}",
            drops.len(),
            self.pairs.len(),
            if self.order_dependent {
                "ORDER-DEPENDENT under OP4 semantics"
            } else {
                "order-independent even under OP4 semantics"
            }
        );
        for p in &self.pairs {
            if !p.orion_divergent && !p.axiomatic_divergent {
                continue;
            }
            let (t1, s1) = drops[p.a];
            let (t2, s2) = drops[p.b];
            let _ = writeln!(
                out,
                "  pair drop({},{}) / drop({},{}): orion {}, axiomatic {}",
                name(t1),
                name(s1),
                name(t2),
                name(s2),
                if p.orion_divergent {
                    "DIVERGES"
                } else {
                    "converges"
                },
                if p.axiomatic_divergent {
                    "DIVERGES (!)"
                } else {
                    "converges"
                }
            );
            for line in p.detail.lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        out
    }
}

/// Evaluate one drop on the symbolic rows. `Ok(())` mutates `rows`;
/// `Err` explains the rejection (the rows are left unchanged).
fn eval_drop(
    rows: &mut Rows,
    root: Option<TypeId>,
    t: TypeId,
    s: TypeId,
    semantics: DropSemantics,
) -> Result<(), String> {
    let row = rows.get(&t).ok_or_else(|| format!("{t} has no row"))?;
    if !row.contains(&s) {
        return Err(format!("{s} not in P_e({t})"));
    }
    let last = row.len() == 1;
    match semantics {
        DropSemantics::Orion => {
            if last {
                if Some(s) == root {
                    return Err("OP4 rejects dropping the last OBJECT edge".into());
                }
                // Cross-row read: C inherits the *dropped parent's* row.
                let parents = rows.get(&s).cloned().unwrap_or_default();
                rows.insert(t, parents);
            } else {
                rows.get_mut(&t).expect("checked").remove(&s);
            }
        }
        DropSemantics::Axiomatic => {
            let row = rows.get_mut(&t).expect("checked");
            row.remove(&s);
            if row.is_empty() {
                if let Some(r) = root {
                    if t != r {
                        row.insert(r);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Outcome of evaluating a fixed order: the final rows, or the rejection.
fn eval_order(
    initial: &Rows,
    root: Option<TypeId>,
    drops: &[(TypeId, TypeId)],
    semantics: DropSemantics,
) -> Result<Rows, String> {
    let mut rows = initial.clone();
    for &(t, s) in drops {
        eval_drop(&mut rows, root, t, s, semantics)?;
    }
    Ok(rows)
}

fn describe(rows: &Result<Rows, String>, schema: &Schema) -> String {
    let name = |t: TypeId| {
        schema
            .type_name(t)
            .map_or_else(|_| format!("{t}"), str::to_owned)
    };
    match rows {
        Err(e) => format!("rejected: {e}"),
        Ok(rows) => rows
            .iter()
            .map(|(t, pe)| {
                let pe: Vec<String> = pe.iter().map(|&s| name(s)).collect();
                format!("P_e({})={{{}}}", name(*t), pe.join(","))
            })
            .collect::<Vec<_>>()
            .join(" "),
    }
}

/// Statically contrast the axiomatic and Orion semantics of a drop list
/// against `schema`'s current `P_e` rows: every unordered pair of drops
/// is evaluated in both orders under both semantics, symbolically.
pub fn contrast_drop_orders(schema: &Schema, drops: &[(TypeId, TypeId)]) -> ContrastReport {
    let mut initial: Rows = BTreeMap::new();
    for t in schema.iter_types() {
        if let Ok(pe) = schema.essential_supertypes(t) {
            initial.insert(t, pe.clone());
        }
    }
    let root = schema.root();
    let mut pairs = Vec::new();
    for a in 0..drops.len() {
        for b in (a + 1)..drops.len() {
            let pair_of = |first: usize, second: usize, sem| {
                eval_order(&initial, root, &[drops[first], drops[second]], sem)
            };
            let diverges = |x: &Result<Rows, String>, y: &Result<Rows, String>| match (x, y) {
                (Ok(rx), Ok(ry)) => rx != ry,
                (Err(_), Err(_)) => false,
                _ => true,
            };
            let (o_ab, o_ba) = (
                pair_of(a, b, DropSemantics::Orion),
                pair_of(b, a, DropSemantics::Orion),
            );
            let (x_ab, x_ba) = (
                pair_of(a, b, DropSemantics::Axiomatic),
                pair_of(b, a, DropSemantics::Axiomatic),
            );
            let orion_divergent = diverges(&o_ab, &o_ba);
            let detail = if orion_divergent {
                format!(
                    "order a,b: {}\norder b,a: {}",
                    describe(&o_ab, schema),
                    describe(&o_ba, schema)
                )
            } else {
                String::new()
            };
            pairs.push(ContrastPair {
                a,
                b,
                orion_divergent,
                axiomatic_divergent: diverges(&x_ab, &x_ba),
                detail,
            });
        }
    }
    let order_dependent = pairs.iter().any(|p| p.orion_divergent);
    ContrastReport {
        pairs,
        order_dependent,
    }
}

/// Do both orders of the OP4 drop pair `a`, `b` apply to `state`'s `P_e`
/// rows and land on different rows? The evaluator reads the rows of the
/// at most four types the pair touches: each drop writes `P_e(t)` and
/// reads `P_e(s)`, so no other row can tell the two orders apart.
pub(crate) fn op4_orders_diverge(
    state: &SymbolicState,
    a: (TypeId, TypeId),
    b: (TypeId, TypeId),
) -> bool {
    let rows: Rows = [a.0, a.1, b.0, b.1]
        .into_iter()
        .filter(|t| state.is_live(t.index()))
        .map(|t| {
            let pe = state.supertypes(t.index()).map(TypeId::from_index);
            (t, pe.collect())
        })
        .collect();
    let root = state.root().map(TypeId::from_index);
    let orion = |drops: &[(TypeId, TypeId)]| eval_order(&rows, root, drops, DropSemantics::Orion);
    matches!((orion(&[a, b]), orion(&[b, a])), (Ok(ab), Ok(ba)) if ab != ba)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;

    /// The §5 fixture: C ⊑ {A, B}; under OP4 the second drop is a
    /// last-edge relink to the *remaining* parent's superclasses, so the
    /// two orders land C under PB vs under PA.
    fn sec5() -> (Schema, Vec<(TypeId, TypeId)>) {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let pa = s.add_type("PA", [], []).unwrap();
        let pb = s.add_type("PB", [], []).unwrap();
        let a = s.add_type("A", [pa], []).unwrap();
        let b = s.add_type("B", [pb], []).unwrap();
        let c = s.add_type("C", [a, b], []).unwrap();
        (s, vec![(c, a), (c, b)])
    }

    #[test]
    fn sec5_pair_diverges_under_orion_converges_axiomatically() {
        let (s, drops) = sec5();
        let report = contrast_drop_orders(&s, &drops);
        assert!(report.order_dependent);
        let w = report.first_witness().expect("witness pair");
        assert!(!w.axiomatic_divergent);
        assert!(
            w.detail.contains("P_e(C)={PB}") && w.detail.contains("P_e(C)={PA}"),
            "{}",
            w.detail
        );
        let text = report.to_text(&s, &drops);
        assert!(text.contains("ORDER-DEPENDENT"), "{text}");
    }

    #[test]
    fn non_last_edge_drops_converge_under_both() {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let pa = s.add_type("PA", [], []).unwrap();
        let pb = s.add_type("PB", [], []).unwrap();
        let d = s.add_type("D", [pa, pb], []).unwrap();
        let e = s.add_type("E", [pa, pb], []).unwrap();
        let report = contrast_drop_orders(&s, &[(d, pa), (e, pb)]);
        assert!(!report.order_dependent);
        assert!(report.pairs.iter().all(|p| !p.axiomatic_divergent));
    }

    #[test]
    fn last_object_edge_rejection_is_symmetric() {
        let mut s = Schema::new(LatticeConfig::default());
        let obj = s.add_root_type("obj").unwrap();
        let a = s.add_type("A", [], []).unwrap();
        let b = s.add_type("B", [], []).unwrap();
        // Both drops target last OBJECT edges: both orders reject the
        // respective op identically under OP4 → no divergence signal.
        let report = contrast_drop_orders(&s, &[(a, obj), (b, obj)]);
        assert!(!report.order_dependent, "{report:?}");
    }
}
