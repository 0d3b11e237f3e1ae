//! Independent reference oracle for the soundness and completeness theorems.
//!
//! Theorems 2.1 and 2.2 state that, assuming `P_e(t)` and `N_e(t)` are sound
//! and complete, the axioms produce sound and complete `P(t)`, `PL(t)`,
//! `I(t)`, `N(t)` and `H(t)` (proof by induction on maximal path lengths to
//! the root). To check this mechanically we need a *specification that does
//! not share code with the engines*. This module derives each term by
//! first-principles graph reasoning on the raw `P_e` relation:
//!
//! * `PL(t)` is the reflexive–transitive closure of the `P_e` edge relation
//!   starting from `t`. (Equivalent to Axiom 6 because the union of the
//!   lattices of the *immediate* supertypes equals the union over all
//!   *essential* supertypes: any essential supertype pruned by Axiom 5 is
//!   reachable through a retained, PL-maximal one.)
//! * `P(t)` is the set of maximal elements of `P_e(t)` under the
//!   reachability order — essential supertypes not reachable from another.
//! * `I(t) = ⋃_{s ∈ PL(t)} N_e(s)` — everything declared essential anywhere
//!   above (or at) `t` is visible at `t`.
//! * `H(t) = ⋃_{s ∈ PL(t) − {t}} N_e(s)` and `N(t) = N_e(t) − H(t)`.
//!
//! Soundness of the engines = derived ⊆ oracle; completeness = oracle ⊆
//! derived. The property-test suite checks equality (both inclusions) over
//! random lattices and random operation traces.

use std::collections::BTreeSet;

use crate::error::Result;
use crate::ids::{PropId, TypeId};
use crate::model::Schema;

/// Reference (specification) values for the derived terms of one type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleDerived {
    /// Specification of `P(t)`.
    pub p: BTreeSet<TypeId>,
    /// Specification of `PL(t)`.
    pub pl: BTreeSet<TypeId>,
    /// Specification of `N(t)`.
    pub n: BTreeSet<PropId>,
    /// Specification of `H(t)`.
    pub h: BTreeSet<PropId>,
    /// Specification of `I(t)`.
    pub iface: BTreeSet<PropId>,
}

/// Compute the reference derivation of `t` from the schema *inputs* only
/// (`P_e`, `N_e`), by brute-force reachability.
pub fn derive(schema: &Schema, t: TypeId) -> Result<OracleDerived> {
    schema.check_live(t)?;
    let pl = reachable_up(schema, t);

    // P(t): maximal elements of P_e(t) — not reachable from another member.
    let pe = schema.essential_supertypes(t)?;
    let mut p = BTreeSet::new();
    'cand: for &s in &pe {
        for &x in &pe {
            if x != s && reachable_up(schema, x).contains(&s) {
                continue 'cand;
            }
        }
        p.insert(s);
    }

    let mut h: BTreeSet<PropId> = BTreeSet::new();
    for &s in &pl {
        if s != t {
            h.extend(schema.essential_properties(s)?.iter().copied());
        }
    }
    let ne = schema.essential_properties(t)?;
    let n: BTreeSet<PropId> = ne.difference(&h).copied().collect();
    let iface: BTreeSet<PropId> = n.union(&h).copied().collect();

    Ok(OracleDerived { p, pl, n, h, iface })
}

/// Reflexive–transitive closure of the `P_e` edge relation from `t`
/// (iterative DFS; the input graph is acyclic for any schema built through
/// `ops`, but the traversal guards against revisits regardless).
fn reachable_up(schema: &Schema, t: TypeId) -> BTreeSet<TypeId> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![t];
    while let Some(x) = stack.pop() {
        if !seen.insert(x) {
            continue;
        }
        if let Ok(pe) = schema.essential_supertypes(x) {
            stack.extend(pe.iter().copied());
        }
    }
    seen
}

/// Check every live type of `schema` against the oracle. Returns the types
/// whose engine-derived state differs from the specification (empty =
/// sound **and** complete).
pub fn check_schema(schema: &Schema) -> Vec<TypeId> {
    let mut bad = Vec::new();
    for t in schema.iter_types() {
        let spec = derive(schema, t).expect("live type");
        let got = schema.derived(t).expect("live type");
        if got.p.to_btree() != spec.p
            || got.pl.to_btree() != spec.pl
            || got.n.to_btree() != spec.n
            || got.h.to_btree() != spec.h
            || got.iface.to_btree() != spec.iface
        {
            bad.push(t);
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;
    use crate::engine::EngineKind;
    use crate::Schema;

    fn figure1(engine: EngineKind) -> Schema {
        let mut s = Schema::with_engine(LatticeConfig::default(), engine);
        let object = s.add_root_type("T_object").unwrap();
        let person = s.add_type("T_person", [object], []).unwrap();
        let tax = s.add_type("T_taxSource", [object], []).unwrap();
        let student = s.add_type("T_student", [person], []).unwrap();
        let employee = s.add_type("T_employee", [person, tax], []).unwrap();
        s.add_type("T_teachingAssistant", [student, employee], [])
            .unwrap();
        let name = s.add_property("name");
        s.add_essential_property(person, name).unwrap();
        let salary = s.add_property("salary");
        s.add_essential_property(employee, salary).unwrap();
        s
    }

    #[test]
    fn both_engines_sound_and_complete_on_figure1() {
        for engine in [EngineKind::Naive, EngineKind::Incremental] {
            let s = figure1(engine);
            assert!(check_schema(&s).is_empty(), "{engine:?}");
        }
    }

    #[test]
    fn oracle_matches_worked_example() {
        let s = figure1(EngineKind::Naive);
        let employee = s.type_by_name("T_employee").unwrap();
        let spec = derive(&s, employee).unwrap();
        let names: BTreeSet<&str> = spec.pl.iter().map(|&t| s.type_name(t).unwrap()).collect();
        assert_eq!(
            names,
            BTreeSet::from(["T_employee", "T_person", "T_taxSource", "T_object"])
        );
    }

    #[test]
    fn oracle_detects_forged_derivation() {
        let mut s = figure1(EngineKind::Incremental);
        let ta = s.type_by_name("T_teachingAssistant").unwrap();
        // Forge an extra member of PL(ta) that reachability does not justify.
        let ghost = s.add_type("Ghost", [], []).unwrap();
        s.derived.make_mut(&None, ta.index()).pl.insert(ghost);
        assert_eq!(check_schema(&s), vec![ta]);
    }

    #[test]
    fn oracle_respects_essential_adoption() {
        let mut s = figure1(EngineKind::Incremental);
        let tax = s.type_by_name("T_taxSource").unwrap();
        let employee = s.type_by_name("T_employee").unwrap();
        let bracket = s.define_property_on(tax, "taxBracket").unwrap();
        s.add_essential_property(employee, bracket).unwrap();
        s.drop_type(tax).unwrap();
        let spec = derive(&s, employee).unwrap();
        assert!(spec.n.contains(&bracket));
        assert!(check_schema(&s).is_empty());
    }
}
