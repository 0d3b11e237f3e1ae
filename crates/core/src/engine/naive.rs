//! The specification engine: Table 2, interpreted literally.
//!
//! Every type in the lattice is re-derived from scratch on every change, by
//! direct transliteration of Axioms 5–9 through the apply-all combinator
//! `α_x(f, T')` and the extended union `⋃` of [`crate::applyall`]. This is
//! deliberately unoptimized — it is the executable form of the paper's
//! formulas, against which the incremental engine is verified.
//!
//! The Axiom of Supertypes (Axiom 5) is implemented per its prose semantics:
//! "the set of immediate supertypes of a type `t` is exactly the subset of
//! the essential supertypes that cannot be reached indirectly through some
//! other type", i.e.
//!
//! ```text
//! P(t) = P_e(t) − ⋃ α_x(PL(x) − {x}, P_e(t))
//! ```
//!
//! The remaining axioms are:
//!
//! ```text
//! PL(t) = ⋃ α_x(PL(x), P(t)) ∪ {t}          (Axiom 6)
//! I(t)  = N(t) ∪ H(t)                        (Axiom 7)
//! N(t)  = N_e(t) − H(t)                      (Axiom 8)
//! H(t)  = ⋃ α_x(I(x), P(t))                  (Axiom 9)
//! ```
//!
//! Because `P(t)` refers to `PL` of the essential supertypes and `H(t)` to
//! `I` of the immediate supertypes, derivation proceeds in topological order
//! (supertypes first); acyclicity (Axiom 2) guarantees the order exists.

use std::sync::Arc;

use crate::bits::{PropSet, TypeSet};
use crate::ids::TypeId;
use crate::model::{DerivedType, Spine, TypeSlot};
use crate::obs::EvolveObs;

use super::{topo_order, ACYCLIC_MSG};

/// Re-derive every live type. Returns the number of per-type derivations.
pub(crate) fn derive_all(
    types: &Spine<TypeSlot>,
    derived: &mut Spine<DerivedType>,
    obs: &Option<Arc<EvolveObs>>,
) -> usize {
    let order = topo_order(types).expect(ACYCLIC_MSG);
    for &t in &order {
        let d = derive_one(types, derived, t);
        derived.set(obs, t.index(), d);
    }
    order.len()
}

/// Derive one type from the axioms, assuming all its essential supertypes
/// have already been derived.
fn derive_one(types: &Spine<TypeSlot>, derived: &Spine<DerivedType>, t: TypeId) -> DerivedType {
    let pe = &types[t.index()].pe;
    let ne = &types[t.index()].ne;

    // Axiom 5 (Supertypes):
    //   P(t) = P_e(t) − ⋃ α_x(PL(x) − {x}, P_e(t))
    // Membership of `s` in the extended union is equivalent to `s ∈ PL(x)`
    // for some *other* essential supertype `x` (the `− {x}` carve-out is the
    // `x != s` guard: `s ∈ PL(s)` alone never prunes `s`). Each probe is a
    // single word index + mask into the already-derived lattice.
    let mut p = TypeSet::new();
    for s in pe.iter() {
        let shadowed = pe
            .iter()
            .any(|x| x != s && derived[x.index()].pl.contains(s));
        if !shadowed {
            p.insert(s);
        }
    }

    // Axiom 6 (Supertype Lattice):
    //   PL(t) = ⋃ α_x(PL(x), P(t)) ∪ {t}
    let mut pl = TypeSet::new();
    pl.insert(t);
    for x in p.iter() {
        pl.union_with(&derived[x.index()].pl);
    }

    // Axiom 9 (Inheritance):
    //   H(t) = ⋃ α_x(I(x), P(t))
    let mut h = PropSet::new();
    for x in p.iter() {
        h.union_with(&derived[x.index()].iface);
    }

    // Axiom 8 (Nativeness):
    //   N(t) = N_e(t) − H(t)
    let mut n = ne.clone();
    n.subtract(&h);

    // Axiom 7 (Interface):
    //   I(t) = N(t) ∪ H(t)
    let mut iface = ne.clone();
    iface.union_with(&h);

    DerivedType { p, pl, n, h, iface }
}

#[cfg(test)]
mod tests {
    use crate::config::LatticeConfig;
    use crate::engine::EngineKind;
    use crate::Schema;
    use std::collections::BTreeSet;

    /// Build the Figure 1 lattice of the paper on the naive engine.
    fn figure1() -> Schema {
        let mut s = Schema::with_engine(LatticeConfig::default(), EngineKind::Naive);
        let object = s.add_root_type("T_object").unwrap();
        let person = s.add_type("T_person", [object], []).unwrap();
        let tax = s.add_type("T_taxSource", [object], []).unwrap();
        let student = s.add_type("T_student", [person], []).unwrap();
        let employee = s.add_type("T_employee", [person, tax], []).unwrap();
        s.add_type("T_teachingAssistant", [student, employee], [])
            .unwrap();
        s
    }

    #[test]
    fn figure1_immediate_supertypes() {
        let s = figure1();
        let ta = s.type_by_name("T_teachingAssistant").unwrap();
        let student = s.type_by_name("T_student").unwrap();
        let employee = s.type_by_name("T_employee").unwrap();
        // "P(T_teachingAssistant) = {T_student, T_employee}" (§2)
        assert_eq!(
            s.immediate_supertypes(ta).unwrap(),
            BTreeSet::from([student, employee])
        );
    }

    #[test]
    fn figure1_supertype_lattice_of_employee() {
        let s = figure1();
        let employee = s.type_by_name("T_employee").unwrap();
        let expect: BTreeSet<_> = ["T_employee", "T_person", "T_taxSource", "T_object"]
            .iter()
            .map(|n| s.type_by_name(n).unwrap())
            .collect();
        // "PL(T_employee) = {T_employee, T_person, T_taxSource, T_object}" (§2)
        assert_eq!(s.super_lattice(employee).unwrap(), expect);
    }

    #[test]
    fn redundant_essential_supertype_excluded_from_p() {
        // P_e(ta) also declares T_person and T_object essential; they are
        // reachable through T_student/T_employee so P keeps only the two.
        let mut s = figure1();
        let ta = s.type_by_name("T_teachingAssistant").unwrap();
        let person = s.type_by_name("T_person").unwrap();
        let object = s.type_by_name("T_object").unwrap();
        s.add_essential_supertype(ta, person).unwrap();
        s.add_essential_supertype(ta, object).unwrap();
        let student = s.type_by_name("T_student").unwrap();
        let employee = s.type_by_name("T_employee").unwrap();
        assert_eq!(
            s.immediate_supertypes(ta).unwrap(),
            BTreeSet::from([student, employee])
        );
        // But they are recorded as essential.
        assert!(s.essential_supertypes(ta).unwrap().contains(&person));
    }

    #[test]
    fn native_properties_exclude_inherited() {
        let mut s = figure1();
        let person = s.type_by_name("T_person").unwrap();
        let student = s.type_by_name("T_student").unwrap();
        let p = s.add_property("name");
        s.add_essential_property(person, p).unwrap();
        // Declaring the inherited property essential on the subtype does NOT
        // make it native there ("defining an already inherited property on a
        // type would not include the property in N, but would include it in
        // N_e", §2).
        s.add_essential_property(student, p).unwrap();
        assert!(s.essential_properties(student).unwrap().contains(&p));
        assert!(!s.native_properties(student).unwrap().contains(&p));
        assert!(s.inherited_properties(student).unwrap().contains(&p));
        assert!(s.interface(student).unwrap().contains(&p));
    }

    #[test]
    fn homonymous_properties_are_distinct() {
        // T_person and T_taxSource may both have native "name" properties
        // (§2); distinct PropIds keep them apart and the subtype inherits
        // both.
        let mut s = figure1();
        let person = s.type_by_name("T_person").unwrap();
        let tax = s.type_by_name("T_taxSource").unwrap();
        let employee = s.type_by_name("T_employee").unwrap();
        let n1 = s.add_property("name");
        let n2 = s.add_property("name");
        s.add_essential_property(person, n1).unwrap();
        s.add_essential_property(tax, n2).unwrap();
        let h = s.inherited_properties(employee).unwrap();
        assert!(h.contains(&n1) && h.contains(&n2));
        assert_eq!(s.props_by_name("name").count(), 2);
    }
}
