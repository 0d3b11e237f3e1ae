//! Sub-schema projection.
//!
//! Extract the fragment of a schema that a set of types depends on: the
//! named types plus their complete supertype closure (`⋃ PL`). Because
//! every derived term of a type is a function of its own inputs and the
//! types *above* it, the projection preserves every derived set of every
//! kept type — projection commutes with derivation. That is the modularity
//! dividend of the axiomatic model (and of minimality: the fragment worth
//! shipping to a design tool is the upward closure, nothing more), and the
//! tests pin it down.
//!
//! Identities are preserved: the projection tombstones everything outside
//! the closure instead of re-numbering, so `TypeId`/`PropId` handles remain
//! valid across the projection (the same discipline the rest of the crate
//! uses for drops).

use std::collections::BTreeSet;

use crate::config::Pointedness;
use crate::error::Result;
use crate::ids::TypeId;
use crate::model::Schema;

impl Schema {
    /// The upward closure of `types`: every member plus its complete
    /// supertype lattice.
    pub fn upward_closure(
        &self,
        types: impl IntoIterator<Item = TypeId>,
    ) -> Result<BTreeSet<TypeId>> {
        let mut out = BTreeSet::new();
        for t in types {
            out.extend(self.super_lattice(t)?.iter().copied());
        }
        Ok(out)
    }

    /// Project the schema onto the upward closure of `types`.
    ///
    /// The result is a valid schema in its own right: the axioms hold, and
    /// every kept type's `P`, `PL`, `N`, `H`, `I` are **identical** to the
    /// original's. The base type `⊥` is kept only if explicitly projected;
    /// otherwise the projection relaxes pointedness (a fragment has many
    /// leaves).
    pub fn project(&self, types: impl IntoIterator<Item = TypeId>) -> Result<Schema> {
        let keep = self.upward_closure(types)?;
        let mut out = self.clone();
        // Tombstone everything outside the closure.
        let drop_list: Vec<TypeId> = out.iter_types().filter(|t| !keep.contains(t)).collect();
        for t in &drop_list {
            let slot = out.types.make_mut(&out.obs, t.index());
            slot.alive = false;
            slot.pe.clear();
            slot.ne.clear();
            let name = slot.name.clone();
            out.live.remove(*t);
            out.by_name.remove(&out.obs, &name);
            out.derived.set(&out.obs, t.index(), Default::default());
        }
        // The keep-set is upward-closed, so no surviving type lists a dropped
        // one in `P_e`; still, the dropped types' own entries must vanish
        // from the reverse index — a wholesale rebuild is simplest here.
        out.rebuild_subtype_index();
        // Root/base bookkeeping.
        if let Some(r) = out.root {
            if !keep.contains(&r) {
                out.root = None;
            }
        }
        match out.base {
            Some(b) if keep.contains(&b) => {}
            _ => {
                out.base = None;
                out.config.pointedness = Pointedness::Open;
            }
        }
        // Inputs of kept types reference only kept types (P_e ⊆ PL ⊆ keep),
        // so a plain recomputation restores the full derived state.
        out.recompute_all();
        out.bump_version();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;
    use crate::oracle;

    fn university() -> Schema {
        let mut s = Schema::new(LatticeConfig::TIGUKAT);
        let object = s.add_root_type("T_object").unwrap();
        s.add_base_type("T_null").unwrap();
        let person = s.add_type("T_person", [object], []).unwrap();
        let tax = s.add_type("T_taxSource", [object], []).unwrap();
        s.define_property_on(person, "name").unwrap();
        s.define_property_on(tax, "taxBracket").unwrap();
        let student = s.add_type("T_student", [person], []).unwrap();
        let employee = s.add_type("T_employee", [person, tax], []).unwrap();
        s.add_type("T_teachingAssistant", [student, employee], [])
            .unwrap();
        s
    }

    #[test]
    fn projection_keeps_upward_closure_only() {
        let s = university();
        let employee = s.type_by_name("T_employee").unwrap();
        let p = s.project([employee]).unwrap();
        let kept: Vec<&str> = p.iter_types().map(|t| p.type_name(t).unwrap()).collect();
        assert_eq!(
            kept,
            vec!["T_object", "T_person", "T_taxSource", "T_employee"]
        );
        assert!(p.type_by_name("T_student").is_none());
        assert!(p.type_by_name("T_null").is_none());
    }

    #[test]
    fn projection_preserves_derived_state_of_kept_types() {
        let s = university();
        let employee = s.type_by_name("T_employee").unwrap();
        let p = s.project([employee]).unwrap();
        for t in p.iter_types() {
            assert_eq!(
                s.derived(t).unwrap(),
                p.derived(t).unwrap(),
                "projection must commute with derivation at {t}"
            );
            assert_eq!(s.type_name(t).unwrap(), p.type_name(t).unwrap());
        }
        assert!(p.verify().is_empty());
        assert!(oracle::check_schema(&p).is_empty());
    }

    #[test]
    fn projection_relaxes_pointedness_unless_base_kept() {
        let s = university();
        let employee = s.type_by_name("T_employee").unwrap();
        let p = s.project([employee]).unwrap();
        assert!(!p.config().is_pointed());
        assert_eq!(p.base(), None);
        // Projecting the base itself keeps the whole lattice pointed.
        let base = s.base().unwrap();
        let q = s.project([base]).unwrap();
        assert!(q.config().is_pointed());
        assert_eq!(q.type_count(), s.type_count());
        assert!(q.verify().is_empty());
    }

    #[test]
    fn projection_is_itself_evolvable() {
        let s = university();
        let employee = s.type_by_name("T_employee").unwrap();
        let mut p = s.project([employee]).unwrap();
        let contractor = p.add_type("T_contractor", [employee], []).unwrap();
        assert!(p
            .is_supertype_of(p.type_by_name("T_taxSource").unwrap(), contractor)
            .unwrap());
        assert!(p.verify().is_empty());
    }

    #[test]
    fn closure_of_multiple_seeds_unions() {
        let s = university();
        let student = s.type_by_name("T_student").unwrap();
        let tax = s.type_by_name("T_taxSource").unwrap();
        let closure = s.upward_closure([student, tax]).unwrap();
        assert_eq!(closure.len(), 4); // object, person, student, taxSource
        let p = s.project([student, tax]).unwrap();
        assert_eq!(p.type_count(), 4);
    }

    #[test]
    fn projecting_unknown_type_errors() {
        let s = university();
        let bogus = TypeId::from_index(99);
        assert!(s.project([bogus]).is_err());
    }
}
