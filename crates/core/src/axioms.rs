//! The nine axioms of Table 2 as executable checks.
//!
//! Each checker validates the corresponding axiom against a schema's inputs
//! (`P_e`, `N_e`) and derived state (`P`, `PL`, `N`, `H`, `I`), returning
//! structured [`AxiomViolation`]s. [`Schema::verify`] runs all nine.
//!
//! On any schema reachable through [`crate::ops`] the checks always pass —
//! that is the soundness/completeness story made executable, and the
//! property tests sweep it across random operation traces. The checkers
//! still earn their keep: they validate deserialized snapshots, externally
//! constructed reductions (Orion, GemStone, …), and the deliberately broken
//! schemas of the `table2_axioms` harness.

use std::collections::BTreeSet;

use crate::applyall::union_apply_all;
use crate::ids::{PropId, TypeId};
use crate::model::Schema;

/// Identifies one of the paper's nine axioms (numbered as in Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Axiom {
    /// (1) Types in `T` have supertypes in `T`.
    Closure,
    /// (2) There are no cycles in the type lattice.
    Acyclicity,
    /// (3) A single type `⊤` is the supertype of all types.
    Rootedness,
    /// (4) A single type `⊥` is the subtype of all types.
    Pointedness,
    /// (5) `P(t)` is exactly the essential supertypes not reachable through
    /// another.
    Supertypes,
    /// (6) `PL(t) = {t} ∪ ⋃ PL(x), x ∈ P(t)`.
    SupertypeLattice,
    /// (7) `I(t) = N(t) ∪ H(t)`.
    Interface,
    /// (8) `N(t) = N_e(t) − H(t)`.
    Nativeness,
    /// (9) `H(t) = ⋃ I(x), x ∈ P(t)`.
    Inheritance,
}

impl Axiom {
    /// All nine axioms in Table 2 order.
    pub const ALL: [Axiom; 9] = [
        Axiom::Closure,
        Axiom::Acyclicity,
        Axiom::Rootedness,
        Axiom::Pointedness,
        Axiom::Supertypes,
        Axiom::SupertypeLattice,
        Axiom::Interface,
        Axiom::Nativeness,
        Axiom::Inheritance,
    ];

    /// The paper's name for the axiom ("Axiom of …").
    pub fn name(self) -> &'static str {
        match self {
            Axiom::Closure => "Closure",
            Axiom::Acyclicity => "Acyclicity",
            Axiom::Rootedness => "Rootedness",
            Axiom::Pointedness => "Pointedness",
            Axiom::Supertypes => "Supertypes",
            Axiom::SupertypeLattice => "Supertype Lattice",
            Axiom::Interface => "Interface",
            Axiom::Nativeness => "Nativeness",
            Axiom::Inheritance => "Inheritance",
        }
    }

    /// Equation number in Table 2.
    pub fn number(self) -> u8 {
        match self {
            Axiom::Closure => 1,
            Axiom::Acyclicity => 2,
            Axiom::Rootedness => 3,
            Axiom::Pointedness => 4,
            Axiom::Supertypes => 5,
            Axiom::SupertypeLattice => 6,
            Axiom::Interface => 7,
            Axiom::Nativeness => 8,
            Axiom::Inheritance => 9,
        }
    }
}

impl std::fmt::Display for Axiom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Axiom of {}", self.name())
    }
}

/// A concrete violation of an axiom at a specific type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiomViolation {
    /// Which axiom is violated.
    pub axiom: Axiom,
    /// The type at which the violation manifests (`None` for global shape
    /// violations such as a missing root).
    pub at: Option<TypeId>,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for AxiomViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.at {
            Some(t) => write!(f, "{} violated at {t}: {}", self.axiom, self.detail),
            None => write!(f, "{} violated: {}", self.axiom, self.detail),
        }
    }
}

impl Schema {
    /// Run all nine axiom checks. An empty result means the schema satisfies
    /// the axiomatization. Shape axioms (Rootedness/Pointedness) are only
    /// enforced when the [`crate::LatticeConfig`] demands them.
    pub fn verify(&self) -> Vec<AxiomViolation> {
        let mut v = Vec::new();
        v.extend(self.check_axiom(Axiom::Closure));
        v.extend(self.check_axiom(Axiom::Acyclicity));
        if self.config.is_rooted() {
            v.extend(self.check_axiom(Axiom::Rootedness));
        }
        if self.config.is_pointed() {
            v.extend(self.check_axiom(Axiom::Pointedness));
        }
        for ax in [
            Axiom::Supertypes,
            Axiom::SupertypeLattice,
            Axiom::Interface,
            Axiom::Nativeness,
            Axiom::Inheritance,
        ] {
            v.extend(self.check_axiom(ax));
        }
        v
    }

    /// Check a single axiom. Unlike [`Schema::verify`], shape axioms are
    /// checked even if the configuration relaxes them (useful for the
    /// Table 2 harness, which reports Orion as satisfying Rootedness but not
    /// Pointedness regardless of enforcement).
    pub fn check_axiom(&self, axiom: Axiom) -> Vec<AxiomViolation> {
        match axiom {
            Axiom::Closure => self.check_closure(),
            Axiom::Acyclicity => self.check_acyclicity(),
            Axiom::Rootedness => self.check_rootedness(),
            Axiom::Pointedness => self.check_pointedness(),
            Axiom::Supertypes => self.check_supertypes(),
            Axiom::SupertypeLattice => self.check_supertype_lattice(),
            Axiom::Interface => self.check_interface(),
            Axiom::Nativeness => self.check_nativeness(),
            Axiom::Inheritance => self.check_inheritance(),
        }
    }

    /// Axiom 1 — Closure: `∀t ∈ T, P_e(t) ⊆ T`. Every essential supertype
    /// must be a live type.
    fn check_closure(&self) -> Vec<AxiomViolation> {
        let mut v = Vec::new();
        for t in self.iter_types() {
            for s in self.types[t.index()].pe.iter() {
                if !self.is_live(s) {
                    v.push(AxiomViolation {
                        axiom: Axiom::Closure,
                        at: Some(t),
                        detail: format!("P_e({t}) references non-member {s}"),
                    });
                }
            }
        }
        v
    }

    /// Axiom 2 — Acyclicity: `∀t ∈ T, t ∉ ⋃ α_x(PL(x), P(t))`. No type may
    /// appear in the supertype lattice of any of its supertypes.
    fn check_acyclicity(&self) -> Vec<AxiomViolation> {
        let mut v = Vec::new();
        for t in self.iter_types() {
            let above: BTreeSet<TypeId> = union_apply_all(
                |x: TypeId| self.derived[x.index()].pl.to_btree(),
                self.derived[t.index()].p.iter(),
            );
            if above.contains(&t) {
                v.push(AxiomViolation {
                    axiom: Axiom::Acyclicity,
                    at: Some(t),
                    detail: format!("{t} occurs in the supertype lattice of its own supertypes"),
                });
            }
        }
        // The derived PL can mask an input cycle (the engine cannot even
        // derive a cyclic lattice); check the inputs directly as well.
        if crate::engine::topo_order(&self.types).is_none() {
            v.push(AxiomViolation {
                axiom: Axiom::Acyclicity,
                at: None,
                detail: "the P_e graph contains a cycle".into(),
            });
        }
        v
    }

    /// Axiom 3 — Rootedness: `∃!⊤ ∈ T, ∀t ∈ T: ⊤ ∈ PL(t) ∧ P(⊤) = {}`.
    fn check_rootedness(&self) -> Vec<AxiomViolation> {
        let candidates: Vec<TypeId> = self
            .iter_types()
            .filter(|&r| {
                self.derived[r.index()].p.is_empty()
                    && self
                        .iter_types()
                        .all(|t| self.derived[t.index()].pl.contains(r))
            })
            .collect();
        match candidates.as_slice() {
            [_one] => Vec::new(),
            [] if self.type_count() == 0 => Vec::new(),
            [] => vec![AxiomViolation {
                axiom: Axiom::Rootedness,
                at: None,
                detail: "no type is a supertype of all types".into(),
            }],
            many => vec![AxiomViolation {
                axiom: Axiom::Rootedness,
                at: None,
                detail: format!("multiple root candidates: {many:?}"),
            }],
        }
    }

    /// Axiom 4 — Pointedness: `∃!⊥ ∈ T, ∀t ∈ T: t ∈ PL(⊥)`.
    fn check_pointedness(&self) -> Vec<AxiomViolation> {
        let all: crate::bits::TypeSet = self.iter_types().collect();
        let candidates: Vec<TypeId> = self
            .iter_types()
            .filter(|&b| self.derived[b.index()].pl == all)
            .collect();
        match candidates.as_slice() {
            [_one] => Vec::new(),
            [] if all.is_empty() => Vec::new(),
            [] => vec![AxiomViolation {
                axiom: Axiom::Pointedness,
                at: None,
                detail: "no type is a subtype of all types".into(),
            }],
            many => vec![AxiomViolation {
                axiom: Axiom::Pointedness,
                at: None,
                detail: format!("multiple base candidates: {many:?}"),
            }],
        }
    }

    /// Axiom 5 — Supertypes:
    /// `P(t) = P_e(t) − ⋃ α_x(PL(x) − {x}, P_e(t))`.
    fn check_supertypes(&self) -> Vec<AxiomViolation> {
        let mut v = Vec::new();
        for t in self.iter_types() {
            let pe = &self.types[t.index()].pe;
            let reachable: BTreeSet<TypeId> = union_apply_all(
                |x: TypeId| {
                    let mut pl = self.derived[x.index()].pl.to_btree();
                    pl.remove(&x);
                    pl
                },
                pe.iter(),
            );
            let expect: BTreeSet<TypeId> = pe.iter().filter(|s| !reachable.contains(s)).collect();
            let got = self.derived[t.index()].p.to_btree();
            if got != expect {
                v.push(AxiomViolation {
                    axiom: Axiom::Supertypes,
                    at: Some(t),
                    detail: format!("P({t}) = {got:?}, axiom requires {expect:?}"),
                });
            }
        }
        v
    }

    /// Axiom 6 — Supertype Lattice: `PL(t) = ⋃ α_x(PL(x), P(t)) ∪ {t}`.
    fn check_supertype_lattice(&self) -> Vec<AxiomViolation> {
        let mut v = Vec::new();
        for t in self.iter_types() {
            let mut expect: BTreeSet<TypeId> = union_apply_all(
                |x: TypeId| self.derived[x.index()].pl.to_btree(),
                self.derived[t.index()].p.iter(),
            );
            expect.insert(t);
            let got = self.derived[t.index()].pl.to_btree();
            if got != expect {
                v.push(AxiomViolation {
                    axiom: Axiom::SupertypeLattice,
                    at: Some(t),
                    detail: format!("PL({t}) = {got:?}, axiom requires {expect:?}"),
                });
            }
        }
        v
    }

    /// Axiom 7 — Interface: `I(t) = N(t) ∪ H(t)`.
    fn check_interface(&self) -> Vec<AxiomViolation> {
        let mut v = Vec::new();
        for t in self.iter_types() {
            let d = &self.derived[t.index()];
            let mut expect = d.n.clone();
            expect.union_with(&d.h);
            if d.iface != expect {
                v.push(AxiomViolation {
                    axiom: Axiom::Interface,
                    at: Some(t),
                    detail: format!(
                        "I({t}) = {:?}, axiom requires {:?}",
                        d.iface.to_btree(),
                        expect.to_btree()
                    ),
                });
            }
        }
        v
    }

    /// Axiom 8 — Nativeness: `N(t) = N_e(t) − H(t)`.
    fn check_nativeness(&self) -> Vec<AxiomViolation> {
        let mut v = Vec::new();
        for t in self.iter_types() {
            let d = &self.derived[t.index()];
            let mut expect = self.types[t.index()].ne.clone();
            expect.subtract(&d.h);
            if d.n != expect {
                v.push(AxiomViolation {
                    axiom: Axiom::Nativeness,
                    at: Some(t),
                    detail: format!(
                        "N({t}) = {:?}, axiom requires {:?}",
                        d.n.to_btree(),
                        expect.to_btree()
                    ),
                });
            }
        }
        v
    }

    /// Axiom 9 — Inheritance: `H(t) = ⋃ α_x(I(x), P(t))`.
    fn check_inheritance(&self) -> Vec<AxiomViolation> {
        let mut v = Vec::new();
        for t in self.iter_types() {
            let expect: BTreeSet<PropId> = union_apply_all(
                |x: TypeId| self.derived[x.index()].iface.to_btree(),
                self.derived[t.index()].p.iter(),
            );
            let got = self.derived[t.index()].h.to_btree();
            if got != expect {
                v.push(AxiomViolation {
                    axiom: Axiom::Inheritance,
                    at: Some(t),
                    detail: format!("H({t}) = {got:?}, axiom requires {expect:?}"),
                });
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;
    use crate::Schema;

    fn tigukat_like() -> Schema {
        let mut s = Schema::new(LatticeConfig::TIGUKAT);
        let root = s.add_root_type("T_object").unwrap();
        s.add_base_type("T_null").unwrap();
        let a = s.add_type("A", [root], []).unwrap();
        s.add_type("B", [a], []).unwrap();
        s
    }

    #[test]
    fn well_formed_schema_satisfies_all_axioms() {
        let s = tigukat_like();
        assert!(s.verify().is_empty(), "{:?}", s.verify());
        for ax in Axiom::ALL {
            assert!(s.check_axiom(ax).is_empty(), "{ax}");
        }
    }

    #[test]
    fn empty_schema_is_vacuously_valid() {
        let s = Schema::new(LatticeConfig::TIGUKAT);
        assert!(s.verify().is_empty());
    }

    #[test]
    fn orion_config_skips_pointedness_in_verify_but_checkable() {
        let mut s = Schema::new(LatticeConfig::ORION);
        let root = s.add_root_type("OBJECT").unwrap();
        s.add_type("A", [root], []).unwrap();
        s.add_type("B", [root], []).unwrap();
        assert!(s.verify().is_empty());
        // Explicit check of the relaxed axiom: two leaves, no single base.
        let v = s.check_axiom(Axiom::Pointedness);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].axiom, Axiom::Pointedness);
    }

    #[test]
    fn forged_dangling_supertype_violates_closure() {
        let mut s = tigukat_like();
        let b = s.type_by_name("B").unwrap();
        // Forge: reference a tombstoned slot.
        let bogus = TypeId::from_index(s.types.len());
        s.types.push(
            &None,
            crate::model::TypeSlot {
                name: "ghost".into(),
                alive: false,
                frozen: false,
                pe: Default::default(),
                ne: Default::default(),
            },
        );
        s.derived.push(&None, Default::default());
        s.types.make_mut(&None, b.index()).pe.insert(bogus);
        let v = s.check_closure();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].axiom, Axiom::Closure);
        assert_eq!(v[0].at, Some(b));
    }

    #[test]
    fn forged_cycle_violates_acyclicity() {
        let mut s = tigukat_like();
        let a = s.type_by_name("A").unwrap();
        let b = s.type_by_name("B").unwrap();
        s.types.make_mut(&None, a.index()).pe.insert(b); // forge cycle a <-> b
        let v = s.check_acyclicity();
        assert!(v.iter().any(|x| x.axiom == Axiom::Acyclicity));
    }

    #[test]
    fn forged_derived_state_violates_derivation_axioms() {
        let mut s = tigukat_like();
        let b = s.type_by_name("B").unwrap();
        let p = s.add_property("x");
        // Forge N(b) without updating N_e(b).
        s.derived.make_mut(&None, b.index()).n.insert(p);
        let kinds: BTreeSet<Axiom> = s.verify().into_iter().map(|v| v.axiom).collect();
        assert!(kinds.contains(&Axiom::Nativeness), "{kinds:?}");
        assert!(kinds.contains(&Axiom::Interface), "{kinds:?}");
    }

    #[test]
    fn violation_display_mentions_axiom_name() {
        let v = AxiomViolation {
            axiom: Axiom::Acyclicity,
            at: None,
            detail: "d".into(),
        };
        assert!(v.to_string().contains("Axiom of Acyclicity"));
        assert_eq!(Axiom::Acyclicity.number(), 2);
    }
}
