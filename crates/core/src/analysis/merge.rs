//! Cross-branch merge certification: the static bridge from pairwise
//! commutativity (PR 5) to three-way *branch merging*.
//!
//! Two branches forked at sequence `F` carry op suffixes `a` and `b`
//! against the same fork-point schema. The merged history `a ++ b` is
//! semantics-preserving in **either** interleaving exactly when every
//! *cross pair* — one op from `a`, one from `b` — commutes: ops within
//! one branch already carry their recorded order, so only cross pairs
//! are ever permuted by a merge. This module decides that question
//! statically, on the same footprint/symbolic-row engine as
//! [`super::commute`], and packages the outcome either as a
//! self-contained [`MergeCertificate`] or as a [`MergeConflict`]
//! carrying the witnessed pair and both footprints.
//!
//! One merge-specific strengthening over raw pairwise commutation: a
//! cross pair of *identical* ops is refused even though swapping equal
//! ops is trivially order-free. A merge keeps both occurrences, and the
//! second application of the same drop/add is rejected by the model —
//! convergent edits need deduplication, which this certifier
//! deliberately does not silently perform.
//!
//! Like `plan::check`, [`check`] is an *independent re-derivation*: it
//! trusts nothing inside a certificate and re-derives every cross-pair
//! verdict from the base schema and the two suffixes, refusing any
//! tampered or mismatched certificate with a first-violation message.
//!
//! Purity discipline (CI-gated): this module never touches the
//! filesystem, never spawns threads, and never executes an operation —
//! certification is a pure function of `(base, a, b)`.

use crate::history::RecordedOp;
use crate::model::Schema;

use super::commute::{self, CommuteReason, ConflictKind, PairVerdict, Witness};
use super::footprint::Footprint;

/// Proof carried for one certified cross pair: which op of each suffix,
/// and which theorem certified the pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossPairProof {
    /// Index into branch `a`'s suffix.
    pub a_index: usize,
    /// Index into branch `b`'s suffix.
    pub b_index: usize,
    /// Which commutation theorem certified the pair.
    pub reason: CommuteReason,
}

/// A self-contained certificate that every cross-branch pair of
/// `(a, b)` commutes over the fork-point schema — so `a ++ b` and
/// `b ++ a` replay to the same canonical schema, and the merge is
/// order-independent.
///
/// Self-contained: [`check`] can re-verify it from the base schema and
/// the two suffixes alone, with no access to the certifier's state.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeCertificate {
    /// Exact fingerprint of the fork-point schema the certificate is
    /// bound to.
    pub base_fingerprint: u64,
    /// Length of branch `a`'s suffix.
    pub a_len: usize,
    /// Length of branch `b`'s suffix.
    pub b_len: usize,
    /// One proof per cross pair, lexicographic by `(a_index, b_index)`;
    /// always exactly `a_len * b_len` entries.
    pub proofs: Vec<CrossPairProof>,
}

impl MergeCertificate {
    /// Number of cross pairs the certificate covers.
    pub fn cross_pairs(&self) -> usize {
        self.proofs.len()
    }
}

/// How a conflicting cross pair was classified.
#[derive(Debug, Clone)]
pub enum ConflictVerdict {
    /// Certified order-dependent, with a concrete witness permutation
    /// over the merged trace `a ++ b`.
    Witnessed {
        /// Conflict classification.
        kind: ConflictKind,
        /// The witness permutation (indexes into `a ++ b`).
        witness: Witness,
    },
    /// Not certified either way — the engine declined to certify the
    /// pair, so the merge is refused conservatively.
    Constraint {
        /// Why certification was declined.
        note: String,
    },
}

impl ConflictVerdict {
    /// Short machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            ConflictVerdict::Witnessed { kind, .. } => kind.tag(),
            ConflictVerdict::Constraint { .. } => "order-constraint",
        }
    }
}

/// The first cross-branch pair that failed certification, with both
/// ops' footprints as the structural evidence.
#[derive(Debug, Clone)]
pub struct MergeConflict {
    /// Index into branch `a`'s suffix.
    pub a_index: usize,
    /// Index into branch `b`'s suffix.
    pub b_index: usize,
    /// Kind name of the `a`-side op.
    pub a_kind: &'static str,
    /// Kind name of the `b`-side op.
    pub b_kind: &'static str,
    /// Footprint of the `a`-side op against its symbolic pre-state.
    pub a_footprint: Footprint,
    /// Footprint of the `b`-side op against its symbolic pre-state.
    pub b_footprint: Footprint,
    /// Witnessed conflict or conservative refusal.
    pub verdict: ConflictVerdict,
}

/// Result of an independent certificate re-verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeCheck {
    /// Cross pairs re-derived and matched against the certificate.
    pub cross_pairs: usize,
}

/// Certify the merge of two post-fork suffixes over their common base.
///
/// Runs the pairwise engine over the merged trace `a ++ b` and examines
/// exactly the cross pairs (one op from each suffix). Every cross pair
/// certified commuting → a [`MergeCertificate`]; the first failure →
/// the [`MergeConflict`] that witnessed it. Intra-branch pairs are
/// *not* consulted: each branch's own order is preserved by the merge.
///
/// Empty suffixes have no cross pairs and certify trivially — that is
/// the fast-forward case.
pub fn certify(
    base: &Schema,
    a: &[RecordedOp],
    b: &[RecordedOp],
) -> Result<MergeCertificate, Box<MergeConflict>> {
    let merged = merged_trace(a, b);
    let analysis = commute::analyze_pairs(base, &merged);
    let mut proofs = Vec::with_capacity(a.len() * b.len());
    for (a_index, b_index) in cross_pairs(a.len(), b.len()) {
        let (i, j) = (a_index, a.len() + b_index);
        match &*analysis.verdict(&merged, i, j) {
            // A pair of *identical* ops commutes as a permutation claim
            // (swapping equal ops is a no-op), but a merge must apply
            // BOTH: the second application of a drop/add is rejected by
            // the model, so the merged trace would not even replay.
            // Sequential merge semantics therefore refuse the pair.
            PairVerdict::Commutes {
                reason: CommuteReason::IdenticalOps,
                ..
            } => {
                return Err(Box::new(MergeConflict {
                    a_index,
                    b_index,
                    a_kind: merged[i].kind_name(),
                    b_kind: merged[j].kind_name(),
                    a_footprint: analysis.footprints[i].clone(),
                    b_footprint: analysis.footprints[j].clone(),
                    verdict: ConflictVerdict::Constraint {
                        note: "both branches recorded the identical operation; \
                               a sequential merge would apply it twice"
                            .into(),
                    },
                }))
            }
            PairVerdict::Commutes { reason, .. } => proofs.push(CrossPairProof {
                a_index,
                b_index,
                reason: *reason,
            }),
            PairVerdict::Conflicts { kind, witness } => {
                return Err(Box::new(MergeConflict {
                    a_index,
                    b_index,
                    a_kind: merged[i].kind_name(),
                    b_kind: merged[j].kind_name(),
                    a_footprint: analysis.footprints[i].clone(),
                    b_footprint: analysis.footprints[j].clone(),
                    verdict: ConflictVerdict::Witnessed {
                        kind: *kind,
                        witness: witness.clone(),
                    },
                }))
            }
            PairVerdict::OrderConstraint { note } => {
                return Err(Box::new(MergeConflict {
                    a_index,
                    b_index,
                    a_kind: merged[i].kind_name(),
                    b_kind: merged[j].kind_name(),
                    a_footprint: analysis.footprints[i].clone(),
                    b_footprint: analysis.footprints[j].clone(),
                    verdict: ConflictVerdict::Constraint { note: note.clone() },
                }))
            }
        }
    }
    Ok(MergeCertificate {
        base_fingerprint: base.fingerprint(),
        a_len: a.len(),
        b_len: b.len(),
        proofs,
    })
}

/// Independently re-verify a [`MergeCertificate`] against the base
/// schema and the two suffixes it claims to cover.
///
/// Trusts **nothing** in the certificate: re-derives every cross-pair
/// verdict from scratch (same discipline as `plan::check`) and compares
/// proof by proof. `Err` carries the first violation found — a tampered
/// length, fingerprint, index, or reason all refuse the certificate.
pub fn check(
    base: &Schema,
    a: &[RecordedOp],
    b: &[RecordedOp],
    cert: &MergeCertificate,
) -> Result<MergeCheck, String> {
    if cert.a_len != a.len() {
        return Err(format!(
            "certificate covers a-suffix of {} op(s), got {}",
            cert.a_len,
            a.len()
        ));
    }
    if cert.b_len != b.len() {
        return Err(format!(
            "certificate covers b-suffix of {} op(s), got {}",
            cert.b_len,
            b.len()
        ));
    }
    let got_fp = base.fingerprint();
    if cert.base_fingerprint != got_fp {
        return Err(format!(
            "certificate bound to base fingerprint {:#018x}, schema has {:#018x}",
            cert.base_fingerprint, got_fp
        ));
    }
    if cert.proofs.len() != a.len() * b.len() {
        return Err(format!(
            "certificate carries {} proof(s) for {} cross pair(s)",
            cert.proofs.len(),
            a.len() * b.len()
        ));
    }
    let merged = merged_trace(a, b);
    let analysis = commute::analyze_pairs(base, &merged);
    let mut next = 0usize;
    for (a_index, b_index) in cross_pairs(a.len(), b.len()) {
        let proof = &cert.proofs[next];
        next += 1;
        if proof.a_index != a_index || proof.b_index != b_index {
            return Err(format!(
                "proof {next} covers pair (a{}, b{}), expected (a{a_index}, b{b_index})",
                proof.a_index, proof.b_index
            ));
        }
        match &*analysis.verdict(&merged, a_index, a.len() + b_index) {
            PairVerdict::Commutes {
                reason: CommuteReason::IdenticalOps,
                ..
            } => {
                return Err(format!(
                    "pair (a{a_index}, b{b_index}) is the identical op on both branches; \
                     a sequential merge would apply it twice"
                ));
            }
            PairVerdict::Commutes { reason, .. } => {
                if *reason != proof.reason {
                    return Err(format!(
                        "pair (a{a_index}, b{b_index}) certified by {}, certificate claims {}",
                        reason.tag(),
                        proof.reason.tag()
                    ));
                }
            }
            PairVerdict::Conflicts { kind, .. } => {
                return Err(format!(
                    "pair (a{a_index}, b{b_index}) is a certified {} conflict, \
                     certificate claims it commutes",
                    kind.tag()
                ));
            }
            PairVerdict::OrderConstraint { note } => {
                return Err(format!(
                    "pair (a{a_index}, b{b_index}) is not certifiable ({note}), \
                     certificate claims it commutes"
                ));
            }
        }
    }
    Ok(MergeCheck { cross_pairs: next })
}

/// Every cross pair `(a_index, b_index)` of suffixes of `a_len` and
/// `b_len` ops, lexicographic.
fn cross_pairs(a_len: usize, b_len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..a_len).flat_map(move |i| (0..b_len).map(move |j| (i, j)))
}

/// The merged trace `a ++ b` the certifier and checker both analyse.
pub fn merged_trace(a: &[RecordedOp], b: &[RecordedOp]) -> Vec<RecordedOp> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    merged.extend_from_slice(a);
    merged.extend_from_slice(b);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;

    /// Fork base: `PA`, `PB` roots with children `C` under both and `D`
    /// under `PB` — enough structure for disjoint and conflicting
    /// suffixes.
    fn base() -> Schema {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("T_object").unwrap();
        let pa = s.add_type("PA", [], []).unwrap();
        let pb = s.add_type("PB", [], []).unwrap();
        s.add_type("C", [pa, pb], []).unwrap();
        s.add_type("D", [pb], []).unwrap();
        s
    }

    fn tid(s: &Schema, name: &str) -> crate::ids::TypeId {
        s.type_by_name(name).unwrap()
    }

    #[test]
    fn disjoint_suffixes_certify_and_check() {
        let s = base();
        let c = tid(&s, "C");
        let d = tid(&s, "D");
        let (pa, pb) = (tid(&s, "PA"), tid(&s, "PB"));
        let a = vec![RecordedOp::DropEssentialSupertype { t: c, s: pa }];
        let b = vec![RecordedOp::DropEssentialSupertype { t: d, s: pb }];
        let cert = certify(&s, &a, &b).expect("disjoint rows certify");
        assert_eq!(cert.cross_pairs(), 1);
        assert_eq!(cert.proofs[0].reason, CommuteReason::DisjointFootprints);
        assert_eq!(check(&s, &a, &b, &cert), Ok(MergeCheck { cross_pairs: 1 }));
    }

    #[test]
    fn same_row_pure_drop_pair_certifies_via_row_check() {
        // The §5 pair itself: both edges of C's row dropped, one per
        // branch. The row empties and relinks to ⊤ canonically in both
        // orders — certified, per the paper's order-independence result.
        let s = base();
        let c = tid(&s, "C");
        let (pa, pb) = (tid(&s, "PA"), tid(&s, "PB"));
        let a = vec![RecordedOp::DropEssentialSupertype { t: c, s: pa }];
        let b = vec![RecordedOp::DropEssentialSupertype { t: c, s: pb }];
        let cert = certify(&s, &a, &b).expect("pure drop pair certifies");
        assert_eq!(cert.proofs[0].reason, CommuteReason::RowPermutationCheck);
    }

    #[test]
    fn edge_drop_vs_type_drop_is_witnessed_conflict() {
        // The Orion-flavoured order-dependent variant: branch a drops
        // the edge C→PA while branch b drops the type PA itself. Merged
        // one way the edge drop still has its operand; the other way PA
        // is dead first — a certified conflict with a swap witness.
        let s = base();
        let c = tid(&s, "C");
        let pa = tid(&s, "PA");
        let a = vec![RecordedOp::DropEssentialSupertype { t: c, s: pa }];
        let b = vec![RecordedOp::DropType { t: pa }];
        let conflict = certify(&s, &a, &b).expect_err("order-dependent pair");
        assert_eq!((conflict.a_index, conflict.b_index), (0, 0));
        assert_eq!(conflict.a_kind, "drop_essential_supertype");
        assert_eq!(conflict.b_kind, "drop_type");
        let ConflictVerdict::Witnessed { kind, witness } = &conflict.verdict else {
            panic!("expected witnessed conflict: {:?}", conflict.verdict);
        };
        assert_eq!(*kind, ConflictKind::Certain);
        assert_eq!(witness.order(), vec![1, 0]);
        assert_eq!(witness.prefix, 2);
    }

    #[test]
    fn identical_ops_on_both_branches_are_refused() {
        // Both branches dropped the same edge. The pair commutes as a
        // permutation claim, but a merge would journal the drop twice —
        // and the second application is rejected by the model.
        let s = base();
        let c = tid(&s, "C");
        let pa = tid(&s, "PA");
        let op = RecordedOp::DropEssentialSupertype { t: c, s: pa };
        let a = vec![op.clone()];
        let b = vec![op];
        let conflict = certify(&s, &a, &b).expect_err("duplicate op refused");
        let ConflictVerdict::Constraint { note } = &conflict.verdict else {
            panic!("expected conservative refusal: {:?}", conflict.verdict);
        };
        assert!(note.contains("identical operation"), "{note}");
        // A forged certificate claiming the pair commutes is refused by
        // the independent checker under the same rule.
        let forged = MergeCertificate {
            base_fingerprint: s.fingerprint(),
            a_len: 1,
            b_len: 1,
            proofs: vec![CrossPairProof {
                a_index: 0,
                b_index: 0,
                reason: CommuteReason::IdenticalOps,
            }],
        };
        assert!(check(&s, &a, &b, &forged)
            .unwrap_err()
            .contains("identical op"));
    }

    #[test]
    fn empty_suffixes_fast_forward() {
        let s = base();
        let c = tid(&s, "C");
        let pa = tid(&s, "PA");
        let a = vec![RecordedOp::DropEssentialSupertype { t: c, s: pa }];
        let cert = certify(&s, &a, &[]).expect("no cross pairs");
        assert_eq!(cert.cross_pairs(), 0);
        assert!(check(&s, &a, &[], &cert).is_ok());
    }

    #[test]
    fn tampered_certificates_are_refused() {
        let s = base();
        let c = tid(&s, "C");
        let d = tid(&s, "D");
        let (pa, pb) = (tid(&s, "PA"), tid(&s, "PB"));
        let a = vec![RecordedOp::DropEssentialSupertype { t: c, s: pa }];
        let b = vec![RecordedOp::DropEssentialSupertype { t: d, s: pb }];
        let cert = certify(&s, &a, &b).unwrap();

        let mut wrong_fp = cert.clone();
        wrong_fp.base_fingerprint ^= 1;
        assert!(check(&s, &a, &b, &wrong_fp)
            .unwrap_err()
            .contains("fingerprint"));

        let mut wrong_reason = cert.clone();
        wrong_reason.proofs[0].reason = CommuteReason::IdenticalOps;
        assert!(check(&s, &a, &b, &wrong_reason)
            .unwrap_err()
            .contains("certificate claims"));

        let mut missing = cert.clone();
        missing.proofs.clear();
        assert!(check(&s, &a, &b, &missing).unwrap_err().contains("proof"));

        // A certificate for different suffixes does not transfer.
        let other = vec![RecordedOp::DropType { t: pa }];
        assert!(check(&s, &a, &other, &cert).is_err());
    }
}
