//! Versioned histories over the journal: branching and
//! certificate-checked merging.
//!
//! The journal totally orders every [`RecordedOp`] under never-reused
//! sequence numbers, and [`crate::analysis::merge`] decides statically
//! whether two op suffixes commute pair-by-pair. Composing the two gives
//! the versioned-history triple of the §5 order-independence result:
//!
//! - **time travel** — any past sequence is reconstructible
//!   ([`JournaledSchema::open_at`] / [`Journal::replay_at`]);
//! - **branching** — [`Branch::fork`] seeds an independent journal
//!   directory from the fork-point schema, checkpointed *at the fork
//!   sequence* so sequence numbers stay globally comparable, with a
//!   durable [`ForkMeta`] record naming the parent and carrying the
//!   fork-point snapshot;
//! - **merge** — [`Branch::merge`] certifies the two post-fork suffixes
//!   cross-pair by cross-pair. Every pair commuting → the certificate is
//!   re-verified, the merged trace is replayed as one batch, and the
//!   [`MergeCertificate`] is returned; the first non-commuting pair →
//!   a structured [`MergeError::Conflict`] carrying both ops' footprints
//!   and (when certified order-dependent) a concrete witness
//!   permutation. A rejected merge leaves **both** journal directories
//!   byte-identical.
//!
//! The fork-point snapshot inside [`ForkMeta`] is what makes merging
//! self-contained: even after either branch has checkpointed past the
//! fork, the common base schema is still reconstructible without the
//! parent's history.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::analysis::merge::{self, MergeCertificate, MergeCheck, MergeConflict};
use crate::journal::io::JournalIo;
use crate::journal::{
    read_fork_meta, write_fork_meta, ForkMeta, Journal, JournalError, JournalOptions,
    JournaledSchema, RecoveryMode, RecoveryReport,
};
use crate::model::Schema;

use super::RecordedOp;

/// Why a merge was refused or failed.
#[derive(Debug)]
pub enum MergeError {
    /// Journal or schema failure underneath the merge machinery.
    Journal(JournalError),
    /// The two branches share no recorded fork point.
    UnrelatedHistories {
        /// This branch's directory.
        ours: String,
        /// The other branch's directory.
        theirs: String,
    },
    /// A branch checkpointed past the fork point, pruning the WAL ops
    /// the merge would need to replay.
    SuffixUnavailable {
        /// The branch whose suffix is gone.
        dir: String,
        /// Its oldest surviving checkpoint.
        checkpoint_seq: u64,
        /// The fork point the suffix would have to start from.
        fork_seq: u64,
    },
    /// A cross-branch pair failed certification: the witnessed pair,
    /// both footprints, and the verdict.
    Conflict(Box<MergeConflict>),
    /// The freshly issued certificate failed its own independent
    /// re-derivation (should be impossible; refusing is the only sound
    /// response).
    CertificateRejected(String),
    /// The journaled merge result disagreed with the replay of the
    /// merged trace on the fork-point schema (defensive cross-check).
    Divergence {
        /// Canonical fingerprint of the merged-trace replay.
        expected: u64,
        /// Canonical fingerprint the journal ended up with.
        got: u64,
    },
}

impl From<JournalError> for MergeError {
    fn from(e: JournalError) -> Self {
        MergeError::Journal(e)
    }
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Journal(e) => write!(f, "journal error: {e}"),
            MergeError::UnrelatedHistories { ours, theirs } => write!(
                f,
                "no common fork point between {ours} and {theirs}: \
                 neither records the other (or a shared parent) in its fork metadata"
            ),
            MergeError::SuffixUnavailable {
                dir,
                checkpoint_seq,
                fork_seq,
            } => write!(
                f,
                "{dir} checkpointed at {checkpoint_seq}, past the fork point {fork_seq}; \
                 its post-fork suffix is no longer replayable"
            ),
            MergeError::Conflict(c) => {
                write!(
                    f,
                    "cross-branch conflict: {} (ours, op {}) vs {} (theirs, op {}) — {}",
                    c.a_kind,
                    c.a_index + 1,
                    c.b_kind,
                    c.b_index + 1,
                    c.verdict.tag()
                )
            }
            MergeError::CertificateRejected(why) => {
                write!(f, "merge certificate failed re-verification: {why}")
            }
            MergeError::Divergence { expected, got } => write!(
                f,
                "merged journal diverged from the merged-trace replay \
                 (expected {expected:#018x}, got {got:#018x})"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Outcome of a certified merge.
#[derive(Debug)]
pub struct MergeReport {
    /// The independence certificate covering every cross-branch pair.
    pub certificate: MergeCertificate,
    /// Its independent re-verification (ran before anything was applied).
    pub check: MergeCheck,
    /// The common fork point.
    pub fork_seq: u64,
    /// Ops this branch had recorded past the fork.
    pub ours: usize,
    /// Ops adopted from the other branch.
    pub theirs: usize,
    /// This branch's sequence after the merge.
    pub merged_seq: u64,
    /// Canonical fingerprint of the merged schema.
    pub canonical_fingerprint: u64,
}

/// A journaled schema addressed as one branch of a versioned history.
///
/// A *root* branch is an ordinary journal directory; a *forked* branch
/// additionally carries a [`ForkMeta`] record. All ordinary evolution
/// goes through [`Branch::journaled`].
#[derive(Debug)]
pub struct Branch {
    dir: PathBuf,
    io: Arc<dyn JournalIo>,
    opts: JournalOptions,
    journaled: JournaledSchema,
    meta: Option<ForkMeta>,
}

impl Branch {
    /// Initialise a root branch: a fresh journal with no fork metadata.
    pub fn create(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        schema: Schema,
        opts: JournalOptions,
    ) -> Result<Branch, JournalError> {
        let journaled = JournaledSchema::create(dir, Arc::clone(&io), schema, opts)?;
        Ok(Branch {
            dir: dir.to_path_buf(),
            io,
            opts,
            journaled,
            meta: None,
        })
    }

    /// Recover a branch from `dir`, loading its fork metadata if present.
    pub fn open(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        mode: RecoveryMode,
        opts: JournalOptions,
    ) -> Result<(Branch, RecoveryReport), JournalError> {
        let (journaled, report) = JournaledSchema::open(dir, Arc::clone(&io), mode, opts)?;
        let meta = read_fork_meta(dir, io.as_ref())?;
        Ok((
            Branch {
                dir: dir.to_path_buf(),
                io,
                opts,
                journaled,
                meta,
            },
            report,
        ))
    }

    /// Fork this branch at `at_seq` (default: the current tip) into a
    /// new journal directory `dir`.
    ///
    /// The fork-point schema is reconstructed by a time-travel read, so
    /// the usual typed errors apply ([`JournalError::SeqOutOfRange`],
    /// [`JournalError::SeqBeforeCheckpoint`]). The new journal's first
    /// checkpoint carries the fork sequence, and a [`ForkMeta`] record
    /// (parent path, fork seq, fork-point snapshot) is written next to
    /// it.
    pub fn fork(&self, dir: &Path, at_seq: Option<u64>) -> Result<Branch, JournalError> {
        let fork_seq = at_seq.unwrap_or_else(|| self.journaled.seq());
        let schema = self.journaled.open_at(fork_seq)?;
        let meta = ForkMeta {
            parent: self.dir.display().to_string(),
            fork_seq,
            snapshot: schema.to_snapshot(),
        };
        let journaled =
            JournaledSchema::create_at(dir, Arc::clone(&self.io), schema, fork_seq, self.opts)?;
        write_fork_meta(dir, self.io.as_ref(), &meta)?;
        Ok(Branch {
            dir: dir.to_path_buf(),
            io: Arc::clone(&self.io),
            opts: self.opts,
            journaled,
            meta: Some(meta),
        })
    }

    /// Merge `other`'s post-fork suffix into this branch,
    /// certificate-checked.
    ///
    /// The fork point is resolved from fork metadata (`other` forked
    /// from us, we forked from `other`, or both are siblings of one
    /// parent at the same sequence). Both suffixes are read from the
    /// journals, certified cross-pair by cross-pair, the certificate is
    /// independently re-verified, the merged trace is replayed as one
    /// batch on the fork-point schema, and only then is the other suffix
    /// appended to this branch's journal. Any refusal — conflict,
    /// pruned suffix, unrelated histories — happens **before** the
    /// first append, so a failed merge modifies nothing.
    pub fn merge(&self, other: &Branch) -> Result<MergeReport, MergeError> {
        let (fork_seq, base) = self.fork_base(other)?;
        let ours = suffix_since(&self.dir, self.io.as_ref(), fork_seq)?;
        let theirs = suffix_since(&other.dir, other.io.as_ref(), fork_seq)?;
        let obs = self.journaled.attached_obs();
        let cross = (ours.len() * theirs.len()) as u64;
        let certificate = match merge::certify(&base, &ours, &theirs) {
            Ok(c) => c,
            Err(conflict) => {
                if let Some(o) = &obs {
                    o.on_merge(cross, false, 0);
                }
                return Err(MergeError::Conflict(conflict));
            }
        };
        // Trust-nothing re-derivation before anything is applied.
        let check = merge::check(&base, &ours, &theirs, &certificate)
            .map_err(MergeError::CertificateRejected)?;
        // The reference the journaled result must reach: the merged trace
        // replayed as one batch on the fork-point schema.
        let mut replayed = base;
        replayed
            .apply_trace(&merge::merged_trace(&ours, &theirs))
            .map_err(|e| MergeError::Journal(JournalError::from(e)))?;
        // Adopt the other branch's suffix; our own suffix is already in
        // the journal, so the journal now holds exactly `ours ++ theirs`.
        if !theirs.is_empty() {
            self.journaled.apply_trace(&theirs)?;
        }
        let got = self.journaled.snapshot().canonical_fingerprint();
        let expected = replayed.canonical_fingerprint();
        if got != expected {
            return Err(MergeError::Divergence { expected, got });
        }
        if let Some(o) = &obs {
            o.on_merge(cross, true, theirs.len() as u64);
        }
        Ok(MergeReport {
            certificate,
            check,
            fork_seq,
            ours: ours.len(),
            theirs: theirs.len(),
            merged_seq: self.journaled.seq(),
            canonical_fingerprint: got,
        })
    }

    /// Resolve the common fork point with `other` from fork metadata.
    fn fork_base(&self, other: &Branch) -> Result<(u64, Schema), MergeError> {
        if let Some(m) = &other.meta {
            if Path::new(&m.parent) == self.dir {
                return Ok((m.fork_seq, m.base_schema()?));
            }
        }
        if let Some(m) = &self.meta {
            if Path::new(&m.parent) == other.dir {
                return Ok((m.fork_seq, m.base_schema()?));
            }
            if let Some(om) = &other.meta {
                if m.parent == om.parent && m.fork_seq == om.fork_seq {
                    return Ok((m.fork_seq, m.base_schema()?));
                }
            }
        }
        Err(MergeError::UnrelatedHistories {
            ours: self.dir.display().to_string(),
            theirs: other.dir.display().to_string(),
        })
    }

    /// The underlying journaled schema (all ordinary evolution).
    pub fn journaled(&self) -> &JournaledSchema {
        &self.journaled
    }

    /// The branch's journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Fork metadata, if this branch was forked (root branches: `None`).
    pub fn meta(&self) -> Option<&ForkMeta> {
        self.meta.as_ref()
    }

    /// Current tip sequence.
    pub fn seq(&self) -> u64 {
        self.journaled.seq()
    }

    /// A consistent snapshot of the branch tip.
    pub fn snapshot(&self) -> Arc<Schema> {
        self.journaled.snapshot()
    }
}

/// The chained post-fork suffix of `dir`: ops with sequence > `fork_seq`,
/// in recorded order, read as strict recovery reads them. Typed refusal
/// when the oldest checkpoint already passed the fork point.
fn suffix_since(
    dir: &Path,
    io: &dyn JournalIo,
    fork_seq: u64,
) -> Result<Vec<RecordedOp>, MergeError> {
    let (checkpoint_seq, mut ops) = Journal::read_history_ops(dir, io)?;
    if checkpoint_seq > fork_seq {
        return Err(MergeError::SuffixUnavailable {
            dir: dir.display().to_string(),
            checkpoint_seq,
            fork_seq,
        });
    }
    let shared = (fork_seq - checkpoint_seq).min(ops.len() as u64);
    Ok(ops.split_off(shared as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::merge::ConflictVerdict;
    use crate::config::LatticeConfig;
    use crate::journal::io::MemIo;

    fn opts() -> JournalOptions {
        JournalOptions {
            checkpoint_every: 0,
        }
    }

    /// Root branch holding the §5-style base: `C` under both `PA` and
    /// `PB`, plus an unrelated `D` under `PB`.
    fn root(io: Arc<MemIo>) -> Branch {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("T_object").unwrap();
        let pa = s.add_type("PA", [], []).unwrap();
        let pb = s.add_type("PB", [], []).unwrap();
        s.add_type("C", [pa, pb], []).unwrap();
        s.add_type("D", [pb], []).unwrap();
        Branch::create(Path::new("/root-branch"), io, s, opts()).unwrap()
    }

    fn drop_edge(b: &Branch, t: &str, s: &str) {
        let snap = b.snapshot();
        b.journaled()
            .apply(&RecordedOp::DropEssentialSupertype {
                t: snap.type_by_name(t).unwrap(),
                s: snap.type_by_name(s).unwrap(),
            })
            .unwrap();
    }

    #[test]
    fn fork_records_meta_and_reopens() {
        let io = Arc::new(MemIo::new());
        let root = root(io.clone());
        drop_edge(&root, "C", "PA");
        let fork = root.fork(Path::new("/b1"), None).unwrap();
        assert_eq!(fork.seq(), 1);
        let meta = fork.meta().unwrap();
        assert_eq!(meta.parent, "/root-branch");
        assert_eq!(meta.fork_seq, 1);
        assert_eq!(
            meta.base_schema().unwrap().fingerprint(),
            root.snapshot().fingerprint()
        );
        // The meta record survives a close/reopen cycle.
        drop(fork);
        let (reopened, _) =
            Branch::open(Path::new("/b1"), io.clone(), RecoveryMode::Strict, opts()).unwrap();
        assert_eq!(reopened.meta().unwrap().fork_seq, 1);
    }

    #[test]
    fn sibling_merge_of_the_pure_sec5_drop_pair_certifies() {
        let io = Arc::new(MemIo::new());
        let root = root(io.clone());
        let alpha = root.fork(Path::new("/alpha"), None).unwrap();
        let beta = root.fork(Path::new("/beta"), None).unwrap();
        drop_edge(&alpha, "C", "PA");
        drop_edge(&beta, "C", "PB");
        let report = alpha.merge(&beta).expect("§5 pair commutes");
        assert_eq!(report.certificate.cross_pairs(), 1);
        assert_eq!((report.ours, report.theirs), (1, 1));
        // Both orders agree: merging the other way gives the same
        // canonical schema.
        let alpha2 = root.fork(Path::new("/alpha2"), None).unwrap();
        let beta2 = root.fork(Path::new("/beta2"), None).unwrap();
        drop_edge(&alpha2, "C", "PA");
        drop_edge(&beta2, "C", "PB");
        let report2 = beta2.merge(&alpha2).expect("other order too");
        assert_eq!(report.canonical_fingerprint, report2.canonical_fingerprint);
    }

    /// A merge derives one schema from snapshot inputs, the fork-point
    /// base; reading either branch's post-fork suffix derives nothing.
    #[test]
    fn merge_reads_both_suffixes_without_deriving() {
        let io = Arc::new(MemIo::new());
        let root = root(io.clone());
        let alpha = root.fork(Path::new("/alpha"), None).unwrap();
        let beta = root.fork(Path::new("/beta"), None).unwrap();
        drop_edge(&alpha, "C", "PA");
        drop_edge(&beta, "C", "PB");
        let builds = crate::snapshot::builds();
        let ours = suffix_since(Path::new("/alpha"), io.as_ref(), 0).unwrap();
        assert_eq!(ours.len(), 1);
        assert_eq!(
            crate::snapshot::builds(),
            builds,
            "a suffix read derives nothing"
        );
        alpha.merge(&beta).expect("§5 pair commutes");
        assert_eq!(crate::snapshot::builds(), builds + 1, "only the fork base");
    }

    #[test]
    fn orion_order_dependent_variant_is_rejected_with_witness() {
        let io = Arc::new(MemIo::new());
        let root = root(io.clone());
        let alpha = root.fork(Path::new("/alpha"), None).unwrap();
        let beta = root.fork(Path::new("/beta"), None).unwrap();
        drop_edge(&alpha, "C", "PA");
        let pa = beta.snapshot().type_by_name("PA").unwrap();
        beta.journaled()
            .apply(&RecordedOp::DropType { t: pa })
            .unwrap();
        let seq_before = alpha.seq();
        let err = alpha.merge(&beta).expect_err("order-dependent pair");
        let MergeError::Conflict(conflict) = err else {
            panic!("expected conflict, got {err}");
        };
        assert_eq!((conflict.a_index, conflict.b_index), (0, 0));
        let ConflictVerdict::Witnessed { witness, .. } = &conflict.verdict else {
            panic!("expected witness: {:?}", conflict.verdict);
        };
        assert_eq!(witness.order(), vec![1, 0]);
        // A rejected merge modified nothing.
        assert_eq!(alpha.seq(), seq_before);
    }

    #[test]
    fn parent_child_merge_and_unrelated_refusal() {
        let io = Arc::new(MemIo::new());
        let root = root(io.clone());
        let child = root.fork(Path::new("/child"), None).unwrap();
        drop_edge(&root, "C", "PA");
        drop_edge(&child, "D", "PB");
        let report = root.merge(&child).expect("disjoint rows commute");
        assert_eq!(report.theirs, 1);
        assert!(root.snapshot().verify().is_empty());

        let other_root = {
            let mut s = Schema::new(LatticeConfig::default());
            s.add_root_type("T_object").unwrap();
            Branch::create(Path::new("/stranger"), io.clone(), s, opts()).unwrap()
        };
        assert!(matches!(
            root.merge(&other_root),
            Err(MergeError::UnrelatedHistories { .. })
        ));
    }

    #[test]
    fn checkpoint_past_fork_point_is_a_typed_refusal() {
        let io = Arc::new(MemIo::new());
        let root = root(io.clone());
        let alpha = root.fork(Path::new("/alpha"), None).unwrap();
        let beta = root.fork(Path::new("/beta"), None).unwrap();
        drop_edge(&alpha, "C", "PA");
        // Checkpointing alpha prunes its post-fork WAL ops.
        alpha.journaled().checkpoint().unwrap();
        assert!(matches!(
            alpha.merge(&beta),
            Err(MergeError::SuffixUnavailable { .. })
        ));
    }
}
