//! Change-propagation policies.
//!
//! The paper splits dynamic schema evolution into *semantics of change* (its
//! subject) and *change propagation* — "the method of propagating schema
//! changes to the objects" — which it defers: "Screening, conversion, and
//! filtering are techniques for defining when and how coercion takes place"
//! (§1). This module implements that taxonomy so the objectbase substrate
//! has real instance-level behaviour for the schema operations to act on:
//!
//! * **Eager conversion** — when the schema changes, every affected instance
//!   is coerced immediately: slots for dropped interface properties are
//!   removed, slots for added ones are initialised to [`Value::Null`](crate::value::Value::Null)
//!   (TIGUKAT's undefined object). Highest change-time cost, zero read-time
//!   cost.
//! * **Lazy conversion** — affected instances are marked stale and coerced
//!   on first subsequent access. Amortises conversion over reads; objects
//!   never touched again are never converted.
//! * **Screening** — instances are never rewritten; every read is filtered
//!   through the *current* interface (missing slots read as `Null`, removed
//!   properties are invisible). Zero change-time cost, a mask on every read.
//! * **Filtering** — non-conforming instances are excluded: access is
//!   rejected until the object is explicitly converted or migrated.
//!
//! [`PropagationStats`] counts the work each policy performs; the
//! `propagation_policies` harness and `bench_propagation` bench compare them
//! across evolution traces.
//!
//! **What marking costs.** A schema change reaches the store as the list
//! of types whose interface may have moved
//! ([`ObjectStore::on_schema_change`](crate::ObjectStore::on_schema_change)).
//! Eager conversion walks those types' extents. The deferring policies
//! (lazy conversion, screening, filtering) visit only the objects they
//! mark: the store keeps, per type, a list of the objects that turned
//! conforming since the type was last marked — **every conforming
//! object is on its type's list** — and a change drains the affected
//! types' lists, marking each entry that still exists, still has that
//! type and is still conforming. Creating, migrating, loading and
//! converting an object (and executing a propagation plan) list it; a
//! deletion or migration leaves a stale entry the next drain skips, and a
//! list that outgrows twice its extent is compacted to the extent's
//! members. Marking therefore costs the objects marked, not the objects
//! stored: the `propagation` cell of `BENCH_ops.json` marks the same
//! objects in a store ten times larger for about the same time.

/// When and how schema changes are coerced onto instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// Convert every affected instance at schema-change time.
    Eager,
    /// Mark affected instances stale; convert on first access.
    #[default]
    Lazy,
    /// Never rewrite; mask every read through the current interface.
    Screening,
    /// Reject access to non-conforming instances until explicitly converted.
    Filtering,
}

impl Policy {
    /// All policies, for sweeps.
    pub const ALL: [Policy; 4] = [
        Policy::Eager,
        Policy::Lazy,
        Policy::Screening,
        Policy::Filtering,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Eager => "eager-conversion",
            Policy::Lazy => "lazy-conversion",
            Policy::Screening => "screening",
            Policy::Filtering => "filtering",
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Counters for propagation work, split by mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropagationStats {
    /// Instances converted at schema-change time (eager).
    pub eager_conversions: u64,
    /// Instances converted on access (lazy) or by explicit request.
    pub lazy_conversions: u64,
    /// Reads served through the screening mask.
    pub screened_reads: u64,
    /// Accesses rejected by the filtering policy.
    pub filtered_rejections: u64,
    /// Instances marked stale at schema-change time.
    pub marked_stale: u64,
    /// Slots initialised to `Null` during conversions.
    pub slots_added: u64,
    /// Slots removed during conversions.
    pub slots_dropped: u64,
}

impl PropagationStats {
    /// Total conversions performed, regardless of trigger.
    pub fn total_conversions(&self) -> u64 {
        self.eager_conversions + self.lazy_conversions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            Policy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 4);
        assert_eq!(Policy::default(), Policy::Lazy);
        assert_eq!(Policy::Screening.to_string(), "screening");
    }

    #[test]
    fn stats_totals() {
        let s = PropagationStats {
            eager_conversions: 2,
            lazy_conversions: 3,
            ..Default::default()
        };
        assert_eq!(s.total_conversions(), 5);
    }
}
