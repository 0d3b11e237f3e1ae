//! Stable identifiers for types and properties.
//!
//! The axiomatic model (Peters & Özsu, ICDE'95) ranges over a set of types
//! `T` and a universe of properties. Both are represented here as arena
//! indices: cheap to copy, hash, and order, and stable across schema
//! evolution (dropping a type tombstones its slot rather than reusing it, so
//! a dangling [`TypeId`] can never silently alias a newer type).
//!
//! Identity semantics follow the paper: a property is identified by its
//! *semantics*, not its name ("the axiomatic model assumes that properties
//! have a given semantics ... simple set operations can be used to resolve
//! conflicts", §3.1). Two distinct [`PropId`]s may therefore carry the same
//! name — exactly the situation Orion's name-based conflict resolution has to
//! deal with and the axiomatic model does not.

use core::fmt;

use crate::bits::{ensure_arena_index, ArenaFull, ArenaKind};

/// Identifier of a type in the lattice `T`.
///
/// Printed as `t42` in debug output. Ordering is by creation order, which
/// makes `BTreeSet<TypeId>` iteration deterministic — all derived sets in
/// this crate rely on that for reproducible experiment output.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub(crate) u32);

impl TypeId {
    /// Raw arena index. Exposed for dense side-tables keyed by type.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index. Intended for tests and for side-tables
    /// that round-trip indices obtained from [`TypeId::index`].
    ///
    /// Panics when the index does not fit the `u32` id space. Side-table
    /// round-trips of a live id can never hit this — the arena itself is
    /// bounded by the bit kernel ([`crate::bits::ensure_arena_index`]) at
    /// allocation time, which is also where the fallible public paths get
    /// a typed error instead of a panic.
    #[inline]
    pub fn from_index(ix: usize) -> Self {
        Self::try_from_index(ix).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct from a raw index read from outside the process (a file,
    /// a frame): an index past the `u32` id space is a typed error.
    #[inline]
    pub fn try_from_index(ix: usize) -> Result<Self, ArenaFull> {
        ensure_arena_index(ix, ArenaKind::Types).map(TypeId)
    }

    /// Raw `u32` bit position (the bit kernel's key space).
    #[inline]
    pub(crate) fn to_u32(self) -> u32 {
        self.0
    }

    /// Construct from a raw `u32` bit position.
    #[inline]
    pub(crate) fn from_u32(raw: u32) -> Self {
        TypeId(raw)
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a property (the paper's generic term for attributes,
/// methods, and behaviors).
///
/// Printed as `p7` in debug output.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PropId(pub(crate) u32);

impl PropId {
    /// Raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index (see [`TypeId::from_index`]).
    #[inline]
    pub fn from_index(ix: usize) -> Self {
        Self::try_from_index(ix).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct from a raw index read from outside the process (see
    /// [`TypeId::try_from_index`]).
    #[inline]
    pub fn try_from_index(ix: usize) -> Result<Self, ArenaFull> {
        ensure_arena_index(ix, ArenaKind::Props).map(PropId)
    }

    /// Raw `u32` bit position (the bit kernel's key space).
    #[inline]
    pub(crate) fn to_u32(self) -> u32 {
        self.0
    }

    /// Construct from a raw `u32` bit position.
    #[inline]
    pub(crate) fn from_u32(raw: u32) -> Self {
        PropId(raw)
    }
}

impl fmt::Debug for PropId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PropId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_id_roundtrip() {
        let t = TypeId::from_index(17);
        assert_eq!(t.index(), 17);
        assert_eq!(format!("{t}"), "t17");
        assert_eq!(format!("{t:?}"), "t17");
    }

    #[test]
    fn prop_id_roundtrip() {
        let p = PropId::from_index(3);
        assert_eq!(p.index(), 3);
        assert_eq!(format!("{p}"), "p3");
    }

    #[test]
    fn ordering_follows_creation_order() {
        assert!(TypeId::from_index(1) < TypeId::from_index(2));
        assert!(PropId::from_index(0) < PropId::from_index(9));
    }

    #[test]
    #[should_panic(expected = "u32::MAX")]
    fn oversized_index_panics() {
        let _ = TypeId::from_index(u32::MAX as usize + 1);
    }
}
