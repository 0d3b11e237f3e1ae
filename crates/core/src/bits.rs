//! `core::bits` — the dense lattice kernel.
//!
//! The paper's derived terms (`P`, `PL`, `N`, `H`, `I` of Axioms 5–9) are
//! pure set algebra over arena indices: every [`TypeId`]/[`PropId`] is a
//! `u32` slot index, so a set of them is a bit vector and the axiom
//! operators (union for Axioms 6 and 9, difference for Axiom 8, union
//! again for Axiom 7) are word-parallel `|`/`&`/`&!` over `u64` words.
//! This module provides that representation; `model.rs` stores it in
//! every `TypeSlot`/`DerivedType` row and the engines run the recompute
//! kernel directly on words (DESIGN.md §12).
//!
//! Representation: a [`RawBitSet`] stores only the word span that
//! actually contains bits — `words[0]` corresponds to word index
//! `start`, and both the first and the last stored word are non-zero
//! (the canonical trim invariant). Arena ids are allocated in creation
//! order, so the sets of a type cluster around its own index; trimming
//! both ends keeps per-row storage proportional to the *spread* of a
//! row's lattice neighbourhood, not to the arena size. This is what
//! makes a 100 000-type schema hold ~600 000 derived rows without
//! quadratic memory. The trim invariant also makes the representation
//! canonical, so derived `PartialEq`/`Eq` are set equality.
//!
//! The kernel is also the single enforcement point of the arena bound:
//! ids are bit positions, bit positions are `u32`, and
//! [`ensure_arena_index`] is the one check everything (slot allocation
//! in `ops.rs`, id round-trips in `ids.rs`) routes through — with a
//! typed [`ArenaFull`] error on the fallible paths instead of an
//! `expect` (ISSUE 7).
//!
//! No `unsafe` anywhere: the word ops are plain slice arithmetic, and CI
//! runs this module under Miri.

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::ids::{PropId, TypeId};

/// Largest arena index an id (and therefore a bit position) can hold.
pub const MAX_ARENA_INDEX: usize = u32::MAX as usize;

/// Which arena overflowed — carried by [`ArenaFull`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaKind {
    /// The type arena (`TypeId` space).
    Types,
    /// The property arena (`PropId` space).
    Props,
}

impl ArenaKind {
    /// Human label used in error messages.
    pub fn label(self) -> &'static str {
        match self {
            ArenaKind::Types => "type",
            ArenaKind::Props => "property",
        }
    }
}

/// Typed arena-bound violation: an index does not fit the `u32` id
/// space the bit kernel (and every id) is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaFull {
    /// The arena that overflowed.
    pub arena: ArenaKind,
    /// The offending index.
    pub index: usize,
}

impl fmt::Display for ArenaFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} arena index {} exceeds the u32::MAX id space",
            self.arena.label(),
            self.index
        )
    }
}

impl std::error::Error for ArenaFull {}

/// Check that `index` fits the `u32` id/bit space. This is the single
/// arena-bound check in the crate: slot allocation calls it before
/// growing an arena, and the id constructors delegate to it.
#[inline]
pub fn ensure_arena_index(index: usize, arena: ArenaKind) -> Result<u32, ArenaFull> {
    u32::try_from(index).map_err(|_| ArenaFull { arena, index })
}

const WORD_BITS: u32 = 64;

#[inline]
fn word_of(bit: u32) -> u32 {
    bit / WORD_BITS
}

#[inline]
fn mask_of(bit: u32) -> u64 {
    1u64 << (bit % WORD_BITS)
}

/// An untyped dense bitset over `u32` positions, stored as the trimmed
/// span of `u64` words that contains all set bits.
///
/// Canonical form (maintained by every operation): an empty set has no
/// words and `start == 0`; a non-empty set's first and last stored
/// words are non-zero. Derived equality is therefore set equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawBitSet {
    /// Word index of `words[0]`.
    start: u32,
    /// Cached number of set bits.
    count: u32,
    /// The stored word span.
    words: Vec<u64>,
}

impl RawBitSet {
    /// The empty set.
    #[inline]
    pub const fn new() -> RawBitSet {
        RawBitSet {
            start: 0,
            count: 0,
            words: Vec::new(),
        }
    }

    /// The set of `bits`, given in any order and with repeats, in one
    /// allocation: the span from the smallest to the largest word.
    pub(crate) fn from_bits(bits: &[u32]) -> RawBitSet {
        let (Some(&lo), Some(&hi)) = (bits.iter().min(), bits.iter().max()) else {
            return RawBitSet::new();
        };
        let start = word_of(lo);
        let mut words = vec![0u64; (word_of(hi) - start + 1) as usize];
        for &bit in bits {
            words[(word_of(bit) - start) as usize] |= mask_of(bit);
        }
        let count = words.iter().map(|w| w.count_ones()).sum();
        RawBitSet {
            start,
            count,
            words,
        }
    }

    /// Number of set bits (cached; O(1)).
    #[inline]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Remove every bit.
    #[inline]
    pub fn clear(&mut self) {
        self.start = 0;
        self.count = 0;
        self.words.clear();
    }

    /// One-past-the-last stored word index.
    #[inline]
    fn end(&self) -> u32 {
        self.start + self.words.len() as u32
    }

    /// The stored word at global word index `w`, or 0 outside the span.
    #[inline]
    fn word_at(&self, w: u32) -> u64 {
        if w < self.start || w >= self.end() {
            0
        } else {
            self.words[(w - self.start) as usize]
        }
    }

    /// Is `bit` in the set?
    #[inline]
    pub fn contains(&self, bit: u32) -> bool {
        self.word_at(word_of(bit)) & mask_of(bit) != 0
    }

    /// Grow the stored span (with zero words) to cover word indexes
    /// `[ns, ne)`. Callers must re-establish the trim invariant.
    fn grow_span(&mut self, ns: u32, ne: u32) {
        debug_assert!(ns <= ne);
        if self.words.is_empty() {
            self.start = ns;
            self.words.resize((ne - ns) as usize, 0);
            return;
        }
        if ns < self.start {
            let pad = (self.start - ns) as usize;
            self.words.splice(0..0, std::iter::repeat_n(0, pad));
            self.start = ns;
        }
        if ne > self.end() {
            let grow = (ne - self.end()) as usize;
            self.words.resize(self.words.len() + grow, 0);
        }
    }

    /// Re-establish the canonical trim invariant and recount.
    fn normalize(&mut self) {
        let lead = self.words.iter().take_while(|&&w| w == 0).count();
        if lead == self.words.len() {
            self.clear();
            return;
        }
        if lead > 0 {
            self.words.drain(..lead);
            self.start += lead as u32;
        }
        let tail = self.words.iter().rev().take_while(|&&w| w == 0).count();
        if tail > 0 {
            self.words.truncate(self.words.len() - tail);
        }
        self.count = self.words.iter().map(|w| w.count_ones()).sum();
    }

    /// Insert `bit`; returns `true` if it was not already present.
    pub fn insert(&mut self, bit: u32) -> bool {
        let w = word_of(bit);
        if self.words.is_empty() {
            self.start = w;
            self.words.push(mask_of(bit));
            self.count = 1;
            return true;
        }
        if w < self.start || w >= self.end() {
            self.grow_span(w.min(self.start), (w + 1).max(self.end()));
        }
        let slot = &mut self.words[(w - self.start) as usize];
        if *slot & mask_of(bit) != 0 {
            // Present already; the span was grown only if the bit was
            // outside it, in which case it cannot have been present.
            return false;
        }
        *slot |= mask_of(bit);
        self.count += 1;
        true
    }

    /// Remove `bit`; returns `true` if it was present.
    pub fn remove(&mut self, bit: u32) -> bool {
        let w = word_of(bit);
        if w < self.start || w >= self.end() {
            return false;
        }
        let idx = (w - self.start) as usize;
        if self.words[idx] & mask_of(bit) == 0 {
            return false;
        }
        self.words[idx] &= !mask_of(bit);
        self.count -= 1;
        // Only the span ends can need re-trimming.
        if idx == 0 || idx + 1 == self.words.len() {
            self.normalize();
        }
        true
    }

    /// Smallest bit in the set.
    pub fn first(&self) -> Option<u32> {
        let w = self.words.first()?;
        Some(self.start * WORD_BITS + w.trailing_zeros())
    }

    /// `self ∪= other`, word-parallel.
    pub fn union_with(&mut self, other: &RawBitSet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.clone_from(other);
            return;
        }
        self.grow_span(self.start.min(other.start), self.end().max(other.end()));
        let off = (other.start - self.start) as usize;
        for (i, w) in other.words.iter().enumerate() {
            self.words[off + i] |= w;
        }
        // Union of trimmed spans keeps non-zero ends; just recount.
        self.count = self.words.iter().map(|w| w.count_ones()).sum();
    }

    /// `self ∩= other`, word-parallel.
    pub fn intersect_with(&mut self, other: &RawBitSet) {
        if self.is_empty() {
            return;
        }
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.word_at(self.start + i as u32);
        }
        self.normalize();
    }

    /// `self −= other` (set difference), word-parallel.
    pub fn subtract(&mut self, other: &RawBitSet) {
        if self.is_empty() || other.is_empty() {
            return;
        }
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= !other.word_at(self.start + i as u32);
        }
        self.normalize();
    }

    /// Is every bit of `self` in `other`?
    pub fn is_subset(&self, other: &RawBitSet) -> bool {
        if self.count > other.count {
            return false;
        }
        self.words
            .iter()
            .enumerate()
            .all(|(i, w)| w & !other.word_at(self.start + i as u32) == 0)
    }

    /// Do the sets share no bit?
    pub fn is_disjoint(&self, other: &RawBitSet) -> bool {
        self.first_common(other).is_none()
    }

    /// Smallest bit present in both sets, if any (the word-parallel
    /// intersection witness used by the planner's disjointness checks).
    pub fn first_common(&self, other: &RawBitSet) -> Option<u32> {
        let lo = self.start.max(other.start);
        let hi = self.end().min(other.end());
        for w in lo..hi {
            let both = self.word_at(w) & other.word_at(w);
            if both != 0 {
                return Some(w * WORD_BITS + both.trailing_zeros());
            }
        }
        None
    }

    /// Iterate set bits in ascending order.
    pub fn iter(&self) -> RawIter<'_> {
        RawIter {
            words: &self.words,
            base: self.start,
            idx: 0,
            cur: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Ascending iterator over the bits of a [`RawBitSet`].
#[derive(Debug, Clone)]
pub struct RawIter<'a> {
    words: &'a [u64],
    base: u32,
    idx: usize,
    cur: u64,
}

impl Iterator for RawIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.cur == 0 {
            self.idx += 1;
            if self.idx >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.idx];
        }
        let bit = self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        Some((self.base + self.idx as u32) * WORD_BITS + bit)
    }
}

impl FromIterator<u32> for RawBitSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> RawBitSet {
        let mut s = RawBitSet::new();
        for bit in iter {
            s.insert(bit);
        }
        s
    }
}

impl Extend<u32> for RawBitSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for bit in iter {
            self.insert(bit);
        }
    }
}

/// Hash exactly like `BTreeSet<{TypeId,PropId}>` hashes: a `usize`
/// length prefix, then each element's `u32` in ascending order. The
/// committed schema fingerprints were produced by the `BTreeSet`
/// representation; this keeps them byte-identical (ISSUE 7 acceptance).
fn hash_like_btreeset<H: Hasher>(set: &RawBitSet, state: &mut H) {
    state.write_usize(set.len());
    for bit in set.iter() {
        state.write_u32(bit);
    }
}

/// Declare a typed wrapper over [`RawBitSet`] keyed by an arena id.
macro_rules! typed_bitset {
    ($(#[$doc:meta])* $name:ident, $id:ty, $mk:expr, $ix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $name(RawBitSet);

        impl $name {
            /// The empty set.
            #[inline]
            pub const fn new() -> $name {
                $name(RawBitSet::new())
            }

            /// The set of the ids whose arena indexes are `bits` (any
            /// order, repeats allowed), in one allocation.
            pub(crate) fn from_bits(bits: &[u32]) -> $name {
                $name(RawBitSet::from_bits(bits))
            }

            /// Number of elements (O(1)).
            #[inline]
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// Is the set empty?
            #[inline]
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// Remove every element.
            #[inline]
            pub fn clear(&mut self) {
                self.0.clear()
            }

            /// Membership test.
            #[inline]
            pub fn contains(&self, id: $id) -> bool {
                self.0.contains($ix(id))
            }

            /// Insert; returns `true` if newly added.
            #[inline]
            pub fn insert(&mut self, id: $id) -> bool {
                self.0.insert($ix(id))
            }

            /// Remove; returns `true` if it was present.
            #[inline]
            pub fn remove(&mut self, id: $id) -> bool {
                self.0.remove($ix(id))
            }

            /// Smallest element.
            #[inline]
            pub fn first(&self) -> Option<$id> {
                self.0.first().map($mk)
            }

            /// Word-parallel `self ∪= other`.
            #[inline]
            pub fn union_with(&mut self, other: &$name) {
                self.0.union_with(&other.0)
            }

            /// Word-parallel `self ∩= other`.
            #[inline]
            pub fn intersect_with(&mut self, other: &$name) {
                self.0.intersect_with(&other.0)
            }

            /// Word-parallel `self −= other`.
            #[inline]
            pub fn subtract(&mut self, other: &$name) {
                self.0.subtract(&other.0)
            }

            /// Word-parallel subset test.
            #[inline]
            pub fn is_subset(&self, other: &$name) -> bool {
                self.0.is_subset(&other.0)
            }

            /// Word-parallel disjointness test.
            #[inline]
            pub fn is_disjoint(&self, other: &$name) -> bool {
                self.0.is_disjoint(&other.0)
            }

            /// Smallest shared element, if any.
            #[inline]
            pub fn first_common(&self, other: &$name) -> Option<$id> {
                self.0.first_common(&other.0).map($mk)
            }

            /// Ascending iterator.
            pub fn iter(&self) -> impl Iterator<Item = $id> + '_ {
                self.0.iter().map($mk)
            }

            /// Convert to the `BTreeSet` form the public accessors
            /// return (thin conversion; iteration is already ordered).
            pub fn to_btree(&self) -> BTreeSet<$id> {
                self.iter().collect()
            }
        }

        impl Hash for $name {
            fn hash<H: Hasher>(&self, state: &mut H) {
                hash_like_btreeset(&self.0, state)
            }
        }

        impl FromIterator<$id> for $name {
            fn from_iter<I: IntoIterator<Item = $id>>(iter: I) -> $name {
                let mut s = $name::new();
                for id in iter {
                    s.insert(id);
                }
                s
            }
        }

        impl Extend<$id> for $name {
            fn extend<I: IntoIterator<Item = $id>>(&mut self, iter: I) {
                for id in iter {
                    self.insert(id);
                }
            }
        }

        impl<'a> IntoIterator for &'a $name {
            type Item = $id;
            type IntoIter = std::iter::Map<RawIter<'a>, fn(u32) -> $id>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.iter().map($mk)
            }
        }

        impl From<&BTreeSet<$id>> for $name {
            fn from(set: &BTreeSet<$id>) -> $name {
                set.iter().copied().collect()
            }
        }
    };
}

typed_bitset!(
    /// A dense set of [`TypeId`]s (bit position = arena index).
    TypeSet,
    TypeId,
    TypeId::from_u32,
    TypeId::to_u32
);

typed_bitset!(
    /// A dense set of [`PropId`]s (bit position = arena index).
    PropSet,
    PropId,
    PropId::from_u32,
    PropId::to_u32
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut s = RawBitSet::new();
        for bit in [0u32, 1, 63, 64, 65, 127, 128, 129, 4000] {
            assert!(s.insert(bit));
            assert!(!s.insert(bit), "double insert of {bit}");
            assert!(s.contains(bit));
        }
        assert_eq!(s.len(), 9);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [0, 1, 63, 64, 65, 127, 128, 129, 4000]
        );
        for bit in [0u32, 1, 63, 64, 65, 127, 128, 129, 4000] {
            assert!(s.remove(bit));
            assert!(!s.remove(bit));
        }
        assert!(s.is_empty());
        assert_eq!(s, RawBitSet::new(), "removal must restore canonical empty");
    }

    #[test]
    fn trimmed_representation_is_canonical() {
        // Two construction orders, one canonical form.
        let a: RawBitSet = [900u32, 130, 131].into_iter().collect();
        let b: RawBitSet = [131u32, 900, 130].into_iter().collect();
        assert_eq!(a, b);
        // Removing the span ends re-trims.
        let mut c = a.clone();
        assert!(c.remove(900));
        let d: RawBitSet = [130u32, 131].into_iter().collect();
        assert_eq!(c, d);
    }

    #[test]
    fn from_bits_is_the_canonical_set() {
        for bits in [
            &[][..],
            &[0],
            &[63, 64],
            &[900, 130, 131, 130],
            &[4_000, 5, 4_000, 64, 127],
            &[u32::MAX, u32::MAX - 70],
        ] {
            let want: RawBitSet = bits.iter().copied().collect();
            let got = RawBitSet::from_bits(bits);
            assert_eq!(got, want, "{bits:?}");
            assert_eq!(
                got.words.capacity(),
                got.words.len(),
                "one exact allocation"
            );
        }
    }

    #[test]
    fn word_ops_match_btreeset_semantics() {
        // Spans that only partially overlap, including disjoint spans.
        let cases: [(&[u32], &[u32]); 5] = [
            (&[1, 64, 200], &[64, 65, 4100]),
            (&[0, 63], &[64, 127]),
            (&[1000, 1001], &[1, 2]),
            (&[], &[5, 6]),
            (&[70, 71, 72], &[70, 71, 72]),
        ];
        for (xs, ys) in cases {
            let bx: BTreeSet<u32> = xs.iter().copied().collect();
            let by: BTreeSet<u32> = ys.iter().copied().collect();
            let rx: RawBitSet = xs.iter().copied().collect();
            let ry: RawBitSet = ys.iter().copied().collect();

            let mut u = rx.clone();
            u.union_with(&ry);
            assert_eq!(u.iter().collect::<BTreeSet<_>>(), &bx | &by);

            let mut i = rx.clone();
            i.intersect_with(&ry);
            assert_eq!(i.iter().collect::<BTreeSet<_>>(), &bx & &by);

            let mut d = rx.clone();
            d.subtract(&ry);
            assert_eq!(d.iter().collect::<BTreeSet<_>>(), &bx - &by);

            assert_eq!(rx.is_subset(&ry), bx.is_subset(&by));
            assert_eq!(rx.is_disjoint(&ry), bx.is_disjoint(&by));
            assert_eq!(
                rx.first_common(&ry),
                bx.intersection(&by).next().copied(),
                "{xs:?} ∩ {ys:?}"
            );
        }
    }

    #[test]
    fn word_boundary_sizes() {
        // 63/64/65 and 127/128/129 straddle the u64 word edges.
        for n in [63u32, 64, 65, 127, 128, 129] {
            let s: RawBitSet = (0..n).collect();
            assert_eq!(s.len(), n as usize);
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            assert!(s.contains(n - 1));
            assert!(!s.contains(n));
            let mut t = s.clone();
            assert!(t.remove(n - 1));
            assert_eq!(t.len(), n as usize - 1);
            assert!(!t.contains(n - 1));
            let full: RawBitSet = (0..n).collect();
            assert!(t.is_subset(&full));
            assert!(!full.is_subset(&t));
        }
    }

    #[test]
    fn typed_sets_hash_like_btreesets() {
        // The schema fingerprint hashes pe/ne/p/pl/n/h rows; the bitset
        // hash must agree with the BTreeSet hash bit for bit.
        let ids = [0u32, 3, 64, 65, 900];
        let bt: BTreeSet<TypeId> = ids
            .iter()
            .map(|&i| TypeId::from_index(i as usize))
            .collect();
        let bs: TypeSet = bt.iter().copied().collect();
        assert_eq!(hash_of(&bt), hash_of(&bs));

        let bp: BTreeSet<PropId> = ids
            .iter()
            .map(|&i| PropId::from_index(i as usize))
            .collect();
        let ps: PropSet = bp.iter().copied().collect();
        assert_eq!(hash_of(&bp), hash_of(&ps));

        let empty_bt: BTreeSet<TypeId> = BTreeSet::new();
        assert_eq!(hash_of(&empty_bt), hash_of(&TypeSet::new()));
    }

    #[test]
    fn typed_roundtrip_and_btree_conversion() {
        let ids: Vec<TypeId> = [5usize, 1, 64, 63]
            .iter()
            .map(|&i| TypeId::from_index(i))
            .collect();
        let s: TypeSet = ids.iter().copied().collect();
        assert_eq!(s.len(), 4);
        assert_eq!(s.first(), Some(TypeId::from_index(1)));
        let bt = s.to_btree();
        assert_eq!(bt, ids.iter().copied().collect::<BTreeSet<_>>());
        assert_eq!(TypeSet::from(&bt), s);
        // Iteration is ascending by arena index.
        let order: Vec<usize> = s.iter().map(TypeId::index).collect();
        assert_eq!(order, [1, 5, 63, 64]);
    }

    fn props(ixs: &[usize]) -> PropSet {
        ixs.iter().map(|&i| PropId::from_index(i)).collect()
    }

    #[test]
    fn prop_set_word_span_ops() {
        let f = props(&(0..130).collect::<Vec<_>>());
        assert_eq!(f.len(), 130);
        assert!(f.contains(PropId::from_index(0)) && f.contains(PropId::from_index(129)));
        assert!(!f.contains(PropId::from_index(130)));
        let small = props(&[7, 128]);
        assert!(small.is_subset(&f));
        assert!(!f.is_subset(&small));
        assert_eq!(small.first_common(&f), Some(PropId::from_index(7)));
        let far = props(&[4096]);
        assert!(far.is_disjoint(&f));
        let mut u = small.clone();
        u.union_with(&far);
        assert_eq!(u, props(&[7, 128, 4096]));
    }

    #[test]
    fn prop_set_subtract_matches_set_difference() {
        // Straddles a word boundary and subtracts a superset-span set.
        let a = props(&[1, 63, 64, 200]);
        let b = props(&[63, 64, 4100]);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d, props(&[1, 200]));
        // Subtracting a disjoint set is the identity; subtracting self empties.
        let mut e = a.clone();
        e.subtract(&PropSet::new());
        assert_eq!(e, a);
        e.subtract(&a);
        assert!(e.is_empty());
        assert_eq!(
            e,
            PropSet::new(),
            "difference must re-trim to canonical empty"
        );
    }

    #[test]
    fn arena_bound_is_typed() {
        assert_eq!(ensure_arena_index(17, ArenaKind::Types), Ok(17));
        let err = ensure_arena_index(MAX_ARENA_INDEX + 1, ArenaKind::Props).unwrap_err();
        assert_eq!(err.arena, ArenaKind::Props);
        assert!(err.to_string().contains("u32::MAX"), "{err}");
    }
}
