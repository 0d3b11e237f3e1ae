//! Object identity and encapsulated state.
//!
//! "Objects consist of a unique identity and an encapsulated state" (§3.1).
//! Identity is a monotonically assigned [`Oid`] that is never reused;
//! "objects are created with a unique, immutable object identity" (§5). The
//! state is a [`Slots`] vector, one `(property, value)` pair per stored
//! property in ascending property order — the concrete realisation of the
//! stored side of properties, which the high-level axiomatic model
//! abstracts away.

use axiombase_core::{PropId, PropSet, TypeId};

use crate::value::Value;

/// Unique, immutable object identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid(u64);

impl Oid {
    /// Construct from a raw id (tests and serializers).
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        Oid(raw)
    }

    /// The raw id.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Oid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// How an instance relates to the *current* schema version — driven by the
/// change-propagation policy in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conformance {
    /// Slots match the type's current interface exactly.
    Conforming,
    /// The schema changed under this object and the policy deferred its
    /// conversion (lazy conversion / screening).
    Stale,
}

/// An object's encapsulated state: one `(property, value)` pair per
/// stored property, in ascending property order, in one vector sized to
/// its contents. A lookup is a binary search; reconciling the slots with
/// an interface row is one linear merge.
#[derive(Clone, PartialEq, Default)]
pub struct Slots(Vec<(PropId, Value)>);

type Pair<'a> = (&'a PropId, &'a Value);
type Pairs<'a> =
    std::iter::Map<std::slice::Iter<'a, (PropId, Value)>, fn(&(PropId, Value)) -> Pair<'_>>;

fn pair((p, v): &(PropId, Value)) -> Pair<'_> {
    (p, v)
}

impl Slots {
    /// One `Null` slot per property of `iface`.
    pub(crate) fn nulls(iface: &PropSet) -> Self {
        let mut slots = Vec::with_capacity(iface.len());
        slots.extend(iface.iter().map(|p| (p, Value::Null)));
        Slots(slots)
    }

    fn find(&self, p: PropId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&p, |e| e.0)
    }

    /// The value stored for `p`.
    pub fn get(&self, p: &PropId) -> Option<&Value> {
        self.find(*p).ok().map(|i| &self.0[i].1)
    }

    /// Is a value stored for `p`?
    pub fn contains_key(&self, p: &PropId) -> bool {
        self.find(*p).is_ok()
    }

    /// The stored properties, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &PropId> + '_ {
        self.0.iter().map(|e| &e.0)
    }

    /// The stored `(property, value)` pairs, in ascending property order.
    pub fn iter(&self) -> Pairs<'_> {
        self.into_iter()
    }

    /// Number of stored slots.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// No slots stored?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Store `v` under `p`, replacing the value stored there.
    pub(crate) fn insert(&mut self, p: PropId, v: Value) {
        match self.find(p) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (p, v)),
        }
    }

    /// Remove and return the value stored under `p`.
    pub(crate) fn remove(&mut self, p: PropId) -> Option<Value> {
        self.find(p).ok().map(|i| self.0.remove(i).1)
    }

    /// Make the slots exactly `iface`'s properties in one merge of the two
    /// ascending sequences: a slot outside `iface` is dropped, a property
    /// without a slot gets `Null`, every other value stays. Returns the
    /// slots `(added, dropped)`; slots that already match allocate nothing.
    pub(crate) fn conform_to(&mut self, iface: &PropSet) -> (u64, u64) {
        if self.0.len() == iface.len() && self.keys().copied().eq(iface.iter()) {
            return (0, 0);
        }
        let before = self.0.len() as u64;
        let mut out = Vec::with_capacity(iface.len());
        let mut old = std::mem::take(&mut self.0).into_iter().peekable();
        let (mut added, mut kept) = (0u64, 0u64);
        for p in iface.iter() {
            while old.next_if(|e| e.0 < p).is_some() {}
            match old.next_if(|e| e.0 == p) {
                Some(e) => {
                    kept += 1;
                    out.push(e);
                }
                None => {
                    added += 1;
                    out.push((p, Value::Null));
                }
            }
        }
        self.0 = out;
        (added, before - kept)
    }
}

impl<'a> IntoIterator for &'a Slots {
    type Item = Pair<'a>;
    type IntoIter = Pairs<'a>;

    fn into_iter(self) -> Pairs<'a> {
        self.0.iter().map(pair as fn(&(PropId, Value)) -> Pair<'_>)
    }
}

/// Slots from `(property, value)` pairs in any order; the last value
/// given for a property is the one kept.
impl FromIterator<(PropId, Value)> for Slots {
    fn from_iter<I: IntoIterator<Item = (PropId, Value)>>(pairs: I) -> Self {
        let mut v: Vec<(PropId, Value)> = pairs.into_iter().collect();
        // Stable, so a run of equal keys keeps its order: each later pair
        // hands its value to the one kept before it.
        v.sort_by_key(|e| e.0);
        v.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        v.shrink_to_fit();
        Slots(v)
    }
}

impl std::ops::Index<&PropId> for Slots {
    type Output = Value;

    fn index(&self, p: &PropId) -> &Value {
        self.get(p).unwrap_or_else(|| panic!("no slot for {p}"))
    }
}

impl std::fmt::Debug for Slots {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self).finish()
    }
}

/// One stored object: its type, slots, and conformance bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRecord {
    /// The type this object was created from (its class membership).
    pub ty: TypeId,
    /// Encapsulated state: one slot per interface property.
    pub slots: Slots,
    /// Conformance with respect to the current schema version.
    pub conformance: Conformance,
    /// Schema version the slots were last made to conform to.
    pub conforms_to_version: u64,
}

impl ObjectRecord {
    /// Create a record with the given slots, conforming at `version`.
    pub fn new(ty: TypeId, slots: Slots, version: u64) -> Self {
        ObjectRecord {
            ty,
            slots,
            conformance: Conformance::Conforming,
            conforms_to_version: version,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_roundtrip_and_display() {
        let o = Oid::from_raw(42);
        assert_eq!(o.raw(), 42);
        assert_eq!(o.to_string(), "o42");
        assert!(Oid::from_raw(1) < Oid::from_raw(2));
    }

    #[test]
    fn record_starts_conforming() {
        let r = ObjectRecord::new(TypeId::from_index(0), Slots::default(), 7);
        assert_eq!(r.conformance, Conformance::Conforming);
        assert_eq!(r.conforms_to_version, 7);
    }

    fn p(i: usize) -> PropId {
        PropId::from_index(i)
    }

    #[test]
    fn slots_read_like_a_map() {
        let s: Slots = [
            (p(5), Value::Int(1)),
            (p(2), Value::Null),
            (p(5), Value::Int(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.keys().copied().collect::<Vec<_>>(), [p(2), p(5)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s[&p(5)], Value::Int(2));
        assert_eq!(s.get(&p(3)), None);
        assert!(s.contains_key(&p(2)) && !s.contains_key(&p(9)));
        assert_eq!(format!("{s:?}"), "{p2: Null, p5: Int(2)}");
        let pairs: Vec<(&PropId, &Value)> = (&s).into_iter().collect();
        assert_eq!(pairs, s.iter().collect::<Vec<_>>());
    }

    #[test]
    fn conform_to_is_one_merge_that_keeps_shared_values() {
        let mut s: Slots = [
            (p(1), Value::Int(1)),
            (p(3), Value::Int(3)),
            (p(8), Value::Int(8)),
        ]
        .into_iter()
        .collect();
        let iface: PropSet = [p(0), p(3), p(4), p(9)].into_iter().collect();
        assert_eq!(s.conform_to(&iface), (3, 2));
        assert_eq!(
            s.iter().map(|(p, v)| (*p, v.clone())).collect::<Vec<_>>(),
            [
                (p(0), Value::Null),
                (p(3), Value::Int(3)),
                (p(4), Value::Null),
                (p(9), Value::Null)
            ]
        );
        assert_eq!(s.conform_to(&iface), (0, 0));
        assert_eq!(s.conform_to(&PropSet::default()), (0, 4));
        assert!(s.is_empty());
    }
}
