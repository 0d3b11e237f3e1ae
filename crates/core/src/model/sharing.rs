//! Structurally shared storage for schema versions: the per-slot
//! [`Spine`] and the type-name [`NameIndex`].
//!
//! `SharedSchema::evolve` clones the published version, edits the clone
//! and publishes it, so two costs set the price of a version: the clone,
//! and the copies an edit forces while the clone still shares storage
//! with its source. Both types here keep the clone to a few pointer
//! copies and make an edit copy only the storage it touches:
//!
//! * A [`Spine`] keeps one `Arc`'d cell per arena slot in fixed
//!   [`LEAF`]-slot leaves, each leaf behind its own `Arc`. A clone copies
//!   one pointer per leaf. A write copies its leaf ([`LEAF`] pointers)
//!   while another version shares the leaf, then its cell while another
//!   version shares the cell. A read takes one pointer hop more than a
//!   flat `Vec<Arc<T>>`, and no atomic operation.
//! * A [`NameIndex`] splits the name → [`TypeId`] map into [`SHARDS`]
//!   hash-addressed shards, each behind its own `Arc`. An add, drop or
//!   rename copies only the shard that holds the name.
//!
//! Every copy either type makes goes through [`cow`], the one place that
//! reports copies to an attached observer (`engine.cow_copies`).

use std::collections::HashMap;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::ids::TypeId;
use crate::obs::EvolveObs;

/// Slots per spine leaf.
const LEAF: usize = 64;

/// Shards of the name index.
const SHARDS: usize = 64;

/// Copy-on-write access to a shared cell, leaf or shard: clones it if (and
/// only if) another schema version still holds it, reporting the copy to
/// the observer when one actually happens. All interior mutation of schema
/// storage funnels through here, so `engine.cow_copies` counts every real
/// copy and nothing else. Schema storage never hands out `Weak`s, so
/// `make_mut` clones exactly when the strong count is not 1, which a plain
/// load tells (`get_mut` would add an atomic read-modify-write per write).
fn cow<'a, T: Clone>(obs: &Option<Arc<EvolveObs>>, arc: &'a mut Arc<T>) -> &'a mut T {
    if let Some(o) = obs {
        if Arc::strong_count(arc) != 1 {
            o.on_cow_copy();
        }
    }
    Arc::make_mut(arc)
}

/// A persistent vector of `Arc`'d cells, chunked into [`LEAF`]-slot
/// leaves that versions share until one of them writes.
pub(crate) struct Spine<T> {
    leaves: Vec<Arc<Leaf<T>>>,
    len: usize,
}

/// One spine leaf. Exactly the cells below the spine's length are `Some`.
struct Leaf<T>([Option<Arc<T>>; LEAF]);

impl<T> Leaf<T> {
    fn empty() -> Self {
        Leaf(std::array::from_fn(|_| None))
    }
}

impl<T> Clone for Leaf<T> {
    fn clone(&self) -> Self {
        Leaf(self.0.clone())
    }
}

impl<T> Spine<T> {
    /// An empty spine.
    pub(crate) fn new() -> Self {
        Spine {
            leaves: Vec::new(),
            len: 0,
        }
    }

    /// `len` cells that all share one `value` (a single allocation).
    pub(crate) fn repeat(len: usize, value: T) -> Self {
        let cell = Arc::new(value);
        Spine::from_cells(std::iter::repeat_with(|| Arc::clone(&cell)).take(len))
    }

    /// A spine of `cells`, each leaf filled before it is shared.
    fn from_cells(cells: impl IntoIterator<Item = Arc<T>>) -> Self {
        let mut spine = Spine::new();
        let mut leaf = Leaf::empty();
        for cell in cells {
            leaf.0[spine.len % LEAF] = Some(cell);
            spine.len += 1;
            if spine.len % LEAF == 0 {
                spine
                    .leaves
                    .push(Arc::new(std::mem::replace(&mut leaf, Leaf::empty())));
            }
        }
        if spine.len % LEAF != 0 {
            spine.leaves.push(Arc::new(leaf));
        }
        spine
    }

    /// Number of cells.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Cell `i`, if `i < len`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.leaves.get(i / LEAF)?.0[i % LEAF].as_deref()
    }

    /// The cells in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.leaves
            .iter()
            .flat_map(|leaf| leaf.0.iter())
            .map_while(Option::as_deref)
    }

    /// Append `value`, copying the last leaf first if another version
    /// shares it.
    pub(crate) fn push(&mut self, obs: &Option<Arc<EvolveObs>>, value: T) {
        let slot = self.len % LEAF;
        if slot == 0 {
            self.leaves.push(Arc::new(Leaf::empty()));
        }
        let leaf = self.leaves.last_mut().expect("a leaf holds slot len");
        cow(obs, leaf).0[slot] = Some(Arc::new(value));
        self.len += 1;
    }

    /// Replace cell `i` with `value`, copying its leaf first if another
    /// version shares it. The old cell is released, never copied.
    pub(crate) fn set(&mut self, obs: &Option<Arc<EvolveObs>>, i: usize, value: T) {
        *self.cell_mut(obs, i) = Arc::new(value);
    }

    /// The `Arc` of cell `i`, in a leaf this spine owns alone.
    fn cell_mut(&mut self, obs: &Option<Arc<EvolveObs>>, i: usize) -> &mut Arc<T> {
        assert!(
            i < self.len,
            "spine index {i} out of bounds (len {})",
            self.len
        );
        cow(obs, &mut self.leaves[i / LEAF]).0[i % LEAF]
            .as_mut()
            .expect("cells below len are filled")
    }

    /// Addresses of the leaves, to test what a write copied.
    #[cfg(test)]
    fn leaf_ptrs(&self) -> Vec<*const ()> {
        self.leaves.iter().map(|l| Arc::as_ptr(l).cast()).collect()
    }
}

impl<T: Clone> Spine<T> {
    /// Mutable access to cell `i`: copies its leaf, then the cell, each only
    /// if another version still shares it.
    pub(crate) fn make_mut(&mut self, obs: &Option<Arc<EvolveObs>>, i: usize) -> &mut T {
        let cell = self.cell_mut(obs, i);
        cow(obs, cell)
    }
}

impl<T> Index<usize> for Spine<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        match self.get(i) {
            Some(v) => v,
            None => panic!("spine index {i} out of bounds (len {})", self.len),
        }
    }
}

impl<T> Clone for Spine<T> {
    fn clone(&self) -> Self {
        Spine {
            leaves: self.leaves.clone(),
            len: self.len,
        }
    }
}

impl<T> FromIterator<T> for Spine<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Spine::from_cells(iter.into_iter().map(Arc::new))
    }
}

impl<T: fmt::Debug> fmt::Debug for Spine<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The type-name index: name → [`TypeId`], split into [`SHARDS`]
/// hash-addressed shards that versions share until one of them writes.
#[derive(Debug, Clone)]
pub(crate) struct NameIndex {
    shards: [Arc<Shard>; SHARDS],
}

/// One name shard.
type Shard = HashMap<String, TypeId>;

impl NameIndex {
    /// An empty index.
    pub(crate) fn new() -> Self {
        NameIndex {
            shards: std::array::from_fn(|_| Arc::default()),
        }
    }

    /// The id `name` maps to.
    #[inline]
    pub(crate) fn get(&self, name: &str) -> Option<TypeId> {
        self.shards[shard_of(name)].get(name).copied()
    }

    /// Map `name` to `t`, copying the name's shard first if another
    /// version shares it. Returns the id `name` mapped to before, if any.
    pub(crate) fn insert(
        &mut self,
        obs: &Option<Arc<EvolveObs>>,
        name: String,
        t: TypeId,
    ) -> Option<TypeId> {
        cow(obs, &mut self.shards[shard_of(&name)]).insert(name, t)
    }

    /// Unmap `name`, copying its shard first if another version shares it.
    pub(crate) fn remove(&mut self, obs: &Option<Arc<EvolveObs>>, name: &str) {
        cow(obs, &mut self.shards[shard_of(name)]).remove(name);
    }

    /// Addresses of the shards, to test what a write copied.
    #[cfg(test)]
    fn shard_ptrs(&self) -> Vec<*const ()> {
        self.shards.iter().map(|s| Arc::as_ptr(s).cast()).collect()
    }
}

/// The shard that holds `name`: FNV-1a over its bytes, high half folded
/// into the low. It only spreads names over shards; each shard map keeps
/// the standard keyed hasher, so names crafted to share a shard can make
/// that shard's copy as large as one map of every name, but never slow a
/// lookup.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as usize % SHARDS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{names, MetricsRegistry};

    fn counted() -> (Arc<MetricsRegistry>, Option<Arc<EvolveObs>>) {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = Some(Arc::new(EvolveObs::new(Arc::clone(&reg))));
        (reg, obs)
    }

    /// Indices of the leaves (or shards) whose pointers differ.
    fn changed(a: &[*const ()], b: &[*const ()]) -> Vec<usize> {
        assert_eq!(a.len(), b.len());
        (0..a.len()).filter(|&i| a[i] != b[i]).collect()
    }

    #[test]
    fn push_crosses_leaf_edges() {
        let mut s = Spine::new();
        for i in 0..200u32 {
            s.push(&None, i);
            assert_eq!(s.len(), i as usize + 1);
            assert_eq!(s.leaf_ptrs().len(), i as usize / LEAF + 1);
        }
        for i in [0, 63, 64, 127, 128, 199] {
            assert_eq!(s[i], i as u32);
            assert_eq!(s.get(i), Some(&(i as u32)));
        }
        assert_eq!(s.get(200), None);
        assert_eq!(s.get(256), None);
    }

    #[test]
    fn iteration_runs_in_index_order() {
        for n in [0usize, 1, 63, 64, 65, 128, 130] {
            let s: Spine<usize> = (0..n).collect();
            assert_eq!(
                s.iter().copied().collect::<Vec<_>>(),
                (0..n).collect::<Vec<_>>()
            );
            assert!(s.iter().enumerate().all(|(i, &v)| i == v));
        }
        let r = Spine::repeat(70, 7u8);
        assert_eq!(r.len(), 70);
        assert!(r.iter().all(|&v| v == 7));
    }

    #[test]
    fn write_to_a_clone_copies_exactly_one_leaf() {
        let (reg, obs) = counted();
        let mut source: Spine<String> = (0..200).map(|i| i.to_string()).collect();
        let mut clone = source.clone();
        assert_eq!(source.leaf_ptrs(), clone.leaf_ptrs());

        // make_mut: the leaf, then the cell — two copies.
        clone.make_mut(&obs, 130).push('!');
        assert_eq!(changed(&source.leaf_ptrs(), &clone.leaf_ptrs()), vec![2]);
        assert_eq!((source[130].as_str(), clone[130].as_str()), ("130", "130!"));
        assert_eq!(reg.get(names::ENGINE_COW_COPIES), 2);

        // set: the leaf only; the old cell is released, not copied.
        let clone2 = source.clone();
        source.set(&obs, 5, "five".into());
        assert_eq!(changed(&source.leaf_ptrs(), &clone2.leaf_ptrs()), vec![0]);
        assert_eq!((source[5].as_str(), clone2[5].as_str()), ("five", "5"));
        assert_eq!(reg.get(names::ENGINE_COW_COPIES), 3);

        // push into a shared last leaf copies that leaf alone.
        let before = clone.leaf_ptrs();
        let keep = clone.clone();
        clone.push(&obs, "200".into());
        assert_eq!(changed(&before, &clone.leaf_ptrs()), vec![3]);
        assert_eq!((keep.len(), clone.len()), (200, 201));
        assert_eq!(reg.get(names::ENGINE_COW_COPIES), 4);
    }

    #[test]
    fn write_to_a_unique_spine_copies_nothing() {
        let (reg, obs) = counted();
        let mut s: Spine<String> = (0..130).map(|i| i.to_string()).collect();
        let before = s.leaf_ptrs();
        s.make_mut(&obs, 70).push('!');
        s.set(&obs, 0, "zero".into());
        s.push(&obs, "130".into());
        assert_eq!(s.leaf_ptrs(), before);
        assert_eq!(
            (s[70].as_str(), s[0].as_str(), s.len()),
            ("70!", "zero", 131)
        );
        assert_eq!(reg.get(names::ENGINE_COW_COPIES), 0);
    }

    #[test]
    fn write_to_a_cloned_name_index_copies_exactly_one_shard() {
        let (reg, obs) = counted();
        let mut source = NameIndex::new();
        for i in 0..200 {
            source.insert(&None, format!("T{i}"), TypeId::from_index(i));
        }
        assert_eq!(reg.get(names::ENGINE_COW_COPIES), 0);

        let mut clone = source.clone();
        clone.insert(&obs, "fresh".into(), TypeId::from_index(200));
        assert_eq!(
            changed(&source.shard_ptrs(), &clone.shard_ptrs()),
            vec![shard_of("fresh")]
        );
        assert_eq!(source.get("fresh"), None);
        assert_eq!(clone.get("fresh"), Some(TypeId::from_index(200)));

        let mut clone = source.clone();
        clone.remove(&obs, "T7");
        assert_eq!(
            changed(&source.shard_ptrs(), &clone.shard_ptrs()),
            vec![shard_of("T7")]
        );
        assert_eq!(source.get("T7"), Some(TypeId::from_index(7)));
        assert_eq!(clone.get("T7"), None);
        assert_eq!(reg.get(names::ENGINE_COW_COPIES), 2);

        // The clone now owns that shard: a second write copies nothing.
        clone.insert(&obs, "T7".into(), TypeId::from_index(7));
        assert_eq!(reg.get(names::ENGINE_COW_COPIES), 2);
    }
}
