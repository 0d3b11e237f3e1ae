//! Corruption fuzzing for the object-store snapshot parser: hostile bytes
//! must come back as `Err`, never as a panic or a stack overflow
//! (ISSUE 3, satellite 2).

use axiombase_core::{LatticeConfig, Schema};
use axiombase_store::{ObjectStore, Policy, Value};
use proptest::prelude::*;

/// A valid snapshot exercising every value shape: null, bool, int, real,
/// string (with quoting hazards), oid reference, and nested lists.
fn valid_snapshot() -> String {
    let mut schema = Schema::new(LatticeConfig::default());
    let root = schema.add_root_type("T_object").unwrap();
    let a = schema.add_type("A", [root], []).unwrap();
    let p = schema.define_property_on(a, "p").unwrap();
    let q = schema.define_property_on(a, "q \"tricky\\name").unwrap();
    let mut store = ObjectStore::new(Policy::Eager);
    let o1 = store.create(&schema, a).unwrap();
    let o2 = store.create(&schema, a).unwrap();
    store.set(&schema, o1, p, Value::Int(-7)).unwrap();
    store
        .set(
            &schema,
            o1,
            q,
            Value::Str("line\nbreak \"and\" quote".into()),
        )
        .unwrap();
    store.set(&schema, o2, p, Value::Ref(o1)).unwrap();
    store
        .set(
            &schema,
            o2,
            q,
            Value::List(vec![
                Value::Bool(true),
                Value::Real(1.5),
                Value::List(vec![Value::Null, Value::Int(0)]),
            ]),
        )
        .unwrap();
    store.delete(o1).unwrap(); // tombstone in the oid space
    store.to_snapshot()
}

fn mutate(text: &str, flips: &[(u16, u8)], trunc: u16, drop_line: u8, dup_line: u8) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    if !lines.is_empty() {
        let d = drop_line as usize % (lines.len() + 1);
        if d < lines.len() {
            lines.remove(d);
        }
    }
    if !lines.is_empty() {
        let d = dup_line as usize % lines.len();
        let l = lines[d];
        lines.insert(d, l);
    }
    let mut bytes = lines.join("\n").into_bytes();
    bytes.push(b'\n');
    for &(pos, xor) in flips {
        if !bytes.is_empty() {
            let i = pos as usize % bytes.len();
            bytes[i] ^= xor;
        }
    }
    let keep = trunc as usize % (bytes.len() + 1);
    bytes.truncate(keep);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// An id past the `u32` id space is a typed refusal on its line, not a
/// panic in the id constructor.
#[test]
fn ids_past_the_id_space_are_refused() {
    for (line, want) in [
        (
            "object 1 type 4294967296 conforming 0 slots[]",
            "type arena index 4294967296 exceeds the u32::MAX id space",
        ),
        (
            "object 1 type 0 conforming 0 slots[4294967296=_]",
            "property arena index 4294967296 exceeds the u32::MAX id space",
        ),
    ] {
        let text = format!("store v1 policy lazy next 2\n{line}\n");
        let e = ObjectStore::from_snapshot(&text).unwrap_err();
        assert_eq!((e.line, e.detail.as_str()), (2, want), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_store_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = ObjectStore::from_snapshot(&text);
    }

    #[test]
    fn mutated_store_snapshots_never_panic(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..8),
        trunc in any::<u16>(),
        drop_line in any::<u8>(),
        dup_line in any::<u8>(),
    ) {
        let text = mutate(&valid_snapshot(), &flips, trunc, drop_line, dup_line);
        let _ = ObjectStore::from_snapshot(&text);
    }

    /// Nested-list bombs of fuzzer-chosen depth are rejected without
    /// recursing past the parser's depth cap.
    #[test]
    fn list_nesting_bombs_are_rejected(extra in 0usize..4096) {
        let depth = 80 + extra;
        let v = format!(
            "store v1 policy eager next 1\nobject 0 type 0 conforming 0 slots[0={}n{}]\n",
            "l:[".repeat(depth),
            "]".repeat(depth)
        );
        prop_assert!(ObjectStore::from_snapshot(&v).is_err());
    }
}
