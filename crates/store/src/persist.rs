//! Plain-text persistence for the instance store.
//!
//! Companion to the schema snapshot format of `axiombase-core`: the same
//! line-oriented, human-auditable style, covering object records, extents
//! (reconstructed), conformance state, and the OID high-water mark (so
//! identities are never reused after a reload). `axiombase-tigukat` embeds
//! this section in its full objectbase snapshot.
//!
//! ```text
//! store v1 policy lazy next 42
//! object 7 type 3 conforming 5 slots[2=i:10, 4=s:"Ada", 5=_]
//! object 9 type 3 stale 4 slots[2=_]
//! ```
//!
//! Value encoding: `_` null, `b:true`, `i:42`, `r:2.5`, `s:"..."` (escaped),
//! `o:7` (reference), `l:[v,v,...]` (list).

use axiombase_core::{PropId, TypeId};

use crate::object::{Conformance, ObjectRecord, Oid, Slots};
use crate::propagation::Policy;
use crate::store::ObjectStore;
use crate::value::Value;

/// Errors raised while parsing a store snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshotError {
    /// 1-based line number within the store section.
    pub line: usize,
    /// Description.
    pub detail: String,
}

impl std::fmt::Display for StoreSnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store snapshot line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for StoreSnapshotError {}

fn encode_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push('_'),
        Value::Bool(b) => {
            out.push_str("b:");
            out.push_str(if *b { "true" } else { "false" });
        }
        Value::Int(i) => {
            out.push_str("i:");
            out.push_str(&i.to_string());
        }
        Value::Real(r) => {
            out.push_str("r:");
            // Debug form round-trips f64 exactly.
            out.push_str(&format!("{r:?}"));
        }
        Value::Str(s) => {
            out.push_str("s:\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    ']' => out.push_str("\\c"), // keep the slot list parseable
                    ',' => out.push_str("\\m"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Ref(o) => {
            out.push_str("o:");
            out.push_str(&o.raw().to_string());
        }
        Value::List(xs) => {
            out.push_str("l:[");
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push('|');
                }
                encode_value(x, out);
            }
            out.push(']');
        }
    }
}

/// Nesting bound for list values: deeper inputs are rejected instead of
/// recursing — an unbounded `l:[l:[l:[…` input must not overflow the stack.
const MAX_VALUE_DEPTH: usize = 64;

fn decode_value(s: &str) -> Result<Value, String> {
    decode_value_at(s, 0)
}

fn decode_value_at(s: &str, depth: usize) -> Result<Value, String> {
    if depth > MAX_VALUE_DEPTH {
        return Err(format!("value nesting deeper than {MAX_VALUE_DEPTH}"));
    }
    if s == "_" {
        return Ok(Value::Null);
    }
    if let Some(rest) = s.strip_prefix("b:") {
        return match rest {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(format!("bad bool {rest:?}")),
        };
    }
    if let Some(rest) = s.strip_prefix("i:") {
        return rest.parse().map(Value::Int).map_err(|e| e.to_string());
    }
    if let Some(rest) = s.strip_prefix("r:") {
        return rest.parse().map(Value::Real).map_err(|e| e.to_string());
    }
    if let Some(rest) = s.strip_prefix("s:") {
        let inner = rest
            .strip_prefix('"')
            .and_then(|r| r.strip_suffix('"'))
            .ok_or_else(|| format!("bad string {rest:?}"))?;
        let mut out = String::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('c') => out.push(']'),
                    Some('m') => out.push(','),
                    Some(c2) => out.push(c2),
                    None => return Err("dangling escape".into()),
                }
            } else {
                out.push(c);
            }
        }
        return Ok(Value::Str(out));
    }
    if let Some(rest) = s.strip_prefix("o:") {
        return rest
            .parse()
            .map(|raw| Value::Ref(Oid::from_raw(raw)))
            .map_err(|e| e.to_string());
    }
    if let Some(rest) = s.strip_prefix("l:") {
        let inner = rest
            .strip_prefix('[')
            .and_then(|r| r.strip_suffix(']'))
            .ok_or_else(|| format!("bad list {rest:?}"))?;
        if inner.is_empty() {
            return Ok(Value::List(Vec::new()));
        }
        let items: Result<Vec<Value>, String> = inner
            .split('|')
            .map(|item| decode_value_at(item, depth + 1))
            .collect();
        return Ok(Value::List(items?));
    }
    Err(format!("unknown value encoding {s:?}"))
}

impl ObjectStore {
    /// Serialize the store to its text snapshot section.
    pub fn to_snapshot(&self) -> String {
        let policy = match self.policy() {
            Policy::Eager => "eager",
            Policy::Lazy => "lazy",
            Policy::Screening => "screening",
            Policy::Filtering => "filtering",
        };
        let mut out = format!("store v1 policy {policy} next {}\n", self.next_oid());
        for oid in self.iter_oids() {
            let rec = self.record(oid).expect("live");
            let conf = match rec.conformance {
                Conformance::Conforming => "conforming",
                Conformance::Stale => "stale",
            };
            let mut slots = String::new();
            for (i, (p, v)) in rec.slots.iter().enumerate() {
                if i > 0 {
                    slots.push_str(", ");
                }
                slots.push_str(&p.index().to_string());
                slots.push('=');
                encode_value(v, &mut slots);
            }
            out.push_str(&format!(
                "object {} type {} {conf} {} slots[{slots}]\n",
                oid.raw(),
                rec.ty.index(),
                rec.conforms_to_version
            ));
        }
        out
    }

    /// Parse a store snapshot section produced by [`Self::to_snapshot`].
    pub fn from_snapshot(text: &str) -> Result<ObjectStore, StoreSnapshotError> {
        let mut lines = text.lines().enumerate();
        let bad = |line: usize, detail: String| StoreSnapshotError {
            line: line + 1,
            detail,
        };
        let (hix, header) = lines
            .next()
            .ok_or_else(|| bad(0, "empty store snapshot".into()))?;
        let words: Vec<&str> = header.split_whitespace().collect();
        let (policy, next) = match words.as_slice() {
            ["store", "v1", "policy", p, "next", n] => {
                let policy = match *p {
                    "eager" => Policy::Eager,
                    "lazy" => Policy::Lazy,
                    "screening" => Policy::Screening,
                    "filtering" => Policy::Filtering,
                    other => return Err(bad(hix, format!("unknown policy {other:?}"))),
                };
                let next: u64 = n
                    .parse()
                    .map_err(|_| bad(hix, format!("bad next oid {n:?}")))?;
                (policy, next)
            }
            _ => return Err(bad(hix, format!("bad store header {header:?}"))),
        };

        let mut store = ObjectStore::new(policy);
        for (ix, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let rest = line
                .strip_prefix("object ")
                .ok_or_else(|| bad(ix, format!("expected object line, got {line:?}")))?;
            // <oid> type <ty> <conf> <version> slots[...]
            let (head, slots_str) = rest
                .split_once(" slots[")
                .ok_or_else(|| bad(ix, "missing slots[...]".into()))?;
            let slots_str = slots_str
                .strip_suffix(']')
                .ok_or_else(|| bad(ix, "unterminated slots[...]".into()))?;
            let hw: Vec<&str> = head.split_whitespace().collect();
            let (oid, ty, conf, version) = match hw.as_slice() {
                [oid, "type", ty, conf, version] => {
                    let oid: u64 = oid.parse().map_err(|_| bad(ix, "bad oid".into()))?;
                    let ty: usize = ty.parse().map_err(|_| bad(ix, "bad type".into()))?;
                    let ty = TypeId::try_from_index(ty).map_err(|e| bad(ix, e.to_string()))?;
                    let conf = match *conf {
                        "conforming" => Conformance::Conforming,
                        "stale" => Conformance::Stale,
                        other => return Err(bad(ix, format!("bad conformance {other:?}"))),
                    };
                    let version: u64 =
                        version.parse().map_err(|_| bad(ix, "bad version".into()))?;
                    (Oid::from_raw(oid), ty, conf, version)
                }
                _ => return Err(bad(ix, format!("bad object header {head:?}"))),
            };
            let mut slots = Vec::new();
            if !slots_str.trim().is_empty() {
                for item in slots_str.split(", ") {
                    let (p, v) = item
                        .split_once('=')
                        .ok_or_else(|| bad(ix, format!("bad slot {item:?}")))?;
                    let p: usize = p.parse().map_err(|_| bad(ix, "bad prop id".into()))?;
                    let p = PropId::try_from_index(p).map_err(|e| bad(ix, e.to_string()))?;
                    slots.push((p, decode_value(v).map_err(|e| bad(ix, e))?));
                }
            }
            // In any order; a repeated property keeps its last value.
            let slots: Slots = slots.into_iter().collect();
            let mut rec = ObjectRecord::new(ty, slots, version);
            rec.conformance = conf;
            store.install_record(oid, rec).map_err(|e| bad(ix, e))?;
        }
        store.set_next_oid(next);
        Ok(store)
    }

    /// Save the snapshot to `path` atomically (write `*.tmp`, fsync,
    /// rename, fsync directory) so a crash mid-save never truncates a
    /// previous good snapshot.
    pub fn save_to(&self, path: &std::path::Path) -> Result<(), StoreSnapshotError> {
        axiombase_core::journal::io::atomic_write_file(path, self.to_snapshot().as_bytes()).map_err(
            |e| StoreSnapshotError {
                line: 0,
                detail: format!("io error writing {}: {e}", path.display()),
            },
        )
    }

    /// Load a store snapshot from `path`.
    pub fn load_from(path: &std::path::Path) -> Result<ObjectStore, StoreSnapshotError> {
        let text = std::fs::read_to_string(path).map_err(|e| StoreSnapshotError {
            line: 0,
            detail: format!("io error reading {}: {e}", path.display()),
        })?;
        ObjectStore::from_snapshot(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axiombase_core::{LatticeConfig, Schema};

    fn fixture() -> (Schema, ObjectStore, Vec<Oid>) {
        let mut schema = Schema::new(LatticeConfig::default());
        let root = schema.add_root_type("T_object").unwrap();
        let t = schema.add_type("T_thing", [root], []).unwrap();
        let p1 = schema.define_property_on(t, "a").unwrap();
        let p2 = schema.define_property_on(t, "b").unwrap();
        let mut store = ObjectStore::new(Policy::Lazy);
        let o1 = store.create(&schema, t).unwrap();
        let o2 = store.create(&schema, t).unwrap();
        store.set(&schema, o1, p1, Value::Int(-3)).unwrap();
        store
            .set(&schema, o1, p2, Value::Str("x,\"]\\\n".into()))
            .unwrap();
        store
            .set(
                &schema,
                o2,
                p1,
                Value::List(vec![Value::Bool(true), Value::Ref(o1), Value::Real(2.5)]),
            )
            .unwrap();
        // Make o2 stale.
        schema.define_property_on(t, "c").unwrap();
        store.on_schema_change(&schema, &[t]);
        let _ = store.get(&schema, o1, p1).unwrap(); // converts o1
        (schema, store, vec![o1, o2])
    }

    #[test]
    fn roundtrip_preserves_records_and_policy() {
        let (_schema, store, oids) = fixture();
        let text = store.to_snapshot();
        let r = ObjectStore::from_snapshot(&text).unwrap();
        assert_eq!(r.policy(), store.policy());
        assert_eq!(r.object_count(), store.object_count());
        for &o in &oids {
            assert_eq!(r.record(o).unwrap(), store.record(o).unwrap());
        }
        // Extents are reconstructed.
        let t = store.record(oids[0]).unwrap().ty;
        assert_eq!(r.extent(t), store.extent(t));
    }

    #[test]
    fn oids_not_reused_after_reload() {
        let (schema, store, oids) = fixture();
        let r = ObjectStore::from_snapshot(&store.to_snapshot()).unwrap();
        let mut r = r;
        let t = r.record(oids[0]).unwrap().ty;
        let fresh = r.create(&schema, t).unwrap();
        assert!(!oids.contains(&fresh));
    }

    #[test]
    fn value_encoding_roundtrips() {
        let values = vec![
            Value::Null,
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Real(-0.0),
            Value::Real(1e300),
            Value::Str("commas, brackets ] quotes \" and\nnewlines \\".into()),
            Value::Ref(Oid::from_raw(u64::MAX)),
            Value::List(vec![
                Value::List(vec![Value::Int(1)]),
                Value::Null,
                Value::Str("nested".into()),
            ]),
        ];
        for v in values {
            let mut s = String::new();
            encode_value(&v, &mut s);
            let d = decode_value(&s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(d, v, "{s}");
        }
    }

    #[test]
    fn bad_snapshots_are_rejected_with_line_numbers() {
        assert!(ObjectStore::from_snapshot("").is_err());
        assert!(ObjectStore::from_snapshot("store v1 policy warp next 0").is_err());
        let e = ObjectStore::from_snapshot("store v1 policy lazy next 0\ngarbage").unwrap_err();
        assert_eq!(e.line, 2);
        let e = ObjectStore::from_snapshot(
            "store v1 policy lazy next 0\nobject 1 type 0 conforming 0 slots[9=zz]",
        )
        .unwrap_err();
        assert!(e.detail.contains("unknown value"), "{e}");
    }

    #[test]
    fn deep_list_nesting_is_rejected_not_overflowed() {
        // Regression: unboundedly nested `l:[l:[…` used to recurse once per
        // level and could overflow the stack on hostile input.
        let deep = format!("{}{}", "l:[".repeat(10_000), "]".repeat(10_000));
        let e = decode_value(&deep).unwrap_err();
        assert!(e.contains("nesting"), "{e}");
        // Nesting at the bound still works.
        let ok = format!("{}i:1{}", "l:[".repeat(50), "]".repeat(50));
        assert!(decode_value(&ok).is_ok());
    }

    #[test]
    fn slot_lists_load_sorted_and_the_last_duplicate_wins() {
        let s = ObjectStore::from_snapshot(
            "store v1 policy lazy next 2\nobject 1 type 0 stale 0 slots[5=i:1, 2=_, 5=i:2]",
        )
        .unwrap();
        let rec = s.record(Oid::from_raw(1)).unwrap();
        let (p2, p5) = (PropId::from_index(2), PropId::from_index(5));
        assert_eq!(rec.slots.keys().copied().collect::<Vec<_>>(), [p2, p5]);
        assert_eq!(rec.slots[&p5], Value::Int(2));
        assert_eq!(rec.slots[&p2], Value::Null);
        assert_eq!(
            s.to_snapshot(),
            "store v1 policy lazy next 2\nobject 1 type 0 stale 0 slots[2=_, 5=i:2]\n"
        );
    }

    /// A screening store holding a conforming, a stale, a screened (one
    /// slot outside its interface, one missing) and a migrated record,
    /// with a deleted identity between them, renders to these bytes.
    #[test]
    fn snapshot_bytes_of_every_record_state_are_pinned() {
        let mut schema = Schema::new(LatticeConfig::default());
        let root = schema.add_root_type("T_object").unwrap();
        let a = schema.add_type("A", [root], []).unwrap();
        let x = schema.define_property_on(a, "x").unwrap();
        let b = schema.add_type("B", [a], []).unwrap();
        let y = schema.define_property_on(b, "y").unwrap();
        let c = schema.add_type("C", [root], []).unwrap();
        let z = schema.define_property_on(c, "z").unwrap();
        let mut store = ObjectStore::new(Policy::Screening);
        let conforming = store.create(&schema, a).unwrap();
        let stale = store.create(&schema, a).unwrap();
        let gone = store.create(&schema, c).unwrap();
        let screened = store.create(&schema, b).unwrap();
        let migrated = store.create(&schema, c).unwrap();
        store.set(&schema, conforming, x, Value::Int(1)).unwrap();
        store.set(&schema, stale, x, Value::Real(0.5)).unwrap();
        store.set(&schema, screened, y, "s".into()).unwrap();
        store.set(&schema, migrated, z, Value::Bool(true)).unwrap();
        store.delete(gone).unwrap();
        schema.define_property_on(a, "w").unwrap();
        schema.drop_essential_property(b, y).unwrap();
        store.on_schema_change(&schema, &[a, b]);
        store.convert(&schema, conforming).unwrap();
        assert_eq!(store.get(&schema, screened, x).unwrap(), Value::Null);
        store.migrate(&schema, migrated, a).unwrap();
        let want = "store v1 policy screening next 5\n\
                    object 0 type 1 conforming 9 slots[0=i:1, 3=_]\n\
                    object 1 type 1 stale 7 slots[0=r:0.5]\n\
                    object 3 type 2 stale 7 slots[0=_, 1=s:\"s\"]\n\
                    object 4 type 1 conforming 9 slots[0=_, 3=_]\n";
        assert_eq!(store.to_snapshot(), want);
        let r = ObjectStore::from_snapshot(want).unwrap();
        assert_eq!(r.to_snapshot(), want);
    }

    #[test]
    fn duplicate_oids_rejected() {
        let text = "store v1 policy lazy next 5\n\
                    object 1 type 0 conforming 0 slots[]\n\
                    object 1 type 0 conforming 0 slots[]";
        let e = ObjectStore::from_snapshot(text).unwrap_err();
        assert!(e.detail.contains("duplicate"), "{e}");
    }
}
