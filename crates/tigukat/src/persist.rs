//! Full objectbase persistence.
//!
//! Composes the three snapshot layers into one text document:
//!
//! ```text
//! tigukat v1
//! === schema ===
//! <axiombase-core schema snapshot>
//! === meta ===
//! primitives types[...] behaviors[...]
//! typeobject <type> <oid>
//! behavior <prop> object <oid> sig none | sig [<arg>...;<result>]
//! function <ix> alive|dead "name" stored|builtin:<name> object <oid>
//! impl <type> <behavior> <function>
//! class <type> object <oid>
//! collection <ix> alive|dead "name" object <oid> members[<oid>...]
//! === store ===
//! <axiombase-store snapshot>
//! ```
//!
//! Loading validates each layer (the schema re-derives and re-verifies; the
//! store re-checks identities) and then re-links the meta maps, so a
//! corrupted snapshot cannot produce an inconsistent objectbase.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use axiombase_core::snapshot::{quote, take_quoted};
use axiombase_core::{PropId, Schema, TypeId};
use axiombase_store::{ObjectStore, Oid};

use crate::meta::{
    BehaviorInfo, Builtin, ClassInfo, CollId, Collection, FunctionId, FunctionInfo, FunctionKind,
    Signature,
};
use crate::objectbase::{MetaRef, Objectbase};
use crate::primitive::Primitives;

/// Errors raised while loading an objectbase snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// Structural problem in the document (sections, headers).
    BadDocument(String),
    /// A meta-section line failed to parse.
    BadLine {
        /// 1-based line number within the meta section.
        line: usize,
        /// Description.
        detail: String,
    },
    /// The embedded schema snapshot failed to parse.
    Schema(axiombase_core::snapshot::SnapshotError),
    /// The embedded store snapshot failed to parse.
    Store(axiombase_store::StoreSnapshotError),
    /// Cross-layer validation failed (dangling ids, missing meta objects).
    Inconsistent(String),
    /// An I/O error while reading or writing a snapshot file.
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadDocument(d) => write!(f, "bad objectbase snapshot: {d}"),
            PersistError::BadLine { line, detail } => {
                write!(f, "objectbase snapshot meta line {line}: {detail}")
            }
            PersistError::Schema(e) => write!(f, "schema section: {e}"),
            PersistError::Store(e) => write!(f, "store section: {e}"),
            PersistError::Inconsistent(d) => write!(f, "inconsistent snapshot: {d}"),
            PersistError::Io(d) => write!(f, "objectbase snapshot io: {d}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn builtin_name(b: Builtin) -> &'static str {
    match b {
        Builtin::Supertypes => "supertypes",
        Builtin::SuperLattice => "super_lattice",
        Builtin::Subtypes => "subtypes",
        Builtin::Interface => "interface",
        Builtin::Native => "native",
        Builtin::Inherited => "inherited",
        Builtin::TypeOf => "type_of",
        Builtin::Identity => "identity",
        Builtin::ConformsTo => "conforms_to",
        Builtin::ConstNull => "const_null",
    }
}

fn builtin_by_name(s: &str) -> Option<Builtin> {
    Some(match s {
        "supertypes" => Builtin::Supertypes,
        "super_lattice" => Builtin::SuperLattice,
        "subtypes" => Builtin::Subtypes,
        "interface" => Builtin::Interface,
        "native" => Builtin::Native,
        "inherited" => Builtin::Inherited,
        "type_of" => Builtin::TypeOf,
        "identity" => Builtin::Identity,
        "conforms_to" => Builtin::ConformsTo,
        "const_null" => Builtin::ConstNull,
        _ => return None,
    })
}

impl Objectbase {
    /// Serialize the whole objectbase.
    pub fn to_snapshot(&self) -> String {
        let mut out = String::from("tigukat v1\n=== schema ===\n");
        out.push_str(&self.schema.to_snapshot());
        out.push_str("=== meta ===\n");

        let ids = |it: &mut dyn Iterator<Item = usize>| -> String {
            it.map(|x| x.to_string()).collect::<Vec<_>>().join(" ")
        };
        let prim_types = self.prim.all_types();
        let prim_behaviors = [
            self.prim.b_supertypes,
            self.prim.b_super_lattice,
            self.prim.b_subtypes,
            self.prim.b_interface,
            self.prim.b_native,
            self.prim.b_inherited,
            self.prim.b_mapsto,
            self.prim.b_self,
            self.prim.b_conforms_to,
        ];
        let _ = writeln!(
            out,
            "primitives types[{}] behaviors[{}]",
            ids(&mut prim_types.iter().map(|t| t.index())),
            ids(&mut prim_behaviors.iter().map(|b| b.index())),
        );
        for (&t, &oid) in &self.type_objects {
            let _ = writeln!(out, "typeobject {} {}", t.index(), oid.raw());
        }
        for (&b, info) in &self.behaviors {
            let sig = match &info.signature {
                None => "none".to_string(),
                Some(s) => format!(
                    "[{};{}]",
                    ids(&mut s.args.iter().map(|t| t.index())),
                    s.result.index()
                ),
            };
            let _ = writeln!(
                out,
                "behavior {} object {} sig {sig}",
                b.index(),
                info.object.raw()
            );
        }
        for (ix, f) in self.functions.iter().enumerate() {
            let kind = match f.kind {
                FunctionKind::Stored => "stored".to_string(),
                FunctionKind::Computed(b) => format!("builtin:{}", builtin_name(b)),
            };
            let _ = writeln!(
                out,
                "function {ix} {} {} {kind} object {}",
                if f.alive { "alive" } else { "dead" },
                quote(&f.name),
                f.object.raw()
            );
        }
        for (&(t, b), &f) in &self.impls {
            let _ = writeln!(out, "impl {} {} {}", t.index(), b.index(), f.index());
        }
        for (&t, info) in &self.classes {
            let _ = writeln!(out, "class {} object {}", t.index(), info.object.raw());
        }
        for (ix, c) in self.collections.iter().enumerate() {
            let members = c
                .members
                .iter()
                .map(|o| o.raw().to_string())
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "collection {ix} {} {} object {} members[{members}]",
                if c.alive { "alive" } else { "dead" },
                quote(&c.name),
                c.object.raw()
            );
        }
        out.push_str("=== store ===\n");
        out.push_str(&self.store.to_snapshot());
        out
    }

    /// Load an objectbase from a snapshot produced by [`Self::to_snapshot`].
    pub fn from_snapshot(text: &str) -> Result<Objectbase, PersistError> {
        let rest = text
            .strip_prefix("tigukat v1\n")
            .ok_or_else(|| PersistError::BadDocument("missing `tigukat v1` header".into()))?;
        let (schema_part, rest) = split_section(rest, "=== schema ===\n", "=== meta ===\n")?;
        let (meta_part, store_part) = rest
            .split_once("=== store ===\n")
            .ok_or_else(|| PersistError::BadDocument("missing `=== store ===`".into()))?;

        let schema = Schema::from_snapshot(schema_part).map_err(PersistError::Schema)?;
        let store = ObjectStore::from_snapshot(store_part).map_err(PersistError::Store)?;

        let mut prim: Option<Primitives> = None;
        let mut type_objects: BTreeMap<TypeId, Oid> = BTreeMap::new();
        let mut behaviors: BTreeMap<PropId, BehaviorInfo> = BTreeMap::new();
        let mut functions: Vec<(usize, FunctionInfo)> = Vec::new();
        let mut impls: BTreeMap<(TypeId, PropId), FunctionId> = BTreeMap::new();
        let mut classes: BTreeMap<TypeId, ClassInfo> = BTreeMap::new();
        let mut collections: Vec<(usize, Collection)> = Vec::new();

        for (ix, raw) in meta_part.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |detail: String| PersistError::BadLine {
                line: ix + 1,
                detail,
            };
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "primitives" => {
                    prim = Some(parse_primitives(rest).map_err(bad)?);
                }
                "typeobject" => {
                    let w: Vec<&str> = rest.split_whitespace().collect();
                    let [t, o] = w.as_slice() else {
                        return Err(bad("usage: typeobject T OID".into()));
                    };
                    type_objects.insert(
                        type_id(t, "bad type").map_err(bad)?,
                        Oid::from_raw(o.parse().map_err(|_| bad("bad oid".into()))?),
                    );
                }
                "behavior" => {
                    // <prop> object <oid> sig none|[a b;r]
                    let w: Vec<&str> = rest.split_whitespace().collect();
                    match w.as_slice() {
                        [b, "object", o, "sig", sig @ ..] => {
                            let b = prop_id(b, "bad behavior id").map_err(bad)?;
                            let object =
                                Oid::from_raw(o.parse().map_err(|_| bad("bad oid".into()))?);
                            let sig_str = sig.join(" ");
                            let signature = if sig_str == "none" {
                                None
                            } else {
                                Some(parse_signature(&sig_str).map_err(bad)?)
                            };
                            behaviors.insert(b, BehaviorInfo { signature, object });
                        }
                        _ => return Err(bad("usage: behavior B object OID sig ...".into())),
                    }
                }
                "function" => {
                    // <ix> alive|dead "name" kind object <oid>
                    let (ix_str, rest) = rest
                        .split_once(' ')
                        .ok_or_else(|| bad("missing function index".into()))?;
                    let f_ix: usize = ix_str
                        .parse()
                        .map_err(|_| bad("bad function index".into()))?;
                    let (alive_str, rest) = rest
                        .split_once(' ')
                        .ok_or_else(|| bad("missing alive flag".into()))?;
                    let alive = match alive_str {
                        "alive" => true,
                        "dead" => false,
                        _ => return Err(bad("bad alive flag".into())),
                    };
                    let (name, rest) = take_quoted(rest.trim_start())
                        .ok_or_else(|| bad("bad name quoting".into()))?;
                    let tail: Vec<&str> = rest.split_whitespace().collect();
                    let [kind_str, "object", o] = tail.as_slice() else {
                        return Err(bad(
                            "usage: function IX FLAG \"name\" KIND object OID".into()
                        ));
                    };
                    let kind = if *kind_str == "stored" {
                        FunctionKind::Stored
                    } else if let Some(b) =
                        kind_str.strip_prefix("builtin:").and_then(builtin_by_name)
                    {
                        FunctionKind::Computed(b)
                    } else {
                        return Err(bad(format!("unknown function kind {kind_str:?}")));
                    };
                    functions.push((
                        f_ix,
                        FunctionInfo {
                            name,
                            kind,
                            alive,
                            object: Oid::from_raw(o.parse().map_err(|_| bad("bad oid".into()))?),
                        },
                    ));
                }
                "impl" => {
                    let w: Vec<&str> = rest.split_whitespace().collect();
                    let [t, b, f] = w.as_slice() else {
                        return Err(bad("usage: impl T B F".into()));
                    };
                    let f: u32 = f.parse().map_err(|_| bad("bad function".into()))?;
                    impls.insert(
                        (
                            type_id(t, "bad type").map_err(bad)?,
                            prop_id(b, "bad behavior").map_err(bad)?,
                        ),
                        FunctionId::from_index(f as usize),
                    );
                }
                "class" => {
                    let w: Vec<&str> = rest.split_whitespace().collect();
                    let [t, "object", o] = w.as_slice() else {
                        return Err(bad("usage: class T object OID".into()));
                    };
                    classes.insert(
                        type_id(t, "bad type").map_err(bad)?,
                        ClassInfo {
                            object: Oid::from_raw(o.parse().map_err(|_| bad("bad oid".into()))?),
                        },
                    );
                }
                "collection" => {
                    let (ix_str, rest) = rest
                        .split_once(' ')
                        .ok_or_else(|| bad("missing collection index".into()))?;
                    let c_ix: usize = ix_str
                        .parse()
                        .map_err(|_| bad("bad collection index".into()))?;
                    let (alive_str, rest) = rest
                        .split_once(' ')
                        .ok_or_else(|| bad("missing alive flag".into()))?;
                    let alive = match alive_str {
                        "alive" => true,
                        "dead" => false,
                        _ => return Err(bad("bad alive flag".into())),
                    };
                    let (name, rest) = take_quoted(rest.trim_start())
                        .ok_or_else(|| bad("bad name quoting".into()))?;
                    let tail = rest.trim();
                    let (obj_part, members_part) = tail
                        .split_once(" members[")
                        .ok_or_else(|| bad("missing members[...]".into()))?;
                    let o = obj_part
                        .strip_prefix("object ")
                        .and_then(|x| x.trim().parse::<u64>().ok())
                        .ok_or_else(|| bad("bad object oid".into()))?;
                    let members_str = members_part
                        .strip_suffix(']')
                        .ok_or_else(|| bad("unterminated members[...]".into()))?;
                    let members: Vec<Oid> = if members_str.trim().is_empty() {
                        Vec::new()
                    } else {
                        members_str
                            .split_whitespace()
                            .map(|m| m.parse::<u64>().map(Oid::from_raw))
                            .collect::<Result<_, _>>()
                            .map_err(|_| bad("bad member oid".into()))?
                    };
                    collections.push((
                        c_ix,
                        Collection {
                            name,
                            members,
                            alive,
                            object: Oid::from_raw(o),
                        },
                    ));
                }
                other => return Err(bad(format!("unknown meta record {other:?}"))),
            }
        }

        let prim =
            prim.ok_or_else(|| PersistError::BadDocument("missing primitives line".into()))?;

        // Order the indexed arenas.
        functions.sort_by_key(|(ix, _)| *ix);
        for (want, (got, _)) in functions.iter().enumerate() {
            if *got != want {
                return Err(PersistError::Inconsistent(format!(
                    "function indices not dense at {got}"
                )));
            }
        }
        collections.sort_by_key(|(ix, _)| *ix);
        for (want, (got, _)) in collections.iter().enumerate() {
            if *got != want {
                return Err(PersistError::Inconsistent(format!(
                    "collection indices not dense at {got}"
                )));
            }
        }

        let mut ob = Objectbase {
            schema,
            store,
            prim,
            behaviors,
            functions: functions.into_iter().map(|(_, f)| f).collect(),
            impls,
            classes,
            collections: collections.into_iter().map(|(_, c)| c).collect(),
            type_objects,
            meta_of: BTreeMap::new(),
        };
        ob.rebuild_meta_of();
        ob.validate_loaded()?;
        Ok(ob)
    }

    /// Write the snapshot to `path` atomically (write-rename through a
    /// fsynced temporary, so a crash leaves either the old file or the new
    /// one — never a torn mix).
    pub fn save_to(&self, path: &std::path::Path) -> Result<(), PersistError> {
        axiombase_core::journal::io::atomic_write_file(path, self.to_snapshot().as_bytes())
            .map_err(|e| PersistError::Io(format!("writing {}: {e}", path.display())))
    }

    /// Load an objectbase from a snapshot file written by [`Self::save_to`].
    pub fn load_from(path: &std::path::Path) -> Result<Objectbase, PersistError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| PersistError::Io(format!("reading {}: {e}", path.display())))?;
        Self::from_snapshot(&text)
    }

    fn rebuild_meta_of(&mut self) {
        let mut meta = BTreeMap::new();
        for (&t, &oid) in &self.type_objects {
            meta.insert(oid, MetaRef::Type(t));
        }
        for (&b, info) in &self.behaviors {
            meta.insert(info.object, MetaRef::Behavior(b));
        }
        for (ix, f) in self.functions.iter().enumerate() {
            if f.alive {
                meta.insert(f.object, MetaRef::Function(FunctionId::from_index(ix)));
            }
        }
        for (&t, info) in &self.classes {
            meta.insert(info.object, MetaRef::Class(t));
        }
        for (ix, c) in self.collections.iter().enumerate() {
            if c.alive {
                meta.insert(c.object, MetaRef::Collection(CollId::from_index(ix)));
            }
        }
        self.meta_of = meta;
    }

    fn validate_loaded(&self) -> Result<(), PersistError> {
        let bad = |d: String| Err(PersistError::Inconsistent(d));
        // Every live type has a type object backed by a store record.
        for t in self.schema.iter_types() {
            match self.type_objects.get(&t) {
                Some(oid) if self.store.record(*oid).is_ok() => {}
                _ => return bad(format!("type {t} lacks a live type object")),
            }
        }
        // Primitive handles are live.
        for t in self.prim.all_types() {
            if !self.schema.is_live(t) {
                return bad(format!("primitive type {t} is not live"));
            }
        }
        // Behavior/class/collection meta objects exist in the store.
        for info in self.behaviors.values() {
            if self.store.record(info.object).is_err() {
                return bad(format!("behavior object {} missing", info.object));
            }
        }
        for info in self.classes.values() {
            if self.store.record(info.object).is_err() {
                return bad(format!("class object {} missing", info.object));
            }
        }
        // Implementation associations reference real functions.
        for ((t, b), f) in &self.impls {
            if self.functions.get(f.index()).is_none() {
                return bad(format!("impl ({t}, {b}) references missing function {f}"));
            }
        }
        // The schema itself must verify (from_snapshot guarantees this, but
        // cheap to re-assert at the composition boundary).
        if !self.schema.verify().is_empty() {
            return bad("schema violates the axioms".into());
        }
        Ok(())
    }
}

fn split_section<'a>(
    text: &'a str,
    open: &str,
    next: &str,
) -> Result<(&'a str, &'a str), PersistError> {
    let body = text
        .strip_prefix(open)
        .ok_or_else(|| PersistError::BadDocument(format!("missing `{}`", open.trim())))?;
    let pos = body
        .find(next)
        .ok_or_else(|| PersistError::BadDocument(format!("missing `{}`", next.trim())))?;
    Ok((&body[..pos], &body[pos + next.len()..]))
}

/// A type id of the document: `not_a_number` when `w` is not a decimal,
/// the arena bound's message when it is past the id space.
fn type_id(w: &str, not_a_number: &str) -> Result<TypeId, String> {
    let ix = w.parse().map_err(|_| not_a_number.to_string())?;
    TypeId::try_from_index(ix).map_err(|e| e.to_string())
}

/// A property id of the document (see [`type_id`]).
fn prop_id(w: &str, not_a_number: &str) -> Result<PropId, String> {
    let ix = w.parse().map_err(|_| not_a_number.to_string())?;
    PropId::try_from_index(ix).map_err(|e| e.to_string())
}

fn parse_primitives(rest: &str) -> Result<Primitives, String> {
    // types[...] behaviors[...]
    let (types_part, behaviors_part) = rest
        .split_once("] behaviors[")
        .ok_or("usage: primitives types[...] behaviors[...]")?;
    let types_str = types_part.strip_prefix("types[").ok_or("missing types[")?;
    let behaviors_str = behaviors_part.strip_suffix(']').ok_or("missing ]")?;
    let types: Vec<TypeId> = types_str
        .split_whitespace()
        .map(|w| type_id(w, "bad type id"))
        .collect::<Result<_, _>>()?;
    let behaviors: Vec<PropId> = behaviors_str
        .split_whitespace()
        .map(|w| prop_id(w, "bad behavior id"))
        .collect::<Result<_, _>>()?;
    if types.len() != 16 || behaviors.len() != 9 {
        return Err(format!(
            "expected 16 types and 9 behaviors, got {} and {}",
            types.len(),
            behaviors.len()
        ));
    }
    Ok(Primitives {
        t_object: types[0],
        t_null: types[1],
        t_atomic: types[2],
        t_boolean: types[3],
        t_string: types[4],
        t_real: types[5],
        t_integer: types[6],
        t_natural: types[7],
        t_type: types[8],
        t_behavior: types[9],
        t_function: types[10],
        t_collection: types[11],
        t_class: types[12],
        t_type_class: types[13],
        t_class_class: types[14],
        t_collection_class: types[15],
        b_supertypes: behaviors[0],
        b_super_lattice: behaviors[1],
        b_subtypes: behaviors[2],
        b_interface: behaviors[3],
        b_native: behaviors[4],
        b_inherited: behaviors[5],
        b_mapsto: behaviors[6],
        b_self: behaviors[7],
        b_conforms_to: behaviors[8],
    })
}

fn parse_signature(s: &str) -> Result<Signature, String> {
    let inner = s
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or("bad signature brackets")?;
    let (args_str, result_str) = inner.split_once(';').ok_or("missing ; in signature")?;
    let args: Vec<TypeId> = args_str
        .split_whitespace()
        .map(|w| type_id(w, "bad arg type"))
        .collect::<Result<_, _>>()?;
    let result = type_id(result_str.trim(), "bad result type")?;
    Ok(Signature { args, result })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axiombase_store::Value;

    fn evolved() -> Objectbase {
        let mut ob = Objectbase::new();
        let person = ob.at("T_person", [], []).unwrap();
        let b_name = ob.ab("B_name", None);
        let sig = Signature {
            args: vec![],
            result: ob.primitives().t_string,
        };
        let b_greet = ob.ab("B_greet", Some(sig));
        ob.mt_ab(person, b_name).unwrap();
        ob.mt_ab(person, b_greet).unwrap();
        ob.ac(person).unwrap();
        let david = ob.ao(person).unwrap();
        ob.mo(david, b_name, "David".into()).unwrap();
        let coll = ob.al("committee");
        ob.collection_insert(coll, david).unwrap();
        // A dropped function and a dropped collection leave tombstones.
        let f = ob.af("scratch", FunctionKind::Stored);
        ob.df(f).unwrap();
        let dead = ob.al("gone");
        ob.dl(dead).unwrap();
        ob
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let ob = evolved();
        let text = ob.to_snapshot();
        let r = Objectbase::from_snapshot(&text).unwrap();
        assert_eq!(ob.schema().fingerprint(), r.schema().fingerprint());
        assert_eq!(ob.tso(), r.tso());
        assert_eq!(ob.bso(), r.bso());
        assert_eq!(ob.fso(), r.fso());
        assert_eq!(ob.cso(), r.cso());
        assert_eq!(ob.lso(), r.lso());
        assert_eq!(ob.store().object_count(), r.store().object_count());
        // Meta maps reconstructed.
        let person = r.schema().type_by_name("T_person").unwrap();
        let tobj = r.type_object(person).unwrap();
        assert_eq!(r.meta_ref(tobj), Some(MetaRef::Type(person)));
    }

    #[test]
    fn loaded_objectbase_is_fully_operational() {
        let ob = evolved();
        let mut r = Objectbase::from_snapshot(&ob.to_snapshot()).unwrap();
        let person = r.schema().type_by_name("T_person").unwrap();
        let b_name = r
            .schema()
            .props_by_name("B_name")
            .next()
            .expect("behavior survives");
        // Existing instance still answers.
        let david = r
            .store()
            .extent(person)
            .into_iter()
            .next()
            .expect("instance survives");
        assert_eq!(
            r.apply(david, b_name, &[]).unwrap(),
            Value::Str("David".into())
        );
        // Reflection works (builtins re-linked through the primitives line).
        let prim = r.primitives().clone();
        let tobj = r.type_object(person).unwrap();
        assert!(matches!(
            r.apply(tobj, prim.b_interface, &[]).unwrap(),
            Value::List(_)
        ));
        // Evolution continues.
        let sub = r.at("T_sub", [person], []).unwrap();
        r.ac(sub).unwrap();
        let o = r.ao(sub).unwrap();
        assert_eq!(r.apply(o, b_name, &[]).unwrap(), Value::Null);
        assert!(r.schema().verify().is_empty());
    }

    #[test]
    fn second_roundtrip_is_identical_text() {
        let ob = evolved();
        let t1 = ob.to_snapshot();
        let r = Objectbase::from_snapshot(&t1).unwrap();
        let t2 = r.to_snapshot();
        assert_eq!(t1, t2, "persistence must be a fixpoint");
    }

    #[test]
    fn corrupted_documents_rejected() {
        let ob = evolved();
        let text = ob.to_snapshot();
        assert!(matches!(
            Objectbase::from_snapshot("nonsense"),
            Err(PersistError::BadDocument(_))
        ));
        // Drop the primitives line.
        let broken: String = text
            .lines()
            .filter(|l| !l.starts_with("primitives"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(Objectbase::from_snapshot(&broken).is_err());
        // Corrupt a type-object reference.
        let broken = text.replace("typeobject 0 ", "typeobject 0 99999 #");
        assert!(Objectbase::from_snapshot(&broken).is_err());
    }

    #[test]
    fn collection_alive_flag_is_alive_or_dead() {
        let text = evolved().to_snapshot();
        let line = text
            .lines()
            .find(|l| l.starts_with("collection ") && l.contains(" alive "))
            .expect("a live collection");
        for flag in ["alve", "Alive", "dead!"] {
            let broken = text.replace(line, &line.replacen(" alive ", &format!(" {flag} "), 1));
            match Objectbase::from_snapshot(&broken) {
                Err(PersistError::BadLine { detail, .. }) => assert_eq!(detail, "bad alive flag"),
                other => panic!("flag {flag:?}: {other:?}"),
            }
        }
        // Both words still load, each as itself.
        let dead = text.replace(line, &line.replacen(" alive ", " dead ", 1));
        let r = Objectbase::from_snapshot(&dead).unwrap();
        assert_eq!(r.lso().len() + 1, evolved().lso().len());
    }

    #[test]
    fn signature_and_builtin_encodings_roundtrip() {
        for b in [
            Builtin::Supertypes,
            Builtin::SuperLattice,
            Builtin::Subtypes,
            Builtin::Interface,
            Builtin::Native,
            Builtin::Inherited,
            Builtin::TypeOf,
            Builtin::Identity,
            Builtin::ConformsTo,
            Builtin::ConstNull,
        ] {
            assert_eq!(builtin_by_name(builtin_name(b)), Some(b));
        }
        let sig = parse_signature("[3 5;7]").unwrap();
        assert_eq!(sig.args.len(), 2);
        assert_eq!(sig.result.index(), 7);
        let empty = parse_signature("[;0]").unwrap();
        assert!(empty.args.is_empty());
    }
}
