//! Plain-text persistence of the designer inputs.
//!
//! Only `P_e` and `N_e` (plus names, shape configuration, and frozen flags)
//! are stored — the axioms re-derive everything else on load, which is the
//! whole point of the model: "the axiomatic model takes care of rearranging
//! the schema to conform to these two inputs" (§2). Loading validates the
//! inputs (acyclicity, closure) before deriving, so a corrupted snapshot
//! can never produce a schema that violates the axioms.
//!
//! The format is line-oriented and human-auditable:
//!
//! ```text
//! axiombase v1
//! config rooted pointed
//! engine incremental
//! prop 0 alive "name"
//! prop 1 dead "salary"
//! type 0 alive plain root "T_object" pe[] ne[]
//! type 1 alive frozen - "T_person" pe[0] ne[0]
//! ```
//!
//! Identifiers are raw arena indices; tombstoned entries are written as
//! `dead` so indices stay stable across a round-trip.

use std::fmt::Write as _;

use crate::config::{LatticeConfig, Pointedness, Rootedness};
use crate::engine::EngineKind;
use crate::ids::{PropId, TypeId};
use crate::model::{NameIndex, PropRecord, Schema, Spine, TypeSlot};

/// Errors raised while parsing a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The header line is missing or names an unsupported version.
    BadHeader(String),
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        detail: String,
    },
    /// The inputs are structurally invalid (cycle, dangling reference,
    /// duplicate name) and were rejected before derivation.
    InvalidInputs(String),
    /// An I/O error while reading or writing a snapshot file (message only,
    /// so the error stays `Clone`/`PartialEq`).
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadHeader(h) => write!(f, "bad snapshot header: {h}"),
            SnapshotError::BadLine { line, detail } => {
                write!(f, "snapshot line {line}: {detail}")
            }
            SnapshotError::InvalidInputs(d) => write!(f, "invalid snapshot inputs: {d}"),
            SnapshotError::Io(d) => write!(f, "snapshot io error: {d}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl Schema {
    /// Serialize the designer inputs to the text snapshot format.
    pub fn to_snapshot(&self) -> String {
        let mut out = String::new();
        out.push_str("axiombase v1\n");
        let rooted = if self.config.is_rooted() {
            "rooted"
        } else {
            "forest"
        };
        let pointed = if self.config.is_pointed() {
            "pointed"
        } else {
            "open"
        };
        let _ = writeln!(out, "config {rooted} {pointed}");
        let engine = match self.engine {
            EngineKind::Naive => "naive",
            EngineKind::Incremental => "incremental",
        };
        let _ = writeln!(out, "engine {engine}");
        for (i, p) in self.props.iter().enumerate() {
            let state = if p.alive { "alive" } else { "dead" };
            let _ = writeln!(out, "prop {i} {state} {}", quote(&p.name));
        }
        for (i, t) in self.types.iter().enumerate() {
            let state = if t.alive { "alive" } else { "dead" };
            let frozen = if t.frozen { "frozen" } else { "plain" };
            let mark = if Some(TypeId::from_index(i)) == self.root {
                "root"
            } else if Some(TypeId::from_index(i)) == self.base {
                "base"
            } else {
                "-"
            };
            let pe = ids(t.pe.iter().map(TypeId::index));
            let ne = ids(t.ne.iter().map(PropId::index));
            let _ = writeln!(
                out,
                "type {i} {state} {frozen} {mark} {} pe[{pe}] ne[{ne}]",
                quote(&t.name)
            );
        }
        out
    }

    /// Parse a snapshot, validate its inputs, and derive the full schema.
    pub fn from_snapshot(text: &str) -> Result<Schema, SnapshotError> {
        let mut lines = text.lines().enumerate();
        let header = lines
            .next()
            .ok_or_else(|| SnapshotError::BadHeader("empty input".into()))?;
        if header.1.trim() != "axiombase v1" {
            return Err(SnapshotError::BadHeader(header.1.to_string()));
        }

        let mut config = LatticeConfig::default();
        let mut engine = EngineKind::Incremental;
        let mut props: Vec<PropRecord> = Vec::new();
        let mut types: Vec<TypeSlot> = Vec::new();
        let mut root = None;
        let mut base = None;

        for (ix, raw) in lines {
            let line_no = ix + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |detail: String| SnapshotError::BadLine {
                line: line_no,
                detail,
            };
            let mut words = line.splitn(2, ' ');
            let key = words.next().unwrap_or_default();
            let rest = words.next().unwrap_or_default();
            match key {
                "config" => {
                    let mut it = rest.split_whitespace();
                    config.rootedness = match it.next() {
                        Some("rooted") => Rootedness::Rooted,
                        Some("forest") => Rootedness::Forest,
                        other => return Err(bad(format!("bad rootedness {other:?}"))),
                    };
                    config.pointedness = match it.next() {
                        Some("pointed") => Pointedness::Pointed,
                        Some("open") => Pointedness::Open,
                        other => return Err(bad(format!("bad pointedness {other:?}"))),
                    };
                }
                "engine" => {
                    engine = match rest.trim() {
                        "naive" => EngineKind::Naive,
                        "incremental" => EngineKind::Incremental,
                        other => return Err(bad(format!("unknown engine {other:?}"))),
                    };
                }
                "prop" => {
                    let mut it = rest.splitn(3, ' ');
                    let idx: usize = it
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| bad("missing prop index".into()))?;
                    if idx != props.len() {
                        return Err(bad(format!(
                            "prop index {idx} out of order (expected {})",
                            props.len()
                        )));
                    }
                    let alive = match it.next() {
                        Some("alive") => true,
                        Some("dead") => false,
                        other => return Err(bad(format!("bad prop state {other:?}"))),
                    };
                    let name = unquote(it.next().unwrap_or_default())
                        .ok_or_else(|| bad("bad prop name quoting".into()))?;
                    props.push(PropRecord { name, alive });
                }
                "type" => {
                    let (slot, mark) = parse_type_line(rest, types.len()).map_err(bad)?;
                    let id = TypeId::from_index(types.len());
                    match mark {
                        Mark::Root => root = Some(id),
                        Mark::Base => base = Some(id),
                        Mark::None => {}
                    }
                    types.push(slot);
                }
                other => return Err(bad(format!("unknown record kind {other:?}"))),
            }
        }

        assemble(config, engine, props, types, root, base)
    }

    /// Save the snapshot to `path` atomically (write `*.tmp`, fsync,
    /// rename, fsync the directory) so a crash mid-save can never truncate
    /// or corrupt a previous good snapshot at the same path.
    pub fn save_to(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        crate::journal::io::atomic_write_file(path, self.to_snapshot().as_bytes())
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
    }

    /// Load a snapshot from `path` (see [`Schema::from_snapshot`]).
    pub fn load_from(path: &std::path::Path) -> Result<Schema, SnapshotError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        Schema::from_snapshot(&text)
    }
}

enum Mark {
    Root,
    Base,
    None,
}

fn parse_type_line(rest: &str, expected_idx: usize) -> Result<(TypeSlot, Mark), String> {
    // <idx> <alive|dead> <frozen|plain> <root|base|-> "name" pe[...] ne[...]
    let mut it = rest.splitn(5, ' ');
    let idx: usize = it
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or("missing type index")?;
    if idx != expected_idx {
        return Err(format!(
            "type index {idx} out of order (expected {expected_idx})"
        ));
    }
    let alive = match it.next() {
        Some("alive") => true,
        Some("dead") => false,
        other => return Err(format!("bad type state {other:?}")),
    };
    let frozen = match it.next() {
        Some("frozen") => true,
        Some("plain") => false,
        other => return Err(format!("bad frozen flag {other:?}")),
    };
    let mark = match it.next() {
        Some("root") => Mark::Root,
        Some("base") => Mark::Base,
        Some("-") => Mark::None,
        other => return Err(format!("bad root/base mark {other:?}")),
    };
    let tail = it.next().ok_or("missing name")?;
    let (name, tail) = take_quoted(tail).ok_or("bad name quoting")?;
    let tail = tail.trim();
    let (pe_str, tail) = take_bracketed(tail, "pe").ok_or("missing pe[...]")?;
    let (ne_str, _tail) = take_bracketed(tail.trim(), "ne").ok_or("missing ne[...]")?;
    let pe: crate::bits::TypeSet = parse_ids(pe_str)?
        .into_iter()
        .map(TypeId::from_index)
        .collect();
    let ne: crate::bits::PropSet = parse_ids(ne_str)?
        .into_iter()
        .map(PropId::from_index)
        .collect();
    Ok((
        TypeSlot {
            name,
            alive,
            frozen,
            pe,
            ne,
        },
        mark,
    ))
}

fn assemble(
    config: LatticeConfig,
    engine: EngineKind,
    props: Vec<PropRecord>,
    types: Vec<TypeSlot>,
    root: Option<TypeId>,
    base: Option<TypeId>,
) -> Result<Schema, SnapshotError> {
    // Validate inputs before deriving anything; the name index is built
    // in the same pass.
    let mut by_name = NameIndex::new();
    for (i, t) in types.iter().enumerate() {
        if !t.alive {
            continue;
        }
        if by_name
            .insert(&None, t.name.clone(), TypeId::from_index(i))
            .is_some()
        {
            return Err(SnapshotError::InvalidInputs(format!(
                "duplicate type name {:?}",
                t.name
            )));
        }
        for s in &t.pe {
            if !types.get(s.index()).is_some_and(|x| x.alive) {
                return Err(SnapshotError::InvalidInputs(format!(
                    "type {i} references dead/missing supertype {s}"
                )));
            }
        }
        for p in &t.ne {
            if !props.get(p.index()).is_some_and(|x| x.alive) {
                return Err(SnapshotError::InvalidInputs(format!(
                    "type {i} references dead/missing property {p}"
                )));
            }
        }
    }
    // The spines are built once parsing is done, so each one's records sit
    // together in memory rather than between the parser's allocations.
    let types: Spine<TypeSlot> = types.into_iter().collect();
    if crate::engine::topo_order(&types).is_none() {
        return Err(SnapshotError::InvalidInputs(
            "P_e graph contains a cycle (Axiom of Acyclicity)".into(),
        ));
    }
    if let Some(r) = root {
        if !types.get(r.index()).is_some_and(|x| x.alive) {
            return Err(SnapshotError::InvalidInputs(
                "root marker on dead type".into(),
            ));
        }
    }
    if let Some(b) = base {
        if !types.get(b.index()).is_some_and(|x| x.alive) {
            return Err(SnapshotError::InvalidInputs(
                "base marker on dead type".into(),
            ));
        }
    }

    let mut schema = Schema {
        config,
        // `recompute_all` below fills the derived spine.
        derived: Spine::new(),
        types,
        props: props.into_iter().collect(),
        by_name,
        root,
        base,
        engine,
        version: 0,
        stats: Default::default(),
        rev: Spine::new(),
        live: Default::default(),
        live_props: Default::default(),
        batch: None,
        obs: None,
    };
    schema.live = schema
        .types
        .iter()
        .enumerate()
        .filter(|(_, s)| s.alive)
        .map(|(i, _)| TypeId::from_index(i))
        .collect();
    schema.live_props = schema
        .props
        .iter()
        .enumerate()
        .filter(|(_, p)| p.alive)
        .map(|(i, _)| PropId::from_index(i))
        .collect();
    schema.rebuild_subtype_index();
    schema.recompute_all();
    Ok(schema)
}

fn ids(it: impl Iterator<Item = usize>) -> String {
    let v: Vec<String> = it.map(|x| x.to_string()).collect();
    v.join(",")
}

/// Parse a comma-separated id list (the contents of `key[...]`).
pub(crate) fn parse_ids(s: &str) -> Result<Vec<usize>, String> {
    if s.trim().is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|w| {
            w.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad id {w:?}"))
        })
        .collect()
}

/// Quote `s` for a snapshot line: wrapped in `"`, with `"`, `\` and
/// newline escaped as `\"`, `\\` and `\n`. [`take_quoted`] reads it back.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn unquote(s: &str) -> Option<String> {
    take_quoted(s.trim()).and_then(|(name, rest)| rest.trim().is_empty().then_some(name))
}

/// Parse a leading [`quote`]d string; return it plus the remainder, or
/// `None` if `s` does not start with a terminated quoted string.
pub fn take_quoted(s: &str) -> Option<(String, &str)> {
    let rest = s.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, c2)) => out.push(c2),
                None => return None,
            },
            '"' => return Some((out, &rest[i + 1..])),
            c => out.push(c),
        }
    }
    None
}

/// Parse `key[...]`, returning the bracket contents and the remainder.
pub(crate) fn take_bracketed<'a>(s: &'a str, key: &str) -> Option<(&'a str, &'a str)> {
    let rest = s.strip_prefix(key)?.strip_prefix('[')?;
    let end = rest.find(']')?;
    Some((&rest[..end], &rest[end + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;

    fn sample() -> Schema {
        let mut s = Schema::new(LatticeConfig::TIGUKAT);
        let root = s.add_root_type("T_object").unwrap();
        s.add_base_type("T_null").unwrap();
        let p = s.add_property("weird \"name\"\nnewline");
        let a = s.add_type("A", [root], [p]).unwrap();
        let b = s.add_type("B", [a], []).unwrap();
        s.freeze_type(a).unwrap();
        let dead = s.add_property("gone");
        let _ = s.add_essential_property(b, dead).unwrap();
        s.drop_property(dead).unwrap();
        let c = s.add_type("C", [a], []).unwrap();
        s.drop_type(c).unwrap();
        s
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let s = sample();
        let text = s.to_snapshot();
        let r = Schema::from_snapshot(&text).unwrap();
        assert_eq!(s.config(), r.config());
        assert_eq!(s.engine(), r.engine());
        assert_eq!(s.root(), r.root());
        assert_eq!(s.base(), r.base());
        assert_eq!(s.type_count(), r.type_count());
        assert_eq!(s.prop_count(), r.prop_count());
        assert_eq!(s.fingerprint(), r.fingerprint());
        for t in s.iter_types() {
            assert_eq!(s.type_name(t).unwrap(), r.type_name(t).unwrap());
            assert_eq!(s.derived(t).unwrap(), r.derived(t).unwrap());
            assert_eq!(s.is_frozen(t), r.is_frozen(t));
        }
        assert!(r.verify().is_empty());
    }

    #[test]
    fn load_rejects_cycles() {
        let text = "axiombase v1\nconfig forest open\nengine naive\n\
                    type 0 alive plain - \"A\" pe[1] ne[]\n\
                    type 1 alive plain - \"B\" pe[0] ne[]\n";
        let err = Schema::from_snapshot(text).unwrap_err();
        assert!(matches!(err, SnapshotError::InvalidInputs(d) if d.contains("cycle")));
    }

    #[test]
    fn load_rejects_dangling_references() {
        let text = "axiombase v1\nconfig forest open\nengine naive\n\
                    type 0 alive plain - \"A\" pe[7] ne[]\n";
        assert!(matches!(
            Schema::from_snapshot(text).unwrap_err(),
            SnapshotError::InvalidInputs(_)
        ));
    }

    #[test]
    fn load_rejects_duplicate_names_and_bad_header() {
        let text = "axiombase v1\nconfig forest open\n\
                    type 0 alive plain - \"A\" pe[] ne[]\n\
                    type 1 alive plain - \"A\" pe[] ne[]\n";
        assert!(matches!(
            Schema::from_snapshot(text).unwrap_err(),
            SnapshotError::InvalidInputs(_)
        ));
        assert!(matches!(
            Schema::from_snapshot("nonsense\n").unwrap_err(),
            SnapshotError::BadHeader(_)
        ));
    }

    #[test]
    fn bad_lines_carry_line_numbers() {
        let text = "axiombase v1\nconfig rooted open\nfrobnicate 1 2 3\n";
        match Schema::from_snapshot(text).unwrap_err() {
            SnapshotError::BadLine { line, .. } => assert_eq!(line, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quoting_roundtrip() {
        for s in ["plain", "with \"quotes\"", "back\\slash", "new\nline", ""] {
            let q = quote(s);
            let (u, rest) = take_quoted(&q).unwrap();
            assert_eq!(u, s);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let s = sample();
        let mut text = s.to_snapshot();
        text.push_str("\n# trailing comment\n\n");
        let r = Schema::from_snapshot(&text).unwrap();
        assert_eq!(s.fingerprint(), r.fingerprint());
    }
}
