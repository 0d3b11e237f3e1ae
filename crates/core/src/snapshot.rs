//! Plain-text persistence of the designer inputs.
//!
//! Only `P_e` and `N_e` (plus names, shape configuration, and frozen flags)
//! are stored — the axioms re-derive everything else on load, which is the
//! whole point of the model: "the axiomatic model takes care of rearranging
//! the schema to conform to these two inputs" (§2). Loading parses and
//! validates the inputs (index order, references, acyclicity, duplicate
//! names, root/base markers) into `Inputs`, so a corrupted snapshot can
//! never produce a schema that violates the axioms, and derives nothing:
//! whoever builds the schema from them runs the one derivation, after any
//! operations it replays on top ([`Schema::from_snapshot`] replays none).
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

use std::sync::Arc;

use crate::bits::{PropSet, TypeSet};
use crate::config::{LatticeConfig, Pointedness, Rootedness};
use crate::engine::{self, BatchState, EngineKind};
use crate::ids::{PropId, TypeId};
use crate::model::{DerivedType, NameIndex, PropRecord, Schema, Spine, TypeSlot};
use crate::obs::EvolveObs;

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
    /// Serialize the designer inputs to the text snapshot format. Every
    /// line is written straight into the one output buffer.
    pub fn to_snapshot(&self) -> String {
        let mut out = String::with_capacity(32 * self.props.len() + 48 * self.types.len() + 64);
        out.push_str("axiombase v1\nconfig ");
        out.push_str(if self.config.is_rooted() {
            "rooted "
        } else {
            "forest "
        });
        out.push_str(if self.config.is_pointed() {
            "pointed\n"
        } else {
            "open\n"
        });
        out.push_str(match self.engine {
            EngineKind::Naive => "engine naive\n",
            EngineKind::Incremental => "engine incremental\n",
        });
        for (i, p) in self.props.iter().enumerate() {
            out.push_str("prop ");
            push_id(&mut out, i);
            out.push_str(if p.alive { " alive " } else { " dead " });
            push_quoted(&mut out, &p.name);
            out.push('\n');
        }
        for (i, t) in self.types.iter().enumerate() {
            out.push_str("type ");
            push_id(&mut out, i);
            out.push_str(if t.alive { " alive " } else { " dead " });
            out.push_str(if t.frozen { "frozen " } else { "plain " });
            let id = Some(TypeId::from_index(i));
            out.push_str(if id == self.root {
                "root "
            } else if id == self.base {
                "base "
            } else {
                "- "
            });
            push_quoted(&mut out, &t.name);
            out.push_str(" pe[");
            push_ids(&mut out, t.pe.iter().map(TypeId::index));
            out.push_str("] ne[");
            push_ids(&mut out, t.ne.iter().map(PropId::index));
            out.push_str("]\n");
        }
        out
    }

    /// Parse a snapshot, validate its inputs, and derive the full schema.
    /// The journal readers load a checkpoint the same way, with the frames
    /// they replay in between: one parse, then one full derivation.
    pub fn from_snapshot(text: &str) -> Result<Schema, SnapshotError> {
        Ok(Inputs::parse(text)?.build(None, |_| ()).0)
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

/// A snapshot's validated inputs: the schema it describes, every check of
/// a load passed, with no derived row computed yet. Cloning is as cheap as
/// cloning a schema. [`Inputs::build`] turns them into a schema with the
/// one derivation.
#[derive(Debug, Clone)]
pub(crate) struct Inputs(Schema);

impl Inputs {
    /// Parse and validate a snapshot in one pass over its lines. Each id
    /// list is parsed straight into its set, and each name is copied once.
    pub(crate) fn parse(text: &str) -> Result<Inputs, SnapshotError> {
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
        // One id buffer serves every list of the snapshot.
        let mut ids: Vec<u32> = Vec::new();
        // An id names a line of the text, so an id past the last line
        // cannot be a live reference: it is set aside, not allocated in
        // its set. An id below the current line number names a line; the
        // text's lines are counted only for a larger one.
        let lines_in_text = std::cell::OnceCell::new();
        let count_lines = || text.bytes().filter(|&b| b == b'\n').count() + 1;
        // Per type line, the ids it set aside.
        let mut unnamed: Vec<Unnamed> = Vec::new();

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
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
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
                    let names_a_line = |id: u32| {
                        let id = id as usize;
                        id < line_no || id < *lines_in_text.get_or_init(count_lines)
                    };
                    let (slot, mark, far) =
                        parse_type_line(rest, types.len(), &mut ids, &names_a_line).map_err(bad)?;
                    unnamed.push(far);
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

        validate(config, engine, props, types, &unnamed, root, base)
    }

    /// Build the schema: run `f` on the inputs as one batch, and end the
    /// batch with the only derivation, a full one with the snapshot's
    /// engine. `obs` is attached first, so it observes that derivation and
    /// the copies `f`'s edits make. Replay on the inputs is exact: no
    /// operation's verdict reads a derived row (see
    /// [`Schema::evolve_batch`]).
    pub(crate) fn build<R>(
        self,
        obs: Option<Arc<EvolveObs>>,
        f: impl FnOnce(&mut Schema) -> R,
    ) -> (Schema, R) {
        #[cfg(test)]
        BUILDS.with(|n| n.set(n.get() + 1));
        let Inputs(mut schema) = self;
        schema.obs = obs;
        schema.batch = Some(BatchState::underived());
        let out = f(&mut schema);
        let st = schema.batch.take().expect("batch state set above");
        engine::finish_batch(&mut schema, &st);
        (schema, out)
    }

    /// Run `f` on a copy of the inputs for its verdicts alone. Nothing is
    /// derived: every rejection rule reads the inputs only.
    pub(crate) fn check<R>(&self, f: impl FnOnce(&mut Schema) -> R) -> R {
        let mut schema = self.0.clone();
        schema.batch = Some(BatchState::underived());
        f(&mut schema)
    }
}

#[cfg(test)]
thread_local! {
    /// Schemas this thread built from snapshot inputs: one full
    /// derivation each.
    static BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many schemas this thread has built from snapshot inputs, so a test
/// can count the full derivations a read performs.
#[cfg(test)]
pub(crate) fn builds() -> u64 {
    BUILDS.with(std::cell::Cell::get)
}

enum Mark {
    Root,
    Base,
    None,
}

/// The smallest id of a type line's `pe` and `ne` lists that cannot name
/// a line of the text, set aside by the parser.
#[derive(Default)]
struct Unnamed {
    pe: Option<u32>,
    ne: Option<u32>,
}

fn parse_type_line(
    rest: &str,
    expected_idx: usize,
    ids: &mut Vec<u32>,
    names_a_line: &impl Fn(u32) -> bool,
) -> Result<(TypeSlot, Mark, Unnamed), String> {
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
    let (pe_str, tail) = take_bracketed(tail.trim(), "pe").ok_or("missing pe[...]")?;
    let (ne_str, _tail) = take_bracketed(tail.trim(), "ne").ok_or("missing ne[...]")?;
    let mut far = Unnamed::default();
    ids_naming_lines(pe_str, names_a_line, ids, &mut far.pe)?;
    let pe = TypeSet::from_bits(ids);
    ids_naming_lines(ne_str, names_a_line, ids, &mut far.ne)?;
    let ne = PropSet::from_bits(ids);
    Ok((
        TypeSlot {
            name,
            alive,
            frozen,
            pe,
            ne,
        },
        mark,
        far,
    ))
}

/// Check what a load checks besides the line syntax: every live type's
/// references, unique live names, acyclicity and the root/base markers.
/// The name and reverse-subtype indexes are built on the way. An id the
/// parser set aside (`unnamed`, one entry per type) is a dangling
/// reference of its type, live or dead, and is refused where the sets'
/// own ids would be: after every smaller id of its list.
fn validate(
    config: LatticeConfig,
    engine: EngineKind,
    props: Vec<PropRecord>,
    types: Vec<TypeSlot>,
    unnamed: &[Unnamed],
    root: Option<TypeId>,
    base: Option<TypeId>,
) -> Result<Inputs, SnapshotError> {
    let dangling = |i: usize, what: &str, id: String| {
        SnapshotError::InvalidInputs(format!("type {i} references dead/missing {what} {id}"))
    };
    let mut by_name = NameIndex::new();
    for (i, (t, far)) in types.iter().zip(unnamed).enumerate() {
        if !t.alive {
            if let Some(s) = far.pe {
                return Err(dangling(i, "supertype", format!("t{s}")));
            }
            if let Some(p) = far.ne {
                return Err(dangling(i, "property", format!("p{p}")));
            }
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
                return Err(dangling(i, "supertype", s.to_string()));
            }
        }
        if let Some(s) = far.pe {
            return Err(dangling(i, "supertype", format!("t{s}")));
        }
        for p in &t.ne {
            if !props.get(p.index()).is_some_and(|x| x.alive) {
                return Err(dangling(i, "property", p.to_string()));
            }
        }
        if let Some(p) = far.ne {
            return Err(dangling(i, "property", format!("p{p}")));
        }
    }
    // The spines are built once parsing is done, so each one's records sit
    // together in memory rather than between the parser's allocations.
    let types: Spine<TypeSlot> = types.into_iter().collect();
    if engine::topo_order(&types).is_none() {
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
        // Placeholder rows, one per slot, so that replayed edits index the
        // spine as usual; the build's full derivation replaces them.
        derived: Spine::repeat(types.len(), DerivedType::default()),
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
    Ok(Inputs(schema))
}

/// Append `n` in decimal.
fn push_id(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Append the comma-separated id list `ids`.
fn push_ids(out: &mut String, ids: impl Iterator<Item = usize>) {
    for (k, id) in ids.enumerate() {
        if k > 0 {
            out.push(',');
        }
        push_id(out, id);
    }
}

/// Hand each id of a comma-separated list (the contents of `key[...]`) to
/// `push`. An id must be a decimal in the `u32` id space.
fn each_id(s: &str, mut push: impl FnMut(u32)) -> Result<(), String> {
    if s.trim().is_empty() {
        return Ok(());
    }
    for w in s.split(',') {
        let id = w
            .trim()
            .parse::<usize>()
            .ok()
            .and_then(|id| u32::try_from(id).ok())
            .ok_or_else(|| format!("bad id {w:?}"))?;
        push(id);
    }
    Ok(())
}

/// Read the id list `s` into `ids`, except each id that names no line of
/// the text, of which `far` keeps the smallest.
fn ids_naming_lines(
    s: &str,
    names_a_line: &impl Fn(u32) -> bool,
    ids: &mut Vec<u32>,
    far: &mut Option<u32>,
) -> Result<(), String> {
    ids.clear();
    each_id(s, |id| {
        if names_a_line(id) {
            ids.push(id);
        } else {
            *far = Some(far.map_or(id, |f| f.min(id)));
        }
    })
}

/// Parse a comma-separated id list (the contents of `key[...]`).
pub(crate) fn parse_ids(s: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    each_id(s, |id| out.push(id as usize))?;
    Ok(out)
}

/// Quote `s` for a snapshot line: wrapped in `"`, with `"`, `\` and
/// newline escaped as `\"`, `\\` and `\n`. [`take_quoted`] reads it back.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Append [`quote`]`(s)`, copying each run between escapes whole.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest.find(['"', '\\', '\n']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            _ => "\\n",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

fn unquote(s: &str) -> Option<String> {
    take_quoted(s.trim()).and_then(|(name, rest)| rest.trim().is_empty().then_some(name))
}

/// Parse a leading [`quote`]d string; return it plus the remainder, or
/// `None` if `s` does not start with a terminated quoted string. A name
/// without escapes is one search and one copy.
pub fn take_quoted(s: &str) -> Option<(String, &str)> {
    let mut rest = s.strip_prefix('"')?;
    let mut out = String::new();
    loop {
        let i = rest.find(['"', '\\'])?;
        out.push_str(&rest[..i]);
        if rest.as_bytes()[i] == b'"' {
            return Some((out, &rest[i + 1..]));
        }
        let mut escaped = rest[i + 1..].chars();
        match escaped.next()? {
            'n' => out.push('\n'),
            c => out.push(c),
        }
        rest = escaped.as_str();
    }
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

    /// Every refusal of the v1 parser, pinned to its variant, line and
    /// detail. Each input is the header followed by the listed lines.
    #[test]
    fn malformed_inputs_map_to_exact_errors() {
        let bad = |line: usize, detail: &str| SnapshotError::BadLine {
            line,
            detail: detail.to_string(),
        };
        let invalid = |detail: &str| SnapshotError::InvalidInputs(detail.to_string());
        let cases: Vec<(&str, SnapshotError)> = vec![
            // Index order.
            (
                "prop 1 alive \"a\"",
                bad(2, "prop index 1 out of order (expected 0)"),
            ),
            (
                "prop 0 alive \"a\"\nprop 0 alive \"b\"",
                bad(3, "prop index 0 out of order (expected 1)"),
            ),
            (
                "type 1 alive plain - \"A\" pe[] ne[]",
                bad(2, "type index 1 out of order (expected 0)"),
            ),
            ("prop x alive \"a\"", bad(2, "missing prop index")),
            ("prop", bad(2, "missing prop index")),
            (
                "type -1 alive plain - \"A\" pe[] ne[]",
                bad(2, "missing type index"),
            ),
            // States, flags and marks.
            (
                "prop 0 alvie \"a\"",
                bad(2, "bad prop state Some(\"alvie\")"),
            ),
            ("prop 0", bad(2, "bad prop state None")),
            (
                "type 0 alvie plain - \"A\" pe[] ne[]",
                bad(2, "bad type state Some(\"alvie\")"),
            ),
            (
                "type 0 alive froze - \"A\" pe[] ne[]",
                bad(2, "bad frozen flag Some(\"froze\")"),
            ),
            (
                "type 0 alive plain * \"A\" pe[] ne[]",
                bad(2, "bad root/base mark Some(\"*\")"),
            ),
            ("type 0 alive plain", bad(2, "bad root/base mark None")),
            ("type 0 alive plain -", bad(2, "missing name")),
            // Name quoting.
            ("prop 0 alive a", bad(2, "bad prop name quoting")),
            ("prop 0 alive \"a\" b", bad(2, "bad prop name quoting")),
            ("prop 0 alive \"a", bad(2, "bad prop name quoting")),
            ("prop 0 alive \"a\\", bad(2, "bad prop name quoting")),
            (
                "type 0 alive plain - A pe[] ne[]",
                bad(2, "bad name quoting"),
            ),
            (
                "type 0 alive plain -  \"A\" pe[] ne[]",
                bad(2, "bad name quoting"),
            ),
            (
                "type 0 alive plain - \"A pe[] ne[]",
                bad(2, "bad name quoting"),
            ),
            // Id lists.
            ("type 0 alive plain - \"A\" ne[]", bad(2, "missing pe[...]")),
            ("type 0 alive plain - \"A\" pe[", bad(2, "missing pe[...]")),
            (
                "type 0 alive plain - \"A\" pe []",
                bad(2, "missing pe[...]"),
            ),
            ("type 0 alive plain - \"A\" pe[]", bad(2, "missing ne[...]")),
            (
                "type 0 alive plain - \"A\" pe[] ne[0",
                bad(2, "missing ne[...]"),
            ),
            (
                "type 0 alive plain - \"A\" pe[x] ne[]",
                bad(2, "bad id \"x\""),
            ),
            (
                "type 0 alive plain - \"A\" pe[1,,2] ne[]",
                bad(2, "bad id \"\""),
            ),
            (
                "type 0 alive plain - \"A\" pe[] ne[ 3, y ]",
                bad(2, "bad id \" y \""),
            ),
            (
                "type 0 alive plain - \"A\" pe[-1] ne[]",
                bad(2, "bad id \"-1\""),
            ),
            (
                "type 0 alive plain - \"A\" pe[0,] ne[]",
                bad(2, "bad id \"\""),
            ),
            // Engine and config words.
            ("engine turbo", bad(2, "unknown engine \"turbo\"")),
            ("engine", bad(2, "unknown engine \"\"")),
            (
                "config round pointed",
                bad(2, "bad rootedness Some(\"round\")"),
            ),
            ("config rooted", bad(2, "bad pointedness None")),
            (
                "config rooted pointy",
                bad(2, "bad pointedness Some(\"pointy\")"),
            ),
            ("config", bad(2, "bad rootedness None")),
            // Record kinds and line numbers past comments and blank lines.
            (
                "\n# note\n\nfrobnicate",
                bad(5, "unknown record kind \"frobnicate\""),
            ),
            ("Type 0", bad(2, "unknown record kind \"Type\"")),
            // Root and base markers on dead types.
            (
                "type 0 dead plain root \"A\" pe[] ne[]",
                invalid("root marker on dead type"),
            ),
            (
                "type 0 dead plain base \"A\" pe[] ne[]",
                invalid("base marker on dead type"),
            ),
            // References, names and cycles.
            (
                "type 0 alive plain - \"A\" pe[7] ne[]",
                invalid("type 0 references dead/missing supertype t7"),
            ),
            (
                "type 0 alive plain - \"A\" pe[] ne[3]",
                invalid("type 0 references dead/missing property p3"),
            ),
            // An id no line of the text can name is refused as dangling
            // before its set is allocated (this one would span ~500 MB),
            // after the smaller ids of its list and before the next list.
            (
                "type 0 alive plain - \"A\" pe[0,4000000000] ne[]",
                invalid("type 0 references dead/missing supertype t4000000000"),
            ),
            (
                "type 0 alive plain - \"A\" pe[4000000000,1] ne[4000000000]",
                invalid("type 0 references dead/missing supertype t1"),
            ),
            (
                "prop 0 alive \"a\"\ntype 0 alive plain - \"A\" pe[] ne[0,4000000000,4]",
                invalid("type 0 references dead/missing property p4"),
            ),
            (
                "type 0 dead plain - \"A\" pe[] ne[4000000000]",
                invalid("type 0 references dead/missing property p4000000000"),
            ),
            (
                "prop 0 dead \"a\"\ntype 0 alive plain - \"A\" pe[] ne[0]",
                invalid("type 0 references dead/missing property p0"),
            ),
            (
                "type 0 alive plain - \"A\" pe[] ne[]\ntype 1 alive plain - \"A\" pe[] ne[]",
                invalid("duplicate type name \"A\""),
            ),
            (
                "type 0 alive plain - \"A\" pe[0] ne[]",
                invalid("P_e graph contains a cycle (Axiom of Acyclicity)"),
            ),
        ];
        for (body, want) in cases {
            let text = format!("axiombase v1\n{body}\n");
            assert_eq!(Schema::from_snapshot(&text).unwrap_err(), want, "{body:?}");
        }
        for (text, want) in [
            ("", "empty input"),
            ("axiombase v2\n", "axiombase v2"),
            ("  axiombase v1x\n", "  axiombase v1x"),
        ] {
            assert_eq!(
                Schema::from_snapshot(text).unwrap_err(),
                SnapshotError::BadHeader(want.to_string()),
                "{text:?}"
            );
        }
    }

    #[test]
    fn render_bytes_are_pinned() {
        let want = "axiombase v1\n\
                    config rooted pointed\n\
                    engine incremental\n\
                    prop 0 alive \"weird \\\"name\\\"\\nnewline\"\n\
                    prop 1 dead \"gone\"\n\
                    type 0 alive plain root \"T_object\" pe[] ne[]\n\
                    type 1 alive plain base \"T_null\" pe[0,2,3] ne[]\n\
                    type 2 alive frozen - \"A\" pe[0] ne[0]\n\
                    type 3 alive plain - \"B\" pe[2] ne[]\n\
                    type 4 dead plain - \"C\" pe[] ne[]\n";
        assert_eq!(sample().to_snapshot(), want);
        let r = Schema::from_snapshot(want).unwrap();
        assert_eq!(r.to_snapshot(), want);
    }

    #[test]
    fn ids_past_the_id_space_are_refused() {
        for list in ["pe[4294967296] ne[]", "pe[] ne[0,18446744073709551616]"] {
            let text = format!("axiombase v1\ntype 0 alive plain - \"A\" {list}\n");
            let err = Schema::from_snapshot(&text).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::BadLine { line: 2, detail } if detail.starts_with("bad id")),
                "{list}: {err:?}"
            );
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
