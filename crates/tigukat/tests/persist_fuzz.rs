//! Corruption fuzzing for the full-objectbase snapshot parser: the
//! three-section document composes the schema and store parsers with the
//! meta-section grammar, and a hostile document must come back as `Err` —
//! never a panic (ISSUE 3, satellite 2).

use axiombase_tigukat::{FunctionKind, Objectbase, PersistError, Signature};
use proptest::prelude::*;

fn valid_snapshot() -> String {
    let mut ob = Objectbase::new();
    let person = ob.at("T_person", [], []).unwrap();
    let b_name = ob.ab("B_name", None);
    let sig = Signature {
        args: vec![ob.primitives().t_integer],
        result: ob.primitives().t_string,
    };
    let b_greet = ob.ab("B \"greet\\x", Some(sig));
    ob.mt_ab(person, b_name).unwrap();
    ob.mt_ab(person, b_greet).unwrap();
    ob.ac(person).unwrap();
    let o = ob.ao(person).unwrap();
    ob.mo(o, b_name, "Quoted \"name\"\nwith newline".into())
        .unwrap();
    let coll = ob.al("committee");
    ob.collection_insert(coll, o).unwrap();
    let f = ob.af("scratch", FunctionKind::Stored);
    ob.df(f).unwrap();
    ob.to_snapshot()
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

/// An id past the `u32` id space in a meta line is a typed refusal of
/// that line, not a panic in the id constructor.
#[test]
fn meta_ids_past_the_id_space_are_refused() {
    let text = valid_snapshot();
    let types = "type arena index 4294967296 exceeds the u32::MAX id space";
    let props = "property arena index 4294967296 exceeds the u32::MAX id space";
    for (kind, word, want) in [
        ("impl ", 0, types),
        ("impl ", 1, props),
        ("class ", 0, types),
        ("typeobject ", 0, types),
        ("behavior ", 0, props),
    ] {
        let line = text
            .lines()
            .find(|l| l.starts_with(kind))
            .unwrap_or_else(|| panic!("the fixture has a {kind:?} line"));
        let mut words: Vec<&str> = line.split(' ').collect();
        words[word + 1] = "4294967296";
        let hostile = text.replacen(line, &words.join(" "), 1);
        match Objectbase::from_snapshot(&hostile) {
            Err(PersistError::BadLine { detail, .. }) => assert_eq!(detail, want, "{line}"),
            other => panic!("{line}: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arbitrary_bytes_never_panic_the_objectbase_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Objectbase::from_snapshot(&text);
    }

    #[test]
    fn mutated_objectbase_snapshots_never_panic(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..8),
        trunc in any::<u16>(),
        drop_line in any::<u8>(),
        dup_line in any::<u8>(),
    ) {
        let text = mutate(&valid_snapshot(), &flips, trunc, drop_line, dup_line);
        if let Ok(ob) = Objectbase::from_snapshot(&text) {
            // Whatever survives mutation and loads must be consistent:
            // from_snapshot revalidates cross-layer links and the axioms.
            prop_assert!(ob.schema().verify().is_empty());
        }
    }
}
