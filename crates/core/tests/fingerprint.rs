//! `Schema::fingerprint` against its reference fold.
//!
//! The reference is the fold the fingerprint has always been: one
//! `DefaultHasher`, fed for each live type in ascending id order its name
//! and then its `P_e`, `N_e`, `P`, `PL`, `N` and `H` sets, each through
//! `Hash` (a set hashes like the `BTreeSet` it replaced: its `usize`
//! length, then its ascending `u32` ids). The committed goldens print
//! fingerprints, so the value must never move.
//!
//! Covered: both engines, the empty schema, dead type and property slots,
//! ids on either side of a 64-bit word boundary (63, 64 and 65), names
//! with multibyte and escaped characters, and random lattices under
//! random traces.
//!
//! A version keeps its fingerprint once asked for it, so
//! `the_memo_follows_every_change` asks before every kind of change and
//! compares against the fold after it: an op, a rejected op, batches
//! (one that derives, one that ends without deriving, one that fails
//! midway), mid-batch clones, `set_engine`, a snapshot load and
//! `History::undo_to`. Debug builds also check every memo they return
//! against a fresh hash.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use axiombase_core::{EngineKind, History, LatticeConfig, Schema, TypeId};
use axiombase_workload::{apply_random_ops, LatticeGen, OpMix};

const ENGINES: [EngineKind; 2] = [EngineKind::Naive, EngineKind::Incremental];

/// The reference fold.
fn reference(s: &Schema) -> u64 {
    let mut h = DefaultHasher::new();
    for t in s.iter_types() {
        s.type_name(t).unwrap().hash(&mut h);
        s.essential_supertypes(t).unwrap().hash(&mut h);
        s.essential_properties(t).unwrap().hash(&mut h);
        let d = s.derived(t).unwrap();
        d.p.hash(&mut h);
        d.pl.hash(&mut h);
        d.n.hash(&mut h);
        d.h.hash(&mut h);
    }
    h.finish()
}

fn assert_reference(s: &Schema, label: &str) {
    assert_eq!(s.fingerprint(), reference(s), "{label}");
}

/// A rooted schema whose sets hold ids 63, 64 and 65 of both arenas: 66
/// types under the root, 66 properties, and a type `W` whose `P_e` and
/// `N_e` straddle the word boundary. Names mix multibyte and escaped
/// characters.
fn boundary(engine: EngineKind) -> Schema {
    let mut s = Schema::with_engine(LatticeConfig::ORION, engine);
    let root = s.add_root_type("T_object").unwrap();
    let names = [
        "Ünïcødé",
        "類型",
        "🦀 crab",
        "quote\"back\\slash",
        "tab\tnew\nline",
        "",
    ];
    let mut types = vec![root];
    for i in 1..66 {
        let name = match names.get(i % 8) {
            Some(n) => format!("{n}{i}"),
            None => format!("t{i}"),
        };
        let parent = types[(i * 7) % types.len()];
        types.push(s.add_type(name, [parent], []).unwrap());
    }
    let props: Vec<_> = (0..66).map(|i| s.add_property(format!("p{i}·ß"))).collect();
    for (i, &p) in props.iter().enumerate() {
        s.add_essential_property(types[i % types.len()], p).unwrap();
    }
    assert_eq!(types[63].index(), 63);
    let w = s
        .add_type("W", [types[63], types[64], types[65]], [])
        .unwrap();
    for &p in &props[63..66] {
        s.add_essential_property(w, p).unwrap();
    }
    s
}

#[test]
fn the_empty_schema_matches() {
    for engine in ENGINES {
        for config in [
            LatticeConfig::ORION,
            LatticeConfig::TIGUKAT,
            LatticeConfig::RELAXED,
        ] {
            let s = Schema::with_engine(config, engine);
            assert_reference(&s, &format!("empty {config:?} {engine:?}"));
        }
    }
}

#[test]
fn word_boundaries_names_and_dead_slots_match() {
    for engine in ENGINES {
        let mut s = boundary(engine);
        assert_reference(&s, &format!("boundary {engine:?}"));
        // Kill slots 64 of both arenas, and a type whose name is escaped.
        s.drop_type(TypeId::from_index(64)).unwrap();
        let escaped = s.type_by_name("quote\"back\\slash3").unwrap();
        s.drop_type(escaped).unwrap();
        let p64 = s.iter_props().nth(64).unwrap();
        s.drop_property(p64).unwrap();
        assert_reference(&s, &format!("boundary with dead slots {engine:?}"));
        // A dead slot's old contents must not reach the hash: the same
        // live schema loaded from its snapshot hashes the same.
        let loaded = Schema::from_snapshot(&s.to_snapshot()).unwrap();
        assert_eq!(loaded.fingerprint(), s.fingerprint());
        assert_reference(&loaded, &format!("boundary reloaded {engine:?}"));
    }
}

#[test]
fn random_lattices_under_random_traces_match() {
    for engine in ENGINES {
        for config in [LatticeConfig::ORION, LatticeConfig::TIGUKAT] {
            for seed in 0..20u64 {
                let mut s = LatticeGen {
                    types: 80,
                    seed,
                    ..Default::default()
                }
                .generate(config, engine)
                .schema;
                let label = format!("{config:?} {engine:?} seed {seed}");
                assert_reference(&s, &label);
                apply_random_ops(&mut s, 150, OpMix::LATTICE_CHURN, seed ^ 0xF1);
                apply_random_ops(&mut s, 150, OpMix::PROPERTY_CHURN, seed ^ 0xF2);
                assert_reference(&s, &format!("{label}, after traces"));
            }
        }
    }
}

#[test]
fn the_memo_follows_every_change() {
    for engine in ENGINES {
        let label = |what: &str| format!("{engine:?}: after {what}");
        let mut s = boundary(engine);
        let root = s.root().unwrap();
        let w = s.type_by_name("W").unwrap();
        let t63 = TypeId::from_index(63);
        let p0 = s.iter_props().next().unwrap();

        // A rename derives nothing: only the version bump can clear.
        s.fingerprint();
        s.rename_type(w, "W·1").unwrap();
        assert_reference(&s, &label("a rename"));
        s.fingerprint();
        s.add_essential_property(t63, p0).unwrap();
        assert_reference(&s, &label("an op that derives"));
        s.fingerprint();
        assert!(s.add_essential_supertype(root, w).is_err());
        assert_reference(&s, &label("a rejected op"));

        s.fingerprint();
        s.evolve_batch(|s| {
            s.drop_essential_property(t63, p0)?;
            s.drop_essential_supertype(w, TypeId::from_index(64))
        })
        .unwrap();
        assert_reference(&s, &label("a batch"));
        s.fingerprint();
        s.evolve_batch(|s| s.rename_type(w, "W·2")).unwrap();
        assert_reference(&s, &label("a batch that ends without deriving"));
        s.fingerprint();
        let failed = s.evolve_batch(|s| {
            s.rename_type(w, "W·3")?;
            s.add_essential_property(t63, p0)?;
            s.add_essential_supertype(root, w)
        });
        assert!(failed.is_err());
        assert_reference(&s, &label("a batch that fails midway"));

        s.fingerprint();
        s.evolve_batch(|s| {
            s.rename_type(w, "W·4")?;
            assert_reference(&s.clone(), &label("a mid-batch clone of a rename"));
            s.drop_essential_property(t63, p0)?;
            // Mid-batch the rows are stale and the hash reads them as
            // they stand; the clone derives its own.
            s.fingerprint();
            assert_reference(&s.clone(), &label("a mid-batch clone of an edit"));
            Ok(())
        })
        .unwrap();
        assert_reference(&s, &label("the batch those clones came from"));

        s.fingerprint();
        let plain = s.clone();
        assert_eq!(plain.fingerprint(), s.fingerprint());
        assert_reference(&plain, &label("a plain clone"));

        s.fingerprint();
        let other = match engine {
            EngineKind::Naive => EngineKind::Incremental,
            EngineKind::Incremental => EngineKind::Naive,
        };
        s.set_engine(other);
        assert_reference(&s, &label("set_engine"));

        let loaded = Schema::from_snapshot(&s.to_snapshot()).unwrap();
        assert_reference(&loaded, &label("a snapshot load"));
        assert_eq!(loaded.fingerprint(), s.fingerprint());

        let mut h = History::from_schema(boundary(engine));
        let v0 = h.schema().fingerprint();
        let w = h.schema().type_by_name("W").unwrap();
        h.rename_type(w, "W·5").unwrap();
        h.drop_type(w).unwrap();
        h.schema().fingerprint();
        h.undo_to(0).unwrap();
        assert_reference(h.schema(), &label("History::undo_to"));
        assert_eq!(h.schema().fingerprint(), v0);
    }
}
