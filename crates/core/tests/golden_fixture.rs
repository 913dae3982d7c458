//! Cross-version golden fixture: "same file, same scores".
//!
//! `tests/fixtures/golden_tiny.odz` is a tiny-config ODNET artifact frozen
//! after two training epochs; `tests/fixtures/golden_tiny.json` holds
//! ~20 featurized groups plus the exact `(p_O, p_D)` bit patterns and the
//! `.odz` meta checksum the artifact had when the fixture was written.
//! Every later build must load the *same bytes* through both load paths
//! and reproduce those bits exactly — this pins scoring across kernel
//! rewrites (tiling, SIMD dispatch, head fusion) that must never change an
//! output bit, and pins the meta-block wire format across refactors of
//! the in-memory structs.
//!
//! Regenerating the fixture is a deliberate act (it rewrites the oracle):
//! `cargo test -p odnet-core --test golden_fixture -- --ignored`.

use od_hsg::HsgBuilder;
use odnet_core::{read_odz_checksum, FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel};
use odnet_core::{OdnetConfig, Variant};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Groups, expected score bits, and artifact identity.
#[derive(Serialize, Deserialize)]
struct Golden {
    /// `read_odz_checksum` of the fixture artifact.
    meta_fnv: u32,
    groups: Vec<GroupInput>,
    /// Per group, per candidate: `[p_O.to_bits(), p_D.to_bits()]`.
    score_bits: Vec<Vec<[u32; 2]>>,
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn odz_path() -> PathBuf {
    fixture_dir().join("golden_tiny.odz")
}

fn json_path() -> PathBuf {
    fixture_dir().join("golden_tiny.json")
}

fn score_bits(model: &FrozenOdNet, groups: &[GroupInput]) -> Vec<Vec<[u32; 2]>> {
    groups
        .iter()
        .map(|g| {
            model
                .score_group(g)
                .into_iter()
                .map(|(o, d)| [o.to_bits(), d.to_bits()])
                .collect()
        })
        .collect()
}

fn load_golden() -> Golden {
    let text = std::fs::read_to_string(json_path()).expect("golden fixture json present");
    serde_json::from_str(&text).expect("golden fixture json parses")
}

#[test]
fn golden_artifact_scores_bit_identically_on_both_load_paths() {
    let golden = load_golden();
    assert_eq!(golden.groups.len(), golden.score_bits.len());
    assert_eq!(
        read_odz_checksum(&odz_path()).expect("read header"),
        golden.meta_fnv,
        "fixture file's meta checksum changed"
    );
    let owned = FrozenOdNet::load_bin(&odz_path()).expect("owned load of the golden artifact");
    let mapped = FrozenOdNet::load_bin_mmap(&odz_path()).expect("mmap load of the golden artifact");
    for (name, model) in [("owned", &owned), ("mmap", &mapped)] {
        let got = score_bits(model, &golden.groups);
        for (i, (g, e)) in got.iter().zip(&golden.score_bits).enumerate() {
            assert_eq!(
                g, e,
                "{name}: group {i} scores drifted from the golden bits"
            );
        }
    }
}

#[test]
fn golden_artifact_resaves_to_the_same_meta_checksum() {
    // Load -> save must reproduce the same meta block byte for byte: the
    // in-memory head layout may change, the wire schema may not.
    let golden = load_golden();
    let owned = FrozenOdNet::load_bin(&odz_path()).expect("owned load");
    let path = std::env::temp_dir().join(format!("odnet_golden_{}.odz", std::process::id()));
    owned.save_bin(&path).expect("re-save");
    let again = read_odz_checksum(&path);
    let original = std::fs::read(odz_path()).expect("read fixture");
    let resaved = std::fs::read(&path).expect("read re-saved");
    let _ = std::fs::remove_file(&path);
    assert_eq!(again.expect("read header"), golden.meta_fnv);
    assert!(
        original == resaved,
        "re-saved artifact differs from the fixture bytes"
    );
}

/// Writes the fixture from the current code. Ignored: run it only when the
/// scores are *meant* to change, and say so in the change log.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig::tiny());
    let coords = ds.world.cities.iter().map(|c| c.coords).collect();
    let mut b = HsgBuilder::new(ds.world.num_users(), coords);
    for it in ds.hsg_interactions() {
        b.add_interaction(it);
    }
    let cfg = OdnetConfig {
        workers: 1,
        epochs: 2,
        ..OdnetConfig::tiny()
    };
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    let mut model = OdNetModel::new(
        Variant::Odnet,
        cfg,
        ds.world.num_users(),
        ds.world.num_cities(),
        Some(b.build()),
    );
    odnet_core::train(&mut model, &fx.groups_from_samples(&ds, &ds.train));
    let frozen = model.freeze();

    std::fs::create_dir_all(fixture_dir()).expect("fixture dir");
    frozen.save_bin(&odz_path()).expect("write golden .odz");
    // Real test and train groups (7 candidates each), then five with
    // their candidates cycled to 1, 4, 9, 16 and 17 rows so full and
    // partial row/column tiles of the GEMM kernels are all pinned.
    let train = fx.groups_from_samples(&ds, &ds.train);
    let mut groups: Vec<GroupInput> = fx.groups_from_samples(&ds, &ds.test);
    groups.extend(train.iter().take(15 - groups.len().min(15)).cloned());
    for (n, g) in [1, 4, 9, 16, 17].into_iter().zip(&train[20..]) {
        groups.push(GroupInput {
            candidates: g.candidates.iter().cycle().take(n).copied().collect(),
            ..g.clone()
        });
    }
    // Round-trip the groups through JSON first, so the recorded bits are
    // those of exactly the groups the check will parse back.
    let groups: Vec<GroupInput> =
        serde_json::from_str(&serde_json::to_string(&groups).unwrap()).unwrap();
    let loaded = FrozenOdNet::load_bin(&odz_path()).expect("reload golden .odz");
    let golden = Golden {
        meta_fnv: read_odz_checksum(&odz_path()).expect("header"),
        score_bits: score_bits(&loaded, &groups),
        groups,
    };
    std::fs::write(json_path(), serde_json::to_string(&golden).unwrap()).expect("write json");
}
