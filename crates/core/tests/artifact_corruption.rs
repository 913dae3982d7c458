//! Corruption robustness of the `.odz` binary loader.
//!
//! A serving replica mmap-loads whatever artifact the deployment pipeline
//! hands it; a corrupt, truncated, or hand-edited file must surface as a
//! typed [`CheckpointError`] at load time — never a panic, and never
//! undefined behaviour from reading past a mapping. Every test here
//! byte-surgeon's a valid artifact (the header layout is specified in
//! DESIGN.md §12) and asserts both load paths refuse it.

use odnet_core::{CheckpointError, FrozenOdNet, OdNetModel, OdnetConfig, Variant};
use std::path::PathBuf;

/// FNV-1a (32-bit), mirrored from the spec so tests can re-seal headers
/// after deliberate tampering.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Recompute the header checksum (bytes 12..16 over the 64-byte header
/// with the field zeroed) after a test edited header fields.
fn reseal_header(bytes: &mut [u8]) {
    let mut h = [0u8; 64];
    h.copy_from_slice(&bytes[..64]);
    h[12..16].fill(0);
    let fnv = fnv1a(&h);
    bytes[12..16].copy_from_slice(&fnv.to_le_bytes());
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odz_corruption_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// A small untrained artifact: universe sizes are all `freeze` needs.
fn tiny_artifact_bytes() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        // ODNET−G: the graph-free variant, so no HSG is needed to freeze.
        let frozen = OdNetModel::new(Variant::OdnetG, OdnetConfig::tiny(), 30, 12, None).freeze();
        let path = scratch("pristine.odz");
        frozen.save_bin(&path).expect("save tiny artifact");
        let bytes = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        bytes
    })
}

/// Write corrupted bytes and collect the error from both load paths.
fn load_both(name: &str, bytes: &[u8]) -> [Result<FrozenOdNet, CheckpointError>; 2] {
    let path = scratch(name);
    std::fs::write(&path, bytes).expect("write corrupted artifact");
    let out = [
        FrozenOdNet::load_bin(&path),
        FrozenOdNet::load_bin_mmap(&path),
    ];
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn pristine_artifact_loads_on_both_paths() {
    for r in load_both("ok.odz", tiny_artifact_bytes()) {
        let frozen = r.expect("pristine artifact loads");
        assert_eq!(frozen.num_users(), 30);
        assert_eq!(frozen.num_cities(), 12);
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = tiny_artifact_bytes().to_vec();
    bytes[..4].copy_from_slice(b"JPEG");
    reseal_header(&mut bytes);
    for r in load_both("magic.odz", &bytes) {
        match r {
            Err(CheckpointError::Binary(what)) => assert!(what.contains("magic"), "{what}"),
            other => panic!("expected Binary(magic), got {other:?}"),
        }
    }
}

#[test]
fn unknown_format_version_reports_version() {
    let mut bytes = tiny_artifact_bytes().to_vec();
    bytes[4..8].copy_from_slice(&7u32.to_le_bytes());
    reseal_header(&mut bytes);
    for r in load_both("version.odz", &bytes) {
        match r {
            Err(CheckpointError::Version(7)) => {}
            other => panic!("expected Version(7), got {other:?}"),
        }
    }
}

#[test]
fn every_flipped_header_byte_is_detected() {
    let pristine = tiny_artifact_bytes();
    for i in 0..64 {
        let mut bytes = pristine.to_vec();
        bytes[i] ^= 0x20;
        // Deliberately NOT resealed: the header checksum (or an earlier
        // magic/version check) must catch the flip on both paths.
        for r in load_both("hdrflip.odz", &bytes) {
            assert!(r.is_err(), "flipped header byte {i} loaded successfully");
        }
    }
}

#[test]
fn truncated_files_are_rejected_at_every_length() {
    let pristine = tiny_artifact_bytes();
    // Below the header, mid-payload, and mid-meta truncations all fail
    // with a typed error (the meta block is the last thing in the file,
    // so any truncation cuts it off).
    for keep in [0, 1, 63, 64, 200, pristine.len() / 2, pristine.len() - 1] {
        for r in load_both("trunc.odz", &pristine[..keep]) {
            match r {
                Err(CheckpointError::Binary(_)) => {}
                other => panic!("{keep}-byte truncation: expected Binary, got {other:?}"),
            }
        }
    }
}

#[test]
fn payload_corruption_fails_the_audited_read() {
    let mut bytes = tiny_artifact_bytes().to_vec();
    // Flip a bit in the middle of the first table's payload. Exponent-bit
    // flips like this one keep the value finite, so only the checksum —
    // not the finiteness scan — can catch it.
    bytes[64 + 5] ^= 0x01;
    let path = scratch("payload.odz");
    std::fs::write(&path, &bytes).expect("write");
    match FrozenOdNet::load_bin(&path) {
        Err(CheckpointError::Binary(what)) => assert!(what.contains("checksum"), "{what}"),
        other => panic!("expected Binary(checksum), got {other:?}"),
    }
    // The zero-copy path skips payload audits by design (DESIGN.md §12):
    // it must still load and must not panic when the region is scored.
    FrozenOdNet::load_bin_mmap(&path).expect("mmap load validates geometry only");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn meta_corruption_is_caught_by_the_meta_checksum() {
    let pristine = tiny_artifact_bytes();
    let meta_offset = u64::from_le_bytes(pristine[40..48].try_into().unwrap()) as usize;
    let mut bytes = pristine.to_vec();
    // Flip one digit inside the meta JSON (e.g. a tower weight) without
    // touching structure: swap a '1' for a '2' somewhere after the
    // directory. Fall back to xor if the byte isn't a digit.
    let target = meta_offset + (bytes.len() - meta_offset) / 2;
    bytes[target] = if bytes[target] == b'1' {
        b'2'
    } else {
        bytes[target] ^ 0x01
    };
    for r in load_both("meta.odz", &bytes) {
        match r {
            // Either the checksum catches it (expected) or, if the flip
            // produced invalid UTF-8/JSON, the parse does — but it must
            // never load.
            Err(
                CheckpointError::Binary(_)
                | CheckpointError::Parse(_)
                | CheckpointError::Inconsistent(_),
            ) => {}
            other => panic!("expected a typed load error, got {other:?}"),
        }
    }
}

#[test]
fn misaligned_table_offset_is_rejected() {
    let pristine = tiny_artifact_bytes();
    let meta_offset = u64::from_le_bytes(pristine[40..48].try_into().unwrap()) as usize;
    let mut bytes = pristine.to_vec();
    // The first table sits at offset 64 directly after the header; its
    // directory entry reads "offset":64. Nudge it to the same-width,
    // misaligned 65 and re-seal the meta + header checksums so ONLY the
    // alignment check can object.
    let meta = std::str::from_utf8(&bytes[meta_offset..]).expect("meta is JSON");
    let at = meta
        .find("\"offset\":64")
        .expect("first table at offset 64");
    bytes[meta_offset + at + "\"offset\":6".len()] = b'5';
    let meta_fnv = fnv1a(&bytes[meta_offset..]);
    bytes[56..60].copy_from_slice(&meta_fnv.to_le_bytes());
    reseal_header(&mut bytes);
    for r in load_both("misaligned.odz", &bytes) {
        match r {
            Err(CheckpointError::Binary(what)) => assert!(what.contains("aligned"), "{what}"),
            other => panic!("expected Binary(aligned), got {other:?}"),
        }
    }
}

#[test]
fn table_escaping_the_payload_region_is_rejected() {
    let pristine = tiny_artifact_bytes();
    let meta_offset = u64::from_le_bytes(pristine[40..48].try_into().unwrap()) as usize;
    let mut bytes = pristine.to_vec();
    // Inflate the first table's row count by an order of magnitude (same
    // digit width trick: 30 users -> 90) so its byte range runs past the
    // meta block; reseal checksums so only the bounds check can object.
    let meta = std::str::from_utf8(&bytes[meta_offset..]).expect("meta is JSON");
    let at = meta.find("\"rows\":30").expect("users table has 30 rows");
    bytes[meta_offset + at + "\"rows\":".len()] = b'9';
    let meta_fnv = fnv1a(&bytes[meta_offset..]);
    bytes[56..60].copy_from_slice(&meta_fnv.to_le_bytes());
    reseal_header(&mut bytes);
    for r in load_both("escape.odz", &bytes) {
        match r {
            // load_bin notices the bad checksum-range or bounds; both are
            // Binary. The geometry check (30 declared vs 90 directory)
            // would be Inconsistent — also acceptable, also typed.
            Err(CheckpointError::Binary(_) | CheckpointError::Inconsistent(_)) => {}
            other => panic!("expected typed rejection, got {other:?}"),
        }
    }
}

#[test]
fn empty_and_garbage_files_are_rejected() {
    for r in load_both("empty.odz", &[]) {
        assert!(matches!(r, Err(CheckpointError::Binary(_))));
    }
    for r in load_both("garbage.odz", &[0xABu8; 4096]) {
        assert!(matches!(r, Err(CheckpointError::Binary(_))));
    }
}

/// Replace the meta block with `meta` and re-seal the meta and header
/// checksums, so only the loader's semantic checks can object.
fn with_meta(pristine: &[u8], meta: &serde::Content) -> Vec<u8> {
    let meta_offset = u64::from_le_bytes(pristine[40..48].try_into().unwrap()) as usize;
    let json = serde_json::to_string(meta).expect("meta serializes");
    let mut bytes = pristine[..meta_offset].to_vec();
    bytes.extend_from_slice(json.as_bytes());
    bytes[48..56].copy_from_slice(&(json.len() as u64).to_le_bytes());
    bytes[56..60].copy_from_slice(&fnv1a(json.as_bytes()).to_le_bytes());
    reseal_header(&mut bytes);
    bytes
}

fn field<'a>(c: &'a mut serde::Content, key: &str) -> &'a mut serde::Content {
    match c {
        serde::Content::Map(entries) => {
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("meta has no {key:?}"))
                .1
        }
        _ => panic!("{key:?}: not a map"),
    }
}

/// The pristine meta block, parsed, plus the MMoE head's `(q⊕, d_r)`.
fn pristine_meta() -> (serde::Content, usize, usize) {
    let pristine = tiny_artifact_bytes();
    let meta_offset = u64::from_le_bytes(pristine[40..48].try_into().unwrap()) as usize;
    let meta: serde::Content =
        serde_json::from_str(std::str::from_utf8(&pristine[meta_offset..]).unwrap()).unwrap();
    let cfg = OdnetConfig::tiny();
    (meta, 2 * cfg.q_dim(), cfg.expert_dim)
}

/// A self-consistent expert layer `in_dim → width`, as wire content.
fn expert_layer(in_dim: usize, width: usize) -> serde::Content {
    use od_tensor::{nn::FrozenLinear, Shape, Tensor};
    use serde::Serialize as _;
    FrozenLinear::from_parts(
        Tensor::zeros(Shape::Matrix(in_dim, width)),
        Some(Tensor::zeros(Shape::Vector(width))),
    )
    .to_content()
}

#[test]
fn wrong_width_expert_is_inconsistent_on_both_paths() {
    // One expert one column narrower than its siblings and the declared
    // d_r: the fused head cannot be built, and the load must say so with
    // a typed error rather than panic inside the fusion copy.
    let (mut meta, q_cat, dr) = pristine_meta();
    let joint = field(field(&mut meta, "head"), "Joint");
    match field(joint, "experts") {
        serde::Content::Seq(experts) => experts[1] = expert_layer(q_cat, dr - 1),
        _ => panic!("experts: not a list"),
    }
    for r in load_both(
        "narrow_expert.odz",
        &with_meta(tiny_artifact_bytes(), &meta),
    ) {
        match r {
            Err(CheckpointError::Inconsistent(what)) => {
                assert!(what.contains("expert1"), "{what}")
            }
            other => panic!("expected Inconsistent(expert1), got {other:?}"),
        }
    }
}

#[test]
fn uniformly_narrower_experts_disagree_with_the_config() {
    // Every expert (and the wire's expert_dim) narrower, down to zero
    // columns: whether or not the head fuses, its width disagrees with
    // config.expert_dim.
    let (pristine, q_cat, dr) = pristine_meta();
    for width in [dr - 1, 0] {
        let mut meta = pristine.clone();
        let joint = field(field(&mut meta, "head"), "Joint");
        match field(joint, "experts") {
            serde::Content::Seq(experts) => {
                for e in experts.iter_mut() {
                    *e = expert_layer(q_cat, width);
                }
            }
            _ => panic!("experts: not a list"),
        }
        *field(joint, "expert_dim") = serde::Content::U64(width as u64);
        let bytes = with_meta(tiny_artifact_bytes(), &meta);
        for r in load_both("narrow_experts.odz", &bytes) {
            match r {
                Err(CheckpointError::Inconsistent(what)) => {
                    assert!(what.contains("width"), "{what}")
                }
                other => panic!("width {width}: expected Inconsistent, got {other:?}"),
            }
        }
    }
}
