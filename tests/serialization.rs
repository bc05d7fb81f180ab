//! Index persistence: save / load / corrupt-detect, end to end through
//! the public API.

use bwt_kmismatch::bwt::{FmBuildConfig, FmIndex, SerializeError};
use bwt_kmismatch::{KMismatchIndex, Method};

fn build(genome: &[u8]) -> (KMismatchIndex, Vec<u8>) {
    let idx = KMismatchIndex::new(genome.to_vec());
    let mut bytes = Vec::new();
    idx.fm()
        .save(&mut bytes)
        .expect("in-memory save cannot fail");
    (idx, bytes)
}

#[test]
fn loaded_index_answers_identically() {
    let genome = kmm_dna::genome::markov(20_000, &kmm_dna::genome::MarkovConfig::default(), 44);
    let (fresh, bytes) = build(&genome);
    let (fm, _) = FmIndex::load(&bytes[..]).unwrap();
    let loaded = {
        let mut rev = fm.reconstruct_text();
        rev.pop();
        rev.reverse();
        KMismatchIndex::from_parts(rev, fm)
    };
    assert_eq!(loaded.text(), fresh.text());
    let reads = kmm_dna::paper_reads(&genome, 10, 70, 5);
    for r in &reads {
        for method in [Method::ALGORITHM_A, Method::Bwt { use_phi: true }] {
            assert_eq!(
                loaded.search(&r.seq, 3, method).occurrences,
                fresh.search(&r.seq, 3, method).occurrences
            );
        }
    }
}

#[test]
fn every_flipped_header_byte_is_rejected() {
    let genome = kmm_dna::genome::uniform(500, 9);
    let (_, bytes) = build(&genome);
    // Flipping any of the first 12 bytes (magic + version) must yield a
    // clean error, never a wrong index.
    for i in 0..12 {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x5a;
        match FmIndex::load(&corrupt[..]) {
            Err(_) => {}
            Ok(_) => panic!("byte {i} flip went undetected"),
        }
    }
}

#[test]
fn payload_corruption_detected_by_checksum() {
    let genome = kmm_dna::genome::uniform(2_000, 10);
    let (_, bytes) = build(&genome);
    // Flip a sample of payload bytes; every one must be caught (by the
    // checksum or by a structural validation error).
    for frac in [0.3, 0.5, 0.7, 0.9] {
        let mut corrupt = bytes.clone();
        let pos = (bytes.len() as f64 * frac) as usize;
        corrupt[pos] ^= 0x01;
        assert!(
            FmIndex::load(&corrupt[..]).is_err(),
            "flip at {pos}/{} undetected",
            bytes.len()
        );
    }
}

#[test]
fn truncations_at_any_point_are_rejected() {
    let genome = kmm_dna::genome::uniform(300, 11);
    let (_, bytes) = build(&genome);
    for keep in [0, 4, 8, 12, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            FmIndex::load(&bytes[..keep]).is_err(),
            "truncation to {keep} bytes undetected"
        );
    }
}

#[test]
fn version_gate() {
    let genome = kmm_dna::genome::uniform(100, 12);
    let (_, mut bytes) = build(&genome);
    bytes[8] = 0x2a; // version field (little-endian u32 after 8-byte magic)
    match FmIndex::load(&bytes[..]) {
        Err(SerializeError::BadVersion {
            found: 0x2a,
            supported,
        }) => {
            assert_eq!(supported, FmIndex::SUPPORTED_VERSIONS);
        }
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn old_format_versions_fail_cleanly() {
    // Version 1 indexes (pre interleaved-block rank layout), version 2
    // indexes (pre section-table container) and version 3 indexes (`u32`
    // SA samples, byte-wise checksums) must be refused with a precise
    // BadVersion error naming the rebuild — not a panic, not a garbage
    // index parsed under the new layout.
    let genome = kmm_dna::genome::uniform(400, 21);
    let (_, mut bytes) = build(&genome);
    const { assert!(FmIndex::FORMAT_VERSION >= 4, "layout bump must be recorded") };
    for old in [1u8, 2, 3] {
        bytes[8] = old; // little-endian u32 version field after the magic
        bytes[9] = 0;
        bytes[10] = 0;
        bytes[11] = 0;
        match FmIndex::load(&bytes[..]) {
            Err(SerializeError::BadVersion { found, supported }) => {
                assert_eq!(found, old as u32);
                // The error must tell the holder of an old file how to
                // replace it.
                assert!(
                    supported.contains("rebuild with `kmm index`"),
                    "{supported}"
                );
            }
            other => panic!("expected BadVersion for a v{old} file, got {other:?}"),
        }
    }
}

#[test]
fn v3_files_get_the_rebuild_hint_on_both_open_paths() {
    // The version field is read before the section table, so a v3 file
    // is refused on it whichever way it is opened: the read path, which
    // checksums every section, and the mmap path, which does not.
    let genome = kmm_dna::genome::uniform(1_000, 24);
    let (_, mut bytes) = build(&genome);
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    let dir = std::env::temp_dir().join(format!("kmm-v3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("old.v3");
    std::fs::write(&path, &bytes).unwrap();
    let opens = [
        FmIndex::load(&bytes[..]).map(drop),
        FmIndex::open_path(&path, false).map(drop),
        FmIndex::open_path(&path, true).map(drop),
    ];
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
    for (i, opened) in opens.into_iter().enumerate() {
        match opened {
            Err(err @ SerializeError::BadVersion { found: 3, .. }) => {
                let msg = err.to_string();
                assert!(msg.contains("version 3"), "{msg}");
                assert!(msg.contains("rebuild with `kmm index`"), "{msg}");
            }
            other => panic!("open {i}: expected BadVersion {{ found: 3 }}, got {other:?}"),
        }
    }
}

#[test]
fn paper_layout_roundtrips_too() {
    let genome = kmm_dna::genome::uniform(3_000, 13);
    let mut rev = genome.clone();
    rev.reverse();
    rev.push(0);
    let fm = FmIndex::new(&rev, FmBuildConfig::paper());
    let mut bytes = Vec::new();
    fm.save(&mut bytes).unwrap();
    let (loaded, _) = FmIndex::load(&bytes[..]).unwrap();
    let probe: Vec<u8> = genome[100..140].iter().rev().copied().collect();
    assert_eq!(loaded.backward_search(&probe), fm.backward_search(&probe));
}
