//! Corruption-matrix tests for the v4 container format: flip one byte
//! in each region of a real serialized index (magic, version, section
//! table, section payloads, padding) and assert the load fails with the
//! matching [`SerializeError`] variant — never a panic, and never a
//! runaway allocation from a corrupt table entry. The payload sweep and
//! the header flips also run through `open_path` on both backings, read
//! and mapped, which run the same checks. Three cases go past the load,
//! with rewrites whose checksums are re-stamped so that both backings
//! load them: a rank-block rewrite must end `locate` with a panic, not
//! an endless walk, and an SA sample past the text, or within one
//! pattern length of its end, must end the query with a panic, not a
//! position that wraps.

use bwt_kmismatch::bwt::sampled_sa::sample_width;
use bwt_kmismatch::bwt::serialize::{fnv1a, TABLE_ENTRY_BYTES};
use bwt_kmismatch::bwt::{FmIndex, Interval, SectionTable, SerializeError};
use bwt_kmismatch::dna::genome::{markov, MarkovConfig, ReferenceGenome};

/// A real serialized index, as `kmm index` would write it.
fn saved_index() -> Vec<u8> {
    let text = markov(4_000, &MarkovConfig::default(), 7);
    let idx = bwt_kmismatch::KMismatchIndex::new(text);
    let mut buf = Vec::new();
    idx.fm().save(&mut buf).expect("save to memory");
    buf
}

fn load(bytes: &[u8]) -> Result<FmIndex, SerializeError> {
    FmIndex::load(bytes).map(|(fm, _)| fm)
}

/// Write `bytes` to a file of their own and open it through
/// `open_path` on both backings: read, then mapped. A backing that
/// loads reports itself through `is_mapped`.
fn open_both(bytes: &[u8], name: &str) -> [Result<FmIndex, SerializeError>; 2] {
    let dir = std::env::temp_dir().join(format!("kmm-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.v4"));
    std::fs::write(&path, bytes).unwrap();
    let maps = cfg!(all(target_os = "linux", target_arch = "x86_64"));
    let opened = [false, true].map(|prefer_mmap| {
        let opened = FmIndex::open_path(&path, prefer_mmap).map(|(fm, _)| fm);
        if let Ok(fm) = &opened {
            assert_eq!(fm.is_mapped(), prefer_mmap && maps);
        }
        opened
    });
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
    opened
}

/// Re-stamp the checksum of section `id`, then the header checksum, so
/// that a rewrite of that section's payload passes every FNV check and
/// only the structural checks, or the runtime guards, can tell.
fn restamp(buf: &mut [u8], id: u32) {
    let table = SectionTable::parse(buf, FmIndex::MAGIC).expect("the header is intact");
    let slot = table
        .entries
        .iter()
        .position(|e| e.id == id)
        .expect("section present");
    let section_sum = fnv1a(table.entries[slot].bytes(buf));
    let sum_at = 16 + slot * TABLE_ENTRY_BYTES + 24;
    buf[sum_at..sum_at + 8].copy_from_slice(&section_sum.to_le_bytes());
    let table_end = 16 + table.entries.len() * TABLE_ENTRY_BYTES;
    let header_sum = fnv1a(&buf[..table_end]);
    buf[table_end..table_end + 8].copy_from_slice(&header_sum.to_le_bytes());
}

/// Byte ranges of the image that are covered by a checksum: the header
/// plus table (its own FNV) and each section payload (per-entry FNV).
/// Alignment padding between them is deliberately uncovered.
fn covered_ranges(buf: &[u8]) -> Vec<(usize, usize)> {
    let table = SectionTable::parse(buf, FmIndex::MAGIC).expect("clean image parses");
    let table_end = 16 + table.entries.len() * TABLE_ENTRY_BYTES;
    let mut ranges = vec![(0usize, table_end + 8)];
    for e in &table.entries {
        ranges.push((e.offset, e.offset + e.len));
    }
    ranges
}

#[test]
fn clean_bytes_load() {
    let buf = saved_index();
    assert!(load(&buf).is_ok());
}

#[test]
fn flipped_magic_is_bad_magic() {
    let buf = saved_index();
    // Every byte of the 8-byte magic tag is load-bearing.
    for off in 0..8 {
        let mut bad = buf.clone();
        bad[off] ^= 0x01;
        assert!(
            matches!(load(&bad), Err(SerializeError::BadMagic)),
            "offset {off} should trip the magic check"
        );
    }
}

#[test]
fn flipped_version_is_bad_version() {
    let buf = saved_index();
    // Bytes 8..12 hold the little-endian format version; the version
    // gate fires before the header checksum so old files get the
    // migration hint, not a corruption report.
    for off in 8..12 {
        let mut bad = buf.clone();
        bad[off] ^= 0x10;
        match load(&bad) {
            Err(SerializeError::BadVersion { found, supported }) => {
                assert_ne!(found, FmIndex::FORMAT_VERSION, "offset {off}");
                assert_eq!(supported, FmIndex::SUPPORTED_VERSIONS);
            }
            other => panic!(
                "offset {off}: expected BadVersion, got {other:?}",
                other = other.err()
            ),
        }
    }
}

#[test]
fn flipped_table_bytes_are_typed_errors() {
    let buf = saved_index();
    let table_end = {
        let table = SectionTable::parse(&buf, FmIndex::MAGIC).unwrap();
        16 + table.entries.len() * TABLE_ENTRY_BYTES
    };
    // Section count, every table entry field, and the header checksum
    // itself: a flip anywhere in [12, table_end + 8) must be caught by
    // the header FNV or by structural validation, as a typed error.
    for off in 12..table_end + 8 {
        let mut bad = buf.clone();
        bad[off] ^= 0x01;
        match load(&bad) {
            Err(SerializeError::Corrupt | SerializeError::Malformed(_)) => {}
            Err(other) => panic!("offset {off}: unexpected variant {other}"),
            Ok(_) => panic!("offset {off}: corrupt table loaded cleanly"),
        }
    }
}

#[test]
fn flipped_payload_never_loads_cleanly() {
    let buf = saved_index();
    // A single flipped bit anywhere inside a checksummed section must
    // surface as Corrupt (the per-section FNV) or Malformed (when the
    // flip lands in metadata that fails a structural check first), from
    // a stream and from a file on either backing. Never Ok, never a
    // panic.
    let ranges = covered_ranges(&buf);
    let mut checked = 0usize;
    for off in (12..buf.len()).step_by(97) {
        if !ranges.iter().any(|&(a, b)| off >= a && off < b) {
            continue; // padding: exercised separately below
        }
        let mut bad = buf.clone();
        bad[off] ^= 0x01;
        let [read, mapped] = open_both(&bad, "payload");
        for (source, opened) in [("stream", load(&bad)), ("read", read), ("mmap", mapped)] {
            match opened {
                Err(SerializeError::Corrupt | SerializeError::Malformed(_)) => {}
                Err(other) => panic!("{source}, offset {off}: unexpected variant {other}"),
                Ok(_) => panic!("{source}, offset {off}: corrupt index loaded cleanly"),
            }
        }
        checked += 1;
    }
    assert!(checked > 20, "sweep covered only {checked} offsets");
}

#[test]
fn padding_bytes_are_not_load_bearing() {
    let buf = saved_index();
    // Alignment padding sits outside every checksum on purpose (it
    // carries no data). Flipping it must not change any answer.
    let ranges = covered_ranges(&buf);
    let clean = load(&buf).unwrap();
    let mut padded = buf.clone();
    let mut flipped = 0usize;
    for (off, byte) in padded.iter_mut().enumerate().skip(12) {
        if !ranges.iter().any(|&(a, b)| off >= a && off < b) {
            *byte ^= 0xff;
            flipped += 1;
        }
    }
    assert!(flipped > 0, "v4 images always contain alignment padding");
    let loaded = load(&padded).expect("padding flips must not fail the load");
    assert_eq!(loaded.reconstruct_text(), clean.reconstruct_text());
}

#[test]
fn hostile_table_entries_fail_without_huge_allocation() {
    let buf = saved_index();
    // The first table entry starts at byte 16 (id, reserved, offset,
    // len, checksum). Blowing up its length field claims a section of
    // billions of bytes; the loader must fail on the header checksum or
    // the bounds check without committing the claimed capacity.
    for high_byte in [36usize, 37, 38, 39] {
        let mut bad = buf.clone();
        bad[high_byte] = 0xff;
        match load(&bad) {
            Err(SerializeError::Malformed(_) | SerializeError::Corrupt) => {}
            Err(other) => panic!("byte {high_byte}: unexpected variant {other}"),
            Ok(_) => panic!("byte {high_byte}: absurd length accepted"),
        }
    }
}

#[test]
fn truncated_file_is_an_error_everywhere() {
    let buf = saved_index();
    // Cut the file at a spread of points, including mid-header,
    // mid-table, and mid-section.
    for cut in [0usize, 5, 11, 20, 36, 100, buf.len() / 2, buf.len() - 1] {
        let bad = &buf[..cut];
        assert!(load(bad).is_err(), "truncation at {cut} loaded cleanly");
    }
}

#[test]
fn borrowed_open_rejects_table_corruption() {
    // The section table is validated before any section is borrowed:
    // magic, version, header FNV, alignment and bounds. Flips across the
    // whole header region must fail typed when a real file is opened on
    // either backing.
    let buf = saved_index();
    let table_end = {
        let table = SectionTable::parse(&buf, FmIndex::MAGIC).unwrap();
        16 + table.entries.len() * TABLE_ENTRY_BYTES
    };
    for off in (0..table_end + 8).step_by(7) {
        let mut bad = buf.clone();
        bad[off] ^= 0x01;
        for opened in open_both(&bad, "header") {
            match opened {
                Err(
                    SerializeError::BadMagic
                    | SerializeError::BadVersion { .. }
                    | SerializeError::Corrupt
                    | SerializeError::Malformed(_),
                ) => {}
                Err(other) => panic!("offset {off}: unexpected variant {other}"),
                Ok(_) => panic!("offset {off}: corrupt header opened cleanly"),
            }
        }
    }
}

#[test]
fn checksum_consistent_rank_directory_rewrite_is_malformed_on_both_paths() {
    // Raise one sampled-SA rank-directory entry and recompute the
    // section checksum and the header checksum: every FNV now agrees,
    // so only the directory-vs-bitmap check can tell that `locate`
    // would read the wrong samples. Both load paths must run it.
    let genome = ReferenceGenome::CMerolae.generate_scaled(0.01);
    let mut buf = Vec::new();
    let idx = bwt_kmismatch::KMismatchIndex::new(genome);
    idx.fm().save(&mut buf).expect("save to memory");
    let table = SectionTable::parse(&buf, FmIndex::MAGIC).unwrap();
    let entry = table.section(FmIndex::SEC_SSA_PREFIX).unwrap();
    let mid = entry.offset + 4 * (entry.len / 4 / 2); // middle u32 entry
    let raised = u32::from_le_bytes(buf[mid..mid + 4].try_into().unwrap()) + 40;
    buf[mid..mid + 4].copy_from_slice(&raised.to_le_bytes());
    restamp(&mut buf, FmIndex::SEC_SSA_PREFIX);

    let rank_directory = |r: Result<FmIndex, SerializeError>| {
        matches!(r, Err(SerializeError::Malformed("rank directory")))
    };
    assert!(rank_directory(load(&buf)), "a stream accepted the rewrite");
    for (prefer_mmap, opened) in [false, true].into_iter().zip(open_both(&buf, "rankdir")) {
        assert!(rank_directory(opened), "prefer_mmap={prefer_mmap}");
    }
}

/// Run `f` on a thread of its own and wait at most `secs` for it, so
/// that a walk that never ends fails the test instead of hanging it.
fn within_secs<T: Send + 'static>(
    secs: u64,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::Result<T> {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(f()).expect("the test waits"));
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(out) => worker.join().map(|()| out),
        // `f` panicked and dropped the sender while unwinding.
        Err(RecvTimeoutError::Disconnected) => Err(worker.join().expect_err("f panicked")),
        Err(RecvTimeoutError::Timeout) => panic!("still running after {secs} s"),
    }
}

#[test]
fn rank_header_self_loop_ends_locate_with_a_panic_on_the_mmap_path() {
    // A rank-block header rewritten to make LF(r) = r at an unsampled
    // row r, with its checksums re-stamped, loads on both backings.
    // `locate` must then stop with a panic that names the corruption
    // (serve's `catch_unwind` answers it with a 500) instead of walking
    // forever.
    let buf = saved_index();
    let fm = load(&buf).unwrap();
    assert_eq!(
        fm.rank_rate(),
        64,
        "blocks of 64 rows: 2 header + 2 packed words"
    );
    let table = SectionTable::parse(&buf, FmIndex::MAGIC).unwrap();
    let marks = table.section(FmIndex::SEC_SSA_MARKS).unwrap().bytes(&buf);
    let sampled = |r: u32| marks[r as usize / 8] >> (r % 8) & 1 == 1;
    // An unsampled row inside its own symbol's F-block, with LF(r) <= r
    // so the raised header count below stays a plain u32.
    let (row, sym) = (0..fm.len() as u32)
        .find_map(|r| {
            let (sym, next) = fm.step(r)?;
            let block = fm.f_block(sym);
            let own_block = block.lo <= r && r < block.hi;
            (own_block && !sampled(r) && next <= r).then_some((r, sym))
        })
        .expect("a 4 kbp text has such a row");
    let lane = (sym - 1) as usize;
    let at =
        table.section(FmIndex::SEC_RANK_BLOCKS).unwrap().offset + row as usize / 64 * 32 + lane * 4;
    let mut bad = buf.clone();
    let header = u32::from_le_bytes(bad[at..at + 4].try_into().unwrap());
    let raised = header + row - fm.lf(row);
    bad[at..at + 4].copy_from_slice(&raised.to_le_bytes());
    restamp(&mut bad, FmIndex::SEC_RANK_BLOCKS);

    for opened in open_both(&bad, "selfloop") {
        let opened = opened.expect("re-stamped checksums: the rewrite loads");
        assert_eq!(opened.lf(row), row, "planted self-loop");
        let panic = within_secs(10, move || opened.locate(Interval::new(row, row + 1)))
            .expect_err("the walk must end");
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("index is corrupt"), "{msg}");
    }
}

/// Where a saved index keeps its packed SA samples.
struct PackedSamples {
    /// Text length, sentinel included.
    n: usize,
    /// SA sampling rate.
    rate: usize,
    /// Bits per sample.
    width: usize,
    /// Bit offset of the samples section in the file.
    at: usize,
    /// The sampled rows, in row (and so sample) order.
    rows: Vec<usize>,
}

impl PackedSamples {
    fn of(buf: &[u8]) -> PackedSamples {
        let table = SectionTable::parse(buf, FmIndex::MAGIC).unwrap();
        let meta = table.section(FmIndex::SEC_META).unwrap().bytes(buf);
        // Meta holds n, rank rate, sentinel row, SA rate as u64s.
        let field = |i: usize| u64::from_le_bytes(meta[8 * i..8 * i + 8].try_into().unwrap());
        let (n, rate) = (field(0) as usize, field(3) as usize);
        let marks = table.section(FmIndex::SEC_SSA_MARKS).unwrap().bytes(buf);
        PackedSamples {
            n,
            rate,
            width: sample_width(n, rate) as usize,
            at: table.section(FmIndex::SEC_SSA_SAMPLES).unwrap().offset * 8,
            rows: (0..n)
                .filter(|&r| marks[r / 8] >> (r % 8) & 1 == 1)
                .collect(),
        }
    }

    /// Rewrite sample `i` of `buf` to store `value` (`SA / rate`).
    fn set(&self, buf: &mut [u8], i: usize, value: usize) {
        assert!(
            value >> self.width == 0,
            "{value} needs more than {} bits",
            self.width
        );
        for b in 0..self.width {
            let bit = self.at + i * self.width + b;
            buf[bit / 8] = buf[bit / 8] & !(1 << (bit % 8)) | ((value >> b & 1) as u8) << (bit % 8);
        }
    }
}

#[test]
fn sample_past_the_text_ends_locate_with_a_panic_on_the_mmap_path() {
    // Packed samples are `SA / rate` in the fewest bits that hold the
    // largest, so the all-ones value of a sample's bits decodes past
    // the text. With its checksums re-stamped such a file loads on both
    // backings; `locate` must then panic naming the corruption instead
    // of returning a position that later arithmetic wraps.
    let buf = saved_index();
    let fm = load(&buf).unwrap();
    let samples = PackedSamples::of(&buf);
    let all_ones = (1usize << samples.width) - 1;
    assert!(
        all_ones * samples.rate >= samples.n,
        "the rewrite must land past the text"
    );
    let mut bad = buf.clone();
    samples.set(&mut bad, 9, all_ones);
    restamp(&mut bad, FmIndex::SEC_SSA_SAMPLES);
    let row = samples.rows[9] as u32;
    for opened in open_both(&bad, "pastext") {
        let opened = opened.expect("re-stamped checksums: the rewrite loads");
        assert_eq!(
            opened.locate(Interval::new(0, 1)),
            fm.locate(Interval::new(0, 1))
        );
        let panic = within_secs(10, move || opened.locate(Interval::new(row, row + 1)))
            .expect_err("a position past the text must not be returned");
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("index is corrupt"), "{msg}");
    }
}

#[test]
fn sample_in_the_last_pattern_length_ends_the_search_with_a_panic_on_the_mmap_path() {
    // A sample inside the text but within one pattern length of its end
    // passes `locate`, but the match it reports would run past the
    // text, and mapping it to a forward position would wrap. The search
    // must panic naming the corruption instead of serving that hit.
    let text = markov(4_000, &MarkovConfig::default(), 7);
    let buf = saved_index();
    let fm = load(&buf).unwrap();
    let samples = PackedSamples::of(&buf);
    let m = 20;
    // A sampled row whose true match of length m lies inside the text
    // (positions of the reversed text the index covers).
    let (i, row) = samples
        .rows
        .iter()
        .copied()
        .enumerate()
        .find(|&(_, r)| {
            fm.locate(Interval::new(r as u32, r as u32 + 1))[0] as usize + m < text.len()
        })
        .expect("a sampled row away from the end");
    let q = fm.locate(Interval::new(row as u32, row as u32 + 1))[0] as usize;
    // The pattern whose reversed-text match starts at q.
    let start = text.len() - q - m;
    let pattern = text[start..start + m].to_vec();
    let near_end = (text.len() - 1) / samples.rate;
    assert!(
        near_end * samples.rate + m > text.len(),
        "the rewrite must overhang the end"
    );
    let mut bad = buf.clone();
    samples.set(&mut bad, i, near_end);
    restamp(&mut bad, FmIndex::SEC_SSA_SAMPLES);
    for opened in open_both(&bad, "nearend") {
        let opened = opened.expect("re-stamped checksums: the rewrite loads");
        let index = bwt_kmismatch::KMismatchIndex::from_fm(opened, None);
        let pattern = pattern.clone();
        let panic = within_secs(10, move || {
            index.search(&pattern, 0, bwt_kmismatch::Method::ALGORITHM_A)
        })
        .expect_err("a match running past the text must not be served");
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("index is corrupt"), "{msg}");
    }
}
