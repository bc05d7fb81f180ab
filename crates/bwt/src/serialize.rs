//! Versioned binary serialization for the index structures.
//!
//! The paper's protocol builds the index once and reuses it across read
//! batches ("once it is created, it can be repeatedly used", Section V);
//! persisting it is the practical counterpart. The format is one
//! zero-copy *container*: magic + version + section table (id / offset /
//! length / FNV checksum per section, offsets 64-byte aligned) followed
//! by the raw little-endian section bytes — no external serialization
//! dependency. Every large structure (rank blocks, sampled-SA bitmap and
//! rank directory, packed SA samples) is loadable *by reference* from
//! the mapped or read file.
//!
//! The current version is 4. Files from earlier versions (v1 and v2, a
//! stream format with no section table; v3, `u32` SA samples under a
//! byte-wise checksum) are refused on the version field with
//! [`SerializeError::BadVersion`] and must be rebuilt with `kmm index`.

use std::io::{self, Write};

/// Errors raised when loading a serialized index.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the expected magic tag.
    BadMagic,
    /// The format version is not supported by this build.
    BadVersion {
        /// Version found in the stream.
        found: u32,
        /// Human-readable list of versions this build can read, with
        /// the migration path for old files.
        supported: &'static str,
    },
    /// The checksum did not match — the stream is corrupt or truncated.
    Corrupt,
    /// A length or enum field held an implausible value.
    Malformed(&'static str),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "index i/o error: {e}"),
            SerializeError::BadMagic => write!(f, "not a kmm index file (bad magic)"),
            SerializeError::BadVersion { found, supported } => {
                write!(
                    f,
                    "unsupported index version {found}; this build reads {supported}"
                )
            }
            SerializeError::Corrupt => write!(f, "index checksum mismatch (corrupt file)"),
            SerializeError::Malformed(what) => write!(f, "malformed index field: {what}"),
        }
    }
}

impl std::error::Error for SerializeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SerializeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SerializeError {
    fn from(e: io::Error) -> Self {
        SerializeError::Io(e)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step: XOR in `x`, multiply by the prime. For a fixed
/// `hash` the step is a bijection of `x` (the prime is odd), so changing
/// any single input word always changes the result.
#[inline]
fn fnv_step(hash: u64, x: u64) -> u64 {
    (hash ^ x).wrapping_mul(FNV_PRIME)
}

/// Word-wise FNV-1a of a byte slice (the container's checksum): one step
/// per 8-byte little-endian word, then one per byte of the tail of
/// fewer than 8. A step per word rather than per byte makes it about
/// eight times faster, and a flipped byte flips bits of exactly one
/// word, so any single-byte change still changes the sum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let hash = (&mut words).fold(FNV_OFFSET, |h, w| {
        fnv_step(h, u64::from_le_bytes(w.try_into().unwrap()))
    });
    words
        .remainder()
        .iter()
        .fold(hash, |h, &b| fnv_step(h, b as u64))
}

// ---------------------------------------------------------------------
// The v4 section-table container.
//
// Layout (all integers little-endian):
//
//   [0, 8)                   magic
//   [8, 12)                  format version (u32)
//   [12, 16)                 section count (u32)
//   [16, 16 + 32 * count)    section table, one 32-byte entry each:
//                              id (u32), reserved (u32 = 0),
//                              offset (u64, bytes, 64-aligned),
//                              length (u64, bytes),
//                              word-wise FNV-1a of the section bytes (u64)
//   [table_end, +8)          word-wise FNV-1a of [0, table_end)
//   ...                      zero padding to each section's offset
//   [offset_i, +length_i)    raw section bytes
//
// Offsets are 64-byte aligned so a page- or word-aligned base address
// makes every section borrowable as &[u64]/&[u32] without copying.
// ---------------------------------------------------------------------

/// Required alignment of every section offset.
pub const SECTION_ALIGN: usize = 64;

/// Bytes per section-table entry.
pub const TABLE_ENTRY_BYTES: usize = 32;

/// Upper bound on the section count a parser will accept; real files
/// carry fewer than ten sections, so anything bigger is corruption.
pub const MAX_SECTIONS: usize = 64;

/// One section's payload, fed to [`write_container`]. Multi-byte
/// elements are serialized little-endian regardless of host order.
pub enum SectionPayload<'a> {
    /// Raw bytes, written verbatim.
    Bytes(&'a [u8]),
    /// A `u32` array.
    U32s(&'a [u32]),
    /// A `u64` array.
    U64s(&'a [u64]),
}

impl SectionPayload<'_> {
    /// Serialized byte length.
    pub fn byte_len(&self) -> usize {
        match self {
            SectionPayload::Bytes(b) => b.len(),
            SectionPayload::U32s(v) => v.len() * 4,
            SectionPayload::U64s(v) => v.len() * 8,
        }
    }

    /// [`fnv1a`] of the serialized (little-endian) bytes, folded from
    /// the elements without serializing them: a `u64` is its own
    /// little-endian word, and two `u32`s make one.
    fn checksum(&self) -> u64 {
        match self {
            SectionPayload::Bytes(b) => fnv1a(b),
            SectionPayload::U64s(v) => v.iter().fold(FNV_OFFSET, |h, &x| fnv_step(h, x)),
            SectionPayload::U32s(v) => {
                let mut pairs = v.chunks_exact(2);
                let hash = (&mut pairs).fold(FNV_OFFSET, |h, p| {
                    fnv_step(h, p[0] as u64 | (p[1] as u64) << 32)
                });
                pairs
                    .remainder()
                    .iter()
                    .flat_map(|x| x.to_le_bytes())
                    .fold(hash, |h, b| fnv_step(h, b as u64))
            }
        }
    }

    /// Write the serialized bytes.
    fn write_into<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            SectionPayload::Bytes(b) => w.write_all(b),
            SectionPayload::U32s(v) => {
                for x in *v {
                    w.write_all(&x.to_le_bytes())?;
                }
                Ok(())
            }
            SectionPayload::U64s(v) => {
                for x in *v {
                    w.write_all(&x.to_le_bytes())?;
                }
                Ok(())
            }
        }
    }
}

/// Write a complete v4-style container: header, checksummed section
/// table, aligned checksummed sections.
pub fn write_container<W: Write>(
    mut w: W,
    magic: &[u8; 8],
    version: u32,
    sections: &[(u32, SectionPayload<'_>)],
) -> io::Result<()> {
    assert!(sections.len() <= MAX_SECTIONS, "too many sections");
    let table_end = 16 + sections.len() * TABLE_ENTRY_BYTES;
    // Lay the sections out 64-byte aligned after the table checksum.
    let mut offsets = Vec::with_capacity(sections.len());
    let mut cursor = (table_end + 8).next_multiple_of(SECTION_ALIGN);
    for (_, payload) in sections {
        offsets.push(cursor);
        cursor += payload.byte_len();
        cursor = cursor.next_multiple_of(SECTION_ALIGN);
    }
    let mut header = Vec::with_capacity(table_end);
    header.extend_from_slice(magic);
    header.extend_from_slice(&version.to_le_bytes());
    header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for ((id, payload), off) in sections.iter().zip(&offsets) {
        header.extend_from_slice(&id.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        header.extend_from_slice(&(*off as u64).to_le_bytes());
        header.extend_from_slice(&(payload.byte_len() as u64).to_le_bytes());
        header.extend_from_slice(&payload.checksum().to_le_bytes());
    }
    debug_assert_eq!(header.len(), table_end);
    w.write_all(&header)?;
    w.write_all(&fnv1a(&header).to_le_bytes())?;
    let mut pos = table_end + 8;
    const ZEROS: [u8; SECTION_ALIGN] = [0; SECTION_ALIGN];
    for ((_, payload), off) in sections.iter().zip(&offsets) {
        w.write_all(&ZEROS[..off - pos])?;
        payload.write_into(&mut w)?;
        pos = off + payload.byte_len();
    }
    w.flush()
}

/// One parsed entry of a container's section table, bounds- and
/// alignment-validated against the file it came from.
#[derive(Debug, Clone, Copy)]
pub struct SectionEntry {
    /// Section id (what the bytes hold).
    pub id: u32,
    /// Byte offset of the section in the file.
    pub offset: usize,
    /// Byte length of the section.
    pub len: usize,
    /// FNV-1a checksum of the section bytes.
    pub checksum: u64,
}

/// A parsed container header: format version plus its section table.
#[derive(Debug)]
pub struct SectionTable {
    /// Format version from the header.
    pub version: u32,
    /// Validated section entries, in file order.
    pub entries: Vec<SectionEntry>,
}

impl SectionTable {
    /// Parse and validate a container header over `bytes`. Checks the
    /// magic, the header checksum, and every entry's alignment and
    /// bounds — everything needed to make borrowing sections memory-safe
    /// — but does *not* checksum section data (see
    /// [`SectionEntry::verify`], which every index open runs on every
    /// section).
    ///
    /// The version is returned, not judged: callers refuse older
    /// versions (which share the magic + version prefix but carry no
    /// table) before expecting one.
    pub fn parse(bytes: &[u8], magic: &[u8; 8]) -> Result<SectionTable, SerializeError> {
        if bytes.len() < 8 || &bytes[..8] != magic {
            return Err(SerializeError::BadMagic);
        }
        if bytes.len() < 16 {
            return Err(SerializeError::Malformed("container header"));
        }
        let at_u32 = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let version = at_u32(8);
        let count = at_u32(12) as usize;
        if count > MAX_SECTIONS {
            return Err(SerializeError::Malformed("section count"));
        }
        let table_end = 16 + count * TABLE_ENTRY_BYTES;
        if bytes.len() < table_end + 8 {
            return Err(SerializeError::Malformed("section table"));
        }
        let stored = u64::from_le_bytes(bytes[table_end..table_end + 8].try_into().unwrap());
        if fnv1a(&bytes[..table_end]) != stored {
            return Err(SerializeError::Corrupt);
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let at = 16 + i * TABLE_ENTRY_BYTES;
            let id = at_u32(at);
            let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
            let checksum = u64::from_le_bytes(bytes[at + 24..at + 32].try_into().unwrap());
            let (Ok(offset), Ok(len)) = (usize::try_from(offset), usize::try_from(len)) else {
                return Err(SerializeError::Malformed("section bounds"));
            };
            if !offset.is_multiple_of(SECTION_ALIGN) {
                return Err(SerializeError::Malformed("section alignment"));
            }
            let Some(end) = offset.checked_add(len) else {
                return Err(SerializeError::Malformed("section bounds"));
            };
            if offset < table_end + 8 || end > bytes.len() {
                return Err(SerializeError::Malformed("section bounds"));
            }
            entries.push(SectionEntry {
                id,
                offset,
                len,
                checksum,
            });
        }
        Ok(SectionTable { version, entries })
    }

    /// The entry for section `id`, or a typed "missing section" error.
    pub fn section(&self, id: u32) -> Result<&SectionEntry, SerializeError> {
        self.find(id)
            .ok_or(SerializeError::Malformed("missing section"))
    }

    /// The entry for section `id` if present. Optional sections (ids
    /// appended after a format was first shipped) are probed with this
    /// so their absence reads as "feature unavailable", not corruption.
    pub fn find(&self, id: u32) -> Option<&SectionEntry> {
        self.entries.iter().find(|e| e.id == id)
    }
}

impl SectionEntry {
    /// The section's bytes within the file image.
    pub fn bytes<'a>(&self, file: &'a [u8]) -> &'a [u8] {
        &file[self.offset..self.offset + self.len]
    }

    /// Verify the section's data checksum ([`SerializeError::Corrupt`]
    /// on mismatch). O(len); every index open runs it for every section.
    pub fn verify(&self, file: &[u8]) -> Result<(), SerializeError> {
        if fnv1a(self.bytes(file)) != self.checksum {
            return Err(SerializeError::Corrupt);
        }
        Ok(())
    }

    /// Element count if the section holds an array of `elem_size`-byte
    /// values; `Malformed` if the length is not a whole multiple.
    pub fn elems(&self, elem_size: usize) -> Result<usize, SerializeError> {
        if !self.len.is_multiple_of(elem_size) {
            return Err(SerializeError::Malformed("section element size"));
        }
        Ok(self.len / elem_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(SerializeError::BadMagic.to_string().contains("magic"));
        let msg = SerializeError::BadVersion {
            found: 9,
            supported: "v4 (older files: rebuild with `kmm index`)",
        }
        .to_string();
        // Names both the found version and the supported set.
        assert!(msg.contains('9'), "{msg}");
        assert!(msg.contains("v4"), "{msg}");
        assert!(msg.contains("rebuild"), "{msg}");
    }

    /// Byte-at-a-time FNV-1a: the word-wise sum of any input shorter
    /// than a word.
    fn fnv1a_bytewise(bytes: &[u8]) -> u64 {
        bytes.iter().fold(FNV_OFFSET, |h, &b| fnv_step(h, b as u64))
    }

    #[test]
    fn fnv1a_folds_words_then_the_tail() {
        assert_eq!(fnv1a(&[]), FNV_OFFSET);
        // Fewer than 8 bytes: all tail, so the byte-wise sum.
        assert_eq!(fnv1a(b"abc"), fnv1a_bytewise(b"abc"));
        // 8 bytes and more: one step per little-endian word.
        let bytes: Vec<u8> = (1..=11u8).collect();
        let word = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let want = [9u8, 10, 11]
            .iter()
            .fold(fnv_step(FNV_OFFSET, word), |h, &b| fnv_step(h, b as u64));
        assert_eq!(fnv1a(&bytes), want);
    }

    #[test]
    fn every_single_byte_change_changes_the_sum() {
        let bytes: Vec<u8> = (0..83u32).map(|i| (i * 37 % 251) as u8).collect();
        let clean = fnv1a(&bytes);
        for at in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= flip;
                assert_ne!(fnv1a(&bad), clean, "byte {at} ^ {flip:#x}");
            }
        }
    }

    #[test]
    fn payload_checksums_hash_the_serialized_bytes() {
        let serialized = |p: &SectionPayload<'_>| {
            let mut out = Vec::new();
            p.write_into(&mut out).unwrap();
            assert_eq!(out.len(), p.byte_len());
            out
        };
        let u32s: Vec<u32> = (0..9u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let u64s: Vec<u64> = (0..5u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let bytes: Vec<u8> = (0..21u8).collect();
        for payload in [
            SectionPayload::U32s(&u32s),      // odd count: a 4-byte tail
            SectionPayload::U32s(&u32s[..8]), // even count: words only
            SectionPayload::U32s(&[]),
            SectionPayload::U64s(&u64s),
            SectionPayload::Bytes(&bytes),
        ] {
            assert_eq!(payload.checksum(), fnv1a(&serialized(&payload)));
        }
    }

    const MAGIC: &[u8; 8] = b"TESTMAGC";

    fn sample_container() -> Vec<u8> {
        let mut buf = Vec::new();
        write_container(
            &mut buf,
            MAGIC,
            3,
            &[
                (1, SectionPayload::Bytes(&[9, 9, 9])),
                (2, SectionPayload::U32s(&[1, 2, 3, 4, 5])),
                (3, SectionPayload::U64s(&[u64::MAX, 7])),
            ],
        )
        .unwrap();
        buf
    }

    #[test]
    fn container_roundtrip_with_aligned_sections() {
        let buf = sample_container();
        let table = SectionTable::parse(&buf, MAGIC).unwrap();
        assert_eq!(table.version, 3);
        assert_eq!(table.entries.len(), 3);
        for entry in &table.entries {
            assert_eq!(entry.offset % SECTION_ALIGN, 0);
            entry.verify(&buf).unwrap();
        }
        assert_eq!(table.section(1).unwrap().bytes(&buf), &[9, 9, 9]);
        let u32s = table.section(2).unwrap();
        assert_eq!(u32s.elems(4).unwrap(), 5);
        assert_eq!(&u32s.bytes(&buf)[..4], &1u32.to_le_bytes());
        let u64s = table.section(3).unwrap();
        assert_eq!(u64s.elems(8).unwrap(), 2);
        // The 3-byte section is not an array of 8-byte values.
        assert!(matches!(
            table.section(1).unwrap().elems(8),
            Err(SerializeError::Malformed("section element size"))
        ));
        assert!(matches!(
            table.section(99),
            Err(SerializeError::Malformed("missing section"))
        ));
    }

    #[test]
    fn container_header_flips_are_typed_errors() {
        let good = sample_container();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            SectionTable::parse(&bad, MAGIC),
            Err(SerializeError::BadMagic)
        ));
        // Header/table corruption (checksum over [0, table_end)).
        for at in [8usize, 12, 16, 24, 40] {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            assert!(
                matches!(
                    SectionTable::parse(&bad, MAGIC),
                    Err(SerializeError::Corrupt)
                ),
                "flip at {at}"
            );
        }
        // Truncations: mid-table, mid-section.
        for keep in [4usize, 15, 20, 70] {
            let mut bad = good.clone();
            bad.truncate(keep);
            assert!(SectionTable::parse(&bad, MAGIC).is_err(), "truncate {keep}");
        }
        // Data corruption passes the header parse but fails verify().
        let table = SectionTable::parse(&good, MAGIC).unwrap();
        let entry = *table.section(2).unwrap();
        let mut bad = good.clone();
        bad[entry.offset] ^= 0x10;
        let reparsed = SectionTable::parse(&bad, MAGIC).unwrap();
        assert!(matches!(
            reparsed.section(2).unwrap().verify(&bad),
            Err(SerializeError::Corrupt)
        ));
    }

    #[test]
    fn container_rejects_hostile_tables() {
        // Hand-build a header whose entry is misaligned / out of bounds,
        // with a *valid* header checksum, to prove the structural checks
        // fire independently of the checksum.
        let build = |offset: u64, len: u64| -> Vec<u8> {
            let mut h = Vec::new();
            h.extend_from_slice(MAGIC);
            h.extend_from_slice(&3u32.to_le_bytes());
            h.extend_from_slice(&1u32.to_le_bytes());
            h.extend_from_slice(&7u32.to_le_bytes());
            h.extend_from_slice(&0u32.to_le_bytes());
            h.extend_from_slice(&offset.to_le_bytes());
            h.extend_from_slice(&len.to_le_bytes());
            h.extend_from_slice(&0u64.to_le_bytes());
            let sum = fnv1a(&h);
            h.extend_from_slice(&sum.to_le_bytes());
            h.resize(256, 0);
            h
        };
        assert!(matches!(
            SectionTable::parse(&build(65, 8), MAGIC),
            Err(SerializeError::Malformed("section alignment"))
        ));
        assert!(matches!(
            SectionTable::parse(&build(192, 1000), MAGIC),
            Err(SerializeError::Malformed("section bounds"))
        ));
        assert!(matches!(
            SectionTable::parse(&build(u64::MAX - 63, 8), MAGIC),
            Err(SerializeError::Malformed("section bounds"))
        ));
        // A section overlapping the header is rejected too.
        assert!(matches!(
            SectionTable::parse(&build(0, 8), MAGIC),
            Err(SerializeError::Malformed("section bounds"))
        ));
    }
}
