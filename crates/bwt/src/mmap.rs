//! Memory-mapped index bytes and borrowed/owned array storage.
//!
//! The v4 index container (see `serialize.rs`) lays every structure out
//! as an aligned little-endian section inside one file, so a loaded
//! index can *reference* the file bytes instead of copying them. This
//! module supplies the two halves of that:
//!
//! - [`IndexBytes`]: one contiguous byte region holding a whole index
//!   file — either owned (read into `u64`-aligned heap storage) or a
//!   read-only `mmap` of the file. The mapping uses raw syscalls on
//!   Linux/x86_64 (the repo is dependency-free, so no `libc`); every
//!   other platform reports [`std::io::ErrorKind::Unsupported`] and
//!   callers fall back to the plain-read path.
//! - [`U64Store`] / [`U32Store`]: the storage behind the index's big
//!   arrays — an owned `Vec` or a `(base, offset, len)` borrow into a
//!   shared [`IndexBytes`]. Both deref to plain slices, so the search
//!   layer is storage-agnostic.
//!
//! Borrowing bytes as `&[u64]`/`&[u32]` is only meaningful when the
//! in-memory representation matches the on-disk one, which is why the
//! v4 format is little-endian *by definition*: on a little-endian CPU a
//! section borrow is a pointer cast (validated for alignment and
//! bounds), while a big-endian host transparently falls back to a
//! byte-swapping copy and stays correct.

use std::sync::Arc;

/// A read-only memory mapping of one file.
///
/// Constructed with [`MmapRegion::map_file`]; unmapped on drop. Only
/// shared read-only pages are ever requested, so the region is safe to
/// hand out as `&[u8]` for its whole lifetime.
pub struct MmapRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared bytes,
// no interior mutability; moving or sharing the handle across threads is
// as safe as sharing a `&[u8]`.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion")
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    //! Raw mmap/munmap syscalls for x86_64 Linux (no libc in the tree).

    use std::arch::asm;

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// Map `len` bytes of `fd` read-only. Returns the page-aligned base
    /// or an errno-style `io::Error`.
    pub(super) unsafe fn mmap_read(fd: i32, len: usize) -> std::io::Result<*const u8> {
        let ret: isize;
        asm!(
            "syscall",
            inlateout("rax") SYS_MMAP as isize => ret,
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") PROT_READ,
            in("r10") MAP_PRIVATE,
            in("r8") fd as isize,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        // The kernel signals failure as a return value in [-4095, -1].
        if (-4095..0).contains(&ret) {
            Err(std::io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as *const u8)
        }
    }

    /// Unmap a region previously returned by [`mmap_read`].
    pub(super) unsafe fn munmap(ptr: *const u8, len: usize) {
        let _ret: isize;
        asm!(
            "syscall",
            inlateout("rax") SYS_MUNMAP as isize => _ret,
            in("rdi") ptr,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
}

impl MmapRegion {
    /// Map `file` read-only in its entirety.
    ///
    /// On platforms without the raw-syscall backend (everything except
    /// Linux/x86_64) this returns `ErrorKind::Unsupported`, as it does
    /// for empty files (`mmap` of zero bytes is invalid); callers fall
    /// back to reading the file.
    #[allow(unused_variables)]
    pub fn map_file(file: &std::fs::File) -> std::io::Result<MmapRegion> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            use std::os::unix::io::AsRawFd;
            let len = file.metadata()?.len();
            if len == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "cannot map an empty file",
                ));
            }
            let len = usize::try_from(len).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "file exceeds address space",
                )
            })?;
            // SAFETY: fd is valid for the duration of the call; the
            // kernel validates everything else and reports via errno.
            let ptr = unsafe { sys::mmap_read(file.as_raw_fd(), len)? };
            Ok(MmapRegion { ptr, len })
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "mmap is only wired up on linux/x86_64; use the read path",
            ))
        }
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: ptr/len came from a successful PROT_READ mapping that
        // lives until drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        // SAFETY: exactly the region obtained from mmap_read.
        unsafe {
            sys::munmap(self.ptr, self.len)
        }
    }
}

/// One whole index file as a contiguous byte region, owned or mapped.
///
/// The owned variant keeps the bytes in `u64` storage so the base
/// address is always 8-byte aligned; mapped regions are page-aligned by
/// the kernel. Either way, any 64-byte-aligned section offset inside
/// the region is aligned enough to borrow as `&[u64]`.
#[derive(Debug)]
pub enum IndexBytes {
    /// Bytes read into aligned heap storage (`len` may trail into the
    /// last word's padding).
    Owned {
        /// Backing words; `words.len() * 8 >= len`.
        words: Vec<u64>,
        /// Meaningful byte length.
        len: usize,
    },
    /// A read-only file mapping.
    Mapped(MmapRegion),
}

impl IndexBytes {
    /// Copy a plain byte buffer into aligned owned storage.
    pub fn from_bytes(bytes: &[u8]) -> IndexBytes {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: the u64 vec provides bytes.len() initialised bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                words.as_mut_ptr() as *mut u8,
                bytes.len(),
            );
        }
        IndexBytes::Owned {
            words,
            len: bytes.len(),
        }
    }

    /// Read everything from `r` into aligned owned storage.
    pub fn from_reader<R: std::io::Read>(r: &mut R) -> std::io::Result<IndexBytes> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Ok(IndexBytes::from_bytes(&bytes))
    }

    /// Read a whole file straight into aligned owned storage sized from
    /// its metadata: one buffer and no intermediate copy. A file shorter
    /// than its metadata length by the time it is read is an
    /// `UnexpectedEof` I/O error.
    pub(crate) fn read_file(file: &mut std::fs::File) -> std::io::Result<IndexBytes> {
        use std::io::Read;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "file exceeds address space",
            )
        })?;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the u64 vec owns `words.len() * 8 >= len` initialised
        // bytes, and u8 has no alignment or validity requirements.
        let bytes = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        file.read_exact(bytes)?;
        Ok(IndexBytes::Owned { words, len })
    }

    /// The region's bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            IndexBytes::Owned { words, len } => {
                // SAFETY: words owns at least `len` initialised bytes.
                unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *len) }
            }
            IndexBytes::Mapped(m) => m.as_bytes(),
        }
    }

    /// Byte length of the region.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            IndexBytes::Owned { len, .. } => *len,
            IndexBytes::Mapped(m) => m.len,
        }
    }

    /// True when the region holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bytes are a file mapping (vs owned heap storage).
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self, IndexBytes::Mapped(_))
    }
}

/// Validate that `[byte_off, byte_off + elems * size)` lies inside
/// `base` and starts `size`-aligned (both in offset and in absolute
/// address). Returns false — never panics — on any violation, so a
/// corrupt section table cannot construct an out-of-bounds borrow.
fn borrow_ok(base: &IndexBytes, byte_off: usize, elems: usize, size: usize) -> bool {
    let bytes = base.as_bytes();
    let Some(end) = elems
        .checked_mul(size)
        .and_then(|b| b.checked_add(byte_off))
    else {
        return false;
    };
    end <= bytes.len()
        && byte_off.is_multiple_of(size)
        && (bytes.as_ptr() as usize + byte_off).is_multiple_of(size)
}

macro_rules! typed_store {
    ($name:ident, $elem:ty, $doc:literal) => {
        #[doc = $doc]
        ///
        /// Derefs to a plain slice; constructing a borrowed store
        /// validates bounds and alignment, and on big-endian hosts the
        /// borrow constructor refuses so callers fall back to a
        /// byte-swapping copy (the file bytes are little-endian).
        #[derive(Debug, Clone)]
        pub enum $name {
            /// Heap-owned elements.
            Owned(Vec<$elem>),
            /// A validated view into a shared byte region.
            Borrowed {
                /// The region the elements live in.
                base: Arc<IndexBytes>,
                /// Byte offset of the first element.
                byte_off: usize,
                /// Element count.
                len: usize,
            },
        }

        impl $name {
            /// Borrow `len` elements at `byte_off` of `base`. `None` if
            /// the range is out of bounds, misaligned, or the host is
            /// big-endian (borrowing LE bytes would misread them).
            pub fn borrowed(base: Arc<IndexBytes>, byte_off: usize, len: usize) -> Option<$name> {
                if cfg!(target_endian = "big")
                    || !borrow_ok(&base, byte_off, len, std::mem::size_of::<$elem>())
                {
                    return None;
                }
                Some($name::Borrowed {
                    base,
                    byte_off,
                    len,
                })
            }

            /// Copy `len` elements at `byte_off` of `base` into owned
            /// storage, decoding little-endian (correct on any host).
            /// `None` if the range is out of bounds.
            pub fn copied(base: &IndexBytes, byte_off: usize, len: usize) -> Option<$name> {
                const SIZE: usize = std::mem::size_of::<$elem>();
                let end = len.checked_mul(SIZE)?.checked_add(byte_off)?;
                let bytes = base.as_bytes().get(byte_off..end)?;
                Some($name::Owned(
                    bytes
                        .chunks_exact(SIZE)
                        .map(|c| <$elem>::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                ))
            }

            /// True when the elements borrow a file mapping.
            pub fn is_mapped(&self) -> bool {
                matches!(self, $name::Borrowed { base, .. } if base.is_mapped())
            }
        }

        impl std::ops::Deref for $name {
            type Target = [$elem];

            #[inline]
            fn deref(&self) -> &[$elem] {
                match self {
                    $name::Owned(v) => v,
                    $name::Borrowed {
                        base,
                        byte_off,
                        len,
                    } => {
                        // SAFETY: bounds and alignment were validated by
                        // `borrowed()`; the Arc keeps the region alive for
                        // the borrow's lifetime; the bytes are immutable.
                        unsafe {
                            std::slice::from_raw_parts(
                                base.as_bytes().as_ptr().add(*byte_off) as *const $elem,
                                *len,
                            )
                        }
                    }
                }
            }
        }

        impl From<Vec<$elem>> for $name {
            fn from(v: Vec<$elem>) -> $name {
                $name::Owned(v)
            }
        }
    };
}

typed_store!(
    U64Store,
    u64,
    "Owned-or-borrowed storage for a `u64` array."
);
typed_store!(
    U32Store,
    u32,
    "Owned-or-borrowed storage for a `u32` array."
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_index_bytes_roundtrip() {
        let data: Vec<u8> = (0..100u8).collect();
        let ib = IndexBytes::from_bytes(&data);
        assert_eq!(ib.as_bytes(), &data[..]);
        assert_eq!(ib.len(), 100);
        assert!(!ib.is_mapped());
        // The owned base is always u64-aligned.
        assert_eq!(ib.as_bytes().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn borrowed_store_views_the_bytes() {
        let values = [0x1111_2222_3333_4444u64, 0xaaaa_bbbb_cccc_dddd];
        let mut bytes = vec![0u8; 8]; // one word of padding before the data
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let base = Arc::new(IndexBytes::from_bytes(&bytes));
        let store = U64Store::borrowed(base.clone(), 8, 2).expect("aligned borrow");
        assert_eq!(&*store, &values[..]);
        assert!(matches!(store, U64Store::Borrowed { .. }));
        assert!(!store.is_mapped());
        let copied = U64Store::copied(&base, 8, 2).unwrap();
        assert_eq!(&*copied, &values[..]);
        assert!(matches!(copied, U64Store::Owned(_)));
        // A clone shares the same region.
        let clone = store.clone();
        assert_eq!(&*clone, &values[..]);
    }

    #[test]
    fn borrow_rejects_misaligned_and_out_of_bounds() {
        let base = Arc::new(IndexBytes::from_bytes(&[0u8; 64]));
        assert!(U64Store::borrowed(base.clone(), 4, 1).is_none()); // misaligned
        assert!(U64Store::borrowed(base.clone(), 64, 1).is_none()); // past end
        assert!(U64Store::borrowed(base.clone(), 8, usize::MAX).is_none()); // overflow
        assert!(U32Store::borrowed(base.clone(), 2, 1).is_none()); // misaligned u32
        assert!(U32Store::borrowed(base.clone(), 0, 17).is_none()); // past end
        assert!(U64Store::borrowed(base, 0, 8).is_some());
    }

    #[test]
    fn u32_store_copies_and_borrows() {
        let mut bytes = Vec::new();
        for v in [7u32, 11, 13] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let base = Arc::new(IndexBytes::from_bytes(&bytes));
        let borrowed = U32Store::borrowed(base.clone(), 0, 3).unwrap();
        assert_eq!(&*borrowed, &[7, 11, 13]);
        let copied = U32Store::copied(&base, 4, 2).unwrap();
        assert_eq!(&*copied, &[11, 13]);
        assert!(U32Store::copied(&base, 8, 2).is_none());
    }

    #[test]
    fn mmap_of_real_file_works_or_reports_unsupported() {
        let dir = std::env::temp_dir().join("kmm-mmap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.bin");
        let payload: Vec<u8> = (0..255u8).cycle().take(5000).collect();
        std::fs::write(&path, &payload).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        match MmapRegion::map_file(&file) {
            Ok(region) => {
                assert_eq!(region.as_bytes(), &payload[..]);
                let ib = Arc::new(IndexBytes::Mapped(region));
                assert!(ib.is_mapped());
                // Page alignment makes any 64-aligned offset borrowable.
                let store = U64Store::borrowed(ib, 64, 16).unwrap();
                assert_eq!(store.len(), 16);
                assert!(store.is_mapped());
            }
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::Unsupported),
        }
    }

    #[test]
    fn read_file_fills_one_aligned_buffer() {
        let dir = std::env::temp_dir().join(format!("kmm-mmap-read-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for len in [0usize, 1, 7, 8, 9, 5000] {
            let path = dir.join(format!("read-{len}.bin"));
            let payload: Vec<u8> = (0..=255u8).cycle().take(len).collect();
            std::fs::write(&path, &payload).unwrap();
            let mut file = std::fs::File::open(&path).unwrap();
            let ib = IndexBytes::read_file(&mut file).unwrap();
            assert_eq!(ib.as_bytes(), &payload[..], "len {len}");
            assert!(!ib.is_mapped());
            assert_eq!(ib.as_bytes().as_ptr() as usize % 8, 0);
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn mmap_rejects_empty_files() {
        let dir = std::env::temp_dir().join("kmm-mmap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let file = std::fs::File::open(&path).unwrap();
        assert!(MmapRegion::map_file(&file).is_err());
    }
}
