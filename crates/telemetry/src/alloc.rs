//! Heap accounting: a counting [`GlobalAlloc`] wrapper and per-phase
//! attribution.
//!
//! [`CountingAlloc`] wraps the system allocator and maintains process
//! totals (live bytes, peak live bytes) plus a coarse per-phase ledger:
//! the binary marks what it is doing ([`MemPhase::Build`], `Load`,
//! `Search`, `Serve`) with [`phase_scope`], and every allocation is
//! charged to the phase active on *any* thread at that moment (the
//! phase register is a single process-wide atomic — the CLI's phases
//! are serial, and serve marks the whole daemon lifetime).
//!
//! Counting happens only in binaries that register the wrapper; in any
//! other process nothing feeds the ledgers and every query here reports
//! zeros with `enabled == false`, so call sites need no `cfg` of their
//! own — the API is Noop-compatible the same way
//! [`crate::NoopRecorder`] is. Binaries opt in by registering
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: kmm_telemetry::CountingAlloc = kmm_telemetry::CountingAlloc;
//! ```
//!
//! The hooks touch only relaxed atomics (no locks, no allocation), so
//! they are safe inside the allocator and cost a few nanoseconds per
//! malloc — and search results are bit-identical with or without the
//! wrapper, which `tests/telemetry.rs` pins.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// What the process is doing, for charging allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemPhase {
    /// Startup, argument parsing, anything unmarked.
    Other,
    /// Index construction (`kmm index`, in-process builds).
    Build,
    /// Index deserialisation from disk.
    Load,
    /// Query execution (search / map batches).
    Search,
    /// Daemon lifetime (`kmm serve`).
    Serve,
}

impl MemPhase {
    pub const COUNT: usize = 5;
    pub const ALL: [MemPhase; MemPhase::COUNT] = [
        MemPhase::Other,
        MemPhase::Build,
        MemPhase::Load,
        MemPhase::Search,
        MemPhase::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MemPhase::Other => "other",
            MemPhase::Build => "build",
            MemPhase::Load => "load",
            MemPhase::Search => "search",
            MemPhase::Serve => "serve",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static PHASE: AtomicUsize = AtomicUsize::new(0);
static PHASE_BYTES: [AtomicU64; MemPhase::COUNT] = [const { AtomicU64::new(0) }; MemPhase::COUNT];
static PHASE_ALLOCS: [AtomicU64; MemPhase::COUNT] = [const { AtomicU64::new(0) }; MemPhase::COUNT];
static PHASE_PEAK: [AtomicU64; MemPhase::COUNT] = [const { AtomicU64::new(0) }; MemPhase::COUNT];

/// System-allocator wrapper that counts every allocated and freed byte.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

#[inline]
fn on_alloc(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    let phase = PHASE.load(Ordering::Relaxed).min(MemPhase::COUNT - 1);
    PHASE_BYTES[phase].fetch_add(bytes, Ordering::Relaxed);
    PHASE_ALLOCS[phase].fetch_add(1, Ordering::Relaxed);
    PHASE_PEAK[phase].fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn on_dealloc(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        p
    }
}

/// Switch the process-wide charge phase, returning the previous one.
pub fn set_phase(phase: MemPhase) -> MemPhase {
    let prev = PHASE.swap(phase.index(), Ordering::Relaxed);
    MemPhase::ALL[prev.min(MemPhase::COUNT - 1)]
}

/// RAII guard restoring the previous charge phase on drop.
#[must_use = "the phase reverts when the guard drops"]
#[derive(Debug)]
pub struct PhaseGuard {
    prev: MemPhase,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        set_phase(self.prev);
    }
}

/// Charge allocations to `phase` until the returned guard drops.
pub fn phase_scope(phase: MemPhase) -> PhaseGuard {
    PhaseGuard {
        prev: set_phase(phase),
    }
}

/// Ledger for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemPhaseStats {
    /// Total bytes allocated while the phase was active (gross, not
    /// net: frees are not subtracted per phase).
    pub allocated_bytes: u64,
    /// Number of allocations charged to the phase.
    pub allocations: u64,
    /// Highest process-wide live-byte watermark seen while active.
    pub peak_live_bytes: u64,
}

/// Snapshot of the allocator's ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Whether a [`CountingAlloc`] is registered (inferred: a tracked
    /// process has allocated).
    pub enabled: bool,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// Highest live-byte watermark since process start.
    pub peak_bytes: u64,
    /// Per-phase ledgers, indexed like [`MemPhase::ALL`].
    pub phases: [MemPhaseStats; MemPhase::COUNT],
}

impl MemStats {
    pub fn phase(&self, phase: MemPhase) -> &MemPhaseStats {
        &self.phases[phase.index()]
    }
}

/// Read the current ledgers.
pub fn mem_stats() -> MemStats {
    let peak = PEAK.load(Ordering::Relaxed);
    MemStats {
        enabled: peak > 0,
        live_bytes: LIVE.load(Ordering::Relaxed),
        peak_bytes: peak,
        phases: std::array::from_fn(|i| MemPhaseStats {
            allocated_bytes: PHASE_BYTES[i].load(Ordering::Relaxed),
            allocations: PHASE_ALLOCS[i].load(Ordering::Relaxed),
            peak_live_bytes: PHASE_PEAK[i].load(Ordering::Relaxed),
        }),
    }
}

/// Render bytes at a human scale (B/KiB/MiB/GiB).
pub fn fmt_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b < KIB {
        format!("{bytes}B")
    } else if b < KIB * KIB {
        format!("{:.1}KiB", b / KIB)
    } else if b < KIB * KIB * KIB {
        format!("{:.1}MiB", b / (KIB * KIB))
    } else {
        format!("{:.2}GiB", b / (KIB * KIB * KIB))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_scope_nests_and_restores() {
        set_phase(MemPhase::Other);
        {
            let _build = phase_scope(MemPhase::Build);
            assert_eq!(set_phase(MemPhase::Build), MemPhase::Build);
            {
                let _search = phase_scope(MemPhase::Search);
                assert_eq!(set_phase(MemPhase::Search), MemPhase::Search);
            }
            assert_eq!(set_phase(MemPhase::Build), MemPhase::Build);
        }
        assert_eq!(set_phase(MemPhase::Other), MemPhase::Other);
    }

    #[test]
    fn mem_stats_reads_every_phase() {
        // The test binary does not register CountingAlloc; the snapshot
        // must still be readable and indexable by every phase. (No
        // cross-ledger invariants asserted here: a sibling test drives
        // the hooks concurrently.)
        let stats = mem_stats();
        for phase in MemPhase::ALL {
            let _ = stats.phase(phase);
        }
    }

    #[test]
    fn counting_hooks_balance() {
        // Drive the hooks directly (registration is the binary's call).
        let base = LIVE.load(Ordering::Relaxed);
        on_alloc(1024);
        on_alloc(512);
        on_dealloc(512);
        assert_eq!(LIVE.load(Ordering::Relaxed), base + 1024);
        assert!(PEAK.load(Ordering::Relaxed) >= base + 1536);
        on_dealloc(1024);
        assert_eq!(LIVE.load(Ordering::Relaxed), base);
    }

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MiB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024 * 1024), "5.00GiB");
    }

    #[test]
    fn phase_names_are_distinct() {
        let mut names: Vec<&str> = MemPhase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MemPhase::COUNT);
    }
}
