//! Vectorized tally kernels for the rank structure, with runtime dispatch.
//!
//! [`count_all`] counts all four 2-bit base codes in a packed `L` payload
//! — the inner loop of [`RankAll::occ_all`](crate::RankAll::occ_all) and
//! therefore of every fused 4-way extension. The scalar kernel decomposes
//! each word into its high/low bit planes and popcounts three plane
//! intersections (`plane_counts`, shared by the scalar and SIMD paths so
//! they cannot drift); the AVX2 kernel does the same plane algebra on
//! 256-bit registers and popcounts them with the classic pshufb
//! nibble-LUT + `psadbw` reduction, four words per step.
//!
//! A rank of one code — [`RankAll::occ`](crate::RankAll::occ) and the LF
//! step behind every `locate` — needs one lane only: `count_code` XORs
//! each word with the code and popcounts the all-zero slots, one
//! popcount per word where `plane_counts` spends four. It is scalar (an
//! LF step scans at most a block) and pinned to `plane_counts` lane by
//! lane by test.
//!
//! Dispatch is decided once per process with
//! `is_x86_feature_detected!("avx2")` and cached; the SIMD path can be
//! disabled for A/B testing either with the `KMM_NO_SIMD=1` environment
//! variable (read once at first use) or in-process via [`force_scalar`]
//! (used by `experiments occbench` to time both kernels in one run). Both
//! kernels are bit-identical by construction and pinned so by proptest.
//!
//! The module also hosts [`prefetch_read`], the software-prefetch hint
//! used to pull the *next* LF-target rank block into cache while the
//! search layer is still working on the current one (a no-op off
//! x86_64).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Symbols stored per `u64` word (2 bits each). Mirrors the layout
/// constant in `occ.rs`; the kernels are expressed in slot units.
const SLOTS_PER_WORD: usize = 32;

/// Every low (even) bit of a word — one bit per 2-bit slot.
pub(crate) const LSB: u64 = 0x5555_5555_5555_5555;

/// In-process override: when set, [`count_all`] takes the scalar kernel
/// even if AVX2 is available. Lets a benchmark time both paths in one
/// process without re-exec'ing under `KMM_NO_SIMD`.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Force (or release) the scalar kernel for this process.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Whether the AVX2 kernel is usable: compiled for x86_64, the CPU
/// reports AVX2, and `KMM_NO_SIMD` is unset/`0`. Decided once.
fn avx2_usable() -> bool {
    static USABLE: OnceLock<bool> = OnceLock::new();
    *USABLE.get_or_init(|| {
        let disabled = std::env::var("KMM_NO_SIMD")
            .map(|v| v != "0")
            .unwrap_or(false);
        if disabled {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// The tally kernel [`count_all`] currently dispatches to: `"avx2"` or
/// `"scalar"`. Reflects [`force_scalar`] as well as feature detection.
pub fn active_kernel() -> &'static str {
    if avx2_usable() && !FORCE_SCALAR.load(Ordering::Relaxed) {
        "avx2"
    } else {
        "scalar"
    }
}

/// Per-code occurrence counts of the 2-bit slots selected by `keep`
/// (a sub-mask of [`LSB`]) in word `w`.
///
/// This is the shared four-code tally: the high/low bit planes of the
/// word are intersected three ways and popcounted, and code 0 falls out
/// of the slot total by subtraction. The scalar loop and the
/// word-at-a-time tail of the AVX2 kernel both reduce to this helper, so
/// a change here changes both in lockstep; the one-code [`code_count`]
/// is pinned to it lane by lane by test.
#[inline(always)]
pub(crate) fn plane_counts(w: u64, keep: u64) -> [u32; 4] {
    let hi = (w >> 1) & keep;
    let lo = w & keep;
    let c3 = (hi & lo).count_ones();
    let c2 = (hi & !lo).count_ones();
    let c1 = (!hi & lo).count_ones();
    [keep.count_ones() - c3 - c2 - c1, c1, c2, c3]
}

/// Occurrences of the 2-bit `code` (0..=3) among the slots of `w`
/// selected by `keep` (a sub-mask of [`LSB`]) — one lane of
/// [`plane_counts`] for one popcount instead of four.
///
/// XOR with `code` copied into every slot zeroes exactly the slots that
/// held it; a slot is zero where both of its bits are, which
/// `!(x | x >> 1)` reports on the slot's low bit.
#[inline(always)]
pub(crate) fn code_count(w: u64, code: u8, keep: u64) -> u32 {
    let x = w ^ (LSB * code as u64);
    (!(x | x >> 1) & keep).count_ones()
}

/// Occurrences of the 2-bit `code` in slots `[0, end)` of `payload`:
/// the one-code tally behind `RankAll::occ` and `RankAll::symbol_occ`,
/// equal to `count_all_scalar`'s lane `code` on every input.
#[inline]
pub(crate) fn count_code(payload: &[u64], end: usize, code: u8) -> u32 {
    let (last_word, last_slot) = (end / SLOTS_PER_WORD, end % SLOTS_PER_WORD);
    let mut n = 0;
    for &w in &payload[..last_word] {
        n += code_count(w, code, LSB);
    }
    if last_slot != 0 {
        n += code_count(payload[last_word], code, tail_keep(last_slot));
    }
    n
}

/// Keep-mask selecting slots `[0, end_slot)` of a word (`end_slot` in
/// `1..=32`); `end_slot == 32` keeps the whole word.
#[inline(always)]
pub(crate) fn tail_keep(end_slot: usize) -> u64 {
    debug_assert!((1..=SLOTS_PER_WORD).contains(&end_slot));
    if end_slot == SLOTS_PER_WORD {
        LSB
    } else {
        LSB & ((1u64 << (2 * end_slot)) - 1)
    }
}

/// Scalar reference kernel: add the per-code counts of slots `[0, end)`
/// of `payload` into `counts`.
#[inline]
pub fn count_all_scalar(payload: &[u64], end: usize, counts: &mut [u32; 4]) {
    let (last_word, last_slot) = (end / SLOTS_PER_WORD, end % SLOTS_PER_WORD);
    for &w in &payload[..last_word] {
        let c = plane_counts(w, LSB);
        for (acc, add) in counts.iter_mut().zip(c) {
            *acc += add;
        }
    }
    if last_slot != 0 {
        let c = plane_counts(payload[last_word], tail_keep(last_slot));
        for (acc, add) in counts.iter_mut().zip(c) {
            *acc += add;
        }
    }
}

/// Add the per-code occurrence counts of slots `[0, end)` of `payload`
/// into `counts`, dispatching to the best kernel for this CPU.
///
/// Bit-identical to [`count_all_scalar`] on every input; the AVX2 path
/// only engages when at least four whole words are in range (below that
/// the setup cost outweighs the win — at the default checkpoint rate 64
/// a block payload is two words and stays scalar).
#[inline]
pub fn count_all(payload: &[u64], end: usize, counts: &mut [u32; 4]) {
    #[cfg(target_arch = "x86_64")]
    {
        if end / SLOTS_PER_WORD >= 4 && avx2_usable() && !FORCE_SCALAR.load(Ordering::Relaxed) {
            // SAFETY: avx2_usable() verified the avx2 feature at runtime.
            unsafe { count_all_avx2(payload, end, counts) };
            return;
        }
    }
    count_all_scalar(payload, end, counts)
}

/// AVX2 kernel: identical plane algebra on 256-bit registers, four
/// packed words per step, popcounted via the pshufb nibble LUT and
/// accumulated with `psadbw` into four u64 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_all_avx2(payload: &[u64], end: usize, counts: &mut [u32; 4]) {
    use core::arch::x86_64::*;
    let (last_word, last_slot) = (end / SLOTS_PER_WORD, end % SLOTS_PER_WORD);
    let whole = &payload[..last_word];
    let lsb = _mm256_set1_epi64x(LSB as i64);
    // Nibble popcount LUT, replicated per 128-bit lane for pshufb.
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_nibble = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    // Popcount of every byte of `m`, summed per 64-bit lane.
    let popcnt_lanes = |m: __m256i| -> __m256i {
        let lo = _mm256_and_si256(m, low_nibble);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(m), low_nibble);
        let per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(per_byte, zero)
    };
    let mut acc1 = zero;
    let mut acc2 = zero;
    let mut acc3 = zero;
    let mut i = 0usize;
    while i + 4 <= whole.len() {
        let w = _mm256_loadu_si256(whole.as_ptr().add(i) as *const __m256i);
        let hi = _mm256_and_si256(_mm256_srli_epi64::<1>(w), lsb);
        let lo = _mm256_and_si256(w, lsb);
        // Same three plane intersections as `plane_counts`.
        acc3 = _mm256_add_epi64(acc3, popcnt_lanes(_mm256_and_si256(hi, lo)));
        acc2 = _mm256_add_epi64(acc2, popcnt_lanes(_mm256_andnot_si256(lo, hi)));
        acc1 = _mm256_add_epi64(acc1, popcnt_lanes(_mm256_andnot_si256(hi, lo)));
        i += 4;
    }
    let hsum = |v: __m256i| -> u32 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as u32
    };
    let mut c = [0u32, hsum(acc1), hsum(acc2), hsum(acc3)];
    // Code 0 of the vectorized span by subtraction from the slot total.
    c[0] = (i * SLOTS_PER_WORD) as u32 - c[1] - c[2] - c[3];
    // Word-at-a-time remainder through the shared scalar tally.
    for &w in &whole[i..] {
        let add = plane_counts(w, LSB);
        for (acc, a) in c.iter_mut().zip(add) {
            *acc += a;
        }
    }
    if last_slot != 0 {
        let add = plane_counts(payload[last_word], tail_keep(last_slot));
        for (acc, a) in c.iter_mut().zip(add) {
            *acc += a;
        }
    }
    for (out, add) in counts.iter_mut().zip(c) {
        *out += add;
    }
}

/// Hint the CPU to pull the cache line at `ptr` into cache for a read.
/// A correctness no-op everywhere: on x86_64 it issues `prefetcht0`, on
/// other targets it compiles to nothing.
#[inline(always)]
pub fn prefetch_read(ptr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch never faults, even on invalid addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(payload: &[u64], end: usize) -> [u32; 4] {
        let mut c = [0u32; 4];
        for i in 0..end {
            let code = (payload[i / SLOTS_PER_WORD] >> ((i % SLOTS_PER_WORD) * 2)) & 0b11;
            c[code as usize] += 1;
        }
        c
    }

    #[test]
    fn plane_counts_matches_naive_per_word() {
        for w in [0u64, u64::MAX, 0x1b1b_1b1b_1b1b_1b1b, 0xdead_beef_cafe_f00d] {
            let got = plane_counts(w, LSB);
            assert_eq!(got, naive(&[w], 32), "word {w:#x}");
            // Partial keeps agree with truncated naive counts, and so
            // does the one-code tally of every code.
            for end in 1..=32usize {
                let expect = naive(&[w], end);
                assert_eq!(plane_counts(w, tail_keep(end)), expect);
                for code in 0..4u8 {
                    assert_eq!(
                        code_count(w, code, tail_keep(end)),
                        expect[code as usize],
                        "word {w:#x} end {end} code {code}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Dispatch, forced-scalar, the reference scalar kernel and the
        /// one-code tally of each code all agree with a slot-by-slot
        /// count at every boundary — including spans long enough to
        /// engage the AVX2 path.
        #[test]
        fn kernels_are_bit_identical(
            payload in proptest::collection::vec(any::<u64>(), 1..24),
            end_sel in any::<u32>(),
        ) {
            let slots = payload.len() * SLOTS_PER_WORD;
            let end = end_sel as usize % (slots + 1);
            let expect = naive(&payload, end);

            let mut scalar = [0u32; 4];
            count_all_scalar(&payload, end, &mut scalar);
            prop_assert_eq!(scalar, expect);

            let mut dispatched = [0u32; 4];
            count_all(&payload, end, &mut dispatched);
            prop_assert_eq!(dispatched, expect);

            force_scalar(true);
            let mut forced = [0u32; 4];
            count_all(&payload, end, &mut forced);
            force_scalar(false);
            prop_assert_eq!(forced, expect);

            let one_code: [u32; 4] = std::array::from_fn(|code| count_code(&payload, end, code as u8));
            prop_assert_eq!(one_code, expect);
        }
    }

    #[test]
    fn accumulates_into_existing_counts() {
        let payload = vec![0x1b_u64; 8]; // codes 3,2,1,0 repeating
        let mut counts = [100u32, 200, 300, 400];
        count_all(&payload, 8 * SLOTS_PER_WORD, &mut counts);
        let mut expect = naive(&payload, 8 * SLOTS_PER_WORD);
        for (e, base) in expect.iter_mut().zip([100, 200, 300, 400]) {
            *e += base;
        }
        assert_eq!(counts, expect);
    }

    #[test]
    fn active_kernel_reflects_force_scalar() {
        let idle = active_kernel();
        assert!(idle == "avx2" || idle == "scalar");
        force_scalar(true);
        assert_eq!(active_kernel(), "scalar");
        force_scalar(false);
        assert_eq!(active_kernel(), idle);
    }

    #[test]
    fn prefetch_is_callable_on_any_pointer() {
        let v = [0u8; 64];
        prefetch_read(v.as_ptr());
        prefetch_read(std::ptr::null());
    }
}
