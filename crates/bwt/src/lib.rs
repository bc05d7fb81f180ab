//! # kmm-bwt
//!
//! The Burrows–Wheeler index of Section III: BWT construction from suffix
//! arrays, the rankall occurrence structure (`A_x` arrays of Fig. 2), the
//! `<x, [α, β]>` pair abstraction, and an FM-index offering backward
//! search and sampled-SA `locate`.

pub mod bi;
pub mod bwt;
pub mod fm_index;
pub mod interval;
pub mod limits;
pub mod mmap;
pub mod occ;
pub mod sampled_sa;
pub mod serialize;

pub use bi::{build_mirror, BiFmIndex, BiInterval};
pub use bwt::{bwt, bwt_from_sa, bwt_from_sa_with, inverse_bwt};
pub use fm_index::{FmBuildConfig, FmIndex};
pub use interval::{Interval, Pair};
pub use limits::{check_text_len, TextTooLarge, MAX_TEXT_LEN};
pub use mmap::{IndexBytes, MmapRegion, U32Store, U64Store};
pub use occ::{active_kernel, RankAll};
pub use sampled_sa::{BitRank, SampledSuffixArray};
pub use serialize::{SectionEntry, SectionPayload, SectionTable, SerializeError};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::bwt::{bwt, inverse_bwt};
    use crate::fm_index::{FmBuildConfig, FmIndex};

    fn dna_text() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(1u8..=4, 0..150).prop_map(|mut v| {
            v.push(0);
            v
        })
    }

    proptest! {
        #[test]
        fn bwt_roundtrips(text in dna_text()) {
            let l = bwt(&text, kmm_dna::SIGMA);
            prop_assert_eq!(inverse_bwt(&l, kmm_dna::SIGMA), text);
        }

        #[test]
        fn count_matches_naive(
            text in dna_text(),
            pat in proptest::collection::vec(1u8..=4, 1..6),
        ) {
            let fm = FmIndex::new(&text, FmBuildConfig::default());
            let naive = if pat.len() > text.len() { 0 } else {
                (0..=text.len() - pat.len())
                    .filter(|&i| text[i..i + pat.len()] == pat[..])
                    .count()
            };
            prop_assert_eq!(fm.count(&pat) as usize, naive);
        }

        #[test]
        fn locate_positions_really_match(
            text in dna_text(),
            pat in proptest::collection::vec(1u8..=4, 1..6),
        ) {
            let fm = FmIndex::new(
                &text,
                FmBuildConfig { occ_rate: 4, sa_rate: 4, ..FmBuildConfig::default() },
            );
            let iv = fm.backward_search(&pat);
            for p in fm.locate(iv) {
                let p = p as usize;
                prop_assert!(p + pat.len() <= text.len());
                prop_assert_eq!(&text[p..p + pat.len()], &pat[..]);
            }
        }
    }
}
