//! Synthetic genome generation.
//!
//! The paper evaluates on five reference genomes (Table 1) obtained from a
//! biological project at the University of Manitoba. Those assemblies are
//! not redistributable here, so this module synthesises stand-ins whose
//! *statistical* structure — alphabet, GC bias, local correlation, and
//! repeat content — drives the same index behaviour (S-tree/M-tree
//! branching, rankall access patterns). See DESIGN.md §3.
//!
//! Three generators are provided, in increasing realism:
//! * [`uniform`] — i.i.d. bases, the worst case for repeat-driven methods;
//! * [`gc_biased`] — i.i.d. with a target GC fraction;
//! * [`markov`] — an order-`K` Markov chain with seeded tandem and
//!   interspersed repeats, the default for all experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alphabet::BASE_CODES;

/// Draw `len` i.i.d. uniform bases.
pub fn uniform(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| BASE_CODES[rng.gen_range(0..4usize)])
        .collect()
}

/// Draw `len` i.i.d. bases with the given GC fraction (`0.0..=1.0`),
/// split evenly between `g`/`c` and between `a`/`t`.
pub fn gc_biased(len: usize, gc: f64, seed: u64) -> Vec<u8> {
    assert!((0.0..=1.0).contains(&gc), "gc fraction must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(gc) {
                if rng.gen_bool(0.5) {
                    2
                } else {
                    3
                } // c or g
            } else if rng.gen_bool(0.5) {
                1 // a
            } else {
                4 // t
            }
        })
        .collect()
}

/// Configuration for the Markov-chain generator.
#[derive(Debug, Clone)]
pub struct MarkovConfig {
    /// Order of the chain (context length). 3 mimics codon-scale structure.
    pub order: usize,
    /// Dirichlet-style concentration: smaller values make contexts more
    /// deterministic (more repetitive output). Typical range 0.2..2.0.
    pub concentration: f64,
    /// Fraction of the output produced by copy-pasting earlier material
    /// (interspersed repeats), e.g. 0.05 for 5 %.
    pub repeat_fraction: f64,
    /// Mean length of a pasted repeat.
    pub repeat_len: usize,
    /// Per-base substitution rate applied to pasted repeats so copies are
    /// near-identical rather than exact (mimicking repeat-family decay).
    pub repeat_divergence: f64,
    /// Fraction of the output made of tandem repeats (microsatellites /
    /// short tandem repeats with units of 1-6 bp). Real mammalian
    /// assemblies carry ~3 %; tandem structure is what produces the
    /// repeated `<x, [α, β]>` pairs Algorithm A's hash table exploits.
    pub tandem_fraction: f64,
    /// Mean total length of one tandem stretch.
    pub tandem_len: usize,
}

impl Default for MarkovConfig {
    fn default() -> Self {
        // Mammalian assemblies (the paper's Rat / Zebrafish targets) are
        // 40-50 % repetitive; the repeat knobs default to that regime
        // because repeat content is what drives index-search behaviour.
        MarkovConfig {
            order: 3,
            concentration: 0.8,
            repeat_fraction: 0.40,
            repeat_len: 400,
            repeat_divergence: 0.03,
            tandem_fraction: 0.03,
            tandem_len: 120,
        }
    }
}

/// Generate a genome from an order-`K` Markov chain with seeded repeats.
///
/// The transition table is itself drawn from the seed, so different seeds
/// give statistically different "species" while the same seed is fully
/// reproducible.
pub fn markov(len: usize, config: &MarkovConfig, seed: u64) -> Vec<u8> {
    assert!(
        config.order >= 1 && config.order <= 8,
        "order must be in 1..=8"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let contexts = 4usize.pow(config.order as u32);

    // Per-context transition distributions as cumulative weights.
    let mut table = Vec::with_capacity(contexts);
    for _ in 0..contexts {
        let mut w = [0f64; 4];
        let mut total = 0.0;
        for slot in w.iter_mut() {
            // Exponential draws scaled by the concentration parameter give a
            // cheap Dirichlet-like sample: low concentration => spiky rows.
            let e: f64 = -(rng.gen_range(1e-9..1.0f64)).ln();
            *slot = e.powf(1.0 / config.concentration.max(1e-3));
            total += *slot;
        }
        let mut cum = [0f64; 4];
        let mut acc = 0.0;
        for i in 0..4 {
            acc += w[i] / total;
            cum[i] = acc;
        }
        cum[3] = 1.0;
        table.push(cum);
    }

    let mut out: Vec<u8> = Vec::with_capacity(len);
    // Warm-up context: uniform bases.
    for _ in 0..config.order.min(len) {
        out.push(BASE_CODES[rng.gen_range(0..4usize)]);
    }

    let mut ctx = context_of(&out, config.order);
    while out.len() < len {
        // Occasionally emit a tandem stretch (microsatellite).
        if config.tandem_fraction > 0.0
            && rng.gen_bool((config.tandem_fraction / config.tandem_len.max(1) as f64).min(1.0))
        {
            let unit_len = rng.gen_range(1..=6usize);
            let unit: Vec<u8> = (0..unit_len)
                .map(|_| BASE_CODES[rng.gen_range(0..4usize)])
                .collect();
            let total = (config.tandem_len / 2 + rng.gen_range(0..config.tandem_len.max(1)))
                .min(len - out.len());
            for p in 0..total {
                let mut b = unit[p % unit_len];
                // Rare slips keep the stretch near- rather than perfectly
                // periodic, as in real STRs.
                if rng.gen_bool(0.01) {
                    b = BASE_CODES[rng.gen_range(0..4usize)];
                }
                out.push(b);
            }
            ctx = context_of(&out, config.order);
            continue;
        }
        // Occasionally paste a (slightly mutated) copy of earlier material.
        if config.repeat_fraction > 0.0
            && out.len() > 4 * config.repeat_len
            && rng.gen_bool((config.repeat_fraction / config.repeat_len.max(1) as f64).min(1.0))
        {
            let rl = (config.repeat_len / 2) + rng.gen_range(0..config.repeat_len.max(1));
            let rl = rl.min(len - out.len()).max(1);
            let src = rng.gen_range(0..out.len() - rl.min(out.len() - 1));
            for p in 0..rl {
                let mut b = out[src + p];
                if rng.gen_bool(config.repeat_divergence) {
                    b = BASE_CODES[rng.gen_range(0..4usize)];
                }
                out.push(b);
            }
            ctx = context_of(&out, config.order);
            continue;
        }

        let u: f64 = rng.gen();
        let cum = &table[ctx];
        let next = cum.iter().position(|&c| u <= c).unwrap_or(3);
        out.push(BASE_CODES[next]);
        ctx = ((ctx * 4) + next) % contexts;
    }
    out.truncate(len);
    out
}

fn context_of(seq: &[u8], order: usize) -> usize {
    let mut ctx = 0usize;
    for &b in seq
        .iter()
        .rev()
        .take(order)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        ctx = ctx * 4 + (*b as usize - 1);
    }
    ctx % 4usize.pow(order as u32)
}

/// One of the paper's five evaluation genomes, scaled ~1:100 (DESIGN.md §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReferenceGenome {
    /// Stand-in for Rat (Rnor_6.0), 2,909,701,677 bp → 29 Mbp.
    Rat,
    /// Stand-in for Zebrafish (GRCz10), 1,464,443,456 bp → 14.6 Mbp.
    Zebrafish,
    /// Stand-in for Rat chr1 (Rnor_6.0), 290,094,217 bp → 2.9 Mbp.
    RatChr1,
    /// Stand-in for C. elegans (WBcel235), 100,286,119 bp → 1.0 Mbp.
    CElegans,
    /// Stand-in for C. merolae (ASM9120v1), 16,728,967 bp → 167 Kbp.
    CMerolae,
}

impl ReferenceGenome {
    /// All five genomes in the paper's Table 1 order.
    pub const ALL: [ReferenceGenome; 5] = [
        ReferenceGenome::Rat,
        ReferenceGenome::Zebrafish,
        ReferenceGenome::RatChr1,
        ReferenceGenome::CElegans,
        ReferenceGenome::CMerolae,
    ];

    /// Display name matching the paper's Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            ReferenceGenome::Rat => "Rat (Rnor_6.0)",
            ReferenceGenome::Zebrafish => "Zebra fish (GRCz10)",
            ReferenceGenome::RatChr1 => "Rat chr1 (Rnor_6.0)",
            ReferenceGenome::CElegans => "C. elegans (WBcel235)",
            ReferenceGenome::CMerolae => "C. merolae (ASM9120v1)",
        }
    }

    /// The original assembly size reported in the paper's Table 1 (bp).
    pub fn paper_size(&self) -> u64 {
        match self {
            ReferenceGenome::Rat => 2_909_701_677,
            ReferenceGenome::Zebrafish => 1_464_443_456,
            ReferenceGenome::RatChr1 => 290_094_217,
            ReferenceGenome::CElegans => 100_286_119,
            ReferenceGenome::CMerolae => 16_728_967,
        }
    }

    /// The scaled size we synthesise (≈ paper size / 100).
    pub fn scaled_size(&self) -> usize {
        match self {
            ReferenceGenome::Rat => 29_000_000,
            ReferenceGenome::Zebrafish => 14_600_000,
            ReferenceGenome::RatChr1 => 2_900_000,
            ReferenceGenome::CElegans => 1_000_000,
            ReferenceGenome::CMerolae => 167_000,
        }
    }

    /// Deterministic per-genome RNG seed.
    pub fn seed(&self) -> u64 {
        match self {
            ReferenceGenome::Rat => 0x5261_7401,
            ReferenceGenome::Zebrafish => 0x5a65_6272,
            ReferenceGenome::RatChr1 => 0x5261_7443,
            ReferenceGenome::CElegans => 0x456c_6567,
            ReferenceGenome::CMerolae => 0x4d65_726c,
        }
    }

    /// Approximate GC fraction of the real assembly, reproduced in the
    /// synthetic stand-in via the Markov table bias.
    pub fn gc(&self) -> f64 {
        match self {
            ReferenceGenome::Rat => 0.42,
            ReferenceGenome::Zebrafish => 0.37,
            ReferenceGenome::RatChr1 => 0.42,
            ReferenceGenome::CElegans => 0.35,
            ReferenceGenome::CMerolae => 0.55,
        }
    }

    /// Synthesise this genome at full scaled size.
    pub fn generate(&self) -> Vec<u8> {
        self.generate_scaled(1.0)
    }

    /// Synthesise with an additional scale factor (e.g. 0.1 for quick
    /// benches). `scale` multiplies the scaled size.
    pub fn generate_scaled(&self, scale: f64) -> Vec<u8> {
        let len = ((self.scaled_size() as f64 * scale) as usize).max(1000);
        markov(len, &MarkovConfig::default(), self.seed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::gc_content;

    #[test]
    fn uniform_is_deterministic_and_valid() {
        let a = uniform(1000, 7);
        let b = uniform(1000, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&c| (1..=4).contains(&c)));
        let c = uniform(1000, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_is_roughly_balanced() {
        let g = uniform(40_000, 1);
        let gc = gc_content(&g);
        assert!((gc - 0.5).abs() < 0.02, "gc = {gc}");
    }

    #[test]
    fn gc_biased_hits_target() {
        let g = gc_biased(40_000, 0.7, 2);
        let gc = gc_content(&g);
        assert!((gc - 0.7).abs() < 0.02, "gc = {gc}");
    }

    #[test]
    #[should_panic(expected = "gc fraction")]
    fn gc_biased_rejects_bad_fraction() {
        gc_biased(10, 1.5, 0);
    }

    #[test]
    fn markov_basic_properties() {
        let cfg = MarkovConfig::default();
        let g = markov(20_000, &cfg, 42);
        assert_eq!(g.len(), 20_000);
        assert!(g.iter().all(|&c| (1..=4).contains(&c)));
        // Deterministic per seed.
        assert_eq!(g, markov(20_000, &cfg, 42));
        assert_ne!(g, markov(20_000, &cfg, 43));
    }

    #[test]
    fn markov_with_repeats_is_more_compressible_than_uniform() {
        // Repeat seeding should create duplicated 16-mers well above the
        // uniform baseline.
        let cfg = MarkovConfig {
            repeat_fraction: 0.3,
            ..MarkovConfig::default()
        };
        let m = markov(60_000, &cfg, 5);
        let u = uniform(60_000, 5);
        let dup = |s: &[u8]| {
            use std::collections::HashSet;
            let mut seen = HashSet::new();
            let mut dups = 0usize;
            for w in s.windows(16) {
                if !seen.insert(w.to_vec()) {
                    dups += 1;
                }
            }
            dups
        };
        assert!(
            dup(&m) > dup(&u),
            "markov {} vs uniform {}",
            dup(&m),
            dup(&u)
        );
    }

    #[test]
    fn markov_short_output() {
        let cfg = MarkovConfig::default();
        let g = markov(2, &cfg, 1);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn tandem_fraction_produces_periodic_stretches() {
        let cfg = MarkovConfig {
            tandem_fraction: 0.3,
            tandem_len: 100,
            ..Default::default()
        };
        let g = markov(50_000, &cfg, 13);
        // Count positions inside a period-<=6 stretch of length >= 30.
        let mut periodic = 0usize;
        let mut i = 0;
        while i + 30 < g.len() {
            let mut found = false;
            for p in 1..=6usize {
                if (0..30 - p).all(|q| g[i + q] == g[i + q + p]) {
                    found = true;
                    break;
                }
            }
            if found {
                periodic += 1;
                i += 10;
            } else {
                i += 1;
            }
        }
        assert!(
            periodic > 100,
            "expected tandem stretches, found {periodic} windows"
        );
        // Disabling the knob removes them almost entirely.
        let cfg0 = MarkovConfig {
            tandem_fraction: 0.0,
            repeat_fraction: 0.0,
            ..Default::default()
        };
        let g0 = markov(50_000, &cfg0, 13);
        let mut periodic0 = 0usize;
        let mut i = 0;
        while i + 30 < g0.len() {
            let mut found = false;
            for p in 1..=6usize {
                if (0..30 - p).all(|q| g0[i + q] == g0[i + q + p]) {
                    found = true;
                    break;
                }
            }
            if found {
                periodic0 += 1;
                i += 10;
            } else {
                i += 1;
            }
        }
        // A spiky Markov table produces some natural periodicity; the
        // tandem knob must add substantially more.
        assert!(
            periodic0 * 2 < periodic,
            "baseline {periodic0} vs tandem {periodic}"
        );
    }

    #[test]
    fn reference_genomes_are_consistent() {
        for g in ReferenceGenome::ALL {
            assert!(g.paper_size() > 0);
            assert!(g.scaled_size() > 0);
            assert!(!g.name().is_empty());
            // Scale ratio is about 1:100.
            let ratio = g.paper_size() as f64 / g.scaled_size() as f64;
            assert!(
                (50.0..200.0).contains(&ratio),
                "{}: ratio {ratio}",
                g.name()
            );
        }
    }

    #[test]
    fn reference_genome_generation_scales() {
        let g = ReferenceGenome::CMerolae.generate_scaled(0.1);
        assert_eq!(g.len(), 16_700);
        assert!(g.iter().all(|&c| (1..=4).contains(&c)));
    }
}
