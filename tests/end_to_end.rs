//! End-to-end pipeline tests: FASTA in, index, batch search, stats out —
//! the full workflow a downstream user would run.

use bwt_kmismatch::{KMismatchIndex, Method, SearchStats};
use kmm_dna::fasta;

#[test]
fn fasta_to_search_pipeline() {
    // Write a small genome as FASTA, read it back, index, search.
    let genome = kmm_dna::genome::markov(5_000, &kmm_dna::genome::MarkovConfig::default(), 21);
    let rec = fasta::FastaRecord {
        id: "chr_test".into(),
        seq: genome.clone(),
    };
    let mut buf = Vec::new();
    fasta::write_fasta(&mut buf, &[rec]).unwrap();

    let parsed = fasta::read_fasta(&buf[..]).unwrap();
    assert_eq!(parsed.len(), 1);
    assert_eq!(parsed[0].seq, genome);

    let index = KMismatchIndex::new(parsed[0].seq.clone());
    let probe = genome[1000..1050].to_vec();
    let hits = index.search(&probe, 0, Method::ALGORITHM_A);
    assert!(hits.occurrences.iter().any(|o| o.position == 1000));
}

#[test]
fn batch_search_over_simulated_reads() {
    let genome = kmm_dna::genome::markov(20_000, &kmm_dna::genome::MarkovConfig::default(), 5);
    let index = KMismatchIndex::new(genome.clone());
    let reads = kmm_dna::paper_reads(&genome, 20, 80, 17);
    let mut stats = SearchStats::default();
    let results: Vec<_> = reads
        .iter()
        .map(|r| {
            let res = index.search(&r.seq, 4, Method::ALGORITHM_A);
            stats.accumulate(&res.stats);
            res.occurrences
        })
        .collect();
    assert_eq!(results.len(), 20);
    let total: usize = results.iter().map(|r| r.len()).sum();
    assert_eq!(stats.occurrences as usize, total);
    // With wgsim's 2% error rate and k = 4, at least three quarters of the
    // 80 bp reads must map back to their origin.
    let recovered = reads
        .iter()
        .zip(&results)
        .filter(|(r, occ)| occ.iter().any(|o| o.position == r.origin))
        .count();
    assert!(recovered >= 15, "only {recovered}/20 reads mapped home");
}

#[test]
fn rebuilding_with_paper_layout_is_equivalent() {
    use bwt_kmismatch::bwt::FmBuildConfig;
    let genome = kmm_dna::genome::uniform(3_000, 9);
    let default_idx = KMismatchIndex::new(genome.clone());
    let paper_idx = KMismatchIndex::with_config(genome.clone(), FmBuildConfig::paper());
    let probe = genome[500..540].to_vec();
    for k in 0..3 {
        assert_eq!(
            default_idx
                .search(&probe, k, Method::ALGORITHM_A)
                .occurrences,
            paper_idx.search(&probe, k, Method::ALGORITHM_A).occurrences
        );
    }
}

#[test]
fn stats_reflect_method_behaviour() {
    let genome = kmm_dna::genome::markov(50_000, &kmm_dna::genome::MarkovConfig::default(), 33);
    let index = KMismatchIndex::new(genome.clone());
    let probe = genome[10_000..10_100].to_vec();

    let a = index.search(&probe, 3, Method::ALGORITHM_A);
    assert!(a.stats.leaves > 0);
    assert!(a.stats.rank_extensions > 0);
    assert!(a.stats.nodes_visited >= a.stats.leaves);

    // Scanning methods report zeroed tree counters.
    let naive = index.search(&probe, 3, Method::Naive);
    assert_eq!(naive.stats.leaves, 0);
    assert_eq!(naive.stats.rank_extensions, 0);
    assert_eq!(naive.occurrences, a.occurrences);
}
