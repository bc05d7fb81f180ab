//! Deadline semantics end to end: a generous budget reproduces the
//! no-deadline results bit for bit, a zero budget truncates immediately
//! for every method, and a ~1 ms budget stops an adversarial k=8 query
//! on repetitive text quickly instead of running to exhaustion.

use std::time::{Duration, Instant};

use bwt_kmismatch::core::{CancelToken, MapperConfig, Outcome, ReadMapper};
use bwt_kmismatch::dna::genome::{markov, MarkovConfig};
use bwt_kmismatch::par::ThreadPool;
use bwt_kmismatch::telemetry::NoopRecorder;
use bwt_kmismatch::{KMismatchIndex, Method};

/// Every method configuration the index serves.
const METHODS: [Method; 10] = [
    Method::ALGORITHM_A,
    Method::AlgorithmA { reuse: false },
    Method::Bwt { use_phi: true },
    Method::Bwt { use_phi: false },
    Method::Naive,
    Method::Kangaroo,
    Method::Amir,
    Method::Cole,
    Method::SeedFilter,
    Method::Bidirectional,
];

const GENEROUS: Duration = Duration::from_secs(600);

fn plain_index() -> KMismatchIndex {
    KMismatchIndex::new(markov(12_000, &MarkovConfig::default(), 11))
}

/// Low-entropy text: long A-runs with sparse substitutions, the worst
/// case for mismatch-tolerant search (every window is a near-match).
fn repetitive_index() -> KMismatchIndex {
    // Base codes are 1..=4 (0 is the sentinel).
    let mut text = vec![1u8; 60_000];
    for i in (0..text.len()).step_by(151) {
        text[i] = 2 + ((i / 151) % 3) as u8;
    }
    KMismatchIndex::new(text)
}

/// A generous budget must reproduce the no-deadline answer exactly —
/// occurrences and stats — for every method, through the single-query,
/// batch and mapper cores alike.
#[test]
fn generous_deadline_is_bit_identical_to_no_deadline() {
    let idx = plain_index();
    let pattern = idx.text()[700..760].to_vec();
    let patterns: Vec<Vec<u8>> = (0..6)
        .map(|i| idx.text()[500 + 1_000 * i..540 + 1_000 * i].to_vec())
        .collect();
    let read = idx.text()[300..400].to_vec();
    let pool = ThreadPool::new(2);
    for method in METHODS {
        let label = method.label();
        let token = CancelToken::with_deadline(GENEROUS);
        let outcome = idx.search_with(&pattern, 3, method, Some(&token), &NoopRecorder);
        assert!(
            !outcome.is_truncated(),
            "{label} truncated under a 600 s budget"
        );
        assert_eq!(
            outcome.into_inner(),
            idx.search(&pattern, 3, method),
            "{label}"
        );

        let (outcomes, stats) =
            idx.search_batch_with(&patterns, 2, method, &pool, Some(GENEROUS), &NoopRecorder);
        assert!(!outcomes.iter().any(Outcome::is_truncated), "{label} batch");
        let got: Vec<_> = outcomes.into_iter().map(Outcome::into_inner).collect();
        assert_eq!(
            (got, stats),
            idx.search_batch_par(&patterns, 2, method, &pool),
            "{label} batch"
        );

        let mapper = ReadMapper::new(
            &idx,
            MapperConfig {
                k: 2,
                both_strands: true,
                method,
            },
        );
        let token = CancelToken::with_deadline(GENEROUS);
        let report = mapper.map_with(&read, Some(&token), &NoopRecorder);
        assert!(!report.is_truncated(), "{label} map");
        assert_eq!(report.into_inner(), mapper.map(&read), "{label} map");
    }
}

#[test]
fn zero_budget_truncates_every_method() {
    let idx = plain_index();
    let pattern = idx.text()[700..760].to_vec();
    for method in METHODS {
        let token = CancelToken::with_deadline(Duration::ZERO);
        let outcome = idx.search_with(&pattern, 3, method, Some(&token), &NoopRecorder);
        assert!(
            outcome.is_truncated(),
            "{} ignored an already-expired deadline",
            method.label()
        );
        assert_eq!(outcome.value().stats.timeouts, 1, "{}", method.label());
    }
}

#[test]
fn adversarial_query_stops_quickly_under_tiny_budget() {
    let idx = repetitive_index();
    // Repetitive pattern + k=8 on low-entropy text: the search space is
    // enormous (nearly every alignment is within 8 mismatches), and
    // single leaves are wide, so locating them must poll the budget too.
    let pattern = idx.text()[1000..1064].to_vec();
    let k = 8;

    for method in [Method::ALGORITHM_A, Method::Bidirectional] {
        let label = method.label();
        let token = CancelToken::with_deadline(Duration::from_millis(1));
        let start = Instant::now();
        let outcome = idx.search_with(&pattern, k, method, Some(&token), &NoopRecorder);
        let elapsed = start.elapsed();
        assert!(
            outcome.is_truncated(),
            "{label}: a 1 ms budget should not complete this query"
        );
        // The cooperative poll interval bounds overshoot; allow a wide
        // margin for loaded CI machines.
        assert!(
            elapsed < Duration::from_millis(500),
            "{label}: took {elapsed:?} to notice a 1 ms deadline"
        );
        // Partial results are real, verified matches — spot-check a few.
        let result = outcome.into_inner();
        assert_eq!(result.stats.timeouts, 1, "{label}");
        for occ in result.occurrences.iter().take(16) {
            let window = &idx.text()[occ.position..occ.position + pattern.len()];
            let mismatches = window.iter().zip(&pattern).filter(|(a, b)| a != b).count();
            assert_eq!(mismatches, occ.mismatches, "{label}: bogus partial match");
            assert!(mismatches <= k, "{label}");
        }
    }
}

#[test]
fn batch_deadline_is_per_query_and_flags_each_outcome() {
    let idx = repetitive_index();
    let easy = idx.text()[2_000..2_064].to_vec();
    let patterns = vec![easy.clone(), easy];
    // A generous per-query budget completes both queries with results
    // identical to the no-deadline batch.
    // Serial: this test overlaps the wall-clock-bounded adversarial
    // test, so it must not add worker threads of its own.
    let pool = ThreadPool::serial();
    let (outcomes, stats) = idx.search_batch_with(
        &patterns,
        1,
        Method::ALGORITHM_A,
        &pool,
        Some(GENEROUS),
        &NoopRecorder,
    );
    assert_eq!(outcomes.len(), 2);
    assert_eq!(stats.timeouts, 0);
    let plain = idx.search(&patterns[0], 1, Method::ALGORITHM_A);
    for outcome in outcomes {
        match outcome {
            Outcome::Complete(occs) => assert_eq!(occs, plain.occurrences),
            Outcome::Truncated(_) => panic!("generous batch budget truncated"),
        }
    }

    // A zero budget truncates every query and counts each timeout.
    let (outcomes, stats) = idx.search_batch_with(
        &patterns,
        8,
        Method::ALGORITHM_A,
        &pool,
        Some(Duration::ZERO),
        &NoopRecorder,
    );
    assert!(outcomes.iter().all(Outcome::is_truncated));
    assert_eq!(stats.timeouts, 2);
}

#[test]
fn mapper_deadline_flags_truncated_reads() {
    let idx = plain_index();
    let mapper = ReadMapper::new(
        &idx,
        MapperConfig {
            k: 2,
            both_strands: true,
            method: Method::ALGORITHM_A,
        },
    );
    let read = idx.text()[300..400].to_vec();

    let generous = CancelToken::with_deadline(GENEROUS);
    let complete = mapper.map_with(&read, Some(&generous), &NoopRecorder);
    assert!(!complete.is_truncated());
    assert_eq!(
        complete.value().all,
        mapper.map(&read).all,
        "generous mapper deadline changed the alignments"
    );

    let expired = CancelToken::with_deadline(Duration::ZERO);
    assert!(mapper
        .map_with(&read, Some(&expired), &NoopRecorder)
        .is_truncated());
}
