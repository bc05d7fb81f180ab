//! Telemetry integration tests: a recorder is an observer, never a
//! participant. Recording must not change any search result, and the
//! recorded metrics must agree with the statistics the search returns.

use bwt_kmismatch::telemetry::{Counter, Hist, MetricsRecorder, NoopRecorder, Phase};
use bwt_kmismatch::{KMismatchIndex, Method, SearchStats};
use proptest::prelude::*;

// The full observability stack is armed for this whole test binary —
// counting allocator, phase ledgers, event log — precisely to prove
// none of it perturbs search results.
#[global_allocator]
static ALLOC: bwt_kmismatch::telemetry::CountingAlloc = bwt_kmismatch::telemetry::CountingAlloc;

/// Every method configuration the index serves.
const METHODS: [Method; 10] = [
    Method::Naive,
    Method::Kangaroo,
    Method::Amir,
    Method::Cole,
    Method::Bwt { use_phi: true },
    Method::Bwt { use_phi: false },
    Method::ALGORITHM_A,
    Method::AlgorithmA { reuse: false },
    Method::SeedFilter,
    Method::Bidirectional,
];

fn dna(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(1u8..=4, 1..max)
}

/// Two-letter text: long repeats, which exercise Algorithm A's pair
/// sharing, derivations and resumes (and so their counters).
fn binary(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(1u8..=2, 1..max)
}

/// Every method returns bit-identical occurrences and statistics
/// whether it reports to the no-op recorder or to a live
/// `MetricsRecorder`, and the recorder mirrors the returned stats —
/// every per-query counter equals its field — rather than inventing its
/// own numbers.
fn recording_mirrors_stats(text: Vec<u8>, pattern: &[u8], k: usize) -> Result<(), TestCaseError> {
    let index = KMismatchIndex::new(text);
    for method in METHODS {
        let label = method.label();
        let quiet = index.search_recorded(pattern, k, method, &NoopRecorder);
        let recorder = MetricsRecorder::new();
        let loud = index.search_recorded(pattern, k, method, &recorder);
        prop_assert_eq!(&quiet, &loud, "{}", label);
        prop_assert_eq!(recorder.counter(Counter::Queries), 1, "{}", label);
        for (&counter, (field, value)) in SearchStats::COUNTERS.iter().zip(loud.stats.as_pairs()) {
            prop_assert_eq!(recorder.counter(counter), value, "{} {}", label, field);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_method_is_identical_under_recording(
        text in dna(300),
        pattern in dna(24),
        k in 0usize..5,
    ) {
        recording_mirrors_stats(text, &pattern, k)?;
    }

    #[test]
    fn every_method_is_identical_under_recording_on_repeats(
        text in binary(200),
        pattern in binary(16),
        k in 0usize..4,
    ) {
        recording_mirrors_stats(text, &pattern, k)?;
    }
}

#[test]
fn snapshot_reflects_a_real_search_session() {
    let genome = bwt_kmismatch::dna::genome::uniform(5_000, 7);
    let recorder = MetricsRecorder::new();
    let index = KMismatchIndex::with_config_recorded(
        genome.clone(),
        bwt_kmismatch::bwt::FmBuildConfig::default(),
        &recorder,
    );
    for start in [100usize, 900, 2_500] {
        let pattern = genome[start..start + 40].to_vec();
        let res = index.search_recorded(&pattern, 2, Method::ALGORITHM_A, &recorder);
        assert!(res.occurrences.iter().any(|o| o.position == start));
    }
    let snap = recorder.snapshot();
    // Every query ticked the search phase and the latency histogram.
    assert_eq!(snap.counter(Counter::Queries), 3);
    assert_eq!(snap.phase(Phase::SearchQuery).entries, 3);
    assert!(snap.phase(Phase::SearchQuery).total_ns > 0);
    let latency = snap
        .histogram(Hist::SearchLatencyNs)
        .expect("latency histogram");
    assert_eq!(latency.count, 3);
    // Index construction phases were timed.
    for phase in [
        Phase::IndexSa,
        Phase::IndexBwt,
        Phase::IndexRankall,
        Phase::IndexSampledSa,
    ] {
        assert_eq!(snap.phase(phase).entries, 1, "{:?}", phase);
    }
}

/// The whole observability stack — counting allocator, phase ledgers,
/// JSON event log — is an observer: results under it are bit-identical
/// to the plain `NoopRecorder` path, and the instruments actually see
/// the work (heap tracked, events written).
#[test]
fn full_observability_stack_does_not_perturb_results() {
    use bwt_kmismatch::telemetry::alloc::{mem_stats, phase_scope, MemPhase};
    use bwt_kmismatch::telemetry::events::{self, EventLog};
    use bwt_kmismatch::telemetry::LogLevel;

    let log_path =
        std::env::temp_dir().join(format!("kmm-telemetry-events-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    events::init_global(
        EventLog::new(LogLevel::Debug)
            .quiet()
            .with_json_sink(&log_path)
            .expect("json sink"),
    );

    let genome = bwt_kmismatch::dna::genome::uniform(4_000, 11);
    let index = {
        let _build = phase_scope(MemPhase::Build);
        KMismatchIndex::new(genome.clone())
    };

    let mut quiet_results = Vec::new();
    for start in [50usize, 700, 1_900, 3_200] {
        let pattern = genome[start..start + 32].to_vec();
        quiet_results.push(index.search_recorded(&pattern, 2, Method::ALGORITHM_A, &NoopRecorder));
    }

    let recorder = MetricsRecorder::new();
    let loud_results: Vec<_> = {
        let _search = phase_scope(MemPhase::Search);
        [50usize, 700, 1_900, 3_200]
            .iter()
            .map(|&start| {
                let pattern = genome[start..start + 32].to_vec();
                events::debug("test.search", "query", &[("start", start.to_string())]);
                index.search_recorded(&pattern, 2, Method::ALGORITHM_A, &recorder)
            })
            .collect()
    };

    for (quiet, loud) in quiet_results.iter().zip(&loud_results) {
        assert_eq!(quiet.occurrences, loud.occurrences);
        assert_eq!(quiet.stats, loud.stats);
    }

    // The allocator saw the build (this binary registers CountingAlloc).
    let mem = mem_stats();
    assert!(mem.enabled, "alloc tracking should be live in this binary");
    assert!(mem.peak_bytes > 0);
    assert!(mem.phase(MemPhase::Build).allocated_bytes > 0);

    // The event log captured the queries as JSON lines.
    let logged = std::fs::read_to_string(&log_path).expect("event log file");
    assert!(logged.lines().count() >= 4);
    for line in logged.lines().filter(|l| l.contains("test.search")) {
        let doc = bwt_kmismatch::telemetry::Json::parse(line).expect("valid json event");
        assert_eq!(
            doc.get("target").and_then(|t| t.as_str().map(String::from)),
            Some("test.search".to_string())
        );
    }
    let _ = std::fs::remove_file(&log_path);
}
