//! Contract tests for every `CandidateSource` in `alem-block`: streams
//! are sorted, deduplicated, in-bounds, and byte-identical at 1/2/8
//! threads; plus golden blocking-quality numbers on the smoke-scale
//! social corpus.

use alem_block::{
    collect_validated, BlockingReport, CandidateSource, MinHashLsh, QGramIndex, SortedNeighborhood,
    TokenIndex,
};
use alem_core::schema::{AttrKind, EmDataset, Record, Schema, Table};
use alem_par::Parallelism;
use datagen::SocialConfig;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Small word vocabulary: guarantees plenty of token collisions, the
/// regime where blocking strategies actually do work.
const WORDS: [&str; 20] = [
    "apple", "ipod", "nano", "silver", "sony", "walkman", "mp3", "player", "dell", "laptop",
    "printer", "canon", "camera", "lens", "zoom", "phone", "case", "black", "white", "pro",
];

fn table(name: &str, rows: &[Vec<usize>]) -> Table {
    let schema = Schema::new(vec![("desc", AttrKind::Text)]);
    let records = rows
        .iter()
        .map(|ws| {
            let text = ws
                .iter()
                .map(|&w| WORDS[w % WORDS.len()])
                .collect::<Vec<_>>()
                .join(" ");
            Record::new(vec![Some(text)])
        })
        .collect();
    Table::new(name, schema, records)
}

fn dataset(left: &[Vec<usize>], right: &[Vec<usize>]) -> EmDataset {
    EmDataset {
        left: table("l", left),
        right: table("r", right),
        matches: BTreeSet::new(),
        name: "prop".into(),
    }
}

/// Every strategy in the crate, built at a given thread count.
fn sources(par: Parallelism) -> Vec<Box<dyn CandidateSource>> {
    vec![
        Box::new(
            TokenIndex::builder()
                .threshold(0.2)
                .parallelism(par)
                .probe_block(3)
                .build(),
        ),
        Box::new(
            TokenIndex::builder()
                .threshold(0.1)
                .max_postings(4)
                .parallelism(par)
                .build(),
        ),
        Box::new(
            QGramIndex::builder()
                .q(3)
                .min_shared(3)
                .parallelism(par)
                .probe_block(5)
                .build(),
        ),
        Box::new(
            SortedNeighborhood::builder()
                .window(4)
                .parallelism(par)
                .build(),
        ),
        Box::new(
            MinHashLsh::builder()
                .bands(4)
                .rows(2)
                .seed(9)
                .parallelism(par)
                .build(),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `collect_validated` accepts every strategy's stream: strictly
    /// increasing `(left, right)`, all ids in bounds.
    #[test]
    fn streams_are_sorted_deduplicated_in_bounds(
        left in prop::collection::vec(prop::collection::vec(0usize..20, 1..5), 1..25),
        right in prop::collection::vec(prop::collection::vec(0usize..20, 1..5), 1..25),
    ) {
        let ds = dataset(&left, &right);
        for source in sources(Parallelism::sequential()) {
            let pairs = collect_validated(source.as_ref(), &ds);
            prop_assert!(pairs.is_ok(), "{} violated the stream contract: {:?}",
                source.describe(), pairs.err());
        }
    }

    /// Thread count never changes the emitted pair sequence: the
    /// fingerprints at 1, 2 and 8 threads are identical per strategy.
    #[test]
    fn streams_are_thread_count_invariant(
        left in prop::collection::vec(prop::collection::vec(0usize..20, 1..5), 1..25),
        right in prop::collection::vec(prop::collection::vec(0usize..20, 1..5), 1..25),
    ) {
        let ds = dataset(&left, &right);
        let baseline: Vec<u64> = sources(Parallelism::fixed(1))
            .iter()
            .map(|s| s.fingerprint(&ds).unwrap())
            .collect();
        for threads in [2usize, 8] {
            let fps: Vec<u64> = sources(Parallelism::fixed(threads))
                .iter()
                .map(|s| s.fingerprint(&ds).unwrap())
                .collect();
            prop_assert_eq!(&fps, &baseline, "divergence at {} threads", threads);
        }
    }

    /// Rerunning the same strategy on the same data always fingerprints
    /// identically (no ambient randomness anywhere on the path).
    #[test]
    fn streams_are_rerun_deterministic(
        left in prop::collection::vec(prop::collection::vec(0usize..20, 1..5), 1..15),
        right in prop::collection::vec(prop::collection::vec(0usize..20, 1..5), 1..15),
    ) {
        let ds = dataset(&left, &right);
        for source in sources(Parallelism::auto()) {
            let a = source.fingerprint(&ds).unwrap();
            let b = source.fingerprint(&ds).unwrap();
            prop_assert_eq!(a, b, "{} not rerun-deterministic", source.describe());
        }
    }
}

/// Golden blocking-quality numbers on the smoke-scale social corpus
/// (100 employees × 1000 profiles, seed 42). These pin the exact
/// candidate counts and recalls: any change to tokenization, hashing,
/// window or banding logic shows up here before it shows up in a
/// benchmark regression.
#[test]
fn golden_blocking_quality_on_social_smoke() {
    let ds = datagen::generate_social(&SocialConfig::scaled(0.25), 42);
    let golden: Vec<(Box<dyn CandidateSource>, u64, f64)> = vec![
        (
            Box::new(TokenIndex::builder().threshold(0.1875).build()),
            GOLDEN[0].1,
            GOLDEN[0].2,
        ),
        (
            Box::new(QGramIndex::builder().q(3).min_shared(12).build()),
            GOLDEN[1].1,
            GOLDEN[1].2,
        ),
        (
            Box::new(SortedNeighborhood::builder().window(10).build()),
            GOLDEN[2].1,
            GOLDEN[2].2,
        ),
        (
            Box::new(MinHashLsh::builder().bands(8).rows(2).seed(42).build()),
            GOLDEN[3].1,
            GOLDEN[3].2,
        ),
    ];
    for (source, want_candidates, want_recall) in golden {
        let r = BlockingReport::compute(source.as_ref(), &ds, None).unwrap();
        assert_eq!(
            r.candidates, want_candidates,
            "candidate count drifted for {}",
            r.source
        );
        assert!(
            (r.recall - want_recall).abs() < 1e-9,
            "recall drifted for {}: got {}, want {}",
            r.source,
            r.recall,
            want_recall
        );
        let expected_rr = 1.0 - r.candidates as f64 / r.total_pairs as f64;
        assert!((r.reduction_ratio - expected_rr).abs() < 1e-12);
    }
}

/// `(label, candidates, recall)` pinned from the first full run.
#[allow(clippy::excessive_precision)]
const GOLDEN: [(&str, u64, f64); 4] = [
    ("token", 3438, 0.975_609_756_097_561_0),
    ("qgram", 25_246, 1.0),
    ("sorted-w10", 1649, 0.878_048_780_487_804_9),
    ("minhash", 2488, 0.878_048_780_487_804_9),
];
