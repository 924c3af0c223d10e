//! Regression tests for the determinism invariant alem-lint enforces:
//! two identical runs — same data, same seed — must produce byte-identical
//! [`RunResult::deterministic_fingerprint`]s, and the blocking step must
//! emit the same candidate pairs every time. These would have caught the
//! hash-ordered collections this PR replaced with `BTreeMap`/`BTreeSet`:
//! `HashMap` iteration order varies per process, so per-run identity can
//! hold while cross-run identity silently breaks.

use alem_block::{CandidateSource, TokenIndex};
use alem_core::corpus::Corpus;
use alem_core::learner::SvmTrainer;
use alem_core::loop_::{ActiveLearner, EvalMode, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::schema::{AttrKind, EmDataset, Record, Schema, Table};
use alem_core::strategy::{MarginSvmStrategy, TreeQbcStrategy};

/// Deterministic token soup: a tiny LCG keeps the dataset reproducible
/// without depending on any RNG crate in the test.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

const WORDS: &[&str] = &[
    "apple", "ipod", "nano", "sony", "walkman", "dell", "laptop", "canon", "printer", "nikon",
    "camera", "lens", "hp", "monitor", "asus", "router", "bose", "speaker", "logitech", "mouse",
];

fn synthetic_dataset(n: usize) -> EmDataset {
    let schema = || Schema::new(vec![("title", AttrKind::Text), ("brand", AttrKind::Text)]);
    let mut rng = Lcg(0x5eed);
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut matches = std::collections::BTreeSet::new();
    for i in 0..n {
        let a = WORDS[(rng.next() as usize) % WORDS.len()];
        let b = WORDS[(rng.next() as usize) % WORDS.len()];
        left.push(Record::new(vec![
            Some(format!("{a} {b}")),
            Some(a.to_owned()),
        ]));
        if rng.next().is_multiple_of(2) {
            // A dirty duplicate: both tokens plus one extra (high Jaccard).
            let c = WORDS[(rng.next() as usize) % WORDS.len()];
            right.push(Record::new(vec![
                Some(format!("{a} {b} {c}")),
                Some(a.to_owned()),
            ]));
            matches.insert((i as u32, i as u32));
        } else {
            // A near-miss: shares one token, labeled a non-match, so the
            // post-blocking pool keeps both classes.
            let d = WORDS[(rng.next() as usize) % WORDS.len()];
            right.push(Record::new(vec![
                Some(format!("{a} {d}")),
                Some(d.to_owned()),
            ]));
        }
    }
    EmDataset {
        left: Table::new("l", schema(), left),
        right: Table::new("r", schema(), right),
        matches,
        name: "synthetic".into(),
    }
}

#[test]
fn blocking_emits_identical_pairs_across_runs() {
    let ds = synthetic_dataset(120);
    let cfg = TokenIndex::builder().threshold(0.3).build();
    let first = cfg.collect_pairs(&ds).unwrap();
    let second = cfg.collect_pairs(&ds).unwrap();
    assert!(!first.is_empty(), "blocking pruned everything");
    assert_eq!(first, second, "blocking must be run-order independent");
}

fn fingerprint_of_run(corpus: &Corpus, seed: u64) -> String {
    let oracle = Oracle::perfect(corpus.truths().to_vec());
    let params = LoopParams {
        seed_size: 16,
        batch_size: 8,
        max_labels: 80,
        eval: EvalMode::Progressive,
        stop_at_f1: None,
    };
    let mut al = ActiveLearner::new(MarginSvmStrategy::new(SvmTrainer::default()), params);
    al.run(corpus, &oracle, seed)
        .expect("run succeeds")
        .deterministic_fingerprint()
}

#[test]
fn end_to_end_fingerprint_is_stable_across_identical_runs() {
    let ds = synthetic_dataset(120);
    let cfg = TokenIndex::builder().threshold(0.2).build();
    // Rebuild the corpus from scratch both times so the whole path —
    // blocking, featurization, session — is exercised twice.
    let (corpus_a, _) = Corpus::from_candidates(&ds, &cfg).unwrap();
    let (corpus_b, _) = Corpus::from_candidates(&ds, &cfg).unwrap();
    assert!(corpus_a.len() > 40, "need a non-trivial pair pool");
    let a = fingerprint_of_run(&corpus_a, 42);
    let b = fingerprint_of_run(&corpus_b, 42);
    assert_eq!(a, b, "identical runs must fingerprint identically");
    // Different seeds must still diverge — the fingerprint is not a constant.
    let c = fingerprint_of_run(&corpus_a, 43);
    assert_ne!(a, c, "fingerprint must depend on the seed");
}

#[test]
fn tree_strategy_fingerprint_is_stable_across_identical_runs() {
    let ds = synthetic_dataset(120);
    let (corpus, _) = Corpus::from_candidates(&ds, &TokenIndex::builder().build()).unwrap();
    let oracle = Oracle::perfect(corpus.truths().to_vec());
    let params = LoopParams {
        seed_size: 16,
        batch_size: 8,
        max_labels: 64,
        eval: EvalMode::Progressive,
        stop_at_f1: None,
    };
    let run = |seed: u64| {
        let mut al = ActiveLearner::new(TreeQbcStrategy::new(5), params.clone());
        al.run(&corpus, &oracle, seed)
            .expect("run succeeds")
            .deterministic_fingerprint()
    };
    assert_eq!(run(7), run(7));
}
