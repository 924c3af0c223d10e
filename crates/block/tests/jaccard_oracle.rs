//! `TokenIndex` against the paper's definition of blocking (§6): keep a
//! record pair when the Jaccard similarity of the two records' token
//! sets reaches the threshold. The oracle below scores every pair of the
//! Cartesian product, O(|L|·|R|), with no index at all, so an uncapped
//! `TokenIndex` is checked against the definition rather than against a
//! second index.
//!
//! CI runs this file in release mode as the blocking baseline gate.

use alem_block::{CandidateSource, TokenIndex};
use alem_core::schema::{AttrKind, EmDataset, Pair, Record, Schema, Table};
use alem_par::Parallelism;
use datagen::configs::ALL_DATASETS;
use datagen::SocialConfig;
use std::collections::BTreeMap;

/// The paper's token set of one record: every attribute value
/// normalized and tokenized, tokens shorter than two characters dropped,
/// duplicates removed. Tokens are interned as ids so that the brute-force
/// pass compares integers.
fn token_ids(table: &Table, idx: usize, vocab: &mut BTreeMap<String, u32>) -> Vec<u32> {
    let mut ids: Vec<u32> = Vec::new();
    for v in table.record(idx).values().iter().flatten() {
        let norm = textsim::tokenize::normalize(v);
        for t in textsim::tokenize::tokens(&norm) {
            if t.chars().count() >= 2 {
                let next = vocab.len() as u32;
                ids.push(*vocab.entry(t).or_insert(next));
            }
        }
    }
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Every pair sharing at least one token whose token Jaccard is at least
/// `threshold`, in `(left, right)` order.
fn oracle(ds: &EmDataset, threshold: f64) -> Vec<Pair> {
    let mut vocab = BTreeMap::new();
    let left: Vec<Vec<u32>> = (0..ds.left.len())
        .map(|i| token_ids(&ds.left, i, &mut vocab))
        .collect();
    let right: Vec<Vec<u32>> = (0..ds.right.len())
        .map(|i| token_ids(&ds.right, i, &mut vocab))
        .collect();
    let mut pairs = Vec::new();
    // `in_left[t]`: token `t` is in the current left record's set.
    let mut in_left = vec![false; vocab.len()];
    for (l, lt) in left.iter().enumerate() {
        lt.iter().for_each(|&t| in_left[t as usize] = true);
        for (r, rt) in right.iter().enumerate() {
            let inter = rt.iter().filter(|&&t| in_left[t as usize]).count() as u32;
            let union = lt.len() + rt.len() - inter as usize;
            if inter > 0 && f64::from(inter) / union as f64 >= threshold {
                pairs.push((l as u32, r as u32));
            }
        }
        lt.iter().for_each(|&t| in_left[t as usize] = false);
    }
    pairs
}

fn token_index(ds: &EmDataset, threshold: f64, threads: usize) -> Vec<Pair> {
    TokenIndex::builder()
        .threshold(threshold)
        .parallelism(Parallelism::fixed(threads))
        .build()
        .collect_pairs(ds)
        .unwrap()
}

fn toy() -> EmDataset {
    let table = |name: &str, vals: &[&str]| {
        let schema = Schema::new(vec![("name", AttrKind::Text)]);
        let records = vals
            .iter()
            .map(|v| Record::new(vec![Some((*v).to_owned())]))
            .collect();
        Table::new(name, schema, records)
    };
    EmDataset {
        left: table("l", &["apple ipod nano", "sony walkman", "dell laptop"]),
        right: table(
            "r",
            &["apple ipod nano silver", "sony walkman mp3", "hp printer"],
        ),
        matches: [(0, 0), (1, 1)].into_iter().collect(),
        name: "toy".into(),
    }
}

#[test]
fn token_index_matches_oracle_on_toy() {
    let ds = toy();
    for t in [0.0, 0.1, 0.4, 0.99] {
        assert_eq!(token_index(&ds, t, 1), oracle(&ds, t), "threshold {t}");
    }
    // Threshold 0 keeps exactly the token-sharing pairs.
    assert_eq!(oracle(&ds, 0.0), vec![(0, 0), (1, 1)]);
}

#[test]
fn token_index_matches_oracle_on_social_smoke() {
    let ds = datagen::generate_social(&SocialConfig::scaled(0.25), 42);
    let want = oracle(&ds, 0.1875);
    assert!(!want.is_empty());
    for threads in [1, 4] {
        assert_eq!(token_index(&ds, 0.1875, threads), want, "{threads} threads");
    }
}

/// Every generated paper dataset at scale 0.25, each at its configured
/// threshold, for the seeds of the smoke run and the benchmark corpora.
#[test]
fn token_index_matches_oracle_on_paper_datasets() {
    for d in ALL_DATASETS {
        let cfg = d.config(0.25);
        for seed in [42, 20200614] {
            let ds = datagen::generate(&cfg, seed);
            let want = oracle(&ds, cfg.blocking_threshold);
            assert!(!want.is_empty(), "{} seed {seed}", d.name());
            assert_eq!(
                token_index(&ds, cfg.blocking_threshold, 2),
                want,
                "{} seed {seed}",
                d.name()
            );
        }
    }
}
