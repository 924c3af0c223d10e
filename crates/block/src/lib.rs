//! `alem-block` — streaming candidate generation from raw tables.
//!
//! The active-learning loop of `alem-core` consumes a *candidate pool*;
//! this crate produces one at scale, straight from the two record tables
//! of an [`EmDataset`](alem_core::schema::EmDataset). Every strategy
//! implements the [`CandidateSource`] seam (deterministic, chunked,
//! sorted pair streaming), so `Corpus::from_candidates` — and anything
//! else downstream — is agnostic to how the pairs were generated:
//!
//! * [`TokenIndex`] — a parallel token inverted index with a Jaccard
//!   accept threshold. Uncapped, it *is* the paper's §6 blocking filter
//!   (checked pair-for-pair against a brute-force Jaccard oracle in
//!   `tests/jaccard_oracle.rs`). An optional posting-length cap skips
//!   stop-tokens so probe cost stays near-linear on skewed vocabularies.
//! * [`QGramIndex`] — a character q-gram inverted index with an absolute
//!   shared-gram threshold; robust to typos that break whole-token
//!   overlap.
//! * [`SortedNeighborhood`] — classic sorted-neighborhood blocking: both
//!   tables merged into one key-sorted sequence, candidates drawn from a
//!   sliding window.
//! * [`MinHashLsh`] — minhash signatures over record token sets, banded
//!   LSH-style; collision in any band makes a candidate.
//!
//! All four are **deterministic** (seeded hashing, ordered maps, no
//! ambient RNG or time), **parallelized** via `alem-par` (index build and
//! probe fan out over fixed chunks; thread count can only change
//! wall-clock time, never the pair stream), and **instrumented** via
//! `alem-obs` under the `block.*` family. Blocking quality — recall,
//! reduction ratio, and group-wise recall — is measured per config with
//! [`BlockingReport`]; the `bench_blocking` binary in `alem-bench` sweeps
//! all strategies over the scaled social corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocking;
mod index;
mod minhash;
mod qgram;
mod sorted;
mod token;

pub use alem_core::candidates::{
    collect_validated, BlockingReport, CandidateSource, GroupRecall, PairHasher, DEFAULT_CHUNK,
};
pub use minhash::{MinHashLsh, MinHashLshBuilder};
pub use qgram::{QGramIndex, QGramIndexBuilder};
pub use sorted::{SortedNeighborhood, SortedNeighborhoodBuilder};
pub use token::{TokenIndex, TokenIndexBuilder};

use alem_core::schema::Table;

/// Sorted, deduplicated token set over the selected attributes of a
/// record (all attributes when `attr` is `None`). Single-character
/// tokens are dropped — they collide across unrelated records and would
/// swamp any inverted index. This is the token set of the paper's §6
/// Jaccard filter.
pub(crate) fn record_tokens(table: &Table, idx: usize, attr: Option<usize>) -> Vec<String> {
    let mut toks: Vec<String> = Vec::new();
    let record = table.record(idx);
    let values: Vec<Option<&str>> = match attr {
        Some(a) => vec![record.value(a)],
        None => record.values().iter().map(|v| v.as_deref()).collect(),
    };
    for v in values.into_iter().flatten() {
        let norm = textsim::tokenize::normalize(v);
        toks.extend(
            textsim::tokenize::tokens(&norm)
                .into_iter()
                .filter(|t| t.chars().count() >= 2),
        );
    }
    toks.sort_unstable();
    toks.dedup();
    toks
}

/// Normalized concatenation of the selected attributes of a record (all
/// when `attr` is `None`) — the sort key of [`SortedNeighborhood`].
pub(crate) fn record_text(table: &Table, idx: usize, attr: Option<usize>) -> String {
    let record = table.record(idx);
    let values: Vec<Option<&str>> = match attr {
        Some(a) => vec![record.value(a)],
        None => record.values().iter().map(|v| v.as_deref()).collect(),
    };
    let mut out = String::new();
    for v in values.into_iter().flatten() {
        let norm = textsim::tokenize::normalize(v);
        if norm.is_empty() {
            continue;
        }
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(&norm);
    }
    out
}

/// Render an optional attribute selector for `describe()` strings.
pub(crate) fn attr_label(attr: Option<usize>) -> String {
    match attr {
        Some(a) => format!("attr={a}"),
        None => "attr=all".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alem_core::schema::{AttrKind, Record, Schema, Table};

    fn table() -> Table {
        let schema = Schema::new(vec![("name", AttrKind::Text), ("city", AttrKind::Text)]);
        Table::new(
            "t",
            schema,
            vec![Record::new(vec![
                Some("Apple iPod-Nano".into()),
                Some("NYC city".into()),
            ])],
        )
    }

    #[test]
    fn record_tokens_all_attrs_sorted_dedup() {
        let t = table();
        let toks = record_tokens(&t, 0, None);
        assert_eq!(toks, vec!["apple", "city", "ipod", "nano", "nyc"]);
    }

    #[test]
    fn record_tokens_single_attr() {
        let t = table();
        assert_eq!(record_tokens(&t, 0, Some(1)), vec!["city", "nyc"]);
    }

    #[test]
    fn record_text_concatenates_normalized() {
        let t = table();
        assert_eq!(record_text(&t, 0, None), "apple ipod nano nyc city");
        assert_eq!(record_text(&t, 0, Some(0)), "apple ipod nano");
    }
}
