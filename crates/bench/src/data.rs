//! Corpus construction for the benchmark harness: generate a synthetic
//! dataset, block it with the paper's Jaccard filter, and featurize the
//! candidate pairs across the machine's cores.

use alem_block::{BlockingReport, CandidateSource, TokenIndex};
use alem_core::corpus::Corpus;
use alem_core::error::AlemError;
use alem_core::features::FeatureExtractor;
use alem_core::schema::EmDataset;
use alem_par::Parallelism;
use datagen::PaperDataset;
use std::sync::Arc;

/// Fixed generation seed so every experiment sees the same corpora.
pub const DATA_SEED: u64 = 20200614; // SIGMOD'20 opening day

/// A fully prepared benchmark corpus.
pub struct PreparedData {
    /// The featurized post-blocking pair universe.
    pub corpus: Corpus,
    /// The extractor (for feature descriptions in interpretability output).
    pub extractor: Arc<FeatureExtractor>,
    /// Blocking statistics (Table 1 row).
    pub stats: BlockingReport,
}

/// Build a corpus for a generated dataset with its configured blocking
/// threshold. The pairs are blocked once and feed both the report and
/// the corpus.
pub fn prepare_dataset(ds: &EmDataset, blocking_threshold: f64) -> PreparedData {
    let build = || -> Result<PreparedData, AlemError> {
        let pairs = TokenIndex::builder()
            .threshold(blocking_threshold)
            .build()
            .collect_pairs(ds)?;
        let stats = BlockingReport::compute(&pairs, ds, None)?;
        let (corpus, extractor) =
            Corpus::from_candidates_with(ds, &pairs, &Parallelism::default())?;
        Ok(PreparedData {
            corpus,
            extractor,
            stats,
        })
    };
    // alem-lint: allow(panic-reach) -- experiment harness aborts on a corpus build failure; fatal by contract
    build().unwrap_or_else(|e| panic!("preparing {} failed: {e}", ds.name))
}

/// Generate + prepare one paper dataset at `scale`.
pub fn prepare(dataset: PaperDataset, scale: f64) -> PreparedData {
    let cfg = dataset.config(scale);
    let ds = datagen::generate(&cfg, DATA_SEED);
    prepare_dataset(&ds, cfg.blocking_threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_dataset() {
        let p = prepare(PaperDataset::Beer, 1.0);
        assert!(p.corpus.len() > 50);
        assert_eq!(p.corpus.dim(), 4 * 21);
        assert!(p.corpus.bool_features().is_some());
        assert_eq!(p.stats.candidates, p.corpus.len() as u64);
        assert_eq!(p.corpus.name(), "BeerAdvocate-RateBeer");
    }
}
