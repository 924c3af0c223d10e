//! The §5.1 headline claim, reproduced in its original setting: blocking
//! dimensions pay off when feature vectors are built *during* selection.
//!
//! The paper's blocking "forgoes even a full feature vector construction
//! on each unlabeled example": only the blocking dimension is evaluated,
//! and examples where it is zero are skipped. This bench scores one
//! selection round over the unlabeled pool three ways:
//!
//! * `full_construction` — all 21 × #attrs similarities per pair, then
//!   the dot product (no optimization);
//! * `blocking_cheap_1dim` — evaluate one *cheap* blocking dimension (the
//!   top-|w| dimension among the token-set measures, whose evaluation is
//!   ~100× cheaper than Monge-Elkan/Smith-Waterman) and build the full
//!   vector only for survivors;
//! * the same pair of measurements on a **sparse corpus** (40% missing
//!   values) where the blocking dimension is zero for most pairs — the
//!   regime of the paper's real datasets, where selection-latency savings
//!   approach the reported 10×.
//!
//! Savings scale with the zero-rate of the blocking dimension; the bench
//! prints both corpora's pruning rates so the output is interpretable.

use alem_block::{CandidateSource, TokenIndex};
use alem_core::features::FeatureExtractor;
use alem_core::learner::{SvmTrainer, Trainer};
use alem_core::schema::{EmDataset, Pair};
use criterion::{criterion_group, criterion_main, Criterion};
use datagen::perturb::Perturber;
use datagen::PaperDataset;
use mlcore::svm::LinearSvm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use textsim::SimilarityFunction;

/// Dimensions whose similarity function is cheap to evaluate (token-set
/// measures, no O(len²) alignment).
fn is_cheap(dim: usize) -> bool {
    matches!(
        SimilarityFunction::ALL[dim % SimilarityFunction::ALL.len()],
        SimilarityFunction::Identity
            | SimilarityFunction::Jaccard
            | SimilarityFunction::Dice
            | SimilarityFunction::OverlapCoefficient
            | SimilarityFunction::Cosine
            | SimilarityFunction::BlockDistance
    )
}

/// Train a quick SVM and pick the highest-|w| cheap dimension.
fn prepare(ds: &EmDataset, threshold: f64) -> (Vec<Pair>, FeatureExtractor, LinearSvm, usize) {
    let pairs = TokenIndex::builder()
        .threshold(threshold)
        .build()
        .collect_pairs(ds)
        .expect("token index streams valid pairs");
    let fx = FeatureExtractor::new(ds);
    let sample: Vec<_> = pairs
        .iter()
        .step_by((pairs.len() / 150).max(1))
        .copied()
        .collect();
    let xs: Vec<Vec<f64>> = sample.iter().map(|&p| fx.extract_pair(p)).collect();
    let ys: Vec<bool> = sample.iter().map(|&p| ds.is_match(p)).collect();
    let mut rng = StdRng::seed_from_u64(1);
    let svm = SvmTrainer::default().train(&xs, &ys, &mut rng);
    let blocking_dim = svm
        .top_weight_dims(fx.dim())
        .into_iter()
        .find(|&d| is_cheap(d))
        .expect("some cheap dimension exists");
    (pairs, fx, svm, blocking_dim)
}

fn bench_variant(
    c: &mut Criterion,
    label: &str,
    pairs: &[Pair],
    fx: &FeatureExtractor,
    svm: &LinearSvm,
    blocking_dim: usize,
) {
    let pruned = pairs
        .iter()
        .filter(|&&p| fx.compute_dim(p, blocking_dim) == 0.0)
        .count();
    eprintln!(
        "[lazy_blocking/{label}] pool {} pairs, cheap blocking dim {blocking_dim} zero on {pruned} ({:.0}%)",
        pairs.len(),
        100.0 * pruned as f64 / pairs.len() as f64
    );

    let mut group = c.benchmark_group(format!("lazy_selection_round_{label}"));
    group.sample_size(10);
    group.bench_function("full_construction", |b| {
        b.iter(|| {
            let mut best = f64::INFINITY;
            for &p in pairs {
                let x = fx.extract_pair(p);
                best = best.min(svm.margin(&x));
            }
            black_box(best)
        })
    });
    group.bench_function("blocking_cheap_1dim", |b| {
        b.iter(|| {
            let mut best = f64::INFINITY;
            for &p in pairs {
                // One cheap similarity instead of the full 21 × #attrs.
                if fx.compute_dim(p, blocking_dim) == 0.0 {
                    continue;
                }
                let x = fx.extract_pair(p);
                best = best.min(svm.margin(&x));
            }
            black_box(best)
        })
    });
    group.finish();
}

fn bench_lazy_blocking(c: &mut Criterion) {
    // Standard Abt-Buy-like corpus.
    let cfg = PaperDataset::AbtBuy.config(0.25);
    let ds = datagen::generate(&cfg, 7);
    let (pairs, fx, svm, dim) = prepare(&ds, cfg.blocking_threshold);
    bench_variant(c, "abtbuy", &pairs, &fx, &svm, dim);

    // Sparse corpus: 40% missing values per attribute — the regime where
    // blocking dimensions are frequently zero.
    let mut sparse_cfg = PaperDataset::AbtBuy.config(0.25);
    let sparse = Perturber {
        missing_rate: 0.4,
        ..Perturber::HEAVY
    };
    sparse_cfg.perturb_left = sparse;
    sparse_cfg.perturb_right = sparse;
    let ds = datagen::generate(&sparse_cfg, 7);
    let (pairs, fx, svm, dim) = prepare(&ds, 0.1);
    bench_variant(c, "sparse", &pairs, &fx, &svm, dim);
}

criterion_group!(benches, bench_lazy_blocking);
criterion_main!(benches);
