//! Criterion bench: substrate throughput — blocking and featurization
//! (the offline pipeline ahead of Table 1).

use alem_block::{CandidateSource, TokenIndex};
use alem_core::features::FeatureExtractor;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use datagen::PaperDataset;
use std::hint::black_box;
use textsim::{Prepared, SimilarityFunction};

fn bench_pipeline(c: &mut Criterion) {
    let cfg = PaperDataset::DblpAcm.config(0.1);
    let ds = datagen::generate(&cfg, 1);
    let blocking = TokenIndex::builder()
        .threshold(cfg.blocking_threshold)
        .build();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    group.throughput(Throughput::Elements(
        (ds.left.len() * ds.right.len()) as u64,
    ));
    group.bench_function("blocking_inverted_index", |b| {
        b.iter(|| black_box(blocking.collect_pairs(&ds)))
    });

    let pairs = blocking
        .collect_pairs(&ds)
        .expect("token index streams valid pairs");
    let fx = FeatureExtractor::new(&ds);
    let sample: Vec<_> = pairs.iter().take(256).copied().collect();
    group.throughput(Throughput::Elements(sample.len() as u64));
    group.bench_function("featurize_21_sims", |b| {
        b.iter(|| black_box(fx.extract_all(&sample)))
    });

    group.finish();

    // Individual similarity functions on a representative value pair.
    let a = Prepared::new("efficient scalable entity matching with active learning");
    let bb = Prepared::new("scalable entity resolution via activ learning methods");
    let mut group = c.benchmark_group("similarity");
    for f in [
        SimilarityFunction::Levenshtein,
        SimilarityFunction::JaroWinkler,
        SimilarityFunction::SmithWatermanGotoh,
        SimilarityFunction::Jaccard,
        SimilarityFunction::MongeElkan,
        SimilarityFunction::QGram,
    ] {
        group.bench_function(f.name(), |bch| {
            bch.iter(|| black_box(f.compute_prepared(&a, &bb)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
