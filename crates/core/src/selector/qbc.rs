//! Learner-agnostic query-by-committee (§4.1).
//!
//! Draws `B` bootstrap resamples of the labeled data, trains a committee of
//! `B` classifiers, and scores every unlabeled example by the vote variance
//! of Mozafari et al.: `(P/C)(1 − P/C)` where `P` of `C` committee members
//! vote match. Examples with the highest variance are the most ambiguous.
//! The latency is reported split into committee-creation and
//! example-scoring time, the decomposition plotted in Fig. 10.

use super::{score_pool_with, scored_pool, top_k_desc, Selection};
use crate::corpus::Corpus;
use crate::learner::Trainer;
use alem_obs::Registry;
use alem_par::Parallelism;
use mlcore::data::bootstrap_indices;
use mlcore::Classifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Train a bootstrap committee of `size` models on the labeled examples,
/// one worker per chunk of members.
///
/// Every member gets its own `StdRng` seeded from a u64 pre-drawn on the
/// caller's thread, so member `i`'s bootstrap sample and training run are
/// independent of scheduling: the committee is byte-identical for any
/// thread count.
///
/// Returns an empty committee when `use_bool_features` is requested on a
/// corpus without Boolean predicates — [`crate::strategy::Strategy::fit`]
/// rejects that configuration before selection can reach this point.
pub fn train_committee<T: Trainer>(
    trainer: &T,
    corpus: &Corpus,
    labeled: &[(usize, bool)],
    size: usize,
    rng: &mut StdRng,
    use_bool_features: bool,
    par: &Parallelism,
) -> Vec<T::Model> {
    let bools = if use_bool_features {
        match corpus.bool_features() {
            Some(b) => Some(b),
            None => return Vec::new(),
        }
    } else {
        None
    };
    let rows = |i: usize| -> Vec<f64> {
        match bools {
            Some(b) => b[i].clone(),
            None => corpus.x(i).to_vec(),
        }
    };
    let seeds: Vec<u64> = (0..size).map(|_| rng.gen()).collect();
    par.map(&seeds, |&seed| {
        let mut mrng = StdRng::seed_from_u64(seed);
        let idx = bootstrap_indices(labeled.len(), &mut mrng);
        // alem-lint: allow(flat-feature-store) -- O(labeled) bootstrap sample per committee member, not the pool matrix
        let xs: Vec<Vec<f64>> = idx.iter().map(|&j| rows(labeled[j].0)).collect();
        let ys: Vec<bool> = idx.iter().map(|&j| labeled[j].1).collect();
        trainer.train(&xs, &ys, &mut mrng)
    })
}

/// Vote variance of a committee on one example.
pub fn committee_variance<M: Classifier>(committee: &[M], x: &[f64]) -> f64 {
    let c = committee.len() as f64;
    let p = committee.iter().filter(|m| m.predict(x)).count() as f64 / c;
    p * (1.0 - p)
}

/// Vote-variance scores for the pool, aligned with `unlabeled`; higher =
/// more committee disagreement. Thread-count invariant.
pub fn score_pool<M: Classifier + Sync>(
    committee: &[M],
    corpus: &Corpus,
    unlabeled: &[usize],
    use_bool_features: bool,
    par: &Parallelism,
) -> Vec<f64> {
    let bools = if use_bool_features {
        corpus.bool_features()
    } else {
        None
    };
    score_pool_with(par, unlabeled, |i| {
        let x: &[f64] = match bools {
            Some(b) => &b[i],
            None => corpus.x(i),
        };
        committee_variance(committee, x)
    })
}

/// One QBC selection round: build the committee, score the unlabeled pool,
/// return the `batch` most ambiguous examples.
#[allow(clippy::too_many_arguments)] // mirrors the pipeline's natural inputs
pub fn select<T: Trainer>(
    trainer: &T,
    committee_size: usize,
    corpus: &Corpus,
    labeled: &[(usize, bool)],
    unlabeled: &[usize],
    batch: usize,
    rng: &mut StdRng,
    use_bool_features: bool,
    obs: &Registry,
    par: &Parallelism,
) -> Selection {
    let committee_span = obs.span("select.committee");
    let committee = train_committee(
        trainer,
        corpus,
        labeled,
        committee_size,
        rng,
        use_bool_features,
        par,
    );
    let committee_creation = committee_span.finish();
    if committee.is_empty() {
        return Selection::default();
    }

    let score_span = obs.span("select.score");
    let scores = score_pool(&committee, corpus, unlabeled, use_bool_features, par);
    obs.counter_add("select.pairs_scored", scores.len() as u64);
    let chosen = top_k_desc(scored_pool(unlabeled, &scores), batch, rng);
    let scoring = score_span.finish();

    Selection {
        chosen,
        committee_creation,
        scoring,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::SvmTrainer;
    use rand::SeedableRng;

    fn corpus() -> Corpus {
        let feats: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let truth: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        Corpus::from_features(feats, truth)
    }

    fn labeled_seed(c: &Corpus) -> Vec<(usize, bool)> {
        [0, 10, 20, 30, 60, 70, 80, 90]
            .iter()
            .map(|&i| (i, c.truth(i)))
            .collect()
    }

    #[test]
    fn committee_has_requested_size() {
        let c = corpus();
        let labeled = labeled_seed(&c);
        let mut rng = StdRng::seed_from_u64(3);
        let committee = train_committee(
            &SvmTrainer::default(),
            &c,
            &labeled,
            5,
            &mut rng,
            false,
            &Parallelism::sequential(),
        );
        assert_eq!(committee.len(), 5);
    }

    #[test]
    fn committee_is_thread_count_invariant() {
        let c = corpus();
        let labeled = labeled_seed(&c);
        let train = |par: Parallelism| {
            let mut rng = StdRng::seed_from_u64(7);
            train_committee(
                &SvmTrainer::default(),
                &c,
                &labeled,
                6,
                &mut rng,
                false,
                &par,
            )
        };
        let seq = train(Parallelism::sequential());
        for t in [2, 3, 8] {
            let p = train(Parallelism::fixed(t));
            for (a, b) in seq.iter().zip(&p) {
                for i in 0..c.len() {
                    assert_eq!(
                        a.decision_value(c.x(i)),
                        b.decision_value(c.x(i)),
                        "threads={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn selects_from_unlabeled_only() {
        let c = corpus();
        let labeled = labeled_seed(&c);
        let unlabeled: Vec<usize> = (0..100)
            .filter(|i| !labeled.iter().any(|(j, _)| j == i))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let sel = select(
            &SvmTrainer::default(),
            4,
            &c,
            &labeled,
            &unlabeled,
            10,
            &mut rng,
            false,
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        assert_eq!(sel.chosen.len(), 10);
        for i in &sel.chosen {
            assert!(unlabeled.contains(i));
        }
        // No duplicates.
        let mut sorted = sel.chosen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn ambiguous_examples_cluster_near_boundary() {
        let c = corpus();
        let labeled = labeled_seed(&c);
        let unlabeled: Vec<usize> = (0..100)
            .filter(|i| !labeled.iter().any(|(j, _)| j == i))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let sel = select(
            &SvmTrainer::default(),
            8,
            &c,
            &labeled,
            &unlabeled,
            10,
            &mut rng,
            false,
            &Registry::disabled(),
            &Parallelism::sequential(),
        );
        // The decision boundary is at 0.5; the committee should disagree
        // mostly near it.
        let near = sel
            .chosen
            .iter()
            .filter(|&&i| (0.3..0.7).contains(&c.x(i)[0]))
            .count();
        assert!(near >= 6, "only {near}/10 chosen near the boundary");
    }

    #[test]
    fn variance_bounds() {
        let c = corpus();
        let labeled = labeled_seed(&c);
        let mut rng = StdRng::seed_from_u64(3);
        let committee = train_committee(
            &SvmTrainer::default(),
            &c,
            &labeled,
            6,
            &mut rng,
            false,
            &Parallelism::sequential(),
        );
        for i in 0..c.len() {
            let v = committee_variance(&committee, c.x(i));
            assert!((0.0..=0.25 + 1e-12).contains(&v));
        }
    }
}
