//! The generated paper datasets under the paper's blocking filter (an
//! uncapped `TokenIndex` at each dataset's configured threshold): the
//! candidate sets must be non-empty, keep most true matches, and land
//! near the paper's class skew.

use alem_block::{BlockingReport, TokenIndex};
use alem_core::schema::EmDataset;
use datagen::configs::ALL_DATASETS;
use datagen::PaperDataset;

fn block(ds: &EmDataset, threshold: f64) -> BlockingReport {
    let source = TokenIndex::builder().threshold(threshold).build();
    BlockingReport::compute(&source, ds, None).unwrap()
}

#[test]
fn blocking_yields_paperlike_skew() {
    // Family construction should land within ~2x of the paper's skew.
    let cfg = PaperDataset::DblpAcm.config(0.1);
    let ds = datagen::generate(&cfg, 7);
    let r = block(&ds, cfg.blocking_threshold);
    let skew = r.class_skew();
    assert!(r.candidates > 100, "too few pairs: {}", r.candidates);
    let paper = PaperDataset::DblpAcm.paper_skew();
    assert!(
        skew > paper * 0.4 && skew < paper * 2.5,
        "skew {skew:.3} too far from paper {paper:.3}"
    );
}

#[test]
fn every_dataset_generates_blocks_and_keeps_matches() {
    for d in ALL_DATASETS {
        let cfg = d.config(0.05);
        let ds = datagen::generate(&cfg, 11);
        assert_eq!(ds.left.schema(), ds.right.schema(), "{}", d.name());
        let r = block(&ds, cfg.blocking_threshold);
        let skew = r.class_skew();
        assert!(r.candidates > 0, "{}: blocking produced nothing", d.name());
        assert!(
            r.matches_retained * 3 >= r.matches_total,
            "{}: lost too many matches ({}/{})",
            d.name(),
            r.matches_retained,
            r.matches_total
        );
        assert!(
            skew > 0.01 && skew < 0.6,
            "{}: implausible skew {skew:.3}",
            d.name()
        );
    }
}

#[test]
fn most_matches_survive_blocking() {
    let cfg = PaperDataset::AbtBuy.config(0.1);
    let ds = datagen::generate(&cfg, 7);
    let r = block(&ds, cfg.blocking_threshold);
    // Heavy product-domain perturbation loses some true matches at the
    // blocking step, as on the real datasets; progressive F1 is
    // evaluated over post-blocking pairs, so this only affects realism.
    assert!(r.recall > 0.4, "only {:.2} of matches retained", r.recall);
}
