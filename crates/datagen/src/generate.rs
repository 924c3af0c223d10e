//! Materializing a [`GenConfig`] into an [`EmDataset`].
//!
//! Every entity gets one mention in each table (so the ground truth is a
//! perfect 1-1 matching, like the curated benchmark datasets); left and
//! right mentions are independently perturbed per the config.

use crate::configs::GenConfig;
use crate::domains::CanonValue;
use crate::perturb::Perturber;
use alem_core::schema::{AttrKind, EmDataset, Record, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Which table a mention goes to (selects the side of
/// [`CanonValue::SideText`]).
#[derive(Clone, Copy)]
enum Side {
    Left,
    Right,
}

/// Perturb a canonical value into a mention value.
fn mention<R: Rng>(
    canon: &CanonValue,
    kind: AttrKind,
    side: Side,
    p: &Perturber,
    rng: &mut R,
) -> Option<String> {
    match canon {
        CanonValue::Text(s) => p.text(s, rng),
        CanonValue::SideText(l, r) => match side {
            Side::Left => p.text(l, rng),
            Side::Right => p.text(r, rng),
        },
        CanonValue::Num(v) => {
            debug_assert_eq!(kind, AttrKind::Numeric);
            p.numeric(*v, rng)
        }
    }
}

/// Generate a synthetic EM dataset deterministically from `seed`.
pub fn generate(cfg: &GenConfig, seed: u64) -> EmDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = cfg.domain.schema();
    let kinds: Vec<AttrKind> = schema.attributes().iter().map(|a| a.kind).collect();

    let mut left_records = Vec::new();
    let mut right_records = Vec::new();
    let mut matches: BTreeSet<(u32, u32)> = BTreeSet::new();

    for _ in 0..cfg.n_families {
        let fam = cfg.domain.family(&mut rng);
        for _ in 0..cfg.family_size {
            let canon = cfg.domain.canonical(&fam, &mut rng);
            let left: Vec<Option<String>> = canon
                .iter()
                .zip(&kinds)
                .map(|(c, &k)| mention(c, k, Side::Left, &cfg.perturb_left, &mut rng))
                .collect();
            let right: Vec<Option<String>> = canon
                .iter()
                .zip(&kinds)
                .map(|(c, &k)| mention(c, k, Side::Right, &cfg.perturb_right, &mut rng))
                .collect();
            let l_idx = left_records.len() as u32;
            let r_idx = right_records.len() as u32;
            left_records.push(Record::new(left));
            right_records.push(Record::new(right));
            matches.insert((l_idx, r_idx));
        }
    }

    EmDataset {
        left: Table::new(&format!("{}-left", cfg.name), schema.clone(), left_records),
        right: Table::new(&format!("{}-right", cfg.name), schema, right_records),
        matches,
        name: cfg.name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::PaperDataset;

    #[test]
    fn generates_one_mention_per_table_per_entity() {
        let cfg = PaperDataset::AbtBuy.config(0.05);
        let ds = generate(&cfg, 1);
        let n = cfg.n_families * cfg.family_size;
        assert_eq!(ds.left.len(), n);
        assert_eq!(ds.right.len(), n);
        assert_eq!(ds.matches.len(), n);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = PaperDataset::Beer.config(1.0);
        let a = generate(&cfg, 42);
        let b = generate(&cfg, 42);
        assert_eq!(a.left.records(), b.left.records());
        assert_eq!(a.right.records(), b.right.records());
        let c = generate(&cfg, 43);
        assert_ne!(a.left.records(), c.left.records());
    }
}
