//! Parallel token inverted-index blocking with a Jaccard accept
//! threshold — the paper's §6 blocking filter.
//!
//! The paper blocks with "Jaccard similarity ... with a numerical
//! threshold ... on the tokenized attributes from each pair": 0.1875 on
//! Abt-Buy/DBLP-ACM/DBLP-Scholar, 0.12 on Amazon-GoogleProducts and 0.16
//! on Cora/Walmart-Amazon. An inverted index over tokens avoids
//! materializing the Cartesian product (DBLP-Scholar's is 168M pairs).

use crate::index::InvertedIndex;
use crate::{attr_label, record_tokens};
use alem_core::candidates::CandidateSource;
use alem_core::error::AlemError;
use alem_core::schema::{EmDataset, Pair};
use alem_obs::Registry;
use alem_par::Parallelism;

/// Default left-record block size per probe round: large enough to
/// amortize fan-out, small enough that one block's candidates fit
/// comfortably in memory.
pub(crate) const DEFAULT_PROBE_BLOCK: usize = 8192;

/// Token inverted-index blocking: keep a pair when the Jaccard
/// similarity of the two records' token sets reaches `threshold`.
///
/// Only pairs sharing at least one token are scored. With no posting
/// cap this yields exactly the pairs of the paper's filter: every pair
/// with a shared token and Jaccard ≥ `threshold`, in `(left, right)`
/// order. `max_postings` additionally skips stop-tokens (posting lists
/// longer than the cap) so probe cost stays near-linear on skewed
/// vocabularies — at the price of possibly losing pairs whose only
/// shared tokens are ubiquitous.
///
/// ```
/// use alem_block::{CandidateSource, TokenIndex};
/// let src = TokenIndex::builder()
///     .threshold(0.25)
///     .max_postings(1024)
///     .build();
/// assert!(src.describe().starts_with("token-index"));
/// ```
#[derive(Clone)]
pub struct TokenIndex {
    threshold: f64,
    attr: Option<usize>,
    max_postings: usize,
    probe_block: usize,
    par: Parallelism,
    obs: Registry,
}

/// Builder for [`TokenIndex`]; start from [`TokenIndex::builder`].
#[derive(Clone)]
pub struct TokenIndexBuilder {
    inner: TokenIndex,
}

impl TokenIndexBuilder {
    /// Jaccard threshold in `[0, 1]` (default: the paper's 0.1875).
    pub fn threshold(mut self, t: f64) -> Self {
        self.inner.threshold = t;
        self
    }

    /// Tokenize only this attribute index instead of all attributes.
    pub fn attr(mut self, attr: usize) -> Self {
        self.inner.attr = Some(attr);
        self
    }

    /// Skip tokens whose posting list exceeds `cap` right records
    /// (default: uncapped).
    pub fn max_postings(mut self, cap: usize) -> Self {
        self.inner.max_postings = cap;
        self
    }

    /// Left records probed per parallel round (default 8192).
    pub fn probe_block(mut self, n: usize) -> Self {
        self.inner.probe_block = n;
        self
    }

    /// Thread configuration for index build and probe (default: auto).
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.inner.par = par;
        self
    }

    /// Observability registry for `block.*` spans and counters
    /// (default: disabled).
    pub fn obs(mut self, obs: Registry) -> Self {
        self.inner.obs = obs;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> TokenIndex {
        self.inner
    }
}

impl TokenIndex {
    /// Start a builder with the paper's default threshold (0.1875), all
    /// attributes, no posting cap.
    pub fn builder() -> TokenIndexBuilder {
        TokenIndexBuilder {
            inner: TokenIndex {
                threshold: 0.1875,
                attr: None,
                max_postings: usize::MAX,
                probe_block: DEFAULT_PROBE_BLOCK,
                par: Parallelism::auto(),
                obs: Registry::disabled(),
            },
        }
    }
}

impl CandidateSource for TokenIndex {
    fn describe(&self) -> String {
        let cap = if self.max_postings == usize::MAX {
            "none".to_owned()
        } else {
            self.max_postings.to_string()
        };
        format!(
            "token-index(t={},{},cap={})",
            self.threshold,
            attr_label(self.attr),
            cap
        )
    }

    fn size_hint(&self, ds: &EmDataset) -> (usize, Option<usize>) {
        (0, usize::try_from(ds.total_pairs()).ok())
    }

    fn stream(
        &self,
        ds: &EmDataset,
        sink: &mut dyn FnMut(&[Pair]) -> Result<(), AlemError>,
    ) -> Result<(), AlemError> {
        let attr = self.attr;
        let keys = move |t: &alem_core::schema::Table, i: usize| record_tokens(t, i, attr);
        let span = self.obs.span("block.index_build");
        let index = InvertedIndex::build(&ds.right, &keys, &self.par, self.max_postings);
        span.finish();
        self.obs
            .counter_add("block.index_keys", index.keys_indexed() as u64);
        self.obs
            .counter_add("block.index_keys_skipped", index.keys_skipped());
        let threshold = self.threshold;
        let accept = move |inter: u32, lkeys: usize, rkeys: u32| {
            let union = lkeys + rkeys as usize - inter as usize;
            union > 0 && f64::from(inter) / union as f64 >= threshold
        };
        index.probe_stream(
            &ds.left,
            &keys,
            &accept,
            &self.par,
            self.probe_block,
            &self.obs,
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alem_core::schema::{AttrKind, Record, Schema, Table};

    fn table(name: &str, vals: &[&str]) -> Table {
        let schema = Schema::new(vec![("name", AttrKind::Text)]);
        let records = vals
            .iter()
            .map(|v| Record::new(vec![Some((*v).to_owned())]))
            .collect();
        Table::new(name, schema, records)
    }

    fn dataset() -> EmDataset {
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

    /// The paper's filter by definition, over the Cartesian product: keep
    /// a pair sharing a token whose token Jaccard reaches `threshold`.
    fn brute_force(ds: &EmDataset, threshold: f64) -> Vec<Pair> {
        let mut pairs = Vec::new();
        for l in 0..ds.left.len() {
            let lt = record_tokens(&ds.left, l, None);
            for r in 0..ds.right.len() {
                let rt = record_tokens(&ds.right, r, None);
                let inter = lt.iter().filter(|t| rt.contains(t)).count();
                let union = lt.len() + rt.len() - inter;
                if inter > 0 && inter as f64 / union as f64 >= threshold {
                    pairs.push((l as u32, r as u32));
                }
            }
        }
        pairs
    }

    #[test]
    fn uncapped_matches_core_blocking() {
        let ds = dataset();
        for t in [0.0, 0.1, 0.4, 0.99] {
            let ours = TokenIndex::builder()
                .threshold(t)
                .build()
                .collect_pairs(&ds)
                .unwrap();
            assert_eq!(ours, brute_force(&ds, t), "threshold {t}");
        }
    }

    #[test]
    fn posting_cap_only_removes_pairs() {
        let ds = dataset();
        let full = TokenIndex::builder()
            .threshold(0.1)
            .build()
            .collect_pairs(&ds)
            .unwrap();
        let capped = TokenIndex::builder()
            .threshold(0.1)
            .max_postings(1)
            .build()
            .collect_pairs(&ds)
            .unwrap();
        assert!(capped.iter().all(|p| full.contains(p)));
    }

    #[test]
    fn thread_count_does_not_change_stream() {
        let ds = dataset();
        let fp1 = TokenIndex::builder()
            .threshold(0.1)
            .parallelism(Parallelism::sequential())
            .probe_block(2)
            .build()
            .fingerprint(&ds)
            .unwrap();
        let fp4 = TokenIndex::builder()
            .threshold(0.1)
            .parallelism(Parallelism::fixed(4))
            .probe_block(1)
            .build()
            .fingerprint(&ds)
            .unwrap();
        assert_eq!(fp1, fp4);
    }

    #[test]
    fn single_attr_restricts_tokens() {
        let ds = dataset();
        let src = TokenIndex::builder().threshold(0.1).attr(0).build();
        assert!(src.describe().contains("attr=0"));
        let pairs = src.collect_pairs(&ds).unwrap();
        assert!(pairs.contains(&(0, 0)));
    }
}
