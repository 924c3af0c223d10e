//! Behaviour of the paper's §6 blocking step as this crate provides it:
//! an uncapped [`TokenIndex`](crate::TokenIndex) at a Jaccard threshold,
//! with Table-1 statistics from [`BlockingReport`](crate::BlockingReport).

#[cfg(test)]
mod tests {
    use crate::{BlockingReport, CandidateSource, TokenIndex};
    use alem_core::schema::{AttrKind, EmDataset, Pair, Record, Schema, Table};

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

    fn block(ds: &EmDataset, threshold: f64) -> Vec<Pair> {
        TokenIndex::builder()
            .threshold(threshold)
            .build()
            .collect_pairs(ds)
            .unwrap()
    }

    #[test]
    fn keeps_overlapping_pairs_only() {
        let pairs = block(&dataset(), 0.4);
        assert!(pairs.contains(&(0, 0)));
        assert!(pairs.contains(&(1, 1)));
        // "dell laptop" and "hp printer" share no tokens with anything.
        assert!(pairs.iter().all(|&(l, r)| !(l == 2 || r == 2)));
    }

    #[test]
    fn zero_threshold_keeps_all_token_sharing_pairs() {
        let pairs = block(&dataset(), 0.0);
        // Every pair sharing ≥ 1 token survives.
        assert!(pairs.contains(&(0, 0)));
        assert!(pairs.contains(&(1, 1)));
        assert!(!pairs.contains(&(2, 2)));
    }

    #[test]
    fn high_threshold_prunes_everything_nonidentical() {
        assert!(block(&dataset(), 0.99).is_empty());
    }

    #[test]
    fn stats_reports_skew() {
        let ds = dataset();
        let pairs = block(&ds, 0.4);
        let src = TokenIndex::builder().threshold(0.4).build();
        let s = BlockingReport::compute(&src, &ds, None).unwrap();
        assert_eq!(s.total_pairs, 9);
        assert_eq!(s.matches_total, 2);
        assert_eq!(s.matches_retained, 2);
        assert!(s.class_skew() > 0.0);
        assert_eq!(s.candidates, pairs.len() as u64);
    }

    #[test]
    fn stream_concatenates_to_block() {
        let ds = dataset();
        let src = TokenIndex::builder().threshold(0.1).build();
        let mut streamed: Vec<Pair> = Vec::new();
        let mut chunks = 0usize;
        src.stream(&ds, &mut |chunk| {
            assert!(!chunk.is_empty());
            streamed.extend_from_slice(chunk);
            chunks += 1;
            Ok(())
        })
        .unwrap();
        assert!(chunks >= 1);
        assert_eq!(streamed, block(&ds, 0.1));
    }

    #[test]
    fn fingerprint_tracks_threshold() {
        let ds = dataset();
        let lo = TokenIndex::builder().threshold(0.1).build();
        let hi = TokenIndex::builder().threshold(0.9).build();
        assert_ne!(lo.fingerprint(&ds).unwrap(), hi.fingerprint(&ds).unwrap());
        assert_eq!(lo.fingerprint(&ds).unwrap(), lo.fingerprint(&ds).unwrap());
    }

    #[test]
    fn output_is_sorted_and_unique() {
        let pairs = block(&dataset(), 0.1);
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted);
    }
}
