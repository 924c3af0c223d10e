//! Metric assembly and the result line.
//!
//! Untraced runs report the end-to-end metrics ([`EndToEnd`]); traced
//! runs report the per-layer ledger ([`Layers`]). Both print one JSON
//! object as the last line of standard output.

use crate::stats::{mean, median, quantile, Quality};
use std::collections::BTreeMap;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        // A layer that does no work on a workload reports 0, never NaN.
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Raw end-to-end measurements of one untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of each op.
    pub op_s: Vec<f64>,
    /// Wall time from the first op's start to the last op's end.
    pub timed_s: f64,
    /// The labeler's wait per batch wave, in ms.
    pub wait_ms: Vec<f64>,
    /// Quality per distinct AL seed of the workload's seed list.
    pub quality: BTreeMap<u64, Quality>,
    /// Peak RSS of the process doing the work.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// How many samples each timing summarizes.
    pub fn sample_counts(&self) -> String {
        format!(
            "{} set-up(s), {} op(s), {} wave wait(s), {} seed(s)",
            self.setup_s.len(),
            self.op_s.len(),
            self.wait_ms.len(),
            self.quality.len()
        )
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let qualities: Vec<Quality> = self.quality.values().copied().collect();
        vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric("op_s_p50", median(&self.op_s), "s"),
            metric("ops_per_s", self.op_s.len() as f64 / self.timed_s, "1/s"),
            metric("wait_ms_p50", median(&self.wait_ms), "ms"),
            metric("wait_ms_p90", quantile(&self.wait_ms, 0.9), "ms"),
            metric(
                "best_f1",
                mean(&qualities.iter().map(|q| q.best_f1).collect::<Vec<_>>()),
                "f1",
            ),
            metric(
                "labels_to_converge",
                mean(
                    &qualities
                        .iter()
                        .map(|q| q.labels_to_converge)
                        .collect::<Vec<_>>(),
                ),
                "labels",
            ),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Totals of one traced op, keyed by span or counter name (`op` is the
/// op's wall time; times in ms).
pub type OpTotals = BTreeMap<&'static str, f64>;

/// How span totals nest into ledger layers: each entry is
/// `(span, ledger layer, child spans)`. A layer's self time is its span
/// total minus its children's totals; `op` minus its children is `other`.
pub type Tree = &'static [(&'static str, &'static str, &'static [&'static str])];

/// The in-process ledger: block → featurize → AL session → predict.
pub const INPROC_TREE: Tree = &[
    ("op", "other", &["block", "featurize", "session", "predict"]),
    ("block", "block", &[]),
    ("featurize", "featurize", &[]),
    ("session", "session", &["train", "eval", "select"]),
    ("train", "train", &[]),
    ("eval", "eval", &[]),
    ("select", "select", &[]),
    ("predict", "predict", &[]),
];

/// The served ledger: client call → server request → AL work and
/// checkpoint writes.
pub const SERVE_TREE: Tree = &[
    ("op", "other", &["wire.call"]),
    ("wire.call", "wire", &["serve.request"]),
    (
        "serve.request",
        "fleet",
        &["train", "eval", "select", "checkpoint.write"],
    ),
    ("train", "train", &[]),
    ("eval", "eval", &[]),
    ("select", "select", &[]),
    ("checkpoint.write", "store", &[]),
];

/// Every ledger layer, in report order.
const LEDGER_LAYERS: [&str; 11] = [
    "block",
    "featurize",
    "session",
    "train",
    "eval",
    "select",
    "predict",
    "wire",
    "fleet",
    "store",
    "other",
];

/// Raw per-layer measurements of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Totals of each traced op.
    pub ops: Vec<OpTotals>,
    /// Wave-completing deliveries (in process) or requests (served), ms.
    pub wave_ms: Vec<f64>,
    /// Individual wire calls of traced ops, ms.
    pub call_ms: Vec<f64>,
    /// Server query-to-batch spans of traced ops, ms.
    pub q2b_ms: Vec<f64>,
    /// Op wall times with tracing on and off, interleaved in one run, s.
    pub traced_op_s: Vec<f64>,
    pub untraced_op_s: Vec<f64>,
    /// Blocking and featurization measured in set-up rather than per op
    /// (`learn-cora`): `(block ms, pairs, featurize ms)` per repetition.
    pub setup_build: Vec<(f64, f64, f64)>,
    /// Admission rejections the server counted over the whole run.
    pub busy_rejects: f64,
}

impl Layers {
    /// Mean over traced ops of total `key`.
    fn per_op(&self, key: &str) -> f64 {
        mean(
            &self
                .ops
                .iter()
                .map(|o| o.get(key).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    }

    /// Mean self time per op of each ledger layer under `tree`.
    pub fn ledger(&self, tree: Tree) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> =
            LEDGER_LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for &(span, layer, children) in tree {
            let children_total: f64 = children.iter().map(|c| self.per_op(c)).sum();
            *out.entry(layer).or_insert(0.0) += self.per_op(span) - children_total;
        }
        out
    }

    pub fn metrics(&self, tree: Tree) -> Vec<Metric> {
        let (block_ms, block_pairs, featurize_ms, featurize_pairs) = if self.setup_build.is_empty()
        {
            (
                self.per_op("block"),
                self.per_op("block.pairs"),
                self.per_op("featurize"),
                self.per_op("block.pairs"),
            )
        } else {
            let col = |f: fn(&(f64, f64, f64)) -> f64| {
                median(&self.setup_build.iter().map(f).collect::<Vec<_>>())
            };
            let pairs = col(|b| b.1);
            (col(|b| b.0), pairs, col(|b| b.2), pairs)
        };
        let call_ms = self.per_op("wire.call");
        let request_ms = self.per_op("serve.request");
        let mut out = vec![
            metric("block.ms", block_ms, "ms"),
            metric("block.pairs", block_pairs, "count"),
            metric("featurize.ms", featurize_ms, "ms"),
            metric(
                "featurize.pairs_per_s",
                featurize_pairs / (featurize_ms / 1e3),
                "1/s",
            ),
            metric("session.wave_ms", median(&self.wave_ms), "ms"),
            metric("train.ms", self.per_op("train"), "ms"),
            metric("select.ms", self.per_op("select"), "ms"),
            metric("eval.ms", self.per_op("eval"), "ms"),
            metric(
                "select.pairs_scored",
                self.per_op("select.pairs_scored"),
                "count",
            ),
            metric("predict.ms", self.per_op("predict"), "ms"),
            metric("wire.call_ms_p50", median(&self.call_ms), "ms"),
            metric("wire.calls_per_op", self.per_op("wire.calls"), "count"),
            metric("fleet.request_ms", request_ms, "ms"),
            metric("wire.busy_frac", request_ms / call_ms, "fraction"),
            metric("fleet.q2b_ms_p50", median(&self.q2b_ms), "ms"),
            metric("store.checkpoint_ms", self.per_op("checkpoint.write"), "ms"),
            metric(
                "store.checkpoints",
                self.per_op("store.checkpoints"),
                "count",
            ),
            metric("fleet.busy_rejects", self.busy_rejects, "count"),
            metric(
                "trace.overhead_frac",
                median(&self.traced_op_s) / median(&self.untraced_op_s) - 1.0,
                "fraction",
            ),
        ];
        let op_ms = self.per_op("op");
        for (layer, self_ms) in self.ledger(tree) {
            out.push(metric(&format!("ledger.{layer}.self_ms"), self_ms, "ms"));
            out.push(metric(
                &format!("ledger.{layer}.share"),
                self_ms / op_ms,
                "fraction",
            ));
        }
        out
    }

    /// The ledger as a table for standard error.
    pub fn table(&self, tree: Tree) -> String {
        let op_ms = self.per_op("op");
        let mut s = format!(
            "ledger over {} traced op(s), {:.1} ms/op:\n",
            self.ops.len(),
            op_ms
        );
        for (layer, self_ms) in self.ledger(tree) {
            if self_ms != 0.0 {
                s.push_str(&format!(
                    "  {layer:<10} {self_ms:>10.2} ms  {:>6.1}%\n",
                    100.0 * self_ms / op_ms
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_subtracts_children_and_leaves_other() {
        let mut op = OpTotals::new();
        op.insert("op", 100.0);
        op.insert("featurize", 60.0);
        op.insert("session", 30.0);
        op.insert("train", 10.0);
        op.insert("select", 5.0);
        let layers = Layers {
            ops: vec![op],
            ..Layers::default()
        };
        let l = layers.ledger(INPROC_TREE);
        assert_eq!(l["featurize"], 60.0);
        assert_eq!(l["session"], 15.0);
        assert_eq!(l["train"], 10.0);
        assert_eq!(l["other"], 10.0);
        assert_eq!(l.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("a.b", 1.5, "ms"), metric("c", f64::NAN, "s")],
        };
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
