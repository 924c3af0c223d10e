//! The docs may cite only harnesses that exist.
//!
//! README.md, DESIGN.md and EXPERIMENTS.md cite benchmark harnesses as
//! `benches/<name>.rs`, `--bench <name>`, `figures <id>` (in a code span)
//! or `--bin figures -- <id>`. Each bench must be a file under
//! `crates/bench/benches/` and each id a match arm of the `figures`
//! binary, so deleting a harness without fixing its docs fails here.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

/// `(line, name)` for every non-empty `[A-Za-z0-9_-]` run in `text` that
/// directly follows `marker` and is directly followed by `suffix`.
fn cited(text: &str, marker: &str, suffix: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices(marker) {
            let rest = &line[at + marker.len()..];
            let n = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(rest.len());
            if n > 0 && rest[n..].starts_with(suffix) {
                out.push((i + 1, rest[..n].to_string()));
            }
        }
    }
    out
}

/// How many harnesses `doc` cites, and `"<line>: <harness>"` for each
/// cited one that does not exist.
fn check(doc: &str) -> (usize, Vec<String>) {
    // Match-arm patterns of the `figures` binary: `"fig12" | "fig13" =>`.
    let src = read("crates/bench/src/bin/figures.rs");
    let arms: Vec<&str> = src
        .lines()
        .filter_map(|l| l.split_once("=>"))
        .flat_map(|(pat, _)| pat.split('|'))
        .map(|p| p.trim().trim_matches('"'))
        .collect();
    let benches = root().join("crates/bench/benches");
    let (mut n, mut missing) = (0, Vec::new());
    for (marker, suffix) in [("benches/", ".rs"), ("--bench ", "")] {
        for (line, b) in cited(doc, marker, suffix) {
            n += 1;
            if !benches.join(format!("{b}.rs")).is_file() {
                missing.push(format!("{line}: benches/{b}.rs"));
            }
        }
    }
    for marker in ["`figures ", "--bin figures -- "] {
        for (line, id) in cited(doc, marker, "") {
            n += 1;
            if !arms.contains(&id.as_str()) {
                missing.push(format!("{line}: figures {id}"));
            }
        }
    }
    (n, missing)
}

#[test]
fn docs_cite_only_existing_harnesses() {
    for name in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let (n, missing) = check(&read(name));
        // The scan must see the citations it guards, or it passes vacuously.
        assert!(n > 3, "{name}: only {n} harness citations found");
        assert!(
            missing.is_empty(),
            "{name} cites missing harnesses: {missing:?}"
        );
    }
}

#[test]
fn a_deleted_bench_or_figures_id_is_caught() {
    let doc = "\
| Per-learner training time | user-wait decomposition | `benches/training.rs` |
Run `cargo bench --bench selection_latency`, then `figures latency-breakdown`,
`figures fig13` and `--bin figures -- fig12`; see `benches/obs_overhead.rs`.
";
    let missing = [
        "1: benches/training.rs",
        "2: benches/selection_latency.rs",
        "2: figures latency-breakdown",
    ];
    assert_eq!(check(doc), (6, missing.map(String::from).to_vec()));
}
