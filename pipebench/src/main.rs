//! `pipebench`: the end-to-end and per-layer benchmark of the alem
//! pipeline — candidates (`alem-block`), features (`Corpus`), the AL loop
//! (`SessionMachine`), prediction, and the service (`alem-serve`).
//!
//! ```text
//! pipebench --workload match-abtbuy|learn-cora|serve-tcp --seed N \
//!           --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR [--small]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` interleaves
//! traced and untraced ops and prints the per-layer ledger. The last line
//! of standard output is the JSON result; the lines before it are the
//! per-seed fingerprints. `run.py` builds this binary and `alem-serve` and
//! supplies `--serve-bin` and `--work-dir`. See README.md.

mod inproc;
mod report;
mod served;
mod stats;

use std::path::PathBuf;

/// Set-up repetitions per run; `setup_s` reports their median.
pub const SETUPS: usize = 3;

/// One run's parameters.
pub struct Plan {
    /// Workload seed: picks the generated tables and the AL seed list.
    pub seed: u64,
    /// How long ops keep starting.
    pub seconds: f64,
    /// Traced run (per-layer ledger) instead of end-to-end metrics.
    pub trace: bool,
    /// Self-test sizes instead of the benchmark's.
    pub small: bool,
    pub serve_bin: PathBuf,
    /// Scratch space for the server's state and telemetry.
    pub work_dir: PathBuf,
}

impl Plan {
    /// The workload's fixed list of `n` AL seeds.
    pub fn al_seeds(&self, n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| stats::mix64(self.seed ^ stats::mix64(i + 1)))
            .collect()
    }

    /// AL seed and tracing of op `k`. Untraced runs cycle through the
    /// seeds; traced runs run each seed twice in a row, untraced then
    /// traced, so the overhead compares identical work.
    pub fn op(&self, k: usize, seeds: &[u64]) -> (u64, bool) {
        if self.trace {
            (seeds[(k / 2) % seeds.len()], k % 2 == 1)
        } else {
            (seeds[k % seeds.len()], false)
        }
    }

    /// Whether op number `started` (0-based) should start `elapsed`
    /// seconds into the run: until time is up, and in any case until
    /// `min_ops` ops ran (traced runs: one op of each mode).
    pub fn more(&self, started: usize, elapsed: f64, min_ops: usize) -> bool {
        elapsed < self.seconds || started < if self.trace { 2 } else { min_ops }
    }
}

const USAGE: &str = "usage: pipebench --workload match-abtbuy|learn-cora|serve-tcp --seed N \
--seconds S --trace 0|1 --serve-bin PATH --work-dir DIR [--small]";

fn parse_args() -> Result<(String, Plan), String> {
    let mut workload = None;
    let mut plan = Plan {
        seed: 0,
        seconds: 10.0,
        trace: false,
        small: false,
        serve_bin: PathBuf::new(),
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--small" {
            plan.small = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => plan.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => plan.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => plan.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--serve-bin" => plan.serve_bin = PathBuf::from(value),
            "--work-dir" => plan.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok((workload.ok_or(USAGE)?, plan))
}

fn main() {
    let result = parse_args().and_then(|(workload, plan)| match workload.as_str() {
        "match-abtbuy" => inproc::run(inproc::Kind::MatchAbtBuy, &plan),
        "learn-cora" => inproc::run(inproc::Kind::LearnCora, &plan),
        "serve-tcp" => served::run(&plan),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    });
    match result {
        Ok(outcome) => println!("{}", outcome.json()),
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(1);
        }
    }
}
