//! `alem` — command-line active-learning entity matcher.
//!
//! ```text
//! alem match    --left a.csv --right b.csv [--columns name,price]
//!               (--truth truth.csv | --interactive)
//!               [--strategy trees20] [--budget 500] [--threshold 0.1875]
//!               [--output matches.csv] [--seed 42] [--threads N]
//!               [--warm-start] [--refresh-frac F]
//!               [--checkpoint-every N] [--checkpoint ckpt.json]
//!               [--resume ckpt.json]
//!               [--metrics-out metrics.jsonl] [--trace-out trace.json]
//!               [--trace-id ID]
//! alem predict  --model model.json --left a.csv --right b.csv
//!               [--threshold 0.1875] [--output matches.csv]
//! alem block    --left a.csv --right b.csv [--threshold 0.1875]
//! alem generate --dataset abt-buy [--scale 0.25] [--out-dir DIR] [--seed 42]
//! ```
//!
//! `match` runs the full pipeline on two CSV files with aligned columns:
//! blocking, featurization, then active learning driven either by a
//! ground-truth file (pairs of `left_row,right_row`, 0-based data rows)
//! or by *you*, answering y/n in the terminal. Predicted matches are
//! written as CSV.

#![forbid(unsafe_code)]

mod csv;
mod pipeline;

use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  alem match    --left L.csv --right R.csv (--truth T.csv | --interactive)\n\
         \x20                [--columns a,b,c] [--strategy trees20|trees10|margin|margin1dim|\n\
         \x20                 qbc10|ensemble|rules|nn] [--budget N] [--threshold J]\n\
         \x20                [--output OUT.csv] [--save-model M.json] [--seed N] [--threads N]\n\
         \x20                [--warm-start] [--refresh-frac F]\n\
         \x20                [--checkpoint-every N] [--checkpoint C.json] [--resume C.json]\n\
         \x20                [--metrics-out M.jsonl] [--trace-out T.json] [--trace-id ID]\n\
         \x20 alem predict  --model M.json --left L.csv --right R.csv [--output OUT.csv]\n\
         \x20 alem block    --left L.csv --right R.csv [--threshold J] [--columns a,b,c]\n\
         \x20 alem generate --dataset abt-buy|amazon-google|dblp-acm|dblp-scholar|cora|\n\
         \x20                walmart-amazon|amazon-bestbuy|beer|baby\n\
         \x20                [--scale S] [--out-dir DIR] [--seed N]"
    );
    exit(2);
}

/// Parsed `--flag value` arguments.
#[allow(dead_code)]
pub(crate) struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    pub(crate) fn parse(argv: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if matches!(name, "interactive" | "warm-start") {
                    switches.push(name.to_owned());
                    i += 1;
                } else {
                    let Some(value) = argv.get(i + 1) else {
                        usage()
                    };
                    flags.push((name.to_owned(), value.clone()));
                    i += 2;
                }
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Args {
            positional,
            flags,
            switches,
        }
    }

    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn require(&self, name: &str) -> &str {
        self.get(name).unwrap_or_else(|| {
            eprintln!("missing required --{name}");
            usage()
        })
    }

    pub(crate) fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv);
    let Some(cmd) = args.positional.first() else {
        usage()
    };
    let result = match cmd.as_str() {
        "match" => pipeline::cmd_match(&args),
        "predict" => pipeline::cmd_predict(&args),
        "block" => pipeline::cmd_block(&args),
        "generate" => pipeline::cmd_generate(&args),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}
