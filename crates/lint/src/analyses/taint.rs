//! Determinism taint: nondeterminism sources propagated along the call
//! graph into fingerprint-relevant sinks.
//!
//! The benchmark's comparability claim rests on byte-identical
//! fingerprints for a given `(strategy, dataset, seed, thread-count)`
//! tuple. Anything that can observe ambient machine state — the OS RNG,
//! wall clocks, `HashMap`/`HashSet` iteration order, thread identity,
//! `Relaxed` atomic loads — is a taint **source**; the functions whose
//! output lands in a fingerprint, a checkpoint, or a selector decision
//! are **sinks**. A sink that can transitively call a source-containing
//! function gets one `determinism-taint` finding carrying the full taint
//! path (`sink -> … -> source: kind`).
//!
//! This is call-graph reachability, not value-level dataflow: a spurious
//! path costs an annotated review (`allow(determinism-taint) -- reason`),
//! a missed one costs a silently diverging fingerprint. Sources covered
//! by the lexical determinism rules honor those rules' allow annotations
//! too, so a site vetted once stays vetted for both layers.

use super::{route_to, walk_route, Semantic};
use crate::rules::Finding;
use std::collections::BTreeMap;

/// Crates where hash-container iteration counts as a source; elsewhere
/// hash containers are membership-only by convention (lexical rule
/// `determinism-hash-iter` polices `core` line-by-line).
const HASH_SOURCE_CRATES: &[&str] = &["core", "datagen"];

/// Identifiers that read ambient machine state.
const AMBIENT_IDENTS: &[(&str, &str, &str)] = &[
    ("thread_rng", "ambient rng", "determinism-rng"),
    ("from_entropy", "ambient rng", "determinism-rng"),
    ("ThreadRng", "ambient rng", "determinism-rng"),
    ("OsRng", "ambient rng", "determinism-rng"),
    ("SystemTime", "wall clock", "determinism-rng"),
    ("Instant", "wall clock", "determinism-time"),
    ("ThreadId", "thread id", "determinism-taint"),
    ("HashMap", "hash iteration order", "determinism-hash-iter"),
    ("HashSet", "hash iteration order", "determinism-hash-iter"),
];

/// A fingerprint-relevant sink and why it matters.
fn sink_kind(sem: &Semantic, sym: usize) -> Option<&'static str> {
    let s = &sem.ws.symbols[sym];
    let item = sem.ws.item_of(sym);
    if s.name == "deterministic_fingerprint" {
        return Some("fingerprint");
    }
    if s.name == "select" && item.impl_type.is_some() {
        return Some("select impl");
    }
    if s.name == "save_checkpoint" || s.name == "write_checkpoint" {
        return Some("checkpoint write");
    }
    if item.impl_type.as_deref() == Some("SessionMachine") {
        return Some("SessionMachine transition");
    }
    None
}

/// Run the determinism-taint analysis over the workspace graph.
pub fn run(sem: &Semantic) -> Vec<Finding> {
    let ws = &sem.ws;

    // Direct sources per symbol: (offset, kind).
    let mut sources: BTreeMap<usize, (usize, String)> = BTreeMap::new();
    for sym in 0..ws.symbols.len() {
        if !sem.traversable(sym) {
            continue;
        }
        let krate = ws.symbols[sym].krate.clone();
        let file = ws.symbols[sym].file;
        let code = ws.files[file].lexed.code.clone();
        let mut found: Option<(usize, String)> = None;
        for (word, offset) in idents_in(&code, &ws.body_regions(sym)) {
            let kind = classify_source(&code, word, offset, &krate);
            let Some((kind, lexical_rule)) = kind else {
                continue;
            };
            let (line, _) = ws.files[file].lexed.position(offset);
            if sem.allowed(file, &["determinism-taint", lexical_rule], line) {
                continue;
            }
            found = Some((offset, kind.to_string()));
            break;
        }
        if let Some(f) = found {
            sources.insert(sym, f);
        }
    }

    let targets: Vec<usize> = sources.keys().copied().collect();
    let route = route_to(ws, &targets, &|s| sem.traversable(s));

    let mut findings = Vec::new();
    for sink in 0..ws.symbols.len() {
        if !sem.traversable(sink) {
            continue;
        }
        let Some(kind) = sink_kind(sem, sink) else {
            continue;
        };
        if route[sink].is_none() {
            continue;
        }
        let path = walk_route(&route, sink);
        let terminal = *path.last().expect("path starts at sink");
        let (src_offset, src_kind) = &sources[&terminal];
        let (line, col) = ws.position_of(sink);
        if sem.allowed(ws.symbols[sink].file, &["determinism-taint"], line) {
            continue;
        }
        let mut chain: Vec<_> = path.iter().map(|&s| sem.frame(s, "")).collect();
        let last = chain.last_mut().expect("non-empty chain");
        let (src_line, _) = ws.file_of(terminal).lexed.position(*src_offset);
        last.line = src_line;
        last.note = src_kind.clone();
        let chain_text = chain
            .iter()
            .map(|f| f.symbol.as_str())
            .collect::<Vec<_>>()
            .join(" -> ");
        let message = format!(
            "nondeterminism can reach {kind} `{}`: {chain_text}: {src_kind}",
            ws.symbols[sink].display
        );
        findings.push(
            Finding::new(
                "determinism-taint",
                ws.file_of(sink).rel.clone(),
                line,
                col,
                message,
            )
            .with_chain(chain),
        );
    }
    findings
}

/// Classify one identifier occurrence as a taint source.
fn classify_source(
    code: &str,
    word: &str,
    offset: usize,
    krate: &str,
) -> Option<(&'static str, &'static str)> {
    for (ident, kind, rule) in AMBIENT_IDENTS {
        if word == *ident {
            if *kind == "hash iteration order" && !HASH_SOURCE_CRATES.contains(&krate) {
                return None;
            }
            return Some((kind, rule));
        }
    }
    if word == "current" && code[..offset].ends_with("thread::") {
        return Some(("thread id", "determinism-taint"));
    }
    if word == "Relaxed" {
        let pre = &code[..offset];
        if let Some(mut t) = pre.strip_suffix("Ordering::") {
            // Peel any `std::sync::atomic::` path prefix before `Ordering`.
            loop {
                let mut changed = false;
                for p in ["atomic::", "sync::", "std::", "core::"] {
                    if let Some(rest) = t.strip_suffix(p) {
                        t = rest;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            if t.trim_end().ends_with("load(") {
                return Some(("relaxed atomic load", "determinism-taint"));
            }
        }
    }
    None
}

/// All identifier occurrences in the given byte regions.
fn idents_in<'a>(code: &'a str, regions: &[(usize, usize)]) -> Vec<(&'a str, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for &(start, end) in regions {
        let mut i = start;
        while i < end.min(bytes.len()) {
            let b = bytes[i];
            let head = b.is_ascii_alphabetic() || b == b'_';
            if !head || (i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')) {
                i += 1;
                continue;
            }
            let s = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push((&code[s..i], s));
        }
    }
    out
}
