//! The in-process workloads, `match-abtbuy` and `learn-cora`: one closed
//! loop on the benchmark's own thread, with two worker threads inside
//! blocking, featurization, training and scoring.

use crate::report::{EndToEnd, Layers, OpTotals, Outcome, INPROC_TREE};
use crate::stats::{fnv64, ms, peak_rss_mb, Quality};
use crate::{Plan, SETUPS};
use alem_block::TokenIndex;
use alem_core::candidates::{CandidateSource, PairHasher, DEFAULT_CHUNK};
use alem_core::corpus::Corpus;
use alem_core::error::AlemError;
use alem_core::evaluator::RunResult;
use alem_core::loop_::{EvalMode, LoopParams};
use alem_core::oracle::AnswerKey;
use alem_core::schema::{EmDataset, Pair};
use alem_core::session::{MachineState, SessionConfig, SessionMachine};
use alem_core::strategy::{Strategy, TreeQbcStrategy};
use alem_obs::{EventKind, Registry};
use alem_par::Parallelism;
use datagen::PaperDataset;
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker threads for every parallel stage: the host has two cores.
const THREADS: usize = 2;

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Each op is a whole job on generated Abt-Buy: block, featurize,
    /// AL session, predict every pair.
    MatchAbtBuy,
    /// Set-up blocks and featurizes generated Cora once; each op is one
    /// AL session on that corpus.
    LearnCora,
}

/// Replays candidate pairs that were already collected, so the
/// featurization call is timed without blocking again inside it.
struct Collected<'a>(&'a [Pair]);

impl CandidateSource for Collected<'_> {
    fn describe(&self) -> String {
        format!("collected({} pairs)", self.0.len())
    }

    fn size_hint(&self, _ds: &EmDataset) -> (usize, Option<usize>) {
        (self.0.len(), Some(self.0.len()))
    }

    fn stream(
        &self,
        _ds: &EmDataset,
        sink: &mut dyn FnMut(&[Pair]) -> Result<(), AlemError>,
    ) -> Result<(), AlemError> {
        self.0.chunks(DEFAULT_CHUNK).try_for_each(sink)
    }
}

/// Blocked and featurized tables.
struct Built {
    corpus: Corpus,
    /// `(candidate stream, corpus content)` fingerprints.
    fps: (u64, u64),
    block_ms: f64,
    featurize_ms: f64,
}

/// Block `ds` with the token index and featurize the pairs eagerly,
/// timing each layer with a span on `obs`.
fn build(ds: &EmDataset, threshold: f64, obs: &Registry) -> Result<Built, AlemError> {
    let par = Parallelism::fixed(THREADS);
    let span = obs.span("block");
    let pairs = TokenIndex::builder()
        .threshold(threshold)
        .parallelism(par)
        .build()
        .collect_pairs(ds)?;
    let block_ms = ms(span.finish());
    let mut hasher = PairHasher::new();
    hasher.eat_chunk(&pairs);
    let span = obs.span("featurize");
    let (corpus, _) = Corpus::from_candidates_with(ds, &Collected(&pairs), &par)?;
    let featurize_ms = ms(span.finish());
    Ok(Built {
        fps: (hasher.finish(), corpus.content_fingerprint()),
        corpus,
        block_ms,
        featurize_ms,
    })
}

/// One AL session answered with the ground truth. Returns the run and
/// the labeler's wait per batch wave: the duration of each `deliver`
/// that completes a wave and so runs an iteration. Seed-phase answers
/// are single queries and are not counted.
fn session(
    strategy: &mut TreeQbcStrategy,
    corpus: &Corpus,
    seed: u64,
    budget: usize,
    obs: &Registry,
) -> Result<(RunResult, Vec<f64>), AlemError> {
    let params = LoopParams {
        seed_size: 30,
        batch_size: 10,
        max_labels: budget,
        eval: EvalMode::Progressive,
        stop_at_f1: None,
    };
    let config = SessionConfig {
        obs: obs.clone(),
        parallelism: Parallelism::fixed(THREADS),
        ..SessionConfig::default()
    };
    let key = AnswerKey::perfect(seed);
    let mut waits = Vec::new();
    let span = obs.span("session");
    let mut machine = SessionMachine::new(strategy, params, config);
    machine.start(corpus, seed)?;
    while machine.state() == MachineState::AwaitingAnswers {
        let wave: Vec<usize> = machine.pending().iter().map(|q| q.example).collect();
        for example in wave {
            let closes_wave = machine.iterations_done() >= 1 && machine.pending().len() == 1;
            let wave_span = closes_wave.then(|| obs.span("session.wave"));
            let t = Instant::now();
            machine.deliver(corpus, example, key.answer(example, corpus.truth(example)))?;
            if let Some(s) = wave_span {
                waits.push(ms(t.elapsed()));
                s.finish();
            }
        }
    }
    let result = machine.take_result();
    span.finish();
    let result = result.ok_or_else(|| {
        AlemError::InvalidConfig(format!("session ended in state {:?}", machine.state()))
    })?;
    Ok((result, waits))
}

/// What one op produced.
struct OpOut {
    /// Run fingerprint, plus a hash of the predictions on `match-abtbuy`.
    fingerprint: String,
    quality: Quality,
    waits: Vec<f64>,
    /// `(candidate stream, corpus content)` fingerprints of the corpus used.
    build_fps: (u64, u64),
    pairs: usize,
}

fn quality(result: &RunResult) -> Quality {
    let curve: Vec<(usize, f64)> = result
        .iterations
        .iter()
        .map(|s| (s.labels_used, s.f1))
        .collect();
    Quality::of_curve(&curve)
}

/// Span totals of a traced op (ms), plus its counters.
fn totals(obs: &Registry, op_ms: f64, pairs: usize) -> (OpTotals, Vec<f64>) {
    let mut t = OpTotals::new();
    let mut waves = Vec::new();
    for e in obs.events() {
        if e.kind != EventKind::Span {
            continue;
        }
        let dur = e.value as f64 / 1e3;
        match e.name {
            "session.wave" => waves.push(dur),
            "block" | "featurize" | "session" | "predict" | "train" | "eval" | "select" => {
                *t.entry(e.name).or_insert(0.0) += dur;
            }
            _ => {}
        }
    }
    t.insert("op", op_ms);
    t.insert("block.pairs", pairs as f64);
    t.insert(
        "select.pairs_scored",
        obs.counter_value("select.pairs_scored") as f64,
    );
    (t, waves)
}

/// The workload's tables and, for `learn-cora`, its corpus (`match-abtbuy`
/// blocks and featurizes in every op).
struct State {
    ds: EmDataset,
    threshold: f64,
    built: Option<Built>,
}

fn setup(kind: Kind, plan: &Plan) -> Result<State, AlemError> {
    let (dataset, scale) = match kind {
        Kind::MatchAbtBuy => (PaperDataset::AbtBuy, if plan.small { 0.1 } else { 1.0 }),
        Kind::LearnCora => (PaperDataset::Cora, if plan.small { 0.03 } else { 0.25 }),
    };
    let cfg = dataset.config(scale);
    let ds = datagen::generate(&cfg, plan.seed);
    let built = match kind {
        Kind::MatchAbtBuy => None,
        Kind::LearnCora => Some(build(&ds, cfg.blocking_threshold, &Registry::disabled())?),
    };
    Ok(State {
        ds,
        threshold: cfg.blocking_threshold,
        built,
    })
}

fn op(state: &State, seed: u64, budget: usize, obs: &Registry) -> Result<OpOut, AlemError> {
    let mut strategy = TreeQbcStrategy::builder().trees(20).build();
    match &state.built {
        Some(b) => {
            let (result, waits) = session(&mut strategy, &b.corpus, seed, budget, obs)?;
            Ok(OpOut {
                fingerprint: result.deterministic_fingerprint(),
                quality: quality(&result),
                waits,
                build_fps: b.fps,
                pairs: 0,
            })
        }
        None => {
            let b = build(&state.ds, state.threshold, obs)?;
            let (result, waits) = session(&mut strategy, &b.corpus, seed, budget, obs)?;
            let span = obs.span("predict");
            let predicted: String = (0..b.corpus.len())
                .map(|i| {
                    if strategy.predict(&b.corpus, i) {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            span.finish();
            Ok(OpOut {
                fingerprint: format!(
                    "{}#predictions:{:016x}",
                    result.deterministic_fingerprint(),
                    fnv64(&predicted)
                ),
                quality: quality(&result),
                waits,
                build_fps: b.fps,
                pairs: b.corpus.len(),
            })
        }
    }
}

pub fn run(kind: Kind, plan: &Plan) -> Result<Outcome, String> {
    let name = match kind {
        Kind::MatchAbtBuy => "match-abtbuy",
        Kind::LearnCora => "learn-cora",
    };
    let budget = if plan.small { 80 } else { 300 };
    let seeds = plan.al_seeds(if plan.small { 2 } else { 16 });
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();

    // Set up several times and keep the last. Set-up ends with one
    // warm-up op on the first AL seed, so allocator and thread start-up
    // costs stay out of the timed ops; its fingerprints are the ones
    // every later op and every set-up repetition must reproduce.
    let mut state = None;
    let mut first_fp: BTreeMap<u64, String> = BTreeMap::new();
    let mut build_fps: Option<(u64, u64)> = None;
    let mut same = |fp: &str, seed: u64, fps: (u64, u64)| -> Result<(), String> {
        let expected = first_fp.entry(seed).or_insert_with(|| fp.to_string());
        if *expected != fp {
            return Err(format!(
                "seed {seed} run fingerprint changed within the run"
            ));
        }
        if *build_fps.get_or_insert(fps) != fps {
            return Err("candidate or corpus fingerprint changed within the run".into());
        }
        Ok(())
    };
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        let s = setup(kind, plan).map_err(|e| format!("{name} set-up: {e}"))?;
        let warm = op(&s, seeds[0], budget, &Registry::disabled())
            .map_err(|e| format!("{name} warm-up op: {e}"))?;
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        same(&warm.fingerprint, seeds[0], warm.build_fps)
            .map_err(|e| format!("{name} set-up: {e}"))?;
        e2e.quality.insert(seeds[0], warm.quality);
        if let Some(b) = &s.built {
            layers
                .setup_build
                .push((b.block_ms, b.corpus.len() as f64, b.featurize_ms));
        }
        state = Some(s);
    }
    let state = state.ok_or("no set-up ran")?;

    let t_run = Instant::now();
    let mut k = 0;
    // Every seed of the list runs at least once.
    while plan.more(k, t_run.elapsed().as_secs_f64(), seeds.len()) {
        let (seed, traced) = plan.op(k, &seeds);
        k += 1;
        out.attempted += 1;
        let obs = if traced {
            Registry::enabled()
        } else {
            Registry::disabled()
        };
        let t = Instant::now();
        let res = op(&state, seed, budget, &obs);
        let op_s = t.elapsed().as_secs_f64();
        let checked = res
            .map_err(|e| e.to_string())
            .and_then(|o| same(&o.fingerprint, seed, o.build_fps).map(|()| o));
        let o = match checked {
            Ok(o) => o,
            Err(e) => {
                eprintln!("pipebench: {name} op {k} (seed {seed}) failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        e2e.op_s.push(op_s);
        e2e.wait_ms.extend(&o.waits);
        e2e.quality.entry(seed).or_insert(o.quality);
        if traced {
            let (totals, waves) = totals(&obs, op_s * 1e3, o.pairs);
            layers.ops.push(totals);
            layers.wave_ms.extend(waves);
            layers.traced_op_s.push(op_s);
        } else {
            layers.untraced_op_s.push(op_s);
        }
    }
    e2e.timed_s = t_run.elapsed().as_secs_f64();
    e2e.peak_rss_mb = peak_rss_mb(None)?;

    if let Some((stream, content)) = build_fps {
        println!("fingerprint {name} candidates={stream:016x} corpus={content:016x}");
    }
    for (seed, fp) in &first_fp {
        let q = e2e.quality.get(seed).copied();
        println!(
            "fingerprint {name} seed={seed} run={:016x} best_f1={} labels_to_converge={}",
            fnv64(fp),
            q.map_or(0.0, |q| q.best_f1),
            q.map_or(0.0, |q| q.labels_to_converge)
        );
    }
    eprintln!("pipebench: {name}: {}", e2e.sample_counts());
    if plan.trace {
        eprint!("{}", layers.table(INPROC_TREE));
        out.metrics = layers.metrics(INPROC_TREE);
    } else {
        out.metrics = e2e.metrics();
    }
    Ok(out)
}
