//! The `serve-tcp` workload: a spawned `alem-serve` over loopback TCP,
//! driven by two closed-loop client connections that each run whole AL
//! sessions back to back and answer with the ground truth.

use crate::report::{EndToEnd, Layers, OpTotals, Outcome, SERVE_TREE};
use crate::stats::{fnv64, ms, peak_rss_mb, Quality};
use crate::{Plan, SETUPS};
use alem_obs::Registry;
use alem_par::Parallelism;
use alem_serve::client::Client;
use alem_serve::dataset;
use alem_serve::proto::{Request, Response};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client connections: one per core of the host.
const CLIENTS: usize = 2;
/// The server checkpoints every session every this many iterations.
const CHECKPOINT_EVERY: usize = 3;
const STRATEGY: &str = "trees20";

/// A running `alem-serve` child. Dropping it kills and reaps the
/// process; [`Server::drain`] stops it gracefully and returns its
/// telemetry.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    metrics_path: PathBuf,
}

impl Server {
    fn spawn(bin: &Path, dir: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let metrics_path = dir.join("server-metrics.jsonl");
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0", "--checkpoint-every"])
            .arg(CHECKPOINT_EVERY.to_string())
            .arg("--state-dir")
            .arg(dir.join("state"))
            .arg("--metrics-out")
            .arg(&metrics_path)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("alem-serve has no stdout pipe".into());
        };
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
            metrics_path,
        };
        let mut line = String::new();
        loop {
            line.clear();
            match server.stdout.read_line(&mut line) {
                Ok(0) => return Err("alem-serve exited before listening".into()),
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("alem-serve: listening on ") {
                        server.addr = addr.to_string();
                        return Ok(server);
                    }
                }
                Err(e) => return Err(format!("reading alem-serve stdout: {e}")),
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to drain, wait for it to exit, and return the
    /// telemetry events it wrote.
    fn drain(mut self) -> Result<String, String> {
        let mut admin = Client::connect_tcp(&self.addr).map_err(|e| e.to_string())?;
        let resp = admin
            .call(&Request::new("drain"))
            .map_err(|e| e.to_string())?;
        if !resp.ok {
            return Err(format!("drain refused: {:?}", resp.error));
        }
        drop(admin);
        let t = Instant::now();
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if t.elapsed() > Duration::from_secs(60) {
                return Err("alem-serve did not exit after drain".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        std::fs::read_to_string(&self.metrics_path)
            .map_err(|e| format!("reading {}: {e}", self.metrics_path.display()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What the workload knows before timing starts.
struct Setup {
    server: Server,
    spec: String,
    truths: Vec<bool>,
    /// In-process fault-free fingerprint of each AL seed.
    reference: BTreeMap<u64, String>,
}

fn setup(plan: &Plan, seeds: &[u64], dir: &Path) -> Result<Setup, String> {
    let n = if plan.small { 2_000 } else { 100_000 };
    let spec = format!("synth:{n}:{}", plan.seed);
    let server = Server::spawn(&plan.serve_bin, dir)?;
    let corpus = dataset::build(&spec).map_err(|e| e.to_string())?;
    let truths = corpus.truths().to_vec();
    let mut reference = BTreeMap::new();
    for &seed in seeds {
        let strategy = alem_serve::fleet::build_strategy(STRATEGY).map_err(|e| e.to_string())?;
        let fp = dataset::reference_fingerprint(&spec, seed, strategy, &dataset::default_params())
            .map_err(|e| e.to_string())?;
        reference.insert(seed, fp);
    }
    Ok(Setup {
        server,
        spec,
        truths,
        reference,
    })
}

/// One served session as the client saw it.
struct Session {
    fingerprint: String,
    /// Last answer of a batch wave sent → the next wave (or `done`) polled.
    waits: Vec<f64>,
    calls: usize,
    call_ms: Vec<f64>,
}

fn call(
    client: &mut Client,
    obs: &Registry,
    req: &Request,
    s: &mut Session,
) -> Result<Response, String> {
    let span = obs.span("wire.call");
    let resp = client.call(req);
    let dur = span.finish();
    s.calls += 1;
    if obs.is_enabled() {
        s.call_ms.push(ms(dur));
    }
    let resp = resp.map_err(|e| format!("{} call failed: {e}", req.op))?;
    if resp.ok {
        Ok(resp)
    } else {
        Err(format!(
            "{} refused: {:?} {:?}",
            req.op, resp.error, resp.detail
        ))
    }
}

/// Run session `name` from `open` to `done`, polling back to back.
fn session(
    client: &mut Client,
    su: &Setup,
    name: &str,
    seed: u64,
    obs: &Registry,
) -> Result<Session, String> {
    let mut s = Session {
        fingerprint: String::new(),
        waits: Vec::new(),
        calls: 0,
        call_ms: Vec::new(),
    };
    let mut resp = call(
        client,
        obs,
        &Request::open(name, &su.spec, seed, STRATEGY),
        &mut s,
    )?;
    loop {
        match resp.state.as_deref() {
            Some("done") => {
                s.fingerprint = resp.fingerprint.ok_or("done without a fingerprint")?;
                return Ok(s);
            }
            Some("awaiting_answers") => {}
            other => {
                return Err(format!(
                    "session {name} in state {other:?}: {:?}",
                    resp.detail
                ))
            }
        }
        let wave = resp.pending.clone().unwrap_or_default();
        if wave.is_empty() {
            resp = call(client, obs, &Request::poll(name), &mut s)?;
            continue;
        }
        // Seed-phase queries come one at a time before the first
        // iteration; only batch waves count as a labeler's wait.
        let batch = resp.iterations.unwrap_or(0) >= 1;
        let mut last_sent = Instant::now();
        for &example in &wave {
            let truth = *su
                .truths
                .get(example)
                .ok_or_else(|| format!("server asked for unknown example {example}"))?;
            last_sent = Instant::now();
            call(client, obs, &Request::answer(name, example, truth), &mut s)?;
        }
        loop {
            resp = call(client, obs, &Request::poll(name), &mut s)?;
            if resp.state.as_deref() != Some("awaiting_answers")
                || resp.pending.as_ref().is_some_and(|p| !p.is_empty())
            {
                break;
            }
        }
        if batch {
            s.waits.push(ms(last_sent.elapsed()));
        }
    }
}

/// One finished op as recorded by a client thread.
struct Done {
    seed: u64,
    op_s: f64,
    result: Result<Session, String>,
    /// The trace id of a traced op, with its client-side span totals.
    traced: Option<(String, OpTotals)>,
}

fn client_loop(
    su: &Setup,
    plan: &Plan,
    seeds: &[u64],
    next: &AtomicUsize,
    t_run: Instant,
) -> Result<Vec<Done>, String> {
    let mut client = Client::connect_tcp(&su.server.addr).map_err(|e| e.to_string())?;
    let mut done = Vec::new();
    loop {
        let k = next.fetch_add(1, Ordering::SeqCst);
        if !plan.more(k, t_run.elapsed().as_secs_f64(), CLIENTS) {
            return Ok(done);
        }
        let (seed, traced) = plan.op(k, seeds);
        let name = format!("pb-{k}");
        let obs = if traced {
            Registry::enabled()
        } else {
            Registry::disabled()
        };
        client.set_trace_id(traced.then_some(name.as_str()));
        let t = Instant::now();
        let result = session(&mut client, su, &name, seed, &obs);
        let op_s = t.elapsed().as_secs_f64();
        client.set_trace_id(None);
        let traced = traced.then(|| {
            let mut totals = OpTotals::new();
            totals.insert("op", op_s * 1e3);
            if let Ok(s) = &result {
                totals.insert("wire.call", s.call_ms.iter().sum());
                totals.insert("wire.calls", s.calls as f64);
            }
            (name.clone(), totals)
        });
        let failed = result.is_err();
        done.push(Done {
            seed,
            op_s,
            result,
            traced,
        });
        if failed {
            // The connection may be out of step with the server; start
            // the next op on a fresh one.
            client = Client::connect_tcp(&su.server.addr).map_err(|e| e.to_string())?;
        }
    }
}

/// One span or counter event of the server's telemetry.
struct ServerEvent<'a> {
    span: bool,
    name: &'a str,
    value: f64,
    ts_us: u64,
    tid: u64,
    trace: Option<&'a str>,
}

/// Value of `key` in one flat JSONL object written by `alem-obs`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        s.find('"').map(|end| &s[..end])
    } else {
        rest.find([',', '}']).map(|end| &rest[..end])
    }
}

fn parse_event(line: &str) -> Option<ServerEvent<'_>> {
    let kind = field(line, "type")?;
    let span = kind == "span";
    if !span && kind != "counter" {
        return None;
    }
    let num = |k| field(line, k).and_then(|v| v.parse::<u64>().ok());
    Some(ServerEvent {
        span,
        name: field(line, "span")?,
        value: num(if span { "dur_us" } else { "value" })? as f64,
        ts_us: num("ts_us")?,
        tid: num("tid")?,
        trace: field(line, "trace_id"),
    })
}

/// Fold the server's events for traced ops into their totals, and the
/// run-wide admission rejections into `layers`.
fn read_server_events(jsonl: &str, ops: &mut BTreeMap<String, OpTotals>, layers: &mut Layers) {
    let events: Vec<ServerEvent> = jsonl.lines().filter_map(parse_event).collect();
    // Requests that ran an iteration: a `train` span starts inside them
    // on the same connection thread.
    let trains: BTreeSet<(u64, u64)> = events
        .iter()
        .filter(|e| e.span && e.name == "train")
        .map(|e| (e.tid, e.ts_us))
        .collect();
    for e in &events {
        if !e.span && e.name == "serve.backpressure_rejects" {
            layers.busy_rejects += e.value;
        }
        let Some(totals) = e.trace.and_then(|t| ops.get_mut(t)) else {
            continue;
        };
        let ms = e.value / 1e3;
        match (e.span, e.name) {
            (true, "serve.request") => {
                let end = e.ts_us + e.value as u64;
                if trains
                    .range((e.tid, e.ts_us)..=(e.tid, end))
                    .next()
                    .is_some()
                {
                    layers.wave_ms.push(ms);
                }
                *totals.entry("serve.request").or_insert(0.0) += ms;
            }
            (true, "serve.query_to_batch") => layers.q2b_ms.push(ms),
            (true, "checkpoint.write") => {
                *totals.entry("checkpoint.write").or_insert(0.0) += ms;
                *totals.entry("store.checkpoints").or_insert(0.0) += 1.0;
            }
            (true, "train") => *totals.entry("train").or_insert(0.0) += ms,
            (true, "eval") => *totals.entry("eval").or_insert(0.0) += ms,
            (true, "select") => *totals.entry("select").or_insert(0.0) += ms,
            (false, "select.pairs_scored") => {
                *totals.entry("select.pairs_scored").or_insert(0.0) += e.value;
            }
            _ => {}
        }
    }
}

pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let seeds = plan.al_seeds(if plan.small { 2 } else { 32 });
    let dir = plan.work_dir.join(format!("serve-{}", std::process::id()));
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();

    // Set up several times and keep the last: spawn the server, build the
    // client's answer key, compute the reference fingerprints.
    let mut su: Option<Setup> = None;
    for i in 0..SETUPS {
        if let Some(old) = su.take() {
            old.server.drain()?;
        }
        let t = Instant::now();
        su = Some(setup(plan, &seeds, &dir.join(format!("setup-{i}")))?);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
    }
    let su = su.ok_or("no set-up ran")?;

    let next = AtomicUsize::new(0);
    let t_run = Instant::now();
    let jobs: Vec<_> = (0..CLIENTS)
        .map(|_| || client_loop(&su, plan, &seeds, &next, t_run))
        .collect();
    let results = Parallelism::fixed(CLIENTS).run(jobs);
    e2e.timed_s = t_run.elapsed().as_secs_f64();
    e2e.peak_rss_mb = peak_rss_mb(Some(su.server.pid()))?;

    let mut traced_ops: BTreeMap<String, OpTotals> = BTreeMap::new();
    let mut served: BTreeMap<u64, usize> = BTreeMap::new();
    for r in results {
        for d in r? {
            out.attempted += 1;
            let s = match d.result {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("pipebench: serve-tcp seed {} failed: {e}", d.seed);
                    out.failed += 1;
                    continue;
                }
            };
            if su.reference.get(&d.seed) != Some(&s.fingerprint) {
                eprintln!(
                    "pipebench: serve-tcp seed {}: served fingerprint differs from the in-process reference",
                    d.seed
                );
                out.failed += 1;
                continue;
            }
            e2e.op_s.push(d.op_s);
            e2e.wait_ms.extend(&s.waits);
            *served.entry(d.seed).or_insert(0) += 1;
            match d.traced {
                Some((trace, totals)) => {
                    layers.call_ms.extend(&s.call_ms);
                    layers.traced_op_s.push(d.op_s);
                    traced_ops.insert(trace, totals);
                }
                None => layers.untraced_op_s.push(d.op_s),
            }
        }
    }
    let jsonl = su.server.drain()?;
    read_server_events(&jsonl, &mut traced_ops, &mut layers);
    layers.ops = traced_ops.into_values().collect();
    let _ = std::fs::remove_dir_all(&dir);

    // Quality is read from the reference runs: a served session that
    // completes must reproduce its seed's reference byte for byte, and the
    // whole seed list is covered even when a run serves only a few seeds.
    for (seed, fp) in &su.reference {
        let q = Quality::of_fingerprint(fp)?;
        e2e.quality.insert(*seed, q);
        println!(
            "fingerprint serve-tcp seed={seed} run={:016x} served={} best_f1={} labels_to_converge={}",
            fnv64(fp),
            served.get(seed).copied().unwrap_or(0),
            q.best_f1,
            q.labels_to_converge
        );
    }
    eprintln!("pipebench: serve-tcp: {}", e2e.sample_counts());
    if plan.trace {
        eprint!("{}", layers.table(SERVE_TREE));
        out.metrics = layers.metrics(SERVE_TREE);
    } else {
        out.metrics = e2e.metrics();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_traced_server_events() {
        let jsonl = "\
{\"type\":\"span\",\"run\":\"alem-serve\",\"span\":\"serve.request\",\"id\":3,\"parent\":0,\"iter\":1,\"ts_us\":100,\"dur_us\":50,\"tid\":2,\"trace_id\":\"pb-1\"}
{\"type\":\"span\",\"run\":\"alem-serve\",\"span\":\"train\",\"id\":4,\"parent\":3,\"iter\":1,\"ts_us\":110,\"dur_us\":20,\"tid\":2,\"trace_id\":\"pb-1\"}
{\"type\":\"span\",\"run\":\"alem-serve\",\"span\":\"serve.request\",\"id\":5,\"parent\":0,\"iter\":1,\"ts_us\":200,\"dur_us\":10,\"tid\":2,\"trace_id\":\"pb-1\"}
{\"type\":\"span\",\"run\":\"alem-serve\",\"span\":\"serve.request\",\"id\":6,\"parent\":0,\"iter\":1,\"ts_us\":300,\"dur_us\":10,\"tid\":3}
{\"type\":\"counter\",\"run\":\"alem-serve\",\"span\":\"serve.backpressure_rejects\",\"id\":0,\"parent\":0,\"iter\":0,\"ts_us\":5,\"dur_us\":0,\"tid\":1,\"value\":2}
{\"type\":\"hist\",\"run\":\"alem-serve\",\"span\":\"train\",\"iter\":1,\"dur_us\":0,\"count\":1,\"sum_us\":20,\"p50_us\":20,\"p90_us\":20,\"p99_us\":20}
";
        let mut ops = BTreeMap::from([("pb-1".to_string(), OpTotals::new())]);
        let mut layers = Layers::default();
        read_server_events(jsonl, &mut ops, &mut layers);
        let t = &ops["pb-1"];
        assert!((t["serve.request"] - 0.06).abs() < 1e-12);
        assert_eq!(t["train"], 0.02);
        // Only the request that ran the iteration is a wave.
        assert_eq!(layers.wave_ms, vec![0.05]);
        assert_eq!(layers.busy_rejects, 2.0);
    }
}
