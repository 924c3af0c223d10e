#!/usr/bin/env python3
"""Small-size self-test of the pipeline benchmark.

    python3 pipebench/selftest.py

Run from the repository root. Runs the benchmark's unit tests, then every
workload of BENCHMARK.json untraced and traced at self-test sizes
(`--small`, one second each), and checks that:

* the last line of standard output is the JSON result, with no failed op;
* every metric BENCHMARK.json names is printed, with its declared unit;
* the per-seed fingerprint lines are printed;
* a traced run's ledger accounts for the whole op, and the layers each
  workload exercises (and only those) have self time;
* the command fails, printing no result, in a directory that holds only
  BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_workload(spec, workload, trace):
    p = run(spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                               "--trace", str(trace), "--small"])
    label = f"{workload} --trace {trace}"
    assert p.returncode == 0, f"{label} exited {p.returncode}:\n{p.stderr[-3000:]}"
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{label}: not correct"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed op(s)"
    assert result["attempted"] >= 1, f"{label}: no op attempted"
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, \
        f"{label}: metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}"
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], f"{label}: {m['name']} unit {value['unit']}"
        assert isinstance(value["value"], (int, float)), f"{label}: {m['name']}"
    assert any(l.startswith(f"fingerprint {workload} seed=") for l in lines), \
        f"{label}: no per-seed fingerprint line"
    if trace:
        check_ledger(label, workload, {k[len("ledger."):-len(".share")]: v["value"]
                                       for k, v in got.items()
                                       if k.startswith("ledger.") and k.endswith(".share")})
    print(f"ok   {label}: {result['attempted']} op(s)")


# Layers with self time on each workload; every other layer must have none.
LAYERS = {
    "match-abtbuy": {"block", "featurize", "session", "train", "eval", "select", "predict"},
    "learn-cora": {"session", "train", "eval", "select"},
    "serve-tcp": {"wire", "fleet", "store", "train", "eval", "select"},
}


def check_ledger(label, workload, shares):
    total = sum(shares.values())
    assert abs(total - 1.0) < 0.02, f"{label}: ledger shares sum to {total}"
    for layer, share in shares.items():
        if layer == "other":
            continue
        busy = layer in LAYERS[workload]
        assert (share > 0) == busy, f"{label}: layer {layer} has share {share}"
    top = max(shares, key=shares.get)
    print(f"     {label}: largest layer {top} ({shares[top]:.2f} of op time)")


def check_fails_alone(spec):
    """Without the rest of the repository the build must fail cleanly."""
    alone = os.path.join(ROOT, ".bench_work", "selftest-alone")
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(alone)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(alone, path))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=alone, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(alone, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(alone))
    except OSError:
        pass  # a benchmark run still uses it
    assert p.returncode != 0, "the benchmark ran without the repository"
    assert '"metrics"' not in p.stdout, "a result was printed without the repository"
    print("ok   fails without the repository")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    os.environ.update(env)
    unit = run(["cargo", "test", "--release", "--offline", "--locked", "--quiet",
                "--manifest-path", os.path.join(HERE, "Cargo.toml")])
    assert unit.returncode == 0, f"unit tests failed:\n{unit.stdout[-3000:]}{unit.stderr[-3000:]}"
    print("ok   unit tests")
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
    check_fails_alone(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
