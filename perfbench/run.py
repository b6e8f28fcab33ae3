#!/usr/bin/env python3
"""The sixgen benchmark: one command per workload run.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. It builds `sixgen` and the
`perfbench` measuring tool from source (into $CARGO_TARGET_DIR, default
`.bench_build`), writes the seeded inputs, computes each input's reference
output with `sixgen generate` (untimed), then measures for --seconds and
verifies every output. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (one separate, traced pass). See perfbench/README.md.

    python3 perfbench/run.py --self-test     runs the benchmark's own tests
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("generate", "budget_flood", "fleet", "serve_jobs")
BATCH = ("generate", "budget_flood", "fleet")
# Batch iterations a timed run makes at least, however long they take.
MIN_ITERATIONS = 3
# Bare/traced iteration pairs of a traced batch run.
TRACE_PAIRS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("resume_s", "s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p95_ms", "ms"),
    ("ttlt_p50_ms", "ms"),
    ("ttlt_p95_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("targets_per_s", "1/s"),
)

PER_LAYER = (
    ("datasets.read_s", "s"),
    ("datasets.write_s", "s"),
    ("datasets.write_bytes", "bytes"),
    ("engine.new_s", "s"),
    ("engine.start_s", "s"),
    ("engine.rounds", "count"),
    ("engine.growths", "count"),
    ("engine.subsumed", "count"),
    ("engine.step_s", "s"),
    ("engine.step_p50_us", "us"),
    ("engine.step_p99_us", "us"),
    ("engine.phase.cache_fill_s", "s"),
    ("engine.phase.select_s", "s"),
    ("engine.phase.commit_s", "s"),
    ("engine.phase.subsume_s", "s"),
    ("engine.cache_recomputes", "count"),
    ("engine.final_step_s", "s"),
    ("engine.finish_s", "s"),
    ("checkpoint.count", "count"),
    ("checkpoint.snapshot_s", "s"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.bytes_mean", "bytes"),
    ("checkpoint.dir_bytes", "bytes"),
    ("checkpoint.sharded_load_s", "s"),
    ("checkpoint.sharded_bytes", "bytes"),
    ("shard.resume_s", "s"),
    ("shard.count", "count"),
    ("shard.epochs", "count"),
    ("shard.busy_sum_s", "s"),
    ("shard.busy_max_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.parallel_eff", "ratio"),
    ("shard.barrier_gap_s", "s"),
    ("routing.partition_s", "s"),
    ("job.create_ms", "ms"),
    ("job.first_batch_ms", "ms"),
    ("job.closed_ms", "ms"),
    ("http.post_ms_p50", "ms"),
    ("http.post_ms_p95", "ms"),
    ("http.first_byte_ms_p50", "ms"),
    ("http.healthz_ms_p95", "ms"),
    ("http.refused", "count"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_tool(cmd, what):
    """Runs a command, returning its stdout; stderr passes through."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if done.returncode != 0:
        raise BenchError(f"{what} failed (exit {done.returncode}): {' '.join(cmd)}")
    return done.stdout


def build(target):
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        raise BenchError("run from the root of a sixgen source checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "sixgen"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "sixgen"), os.path.join(release, "perfbench")


def tool_json(cmd, what):
    lines = run_tool(cmd, what).strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed nothing")
    return json.loads(lines[-1])


def prepare(tool, sixgen, workload, seed, work):
    """Writes inputs and reference outputs; nothing here is timed."""
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir = os.path.join(work, "inputs")
    refs = os.path.join(work, "refs")
    os.makedirs(refs)
    inputs = tool_json([tool, "gen", "--workload", workload, "--seed", str(seed), "--dir", inputs_dir], "input generation")
    for hitlist in inputs["hitlists"]:
        cmd = [sixgen, "generate", "--seeds", os.path.join(inputs_dir, hitlist["file"]),
               "--budget", str(hitlist["budget"]), "--out", os.path.join(refs, hitlist["file"])]
        if inputs["routes"]:
            cmd += ["--shards", str(inputs["workers"]), "--routes", os.path.join(inputs_dir, inputs["routes"])]
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if done.returncode != 0:
            raise BenchError(f"reference run failed: {' '.join(cmd)}")
    prep = None
    if workload in ("generate", "budget_flood"):
        prep = tool_json([tool, "prep", "--dir", inputs_dir], "mid-run checkpoint")
    return inputs, inputs_dir, refs, prep


def describe(inputs, prep):
    """The line that names exactly what a run measured."""
    hitlists = inputs["hitlists"]
    info = {
        "workload": inputs["workload"],
        "seed": inputs["seed"],
        "input_digest": inputs["digest"],
        "hitlists": [{"seeds": h["seeds"], "budget": h["budget"]} for h in hitlists],
    }
    if inputs["routes"]:
        info["routes"] = inputs["routes"]
        info["workers"] = inputs["workers"]
    if inputs["jobs"]:
        sizes = [hitlists[j]["seeds"] for j in inputs["jobs"]]
        info["job_mix"] = {str(s): sizes.count(s) for s in sorted(set(sizes))}
        info["checkpoint_every"] = inputs["checkpoint_every"]
    if prep:
        info["resume_from_round"] = prep["round"]
    return info


def batch_once(tool, inputs_dir, refs, work, trace):
    ref = os.path.join(refs, "seeds.txt")
    cmd = [tool, "batch", "--dir", inputs_dir, "--ref", ref, "--work", os.path.join(work, "run")]
    if trace:
        cmd.append("--trace")
    return tool_json(cmd, "batch iteration")


def result(correct, attempted, failed, values, units):
    metrics = {}
    for name, unit in units:
        value = values[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise BenchError(f"metric {name} has no value")
        # A percentile over failed operations is +inf, which JSON lacks.
        metrics[name] = {"value": value if math.isfinite(value) else None, "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def batch_timed(tool, inputs_dir, refs, work, seconds, info):
    iterations = []
    deadline = time.monotonic() + seconds
    while len(iterations) < MIN_ITERATIONS or time.monotonic() < deadline:
        iterations.append(batch_once(tool, inputs_dir, refs, work, trace=False))
    main_failed = sum(1 for it in iterations if it["errors"])
    resume_failed = sum(1 for it in iterations if it["resume_errors"])
    for it in iterations:
        for error in it["errors"] + it["resume_errors"]:
            log(f"check failed: {error}")
    ok = [it for it in iterations if not it["errors"]]
    walls = [it["wall_s"] for it in iterations]
    ttft_ms = [it["ttft_s"] * 1e3 if not it["errors"] else math.inf for it in iterations]
    ttlt_ms = [it["wall_s"] * 1e3 if not it["errors"] else math.inf for it in iterations]
    values = {
        "setup_s": stats.median([it["setup_s"] for it in iterations]),
        "wall_s": stats.median(walls),
        "peak_rss_mb": stats.median([it["peak_rss_mb"] for it in iterations]),
        "resume_s": stats.median([it["resume_s"] for it in iterations]),
        "ttft_p50_ms": stats.nearest_rank(ttft_ms, 0.50),
        "ttft_p95_ms": stats.tail_percentile(ttft_ms, 0.95)[0],
        "ttlt_p50_ms": stats.nearest_rank(ttlt_ms, 0.50),
        "ttlt_p95_ms": stats.tail_percentile(ttlt_ms, 0.95)[0],
        "jobs_per_s": len(ok) / sum(walls),
        "targets_per_s": sum(it["targets"] for it in ok) / sum(walls),
    }
    info["samples"] = len(iterations)
    info["p95_reported_as"] = stats.tail_percentile(walls, 0.95)[1]
    counts = {json.dumps(it["counts"], sort_keys=True) for it in iterations}
    deterministic = len(counts) == 1
    if not deterministic:
        log(f"deterministic counts differ between iterations: {sorted(counts)}")
    info["counts"] = iterations[0]["counts"]
    attempted = 2 * len(iterations)
    failed = main_failed + resume_failed
    return failed == 0 and deterministic, attempted, failed, values


def serve_report(tool, sixgen, inputs_dir, refs, work, seconds, trace):
    cmd = [tool, "load", "--dir", inputs_dir, "--refs", refs, "--work", os.path.join(work, "run"),
           "--sixgen", sixgen, "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    return tool_json(cmd, "serve load")


def serve_timed(tool, sixgen, inputs_dir, refs, work, seconds, info):
    report = serve_report(tool, sixgen, inputs_dir, refs, work, seconds, trace=False)
    jobs = report["jobs"]
    for job in jobs:
        if not job["ok"]:
            log(f"job failed: {job['error']}")
    ok = [j for j in jobs if j["ok"]]
    ttft = [j["ttft_ms"] if j["ok"] else math.inf for j in jobs]
    ttlt = [j["ttlt_ms"] if j["ok"] else math.inf for j in jobs]
    if not stats.has_tail(len(jobs), 0.95):
        raise BenchError(f"only {len(jobs)} jobs: p95 needs {stats.MIN_TAIL} samples beyond it")
    values = {
        "setup_s": stats.median(report["setup_s"]),
        "wall_s": stats.median(ttlt) / 1e3,
        "peak_rss_mb": report["peak_rss_mb"],
        "resume_s": stats.median(report["resume_s"]),
        "ttft_p50_ms": stats.nearest_rank(ttft, 0.50),
        "ttft_p95_ms": stats.tail_percentile(ttft, 0.95)[0],
        "ttlt_p50_ms": stats.nearest_rank(ttlt, 0.50),
        "ttlt_p95_ms": stats.tail_percentile(ttlt, 0.95)[0],
        "jobs_per_s": len(ok) / report["load_s"],
        "targets_per_s": sum(j["targets"] for j in ok) / report["load_s"],
    }
    info["samples"] = len(jobs)
    info["p95_reported_as"] = stats.tail_percentile(ttlt, 0.95)[1]
    info["p95_samples_beyond"] = stats.samples_beyond(len(jobs), 0.95)
    info["refused"] = sum(1 for j in jobs if j["refused"])
    attempted = len(jobs) + len(report["resume_s"])
    failed = len(jobs) - len(ok) + report["resume_failed"]
    return failed == 0, attempted, failed, values


def layer_values(layers):
    """Every per-layer metric: what the traced pass measured, 0 for a
    layer the workload bypasses."""
    values = {name: layers.get(name, 0) for name, _ in PER_LAYER}
    steps = layers.get("engine.step_s_each")
    if steps:
        values["engine.step_p50_us"] = stats.nearest_rank(steps, 0.50) * 1e6
        values["engine.step_p99_us"] = stats.nearest_rank(steps, 0.99) * 1e6
    return values


def batch_traced(tool, inputs_dir, refs, work, prep, workload, info):
    # Bare and traced iterations alternate; the layer numbers come from
    # the traced iteration of median wall, the overhead from the medians.
    bares, traceds = [], []
    for _ in range(TRACE_PAIRS):
        bares.append(batch_once(tool, inputs_dir, refs, work, trace=False))
        traceds.append(batch_once(tool, inputs_dir, refs, work, trace=True))
    traced = sorted(traceds, key=lambda it: it["layers"]["wall_s"])[len(traceds) // 2]
    layers = traced["layers"]
    iterations = bares + traceds
    failed = sum(1 for it in iterations for key in ("errors", "resume_errors") if it[key])
    values = layer_values(layers)
    counts = traced["counts"]
    values["engine.rounds"] = counts["rounds"]
    values["engine.growths"] = counts["growths"]
    values["engine.subsumed"] = counts["subsumed"]
    values["shard.epochs"] = counts["epochs"]
    if prep:
        values["checkpoint.count"] = 1
        values["checkpoint.snapshot_s"] = prep["checkpoint.snapshot_s"]
        values["checkpoint.encode_s"] = prep["checkpoint.encode_s"]
        values["checkpoint.write_s"] = prep["checkpoint.write_s"]
        values["checkpoint.bytes_mean"] = prep["checkpoint.bytes"]
        values["checkpoint.dir_bytes"] = os.path.getsize(os.path.join(inputs_dir, "mid.ckpt"))
    traced_wall = stats.median([it["layers"]["wall_s"] for it in traceds])
    bare_wall = stats.median([it["wall_s"] for it in bares])
    values["trace_overhead_frac"] = traced_wall / bare_wall - 1
    # The top-level layer calls plus the unattributed rest make the wall.
    top = ["datasets.read_s", "datasets.write_s"]
    if workload == "fleet":
        top += ["routing.partition_s", "routing.table_s", "shard.run_s"]
    else:
        top += ["engine.new_s", "engine.start_s", "engine.step_s", "engine.finish_s"]
    summed = sum(layers[name] for name in top) + layers["unattributed_s"]
    ledger_ok = abs(summed - layers["wall_s"]) <= 1e-9 * max(1.0, layers["wall_s"])
    if not ledger_ok:
        log(f"layer times sum to {summed}, traced wall is {layers['wall_s']}")
    distinct = {json.dumps(it["counts"], sort_keys=True) for it in iterations}
    deterministic = len(distinct) == 1
    if not deterministic:
        log(f"deterministic counts differ between iterations: {sorted(distinct)}")
    info["counts"] = counts
    info["traced_wall_s"] = traced_wall
    info["untraced_wall_s"] = bare_wall
    info["trace_pairs"] = TRACE_PAIRS
    return failed == 0 and ledger_ok and deterministic, 2 * len(iterations), failed, values


def serve_traced(tool, sixgen, inputs_dir, refs, work, seconds, info):
    report = serve_report(tool, sixgen, inputs_dir, refs, work, seconds, trace=True)
    layers = report["layers"]
    jobs = report["jobs"]
    values = layer_values(layers)
    posted = [j for j in jobs if j["post_ms"] > 0]
    values["http.post_ms_p50"] = stats.nearest_rank([j["post_ms"] for j in posted], 0.50)
    values["http.post_ms_p95"] = stats.nearest_rank([j["post_ms"] for j in posted], 0.95)
    values["http.first_byte_ms_p50"] = stats.nearest_rank([j["first_byte_ms"] for j in jobs if j["ok"]], 0.50)
    values["http.healthz_ms_p95"] = stats.nearest_rank(report["healthz_ms"], 0.95)
    values["http.refused"] = sum(1 for j in jobs if j["refused"])
    values["trace_overhead_frac"] = layers["wall_s"] / layers["untraced_wall_s"] - 1
    failed = sum(1 for j in jobs if not j["ok"])
    info["samples"] = len(jobs)
    info["healthz_samples"] = len(report["healthz_ms"])
    info["replay_rounds"] = layers["engine.rounds"]
    # In-process jobs and replays abort the run on a mismatch, so only
    # the served jobs can count as failed here.
    return failed == 0, len(jobs) + report["in_process_ops"], failed, values


def self_test():
    here = os.path.dirname(os.path.abspath(__file__))
    code = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", here, "-p", "test_*.py"]).returncode
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    code |= subprocess.run(["cargo", "test", "--release", "--offline", "--manifest-path",
                            os.path.join(here, "Cargo.toml")], env=env).returncode
    return 0 if code == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    try:
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        sixgen, tool = build(target)
        work = os.path.join(target, "perfbench", args.workload)
        inputs, inputs_dir, refs, prep = prepare(tool, sixgen, args.workload, args.seed, work)
        info = describe(inputs, prep)
        if args.workload in BATCH:
            if args.trace:
                correct, attempted, failed, values = batch_traced(tool, inputs_dir, refs, work, prep, args.workload, info)
            else:
                correct, attempted, failed, values = batch_timed(tool, inputs_dir, refs, work, args.seconds, info)
        elif args.trace:
            correct, attempted, failed, values = serve_traced(tool, sixgen, inputs_dir, refs, work, args.seconds, info)
        else:
            correct, attempted, failed, values = serve_timed(tool, sixgen, inputs_dir, refs, work, args.seconds, info)
        units = PER_LAYER if args.trace else END_TO_END
        out = result(correct, attempted, failed, values, units)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"error: {error}")
        return 1
    info["fail_frac"] = failed / attempted
    print(json.dumps({"run": info}))
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
