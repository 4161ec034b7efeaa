"""The FedMP engine benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper_cnn --seed 1 --seconds 20 --trace 0

The driver starts one workload process per repeat (``workload.py``);
every repeat runs the workload's full, fixed round sequence.  With
``--trace 0`` it runs at least ``MIN_REPEATS`` repeats and more while
the next would end within ``--seconds``, pools their measured rounds
and takes ``setup_s`` as the median of their setups.  It then prints
every end-to-end metric of ``BENCHMARK.json``.  With ``--trace 1`` it
runs two repeats, untraced then traced, and prints every per-layer
metric.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` count dispatches; a dispatch fails when its
contribution never reaches ``Engine.aggregate``.  ``correct`` requires
every repeat to finish, produce the same history-and-weights digest,
simulated time, final eval loss and wire traffic (traced or not), and
clear the workload's final-eval-loss ceiling.
Spans of traced repeats are written to ``.perfbench/traces/``.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

from stats import tail

HERE = os.path.dirname(os.path.abspath(__file__))
#: hard stop for one run, under the 180 s a run may take
RUN_LIMIT_S = 170.0
#: setup_s is a median over at least this many full repeats, and their
#: pooled measured rounds (50) put round_wall_s.tail at p80 or higher
MIN_REPEATS = 5
NN_LAYERS = ("Conv2d", "MaxPool2d", "Linear", "ReLU")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: str, workdir: str) -> dict:
    """The workload process's environment (it pins BLAS threads itself)."""
    env = os.environ.copy()
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["TMPDIR"] = workdir
    env["PYTHONHASHSEED"] = "0"
    return env


def run_repeat(args, traced: bool, index: int, env: dict, workdir: str,
               traces: str, deadline: float) -> dict:
    """One workload process; a crash or timeout becomes an error result."""
    out = os.path.join(workdir, f"repeat-{index}.json")
    repeat_dir = os.path.join(workdir, f"repeat-{index}")
    os.makedirs(repeat_dir)
    spans = (os.path.join(traces, f"{args.workload}-seed{args.seed}-"
                                  f"repeat{index}.jsonl")
             if traced else "")
    command = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(int(traced)), "--workdir", repeat_dir,
               "--out", out, "--spans", spans]
    process = subprocess.Popen(command, env=env, start_new_session=True,
                               stdout=subprocess.DEVNULL)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return {"error": "repeat timed out", "traced": traced}
    finally:
        # reap anything the repeat left behind (the load generator)
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0 or not os.path.exists(out):
        return {"error": f"workload process exited with {code}",
                "traced": traced}
    with open(out) as handle:
        return json.load(handle)


def check(results) -> list:
    """Reasons the run's outputs are not correct (empty when they are)."""
    problems = []
    for index, result in enumerate(results):
        if result.get("error"):
            problems.append(f"repeat {index}: {result['error'].strip()}")
        elif result["final_eval_loss"] > result["loss_ceiling"]:
            problems.append(
                f"repeat {index}: final eval loss "
                f"{result['final_eval_loss']:.4f} above the ceiling "
                f"{result['loss_ceiling']}")
    for key in ("digest", "sim_time_s", "final_eval_loss",
                "wire_mb_per_round"):
        values = {r[key] for r in results if key in r}
        if len(values) > 1:
            problems.append(f"repeats disagree: {len(values)} distinct "
                            f"{key} values")
    # tracing must not push cohorts off the vectorised training path
    paths = {(r["per_round"]["vectorised"], r["per_round"]["fallback"])
             for r in results if "per_round" in r}
    if len(paths) > 1:
        problems.append("repeats trained different cohort paths: "
                        f"{sorted(paths)}")
    return problems


def end_to_end(results) -> tuple:
    """Gated metrics over every repeat; measured rounds are pooled."""
    first = results[0]
    walls = [wall for r in results for wall in r["round_walls"]]
    tail_value, tail_pct, samples = tail(walls)
    metrics = {
        "setup_s": median([r["setup"]["total_s"] for r in results]),
        "rounds_per_s": len(walls) / sum(walls),
        "round_wall_s.p50": median(walls),
        "round_wall_s.tail": tail_value,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
    }
    notes = [f"round_wall_s.tail is p{tail_pct:.1f} of {samples} rounds; "
             f"setup_s and peak_rss_mb are medians of {len(results)} repeats",
             f"deterministic per seed: sim_time_s {first['sim_time_s']:.4f}, "
             f"final_eval_loss {first['final_eval_loss']:.6f}"]
    if first["wire_mb_per_round"]:
        notes[-1] += f", wire_mb_per_round {first['wire_mb_per_round']:.4f}"
    return metrics, notes


def per_layer(results) -> tuple:
    untraced, traced = results
    layers, per_round = traced["layers"], traced["per_round"]

    def layer(name):
        return layers.get(name, 0.0)

    metrics = {}
    for name in ("sample", "decide", "dispatch", "prune", "train",
                 "aggregate", "observe", "eval", "checkpoint"):
        metrics[f"layer.{name}_s"] = layer(f"layer.{name}_s")
    walls = traced["round_walls"]
    wall = sum(walls) / len(walls)
    metrics["layer.round_other_s"] = wall - sum(metrics.values())

    trained = per_round["vectorised"] + per_round["fallback"]
    lookups = per_round["cache_hits"] + per_round["cache_misses"]
    metrics["engine.cohorts_per_round"] = per_round["cohorts"]
    metrics["engine.vectorised_share"] = (
        per_round["vectorised"] / trained if trained else 0.0)
    metrics["engine.dispatch_cache_hit_share"] = (
        per_round["cache_hits"] / lookups if lookups else 0.0)

    for part in ("import", "devices", "engine", "warmup"):
        metrics[f"setup.{part}_s"] = untraced["setup"][f"{part}_s"]

    for name in NN_LAYERS:
        forward = layer(f"nn.{name}.forward_s")
        flops = traced["work"].get(f"nn.{name}.forward_s", 0.0)
        metrics[f"nn.{name}.forward_s"] = forward
        metrics[f"nn.{name}.backward_s"] = layer(f"nn.{name}.backward_s")
        metrics[f"nn.{name}.gflop_per_s"] = (
            flops / forward / 1e9 if forward else 0.0)
    metrics["nn.train_cohort_s"] = layer("nn.train_cohort_s")

    encode, decode = layer("runtime.encode_s"), layer("runtime.decode_s")
    metrics["runtime.encode_s"] = encode
    metrics["runtime.decode_s"] = decode
    remote = per_round["wire_contribution"] > 0
    metrics["runtime.wait_s"] = (
        metrics["layer.train_s"] - encode - decode if remote else 0.0)
    for kind in ("dispatch", "template", "contribution"):
        metrics[f"runtime.wire_mb.{kind}"] = per_round[f"wire_{kind}"] / 1e6
    metrics["runtime.template_evictions"] = per_round["evictions"]
    metrics["runtime.retries"] = per_round["retries"]
    metrics["runtime.stragglers"] = per_round["stragglers"]

    served = "serve_counters" in traced
    client = traced["client_train_s"] if served else 0.0
    metrics["serve.pump_s"] = layer("serve.pump_s")
    metrics["serve.pump_calls"] = traced["calls"].get("serve.pump_s", 0.0)
    metrics["serve.client_train_s"] = client
    metrics["serve.overhead_s"] = (
        metrics["layer.train_s"] - client if served else 0.0)
    counters = traced.get("serve_counters", {})
    metrics["serve.lost"] = counters.get("lost", 0.0)
    metrics["serve.reconnects"] = counters.get("reconnect", 0.0)
    metrics["checkpoint.mb"] = per_round["checkpoint_bytes"] / 1e6
    metrics["engine.model_mb_per_round"] = (
        4.0 * traced["params_moved_per_round"] / 1e6)

    metrics["trace.overhead_share"] = (
        median(walls) / median(untraced["round_walls"]) - 1.0)
    metrics["quality.sim_time_s"] = traced["sim_time_s"]
    metrics["quality.final_eval_loss"] = traced["final_eval_loss"]
    notes = [f"layer.* sum to the traced round wall {wall:.6f} s",
             "spans written to .perfbench/traces/"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        return fail("no src/repro here: run from the repository root")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return fail("no BENCHMARK.json here")
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    state = os.path.join(root, ".perfbench")
    traces = os.path.join(state, "traces")
    workdir = os.path.join(state, f"run-{os.getpid()}")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(workdir)
    env = child_env(root, workdir)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    results, longest = [], 0.0
    try:
        while True:
            index = len(results)
            if args.trace:
                if index == 2:
                    break
            elif index >= MIN_REPEATS and (
                    time.monotonic() - start + longest > args.seconds):
                break
            began = time.monotonic()
            traced = bool(args.trace) and index == 1
            result = run_repeat(args, traced, index, env, workdir, traces,
                                deadline)
            longest = max(longest, time.monotonic() - began)
            results.append(result)
            if result.get("error"):
                break  # no retries: the run is reported as failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = check(results)
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = attempted - sum(r.get("delivered", 0) for r in results)
    metrics, notes = {}, []
    if not problems:
        compute = per_layer if args.trace else end_to_end
        metrics, notes = compute(results)
    blas = sorted({r.get("blas_threads") for r in results} - {None})
    print(f"workload {args.workload}  seed {args.seed}  repeats "
          f"{len(results)}  blas threads {blas}  "
          f"wall {time.monotonic() - start:.1f} s")
    for problem in problems:
        print(f"FAILED {problem}")
    if attempted:
        print(f"  failed_share {failed / attempted:.6f} "
              f"({failed} of {attempted} dispatches)")
    for line in notes:
        print(f"  {line}")
    report = {}
    for entry in wanted:
        if entry["name"] in metrics:
            value = metrics[entry["name"]]
            report[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"  {entry['name']:<36} {value:>14.6f} {entry['unit']:<8}"
                  f" ({entry['better']} is better)")
    if not attempted:
        attempted = failed = 1  # a run that never dispatched failed once
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
