"""One repeat of one benchmark workload, run in a process of its own.

Usage (the driver ``run.py`` starts this; it is rarely run by hand)::

    python3 perfbench/workload.py --workload paper_cnn --seed 3 \\
        --trace 0 --out result.json [--spans spans.jsonl]

The process builds the workload from ``--seed``, runs a fixed number
of rounds (one warm-up round, the measured rounds, one closing round
carrying the forced final evaluation), and writes one JSON result.
Setup time runs from the first line of this file -- before numpy or
``repro`` is imported -- to the end of the warm-up round.

With ``--trace 1`` the engine's layers are wrapped from the outside
(see ``tracing.py``) and per-layer self times are reported per measured
round.  Either way the engine runs with a metrics-only telemetry
bundle: span tracing off and no profiler, so the cohort-vectorised
training path stays the one measured.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Dict, List  # noqa: E402

# BLAS threads must be pinned before numpy loads OpenBLAS; the driver
# exports these, and a hand-started process gets the same pinning.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

from stats import layer_totals, round_of, state_digest  # noqa: E402
from tracing import Recorder  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: rounds before the measured window (its end closes setup) and after
#: it (the closing round, with the forced final evaluation)
WARMUP_ROUNDS = 1
CLOSING_ROUNDS = 1

#: measured rounds per repeat; the driver pools them over its repeats
MEASURED_ROUNDS = 10

#: per workload: the final-eval-loss ceiling that shows the task learned
#: (chance level is ln 10 = 2.30 nats), and whether training runs in
#: this process (so nn layers can be traced)
WORKLOADS = {
    "paper_cnn": dict(loss_ceiling=0.5, inline_training=True),
    "fleet_50k": dict(loss_ceiling=1.5, inline_training=True),
    "serve_loopback": dict(loss_ceiling=1.0, inline_training=False),
}
ROUNDS = WARMUP_ROUNDS + MEASURED_ROUNDS + CLOSING_ROUNDS

#: The seed draws the synthetic dataset only.  The device fleet and the
#: FLConfig seed (model init, partition, E-UCB exploration) are part of
#: each workload's fixed definition, like the paper's fixed testbed: when
#: they follow the seed too, E-UCB's ratio trajectory follows the device
#: draw and the round cost of the CNN workloads moves by 20-32% between
#: seeds, more than any usable bound.
DEVICE_SEED = 42
CONFIG_SEED = 17
#: the half-A/half-B composition of the paper's scenarios (Section V-G)
#: at 2 + 2 devices, so five full repeats fit in one run
CNN_DEVICES = 4
#: test samples per class of the CNN task's synthetic MNIST
CNN_TEST_PER_CLASS = 5
FLEET_DEVICES = 50_000
FLEET_CLIENTS_PER_ROUND = 256
#: one connection (and worker) per CPU of the 2-CPU reference host
SERVE_CLIENTS = 2

NN_LAYERS = ("Conv2d", "MaxPool2d", "Linear", "ReLU")
COUNTERS = {
    "wire_dispatch": ("wire_bytes_total", {"kind": "dispatch"}),
    "wire_template": ("wire_bytes_total", {"kind": "template"}),
    "wire_contribution": ("wire_bytes_total", {"kind": "contribution"}),
    "cohorts": ("dispatch_cohorts_total", {}),
    "vectorised": ("cohort_train_vectorised_total", {}),
    "fallback": ("cohort_train_fallback_total", {}),
    "cache_hits": ("dispatch_cache_hits_total", {}),
    "cache_misses": ("dispatch_cache_misses_total", {}),
    "evictions": ("dispatch_cache_evictions_total", {}),
    "retries": ("retries_total", {}),
    "stragglers": ("stragglers_total", {}),
    "checkpoint_bytes": ("checkpoint_bytes_total", {}),
}


def counter_snapshot(metrics) -> Dict[str, float]:
    """Sum of every counter matching each :data:`COUNTERS` entry."""
    totals = dict.fromkeys(COUNTERS, 0.0)
    for counter in metrics.counters:
        for key, (name, labels) in COUNTERS.items():
            if counter.name == name and all(
                str(counter.labels.get(k)) == v for k, v in labels.items()
            ):
                totals[key] += counter.value
    return totals


def blas_threads() -> int:
    """OpenBLAS's effective thread count, or -1 where it cannot be read."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return -1


class Probe:
    """Round marks, dispatch counts and per-round traffic for one engine.

    Installed in every repeat, traced or not: per round it adds a clock
    read, a counter snapshot and a sum over the round's dispatches.
    ``attempted - delivered`` dispatches never reached ``aggregate``; a
    run that raises leaves its unfinished round's dispatches there.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.marks: List[float] = []
        self.snapshots: List[Dict[str, float]] = []
        self.attempted = 0
        self.delivered = 0
        #: parameters moved per round (download + upload), by round
        self.params_moved: List[int] = []
        metrics = engine.telemetry.metrics
        present = engine.present_workers
        dispatch_many = engine.dispatch_many
        aggregate = engine.aggregate

        def marked_present(round_index):
            self.marks.append(time.perf_counter())
            self.snapshots.append(counter_snapshot(metrics))
            self.params_moved.append(0)
            return present(round_index)

        def counted_dispatch(ratios, *args, **kwargs):
            self.attempted += len(ratios)
            dispatches = dispatch_many(ratios, *args, **kwargs)
            self.params_moved[-1] += sum(
                d.download_params + d.upload_params
                for d in dispatches.values()
            )
            return dispatches

        def counted_aggregate(contributions, *args, **kwargs):
            self.delivered += len(contributions)
            return aggregate(contributions, *args, **kwargs)

        engine.present_workers = marked_present
        engine.dispatch_many = counted_dispatch
        engine.aggregate = counted_aggregate

    def finish(self) -> None:
        """Close the last round's window."""
        self.marks.append(time.perf_counter())
        self.snapshots.append(counter_snapshot(self.engine.telemetry.metrics))


def nn_flops(module, x) -> float:
    """Analytic forward FLOPs of one batched call (``models/flops.py``)."""
    from repro.models.flops import count_layer_flops

    key = (type(module), x.shape,
           tuple(p.shape for _, p in module.named_parameters()),
           getattr(module, "kernel_size", None),
           getattr(module, "stride", None), getattr(module, "padding", None))
    flops = _FLOPS_CACHE.get(key)
    if flops is None:
        per_sample = count_layer_flops(module, x.shape[1:]) or 0
        flops = _FLOPS_CACHE[key] = float(per_sample * x.shape[0])
    return flops


_FLOPS_CACHE: Dict[tuple, float] = {}


def install_tracing(recorder: Recorder, engine, service=None,
                    inline_training: bool = False) -> None:
    """Wrap one level per layer: engine phases, bandit, pruning, codec,
    service pump and -- where training runs in this process -- the nn
    layers and the stacked cohort trainer."""
    from repro.runtime import executor as executor_module

    wrap = recorder.wrap
    for attr in ("present_workers", "sample_clients"):
        wrap(engine, attr, "layer.sample_s", "layer")
    wrap(engine, "dispatch_many", "layer.dispatch_s", "layer")
    wrap(engine, "train_all", "layer.train_s", "layer")
    wrap(engine, "aggregate", "layer.aggregate_s", "layer")
    wrap(engine, "evaluate", "layer.eval_s", "layer")
    wrap(engine, "maybe_checkpoint", "layer.checkpoint_s", "layer")
    # strategy and task are wrapped on their classes: checkpoints pickle
    # the strategy, and a wrapper stored on the instance cannot pickle
    strategy, task = type(engine.strategy), type(engine.task)
    wrap(strategy, "select_ratios", "layer.decide_s", "layer")
    wrap(strategy, "observe_round", "layer.observe_s", "layer")
    for attr in ("build_plan", "extract"):
        wrap(task, attr, "layer.prune_s", "layer")

    if service is not None:
        from repro.serve import service as codec_user
        wrap(service, "pump", "serve.pump_s", "serve")
    else:
        codec_user = executor_module
    wrap(codec_user, "encode_dispatch", "runtime.encode_s", "codec")
    wrap(codec_user, "decode_contribution", "runtime.decode_s", "codec")

    if inline_training:
        from repro.nn import layers

        for layer in NN_LAYERS:
            cls = getattr(layers, layer)
            wrap(cls, "forward", f"nn.{layer}.forward_s", "nn",
                 work=nn_flops)
            wrap(cls, "backward", f"nn.{layer}.backward_s", "nn")
        wrap(executor_module, "train_cohort", "nn.train_cohort_s", "cohort")


# ----------------------------------------------------------------------
# workload construction
# ----------------------------------------------------------------------
def cnn_task(seed: int):
    """The bench CNN task (``make_bench_task("cnn")``) on a seeded dataset."""
    import numpy as np

    from repro.data.synthetic import make_synthetic_mnist
    from repro.fl.tasks import ClassificationTask

    dataset = make_synthetic_mnist(train_per_class=60,
                                   test_per_class=CNN_TEST_PER_CLASS,
                                   rng=np.random.default_rng(seed))
    return ClassificationTask(dataset, "cnn")


def cnn_config(rounds: int, strategy: str = "fedmp", **overrides):
    from repro.experiments.setups import make_bench_task

    params = dict(max_rounds=rounds, seed=CONFIG_SEED, target_metric=None)
    params.update(overrides)
    return make_bench_task("cnn").make_config(strategy, **params)


def build(name: str, seed: int, rounds: int, workdir: str):
    """``(task, devices, config)`` for ``name`` under ``seed``."""
    import numpy as np

    from repro.experiments.setups import make_devices

    if name == "fleet_50k":
        from repro.data.synthetic import make_synthetic_mnist
        from repro.experiments.fleet import FleetTask
        from repro.fl.config import FLConfig
        from repro.simulation.cluster import make_scenario_devices

        dataset = make_synthetic_mnist(train_per_class=8, test_per_class=2,
                                       rng=np.random.default_rng(seed))
        task = FleetTask(dataset, "cnn")
        half = FLEET_DEVICES // 2
        devices = make_scenario_devices(
            {"A": FLEET_DEVICES - half, "B": half},
            np.random.default_rng(DEVICE_SEED),
        )
        config = FLConfig(
            strategy="fixed", strategy_kwargs={"ratio": 0.3},
            max_rounds=rounds, local_iterations=2, batch_size=8,
            eval_every=10_000, seed=CONFIG_SEED, cohort_rounds="on",
            clients_per_round=FLEET_CLIENTS_PER_ROUND,
        )
        return task, devices, config
    task = cnn_task(seed)
    if name == "paper_cnn":
        devices = make_devices("medium", seed=DEVICE_SEED, count=CNN_DEVICES)
        return task, devices, cnn_config(rounds, eval_every=1)
    if name == "serve_loopback":
        devices = make_devices("medium", seed=DEVICE_SEED, count=SERVE_CLIENTS)
        # a fixed ratio: with two E-UCB agents the round cost follows the
        # seed's ratio draws, and this workload measures the serving plane
        return task, devices, cnn_config(
            rounds, strategy="fixed", strategy_kwargs={"ratio": 0.3},
            eval_every=10_000, wire_profile="exact",
            checkpoint_dir=os.path.join(workdir, "checkpoints"),
            checkpoint_every=1,
        )
    raise KeyError(name)


def start_load_generator(address, out_path: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "loadgen.py"),
         "--host", str(address[0]), "--port", str(address[1]),
         "--clients", str(SERVE_CLIENTS), "--out", out_path],
        env=os.environ.copy(),
    )


# ----------------------------------------------------------------------
# one repeat
# ----------------------------------------------------------------------
def run(name: str, seed: int, traced: bool, workdir: str,
        spans_path: str = "") -> dict:
    """One repeat: the workload's full, fixed round sequence."""
    spec = WORKLOADS[name]
    rounds = ROUNDS
    result: dict = {"workload": name, "seed": seed, "traced": traced,
                    "rounds": rounds, "error": None}

    import numpy  # noqa: F401  (import cost belongs to setup)

    from repro.fl.engine import Engine
    from repro.fl.schedulers import make_scheduler
    from repro.telemetry import MetricsRegistry, Telemetry
    from repro.verify.differential import normalised_history_bytes

    t_import = time.perf_counter()
    task, devices, config = build(name, seed, rounds, workdir)
    t_devices = time.perf_counter()
    telemetry = Telemetry(metrics=MetricsRegistry())
    service = None
    loadgen = None
    loadgen_out = os.path.join(workdir, "loadgen.json")
    if name == "serve_loopback":
        from repro.serve import FedMPService

        service = FedMPService(
            task, devices, config, telemetry=telemetry,
            min_workers=SERVE_CLIENTS,
            roster_script={0: list(range(SERVE_CLIENTS))},
            registration_timeout_s=60.0,
        )
        engine = service.engine
    else:
        engine = Engine(task, devices, config, telemetry=telemetry)
    t_engine = time.perf_counter()

    recorder = Recorder()
    if traced:
        install_tracing(recorder, engine, service,
                        inline_training=spec["inline_training"])
    probe = Probe(engine)
    history = None
    try:
        if service is not None:
            loadgen = start_load_generator(service.address, loadgen_out)
            history = service.run()
        else:
            try:
                history = make_scheduler(config).run(engine)
            finally:
                engine.close()
    except Exception:
        result["error"] = traceback.format_exc()
    finally:
        probe.finish()
        if loadgen is not None:
            try:
                loadgen.wait(timeout=30)
            except subprocess.TimeoutExpired:
                loadgen.kill()
                loadgen.wait()
                result["error"] = result["error"] or "load generator hung"
            if loadgen.returncode != 0:
                result["error"] = result["error"] or (
                    f"load generator exited with {loadgen.returncode}"
                )
    recorder.close()

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = usage / 1024.0
    result["blas_threads"] = blas_threads()
    result["attempted"] = probe.attempted
    result["delivered"] = probe.delivered

    marks = probe.marks
    first, last = WARMUP_ROUNDS, rounds - CLOSING_ROUNDS
    if result["error"] is not None or len(marks) <= first + 1:
        result["error"] = result["error"] or "the warm-up round never ended"
        return result
    result["setup"] = {
        "import_s": t_import - T0,
        "devices_s": t_devices - t_import,
        "engine_s": t_engine - t_devices,
        "warmup_s": marks[first] - t_engine,
        "total_s": marks[first] - T0,
    }
    if len(marks) != rounds + 1:
        result["error"] = f"{len(marks) - 1} of {rounds} rounds ran"
        return result
    measured = last - first
    result["round_walls"] = [marks[r + 1] - marks[r]
                             for r in range(first, last)]
    delta = {key: probe.snapshots[last][key] - probe.snapshots[first][key]
             for key in COUNTERS}
    result["per_round"] = {key: value / measured
                           for key, value in delta.items()}
    result["wire_mb_per_round"] = sum(
        result["per_round"][key]
        for key in ("wire_dispatch", "wire_template", "wire_contribution")
    ) / 1e6
    result["params_moved_per_round"] = (
        sum(probe.params_moved[first:last]) / measured
    )

    final = history.rounds[-1]
    result["sim_time_s"] = float(final.sim_time_s)
    result["final_eval_loss"] = float(final.eval_loss)
    result["final_metric"] = float(final.metric)
    result["loss_ceiling"] = spec["loss_ceiling"]
    result["digest"] = state_digest(normalised_history_bytes(history),
                                    engine.model.state_dict())

    if service is not None:
        with open(loadgen_out) as handle:
            client = json.load(handle)
        result["client_train_s"] = client_busy_per_round(
            client["intervals"], marks, range(first, last))
        result["serve_counters"] = dict(service.counters)
    if traced:
        totals = layer_totals(recorder.spans, marks, range(first, last))
        result["layers"] = {key: value / measured
                            for key, value in totals.items()}
        calls: Dict[str, float] = {}
        work: Dict[str, float] = {}
        for span in recorder.spans:
            if round_of(span.start, marks) in range(first, last):
                calls[span.name] = calls.get(span.name, 0) + 1
                work[span.name] = work.get(span.name, 0.0) + span.work
        result["calls"] = {k: v / measured for k, v in calls.items()}
        result["work"] = {k: v / measured for k, v in work.items()}
        if spans_path:
            recorder.write(spans_path)
    return result


def client_busy_per_round(intervals, marks, rounds) -> float:
    """Mean per round of the time at least one client was training."""
    rounds = list(rounds)
    busy = 0.0
    by_round: Dict[int, list] = {}
    for start, end in intervals:
        index = round_of(start, marks)
        if index in rounds:
            by_round.setdefault(index, []).append((start, end))
    for spans in by_round.values():
        spans.sort()
        cover_start, cover_end = spans[0]
        for start, end in spans[1:]:
            if start > cover_end:
                busy += cover_end - cover_start
                cover_start, cover_end = start, end
            else:
                cover_end = max(cover_end, end)
        busy += cover_end - cover_start
    return busy / len(rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, bool(args.trace), args.workdir,
                 args.spans)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
