"""Metric arithmetic of the benchmark: tails, self time, failures, digests."""

from types import SimpleNamespace

import numpy as np
import pytest

from run import check
from stats import (
    Span,
    layer_totals,
    quartile_spread,
    round_of,
    self_times,
    state_digest,
    tail,
)
from tracing import Recorder
from workload import Probe


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    value, percentile, count = tail(values)
    assert count == 100
    assert sum(v > value for v in values) == 10
    assert value == 90.0 and percentile == 90.0


def test_tail_of_the_smallest_resolvable_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0]
    value, percentile, count = tail(values)
    assert (value, count) == (1.0, 11)
    assert percentile == pytest.approx(100 / 11)


def test_tail_ignores_input_order_and_needs_eleven_samples():
    values = list(np.random.default_rng(0).permutation(40).astype(float))
    assert tail(values)[0] == 29.0
    with pytest.raises(ValueError):
        tail(values[:10])


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("dispatch", "layer", 0.0, 10.0),
        Span("prune", "layer", 1.0, 4.0, parent=0),
        Span("prune", "layer", 5.0, 6.0, parent=0),
        Span("inner", "layer", 1.5, 2.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.5, 1.0, 0.5])


def test_layer_totals_attribute_spans_to_rounds_by_start():
    marks = [0.0, 10.0, 20.0, 30.0]
    spans = [
        Span("train", "layer", 1.0, 9.0),
        Span("train", "layer", 11.0, 15.0),
        Span("eval", "layer", 15.0, 21.0),   # starts in round 1
        Span("train", "layer", 25.0, 26.0),
    ]
    assert round_of(15.0, marks) == 1 and round_of(10.0, marks) == 1
    assert round_of(30.0, marks) is None and round_of(-1.0, marks) is None
    totals = layer_totals(spans, marks, rounds=[1])
    assert totals == {"train": 4.0, "eval": 6.0}


class _Toy:
    def outer(self, n):
        return self.inner(n) + self.other(n)

    def inner(self, n):
        return n

    def other(self, n):
        return 2 * n


def test_recorder_nests_within_a_family_and_restores():
    toy = _Toy()
    recorder = Recorder()
    recorder.wrap(toy, "outer", "outer", "layer")
    recorder.wrap(toy, "inner", "inner", "layer")
    recorder.wrap(toy, "other", "other", "codec")
    assert toy.outer(3) == 9
    outer, inner, other = recorder.spans
    assert inner.parent == 0 and other.parent == -1
    selfs = self_times(recorder.spans)
    assert selfs[0] == pytest.approx(outer.duration - inner.duration)
    assert selfs[2] == pytest.approx(other.duration)
    recorder.close()
    assert "outer" not in toy.__dict__ and toy.outer(1) == 3


class _Engine:
    """The engine surface :class:`Probe` wraps, with ten workers."""

    telemetry = SimpleNamespace(metrics=SimpleNamespace(counters=[]))

    def present_workers(self, round_index):
        return list(range(10))

    def dispatch_many(self, ratios):
        return {w: SimpleNamespace(download_params=5, upload_params=5)
                for w in ratios}

    def aggregate(self, contributions):
        return len(contributions)


def test_failed_dispatches_count_the_round_a_run_died_in():
    engine = _Engine()
    probe = Probe(engine)

    def run_rounds(crash_in_round):
        for round_index in range(4):
            workers = engine.present_workers(round_index)
            engine.dispatch_many(dict.fromkeys(workers, 0.3))
            if round_index == crash_in_round:
                raise RuntimeError("transport timeout")
            engine.aggregate(workers)

    with pytest.raises(RuntimeError):
        run_rounds(crash_in_round=2)
    probe.finish()
    assert (probe.attempted, probe.delivered) == (30, 20)
    assert probe.params_moved == [100, 100, 100]
    assert len(probe.marks) == 4


def _repeat(**overrides):
    result = {"error": None, "digest": "ab", "sim_time_s": 68.9,
              "final_eval_loss": 0.02, "wire_mb_per_round": 6.83,
              "loss_ceiling": 0.5,
              "per_round": {"vectorised": 0.0, "fallback": 4.0}}
    result.update(overrides)
    return result


def test_check_requires_identical_outputs_across_repeats():
    assert check([_repeat(), _repeat(), _repeat()]) == []
    for key, value in (("digest", "cd"), ("sim_time_s", 69.0),
                       ("final_eval_loss", 0.021),
                       ("wire_mb_per_round", 6.84)):
        problems = check([_repeat(), _repeat(**{key: value})])
        assert problems == [f"repeats disagree: 2 distinct {key} values"]


def test_check_fails_a_repeat_that_raised_or_did_not_learn():
    problems = check([_repeat(), _repeat(error="Traceback ...\n")])
    assert problems == ["repeat 1: Traceback ..."]
    problems = check([_repeat(final_eval_loss=2.3, digest="x")])
    assert len(problems) == 1 and "above the ceiling" in problems[0]
    paths = {"vectorised": 2.0, "fallback": 0.0}
    assert check([_repeat(), _repeat(per_round=paths)]) == [
        "repeats trained different cohort paths: [(0.0, 4.0), (2.0, 0.0)]"]


def test_digest_is_equal_only_for_identical_runs():
    weights = {"fc.w": np.arange(6, dtype=np.float32).reshape(2, 3),
               "fc.b": np.zeros(3, dtype=np.float32)}
    reordered = {"fc.b": weights["fc.b"].copy(), "fc.w": weights["fc.w"].copy()}
    digest = state_digest(b"history", weights)
    assert digest == state_digest(b"history", reordered)
    nudged = dict(reordered, **{"fc.b": np.nextafter(
        reordered["fc.b"], np.float32(1))})
    assert state_digest(b"history", nudged) != digest
    assert state_digest(b"history2", weights) != digest
    reshaped = dict(weights, **{"fc.w": weights["fc.w"].reshape(3, 2)})
    assert state_digest(b"history", reshaped) != digest


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)
