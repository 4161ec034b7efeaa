"""Short end-to-end runs of every workload through the benchmark driver.

Slow (about three minutes in all): an untraced run makes the driver's
minimum of five full repeats, a traced one two.  Run from the
repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_bench(workload: str, trace: int) -> dict:
    output = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=180,
    ).stdout
    return json.loads(output.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_has_name_unit_and_direction(workload, trace):
    result = run_bench(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert entry["better"] in ("higher", "lower")
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] != 0


def test_refuses_to_run_without_the_program(tmp_path):
    for name in ("BENCHMARK.json", "perfbench"):
        source = os.path.join(ROOT, name)
        if os.path.isdir(source):
            os.symlink(source, tmp_path / name)
        else:
            (tmp_path / name).write_text(open(source).read())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_cnn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
