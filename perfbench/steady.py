"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/steady.py --workloads paper_cnn fleet_50k --seeds 1-10

For every workload and end-to-end metric this prints the median over
the seeds and the inter-quartile distance as a share of that median,
next to the metric's bound from ``BENCHMARK.json``.  A spread above a
third of the bound is flagged: two sets of runs of the same code then
risk disagreeing by more than the bound.  ``--out`` keeps the raw
results as JSON lines.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

from stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_from(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds_from, default=seeds_from("1-10"))
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    flagged = 0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        began = time.monotonic()
        for seed in args.seeds:
            started = time.monotonic()
            output = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                check=True, capture_output=True, text=True,
            ).stdout
            result = json.loads(output.strip().splitlines()[-1])
            wall = time.monotonic() - started
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps({"workload": workload,
                                             "seed": seed, "wall_s": wall,
                                             **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT\n{output}")
                flagged += 1
                continue
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
        for name, series in values.items():
            if len(series) < 2:
                continue
            spread = quartile_spread(series)
            mark = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
            flagged += bool(mark)
            print(f"{workload:<15} {name:<20} median {median(series):>12.6f}"
                  f"  spread {spread:6.3f}  bound {bounds[name]:.2f}{mark}",
                  flush=True)
        print(f"{workload:<15} {len(args.seeds)} runs took "
              f"{time.monotonic() - began:.0f} s", flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
