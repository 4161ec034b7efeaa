"""Metric arithmetic shared by the driver, the workload process and the tests.

Standard library only: the driver imports this module without numpy.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: a tail percentile is reported only where this many samples lie beyond it
TAIL_BEYOND = 10


def tail(values: Sequence[float],
         beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest percentile of ``values`` with ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``.  With ``n`` samples
    sorted ascending, the sample at rank ``n - beyond`` (1-based) has
    exactly ``beyond`` samples beyond it, so it sits at percentile
    ``100 * (n - beyond) / n``.  Fewer than ``beyond + 1`` samples
    cannot resolve any tail, which is an error rather than a guess.
    """
    n = len(values)
    if n < beyond + 1:
        raise ValueError(
            f"{n} samples cannot resolve a tail with {beyond} beyond it"
        )
    ordered = sorted(values)
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n, n


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


@dataclass
class Span:
    """One timed call into a layer.

    ``parent`` is the index of the innermost enclosing span of the same
    family (``-1`` at top level): self time subtracts only those, so a
    family's spans nest among themselves and never across families.
    """

    name: str
    family: str
    start: float
    end: float
    parent: int = -1
    #: analytic work done by the call (forward FLOPs for nn layers)
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    selfs = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            selfs[span.parent] -= span.duration
    return selfs


def round_of(time_s: float, marks: Sequence[float]) -> Optional[int]:
    """Index ``r`` with ``marks[r] <= time_s < marks[r + 1]``, else None."""
    index = bisect.bisect_right(marks, time_s) - 1
    return index if 0 <= index < len(marks) - 1 else None


def layer_totals(spans: Sequence[Span], marks: Sequence[float],
                 rounds: Iterable[int]) -> Dict[str, float]:
    """Self time per span name, summed over the spans starting in ``rounds``."""
    wanted = set(rounds)
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if round_of(span.start, marks) in wanted:
            totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def state_digest(history_bytes: bytes, state: Mapping[str, object]) -> str:
    """SHA-256 over the normalised history and every named weight array.

    Arrays contribute their name, dtype, shape and raw bytes, in sorted
    name order, so equal digests mean byte-identical runs.
    """
    digest = hashlib.sha256(history_bytes)
    for name in sorted(state):
        array = state[name]
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(repr(tuple(array.shape)).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()
