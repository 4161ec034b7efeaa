"""In-memory span recording around calls into the program's public layers.

The benchmark wraps functions from the outside -- instance methods,
class methods or module-level names -- and records one :class:`Span`
per call.  Nothing inside ``src/`` is instrumented.  Spans stay in a
list until the run ends, when :meth:`Recorder.write` dumps them.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

from stats import Span


class Recorder:
    """Wraps callables and records a span for each call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: Dict[str, List[int]] = {}
        self._patched: List[tuple] = []

    def wrap(self, owner, attr: str, name: str, family: str,
             work: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``owner`` may be an instance, a class (the wrapper then receives
        ``self`` first) or a module.  ``work(*args)`` prices a call in
        analytic FLOPs; it runs after the call, outside the timed span.
        """
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._open.setdefault(family, [])
        clock = time.perf_counter

        def recorded(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(
                    name, family, start, end, parent,
                    work(*args) if work is not None else 0.0,
                )

        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, recorded)

    def close(self) -> None:
        """Undo every wrap, innermost first."""
        for owner, attr, previous in reversed(self._patched):
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patched.clear()

    def write(self, path) -> None:
        """Dump the spans as JSON lines (one span per line)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")
