"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the package's public functions from
outside the package: :func:`installed` replaces the attributes it is given
with timing wrappers and puts the originals back on exit, so the package
itself carries no tracing code. Each span records its name, start, end, the
span that was open when it started (its parent), the closed-loop run it
belongs to, and its self time (duration minus the part its direct child
spans cover).
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Collects spans and, for chosen names, the call's arguments and result."""

    def __init__(self):
        # (span_id, parent_id, run_id, name, start, end, self_s); parent -1 at top.
        self.spans = []
        # name -> list of (run_id, args, result), for names wrapped with keep=True.
        self.calls = {}
        self.run_id = 0
        self._stack = []        # [span_id, child_seconds] of open spans
        self._next_id = 0

    def wrap(self, name, fn, keep=False):
        """Return ``fn`` timed as span ``name``; ``keep`` stores args and result."""
        spans, stack = self.spans, self._stack
        calls = self.calls.setdefault(name, []) if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, parent, self.run_id, name, start, end,
                              duration - frame[1]))
            if calls is not None:
                calls.append((self.run_id, args, result))
            return result

        return traced

    def self_times(self, name):
        """Self seconds of every span called ``name``, in call order."""
        return [s[6] for s in self.spans if s[3] == name]

    def starts(self, name):
        """(run_id, start) of every span called ``name``, in call order."""
        return [(s[2], s[4]) for s in self.spans if s[3] == name]


@contextmanager
def installed(tracer, targets):
    """Wrap ``owner.attr`` for each ``(owner, attr, name, keep)``; restore after.

    ``owner`` is a module or a class; the attribute is read from its
    ``__dict__`` so that a plain function defined on a class is wrapped and
    restored as the same object.
    """
    saved = []
    try:
        for owner, attr, name, keep in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, keep))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
