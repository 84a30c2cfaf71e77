"""In-memory span tracer that wraps porodiff's public entry points.

Spans are recorded from the benchmark's own files: each traced name is
replaced where its caller looks it up (a module global or a class attribute)
by a wrapper that records ``(name, start, end, parent)`` and bumps counters.
``restore()`` puts every original attribute back.

A span's self time is its duration minus the durations of its child spans
(the tracer follows one call stack, so children nest and never overlap). A
name's total counts only the spans that have no ancestor of the same name,
so a traced function calling another function traced under the same name is
not counted twice.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []     # (owner, attribute, own attribute?, original)

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def leave(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def patch(self, owner, attr, name, calls=None, count=None, adapt=None):
        """Trace ``owner.attr`` as span ``name``.

        ``calls`` names a counter bumped once per call; ``count(args, kwargs,
        result)`` adds further counts after the call returns; ``adapt`` maps
        the original callable to the one the wrapper calls.
        """
        original = getattr(owner, attr)
        target = adapt(original) if adapt else original
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.leave()
            if calls:
                tracer.counts[calls] += 1
            if count:
                count(args, kwargs, result)
            return result

        self._patches.append((owner, attr, attr in vars(owner), original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def totals(self):
        """{name: (total seconds, self seconds, spans)} over closed spans."""
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                covered[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None:
                continue
            entry = out[name]
            entry[1] += (end - start) - covered[i]
            entry[2] += 1
            if not self._has_ancestor_named(parent, name):
                entry[0] += end - start
        return {name: tuple(v) for name, v in out.items()}

    def _has_ancestor_named(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

