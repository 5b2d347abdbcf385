"""Spans recorded around calls into rmkit's public functions.

The tracer replaces module attributes that rmkit looks up at call time
(``rmkit.dynamics.run``, ``rmkit.learners.step``, ...) with wrappers that
record one span per call: name, start, end and the span open at the time
(its parent).  Spans live in flat arrays until the run ends; the
aggregation turns them into calls, total time and self time per name,
where self time is a span's duration minus the time its child spans cover.
Nothing in ``src/`` changes: every span is taken from outside.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name).  Several attributes may share a span name
# when rmkit reaches one function through two modules' globals.
MODULE_WRAPS = (
    ("rmkit.learners", "step", "learners.step"),
    ("rmkit.learners", "new_learner", "learners.new_learner"),
    ("rmkit.learners", "regret_l2", "learners.regret_norms"),
    ("rmkit.learners", "regret_l1_positive", "learners.regret_norms"),
    ("rmkit.dynamics", "br_gap", "objectives.br_gap"),
    ("rmkit.objectives", "br_gap", "objectives.br_gap"),
    ("rmkit.dynamics", "mixed_potential", "games.mixed_potential"),
    ("rmkit.dynamics", "utility_vector", "games.utility_vector"),
    ("rmkit.games", "utility_vector", "games.utility_vector"),
    ("rmkit.dynamics", "run", "dynamics.run"),
    ("rmkit.dynamics", "write_trace_csv", "dynamics.write_trace_csv"),
    ("rmkit.dynamics", "write_strategies_jsonl", "dynamics.write_strategies_jsonl"),
    ("rmkit.dynamics", "read_strategies_jsonl", "dynamics.read_strategies_jsonl"),
    ("rmkit.dynamics", "cce_gap", "dynamics.cce_gap"),
    ("rmkit.hard_instances", "analyze_phases", "hard_instances.analyze_phases"),
)


class Tracer:
    """Span recorder; ``install`` wraps the module attributes, ``close`` restores them."""

    def __init__(self, extra=()):
        self.extra = tuple(extra)  # (object, attribute, span name) beyond MODULE_WRAPS
        self.names = []  # span name per id
        self._ids = {}
        self._patched = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def reset(self):
        """Drop the recorded spans; installed wrappers keep recording into the same arrays."""
        if self._stack != [-1]:
            raise RuntimeError("reset() called with spans still open")
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._name_id(name)
        clock = time.perf_counter
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        targets = [(importlib.import_module(m), attr, name) for m, attr, name in MODULE_WRAPS]
        for owner, attr, name in targets + list(self.extra):
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def close(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.close()

    @property
    def span_count(self):
        return len(self._start)

    def aggregate(self):
        """{name: {"calls", "total_s", "self_s"}} plus the summed top-level time."""
        if self._stack != [-1]:
            raise RuntimeError("aggregate() called with spans still open")
        n = len(self._start)
        if n == 0:
            return {}, 0.0
        name = np.frombuffer(self._name, dtype=np.int32, count=n)
        parent = np.frombuffer(self._parent, dtype=np.int32, count=n)
        dur = np.frombuffer(self._end, dtype=np.float64, count=n) - np.frombuffer(
            self._start, dtype=np.float64, count=n
        )
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        stats = {
            self.names[i]: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selfs[i]),
            }
            for i in range(k)
            if calls[i]
        }
        return stats, float(dur[~has_parent].sum())

    def top_level(self):
        """[(name, duration)] of the spans no other span encloses, in order."""
        return [(self.names[self._name[i]], self._end[i] - self._start[i])
                for i in range(len(self._start)) if self._parent[i] < 0]

    def save(self, path):
        """Write the raw spans (name id, parent, start, end) and the name table."""
        n = len(self._start)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32, count=n),
            parent=np.frombuffer(self._parent, dtype=np.int32, count=n),
            start=np.frombuffer(self._start, dtype=np.float64, count=n),
            end=np.frombuffer(self._end, dtype=np.float64, count=n),
        )

