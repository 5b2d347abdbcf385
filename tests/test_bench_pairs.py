"""The benchmark's tooling: the verdict rule of scripts/bench_pairs.py over
synthetic runs, and the rmkit names that perfbench's tracer wraps."""

import importlib
import importlib.util
import os

import pytest


def _load(name, *parts):
    """The repository file at ``parts``, loaded by path as module ``name``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, *parts)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ten parent runs around 1.0: median 1.0, q3 - q1 0.02
_PARENT = [0.98, 0.99, 0.99, 0.995, 1.0, 1.0, 1.005, 1.01, 1.01, 1.02]


@pytest.mark.parametrize("change, better, want", [
    # every pair a few per cent better, by more than the parent's q3 - q1
    ([x - 0.05 for x in _PARENT], "lower", "gain"),
    ([x + 0.05 for x in _PARENT], "higher", "gain"),
    # 9 of 10 pairs are still a gain; a tie counts for neither side
    ([x - 0.05 for x in _PARENT[:9]] + _PARENT[9:], "lower", "gain"),
    ([x - 0.05 for x in _PARENT[:8]] + _PARENT[8:], "lower", "within_bound"),
    # every pair better, but by less than the parent's q3 - q1
    ([x - 0.01 for x in _PARENT], "lower", "within_bound"),
    (list(_PARENT), "lower", "within_bound"),
    # the median 30 % worse against a 25 % bound, on either side of better
    ([x * 1.3 for x in _PARENT], "lower", "worse"),
    ([x * 0.7 for x in _PARENT], "higher", "worse"),
    # 20 % worse stays within the bound
    ([x * 1.2 for x in _PARENT], "lower", "within_bound"),
    # a middle half of 0.4 against the 0.25 bound
    ([0.6, 0.7, 0.75, 0.8, 1.0, 1.0, 1.2, 1.25, 1.3, 1.4], "lower", "unresolved"),
    # as wide, but every change run reads better than every parent run
    ([0.3, 0.35, 0.4, 0.5, 0.6, 0.6, 0.7, 0.8, 0.9, 0.95], "lower", "gain"),
])
def test_bench_pairs_verdicts(change, better, want):
    script = _load("bench_pairs", "scripts", "bench_pairs.py")
    assert script.verdict(_PARENT, change, better, 0.25) == want


def test_every_function_the_benchmark_tracer_wraps_still_exists():
    # Tracer.install looks each one up with no default, so a deleted name
    # would crash only the benchmark's traced passes
    tracing = _load("perfbench_tracing", "perfbench", "tracing.py")
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.MODULE_WRAPS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"perfbench/tracing.py MODULE_WRAPS names {missing}"
