"""The benchmark's tooling: the verdict rule of scripts/bench_pairs.py over
synthetic runs, and the rmkit names that perfbench's tracer wraps."""

import importlib
import importlib.util
import os
import threading

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


def test_no_lane_task_calls_a_function_the_benchmark_tracer_wraps(tmp_path, monkeypatch, capsys):
    # the tracer keeps one stack of open spans, so every wrapped name must
    # run on the thread that opened the span around it
    from rmkit import cli
    from rmkit import dynamics as dyn
    from rmkit import games as gm
    from rmkit import objectives as ob

    tracing = _load("perfbench_tracing", "perfbench", "tracing.py")
    off_main = []

    def on_main_only(fn, name):
        def recorded(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
                raise AssertionError(f"{name} ran off the main thread")
            return fn(*args, **kwargs)
        return recorded

    for module, attr, name in tracing.MODULE_WRAPS:
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, attr, on_main_only(getattr(owner, attr), name))
    tasks, start = [], gm.Lane.start
    monkeypatch.setattr(gm.Lane, "start", lambda lane, task: tasks.append(1) or start(lane, task))
    monkeypatch.setattr(gm, "_LANE_ENTRIES", 0)
    game = gm.normalize_game(gm.random_potential_game(3, (8, 5, 6), seed=7))
    for target in (game, ob.make_multilinear(game)):
        for scheme in ("simultaneous", "alternating", "lazy"):
            config = dyn.RunConfig(scheme=scheme, kind="rm+", max_rounds=50,
                                   epsilon=0.001 if scheme == "lazy" else None)
            result = dyn.run(target, config)
        cli._final_gaps(target, result.final_profile)
    path = tmp_path / "game.json"
    gm.save_game(game, str(path))
    trace, strategies = tmp_path / "trace.csv", tmp_path / "play.jsonl"
    assert cli.main(["run", "--game", str(path), "--algo", "rm+", "--max-rounds", "50",
                     "--trace", str(trace), "--strategies", str(strategies)]) == 0
    assert cli.main(["analyze", "--strategies", str(strategies), "--analyses", "cce",
                     "--game", str(path)]) == 0
    capsys.readouterr()
    assert tasks and not off_main
