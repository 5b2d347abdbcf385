"""Golden output digests, and the reference contraction they were made with.

Each case runs one fixed configuration, writes its trace CSV and strategies
JSONL, and compares the sha256 of both files with ``tests/golden/digests.json``.
Traces carry every float at ``%.17g``, so a change to the round loop or to
the contraction that moves a single bit of any gap, norm, value or strategy
fails here.  The ``analyze_*`` cases run ``rmkit analyze`` on such a recording
and digest its report (the alternating case digests only its ``cce``
member, the numbers, so that a label the report gains beside them does not
count as a change of output).  The digests were generated before the contraction kernel was
rewritten (the last three cases before the round loop moved to plain arrays,
the two multilinear ``314``/``2223`` cases before the objective's gradient
was hoisted out of the round loop, the ``analyze_*`` cases before run records
became columns) and must stay unchanged by refactors.

Regenerate them only for a change that is meant to alter outputs:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from rmkit import cli
from rmkit import dynamics as dyn
from rmkit import games as gm
from rmkit import hard_instances as hard
from rmkit import objectives as ob

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden", "digests.json")


def _potential_game():
    return gm.normalize_game(gm.random_potential_game(3, (3, 3, 4), seed=20260816))


def _hard_walk():
    return hard.build_padded(6), dyn.RunConfig(
        kind="rm", max_rounds=20_000, init_strategies=hard.pure_init_strategies(6))


def _learner_case(kind, scheme):
    def build():
        return _potential_game(), dyn.RunConfig(
            scheme=scheme, kind=kind, max_rounds=300,
            discount=0.5 if kind == "drm+" else None,
            epsilon=0.01 if scheme == "lazy" else None)
    return build


def _threshold_multilinear():
    game = gm.normalize_game(gm.random_potential_game(3, (2, 3, 4), seed=7))
    return ob.make_multilinear(game), dyn.RunConfig(
        scheme="lazy", kind="rm+", epsilon=0.01, init="threshold", max_rounds=300)


def _multilinear_unit_axis():
    # a size-1 axis is where a stacked matmul would round differently
    game = gm.normalize_game(gm.random_potential_game(3, (3, 1, 4), seed=11))
    return ob.make_multilinear(game), dyn.RunConfig(
        scheme="simultaneous", kind="rm+", max_rounds=300)


def _multilinear_four_players():
    game = gm.random_potential_game(4, (2, 2, 2, 3), seed=12)
    return ob.make_multilinear(game), dyn.RunConfig(
        scheme="alternating", kind="rm", max_rounds=300)


def _constant_sum_game():
    # no potential and no pure equilibrium: lazy rm+ keeps skipping and
    # stepping for the whole run
    A = np.random.default_rng(3).random((3, 4))
    return gm.GameSpec((3, 4), [A, 1.0 - A])


def _lazy_regret_updates():
    return _constant_sum_game(), dyn.RunConfig(
        scheme="lazy", kind="rm+", epsilon=0.02, max_rounds=400, lazy_regret_updates=True)


def _hard_uniform_m4():
    return hard.build_uniform_init(4), dyn.RunConfig(kind="rm", max_rounds=3_000)


def _no_potential():
    rng = np.random.default_rng(20261018)
    game = gm.GameSpec((3, 4), [rng.random((3, 4)) for _ in range(2)])
    return game, dyn.RunConfig(kind="rm", max_rounds=300)


def _cycle_drm_plus():
    return ob.make_cycle_polynomial(), dyn.RunConfig(
        kind="drm+", discount=0.7, max_rounds=300)


CASES = {
    "hard_m6_rm_pure_20000": _hard_walk,
    **{
        f"potential_334_{kind}_{scheme}": _learner_case(kind, scheme)
        for kind in ("rm", "rm+", "drm+")
        for scheme in ("simultaneous", "alternating", "lazy")
    },
    "multilinear_lazy_rm+_threshold": _threshold_multilinear,
    "multilinear_314_simultaneous_rm+": _multilinear_unit_axis,
    "multilinear_2223_alternating_rm": _multilinear_four_players,
    "cycle_poly_drm+": _cycle_drm_plus,
    "constant_sum_34_lazy_rm+_lazy_regret_updates": _lazy_regret_updates,
    "hard_m4_rm_uniform_3000": _hard_uniform_m4,
    "general_34_rm_no_potential": _no_potential,
}


# (recording case, analyze flags, report member to digest or None for the file)
ANALYZE_CASES = {
    "analyze_hard_m6_rm_pure_20000": (
        "hard_m6_rm_pure_20000",
        ["--analyses", "phases,stall_growth,cce", "--m", "6", "--cce-at", "1000,5000,20000"],
        None),
    "analyze_hard_m4_rm_uniform_3000_skip1": (
        "hard_m4_rm_uniform_3000",
        ["--analyses", "phases,stall_growth", "--m", "4", "--skip-rounds", "1"],
        None),
    "analyze_potential_334_rm_alternating_cce": (
        "potential_334_rm_alternating",
        ["--analyses", "cce", "--scheme", "alternating", "--cce-at", "1,17,150,300"],
        "cce"),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def analyze_digest(name, workdir):
    source, flags, member = ANALYZE_CASES[name]
    target, config = CASES[source]()
    strategies = os.path.join(workdir, f"{name}.jsonl")
    game = os.path.join(workdir, f"{name}.game.json")
    report = os.path.join(workdir, f"{name}.report.json")
    dyn.write_strategies_jsonl(dyn.run(target, config).history, strategies)
    gm.save_game(target, game)
    argv = ["analyze", "--strategies", strategies, "--game", game, "--out", report, *flags]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    if member is None:
        return {"report": _sha256(report)}
    with open(report) as fh:
        doc = json.load(fh)[member]
    return {member: hashlib.sha256(json.dumps(doc).encode()).hexdigest()}


def case_digests(name, workdir):
    target, config = CASES[name]()
    result = dyn.run(target, config)
    trace = os.path.join(workdir, f"{name}.csv")
    strategies = os.path.join(workdir, f"{name}.jsonl")
    dyn.write_trace_csv(result.traces, trace)
    dyn.write_strategies_jsonl(result.history, strategies)
    return {"rounds": result.rounds, "trace": _sha256(trace),
            "strategies": _sha256(strategies)}


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_the_golden_digests(name, tmp_path):
    with open(DIGESTS_PATH) as fh:
        golden = json.load(fh)
    assert case_digests(name, str(tmp_path)) == golden[name]


@pytest.mark.parametrize("name", list(ANALYZE_CASES))
def test_analyze_reports_match_the_golden_digests(name, tmp_path):
    with open(DIGESTS_PATH) as fh:
        golden = json.load(fh)
    assert analyze_digest(name, str(tmp_path)) == golden[name]


def test_every_golden_case_is_still_run():
    with open(DIGESTS_PATH) as fh:
        assert sorted(json.load(fh)) == sorted([*CASES, *ANALYZE_CASES])


# ---------------------------------------------------------------------------
# the contraction as it was written before the single kernel


def _reference_utility_vector(tensor, player, profile):
    t = np.ascontiguousarray(np.moveaxis(tensor, player, 0))
    others = [profile[j] for j in range(tensor.ndim) if j != player]
    for j in range(len(others) - 1, -1, -1):
        t = np.tensordot(t, np.asarray(others[j], dtype=np.float64), axes=([j + 1], [0]))
    return t


def _reference_tensor_value(tensor, profile):
    t = tensor
    for j in range(tensor.ndim - 1, -1, -1):
        t = np.tensordot(t, np.asarray(profile[j], dtype=np.float64), axes=([j], [0]))
    return float(t)


# (3, 1, 2) has a unit axis, where a stacked matmul rounds differently from
# the single matrix-vector product that tensordot performs
@pytest.mark.parametrize(
    "shape", [(7, 7), (3, 4), (2, 3, 4), (4, 4, 4), (2, 2, 2, 3), (3, 1, 2), (64, 64, 64)])
def test_contraction_is_bit_identical_to_the_tensordot_reference(shape):
    rng = np.random.default_rng(sum(shape) * len(shape))
    game = gm.GameSpec(shape, [rng.random(shape) for _ in shape])
    for _ in range(5):
        profile = [rng.dirichlet(np.ones(m)) for m in shape]
        for i in range(len(shape)):
            got = gm.utility_vector(game, i, profile)
            want = _reference_utility_vector(game.utilities[i], i, profile)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert gm.mixed_tensor_value(game.utilities[i], profile) == \
                _reference_tensor_value(game.utilities[i], profile)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        doc = {name: case_digests(name, workdir) for name in CASES}
        doc.update({name: analyze_digest(name, workdir) for name in ANALYZE_CASES})
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
