"""Unit tests for the multi-learner dynamics driver and its reports."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from rmkit import dynamics as dyn
from rmkit import games as gm
from rmkit import hard_instances as hard
from rmkit import learners as ln
from rmkit import objectives as ob
from rmkit.dynamics import InitPolicy, RunConfig, Scheme


def _corner_game():
    """Identical interests, single 1 in the corner; everything about the
    first rounds of regret matching on it is computable by hand."""
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    return gm.GameSpec((2, 2), [a, a.copy()], tags=frozenset({gm.TAG_IDENTICAL}))


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_run_config_coerces_strings():
    cfg = RunConfig(scheme="lazy", kind="rm+", epsilon=0.5)
    assert cfg.scheme is Scheme.LAZY_ALTERNATING
    assert cfg.kind is ln.Kind.RM_PLUS


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        (dict(max_rounds=0), "max_rounds"),
        (dict(epsilon=-1.0), "epsilon must be positive"),
        (dict(scheme="lazy"), "lazy scheme needs epsilon"),
        (dict(kind="drm+"), "drm\\+ needs a discount"),
        (dict(init="custom"), "custom init needs init_regrets"),
        (dict(init_regrets=[[1.0, 0.0]]), "only applies to custom init"),
    ],
)
def test_run_config_rejects(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        RunConfig(**kwargs)


def test_run_rejects_unknown_targets():
    with pytest.raises(TypeError, match="cannot run on"):
        dyn.run(42, RunConfig(max_rounds=1))


def test_run_validates_custom_block_counts():
    game = _corner_game()
    with pytest.raises(ValueError, match="one init regret vector per block"):
        dyn.run(game, RunConfig(init="custom", init_regrets=[[1.0, 0.0]], max_rounds=1))
    with pytest.raises(ValueError, match="one init strategy per block"):
        dyn.run(game, RunConfig(init_strategies=[[1.0, 0.0]], max_rounds=1))


# ---------------------------------------------------------------------------
# hand-derived first rounds on the corner game
# ---------------------------------------------------------------------------


def test_simultaneous_rm_first_rounds_by_hand():
    # round 1: both play (1/2, 1/2); u = (1/2, 0); <x,u> = 1/4;
    # g = (1/4, -1/4); play moves to (1, 0) for both; potential hits 1
    res = dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=3))
    assert res.rounds == 3 and res.stop_reason == "max_rounds"
    assert res.initial_gaps == [0.25, 0.25]

    np.testing.assert_array_equal(res.history.strategies[0][0], [0.5, 0.5])
    np.testing.assert_array_equal(res.history.utilities[0][0], [0.5, 0.0])

    first = res.traces[0]
    assert first.br_gaps == [0.25, 0.25]
    assert first.kkt_gap == 0.5
    assert first.regret_l2 == [0.25, 0.25]
    assert first.regret_l1 == [0.25, 0.25]
    assert first.value == 1.0
    assert first.updated == [True, True]

    # from round 2 on the profile is the corner and gaps vanish; unplayed
    # action keeps losing regret: r = (1/4, -1/4 - (rounds-1))
    assert res.traces[1].br_gaps == [0.0, 0.0]
    assert res.traces[1].value == 1.0
    for state in res.states:
        np.testing.assert_array_equal(state.regrets, [0.25, -2.25])
    for x in res.final_profile:
        np.testing.assert_array_equal(x, [1.0, 0.0])


def test_simultaneous_rm_stops_when_all_gaps_reach_epsilon():
    res = dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=50, epsilon=1e-9))
    assert res.converged and res.stop_reason == "converged"
    assert res.rounds == 2  # round 1 has gaps 1/4; round 2 has gaps 0


def test_alternating_observes_the_predecessors_updates():
    # player 2 moves after player 1 within the round, so its round-1 utility
    # is measured against player 1's already-updated strategy (1, 0)
    res = dyn.run(_corner_game(), RunConfig(kind="rm", scheme="alternating", max_rounds=1))
    np.testing.assert_array_equal(res.history.utilities[0][0], [0.5, 0.0])
    np.testing.assert_array_equal(res.history.utilities[0][1], [1.0, 0.0])
    assert res.traces[0].br_gaps == [0.25, 0.5]
    np.testing.assert_array_equal(res.states[0].regrets, [0.25, -0.25])
    np.testing.assert_array_equal(res.states[1].regrets, [0.5, -0.5])
    # the recorded entering profile predates both updates
    np.testing.assert_array_equal(res.history.strategies[0][0], [0.5, 0.5])
    np.testing.assert_array_equal(res.history.strategies[0][1], [0.5, 0.5])


# ---------------------------------------------------------------------------
# lazy alternation
# ---------------------------------------------------------------------------


def _near_converged_config(**extra):
    # gaps at ((0.95, 0.05), (1, 0)): ~0.05 and 0 - both inside eps = 0.1
    return RunConfig(
        scheme="lazy",
        kind="rm+",
        epsilon=0.1,
        max_rounds=5,
        init_strategies=[np.array([0.95, 0.05]), np.array([1.0, 0.0])],
        **extra,
    )


def test_lazy_freezes_players_inside_epsilon():
    res = dyn.run(_corner_game(), _near_converged_config())
    assert res.converged and res.rounds == 1
    assert res.traces[0].updated == [False, False]
    for state, init in zip(res.states, ([0.95, 0.05], [1.0, 0.0])):
        np.testing.assert_array_equal(state.regrets, [0.0, 0.0])
        np.testing.assert_array_equal(state.strategy, init)


def test_lazy_regret_updates_accumulate_without_moving_play():
    res = dyn.run(_corner_game(), _near_converged_config(lazy_regret_updates=True))
    assert res.converged and res.rounds == 1
    assert res.traces[0].updated == [False, False]
    # player 1 saw u = (1, 0) against <x,u> = 0.95: positive regret ~0.05
    # lands on the first action, but the played strategy stays put
    r = res.states[0].regrets
    assert r[0] == pytest.approx(0.05, abs=1e-12)
    assert r[1] == 0.0
    np.testing.assert_array_equal(res.states[0].strategy, [0.95, 0.05])


def test_lazy_updates_only_players_beyond_epsilon():
    game = gm.random_potential_game(3, (3, 2, 4), seed=12)
    res = dyn.run(game, RunConfig(scheme="lazy", kind="rm+", epsilon=0.05, max_rounds=400))
    assert res.converged
    for rec in res.traces:
        for i, updated in enumerate(rec.updated):
            if not updated:
                assert rec.br_gaps[i] <= 0.05


# ---------------------------------------------------------------------------
# potential telescoping along lazy runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, discount",
    [("rm+", None), ("drm+", 0.6)],
)
def test_lazy_potential_gains_telescope_across_updates(kind, discount):
    # every realized update lifts the potential by at least
    # gap^2 / l1(pre-discount post-update regrets); the discounted kind
    # stores alpha * [r+g]+, so divide the stored norm by alpha
    game = gm.random_potential_game(3, (3, 2, 4), seed=21)
    denoms = {}

    def on_step(t, i, before, g, after):
        l1 = float(ln.positive_part(after.regrets).sum())
        if discount is not None:
            l1 /= discount
        denoms.setdefault(t, []).append((i, l1))

    res = dyn.run(
        game,
        RunConfig(scheme="lazy", kind=kind, discount=discount, epsilon=0.05, max_rounds=600),
        on_step=on_step,
    )
    assert res.converged
    values = [gm.mixed_potential(game, res.history.strategies[0])] + [
        rec.value for rec in res.traces
    ]
    diffs = np.diff(values)
    assert float(diffs.min()) >= -1e-12  # lazy ascent never loses potential
    for t, rec in enumerate(res.traces, start=1):
        floor = 0.0
        for i, l1 in denoms.get(t, []):
            assert rec.updated[i]
            if l1 > 0.0:
                floor += rec.br_gaps[i] ** 2 / l1
        assert diffs[t - 1] >= floor - 1e-9


# ---------------------------------------------------------------------------
# determinism, lockstep, and recorded artifacts
# ---------------------------------------------------------------------------


def test_runs_are_deterministic_and_traces_serialize_identically(tmp_path):
    game = gm.random_potential_game(2, (3, 3), seed=33)
    cfg = dict(kind="rm+", max_rounds=200)
    a = dyn.run(game, RunConfig(**cfg))
    b = dyn.run(game, RunConfig(**cfg))
    assert [r.kkt_gap for r in a.traces] == [r.kkt_gap for r in b.traces]
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    dyn.write_trace_csv(a.traces, pa)
    dyn.write_trace_csv(b.traces, pb)
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("kind", ["rm", "rm+"])
def test_symmetric_game_keeps_identical_learners_in_lockstep(kind):
    game = gm.random_symmetric_identical_game(2, 4, seed=9)
    res = dyn.run(game, RunConfig(kind=kind, max_rounds=200))
    for profile in res.history.strategies:
        np.testing.assert_array_equal(profile[0], profile[1])
    np.testing.assert_array_equal(res.states[0].regrets, res.states[1].regrets)


def test_trace_csv_rows_reproduce_the_records_exactly(tmp_path):
    game = gm.random_potential_game(2, (3, 3), seed=14)
    res = dyn.run(game, RunConfig(kind="rm+", max_rounds=40))
    path = tmp_path / "trace.csv"
    dyn.write_trace_csv(res.traces, path)
    lines = path.read_text().splitlines()
    n = game.num_players
    assert lines[0] == dyn.TRACE_HEADER
    assert len(lines) == 1 + len(res.traces) * (n + 1)
    for t, rec in enumerate(res.traces):
        block = lines[1 + t * (n + 1) : 1 + (t + 1) * (n + 1)]
        for i in range(n):
            row = block[i].split(",")
            assert row[0] == str(rec.round) and row[1] == str(i)
            # %.17g fields round-trip to the exact stored doubles
            assert float(row[2]) == rec.br_gaps[i]
            assert float(row[3]) == rec.kkt_gap
            assert float(row[4]) == rec.regret_l2[i]
            assert float(row[5]) == rec.regret_l1[i]
            assert float(row[6]) == rec.value
            assert row[7] == ("1" if rec.updated[i] else "0")
        summary = block[n].split(",")
        assert summary[1] == "-1"
        assert float(summary[2]) == max(rec.br_gaps)
        assert float(summary[4]) == max(rec.regret_l2)
        assert float(summary[5]) == max(rec.regret_l1)
        assert summary[7] == str(sum(rec.updated))


def test_strategies_jsonl_round_trip_is_bit_exact(tmp_path):
    res = dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=5))
    path = tmp_path / "strategies.jsonl"
    dyn.write_strategies_jsonl(res.history, path)
    first = json.loads(path.read_text().splitlines()[0])
    assert first["round"] == 1 and len(first["blocks"]) == 2
    rounds = dyn.read_strategies_jsonl(path)
    assert len(rounds) == 5
    for recorded, loaded in zip(res.history.strategies, rounds):
        for a, b in zip(recorded, loaded):
            np.testing.assert_array_equal(np.asarray(a), b)


def test_read_strategies_jsonl_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"round": 1, "blocks": [[1.0, 0.0]]}\n{oops\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        dyn.read_strategies_jsonl(path)


def test_read_strategies_jsonl_rejects_blocks_that_change_between_lines(tmp_path):
    path = tmp_path / "ragged.jsonl"
    first = '{"round": 1, "blocks": [[1.0, 0.0], [0.0, 1.0]]}'
    for second, sizes in (('[[1.0, 0.0]]', "[2]"), ('[[1.0, 0.0], [1.0]]', "[2, 1]")):
        path.write_text(first + '\n{"round": 2, "blocks": ' + second + "}\n")
        with pytest.raises(ValueError) as info:
            dyn.read_strategies_jsonl(path)
        assert str(info.value) == f"{path}:2: block sizes {sizes} differ from line 1's [2, 2]"


# ---------------------------------------------------------------------------
# the run record: columns behind per-round views
# ---------------------------------------------------------------------------


def test_the_record_is_read_only_columns_behind_per_round_views():
    game = gm.random_potential_game(3, (2, 3, 4), seed=41)
    res = dyn.run(game, RunConfig(kind="rm+", max_rounds=150))
    strategies, utilities, traces = res.history.strategies, res.history.utilities, res.traces
    for rounds in (strategies, utilities):
        assert len(rounds) == 150
        assert [b.shape for b in rounds.blocks] == [(150, 2), (150, 3), (150, 4)]
        assert all(b.dtype == np.float64 and not b.flags.writeable for b in rounds.blocks)
        assert [len(row) for row in rounds] == [3] * 150
        last = rounds[-1]  # a list of block rows
        assert isinstance(last, list)
        assert all(np.array_equal(x, b[149]) for x, b in zip(last, rounds.blocks))
        part = rounds[10:20:3]
        assert len(part) == 4 and part == [rounds[t] for t in (10, 13, 16, 19)]
    with pytest.raises(ValueError):
        strategies[0][0][0] = 1.0
    assert isinstance(traces[0], dyn.TraceRecord) and traces[-1].round == 150
    assert [rec.round for rec in traces[7:10]] == [8, 9, 10]
    assert traces[7:10] == [traces[t] for t in (7, 8, 9)]
    records = list(traces)
    for name in ("br_gaps", "kkt_gap", "regret_l2", "regret_l1", "value", "updated"):
        assert getattr(traces, name).tolist() == [getattr(rec, name) for rec in records]
    again = dyn.run(game, RunConfig(kind="rm+", max_rounds=150))
    assert again.traces == traces and again.history == res.history
    assert again.traces[:149] != traces


def test_play_history_stacks_per_round_lists():
    a, b = np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0])
    history = dyn.PlayHistory(scheme=Scheme.SIMULTANEOUS, strategies=[[a, b], [b[:2], b]],
                              utilities=[[a, b], [a, b]])
    assert history.rounds == 2
    assert [blk.shape for blk in history.strategies.blocks] == [(2, 2), (2, 3)]
    assert history.utilities == [[a, b], [a, b]]
    for missing in ([None, None], [[None, None], [None, None]]):
        unrecorded = dyn.PlayHistory(Scheme.SIMULTANEOUS, [[a, b], [a, b]], missing)
        assert unrecorded.utilities is None and unrecorded.rounds == 2
    assert dyn.PlayHistory(Scheme.SIMULTANEOUS).rounds == 0
    ragged = r"round 2 has block sizes \[3, 3\], round 1 has \[2, 3\]"
    with pytest.raises(ValueError, match=ragged):
        dyn.PlayHistory(Scheme.SIMULTANEOUS, [[a, b], [b, b]])


def test_a_long_walk_keeps_under_400_bytes_per_round():
    config = RunConfig(kind="rm", max_rounds=10_000, init_strategies=hard.pure_init_strategies(6))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = dyn.run(hard.build_padded(6), config)
        kept, peak = (b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # per round: strategies and gradients of two 7-action blocks (224 B), a
    # trace row (64 B) and the updated flags (2 B), plus the buffers' slack
    assert result.rounds == 10_000
    assert kept / result.rounds <= 400 and peak / result.rounds <= 400


def test_a_run_reserves_no_rows_for_its_round_limit():
    game = gm.random_potential_game(2, (3, 3), seed=5)
    config = RunConfig(scheme="lazy", kind="rm+", epsilon=0.05, max_rounds=10**7)
    dyn.run(game, RunConfig(scheme="lazy", kind="rm+", epsilon=0.05))  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = dyn.run(game, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.converged and result.rounds <= 100
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# init policies
# ---------------------------------------------------------------------------


def test_threshold_init_seeds_the_documented_constant():
    game = _corner_game()
    L = ob.multilinear_smoothness_bound(game.potential)
    want = ln.threshold_init_value(2, L)
    seen = {}

    def on_step(t, i, before, g, after):
        if t == 1:
            seen[i] = before.regrets.copy()

    dyn.run(game, RunConfig(init="threshold", max_rounds=2), on_step=on_step)
    for i in range(2):
        np.testing.assert_array_equal(seen[i], np.full(2, want))
    assert want >= 18.0  # 9 sqrt(2) * sqrt(2), up to rounding


def test_threshold_init_needs_a_potential_or_objective():
    game = gm.GameSpec((2, 2), [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="threshold init needs"):
        dyn.run(game, RunConfig(init="threshold", max_rounds=1))


def test_custom_init_regrets_and_strategies_shape_round_one():
    game = _corner_game()
    res = dyn.run(
        game,
        RunConfig(init="custom", init_regrets=[[1.0, 0.0], [0.0, 1.0]], max_rounds=1),
    )
    np.testing.assert_array_equal(res.history.strategies[0][0], [1.0, 0.0])
    np.testing.assert_array_equal(res.history.strategies[0][1], [0.0, 1.0])

    res = dyn.run(
        game,
        RunConfig(init_strategies=[np.array([0.25, 0.75]), np.array([1.0, 0.0])], max_rounds=1),
    )
    np.testing.assert_array_equal(res.history.strategies[0][0], [0.25, 0.75])
    np.testing.assert_array_equal(res.history.strategies[0][1], [1.0, 0.0])


# ---------------------------------------------------------------------------
# objectives as targets
# ---------------------------------------------------------------------------


def test_run_on_the_cycle_objective_records_values():
    res = dyn.run(ob.make_cycle_polynomial(), RunConfig(kind="rm", max_rounds=10))
    assert res.rounds == 10
    assert all(len(rec.br_gaps) == 1 for rec in res.traces)
    assert all(math.isfinite(rec.value) for rec in res.traces)


def test_run_without_a_potential_reports_nan_values():
    game = gm.GameSpec((2, 2), [np.eye(2), 1.0 - np.eye(2)])
    res = dyn.run(game, RunConfig(kind="rm+", max_rounds=3))
    assert all(math.isnan(rec.value) for rec in res.traces)
    assert res.traces == dyn.run(game, RunConfig(kind="rm+", max_rounds=3)).traces


# ---------------------------------------------------------------------------
# the round loop against the validated single-step reference
# ---------------------------------------------------------------------------


def _constant_sum_game():
    # no pure equilibrium, so lazy runs keep both skipping and stepping
    A = np.random.default_rng(3).random((3, 4))
    return gm.GameSpec((3, 4), [A, 1.0 - A])


@pytest.mark.parametrize("kind", ["rm", "rm+", "drm+"])
@pytest.mark.parametrize(
    "scheme, lazy_regret_updates",
    [("simultaneous", False), ("alternating", False), ("lazy", False), ("lazy", True)],
)
def test_the_loop_replays_bit_for_bit_through_the_reference_step(
        kind, scheme, lazy_regret_updates):
    game = _constant_sum_game()
    config = RunConfig(
        scheme=scheme, kind=kind, max_rounds=150,
        discount=0.9 if kind == "drm+" else None,
        epsilon=0.02 if scheme == "lazy" else None,
        lazy_regret_updates=lazy_regret_updates)
    res = dyn.run(game, config)
    states = [ln.new_learner(kind, m, discount=config.discount) for m in game.action_counts]
    skipped = 0
    for t, rec in enumerate(res.traces):
        for i, state in enumerate(states):
            assert np.array_equal(res.history.strategies[t][i], state.strategy)
        for i, u in enumerate(res.history.utilities[t]):
            if rec.updated[i]:
                states[i], _ = ln.step(states[i], u)
                continue
            skipped += 1
            if lazy_regret_updates:
                stepped, _ = ln.step(states[i], u)
                states[i] = dataclasses.replace(stepped, strategy=states[i].strategy)
        assert rec.regret_l2 == [ln.regret_l2(s) for s in states]
        assert rec.regret_l1 == [ln.regret_l1_positive(s) for s in states]
    assert (skipped > 0) == (scheme == "lazy")
    for got, want in zip(res.states, states):
        assert np.array_equal(got.regrets, want.regrets)
        assert np.array_equal(got.strategy, want.strategy)
        assert np.array_equal(ln.current_strategy(got), ln.current_strategy(want))


# ---------------------------------------------------------------------------
# the gradient kernel, hoisted once per run
# ---------------------------------------------------------------------------


def _assert_same_run(a, b):
    assert a.rounds == b.rounds and a.stop_reason == b.stop_reason
    assert a.traces == b.traces
    for got, want in ((a.history.strategies, b.history.strategies),
                      (a.history.utilities, b.history.utilities)):
        assert len(got) == len(want)
        for row_a, row_b in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(row_a, row_b))
    for x, y in zip(a.states, b.states):
        assert np.array_equal(x.regrets, y.regrets) and np.array_equal(x.strategy, y.strategy)


@pytest.mark.parametrize("scheme", ["simultaneous", "alternating", "lazy"])
@pytest.mark.parametrize("shape", [(4,), (3, 4), (3, 1, 4), (2, 2, 2, 3)])
def test_a_hoisted_objective_gradient_gives_the_bits_of_per_call_folds(shape, scheme):
    game = gm.normalize_game(gm.random_potential_game(len(shape), shape, seed=sum(shape)))
    obj = ob.make_multilinear(game)
    assert isinstance(obj.block_gradient, gm.BlockGradients)
    # a plain function is not the kernel, so run calls it per call
    per_call = dataclasses.replace(obj, block_gradient=lambda p, i: obj.block_gradient(p, i))
    config = RunConfig(scheme=scheme, kind="rm+", max_rounds=200,
                       epsilon=0.005 if scheme == "lazy" else None)
    _assert_same_run(dyn.run(obj, config), dyn.run(per_call, config))


def test_run_folds_a_multilinear_objective_through_the_hoisted_kernel(monkeypatch):
    obj = ob.make_multilinear(gm.random_potential_game(3, (2, 3, 4), seed=3))

    def per_call(self, profile, i):
        raise AssertionError("run moved an axis per call")

    monkeypatch.setattr(gm.BlockGradients, "__call__", per_call)
    assert dyn.run(obj, RunConfig(kind="rm+", max_rounds=5)).rounds == 5


def test_a_run_on_an_objective_keeps_no_copy_of_its_potential():
    game = gm.normalize_game(gm.random_potential_game(3, (16, 16, 16), seed=5))
    config = RunConfig(kind="rm+", max_rounds=50)
    nbytes = game.potential.nbytes
    for target in (ob.make_multilinear(game), game):  # first-call allocations
        dyn.run(target, config)

    def run_peak(target):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = dyn.run(target, config)
        peak = tracemalloc.get_traced_memory()[1] - base
        del result
        return peak

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        obj = ob.make_multilinear(game)
        objective_peak = run_peak(obj)
        kept = tracemalloc.get_traced_memory()[0] - start
        game_peak = run_peak(game)
    finally:
        tracemalloc.stop()
    # the handle keeps none of the run's moved copies (two of 32 KiB)
    assert kept <= nbytes
    # both runs hold the same two moved copies; the slack covers a few
    # hundred bytes of allocator noise, an eighth of one copy
    assert objective_peak <= game_peak + nbytes // 8


def _objective_with_gradient(bad):
    inner = ob.make_multilinear(gm.normalize_game(gm.random_potential_game(2, (2, 3), seed=1)))

    def block_gradient(profile, i):
        return bad if i == 1 else inner.block_gradient(profile, i)

    return dataclasses.replace(inner, block_gradient=block_gradient)


@pytest.mark.parametrize("scheme", ["simultaneous", "alternating"])
def test_run_rejects_a_non_finite_gradient(scheme):
    obj = _objective_with_gradient(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        dyn.run(obj, RunConfig(scheme=scheme, kind="rm", max_rounds=3))


@pytest.mark.parametrize("scheme", ["simultaneous", "alternating"])
def test_run_rejects_a_gradient_of_the_wrong_shape(scheme):
    obj = _objective_with_gradient(np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        dyn.run(obj, RunConfig(scheme=scheme, kind="rm", max_rounds=3))


def test_progress_callback_fires_on_the_configured_cadence(monkeypatch):
    monkeypatch.setattr(dyn, "PROGRESS_EVERY", 10)
    ticks = []
    dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=25), progress=ticks.append)
    assert ticks == [10, 20]


# ---------------------------------------------------------------------------
# equilibrium measures
# ---------------------------------------------------------------------------


def _nash_oracle(game, profile):
    worst = -np.inf
    for i in range(game.num_players):
        base_profile = list(profile)
        base = gm.mixed_tensor_value(game.utilities[i], base_profile)
        for a in range(game.action_counts[i]):
            e = np.zeros(game.action_counts[i])
            e[a] = 1.0
            dev_profile = list(profile)
            dev_profile[i] = e
            dev = gm.mixed_tensor_value(game.utilities[i], dev_profile)
            worst = max(worst, dev - base)
    return worst


def test_nash_gap_frozen_and_against_pure_deviation_oracle():
    a = np.eye(2)
    game = gm.GameSpec((2, 2), [a, a.copy()], tags=frozenset({gm.TAG_IDENTICAL}))
    uniform = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    assert dyn.nash_gap(game, uniform) == 0.0
    mismatched = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert dyn.nash_gap(game, mismatched) == 1.0

    rng = np.random.default_rng(17)
    rand = gm.random_potential_game(3, (2, 3, 2), seed=17)
    for _ in range(5):
        profile = [rng.dirichlet(np.ones(m)) for m in rand.action_counts]
        assert dyn.nash_gap(rand, profile) == pytest.approx(
            _nash_oracle(rand, profile), abs=1e-12
        )


def test_external_regret_hand_example_and_validation():
    res = dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=2))
    history = res.history
    # utilities: round 1 (1/2, 0) vs play (1/2, 1/2); round 2 (1, 0) vs (1, 0)
    # best fixed action earns 3/2; realized play earned 1/4 + 1 = 5/4
    assert dyn.external_regret(history, 0) == 0.25
    assert dyn.external_regret(history, 0, rounds=1) == 0.25
    for bad in (0, 3):
        with pytest.raises(ValueError, match="rounds must lie"):
            dyn.external_regret(history, 0, rounds=bad)


def test_external_regret_gives_the_bits_of_a_running_sum():
    game = gm.random_potential_game(3, (2, 3, 2), seed=31)
    history = dyn.run(game, RunConfig(kind="rm", max_rounds=120)).history
    for i in range(3):
        for T in (1, 2, 57, 120):
            total, realized = np.zeros(game.action_counts[i]), 0.0
            for x, u in zip(history.strategies[:T], history.utilities[:T]):
                total += u[i]
                realized += float(x[i] @ u[i])
            assert dyn.external_regret(history, i, rounds=T) == float(total.max() - realized)


def test_cce_gap_zero_at_a_pure_equilibrium_history():
    res = dyn.run(
        _corner_game(),
        RunConfig(
            kind="rm",
            max_rounds=5,
            init_strategies=[np.array([1.0, 0.0]), np.array([1.0, 0.0])],
        ),
    )
    assert dyn.cce_gap(_corner_game(), res.history) == 0.0


def test_cce_gap_equals_max_average_regret_under_simultaneous_play():
    game = gm.random_symmetric_identical_game(2, 3, seed=23)
    res = dyn.run(game, RunConfig(kind="rm", max_rounds=50))
    T = res.history.rounds
    want = max(dyn.external_regret(res.history, i) for i in range(2)) / T
    assert dyn.cce_gap(game, res.history) == want
    with pytest.raises(ValueError, match="rounds must lie"):
        dyn.cce_gap(game, res.history, rounds=51)


def test_one_cce_replay_gives_the_bits_of_separate_cce_gap_calls():
    game = gm.random_potential_game(3, (2, 3, 2), seed=31)
    history = dyn.run(game, RunConfig(kind="rm", max_rounds=120)).history
    checkpoints = [120, 7, 50, 7, 1, 99]  # unsorted, with a repeat
    gaps = dyn.cce_gaps(game, history, checkpoints)
    assert gaps == [dyn.cce_gap(game, history, rounds=T) for T in checkpoints]
    for T, gap in zip(checkpoints, gaps):  # a replay per checkpoint, summed by hand
        dev = [np.zeros(m) for m in game.action_counts]
        realized = [0.0] * 3
        for profile in history.strategies[:T]:
            for i in range(3):
                u = gm.utility_vector(game, i, profile)
                dev[i] += u
                realized[i] += float(profile[i] @ u)
        assert gap == max(float(dev[i].max() - realized[i]) / T for i in range(3))
    for bad in ([0], [121], [5, 121]):
        with pytest.raises(ValueError, match="rounds must lie"):
            dyn.cce_gaps(game, history, bad)


def test_cce_gap_refuses_alternating_histories_unless_asked():
    game = _corner_game()
    res = dyn.run(game, RunConfig(kind="rm", scheme="alternating", max_rounds=10))
    with pytest.raises(ValueError, match="allow_alternating"):
        dyn.cce_gap(game, res.history)
    value = dyn.cce_gap(game, res.history, allow_alternating=True)
    assert value >= -1e-12
