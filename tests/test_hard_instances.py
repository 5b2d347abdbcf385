"""Unit tests for the spiral games, the walk analyzer, and its lemma checks."""

import importlib.util
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from rmkit import dynamics as dyn
from rmkit import games as gm
from rmkit import hard_instances as hard
from rmkit import learners as ln
from rmkit import selftests
from rmkit.dynamics import PlayHistory, RunConfig, Scheme

_E = {m: np.eye(m) for m in (2, 4)}


def _fake_history(m, rows_cols):
    """History from (player-1 vector, player-2 vector) pairs, as ``Rounds``
    columns; the analyzer never consults utilities."""
    blocks = [np.array([pair[j] for pair in rows_cols], dtype=float).reshape(-1, m)
              for j in (0, 1)]
    return PlayHistory(scheme=Scheme.SIMULTANEOUS, strategies=dyn.Rounds(blocks), utilities=None)


# ---------------------------------------------------------------------------
# spiral construction
# ---------------------------------------------------------------------------


def test_spiral_frozen_matrices():
    np.testing.assert_array_equal(hard.build_spiral(2).matrix, [[1, 0], [2, 3]])
    np.testing.assert_array_equal(
        hard.build_spiral(4).matrix,
        [[1, 0, 0, 0], [0, 5, 0, 4], [0, 6, 7, 0], [2, 0, 0, 3]],
    )
    six = hard.build_spiral(6)
    assert six.matrix[3, 3] == 11.0  # largest payoff dead center
    assert six.num_payoffs == 11


@pytest.mark.parametrize("m", [0, 1, 3, 5])
def test_spiral_rejects_odd_or_tiny_sizes(m):
    with pytest.raises(ValueError, match="even and at least 2"):
        hard.build_spiral(m)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_spiral_positions_are_a_bijection_onto_the_nonzeros(m):
    spiral = hard.build_spiral(m)
    assert sorted(spiral.positions) == list(range(1, 2 * m))
    assert np.count_nonzero(spiral.matrix) == 2 * m - 1
    for k, (row, col) in spiral.positions.items():
        assert spiral.matrix[row, col] == float(k)


def test_padded_game_wraps_the_spiral_with_a_half_payoff_funnel():
    game = hard.build_padded(6)
    b = game.utilities[0]
    assert b.shape == (7, 7)
    np.testing.assert_array_equal(b[:6, :6], hard.build_spiral(6).matrix)
    assert b[6, 0] == 0.5 and b[0, 6] == 0.5
    assert float(np.abs(b[6, 1:]).sum()) == 0.0
    assert float(np.abs(b[1:, 6]).sum()) == 0.0
    np.testing.assert_array_equal(game.utilities[0], game.utilities[1])
    assert gm.TAG_IDENTICAL in game.tags
    np.testing.assert_array_equal(game.potential, b)


def test_pure_init_strategies_sit_on_the_padding_action():
    inits = hard.pure_init_strategies(6)
    assert len(inits) == 2
    for e in inits:
        assert e.shape == (7,)
        assert e[6] == 1.0 and float(e.sum()) == 1.0
    inits[0][0] = 0.5
    assert inits[1][0] == 0.0  # outputs are independent copies


def test_uniform_init_game_balances_round_one_regrets():
    game = hard.build_uniform_init(6)
    b = game.utilities[0]
    assert b.shape == (12, 12)
    assert abs(float(b.sum())) <= 1e-9
    np.testing.assert_array_equal(b[:6, :6], hard.build_spiral(6).matrix)
    assert gm.TAG_IDENTICAL in game.tags
    # under uniform play the only positive instantaneous regret is on the
    # spiral entry action; every off-spiral action loses 1/(2m)
    want = np.concatenate(([0.5], np.zeros(5), np.full(6, -1.0 / 12.0)))
    for mat in (b, b.T):
        u = mat @ np.full(12, 1.0 / 12.0)
        np.testing.assert_allclose(u - u.mean(), want, rtol=0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# live walks, frozen onset tables, and the phase-budget lemmas
# ---------------------------------------------------------------------------


def test_m4_walk_matches_the_frozen_phase_table():
    game = hard.build_padded(4)
    res = dyn.run(
        game,
        RunConfig(kind="rm", max_rounds=800, init_strategies=hard.pure_init_strategies(4)),
    )
    report = hard.analyze_phases(res.history, hard.build_spiral(4))
    assert report.first_seen == {1: 2, 2: 3, 3: 5, 4: 12, 5: 44, 6: 202}
    lengths = {p.k: p.length for p in report.phases if p.length is not None}
    assert lengths == {2: 2, 3: 7, 4: 32, 5: 158}
    assert report.violations == []
    # payoff 7 is still unreached: the last phase stays open
    assert report.phase(6).t_low == 202 and report.phase(6).t_high is None
    assert report.phase(6).length is None
    ok, failures = hard.check_stall_growth(report)
    assert ok, failures


def test_m6_walk_satisfies_burial_stall_and_cap_bounds():
    game = hard.build_padded(6)
    spiral = hard.build_spiral(6)
    res = dyn.run(
        game,
        RunConfig(kind="rm", max_rounds=1300, init_strategies=hard.pure_init_strategies(6)),
    )
    report = hard.analyze_phases(res.history, spiral)
    assert report.first_seen == {1: 2, 2: 3, 3: 5, 4: 12, 5: 44, 6: 202, 7: 1155}
    lengths = {p.k: p.length for p in report.phases if p.length is not None}
    assert lengths == {2: 2, 3: 7, 4: 32, 5: 158, 6: 953}
    assert report.violations == []
    t_high = {p.k: p.t_high for p in report.phases if p.t_high is not None}
    assert t_high == {2: 4, 3: 11, 4: 43, 5: 201, 6: 1154}

    snaps = hard.replay_regrets(
        res.history, at_rounds=set(t_high.values()) | {res.rounds}
    )
    # offline replay reproduces the online accounting bit for bit
    for i in range(2):
        np.testing.assert_array_equal(snaps[res.rounds][i], res.states[i].regrets)

    for k in (4, 5, 6):
        r1, r2 = snaps[t_high[k]]

        # burial: at the end of phase k, every action still needed from
        # payoff k+1 on - outside the rows/cols of payoffs k and k+1
        # themselves - carries at least the regret paid over phases 2..k-2
        floor = -sum((l - 1) * lengths[l] for l in range(2, k - 1))
        cur, nxt = spiral.positions[k], spiral.positions[k + 1]
        rows, cols = report.retained_actions[k + 1]
        buried_rows = set(rows) - {cur[0], nxt[0]}
        buried_cols = set(cols) - {cur[1], nxt[1]}
        assert buried_rows and buried_cols
        for row in buried_rows:
            assert r1[row] <= floor + 1e-9
        for col in buried_cols:
            assert r2[col] <= floor + 1e-9

        # stall: phase k keeps going until the mover repays half the deficit
        # it carried on the incoming action when the phase opened
        prev1, prev2 = snaps[t_high[k - 1]]
        if k % 2 == 0:
            deficit = prev2[spiral.positions[k + 1][1]]
        else:
            deficit = prev1[spiral.positions[k + 1][0]]
        assert deficit < 0.0
        assert lengths[k] >= -0.5 * deficit

        # cap: the waiting player's positive regret stays geometrically small
        if k % 2 == 0:
            cap_vec, exponent = r1, k // 2
        else:
            cap_vec, exponent = r2, (k - 1) // 2
        cap = (5.0 / 3.0) * 2.0**exponent
        assert float(np.maximum(cap_vec, 0.0).max()) <= cap


# ---------------------------------------------------------------------------
# analyzer violation detection on doctored histories
# ---------------------------------------------------------------------------


def test_analyzer_accepts_a_legal_hand_walk():
    e = _E[2]
    history = _fake_history(2, [(e[0], e[0]), ([0.5, 0.5], e[0]), (e[1], e[0]), (e[1], e[1])])
    report = hard.analyze_phases(history, hard.build_spiral(2))
    assert report.violations == []
    assert report.first_seen == {1: 1, 2: 2, 3: 4}


def test_analyzer_flags_two_mixed_players():
    e = _E[2]
    history = _fake_history(2, [(e[0], e[0]), ([0.5, 0.5], [0.5, 0.5])])
    report = hard.analyze_phases(history, hard.build_spiral(2))
    assert any("both players mixed" in v for v in report.violations)


def test_analyzer_flags_regained_actions():
    e = _E[2]
    history = _fake_history(2, [(e[0], e[0]), (e[1], e[0]), (e[0], e[0])])
    report = hard.analyze_phases(history, hard.build_spiral(2))
    assert any("player 1 regained abandoned actions [0]" in v for v in report.violations)


def test_analyzer_repeats_a_violation_once_per_round_in_round_order():
    e = _E[4]
    legal_pair = [0.5, 0.0, 0.0, 0.5]  # rows {0, 3} and cols {0, 3}
    history = _fake_history(4, [
        (e[0], e[0]),
        *[(legal_pair, legal_pair)] * 3,  # both mixed, rounds 2-4
        (e[3], e[0]),  # payoff 2: player 1 abandons action 0
        *[(e[0], e[0])] * 2,  # ... and takes it back for rounds 6-7
    ])
    report = hard.analyze_phases(history, hard.build_spiral(4))
    assert report.violations == [
        "round 2: both players mixed",
        "round 3: both players mixed",
        "round 4: both players mixed",
        "round 6: player 1 regained abandoned actions [0]",
        "round 7: player 1 regained abandoned actions [0]",
    ]


def test_analyzer_flags_off_spiral_pure_profiles():
    e = _E[2]
    history = _fake_history(2, [(e[0], e[0]), (e[0], e[1])])
    report = hard.analyze_phases(history, hard.build_spiral(2))
    assert any("not on the spiral" in v for v in report.violations)


def test_analyzer_flags_non_consecutive_and_wide_mixing():
    e = _E[4]
    pair = [0.5, 0.0, 0.5, 0.0]  # rows 0 and 2 never form a payoff step
    history = _fake_history(4, [(e[0], e[0]), (pair, e[0])])
    report = hard.analyze_phases(history, hard.build_spiral(4))
    assert any("non-consecutive pair [0, 2]" in v for v in report.violations)

    wide = [1 / 3, 1 / 3, 1 / 3, 0.0]
    history = _fake_history(4, [(e[0], e[0]), (wide, e[0])])
    report = hard.analyze_phases(history, hard.build_spiral(4))
    assert any("mixes 3 actions" in v for v in report.violations)


def test_analyzer_flags_the_partner_sitting_on_the_wrong_action():
    e = _E[4]
    legal_pair = [0.5, 0.0, 0.0, 0.5]  # rows {0, 3}: the payoff 1 -> 2 step
    history = _fake_history(4, [(e[0], e[0]), (legal_pair, e[3])])
    report = hard.analyze_phases(history, hard.build_spiral(4))
    assert any("player 2 should sit on action 0, plays 3" in v for v in report.violations)


def test_analyzer_reports_a_walk_that_never_starts():
    e = _E[2]
    history = _fake_history(2, [(e[1], e[0])])
    report = hard.analyze_phases(history, hard.build_spiral(2))
    assert report.violations == ["payoff 1 profile never played"]


def test_analyzer_skip_rounds_excludes_the_leading_rounds():
    e = _E[2]
    history = _fake_history(2, [([0.5, 0.5], [0.5, 0.5]), (e[0], e[0])])
    report = hard.analyze_phases(history, hard.build_spiral(2), skip_rounds=1)
    assert report.violations == []
    assert report.first_seen == {1: 2}


def test_analyzer_mass_threshold_controls_visibility():
    tiny = 1e-13
    history = _fake_history(2, [([1.0 - tiny, tiny], [1.0, 0.0])])
    spiral = hard.build_spiral(2)
    assert hard.analyze_phases(history, spiral).first_seen == {1: 1}
    seen = hard.analyze_phases(history, spiral, mass_threshold=1e-14).first_seen
    assert seen == {1: 1, 2: 1}


def test_report_json_dict_round_trips_the_phase_fields():
    e = _E[2]
    history = _fake_history(2, [(e[0], e[0]), (e[1], e[0]), (e[1], e[1])])
    report = hard.analyze_phases(history, hard.build_spiral(2))
    doc = report.to_json_dict()
    assert doc["m"] == 2 and doc["rounds"] == 3
    assert doc["first_seen"] == {"1": 1, "2": 2, "3": 3}
    assert doc["phases"][0] == {"k": 2, "t_low": 2, "t_high": 2, "T": 1}
    assert doc["retained_actions"]["3"] == {"player1": [1], "player2": [1]}


# ---------------------------------------------------------------------------
# the tracker fed in chunks
# ---------------------------------------------------------------------------


def _m6_walk():
    res = dyn.run(hard.build_padded(6), RunConfig(
        kind="rm", max_rounds=8_000, init_strategies=hard.pure_init_strategies(6)))
    return res.history, 6, {}


def _stretches(*runs):
    """A history of m=2 pairs, each held for its count of rounds."""
    return _fake_history(2, [pair for pair, count in runs for _ in range(count)]), 2


_MIX = [0.5, 0.5]


def _supports_change_at_chunk_edges():
    e = _E[2]
    # changes at rounds 8 and 4,096 (edges of 7-round chunks) and at 4,097
    return (*_stretches(((e[0], e[0]), 7), ((_MIX, e[0]), 4088), ((e[1], e[0]), 1),
                        ((e[1], _MIX), 104)), {})


def _violations_across_chunk_edges():
    e = _E[2]
    # both mixed in rounds 2-9, and action 0 regained in rounds 4,095-4,100
    return (*_stretches(((e[0], e[0]), 1), ((_MIX, _MIX), 8), ((e[1], e[0]), 4085),
                        ((e[0], e[0]), 6)), {})


def _skip_past_the_first_chunk():
    e = _E[2]
    return (*_stretches(((_MIX, _MIX), 4100), ((e[0], e[0]), 50), ((e[1], e[0]), 50)),
            {"skip_rounds": 4100})


@pytest.mark.parametrize("size", [1, 7, 4096])
@pytest.mark.parametrize("case, first_seen, violations", [
    (_m6_walk, {1: 2, 2: 3, 3: 5, 4: 12, 5: 44, 6: 202, 7: 1155, 8: 7827}, []),
    (_supports_change_at_chunk_edges, {1: 1, 2: 8, 3: 4097}, []),
    (_violations_across_chunk_edges, {1: 1, 2: 2, 3: 2},
     [f"round {t}: both players mixed" for t in range(2, 10)]
     + [f"round {t}: player 1 regained abandoned actions [0]" for t in range(4095, 4101)]),
    (_skip_past_the_first_chunk, {1: 4101, 2: 4151}, []),
], ids=["m6_walk", "supports_change_at_edges", "violations_across_edges", "skip_past_chunk"])
def test_a_tracker_fed_in_chunks_gives_the_whole_record_report(
        case, first_seen, violations, size):
    history, m, kwargs = case()
    spiral = hard.build_spiral(m)
    whole = hard.analyze_phases(history, spiral, **kwargs)
    assert whole.first_seen == first_seen and whole.violations == violations
    tracker = hard.PhaseTracker(spiral, **kwargs)
    for a in range(0, history.rounds, size):
        tracker.update(history.strategies[a:a + size])
    chunked = tracker.report()
    assert chunked == whole
    assert json.dumps(chunked.to_json_dict()) == json.dumps(whole.to_json_dict())


@pytest.mark.parametrize("size", [4096, 100_011])
def test_a_long_broken_recording_keeps_the_first_violations_and_counts_the_rest(size):
    e = _E[2]
    # both players mixed for 10^5 rounds, then action 0 regained for 10
    history, m = _stretches(((e[0], e[0]), 1), ((_MIX, _MIX), 100_000), ((e[1], e[0]), 1),
                            ((e[0], e[0]), 10))
    tracker = hard.PhaseTracker(hard.build_spiral(m))
    for a in range(0, history.rounds, size):
        tracker.update(history.strategies[a:a + size])
    report = tracker.report()
    assert hard._KEPT_VIOLATIONS == 100 and len(report.violations) == 101
    assert report.violations[:100] == [f"round {t}: both players mixed" for t in range(2, 102)]
    # 10^5 + 10 messages in all
    assert report.violations[100] == "... and 99910 more"
    assert report.violation_count == 100_010 and report.more_violations == 99_910
    assert json.loads(json.dumps(report.to_json_dict()))["violations"] == report.violations


def test_run_separation_streams_the_walk_and_keeps_no_record():
    epsilon = 1.0 / 14.0
    sep = hard.run_separation(4, 3_000, epsilon, 1_000)
    assert sep.walk.history.rounds == 0 and len(sep.walk.traces) == 0
    whole = dyn.run(hard.build_padded(4), RunConfig(
        kind="rm", max_rounds=3_000, init_strategies=hard.pure_init_strategies(4)))
    assert sep.report == hard.analyze_phases(whole.history, hard.build_spiral(4))
    top = whole.traces.br_gaps.max(axis=1)
    assert sep.rounds_above == int((top > epsilon).sum()) > 0
    reached = np.flatnonzero(top <= epsilon)
    assert sep.rm_rounds == (int(reached[0]) + 1 if len(reached) else None)


def test_the_separation_script_prints_phases_that_never_opened(capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        "separation_experiment.py")
    spec = importlib.util.spec_from_file_location("separation_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # payoff 7 of the m=4 walk first has mass past round 300
    assert script.main(["--m", "4", "--max-rounds", "300"]) == 0
    assert re.search(r"^ +7 +- +- +open +-$", capsys.readouterr().out, re.M)


def test_an_alternating_separation_walk_visits_the_frozen_alternating_rounds():
    sep = hard.run_separation(6, 200_000, 1.0 / 14.0, 1_000, scheme="alternating")
    assert sep.walk.config.scheme is Scheme.ALTERNATING and sep.walk.rounds == 200_000
    assert sep.report.first_seen == _M6_ALTERNATING and sep.report.violations == []
    assert sep.walk_seconds > 0


def test_the_separation_script_reports_its_scheme_time_and_memory(tmp_path, capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        "separation_experiment.py")
    spec = importlib.util.spec_from_file_location("separation_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "sep.json"
    assert script.main(["--m", "4", "--max-rounds", "3000", "--scheme", "alternating",
                        "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "rm, alternating updates" in printed
    assert re.search(r"^elapsed [0-9.]+ s; walk 3000 rounds in [0-9.]+ s "
                     r"\([0-9.e+]+ rounds/s\); peak rss [0-9.]+ MB$", printed, re.M)
    payload = json.loads(out.read_text())
    assert payload["scheme"] == "alternating" and payload["rm_budget"] == 3000
    assert payload["elapsed_s"] > 0 and payload["rounds_per_s"] > 0
    assert payload["peak_rss_mb"] > 0
    stepped, jumped = payload["stepped_rounds"], payload["jumped_stretches"]
    assert 0 < jumped < stepped < 3000
    assert f"walk: {stepped} rounds stepped, {jumped} stretches jumped" in printed
    with pytest.raises(SystemExit):
        script.parse_args(["--scheme", "lazy"])


def test_the_separation_script_gives_no_ratio_when_the_contrast_ends_off_the_cutoff(
        tmp_path, capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        "separation_experiment.py")
    spec = importlib.util.spec_from_file_location("separation_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # at m=10 alternating rm+ stops on the gaps of its last pass, measured
    # before its steps leave the pure profile (6, 6), whose Nash gap is 1
    sep = hard.run_separation(10, 200_000, 1.0 / 14.0, 10_000)
    assert sep.contrast.converged and sep.contrast_gap == 1.0
    assert not sep.contrast_reached
    out = tmp_path / "sep.json"
    assert script.main(["--m", "10", "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert (f"rm+ did not reach nash_gap <= 0.07143 in {sep.contrast.rounds} rounds "
            f"(final gap 1, stop reason converged)") in printed
    assert "no separation ratio" in printed
    assert not re.search(r"^separation ratio:", printed, re.M)
    payload = json.loads(out.read_text())
    assert payload["rm_plus_converged"] is False and payload["separation_ratio"] is None
    # at m=6 the contrast ends on a 1/14-Nash profile, and the ratio stands
    assert script.main(["--m", "6", "--json", str(out)]) == 0
    assert "separation ratio: >200000 / " in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["rm_plus_converged"] is True and payload["separation_ratio"] > 100


# ---------------------------------------------------------------------------
# long walks: the jump at scale, and the first visits with and without
# alternation
# ---------------------------------------------------------------------------

_WALKS = {
    "m6_simultaneous": (hard.build_padded, 6, "simultaneous", 200_000),
    "m6_alternating": (hard.build_padded, 6, "alternating", 200_000),
    "m8_simultaneous": (hard.build_padded, 8, "simultaneous", 600_000),
    "m8_alternating": (hard.build_padded, 8, "alternating", 600_000),
    "uniform_init_m6": (hard.build_uniform_init, 6, "simultaneous", 120_000),
}


@pytest.fixture(scope="module")
def long_walks():
    """Each walk of ``_WALKS`` run once with its record streamed into a
    ``PhaseTracker``: per walk the tracker and every look-ahead call, as
    (entering regrets, steps, covered count, regrets after, free entries,
    rows asked for)."""
    look_ahead, walks = dyn._rm_look_ahead, {}

    def logged(regrets, steps, free, k):
        entering = [r.copy() for r in regrets]
        covered, after = look_ahead(regrets, steps, free, k)
        calls.append((entering, list(steps), covered, list(after), list(free), k))
        return covered, after

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyn, "_rm_look_ahead", logged)
        for name, (build, m, scheme, rounds) in _WALKS.items():
            padded = build is hard.build_padded
            tracker = hard.PhaseTracker(hard.build_spiral(m), skip_rounds=0 if padded else 1)
            calls = []
            dyn.run(build(m), RunConfig(
                scheme=scheme, kind="rm", max_rounds=rounds,
                init_strategies=hard.pure_init_strategies(m) if padded else None),
                sink=lambda history, traces: tracker.update(history.strategies))
            walks[name] = tracker, calls
    return walks


def _norm_bits(regrets):
    """The l1 and l2 norms of the positive part of ``regrets``, computed as
    ``learners.play`` and ``dynamics.run`` compute them, as hex strings."""
    theta, total, _ = ln.play(regrets, None)
    return total.hex(), math.sqrt(theta.dot(theta)).hex()


@pytest.mark.parametrize("name", list(_WALKS))
def test_every_jumped_round_has_the_norms_its_stretch_entered_with(long_walks, name):
    _, calls = long_walks[name]
    jumped = 0
    for entering, steps, k, after, *_ in calls:
        jumped += k
        if not k:
            continue
        for r, g, last in zip(entering, steps, after):
            # the covered rounds' regrets, each with the bits of the loop's r + g
            rows = dyn._running_sums(np.broadcast_to(g, (k, len(r))), r)
            assert rows[-1].tobytes() == last.tobytes()
            # rows with equal positive parts have equal norms: check each once
            theta = np.ascontiguousarray(np.maximum(rows, 0.0))
            distinct = np.unique(theta.view(f"V{theta.itemsize * len(r)}"))
            want = _norm_bits(r)
            for row in distinct.view(np.float64).reshape(-1, len(r)):
                assert _norm_bits(row) == want
    # nearly every round of each walk is jumped
    assert jumped > 0.99 * _WALKS[name][3]


@pytest.mark.parametrize("name", list(_WALKS))
def test_every_look_ahead_exit_is_the_first_round_whose_regrets_move_play(long_walks, name):
    # the reference scans every row up to the one after the stretch: the
    # running sums' positive parts, cut before the first row with a free bit
    # set or an entry at +inf.  The count must be equal, not only no larger:
    # a stretch cut a round early steps that round and writes the same
    # bytes, so no output shows it
    _, calls = long_walks[name]
    for entering, steps, covered, after, free, wanted in calls:
        scan = min(wanted, covered + 1)
        k, rows = scan, []
        for r, g, f in zip(entering, steps, free):
            sums = dyn._running_sums(np.broadcast_to(g, (scan, len(r))), r)
            theta = np.maximum(sums, 0.0)
            moved = theta[:, f].view(np.int64).any(axis=1) | np.isinf(theta).any(axis=1)
            if moved.any():
                k = min(k, int(moved.argmax()))
            rows.append(sums)
        assert covered == k
        want = [sums[k - 1] for sums in rows] if k else entering
        assert [x.tobytes() for x in after] == [x.tobytes() for x in want]
    # one look-ahead a stretch: each but the last ends on a round that moves play
    assert all(covered < wanted for _, _, covered, _, _, wanted in calls[:-1])


_M6_ALTERNATING = {1: 2, 2: 3, 3: 4, 4: 8, 5: 27, 6: 124, 7: 703, 8: 4762, 9: 37236}


_M8_SIMULTANEOUS = {**selftests._M6_FIRST_SEEN, 10: 541_647, 11: 5_346_031, 12: 58_194_249,
                    13: 692_372_874, 14: 8_936_694_995, 15: 124_357_204_710}
_M8_ALTERNATING = {**_M6_ALTERNATING, 10: 329_506, 11: 3_252_206, 12: 35_401_911,
                   13: 421_198_371, 14: 5_436_552_351, 15: 75_651_508_078}


@pytest.mark.parametrize("scheme, first_seen", [
    ("simultaneous", _M8_SIMULTANEOUS), ("alternating", _M8_ALTERNATING),
])
def test_the_m8_walk_reaches_payoff_15_at_the_frozen_rounds_in_flat_memory(scheme, first_seen):
    # 2 * 10^11 rounds at the cost of the walk's stretches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sep = hard.run_separation(8, 200_000_000_000, 1.0 / 14.0, 1_000, scheme=scheme)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sep.walk.rounds == 200_000_000_000 and sep.walk.history.rounds == 0
    assert sep.report.first_seen == first_seen and sep.report.violations == []
    assert hard.check_stall_growth(sep.report) == (True, [])
    assert sep.walk_stepped < 200 and 0 < sep.walk_stretches < sep.walk_stepped
    assert peak < 2**20


@pytest.mark.parametrize("name, first_seen", [
    ("m8_simultaneous", {**selftests._M6_FIRST_SEEN, 10: 541_647}),
    ("m6_alternating", _M6_ALTERNATING),
    ("m8_alternating", {**_M6_ALTERNATING, 10: 329_506}),
])
def test_rm_visits_the_spiral_payoffs_at_the_frozen_rounds_with_or_without_alternation(
        long_walks, name, first_seen):
    report = long_walks[name][0].report()
    assert report.first_seen == first_seen
    assert report.violations == []
    ok, failures = hard.check_stall_growth(report)
    assert ok, failures


# ---------------------------------------------------------------------------
# growth checks and replay
# ---------------------------------------------------------------------------


def test_check_stall_growth_flags_shrinking_phases():
    report = hard.PhaseReport(
        m=4,
        rounds=200,
        first_seen={},
        phases=[hard.Phase(2, 1, 2), hard.Phase(3, 3, 102), hard.Phase(4, 103, 103)],
        retained_actions={},
    )
    ok, failures = hard.check_stall_growth(report)
    assert not ok
    assert any("T_4" in f and "(k-2)/2" in f for f in failures)


def test_check_stall_growth_flags_the_factorial_floor():
    report = hard.PhaseReport(
        m=4,
        rounds=50,
        first_seen={},
        phases=[hard.Phase(4, 1, 4), hard.Phase(5, 5, 5)],
        retained_actions={},
    )
    ok, failures = hard.check_stall_growth(report)
    assert not ok
    assert any("factorial floor" in f for f in failures)
    # open phases and k < 4 are never judged
    open_report = hard.PhaseReport(
        m=4, rounds=5, first_seen={}, phases=[hard.Phase(2, 1, 1), hard.Phase(3, 2, None)],
        retained_actions={},
    )
    assert hard.check_stall_growth(open_report) == (True, [])


def test_replay_regrets_is_linear_in_the_initial_condition():
    game = hard.build_padded(2)
    res = dyn.run(
        game,
        RunConfig(kind="rm", max_rounds=20, init_strategies=hard.pure_init_strategies(2)),
    )
    base = hard.replay_regrets(res.history)
    offset = [np.array([1.0, -2.0, 0.5]), np.array([0.0, 3.0, -1.0])]
    shifted = hard.replay_regrets(res.history, init_regrets=offset)
    for t in range(res.rounds):
        for i in range(2):
            np.testing.assert_allclose(
                shifted[t][i], base[t][i] + offset[i], rtol=0.0, atol=1e-12
            )


def test_replay_regrets_at_rounds_returns_the_requested_snapshots():
    game = hard.build_padded(2)
    res = dyn.run(
        game,
        RunConfig(kind="rm", max_rounds=20, init_strategies=hard.pure_init_strategies(2)),
    )
    full = hard.replay_regrets(res.history)
    picked = hard.replay_regrets(res.history, at_rounds={3, 17})
    assert sorted(picked) == [3, 17]
    for t, snap in picked.items():
        for i in range(2):
            np.testing.assert_array_equal(snap[i], full[t - 1][i])
