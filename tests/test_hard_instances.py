"""Unit tests for the spiral games, the walk analyzer, and its lemma checks."""

import numpy as np
import pytest

from rmkit import dynamics as dyn
from rmkit import games as gm
from rmkit import hard_instances as hard
from rmkit.dynamics import PlayHistory, RunConfig, Scheme

_E = {m: np.eye(m) for m in (2, 4)}


def _fake_history(m, rows_cols):
    """History from (player-1 vector, player-2 vector) pairs; utilities are
    never consulted by the analyzer."""
    strategies = [[np.asarray(a, dtype=float), np.asarray(b, dtype=float)] for a, b in rows_cols]
    return PlayHistory(
        scheme=Scheme.SIMULTANEOUS,
        strategies=strategies,
        utilities=[[None, None] for _ in strategies],
    )


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
