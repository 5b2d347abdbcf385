"""The selftest verdicts can fail.  A check that compares a measured worst
value with a module constant reads FAIL, and fails its suite, once the
constant is moved past that value.  A round-budget check passes a run that
uses its whole budget and fails one over it, and a run that did not converge
is over any budget.

The seeded suites measure: worst regret-norm slacks of -1.414 (the sqrt(mT)
cap) and -1.750 (the drm+ cap), a worst norm-growth margin of -6.9e-17 and a
worst growth-cap excess of 4.5e-17, a worst potential step of 0, a worst
final KKT gap of 0.0999 against 0.1, a worst cce excess of 0, a normalized cce
gap at least 0.026 under its envelope, and a Nash gap of exactly 1.0 at every
checkpoint, so a cutoff of 1.0 fails the strict ``>``.
"""

import math

import pytest

from rmkit import dynamics as dyn
from rmkit import games as gm
from rmkit import selftests as st


@pytest.mark.parametrize("suite, constant, value, check", [
    pytest.param("regret_bounds", "TOL", -1.5, "||[r]+||_2 <= sqrt(mT)", id="regret-cap"),
    pytest.param("regret_bounds", "TOL", -1.8, "drm+ per-round ||r||_2 <= sqrt(m/gamma)",
                 id="regret-drm-cap"),
    pytest.param("monotone_norm", "TOL", -1e-3, "||r'||^2 - ||r||^2 >= ||max(g,0)||^2",
                 id="monotone-growth"),
    pytest.param("monotone_norm", "TOL", -1e-3, "growth cap ||r'||^2 <= ||r||^2 + ||g||^2",
                 id="monotone-cap"),
    pytest.param("potential_convergence", "EXACT_TOL", -1e-3, "potential trace nondecreasing",
                 id="potential-monotone"),
    pytest.param("threshold_init", "TOL", -0.01, "final KKT gap <= 0.1", id="threshold-kkt"),
    pytest.param("cce", "TOL", -1e-3, "cce_gap <= max_i Reg_i/T", id="cce-regret-bound"),
    pytest.param("cce", "TOL", -0.1, "normalized cce_gap under the sqrt(7/T) envelope",
                 id="cce-envelope"),
    pytest.param("cce", "NASH_CUTOFF", 1.0, "nash gap stays > 1/14", id="cce-nash"),
])
def test_a_check_fails_once_its_bound_passes_the_worst_value(
        suite, constant, value, check, monkeypatch):
    monkeypatch.setattr(st, constant, value)
    result = st.SUITES[suite]()
    lines = [line for line in result.lines if check in line]
    assert len(lines) == 1 and lines[0].startswith("FAIL "), result.lines
    assert not result.passed


@pytest.mark.parametrize("learner, check", [
    ("rm+", "lazy rm+ hits all gaps"), ("drm+", "lazy drm+ (gamma=0.25)")])
@pytest.mark.parametrize("share, verdict", [(1.0, "ok   "), (2.0, "FAIL ")])
def test_a_round_budget_check_fails_once_a_run_is_over_its_budget(
        learner, check, share, verdict, monkeypatch):
    # every run's budget set to its rounds over ``share``: a run that uses its
    # whole budget still passes, one over it fails
    plan = st.potential_rates

    def tight(*args, **kwargs):
        for sizes, phi, res, bound, res_d, bound_d in plan(*args, **kwargs):
            if learner == "rm+":
                bound = res.rounds / share
            else:
                bound_d = res_d.rounds / share
            yield sizes, phi, res, bound, res_d, bound_d

    monkeypatch.setattr(st, "potential_rates", tight)
    result = st.suite_potential_convergence()
    lines = [line for line in result.lines if check in line]
    assert len(lines) == 1 and lines[0].startswith(verdict), result.lines
    assert result.passed == (verdict == "ok   ")


def test_both_threshold_init_round_budgets_fail_once_every_run_is_over_them(monkeypatch):
    monkeypatch.setattr(st, "_budget_share", lambda res, budget: 2.0)
    result = st.suite_threshold_init()
    lines = [line for line in result.lines if "init converges within" in line]
    assert len(lines) == 2 and all(line.startswith("FAIL ") for line in lines), result.lines
    assert not result.passed


def test_a_run_that_did_not_converge_is_over_any_budget():
    game = gm.normalize_game(gm.random_potential_game(2, (3, 3), seed=1))
    stopped = dyn.run(game, dyn.RunConfig(kind="rm+", epsilon=1e-3, max_rounds=2))
    assert not stopped.converged and st._budget_share(stopped, 1e9) == math.inf
    done = dyn.run(game, dyn.RunConfig(kind="rm+", epsilon=0.5, max_rounds=100))
    assert done.converged and st._budget_share(done, 4.0) == done.rounds / 4.0
