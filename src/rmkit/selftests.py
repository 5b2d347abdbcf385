"""Diagnostic suites exercising every documented guarantee end to end.

Each suite regenerates a family of instances, runs the dynamics, and checks
one cluster of claims: regret-norm bounds, the monotone-norm property,
one-step improvement inequalities, round-count bounds on potential games and
smooth objectives, the hard-instance phase structure and its RM/RM+
separation, the zero-regret 4-cycle, CCE decay, and gradient/structure
consistency.  The registry ``SUITES`` maps stable suite names to functions
(insertion order matters, it is the criterion numbering); ``run_suites``
drives any subset and is what the CLI selftest command calls.

Every suite seeds its own ``default_rng`` from MASTER_SEED, so repeated
invocations are bit-for-bit repeatable.

Each verdict comes from the value it reports: a suite tracks the worst value
a check measures (the largest slack, the smallest margin, the most rounds
over a run's budget) and its ``c.check`` compares that one number with the
check's bound, so the detail line prints what decided it.  A run that did
not converge counts as ``inf`` rounds over budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import dynamics as dyn
from . import games as gm
from . import hard_instances as hard
from . import learners as ln
from . import objectives as ob

MASTER_SEED = 20260816
TOL = 1e-9
EXACT_TOL = 1e-12
NASH_CUTOFF = 1.0 / 14.0

# regression table for the m=6 padded walk in this float environment
_M6_FIRST_SEEN = {1: 2, 2: 3, 3: 5, 4: 12, 5: 44, 6: 202, 7: 1155, 8: 7827, 9: 61210}


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: List[str] = field(default_factory=list)
    seconds: float = 0.0


class _Checker:
    """Collects pass/fail detail lines for one suite, timed from its creation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: List[str] = []
        self.failed = 0
        self._t0 = time.perf_counter()

    def check(self, ok: bool, msg: str) -> None:
        self.lines.append(("ok   " if ok else "FAIL ") + msg)
        if not ok:
            self.failed += 1

    def note(self, msg: str) -> None:
        self.lines.append("     " + msg)

    def result(self) -> SuiteResult:
        return SuiteResult(name=self.name, passed=self.failed == 0, lines=self.lines,
                           seconds=time.perf_counter() - self._t0)


def _budget_share(res: dyn.RunResult, budget: float) -> float:
    """A run's rounds over its budget, ``inf`` when it did not converge: at
    most 1 exactly when ``res.converged and res.rounds <= budget``."""
    return res.rounds / budget if res.converged else math.inf


# ---------------------------------------------------------------------------
# shared instance plans


def _mixed_game(rng: np.random.Generator, idx: int) -> gm.GameSpec:
    """Rotate through the three generator families, normalized to span <= 1."""
    seed = int(rng.integers(2**31))
    fam = idx % 3
    if fam == 0:
        n = int(rng.integers(2, 4))
        sizes = tuple(int(s) for s in rng.integers(2, 5, n))
        game = gm.random_potential_game(n, sizes, seed=seed)
    elif fam == 1:
        game = gm.random_symmetric_identical_game(
            int(rng.integers(2, 4)), int(rng.integers(2, 5)), seed=seed
        )
    else:
        game = gm.random_congestion_game(
            int(rng.integers(2, 4)), int(rng.integers(2, 4)), seed=seed
        )
    return gm.normalize_game(game)


_ALGOS = (("rm", None), ("rm+", None), ("drm+", 0.1), ("drm+", 0.5))  # (kind, gamma)
_SCHEMES = ("simultaneous", "alternating", "lazy")


def _bound_run_plan(count: int):
    """The (game, kind, gamma, scheme) grid used by the regret-bound suites."""
    rng = np.random.default_rng(MASTER_SEED + 1)
    plan = []
    for idx in range(count):
        game = _mixed_game(rng, idx)
        kind, gamma = _ALGOS[idx % len(_ALGOS)]
        scheme = _SCHEMES[idx % len(_SCHEMES)]
        plan.append((game, kind, gamma, scheme))
    return plan


def _bound_run_config(kind: str, gamma, scheme: str, max_rounds: int = 1000) -> dyn.RunConfig:
    return dyn.RunConfig(
        scheme=scheme,
        kind=kind,
        max_rounds=max_rounds,
        epsilon=0.01 if scheme == "lazy" else None,
        discount=None if gamma is None else 1.0 - gamma,
    )


# ---------------------------------------------------------------------------
# 1. regret-norm bounds


def suite_regret_bounds() -> SuiteResult:
    """sqrt(mT) cap on the truncated regret norm; sqrt(m/gamma) cap for drm+."""
    c = _Checker("regret_bounds")
    plan = _bound_run_plan(200)
    worst_final = -np.inf
    worst_drm = -np.inf
    drm_round_checks = 0
    for game, kind, gamma, scheme in plan:
        res = dyn.run(game, _bound_run_config(kind, gamma, scheme))
        T = res.rounds
        for i, m in enumerate(game.action_counts):
            worst_final = max(worst_final, ln.regret_l2(res.states[i]) - math.sqrt(m * T))
        if gamma is not None:
            cap = np.array([math.sqrt(m / gamma) for m in game.action_counts])
            slack = res.traces.regret_l2 - cap
            worst_drm = max(worst_drm, float(slack.max()))
            drm_round_checks += slack.size
    c.check(worst_final <= TOL,
            f"||[r]+||_2 <= sqrt(mT) on 200 runs (worst slack {worst_final:.3e})")
    c.check(
        worst_drm <= TOL,
        f"drm+ per-round ||r||_2 <= sqrt(m/gamma) at {drm_round_checks} "
        f"round checks (worst slack {worst_drm:.3e})",
    )
    return c.result()


# ---------------------------------------------------------------------------
# 2. monotone regret norm for rm+


def suite_monotone_norm() -> SuiteResult:
    """Every rm+ step grows ||r||^2 by at least ||max(g,0)||^2."""
    c = _Checker("monotone_norm")
    plan = [(g, k, ga, s) for g, k, ga, s in _bound_run_plan(200) if k == "rm+"]
    steps = prop_steps = 0
    worst_gain, worst_cap = np.inf, -np.inf
    for game, kind, gamma, scheme in plan:
        res = dyn.run(game, _bound_run_config(kind, gamma, scheme))
        traces, history = res.traces, res.history
        # rm+ regrets are nonnegative, so the trace's l2 norm is ||r||_2, and
        # play is proportional to r when its l1 norm is positive.  A round's
        # norms before its step are the row before; the runs start from zero.
        start = np.zeros((1, game.num_players))
        l2 = np.vstack([start, traces.regret_l2])
        l1_before = np.vstack([start, traces.regret_l1[:-1]])
        gain = l2[1:] ** 2 - l2[:-1] ** 2
        for i, (X, U) in enumerate(zip(history.strategies.blocks, history.utilities.blocks)):
            stepped = traces.updated[:, i]
            g = (U - np.einsum("ij,ij->i", X, U)[:, None])[stepped]
            gpos = np.maximum(g, 0.0)
            steps += len(g)
            prop_steps += int(np.count_nonzero(l1_before[stepped, i] > 0.0))
            margin = gain[stepped, i] - np.einsum("ij,ij->i", gpos, gpos)
            excess = gain[stepped, i] - np.einsum("ij,ij->i", g, g)
            worst_gain = min(worst_gain, float(np.min(margin, initial=np.inf)))
            worst_cap = max(worst_cap, float(np.max(excess, initial=-np.inf)))
    c.note(
        f"{steps} rm+ steps observed across {len(plan)} runs "
        f"({prop_steps} with strategy proportional to regrets)"
    )
    c.check(worst_gain >= -TOL,
            f"||r'||^2 - ||r||^2 >= ||max(g,0)||^2 (worst margin {worst_gain:.3e})")
    c.check(worst_cap <= TOL,
            f"growth cap ||r'||^2 <= ||r||^2 + ||g||^2 (worst excess {worst_cap:.3e})")
    return c.result()


# ---------------------------------------------------------------------------
# 3. one-step improvement lemmas


def _rm_step(rng: np.random.Generator, r: np.ndarray, u: np.ndarray):
    """One rm step per row from the regrets ``r`` against ``u``: play the
    positive part theta of r (a Dirichlet draw where it is zero), then take
    theta' = max(r + g, 0).  Returns the played value <x,u>, ||theta'||_1, the
    rows where ||theta'||_1 > TOL, <x'-x,u> on every row, and the worst excess
    of ||theta-theta'||_2^2/||theta'||_1 over <x'-x,u> on those rows."""
    th = np.maximum(r, 0.0)
    s = th.sum(axis=1)
    x = np.empty_like(th)
    pos = s > 0
    x[pos] = th[pos] / s[pos, None]
    if (~pos).any():
        x[~pos] = rng.dirichlet(np.ones(r.shape[1]), int((~pos).sum()))
    played = (x * u).sum(axis=1)
    thp = np.maximum(r + (u - played[:, None]), 0.0)
    sp = thp.sum(axis=1)
    ok = sp > TOL
    xp = np.where(ok[:, None], thp / np.where(sp == 0.0, 1.0, sp)[:, None], x)
    lhs = ((xp - x) * u).sum(axis=1)
    refine = np.max(((thp - th) ** 2).sum(axis=1)[ok] / sp[ok] - lhs[ok])
    return played, sp, ok, lhs, refine


def _one_step_batches(rng: np.random.Generator, m: int, count: int) -> dict:
    out = {}
    u = rng.uniform(-1.0, 1.0, (count, m))

    # rm+ state: nonnegative regrets, occasionally all-zero
    r = rng.uniform(0.0, 3.0, (count, m))
    r[rng.random(count) < 0.1] = 0.0
    played, sp, ok, lhs, out["rmp_refine"] = _rm_step(rng, r, u)
    gap = u.max(axis=1) - played
    out["rmp_basic"] = np.max(gap[ok] ** 2 / sp[ok] - lhs[ok])
    out["rmp_skipped"] = int((~ok).sum())

    # rm state: signed regrets, positive part drives play
    r = rng.uniform(-3.0, 3.0, (count, m))
    played, sp, ok, lhs, out["rm_refine"] = _rm_step(rng, r, u)
    a = np.argmax(u, axis=1)
    rows = np.arange(count)
    raw_rhs = (u[rows, a] - played) ** 2
    cond_rhs = (r[rows, a] >= 0.0).astype(np.float64) * raw_rhs
    out["rm_cond"] = np.max(cond_rhs[ok] / sp[ok] - lhs[ok])
    out["rm_raw_violations"] = int(np.count_nonzero(raw_rhs[ok] / sp[ok] > lhs[ok] + TOL))
    out["rm_skipped"] = int((~ok).sum())

    # closeness of the induced strategies
    ra = rng.uniform(0.0, 3.0, (count, m)) + 0.05
    rb = rng.uniform(0.0, 3.0, (count, m)) + 0.05
    sa, sb = ra.sum(axis=1), rb.sum(axis=1)
    xa, xb = ra / sa[:, None], rb / sb[:, None]
    lhs3 = np.abs(xa - xb).sum(axis=1)
    rhs3 = np.abs(ra - rb).sum(axis=1) * (1.0 / sa + 1.0 / sb)
    out["closeness"] = np.max(lhs3 - rhs3)
    return out


def suite_one_step_lemmas() -> SuiteResult:
    """Improvement inequalities for rm+ and rm plus the closeness bound."""
    c = _Checker("one_step_lemmas")
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst: Dict[str, float] = {}
    raw_violations = 0
    skipped = 0
    per_m = 25_000
    for m in (2, 3, 5, 8):
        batch = _one_step_batches(rng, m, per_m)
        for key in ("rmp_basic", "rmp_refine", "rm_refine", "rm_cond", "closeness"):
            worst[key] = max(worst.get(key, -np.inf), float(batch[key]))
        raw_violations += batch["rm_raw_violations"]
        skipped += batch["rmp_skipped"] + batch["rm_skipped"]
    c.note(f"4 x {per_m} (r, u) pairs per lemma family; {skipped} degenerate pairs skipped")
    c.check(worst["rmp_basic"] <= TOL,
            f"rm+: <x'-x,u> >= BRGap^2/||r'||_1 (worst excess {worst['rmp_basic']:.3e})")
    c.check(worst["rmp_refine"] <= TOL,
            f"rm+ refinement: <x'-x,u> >= ||r-r'||_2^2/||r'||_1 (worst {worst['rmp_refine']:.3e})")
    c.check(worst["rm_refine"] <= TOL,
            f"rm refinement over theta vectors (worst {worst['rm_refine']:.3e})")
    c.check(worst["rm_cond"] <= TOL,
            f"rm conditional bound with indicator r[a*] >= 0 (worst {worst['rm_cond']:.3e})")
    c.check(worst["closeness"] <= TOL,
            f"closeness ||x-x'||_1 <= ||r-r'||_1 (1/||r||_1 + 1/||r'||_1) "
            f"(worst {worst['closeness']:.3e})")
    c.check(raw_violations > 0,
            f"indicator is necessary: {raw_violations} unconditioned counterexamples found")
    return c.result()


# ---------------------------------------------------------------------------
# 4. round bounds on potential games


def potential_rates(rng, games: int, eps: float, gamma: float, max_players: int = 3,
                    max_actions: int = 6, round_cap: int = 200_000):
    """Per sampled potential game (utilities spanning at most 1), lazy rm+ and
    drm+ (alpha = 1 - gamma) run to gaps <= ``eps`` within their budgets or
    ``round_cap``: yields ``(sizes, Phi_range, rm+ run, budget, drm+ run,
    budget)``, the plan of ``suite_potential_convergence``."""
    for _ in range(games):
        n = int(rng.integers(1, max_players + 1))
        sizes = tuple(int(s) for s in rng.integers(2, max_actions + 1, n))
        game = gm.normalize_game(
            gm.random_potential_game(n, sizes, seed=int(rng.integers(2**31)))
        )
        m = max(sizes)
        phi_range = float(np.ptp(game.potential))
        bound_rmp = 1.0 + (m * phi_range) ** 2 / eps**4
        bound_drm = 1.0 + m * phi_range / (eps**2 * math.sqrt(gamma))
        res = dyn.run(game, dyn.RunConfig(
            scheme="lazy", kind="rm+", epsilon=eps,
            max_rounds=min(int(bound_rmp) + 1, round_cap)))
        res_d = dyn.run(game, dyn.RunConfig(
            scheme="lazy", kind="drm+", epsilon=eps, discount=1.0 - gamma,
            max_rounds=min(int(bound_drm) + 1, round_cap)))
        yield sizes, phi_range, res, bound_rmp, res_d, bound_drm


def suite_potential_convergence() -> SuiteResult:
    """Lazy alternating rm+ and drm+ round bounds, plus monotone potential."""
    c = _Checker("potential_convergence")
    rng = np.random.default_rng(MASTER_SEED + 4)
    eps = 0.05
    gamma = 0.25
    worst_rmp_rounds = worst_drm_rounds = 0
    rmp_share = drm_share = 0.0
    mono_worst = np.inf
    for _, _, res, bound_rmp, res_d, bound_drm in potential_rates(rng, 50, eps, gamma):
        worst_rmp_rounds = max(worst_rmp_rounds, res.rounds)
        rmp_share = max(rmp_share, _budget_share(res, bound_rmp))
        values = res.traces.value
        if values.size > 1:
            mono_worst = min(mono_worst, float(np.diff(values).min()))
        worst_drm_rounds = max(worst_drm_rounds, res_d.rounds)
        drm_share = max(drm_share, _budget_share(res_d, bound_drm))
    c.check(rmp_share <= 1.0,
            f"lazy rm+ hits all gaps <= {eps} within 1+(m Phi_range)^2/eps^4 on 50 games "
            f"(worst {worst_rmp_rounds} rounds, rounds/budget {rmp_share:.3e} <= 1)")
    c.check(mono_worst >= -EXACT_TOL,
            f"potential trace nondecreasing (worst step {mono_worst:.3e})")
    c.check(drm_share <= 1.0,
            f"lazy drm+ (gamma={gamma}) within 1+m Phi_range/(eps^2 sqrt(gamma)) "
            f"(worst {worst_drm_rounds} rounds, rounds/budget {drm_share:.3e} <= 1)")
    return c.result()


# ---------------------------------------------------------------------------
# 5. threshold-init bound on smooth multilinear objectives


def suite_threshold_init() -> SuiteResult:
    """Threshold-seeded lazy rm+ reaches a 0.1-KKT point inside the bound."""
    c = _Checker("threshold_init")
    rng = np.random.default_rng(MASTER_SEED + 5)
    eps = 0.1
    worst_thr = worst_zero = 0
    thr_share = zero_share = 0.0
    worst_kkt = -np.inf
    zero_budget = 1.0 / eps**8
    for _ in range(20):
        n = int(rng.integers(1, 4))
        sizes = tuple(int(s) for s in rng.integers(2, 7, n))
        game = gm.normalize_game(
            gm.random_potential_game(n, sizes, seed=int(rng.integers(2**31)))
        )
        obj = ob.make_multilinear(game)
        m = max(sizes)
        bound = 1.0 + 4.0 * n**4 * m**2 * obj.value_range**2 / eps**4
        # per-block threshold eps/n turns the stopping rule into a KKT-gap cap
        res = dyn.run(obj, dyn.RunConfig(
            scheme="lazy", kind="rm+", epsilon=eps / n, init="threshold",
            max_rounds=min(int(bound) + 1, 200_000)))
        worst_thr = max(worst_thr, res.rounds)
        thr_share = max(thr_share, _budget_share(res, bound))
        worst_kkt = max(worst_kkt, ob.kkt_gap(obj, res.final_profile))

        res_z = dyn.run(obj, dyn.RunConfig(
            scheme="lazy", kind="rm+", epsilon=eps / n, init="zero",
            max_rounds=min(int(zero_budget), 200_000)))
        worst_zero = max(worst_zero, res_z.rounds)
        zero_share = max(zero_share, _budget_share(res_z, zero_budget))
        worst_kkt = max(worst_kkt, ob.kkt_gap(obj, res_z.final_profile))
    c.check(thr_share <= 1.0,
            f"threshold init converges within 1+4n^4 m^2 u_range^2/eps^4 on 20 objectives "
            f"(worst {worst_thr} rounds, rounds/budget {thr_share:.3e} <= 1)")
    c.check(worst_kkt <= eps + TOL, f"final KKT gap <= {eps} (worst {worst_kkt:.4f})")
    c.check(zero_share <= 1.0,
            f"zero init converges within the 1/eps^8 = {zero_budget:.0e} budget "
            f"(worst {worst_zero} rounds, rounds/budget {zero_share:.3e} <= 1)")
    return c.result()


# ---------------------------------------------------------------------------
# 6. hard-instance separation


def _check_walk(c: _Checker, report: hard.PhaseReport, where: str) -> Dict[int, int]:
    """The checks of a spiral walk's phase report: no structural violation,
    the phase lengths, T_3 >= 5, T_4 >= 20 and the growth floors.  Returns the
    completed phases' lengths by payoff."""
    c.check(report.violation_count == 0,
            f"walk structure clean {where} ({report.violation_count} violations)")
    completed = {p.k: p.length for p in report.completed()}
    c.note("phase lengths " + ", ".join(f"T_{k}={T}" for k, T in sorted(completed.items())))
    t3 = report.phase(3).length
    t4 = report.phase(4).length
    c.check(t3 is not None and t3 >= 5, f"T_3 = {t3} >= 5")
    c.check(t4 is not None and t4 >= 20, f"T_4 = {t4} >= 20")
    growth_ok, failures = hard.check_stall_growth(report)
    kmax = max(completed) if completed else 0
    c.check(growth_ok,
            f"T_k >= ((k-2)/2) T_(k-1) and factorial floor for completed k <= {kmax}"
            + ("" if growth_ok else ": " + "; ".join(failures)))
    return completed


def suite_hard_separation() -> SuiteResult:
    """Phase growth of rm on the padded m=6 game and the rm+ contrast."""
    c = _Checker("hard_separation")
    sep = hard.run_separation(6, max_rounds=200_000, epsilon=NASH_CUTOFF,
                              rm_plus_max_rounds=10_000)
    res, report = sep.walk, sep.report
    completed = _check_walk(c, report, f"over {res.rounds} rounds")
    onsets_ok = report.first_seen == _M6_FIRST_SEEN
    c.check(onsets_ok, "phase onsets " + ("match the frozen m=6 table" if onsets_ok else
                                          f"{report.first_seen} differ from the frozen m=6 table"))

    above = sep.rounds_above
    observed_total = sum(T for T in completed.values())
    c.check(above >= observed_total,
            f"max br_gap > 1/14 for {above} rounds >= sum of observed T_k = {observed_total}")

    res_plus = sep.contrast
    c.check(res_plus.converged and sep.contrast_gap <= NASH_CUTOFF,
            f"alternating rm+ reaches nash_gap {sep.contrast_gap:.3g} <= 1/14 "
            f"in {res_plus.rounds} rounds")
    label = f"{sep.rm_rounds}" if sep.rm_rounds is not None else f">{res.rounds}"
    c.check(sep.ratio >= 100.0,
            f"separation: rm needs {label} rounds vs {res_plus.rounds} for rm+ "
            f"({sep.ratio:.0f}x)")
    return c.result()


# ---------------------------------------------------------------------------
# 7. uniform-start variant


def suite_uniform_init() -> SuiteResult:
    """The doubled game funnels uniform play into the same walk."""
    c = _Checker("uniform_init")
    m = 6
    spiral = hard.build_spiral(m)
    game = hard.build_uniform_init(m)  # construction asserts its own row sums
    c.note("construction invariants (zero sum, round-1 regret pattern) hold at build time")
    # the walk streams to the tracker; only round 2's strategies are kept
    tracker = hard.PhaseTracker(spiral, skip_rounds=1)
    second = None

    def sink(history, traces):
        nonlocal second
        if second is None:
            second = [x.copy() for x in history.strategies[1]]
        tracker.update(history.strategies)

    dyn.run(game, dyn.RunConfig(scheme="simultaneous", kind="rm", max_rounds=120_000),
            sink=sink)
    purity = min(float(x[0]) for x in second)
    stray = max(float(np.abs(x[1:]).max()) for x in second)
    c.check(purity >= 1.0 - TOL and stray <= EXACT_TOL,
            f"round 2: both players on action 1 (min mass {purity:.17g}, stray {stray:.1e})")
    _check_walk(c, tracker.report(), "after the uniform round")
    return c.result()


# ---------------------------------------------------------------------------
# 8. zero-regret 4-cycle


def suite_cycle_counterexample() -> SuiteResult:
    """25 laps of the 4-cycle: zero regret, large stationarity gap."""
    c = _Checker("cycle_counterexample")
    obj = ob.make_cycle_polynomial()
    expected_slope = {0.6: 2.0, 0.7: -1.0, 0.4: -2.0, 0.3: 1.0}
    worst_slope = max(
        abs(float(obj.block_gradient([np.array([p, 1.0 - p])], 0)[0]) - v)
        for p, v in expected_slope.items()
    )
    c.check(worst_slope <= TOL, f"derivative spot checks at the 4 points (worst {worst_slope:.1e})")

    total_u = np.zeros(2)
    total_played = 0.0
    min_kkt = np.inf
    for _ in range(25):
        for p in ob.CYCLE_POINTS:
            x = np.array([p, 1.0 - p])
            u = obj.block_gradient([x], 0)
            total_u += u
            total_played += float(x @ u)
            min_kkt = min(min_kkt, ob.kkt_gap(obj, [x]))
    regret = float(np.max(total_u) - total_played)
    c.check(abs(regret) <= EXACT_TOL, f"total regret {regret:.3e} over 100 steps")
    c.check(float(np.abs(total_u).max()) <= EXACT_TOL,
            f"summed gradients vanish coordinatewise (max {np.abs(total_u).max():.3e})")
    c.check(abs(total_played) <= EXACT_TOL,
            f"summed realized values vanish ({total_played:.3e})")
    c.check(min_kkt >= 0.7 - TOL, f"kkt_gap >= 0.7 at every visited point (min {min_kkt:.6f})")
    c.note(f"smoothness constant of the quartic: {ob.cycle_smoothness():.6f} = 1790/3")
    return c.result()


# ---------------------------------------------------------------------------
# 9. CCE decay versus Nash stagnation


def suite_cce() -> SuiteResult:
    """cce_gap tracks max average regret and decays as T^(-1/2) on the hard game."""
    c = _Checker("cce")
    rng = np.random.default_rng(MASTER_SEED + 9)
    checkpoints = (100, 1_000, 10_000)
    games = []
    games.append(gm.normalize_game(
        gm.random_potential_game(2, (3, 3), seed=int(rng.integers(2**31)))))
    games.append(gm.normalize_game(
        gm.random_congestion_game(2, 3, seed=int(rng.integers(2**31)))))
    sizes = (3, 2)
    games.append(gm.GameSpec(
        action_counts=sizes,
        utilities=[rng.random(sizes), rng.random(sizes)],
    ))
    games.append(gm.normalize_game(
        gm.random_symmetric_identical_game(3, 3, seed=int(rng.integers(2**31)))))

    worst = -np.inf
    for game in games:
        for kind in ("rm", "rm+"):
            res = dyn.run(game, dyn.RunConfig(
                scheme="simultaneous", kind=kind, max_rounds=checkpoints[-1]))
            gaps = dyn.cce_gaps(game, res.history, checkpoints)
            for T, gap in zip(checkpoints, gaps):
                reg = max(
                    dyn.external_regret(res.history, i, rounds=T)
                    for i in range(game.num_players)
                ) / T
                worst = max(worst, gap - reg)
    c.check(worst <= TOL,
            f"cce_gap <= max_i Reg_i/T at T in {checkpoints} on 8 runs "
            f"(worst excess {worst:.3e})")

    m = 6
    game = hard.build_padded(m)
    res = dyn.run(game, dyn.RunConfig(
        scheme="simultaneous", kind="rm", max_rounds=checkpoints[-1],
        init_strategies=hard.pure_init_strategies(m)))
    scale = gm.utility_range(game)
    worst_decay = -np.inf
    min_nash = np.inf
    for T, gap in zip(checkpoints, dyn.cce_gaps(game, res.history, checkpoints)):
        norm_gap = gap / scale
        envelope = math.sqrt((m + 1) / T)
        nash_here = float(res.traces.br_gaps[T - 1].max())
        c.note(f"T={T}: normalized cce_gap {norm_gap:.5f} <= sqrt(7/T) {envelope:.5f}, "
               f"nash gap {nash_here:.3f}")
        worst_decay = max(worst_decay, norm_gap - envelope)
        min_nash = min(min_nash, nash_here)
    c.check(worst_decay <= TOL, "normalized cce_gap under the sqrt(7/T) envelope on the m=6 game")
    c.check(min_nash > NASH_CUTOFF, "nash gap stays > 1/14 at every checkpoint")
    return c.result()


# ---------------------------------------------------------------------------
# 10. gradients, potentials, TV bound, lockstep


def suite_gradient_structure() -> SuiteResult:
    """Finite differences, potential verification, TV bound, symmetric lockstep."""
    c = _Checker("gradient_structure")
    rng = np.random.default_rng(MASTER_SEED + 10)

    worst_fd = -np.inf
    for n, sizes in ((1, (4,)), (2, (3, 4)), (3, (2, 3, 4)), (2, (2, 2)), (3, (4, 4, 4))):
        game = gm.normalize_game(
            gm.random_potential_game(n, sizes, seed=int(rng.integers(2**31))))
        obj = ob.make_multilinear(game)
        for _ in range(3):
            profile = obj.domain.random_profile(rng)
            worst_fd = max(worst_fd, ob.check_gradient(obj, profile))
    cyc = ob.make_cycle_polynomial()
    for p in (0.15, 0.5, 0.85):
        worst_fd = max(worst_fd, ob.check_gradient(cyc, [np.array([p, 1.0 - p])]))
    c.check(worst_fd <= 1e-6,
            f"finite-difference gradients on multilinear and quartic objectives "
            f"(worst rel err {worst_fd:.2e})")

    pot_games = []
    for _ in range(10):
        n = int(rng.integers(1, 4))
        pot_games.append(gm.random_potential_game(
            n, tuple(int(s) for s in rng.integers(2, 5, n)),
            seed=int(rng.integers(2**31))))
    pot_games += [gm.random_congestion_game(2 + i % 2, 2 + i % 3, seed=i) for i in range(5)]
    pot_games += [gm.random_symmetric_identical_game(2 + i % 2, 2 + i % 3, seed=i)
                  for i in range(5)]
    pot_games += [hard.build_padded(6), hard.build_uniform_init(6)]
    c.check(all(ok and witness is None for ok, witness in map(gm.verify_potential, pot_games)),
            f"verify_potential passes on {len(pot_games)} generated games")

    base = pot_games[0]
    broken_utilities = [u.copy() for u in base.utilities]
    broken_utilities[0].flat[0] += 0.5
    broken = gm.GameSpec(
        action_counts=base.action_counts,
        utilities=broken_utilities,
        potential=base.potential,
    )
    ok, witness = gm.verify_potential(broken)
    c.check(
        (not ok) and witness is not None and witness["player"] == 0
        and abs(witness["utility_diff"] - witness["potential_diff"]) > 0.4,
        "a perturbed utility tensor is rejected with a pointed witness",
    )

    tv_games = [
        gm.GameSpec(action_counts=(3, 4), utilities=[rng.random((3, 4)) for _ in range(2)]),
        gm.GameSpec(action_counts=(2, 3, 2),
                    utilities=[rng.random((2, 3, 2)) for _ in range(3)]),
        gm.random_symmetric_identical_game(3, 3, seed=int(rng.integers(2**31))),
        gm.random_congestion_game(3, 2, seed=int(rng.integers(2**31))),
    ]
    worst_tv = -np.inf
    pairs = 0
    for game in tv_games:
        dom = ob.SimplexProduct(game.action_counts)
        for _ in range(250):
            x = dom.random_profile(rng)
            y = dom.random_profile(rng)
            budget = [
                sum(float(np.abs(x[j] - y[j]).sum())
                    for j in range(game.num_players) if j != i)
                for i in range(game.num_players)
            ]
            for i in range(game.num_players):
                diff = float(np.abs(
                    gm.utility_vector(game, i, x) - gm.utility_vector(game, i, y)
                ).max())
                worst_tv = max(worst_tv, diff - budget[i])
            pairs += 1
    c.check(worst_tv <= TOL,
            f"TV bound ||u_i(x) - u_i(x')||_inf <= sum_j ||x_j - x_j'||_1 at {pairs} "
            f"profile pairs (worst excess {worst_tv:.3e})")

    lock_games = [
        gm.random_symmetric_identical_game(2, 3, seed=int(rng.integers(2**31))),
        gm.random_symmetric_identical_game(3, 4, seed=int(rng.integers(2**31))),
        gm.random_congestion_game(2, 3, seed=int(rng.integers(2**31))),
        gm.random_congestion_game(3, 2, seed=int(rng.integers(2**31))),
    ]

    def lockstep(game, kind):
        blocks = dyn.run(game, dyn.RunConfig(
            scheme="simultaneous", kind=kind, max_rounds=200)).history.strategies.blocks
        return all(np.array_equal(blocks[0], b) for b in blocks[1:])

    c.check(all(gm.check_symmetric(g) and lockstep(g, "rm") and lockstep(g, "rm+")
                for g in lock_games),
            "simultaneous play from a shared start stays bitwise identical across "
            "players on symmetric games")
    return c.result()


# ---------------------------------------------------------------------------
# registry and driver

SUITES: Dict[str, Callable[[], SuiteResult]] = {
    "regret_bounds": suite_regret_bounds,
    "monotone_norm": suite_monotone_norm,
    "one_step_lemmas": suite_one_step_lemmas,
    "potential_convergence": suite_potential_convergence,
    "threshold_init": suite_threshold_init,
    "hard_separation": suite_hard_separation,
    "uniform_init": suite_uniform_init,
    "cycle_counterexample": suite_cycle_counterexample,
    "cce": suite_cce,
    "gradient_structure": suite_gradient_structure,
}


def run_suites(names: Optional[Sequence[str]] = None, out: Callable[[str], None] = print):
    """Run the named suites (all by default); returns the SuiteResult list."""
    picked = list(SUITES) if names is None else list(names)
    unknown = [n for n in picked if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; valid names: {', '.join(SUITES)}")
    results = []
    for name in picked:
        number = list(SUITES).index(name) + 1
        try:
            result = SUITES[name]()
        except Exception as exc:  # a crashed suite is a failed suite
            result = SuiteResult(name=name, passed=False,
                                 lines=[f"FAIL crashed: {exc!r}"])
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        out(f"criterion {number} ({name}): {status} [{result.seconds:.1f}s]")
        for line in result.lines:
            out("  " + line)
    return results
