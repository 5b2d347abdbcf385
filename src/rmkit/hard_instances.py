"""Two-player identical-interest games on which regret matching stalls.

The payoff matrix places the values 1, 2, ..., 2m-1 along an inward spiral
and zeros elsewhere.  Guided by its positive part, regret matching walks
the profiles in payoff order, and each hop first has to pay back regret
buried during all earlier hops, so the time spent per step grows
factorially while the best payoff sits untouched in the middle.

Two wrappers make the walk start from round one: a padded (m+1) x (m+1)
matrix whose extra action funnels a pure initial profile onto the first
payoff, and a 2m x 2m matrix balanced so that uniform initial play does the
same.  The analyzer reconstructs the walk's phases from a recorded history
and checks the structural facts the stalling argument rests on, and
``run_separation`` sets the slow rm walk against fast alternating rm+.

The analyzer reads the history's strategy columns whole: each payoff's
first round comes from one column product, and the walk checks run once
per stretch of rounds with unchanged supports (the supports change 17
times in the first 62,000 rounds of the padded m=6 walk), repeating that
stretch's messages for each of its rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dynamics as dyn
from .games import TAG_IDENTICAL, GameSpec


def _spiral_block(m: int, k: int) -> np.ndarray:
    if m == 2:
        return np.array([[k + 1.0, 0.0], [k + 2.0, k + 3.0]])
    a = np.zeros((m, m))
    a[0, 0] = k + 1
    a[m - 1, 0] = k + 2
    a[m - 1, m - 1] = k + 3
    a[1, m - 1] = k + 4
    a[1 : m - 1, 1 : m - 1] = _spiral_block(m - 2, k + 4)
    return a


@dataclass
class SpiralMatrix:
    m: int
    matrix: np.ndarray
    positions: dict  # payoff value -> (row, col), zero-based

    @property
    def num_payoffs(self) -> int:
        return 2 * self.m - 1


def build_spiral(m: int) -> SpiralMatrix:
    """Spiral payoff matrix with entries 1..2m-1; m must be even and >= 2."""
    if m < 2 or m % 2 != 0:
        raise ValueError(f"spiral size must be even and at least 2, got {m}")
    matrix = _spiral_block(m, 0)
    positions = {}
    for k in range(1, 2 * m):
        hits = np.argwhere(matrix == float(k))
        if len(hits) != 1:
            raise AssertionError(f"payoff {k} appears {len(hits)} times")
        positions[k] = (int(hits[0][0]), int(hits[0][1]))
    return SpiralMatrix(m=m, matrix=matrix, positions=positions)


def build_padded(m: int) -> GameSpec:
    """(m+1)-action game: spiral block plus a padding action worth 1/2
    against the first column/row, so play leaves the padding vertex at once."""
    spiral = build_spiral(m)
    b = np.zeros((m + 1, m + 1))
    b[:m, :m] = spiral.matrix
    b[m, 0] = 0.5
    b[0, m] = 0.5
    return GameSpec((m + 1, m + 1), [b, b.copy()], tags=frozenset({TAG_IDENTICAL}))


def pure_init_strategies(m: int):
    """Both players start on the padding action of the padded game."""
    e = np.zeros(m + 1)
    e[m] = 1.0
    return [e, e.copy()]


def build_uniform_init(m: int) -> GameSpec:
    """2m-action game whose round-one regrets under uniform play leave only
    the first action positive, putting both players on the spiral entry."""
    spiral = build_spiral(m)
    a = spiral.matrix
    row_mean = a.mean(axis=1)
    col_mean = a.mean(axis=0)
    b = np.zeros((2 * m, 2 * m))
    b[:m, :m] = a
    b[0, m:] = 1.0 - 1.0 / m
    b[m:, 0] = 1.0 - 3.0 / m
    for a1 in range(1, m):
        b[a1, m:] = -row_mean[a1]
    for a2 in range(1, m):
        b[m:, a2] = -col_mean[a2]
    b[m:, m:] = a.mean() - 2.0 / m

    if abs(float(b.sum())) > 1e-9:
        raise AssertionError("balanced payoff matrix should sum to zero")
    for mat in (b, b.T):
        u = mat @ np.full(2 * m, 1.0 / (2 * m))
        r = u - u.mean()
        want = np.concatenate(([0.5], np.zeros(m - 1), np.full(m, -1.0 / (2 * m))))
        if not np.allclose(r, want, rtol=0.0, atol=1e-9):
            raise AssertionError("round-one regret pattern is off")
    return GameSpec((2 * m, 2 * m), [b, b.copy()], tags=frozenset({TAG_IDENTICAL}))


@dataclass
class Phase:
    k: int
    t_low: Optional[int]
    t_high: Optional[int]

    @property
    def length(self) -> Optional[int]:
        if self.t_low is None or self.t_high is None:
            return None
        return self.t_high - self.t_low + 1


@dataclass
class PhaseReport:
    m: int
    rounds: int
    first_seen: dict  # payoff value -> first round its profile has mass
    phases: list  # Phase records for k >= 2
    retained_actions: dict  # k -> (actions of player 1, of player 2) from payoff k on
    violations: list = field(default_factory=list)

    def phase(self, k: int) -> Phase:
        return self.phases[k - 2]

    def completed(self):
        return [p for p in self.phases if p.length is not None]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "rounds": self.rounds,
            "first_seen": {str(k): t for k, t in self.first_seen.items()},
            "phases": [
                {"k": p.k, "t_low": p.t_low, "t_high": p.t_high, "T": p.length}
                for p in self.phases
            ],
            "retained_actions": {
                str(k): {"player1": list(a1), "player2": list(a2)}
                for k, (a1, a2) in self.retained_actions.items()
            },
            "violations": list(self.violations),
        }


def _retained(spiral: SpiralMatrix):
    out = {}
    for k in range(2, spiral.num_payoffs + 1):
        rows = sorted({spiral.positions[v][0] for v in range(k, spiral.num_payoffs + 1)})
        cols = sorted({spiral.positions[v][1] for v in range(k, spiral.num_payoffs + 1)})
        out[k] = (rows, cols)
    return out


def analyze_phases(
    history: dyn.PlayHistory,
    spiral: SpiralMatrix,
    mass_threshold: float = 1e-12,
    skip_rounds: int = 0,
) -> PhaseReport:
    """Reconstruct the payoff-walk phases from a recorded run.

    Phase k starts the first round the payoff-k profile carries joint mass
    above the threshold and ends just before payoff k+1 does.  Histories
    that stop early yield open phases, not errors.  Structural violations
    of the walk (two mixed players, non-consecutive supports, an abandoned
    action coming back) are collected as strings.

    ``skip_rounds`` ignores that many leading rounds; the uniform-start
    game needs its everything-mixed first round excluded from the walk.
    """
    if skip_rounds < 0:
        raise ValueError(f"skip_rounds must be nonnegative, got {skip_rounds}")
    n_pay = spiral.num_payoffs
    rounds = history.rounds
    # a payoff's first round from its whole joint-mass column, recorded in the
    # order a round-by-round scan meets them
    onsets = []
    if rounds:
        p1, p2 = (b[skip_rounds:] for b in history.strategies.blocks[:2])
        for k in range(1, n_pay + 1):
            row, col = spiral.positions[k]
            hits = np.flatnonzero(p1[:, row] * p2[:, col] > mass_threshold)
            if len(hits):
                onsets.append((int(hits[0]) + skip_rounds + 1, k))
    first_seen = {k: t for t, k in sorted(onsets)}
    phases = []
    for k in range(2, n_pay + 1):
        t_low = first_seen.get(k)
        t_next = first_seen.get(k + 1)
        t_high = t_next - 1 if t_next is not None else None
        phases.append(Phase(k=k, t_low=t_low, t_high=t_high))

    violations = []
    if 1 not in first_seen:
        violations.append("payoff 1 profile never played")
        return PhaseReport(
            m=spiral.m,
            rounds=rounds,
            first_seen=first_seen,
            phases=phases,
            retained_actions=_retained(spiral),
            violations=violations,
        )

    # consecutive row/col pairs a player may legally mix across, keyed by
    # the moving side: odd payoff steps move player 1, even ones player 2
    legal1 = {}
    legal2 = {}
    for k in range(1, n_pay):
        (r0, c0), (r1, c1) = spiral.positions[k], spiral.positions[k + 1]
        if k % 2 == 1:
            legal1[frozenset((r0, r1))] = (k, c0)
        else:
            legal2[frozenset((c0, c1))] = (k, r0)
    pure_profiles = {spiral.positions[k] for k in range(1, n_pay + 1)}

    # The checks read only the two supports and the sets of actions each
    # player ever had and then dropped, and those sets stop changing after the
    # first round of a run of equal supports.  So each run is checked once and
    # its messages repeat for every round of it.
    start = max(first_seen[1] - 1, skip_rounds)
    supports = [b[start:] > mass_threshold for b in history.strategies.blocks[:2]]
    steps = np.flatnonzero((supports[0][1:] != supports[0][:-1]).any(axis=1)
                           | (supports[1][1:] != supports[1][:-1]).any(axis=1)) + 1
    bounds = [0, *steps.tolist(), rounds - start]
    ever = [set(), set()]
    gone = [set(), set()]
    for a, b in zip(bounds, bounds[1:]):
        supp = [tuple(np.flatnonzero(s[a]).tolist()) for s in supports]
        found = _support_violations(supp, ever, gone, legal1, legal2, pure_profiles)
        violations.extend(f"round {t}: {msg}" for t in range(start + a + 1, start + b + 1)
                          for msg in found)

    return PhaseReport(
        m=spiral.m,
        rounds=rounds,
        first_seen=first_seen,
        phases=phases,
        retained_actions=_retained(spiral),
        violations=violations,
    )


def _support_violations(supp, ever, gone, legal1, legal2, pure_profiles):
    """The walk checks of one round with supports ``supp``, without the round
    prefix; updates the ``ever`` played and ``gone`` (abandoned) action sets."""
    found = []
    for j in range(2):
        back = gone[j].intersection(supp[j])
        if back:
            found.append(f"player {j + 1} regained abandoned actions {sorted(back)}")
        gone[j].update(ever[j].difference(supp[j]))
        ever[j].update(supp[j])
    mixed = [j for j in range(2) if len(supp[j]) > 1]
    if len(mixed) > 1:
        found.append("both players mixed")
        return found
    if not mixed:
        if (supp[0][0], supp[1][0]) not in pure_profiles:
            found.append(f"pure profile {(supp[0][0], supp[1][0])} is not on the spiral")
        return found
    j = mixed[0]
    if len(supp[j]) > 2:
        found.append(f"player {j + 1} mixes {len(supp[j])} actions")
        return found
    legal = legal1 if j == 0 else legal2
    key = frozenset(supp[j])
    if key not in legal:
        found.append(f"player {j + 1} mixes non-consecutive pair {sorted(supp[j])}")
        return found
    _, other_action = legal[key]
    if supp[1 - j][0] != other_action:
        found.append(f"player {2 - j} should sit on action {other_action}, "
                     f"plays {supp[1 - j][0]}")
    return found


def check_stall_growth(report: PhaseReport):
    """Phase lengths must obey the recursive and factorial growth floors.

    For every completed phase k >= 4 (with k-1 also completed for the
    recursive half): T_k >= ((k-2)/2) T_{k-1} and T_k >= (k-2)!/2^(k-3).
    Returns (ok, failure descriptions).
    """
    failures = []
    lengths = {p.k: p.length for p in report.phases}
    for k, T in sorted(lengths.items()):
        if T is None or k < 4:
            continue
        prev = lengths.get(k - 1)
        if prev is not None and T < ((k - 2) / 2.0) * prev:
            failures.append(f"T_{k}={T} < ((k-2)/2) T_{k - 1}={((k - 2) / 2.0) * prev}")
        floor = math.factorial(k - 2) / 2.0 ** (k - 3)
        if T < floor:
            failures.append(f"T_{k}={T} < factorial floor {floor}")
    return (not failures), failures


def replay_regrets(history: dyn.PlayHistory, init_regrets=None, at_rounds=None):
    """Signed cumulative regret vectors after each round, per player.

    Plain-RM accounting: summing g = u - <x, u> * 1 over the recorded
    (strategy, utility) pairs in order reproduces the online values bit for
    bit.  Returns [round][player] arrays, or a {round: [arrays]} dict for
    just the requested 1-based rounds when ``at_rounds`` is given.
    """
    n = len(history.strategies[0]) if history.rounds else 0
    if init_regrets is None:
        current = [np.zeros(len(history.strategies[0][i])) for i in range(n)]
    else:
        current = [np.asarray(r, dtype=np.float64).copy() for r in init_regrets]
    wanted = None if at_rounds is None else set(at_rounds)
    out = [] if wanted is None else {}
    for t in range(history.rounds):
        nxt = []
        for i in range(n):
            x = history.strategies[t][i]
            u = history.utilities[t][i]
            nxt.append(current[i] + (u - float(x @ u)))
        current = nxt
        if wanted is None:
            out.append(current)
        elif t + 1 in wanted:
            out[t + 1] = current
    return out


@dataclass
class Separation:
    walk: dyn.RunResult  # plain rm, simultaneous, from the pure start
    report: PhaseReport  # phases of the walk
    rm_rounds: Optional[int]  # first walk round with every gap <= epsilon
    contrast: dyn.RunResult  # alternating rm+ from the same start
    contrast_gap: float  # Nash gap of the contrast's final profile
    ratio: float  # rm rounds (the whole walk if it never got there) per rm+ round


def run_separation(m: int, max_rounds: int, epsilon: float, rm_plus_max_rounds: int) -> Separation:
    """The rm walk on the padded game, its phase report, and the rm+ contrast."""
    game, init = build_padded(m), pure_init_strategies(m)
    walk = dyn.run(game, dyn.RunConfig(
        scheme="simultaneous", kind="rm", max_rounds=max_rounds, init_strategies=init))
    reached = np.flatnonzero(walk.traces.br_gaps.max(axis=1) <= epsilon)
    rm_rounds = int(reached[0]) + 1 if len(reached) else None
    contrast = dyn.run(game, dyn.RunConfig(
        scheme="alternating", kind="rm+", epsilon=epsilon, max_rounds=rm_plus_max_rounds,
        init_strategies=init))
    rm_cost = rm_rounds if rm_rounds is not None else walk.rounds
    return Separation(walk, analyze_phases(walk.history, build_spiral(m)), rm_rounds, contrast,
                      dyn.nash_gap(game, contrast.final_profile), rm_cost / max(contrast.rounds, 1))
