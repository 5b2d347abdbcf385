"""Two-player identical-interest games on which regret matching stalls.

The payoff matrix places the values 1, 2, ..., 2m-1 along an inward spiral
and zeros elsewhere.  Guided by its positive part, regret matching walks
the profiles in payoff order, and each hop first has to pay back regret
buried during all earlier hops, so the time spent per step grows
factorially while the best payoff sits untouched in the middle.

Two wrappers make the walk start from round one: a padded (m+1) x (m+1)
matrix whose extra action funnels a pure initial profile onto the first
payoff, and a 2m x 2m matrix balanced so that uniform initial play does the
same.  ``PhaseTracker`` reconstructs the walk's phases from a recorded
history and checks the structural facts the stalling argument rests on,
and ``run_separation`` sets the slow rm walk against fast alternating rm+.

The tracker takes the strategies in chunks, as ``dyn.run`` keeps them or
hands them to a sink and as ``dyn.iter_strategies_jsonl`` yields them: one
row per stretch of rounds with the bits of its first, and the chunk's
``counts`` of rounds per row.  It carries only the onsets, the dropped
action sets and the violations from one chunk to the next, so that it
holds no more for a longer walk: it keeps the first ``_KEPT_VIOLATIONS``
violation messages and a count of the rest.  ``analyze_phases`` feeds it
a whole kept history as one chunk.  Within a chunk each payoff's
first round is the first round of the first row whose profile has mass,
from one column product over the rows, and the walk checks run once per
stretch of rows with unchanged supports (the supports change 17 times in
the first 62,000 rounds of the padded m=6 walk), repeating their messages
for each round of it.  So the tracker's cost follows the stretches, not
the rounds: ``run_separation`` keeps the m=8 walk to 2 * 10^11 rounds,
past payoff 15, as 105 rows and tracks it in about 0.01 s.
"""

from __future__ import annotations

import itertools
import math
import time
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
    more_violations: int = 0  # messages past the kept ones, summed up in the last entry

    @property
    def violation_count(self) -> int:
        """Every violation message found, those past the kept ones included."""
        return len(self.violations) + self.more_violations - (self.more_violations > 0)

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


# violation messages a tracker keeps; the rest are counted, and a report
# ends its list with one "... and N more" entry for them
_KEPT_VIOLATIONS = 100


def _retained(spiral: SpiralMatrix):
    out = {}
    for k in range(2, spiral.num_payoffs + 1):
        rows = sorted({spiral.positions[v][0] for v in range(k, spiral.num_payoffs + 1)})
        cols = sorted({spiral.positions[v][1] for v in range(k, spiral.num_payoffs + 1)})
        out[k] = (rows, cols)
    return out


class PhaseTracker:
    """The payoff-walk phases of a recorded run, fed its strategies in
    ``Rounds`` chunks in round order (``update``); ``report`` gives the
    ``PhaseReport`` of the rounds fed so far.

    Phase k starts the first round the payoff-k profile carries joint mass
    above the threshold and ends just before payoff k+1 does.  Histories
    that stop early yield open phases, not errors.  Structural violations
    of the walk (two mixed players, non-consecutive supports, an abandoned
    action coming back) are collected as strings, from the first round
    payoff 1 has mass on: the first ``_KEPT_VIOLATIONS`` of them, then a
    count of the rest, which the report gives as one final ``"... and N
    more"`` entry.

    ``skip_rounds`` ignores that many leading rounds; the uniform-start
    game needs its everything-mixed first round excluded from the walk.

    From chunk to chunk the tracker carries only the onsets, the action sets
    each player ever had and then dropped, and the violations.
    """

    def __init__(self, spiral: SpiralMatrix, mass_threshold: float = 1e-12,
                 skip_rounds: int = 0):
        if skip_rounds < 0:
            raise ValueError(f"skip_rounds must be nonnegative, got {skip_rounds}")
        self.spiral, self.mass_threshold, self.skip_rounds = spiral, mass_threshold, skip_rounds
        self.rounds = 0
        self.first_seen = {}  # payoff value -> first round its profile has mass
        self.violations = []  # the first _KEPT_VIOLATIONS messages
        self.more_violations = 0  # the messages past them
        self._ever, self._gone = [set(), set()], [set(), set()]
        # consecutive row/col pairs a player may legally mix across, keyed by
        # the moving side: odd payoff steps move player 1, even ones player 2
        n_pay = spiral.num_payoffs
        self._legal = ({}, {})
        for k in range(1, n_pay):
            (r0, c0), (r1, c1) = spiral.positions[k], spiral.positions[k + 1]
            if k % 2 == 1:
                self._legal[0][frozenset((r0, r1))] = (k, c0)
            else:
                self._legal[1][frozenset((c0, c1))] = (k, r0)
        self._pure_profiles = {spiral.positions[k] for k in range(1, n_pay + 1)}

    def update(self, strategies: dyn.Rounds) -> None:
        """Take the next chunk of rounds: one row per stretch of rounds, with
        the chunk's ``counts``."""
        base, threshold = self.rounds, self.mass_threshold
        self.rounds += len(strategies)
        if not len(strategies):
            return
        p1, p2 = strategies.blocks[:2]
        # each row's rounds within the chunk, counted from 0: starts to ends
        ends, starts = strategies.ends, strategies.starts
        skip = self.skip_rounds - base
        for k, (row, col) in self.spiral.positions.items():
            if k not in self.first_seen:
                hits = np.flatnonzero((p1[:, row] * p2[:, col] > threshold) & (ends > skip))
                if len(hits):
                    self.first_seen[k] = base + max(int(starts[hits[0]]), skip) + 1
        if 1 not in self.first_seen:
            return
        # The checks read only the two supports and the sets of actions each
        # player ever had and then dropped, and those sets stop changing after
        # the first round of a stretch of equal supports.  So each stretch is
        # checked once and its messages repeat for every round of it.
        start = max(self.first_seen[1] - 1 - base, 0)
        first = int(np.searchsorted(ends, start, side="right"))
        supports = [b[first:] > threshold for b in (p1, p2)]
        # each row whose supports differ from the row before opens a stretch,
        # and the first one opens at ``start``
        new = np.flatnonzero(~dyn._repeats(supports)).tolist()
        bounds = [start, *starts[first:][new[1:]].tolist(), int(ends[-1])]
        for a, b, r in zip(bounds, bounds[1:], new):
            found = self._support_violations([tuple(np.flatnonzero(s[r]).tolist())
                                              for s in supports])
            if found:
                room = _KEPT_VIOLATIONS - len(self.violations)
                self.violations.extend(itertools.islice(
                    (f"round {t}: {msg}" for t in range(base + a + 1, base + b + 1)
                     for msg in found),
                    room))
                self.more_violations += max((b - a) * len(found) - room, 0)

    def _support_violations(self, supp):
        """The walk checks of one round with supports ``supp``, without the
        round prefix; updates the played and abandoned action sets, which the
        same supports checked again leave as they are."""
        found = []
        for j in range(2):
            back = self._gone[j].intersection(supp[j])
            if back:
                found.append(f"player {j + 1} regained abandoned actions {sorted(back)}")
            self._gone[j].update(self._ever[j].difference(supp[j]))
            self._ever[j].update(supp[j])
        mixed = [j for j in range(2) if len(supp[j]) > 1]
        if len(mixed) > 1:
            found.append("both players mixed")
            return found
        if not mixed:
            if (supp[0][0], supp[1][0]) not in self._pure_profiles:
                found.append(f"pure profile {(supp[0][0], supp[1][0])} is not on the spiral")
            return found
        j = mixed[0]
        if len(supp[j]) > 2:
            found.append(f"player {j + 1} mixes {len(supp[j])} actions")
            return found
        key = frozenset(supp[j])
        if key not in self._legal[j]:
            found.append(f"player {j + 1} mixes non-consecutive pair {sorted(supp[j])}")
            return found
        _, other_action = self._legal[j][key]
        if supp[1 - j][0] != other_action:
            found.append(f"player {2 - j} should sit on action {other_action}, "
                         f"plays {supp[1 - j][0]}")
        return found

    def report(self) -> PhaseReport:
        # payoffs in the order a round-by-round scan meets them
        first_seen = {k: t for t, k in sorted((t, k) for k, t in self.first_seen.items())}
        phases = []
        for k in range(2, self.spiral.num_payoffs + 1):
            t_low = first_seen.get(k)
            t_next = first_seen.get(k + 1)
            t_high = t_next - 1 if t_next is not None else None
            phases.append(Phase(k=k, t_low=t_low, t_high=t_high))
        violations = (list(self.violations) if 1 in first_seen
                      else ["payoff 1 profile never played"])
        if self.more_violations:
            violations.append(f"... and {self.more_violations} more")
        return PhaseReport(
            m=self.spiral.m,
            rounds=self.rounds,
            first_seen=first_seen,
            phases=phases,
            retained_actions=_retained(self.spiral),
            violations=violations,
            more_violations=self.more_violations,
        )


def analyze_phases(
    history: dyn.PlayHistory,
    spiral: SpiralMatrix,
    mass_threshold: float = 1e-12,
    skip_rounds: int = 0,
) -> PhaseReport:
    """The ``PhaseTracker`` report of a whole recorded run, fed as one chunk:
    a run's kept history, one row per stretch and its count, or a recording
    read back, one row per round."""
    tracker = PhaseTracker(spiral, mass_threshold, skip_rounds)
    tracker.update(history.strategies)
    return tracker.report()


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
    just the requested 1-based rounds when ``at_rounds`` is given, from the
    record expanded to a row per round.
    """
    T = history.rounds
    utilities = dyn._utilities(history).expanded().blocks
    blocks = history.strategies.expanded().blocks
    if init_regrets is None:
        init_regrets = [np.zeros(b.shape[1]) for b in blocks]
    # the running sums of g_1, g_2, ... from r add in round order, as the
    # online r + g does; x @ u stays per row, where a batched product could
    # round differently
    sums = [dyn._running_sums(U - np.array([float(x @ u) for x, u in zip(X, U)])[:, None], r)
            for X, U, r in zip(blocks, utilities, init_regrets)]
    if at_rounds is None:
        return [list(row) for row in zip(*sums)]
    wanted = set(at_rounds)
    return {t: [s[t - 1] for s in sums] for t in range(1, T + 1) if t in wanted}


@dataclass
class Separation:
    walk: dyn.RunResult  # plain rm from the pure start, its record one row per stretch
    walk_seconds: float  # wall time of the walk, its phase tracking included
    walk_stepped: int  # walk rounds stepped one at a time
    walk_stretches: int  # stretches of walk rounds jumped at once
    report: PhaseReport  # phases of the walk
    rm_rounds: Optional[int]  # first walk round with every gap <= epsilon
    rounds_above: int  # walk rounds whose largest gap is above epsilon
    contrast: dyn.RunResult  # alternating rm+ from the same start
    contrast_gap: float  # Nash gap of the contrast's final profile
    # the contrast stopped on its gaps and its final profile is epsilon-Nash:
    # the gaps of its last alternating pass are measured before its steps
    contrast_reached: bool
    ratio: float  # rm rounds (the whole walk if it never got there) per rm+ round


def run_separation(m: int, max_rounds: int, epsilon: float, rm_plus_max_rounds: int,
                   scheme: str = "simultaneous") -> Separation:
    """The rm walk on the padded game under ``scheme`` (simultaneous or
    alternating), its phase report, and the alternating rm+ contrast.

    The walk keeps its record, one row and its count of rounds per
    stretch, so its phases, gap counts and counts of stepped rounds and
    jumped stretches all cost per stretch."""
    game, init = build_padded(m), pure_init_strategies(m)
    start = time.perf_counter()
    walk = dyn.run(game, dyn.RunConfig(
        scheme=scheme, kind="rm", max_rounds=max_rounds, init_strategies=init))
    report = analyze_phases(walk.history, build_spiral(m))
    walk_seconds = time.perf_counter() - start
    # a row is a stepped round and the jumped rounds that repeat it
    top, counts = walk.traces.br_gaps.max(axis=1), walk.traces.counts
    reached = np.flatnonzero(top <= epsilon)
    rm_rounds = int(walk.traces.starts[reached[0]]) + 1 if len(reached) else None
    contrast = dyn.run(game, dyn.RunConfig(
        scheme="alternating", kind="rm+", epsilon=epsilon, max_rounds=rm_plus_max_rounds,
        init_strategies=init))
    rm_cost = rm_rounds if rm_rounds is not None else walk.rounds
    contrast_gap = dyn.nash_gap(game, contrast.final_profile)
    return Separation(walk, walk_seconds, len(counts), int((counts > 1).sum()), report,
                      rm_rounds, int(counts[top > epsilon].sum()), contrast, contrast_gap,
                      contrast.converged and contrast_gap <= epsilon,
                      rm_cost / max(contrast.rounds, 1))
