"""Multi-block runs of regret-matching learners, traces, and gap measures.

One ``run`` drives n learners on either a game (each player observes the
expected utility vector from their own tensor) or an objective handle
(every block observes its partial gradient).  Three update schemes:

* ``SIMULTANEOUS``      all blocks observe the gradient at the common
                        profile, then all step.
* ``ALTERNATING``       fixed order; each block observes the gradient with
                        all earlier blocks already updated this round, and
                        always steps.
* ``LAZY_ALTERNATING``  same measurement, but a block whose best-response
                        gap is already at most ``epsilon`` is skipped for
                        the round: strategy and regrets both stay frozen
                        (``lazy_regret_updates`` flips the regret half).

A run stops early only when one full pass measures every block's gap at or
below ``epsilon``; that pass counts as a round.  Everything is
deterministic: the same config produces byte-identical traces.

``run`` validates its inputs once, then keeps each block's regrets and
strategies as plain arrays.  Per round it checks only the gradients it
observes, which come from outside for an objective, and steps each block
with ``learners.advance``, the kernel behind the validated single-step
reference ``learners.step``; ``RegretState`` objects are built only for
``on_step`` and for the result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional

import numpy as np

from . import learners as ln
from . import objectives as obj_mod
from .games import GameSpec, _check_profile, fold, own_axis_first, utility_vector
from .games import mixed_potential  # noqa: F401  (perfbench/tracing.py wraps this attribute)
from .objectives import ObjectiveHandle, br_gap


class Scheme(str, Enum):
    SIMULTANEOUS = "simultaneous"
    ALTERNATING = "alternating"
    LAZY_ALTERNATING = "lazy"


class InitPolicy(str, Enum):
    ZERO = "zero"
    THRESHOLD = "threshold"
    CUSTOM = "custom"


@dataclass
class RunConfig:
    scheme: Scheme = Scheme.SIMULTANEOUS
    kind: ln.Kind = ln.Kind.RM_PLUS
    max_rounds: int = 1000
    epsilon: Optional[float] = None  # stopping precision; required by the lazy scheme
    discount: Optional[float] = None  # per-round alpha for drm+
    init: InitPolicy = InitPolicy.ZERO
    init_regrets: Optional[list] = None  # per-block vectors, CUSTOM only
    init_strategies: Optional[list] = None  # fallback strategies at birth
    lazy_regret_updates: bool = False

    def __post_init__(self):
        self.scheme = Scheme(self.scheme)
        self.kind = ln.Kind(self.kind)
        self.init = InitPolicy(self.init)
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        if self.epsilon is not None and self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive when set")
        if self.scheme is Scheme.LAZY_ALTERNATING and self.epsilon is None:
            raise ValueError("lazy scheme needs epsilon")
        if self.kind is ln.Kind.DRM_PLUS and self.discount is None:
            raise ValueError("drm+ needs a discount")
        if self.init is InitPolicy.CUSTOM and self.init_regrets is None:
            raise ValueError("custom init needs init_regrets")
        if self.init is not InitPolicy.CUSTOM and self.init_regrets is not None:
            raise ValueError("init_regrets only applies to custom init")


@dataclass
class TraceRecord:
    round: int
    br_gaps: List[float]
    kkt_gap: float
    regret_l2: List[float]
    regret_l1: List[float]
    value: float
    updated: List[bool]


@dataclass
class PlayHistory:
    scheme: Scheme
    strategies: list = field(default_factory=list)  # [round][block], entering the round
    utilities: list = field(default_factory=list)  # [round][block], as observed

    @property
    def rounds(self) -> int:
        return len(self.strategies)


@dataclass
class RunResult:
    config: RunConfig
    history: PlayHistory
    traces: List[TraceRecord]
    states: list  # final learner states
    stop_reason: str  # "converged" | "max_rounds"
    rounds: int
    initial_gaps: List[float]  # per-block gap measured at the first round

    @property
    def final_profile(self):
        return [ln.current_strategy(s) for s in self.states]

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _gradient_and_value(target):
    if isinstance(target, GameSpec):
        # the axis moves are hoisted out of the round loop and dropped with it
        moved = [own_axis_first(u, i) for i, u in enumerate(target.utilities)]

        def grad(profile, i):
            return fold(moved[i], [*profile[:i], *profile[i + 1 :]])

        if target.potential is not None:
            potential = target.potential

            # run checks its profiles once, so the value folds without re-checking
            def value(profile):
                return float(fold(potential, profile))
        else:
            def value(profile):
                return float("nan")

        return tuple(target.action_counts), grad, value
    if isinstance(target, ObjectiveHandle):
        return (
            tuple(target.domain.block_sizes),
            lambda profile, i: target.block_gradient(profile, i),
            target.value,
        )
    raise TypeError(f"cannot run on {type(target).__name__}")


def _smoothness_of(target) -> float:
    if isinstance(target, ObjectiveHandle):
        return target.smoothness
    if isinstance(target, GameSpec):
        if target.potential is None:
            raise ValueError("threshold init needs a potential or an objective")
        return obj_mod.multilinear_smoothness_bound(target.potential)
    raise TypeError(f"cannot run on {type(target).__name__}")


def _initial_states(target, sizes, config: RunConfig):
    regrets = [None] * len(sizes)
    if config.init is InitPolicy.THRESHOLD:
        L = _smoothness_of(target)
        regrets = [np.full(m, ln.threshold_init_value(m, L)) for m in sizes]
    elif config.init is InitPolicy.CUSTOM:
        if len(config.init_regrets) != len(sizes):
            raise ValueError("one init regret vector per block")
        regrets = [np.asarray(r, dtype=np.float64) for r in config.init_regrets]
    strategies = [None] * len(sizes)
    if config.init_strategies is not None:
        if len(config.init_strategies) != len(sizes):
            raise ValueError("one init strategy per block")
        strategies = list(config.init_strategies)
    return [
        ln.new_learner(
            config.kind,
            m,
            init_regrets=regrets[i],
            init_strategy=strategies[i],
            discount=config.discount,
        )
        for i, m in enumerate(sizes)
    ]


PROGRESS_EVERY = 10_000


def run(
    target,
    config: RunConfig,
    on_step: Optional[Callable] = None,
    progress: Optional[Callable] = None,
) -> RunResult:
    """Drive the configured learners on a game or objective.

    ``on_step`` is called as ``on_step(round, block, state_before, g,
    state_after)`` for every realized learner update.  ``progress`` is
    called with the round number every ``PROGRESS_EVERY`` rounds.
    """
    sizes, grad, value = _gradient_and_value(target)
    states = _initial_states(target, sizes, config)
    n = len(sizes)
    eps = config.epsilon
    kind = config.kind
    discount = states[0].discount
    alpha = discount if kind is ln.Kind.DRM_PLUS else None
    simultaneous = config.scheme is Scheme.SIMULTANEOUS
    lazy = config.scheme is Scheme.LAZY_ALTERNATING
    shapes = [(m,) for m in sizes]

    # Per block: the regrets, the strategy the state stores (which is also
    # what the other blocks see), the strategy its regrets play next, and the
    # norms of the regrets' positive part.  Stored and played are one array
    # except after a lazy regret update, which keeps the stored strategy.
    regrets = [s.regrets for s in states]
    profile, l1, l2 = [], [], []
    for s in states:
        theta, total, x = ln.play(s.regrets, s.strategy)
        profile.append(x)
        l1.append(total)
        l2.append(math.sqrt(theta.dot(theta)))
    played = list(profile)

    def observe(i):
        # a block gradient is outside input: check it every round
        u = np.asarray(grad(profile, i), dtype=np.float64)
        if u.shape != shapes[i]:
            raise ValueError(f"block {i} gradient has shape {u.shape}, want {shapes[i]}")
        if not np.isfinite(u).all():
            raise ValueError(f"block {i} gradient has non-finite entries")
        return u

    history = PlayHistory(scheme=config.scheme)
    traces: List[TraceRecord] = []
    initial_gaps: List[float] = []
    stop_reason = "max_rounds"

    for t in range(1, config.max_rounds + 1):
        entering = list(profile)
        observed = [observe(i) for i in range(n)] if simultaneous else [None] * n
        gaps = [0.0] * n
        updated = [False] * n

        for i in range(n):
            u = observed[i]
            if u is None:
                u = observed[i] = observe(i)
            x = profile[i]
            xu = float(x @ u)
            gaps[i] = float(u.max()) - xu
            skip = lazy and gaps[i] <= eps
            if skip and not config.lazy_regret_updates:
                continue
            if played[i] is not x:
                xu = float(played[i] @ u)
            r, theta, total, x_next, g = ln.advance(kind, regrets[i], played[i], u, xu, alpha)
            if skip:
                # the regrets move but the stored strategy stays, as their fallback
                played[i] = ln.play(r, x)[2]
            else:
                if on_step is not None:
                    on_step(t, i, ln.RegretState(kind, regrets[i], x, discount), g,
                            ln.RegretState(kind, r, x_next, discount))
                profile[i] = played[i] = x_next
                updated[i] = True
            regrets[i] = r
            l1[i] = total
            l2[i] = math.sqrt(theta.dot(theta))

        if t == 1:
            initial_gaps = list(gaps)
        history.strategies.append(entering)
        history.utilities.append(observed)
        traces.append(
            TraceRecord(
                round=t,
                br_gaps=gaps,
                kkt_gap=float(sum(gaps)),
                regret_l2=list(l2),
                regret_l1=list(l1),
                value=value(profile),
                updated=updated,
            )
        )
        if progress is not None and t % PROGRESS_EVERY == 0:
            progress(t)
        if eps is not None and all(gap <= eps for gap in gaps):
            stop_reason = "converged"
            break

    return RunResult(
        config=config,
        history=history,
        traces=traces,
        states=[ln.RegretState(kind, r, x, discount) for r, x in zip(regrets, profile)],
        stop_reason=stop_reason,
        rounds=len(traces),
        initial_gaps=initial_gaps,
    )


def nash_gap(game: GameSpec, profile) -> float:
    """Largest unilateral deviation benefit at a mixed profile."""
    return max(
        br_gap(utility_vector(game, i, profile), profile[i])
        for i in range(game.num_players)
    )


def external_regret(history: PlayHistory, block: int, rounds: Optional[int] = None) -> float:
    """Best fixed action's advantage over the realized play, cumulated."""
    T = history.rounds if rounds is None else rounds
    if not 0 < T <= history.rounds:
        raise ValueError(f"rounds must lie in 1..{history.rounds}")
    total = None
    realized = 0.0
    for t in range(T):
        u = history.utilities[t][block]
        x = history.strategies[t][block]
        total = u.copy() if total is None else total + u
        realized += float(x @ u)
    return float(total.max() - realized)


def cce_gap(game: GameSpec, history: PlayHistory, rounds: Optional[int] = None,
            allow_alternating: bool = False) -> float:
    """Incentive to deviate from the average product distribution of play.

    Under simultaneous play this equals the largest average external regret.
    Alternating histories average time-skewed profiles, so they are only
    accepted with ``allow_alternating`` and should be labelled as such.
    """
    if history.scheme is not Scheme.SIMULTANEOUS and not allow_alternating:
        raise ValueError(
            "history was not generated by simultaneous play; "
            "pass allow_alternating=True to average it anyway"
        )
    T = history.rounds if rounds is None else rounds
    if not 0 < T <= history.rounds:
        raise ValueError(f"rounds must lie in 1..{history.rounds}")
    n = game.num_players
    moved = [own_axis_first(u, i) for i, u in enumerate(game.utilities)]
    dev = [np.zeros(m) for m in game.action_counts]
    realized = [0.0] * n
    for t in range(T):
        profile = history.strategies[t]
        _check_profile(game.action_counts, profile)
        for i in range(n):
            u = fold(moved[i], [*profile[:i], *profile[i + 1 :]])
            dev[i] += u
            realized[i] += float(profile[i] @ u)
    return max(float(dev[i].max() - realized[i]) / T for i in range(n))


def _fmt(x) -> str:
    return f"{x:.17g}"


TRACE_HEADER = "round,player,br_gap,kkt_gap,regret_l2,regret_l1,value,updated"


def write_trace_csv(traces, path) -> None:
    """One row per (round, player) plus a summary row with player -1.

    The summary aggregates: max gap, the round's kkt gap, max norms, the
    round's value, and the number of updated players.
    """
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in traces:
            for i, gap in enumerate(rec.br_gaps):
                fh.write(
                    ",".join(
                        (
                            str(rec.round),
                            str(i),
                            _fmt(gap),
                            _fmt(rec.kkt_gap),
                            _fmt(rec.regret_l2[i]),
                            _fmt(rec.regret_l1[i]),
                            _fmt(rec.value),
                            "1" if rec.updated[i] else "0",
                        )
                    )
                    + "\n"
                )
            fh.write(
                ",".join(
                    (
                        str(rec.round),
                        "-1",
                        _fmt(max(rec.br_gaps)),
                        _fmt(rec.kkt_gap),
                        _fmt(max(rec.regret_l2)),
                        _fmt(max(rec.regret_l1)),
                        _fmt(rec.value),
                        str(sum(rec.updated)),
                    )
                )
                + "\n"
            )


def write_strategies_jsonl(history: PlayHistory, path) -> None:
    """One line per round: the strategies entering that round, all blocks."""
    with open(path, "w") as fh:
        for t, profile in enumerate(history.strategies, start=1):
            fh.write(
                json.dumps({"round": t, "blocks": [x.tolist() for x in profile]})
                + "\n"
            )


def read_strategies_jsonl(path) -> list:
    """Per-round profiles from the writer's format; a bad line names its number."""
    rounds = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON ({exc})") from exc
            blocks = doc.get("blocks") if isinstance(doc, dict) else None
            if not isinstance(blocks, list):
                raise ValueError(f"{path}:{line_no}: expected an object with a 'blocks' list")
            try:
                rounds.append([np.asarray(b, dtype=np.float64) for b in blocks])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: blocks are not numeric ({exc})") from exc
    return rounds
