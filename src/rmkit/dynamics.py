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

Block gradients fold axis-moved tensor copies made once per run and dropped
with it: a game's utilities, and a multilinear objective's potential when
its ``block_gradient`` is the ``games.BlockGradients`` kernel.  Any other
gradient callable, a wrapped or rescaled one included, is called per call.
``cce_gaps`` replays a recording once for any number of checkpoints.

The record a run returns is float64 columns, not per-round objects: per
block the entering strategies and the observed gradients (``Rounds``), and
one block of trace columns plus one of updated flags (``Traces``).  The
run appends each round's bytes to ``array.array`` buffers, which grow
geometrically by reallocation, and views them as read-only
columns when it ends.  Per-round indexing and iteration build lists
of block rows and ``TraceRecord``s on access; the writers, the reader and
the analyses work on the columns, a few thousand rows at a time where they
need Python objects.
"""

from __future__ import annotations

import json
import math
import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional

import numpy as np

from . import learners as ln
from . import objectives as obj_mod
from .games import BlockGradients, GameSpec, _check_profile, fold, utility_vector
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


def _column(buffer: array, width: int, dtype=np.float64) -> np.ndarray:
    """The rows appended to ``buffer`` as a read-only (rows, width) array over
    its memory.  The buffer cannot grow any more while the array lives."""
    rows = np.frombuffer(buffer, dtype=dtype).reshape(-1, width)
    rows.flags.writeable = False
    return rows


class Rounds(Sequence):
    """Per-round profiles over per-block columns.

    ``blocks[i]`` is a read-only (rounds, m_i) float64 array; indexing a
    round gives the list of its block rows (views), a slice gives another
    ``Rounds`` over the same memory.
    """

    def __init__(self, blocks):
        self.blocks = list(blocks)

    @classmethod
    def stack(cls, rows) -> "Rounds":
        """Columns from per-round lists of block vectors of fixed sizes."""
        rows = list(rows)
        if not rows:
            return cls([])
        sizes = [len(x) for x in rows[0]]
        for t, row in enumerate(rows):
            if [len(x) for x in row] != sizes:
                raise ValueError(f"round {t + 1} has block sizes {[len(x) for x in row]}, "
                                 f"round 1 has {sizes}")
        blocks = [np.array([row[i] for row in rows], dtype=np.float64).reshape(len(rows), m)
                  for i, m in enumerate(sizes)]
        for b in blocks:
            b.flags.writeable = False
        return cls(blocks)

    def __len__(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    def __getitem__(self, t):
        if isinstance(t, slice):
            return Rounds([b[t] for b in self.blocks])
        return [b[t] for b in self.blocks]

    def __iter__(self):
        for t in range(len(self)):
            yield [b[t] for b in self.blocks]

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
            for a, b in zip(self, other))


def _trace_fields(row, n: int):
    """(gaps, kkt gap, l2 norms, l1 norms, value) of one trace row as a list."""
    return row[:n], row[n], row[n + 1 : 2 * n + 1], row[2 * n + 1 : 3 * n + 1], row[3 * n + 1]


class Traces(Sequence):
    """Per-round trace over one float64 column block and one bool block.

    The float block holds, per round, the n gaps, the kkt gap, the n regret
    l2 norms, the n l1 norms and the value; the bool block the n updated
    flags.  Indexing builds a ``TraceRecord``; the attributes of the same
    names are the columns, read whole.
    """

    def __init__(self, columns, updated, rounds=None):
        self.columns = columns
        self.updated = updated
        self.rounds = range(1, len(columns) + 1) if rounds is None else rounds
        self._n = updated.shape[1]
        gaps, kkt, l2, l1, value = _trace_fields(columns.T, self._n)
        self.br_gaps, self.kkt_gap, self.value = gaps.T, kkt, value
        self.regret_l2, self.regret_l1 = l2.T, l1.T

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return Traces(self.columns[t], self.updated[t], self.rounds[t])
        gaps, kkt, l2, l1, value = _trace_fields(self.columns[t].tolist(), self._n)
        return TraceRecord(self.rounds[t], gaps, kkt, l2, l1, value, self.updated[t].tolist())

    def __eq__(self, other):
        if isinstance(other, Traces):
            # whole columns, so that the nan values of a game without a
            # potential compare equal when the runs are
            return (self.rounds == other.rounds
                    and np.array_equal(self.updated, other.updated)
                    and np.array_equal(self.columns, other.columns, equal_nan=True))
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass
class PlayHistory:
    """Strategies entering each round and the utilities each block observed.

    Both are ``Rounds`` columns; per-round lists are stacked on the way in.
    ``utilities`` is ``None`` for a recording that kept none (any ``None``
    in the given lists means none were kept).
    """

    scheme: Scheme
    strategies: Rounds = field(default_factory=list)  # [round][block], entering the round
    utilities: Optional[Rounds] = field(default_factory=list)  # [round][block], as observed

    def __post_init__(self):
        if not isinstance(self.strategies, Rounds):
            self.strategies = Rounds.stack(self.strategies)
        if self.utilities is not None and not isinstance(self.utilities, Rounds):
            rows = list(self.utilities)
            kept = all(row is not None and all(u is not None for u in row) for row in rows)
            self.utilities = Rounds.stack(rows) if kept else None

    @property
    def rounds(self) -> int:
        return len(self.strategies)


@dataclass
class RunResult:
    config: RunConfig
    history: PlayHistory
    traces: Traces
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
    # a gradient kernel moves its axes once, here, and the copies end with the run
    if isinstance(target, GameSpec):
        grad = BlockGradients(target.utilities).hoisted()
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
        grad = target.block_gradient
        if isinstance(grad, BlockGradients):
            grad = grad.hoisted()
        return tuple(target.domain.block_sizes), grad, target.value
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

    # The record: per block the entering strategies and the observed
    # gradients, the trace rows and the updated flags, appended as raw bytes
    # to arrays that grow geometrically by reallocation and are viewed as
    # columns once the run ends.
    strategies = [array("d") for _ in sizes]
    utilities = [array("d") for _ in sizes]
    trace = array("d")
    flags = array("b")
    trace_row = struct.Struct(f"{3 * n + 2}d").pack
    initial_gaps: List[float] = []
    stop_reason = "max_rounds"
    t = 0

    for t in range(1, config.max_rounds + 1):
        for i in range(n):
            strategies[i].frombytes(profile[i].tobytes())
        observed = [observe(i) for i in range(n)] if simultaneous else [None] * n
        gaps = [0.0] * n
        updated = [False] * n

        for i in range(n):
            u = observed[i]
            if u is None:
                u = observed[i] = observe(i)
            utilities[i].frombytes(u.tobytes())
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
        trace.frombytes(trace_row(*gaps, float(sum(gaps)), *l2, *l1, value(profile)))
        flags.frombytes(bytes(updated))
        if progress is not None and t % PROGRESS_EVERY == 0:
            progress(t)
        if eps is not None and all(gap <= eps for gap in gaps):
            stop_reason = "converged"
            break

    return RunResult(
        config=config,
        history=PlayHistory(config.scheme,
                            Rounds(_column(b, m) for b, m in zip(strategies, sizes)),
                            Rounds(_column(b, m) for b, m in zip(utilities, sizes))),
        traces=Traces(_column(trace, 3 * n + 2), _column(flags, n, np.bool_)),
        states=[ln.RegretState(kind, r, x, discount) for r, x in zip(regrets, profile)],
        stop_reason=stop_reason,
        rounds=t,
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
    X = history.strategies.blocks[block][:T]
    U = history.utilities.blocks[block][:T]
    realized = np.array([x @ u for x, u in zip(X, U)])
    return float(_accumulate(U.copy())[-1].max() - _accumulate(realized)[-1])


def _accumulate(rows):
    """Turn ``rows`` in place into its running sums over the leading axis,
    each equal bit for bit to a running ``total += row`` started from +0.0:
    ``cumsum`` adds in round order, and the +0.0 turns a leading -0.0 into
    +0.0 as that start does."""
    np.cumsum(rows, axis=0, out=rows)
    rows[0] += 0.0
    return rows


def cce_gap(game: GameSpec, history: PlayHistory, rounds: Optional[int] = None,
            allow_alternating: bool = False) -> float:
    """Incentive to deviate from the average product distribution of play.

    Under simultaneous play this equals the largest average external regret.
    Alternating histories average time-skewed profiles, so they are only
    accepted with ``allow_alternating`` and should be labelled as such.
    """
    T = history.rounds if rounds is None else rounds
    return cce_gaps(game, history, [T], allow_alternating)[0]


def cce_gaps(game: GameSpec, history: PlayHistory, checkpoints,
             allow_alternating: bool = False) -> List[float]:
    """``cce_gap`` at each checkpoint, in the order given, from one replay.

    Each recorded profile is checked and folded once, up to the largest
    checkpoint; the running sums are read off at every checkpoint, so
    unsorted and repeated checkpoints cost nothing extra and each value has
    the bits of a separate ``cce_gap`` call.
    """
    if history.scheme is not Scheme.SIMULTANEOUS and not allow_alternating:
        raise ValueError(
            "history was not generated by simultaneous play; "
            "pass allow_alternating=True to average it anyway"
        )
    checkpoints = list(checkpoints)
    for T in checkpoints:
        if not 0 < T <= history.rounds:
            raise ValueError(f"rounds must lie in 1..{history.rounds}")
    last = max(checkpoints, default=0)
    if not last:
        return []
    # every round has the block sizes of the first, so one check covers them
    _check_profile(game.action_counts, history.strategies[0])
    n = game.num_players
    grad = BlockGradients(game.utilities).hoisted()
    blocks = [b[:last] for b in history.strategies.blocks]
    dev = [np.empty((last, m)) for m in game.action_counts]
    realized = np.empty((last, n))
    for t in range(last):
        profile = [b[t] for b in blocks]
        for i in range(n):
            u = dev[i][t] = grad(profile, i)
            realized[t, i] = profile[i] @ u
    for d in (*dev, realized):
        _accumulate(d)
    return [max(float(dev[i][T - 1].max() - realized[T - 1, i]) / T for i in range(n))
            for T in checkpoints]


def _fmt(x) -> str:
    return f"{x:.17g}"


TRACE_HEADER = "round,player,br_gap,kkt_gap,regret_l2,regret_l1,value,updated"


# rows the writers format from one ``tolist`` chunk: a whole-record ``tolist``
# would hold every round as Python objects at once
_CHUNK_ROWS = 4096


def _chunks(rows: int):
    for start in range(0, rows, _CHUNK_ROWS):
        yield start, min(start + _CHUNK_ROWS, rows)


def write_trace_csv(traces: Traces, path) -> None:
    """One row per (round, player) plus a summary row with player -1.

    The summary aggregates: max gap, the round's kkt gap, max norms, the
    round's value, and the number of updated players.
    """
    n = traces.updated.shape[1]
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for start, stop in _chunks(len(traces)):
            rows = traces.columns[start:stop].tolist()
            flags = traces.updated[start:stop].tolist()
            for t, row, updated in zip(traces.rounds[start:stop], rows, flags):
                gaps, kkt, l2, l1, value = _trace_fields(row, n)
                kkt, value = _fmt(kkt), _fmt(value)
                for i, gap in enumerate(gaps):
                    fh.write(
                        ",".join(
                            (
                                str(t),
                                str(i),
                                _fmt(gap),
                                kkt,
                                _fmt(l2[i]),
                                _fmt(l1[i]),
                                value,
                                "1" if updated[i] else "0",
                            )
                        )
                        + "\n"
                    )
                fh.write(
                    ",".join(
                        (
                            str(t),
                            "-1",
                            _fmt(max(gaps)),
                            kkt,
                            _fmt(max(l2)),
                            _fmt(max(l1)),
                            value,
                            str(sum(updated)),
                        )
                    )
                    + "\n"
                )


def write_strategies_jsonl(history: PlayHistory, path) -> None:
    """One line per round: the strategies entering that round, all blocks."""
    columns = history.strategies.blocks
    with open(path, "w") as fh:
        for start, stop in _chunks(history.rounds):
            chunk = [b[start:stop].tolist() for b in columns]
            for k in range(stop - start):
                fh.write(
                    json.dumps({"round": start + k + 1, "blocks": [b[k] for b in chunk]})
                    + "\n"
                )


def read_strategies_jsonl(path) -> Rounds:
    """Per-round profiles from the writer's format, stacked into per-block columns.

    Every line must carry the block count and sizes of the first; a bad line
    names its number.
    """
    buffers = None
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
            if not all(isinstance(b, list) for b in blocks):
                raise ValueError(f"{path}:{line_no}: blocks are not numeric (each must be a list)")
            try:
                profile = [array("d", b) for b in blocks]
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"{path}:{line_no}: blocks are not numeric ({exc})") from exc
            sizes = [len(x) for x in profile]
            if buffers is None:
                if not sizes or not all(sizes):
                    raise ValueError(
                        f"{path}:{line_no}: expected non-empty blocks, got sizes {sizes}")
                buffers = [array("d") for _ in profile]
                first = (line_no, sizes)
            elif sizes != first[1]:
                raise ValueError(f"{path}:{line_no}: block sizes {sizes} differ from "
                                 f"line {first[0]}'s {first[1]}")
            for b, x in zip(buffers, profile):
                b += x
    if buffers is None:
        return Rounds([])
    return Rounds(_column(b, m) for b, m in zip(buffers, first[1]))
