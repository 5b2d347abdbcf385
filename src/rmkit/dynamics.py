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
the result.

Block gradients and the value come from the hoisted pair of the
``games.BlockGradients`` kernel for a game, and for an objective whose
``block_gradient`` is that kernel; its ``value`` comes from the pair too
when it is the kernel's own.  The pair folds the tensor that blocks and the value share against the last
block's strategy once per bits of it, so a round of a 3-block multilinear
objective whose first two axes hold a multiple of 4 rows reads its
potential twice, not four times; the other blocks fold axis-moved copies
made once per run and dropped with it.  Any other gradient or value
callable, a wrapped or rescaled one included, is called per call.
``replay_cce`` replays a recording once for any number of checkpoints, and
folds a recorded profile only where its bits differ from the round before.

One rule decides what a repeated round may skip.  It applies when the
gradient and the value both come from the kernel's pair, functions of the
profile alone, and the game or objective has at most ``_REUSE_ENTRIES``
profiles.  Then the round after one that left every block's strategy with
its bits reuses what the blocks observed: each block's gradient, ``x @ u``
and gap fold the inputs they folded the round before, so they have its bits.
Under the alternating schemes a block reuses them only while every block
before it has kept its strategy's bits this round; the first one that moves
makes the rest observe afresh.  The value is reused whenever a round leaves
every strategy with its bits: the profile it folds then has the bits of the
one the round before ended on.

Under the same rule, for rm and rm+ under the simultaneous and alternating
schemes, rounds that repeat the profile are jumped, not stepped.  Once a
round leaves every block's strategy with its bits, the next round folds the
same inputs, so its strategies, gradients, gaps, kkt gap and value repeat
those bits.  A round that also leaves the
regrets with their bits is a fixed point: the rest of the run repeats it.
Otherwise, for rm, the regrets move by the same g each round, and ``cumsum``
over ``[r, g, g, ...]`` adds in round order, giving the bits of the loop's
``r + g``.  Such a stretch opens only where the stepped round's own regrets
already hold play: every free entry's positive part is +0.0 (every entry but
j at a pure e_j) and the played entry is finite.  At e_j, ``x @ u`` is
exactly u_j, so g_j is a zero and the held regret keeps its bits, and the
free entries stay at +0.0 up to the round that would move play, which is
stepped.  So a jumped round has the stepped round's l1 and l2 norms too: a
jumped stretch is its trace row repeated k times.  The round that would
move play is found by search, not by a scan of every sum;
``_rm_look_ahead`` gives the argument.

``run`` is one loop, and each pass appends one stretch of rounds to the
record through one ``append``: a stepped round, or a look-ahead chunk of up
to ``_CHUNK_CAP`` jumped rounds.  ``append`` writes the stretch's strategies,
gradients, trace row and updated flags once, with its count of rounds, hands
a full chunk to the sink, and then calls ``progress`` at every multiple of
``PROGRESS_EVERY`` the stretch reaches, so at a chunk edge the sink gets the
chunk before ``progress`` gets the round, and the calls for a jumped stretch
come in bursts, not at the pace of the rounds.

Everything else steps and observes every round: drm+ and the lazy scheme
step each round, and a gradient callable that is not the kernel or a value
that is not the kernel's own is called, and the gradient checked, every
round; beside such a value the kernel's hoisted gradient, too, observes
every round.  That per-round loop is the reference that the reuse and the
jump are tested against, bit for bit.  The limit keeps a large tensor on it:
up to the limit a round's folds cost about what the loop's own work costs,
but past it they are most of a round, and skipping them would make a run's
time follow the round at which its play settles.  500 rounds of simultaneous
rm+ on seeded 3 x 64 potential games took 0.05-0.56 s by seed with the
reuse, against 0.46-0.54 s with every round folded (seeds 1-10, as a game
and as an objective, on a 2-core VM).

The record a run returns is float64 columns, not per-round objects: per
block the entering strategies and the observed gradients (``Rounds``), and
one block of trace columns plus one of updated flags (``Traces``).  The
run appends each stretch's bytes once, as one row, to ``array.array``
buffers, and its round count to one more; nothing is sized by
``max_rounds``.  It expands them into read-only columns when it hands them
over (``_stretch_columns``): one ``np.repeat`` per buffer, or, when every
count is 1, as in a run that steps every round, views of the buffers'
memory, which copy nothing.  Per-round indexing and iteration build lists
of block rows and ``TraceRecord``s on access; the writers, the reader and
the analyses work on the columns, a few thousand rows at a time where they
need Python objects.

A kept record grows with the rounds, so ``run`` can stream it instead.
Given a ``sink``, it calls ``sink(history, traces)`` each time the buffers
reach ``_CHUNK_ROWS`` rounds, jumped rounds included (a look-ahead chunk
ends there), and once more with the rounds left when the run ends; each
call gets a ``PlayHistory`` (scheme, strategies, utilities) and a
``Traces`` whose ``rounds`` number the chunk's rounds, as read-only columns
that the run never writes again (it starts empty buffers), so the sink may
keep them.  The result's record is then empty; its round count, stop
reason and final states are those of the same run without a sink.
``TraceCsvWriter`` and ``StrategiesJsonlWriter`` write such chunks
with the bytes of one whole write; ``write_trace_csv`` and
``write_strategies_jsonl`` are those writers fed one whole record.

A recording is read back the same way: ``iter_strategies_jsonl`` yields it
as ``Rounds`` chunks of ``_CHUNK_ROWS`` lines, and ``replay_cce`` and
``hard_instances.PhaseTracker`` take such chunks in round order, whether
from the reader or from a sink.  Only running sums, onsets, dropped action
sets, violations and round counters cross a chunk edge: the writers, the
replay and the tracker take a chunk's first round as new, and a repeated
round has the bits of the one before, so its text, fold and checks too.
``read_strategies_jsonl`` and ``cce_gaps`` are the reader and the replay
with the chunks stacked into, or fed as, one whole record.  The text of a
stretch of repeated rounds, which differ only in their numbers, comes from
one kernel, ``_numbered``: the writers write it, and the reader, which
reads the file's bytes through one handle, compares the bytes of the lines
ahead with it and seeks back where they differ.
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
from .games import BlockGradients, GameSpec, _check_profile, utility_vector
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
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite when set, got {self.epsilon}")
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


def _stretch_columns(buffers: list, widths, counts: array) -> List[np.ndarray]:
    """The rows appended to each of ``buffers``, row j repeated ``counts[j]``
    times, as read-only C-contiguous (rounds, width) arrays: float64, or bool
    for an ``array("b")``.

    When every count is 1 each array is a view of its buffer's memory, which
    cannot grow any more while the array lives.  Otherwise each is one
    ``np.repeat`` of the buffer's rows, and the buffers are taken out of the
    list one by one, so that each is freed as soon as its rows are expanded
    (unless the caller holds it), not after the whole record is.
    """
    counts = np.frombuffer(counts, np.int64)
    stretched = bool((counts != 1).any())
    columns = []
    for width in widths:
        buffer = buffers.pop(0)
        rows = np.frombuffer(buffer, np.bool_ if buffer.typecode == "b" else np.float64)
        del buffer
        rows = rows.reshape(-1, width)
        if stretched:
            rows = np.repeat(rows, counts, axis=0)
        rows.flags.writeable = False
        columns.append(rows)
    return columns


class Rounds(Sequence):
    """Per-round profiles over per-block columns.

    ``blocks[i]`` is a (rounds, m_i) float64 array, read-only in a record;
    indexing a round gives the list of its block rows (views), a slice gives
    another ``Rounds`` over the same memory.
    """

    def __init__(self, blocks=()):
        self.blocks = list(blocks)

    def __len__(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    def __getitem__(self, t):
        if isinstance(t, slice):
            return Rounds([b[t] for b in self.blocks])
        t = range(len(self))[t]  # the IndexError past the end stops iteration
        return [b[t] for b in self.blocks]

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
    names are the columns, read whole.  ``rounds`` numbers the rows, 1, 2, ...
    by default; ``TraceCsvWriter`` takes only a step-1 ``range``, so that it
    can number the rows of a write from the first one.
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
    """Strategies entering each round and the utilities each block observed,
    as ``Rounds`` columns; ``utilities`` is ``None`` for a recording that kept
    none."""

    scheme: Scheme
    strategies: Rounds = field(default_factory=Rounds)  # [round][block], entering the round
    utilities: Optional[Rounds] = field(default_factory=Rounds)  # [round][block], as observed

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

    @property
    def final_profile(self):
        return [ln.current_strategy(s) for s in self.states]

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _gradient_and_value(target):
    """``(block sizes, gradient, value, folded)``: ``folded`` says both come
    from the kernel's hoisted pair, so both are functions of the profile alone."""
    # a gradient kernel moves its axes once, here, and the copies end with the run
    if isinstance(target, GameSpec):
        grad, value = BlockGradients(target.utilities, target.potential).hoisted()
        return tuple(target.action_counts), grad, value, True
    if isinstance(target, ObjectiveHandle):
        grad, value = target.block_gradient, target.value
        folded = False
        if isinstance(grad, BlockGradients):
            # the kernel's gradient is hoisted; its value only when it is the
            # kernel's own, for any other value is called as given
            folded = value == grad.value
            grad, hoisted_value = grad.hoisted()
            value = hoisted_value if folded else value
        return tuple(target.domain.block_sizes), grad, value, folded
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

# rows per chunk: what ``run`` hands a sink at once, and what the writers and
# the cce replay turn into Python objects or running sums at once, so that
# nothing holds every round of a long run
_CHUNK_ROWS = 4096

# the most profiles (tensor entries) for which a repeated round reuses the
# kernel's observations and value, and repeated rounds are jumped: up to
# 16^3, a round's folds take 10-30 us on a 2-core VM, about the loop's own
# work, and a 3 x 64 game's take 0.56 ms
_REUSE_ENTRIES = 4096

# at most this many bytes of repeated CSV rounds or JSONL lines go to one
# write, and the JSONL reader checks at most this many at once: about 640
# lines of the m=6 walk, so that their text takes ``_numbered``'s array fill
_BATCH_BYTES = 1 << 16

# 10^18, ..., 10, 1: the digit columns of a round number, by integer division
_POWERS_OF_TEN = 10 ** np.arange(18, -1, -1)

# below this many rounds, joining each round's text beats the array fill's
# fixed cost of about 12 us a call
_FILL_ROUNDS = 100

# the JSONL reader checks repeated lines in bulk once this many in a row
# passed line by line, reading at most ``_BATCH_BYTES`` at a time
_BULK_AFTER = 64

# rows per look-ahead chunk: a stretch's running sums are built this many at
# a time, and its search exit makes a short stretch cost one such ``cumsum``
_CHUNK_CAP = 1024


def _free_entries(x: np.ndarray) -> np.ndarray:
    """Mask of the entries whose positive regret would move play off ``x``:
    all of them, except entry j when ``x`` has the bits of e_j."""
    free = np.ones(len(x), dtype=bool)
    support = np.flatnonzero(x.view(np.int64))
    if len(support) == 1 and x[support[0]] == 1.0:
        free[support[0]] = False
    return free


def _moves(regrets: np.ndarray, free: np.ndarray) -> bool:
    """Whether ``regrets`` may move play: the positive part of a ``free``
    entry is not +0.0, or an entry is +inf.  Otherwise ``play`` returns e_j
    or its fallback, the strategy itself."""
    theta = np.maximum(regrets, 0.0)
    return bool(theta[free].view(np.int64).any() or np.isinf(theta).any())


def _rm_look_ahead(regrets, steps, free, k: int):
    """How many of the next ``k`` rm rounds of a stretch keep play, and the
    regrets after the last of them.

    A block's regrets after each round are the running sums of ``[r, g, g,
    ...]``; ``cumsum`` adds in round order, so they have the bits of the round
    loop's ``r + g``.  The stretch is cut before the first round whose
    regrets would move play, found by search, not by a scan of the sums.  A
    stretch opens or goes on only where every free entry's positive part is
    +0.0, so each free regret r_e is at most 0.  A free entry with g_e <= 0
    has every running sum at most r_e <= 0: it never moves play and never
    reaches +inf, and a -0.0 sum comes only from -0.0 + -0.0, so it was there
    at the opening, which accepted it (``np.maximum(-0.0, 0.0)`` is +0.0).
    The held entry j has g_j a zero, so its sum keeps its finite value.  A
    free entry with g_e > 0 has sums that never decrease, since fl(s + g) >=
    s and no sum is NaN, so its positive part turns nonzero at its first sum
    above 0: ``searchsorted``'s index, with 0.0 itself sorted before it.  The
    stretch ends at the least such index over the free entries with g_e > 0.

    Returns the count of covered rounds, and per block the regrets after the
    last one (``regrets`` when none is covered).
    """
    rows = []
    for r, g, f in zip(regrets, steps, free):
        sums = _running_sums(np.broadcast_to(g, (k, len(r))), r)
        for e in np.flatnonzero(f & (g > 0.0)):
            k = min(k, int(np.searchsorted(sums[:, e], 0.0, side="right")))
        rows.append(sums)
    return k, [sums[k - 1].copy() for sums in rows] if k else regrets


def run(
    target,
    config: RunConfig,
    progress: Optional[Callable] = None,
    sink: Optional[Callable] = None,
) -> RunResult:
    """Drive the configured learners on a game or objective.

    ``progress`` is called with the round number every ``PROGRESS_EVERY``
    rounds, after the sink at a chunk edge; the calls for a jumped stretch
    come together.  ``sink``, when given, is called as ``sink(history,
    traces)`` with the record of every ``_CHUNK_ROWS`` rounds, in round
    order, and with the rounds left over when the run ends; the result then
    keeps an empty record (see the module docstring).
    """
    sizes, grad, value, folded = _gradient_and_value(target)
    states = _initial_states(target, sizes, config)
    n = len(sizes)
    eps = config.epsilon
    kind = config.kind
    discount = states[0].discount
    alpha = discount if kind is ln.Kind.DRM_PLUS else None
    simultaneous = config.scheme is Scheme.SIMULTANEOUS
    lazy = config.scheme is Scheme.LAZY_ALTERNATING
    shapes = [(m,) for m in sizes]
    # one rule for repeated rounds (module docstring): when the gradient and
    # the value are the kernel's on a small tensor, a round after one that
    # left every strategy with its bits reuses its observations and value,
    # and, for rm and rm+, rounds that repeat the profile are covered in
    # chunks, not stepped
    reuse = folded and math.prod(sizes) <= _REUSE_ENTRIES
    jump = reuse and not lazy and kind in (ln.Kind.RM, ln.Kind.RM_PLUS)

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
    # gradients, the trace rows and the updated flags, one row per appended
    # stretch as raw bytes, and the stretch's round count in ``counts``.  The
    # rows are expanded into columns (``_stretch_columns``) when the run ends,
    # or, with a sink, handed over and replaced by empty buffers whenever the
    # round count reaches ``flush_at``.
    def empty():
        return ([array("d") for _ in sizes], [array("d") for _ in sizes], array("d"),
                array("b"), array("q"))

    strategies, utilities, trace, flags, counts = empty()
    trace_row = struct.Struct(f"{3 * n + 2}d").pack
    flush_at = _CHUNK_ROWS if sink is not None else config.max_rounds + 1
    stop_reason = "max_rounds"
    t = 0  # the rounds appended
    handed = 0  # the rounds handed to the sink

    def record():
        """The buffered rounds, ``handed + 1`` to ``t``, as (history, traces);
        the buffers start empty again."""
        nonlocal strategies, utilities, trace, flags, counts, handed
        buffers, stretches = [*strategies, *utilities, trace, flags], counts
        strategies, utilities, trace, flags, counts = empty()
        columns = _stretch_columns(buffers, [*sizes, *sizes, 3 * n + 2, n], stretches)
        rounds, handed = range(handed + 1, t + 1), t
        return (PlayHistory(config.scheme, Rounds(columns[:n]), Rounds(columns[n:2 * n])),
                Traces(columns[-2], columns[-1], rounds))

    def append(k, row):
        """Append ``k`` rounds that enter ``entering``, observe ``observed``,
        set ``updated`` and trace ``row``, packed, as one row and its count;
        hand a full chunk to the sink, then call ``progress`` at each multiple
        of ``PROGRESS_EVERY`` reached."""
        nonlocal t, flush_at
        for i in range(n):
            strategies[i].frombytes(entering[i])
            utilities[i].frombytes(observed[i].tobytes())
        trace.frombytes(row)
        flags.frombytes(bytes(updated))
        counts.append(k)
        t += k
        if t == flush_at:
            sink(*record())
            flush_at = t + _CHUNK_ROWS
        if progress is not None:
            for p in range((t - k) // PROGRESS_EVERY * PROGRESS_EVERY + PROGRESS_EVERY, t + 1,
                           PROGRESS_EVERY):
                progress(p)

    # each block's last observation (gradient, x @ u, gap) and the last value,
    # reused while the inputs they fold keep their bits (module docstring)
    observed, xus, gaps = [None] * n, [0.0] * n, [0.0] * n
    kept = False  # the round before left every block's strategy with its bits
    jumping = False  # the next pass covers a look-ahead chunk, not a stepped round
    while t < config.max_rounds:
        if jumping:
            # a look-ahead chunk of rounds that repeat the last stepped one
            # (module docstring): whole at a fixed point, else rm's regrets
            # move by the same g each round, up to the round that moves play
            k = wanted = min(_CHUNK_CAP, config.max_rounds - t, flush_at - t)
            if not fixed:
                k, regrets = _rm_look_ahead(regrets, steps, free, k)
            if k:
                append(k, row)
            jumping = k == wanted
            continue

        # step round t + 1
        before = list(regrets)
        entering = [x.tobytes() for x in profile]
        fresh = not (reuse and kept)
        if simultaneous and fresh:
            observed = [observe(i) for i in range(n)]
        kept = True
        updated = [False] * n
        steps = [None] * n

        for i in range(n):
            x = profile[i]
            if fresh:
                u = observed[i] if simultaneous else observe(i)
                observed[i], xus[i] = u, float(x @ u)
                gaps[i] = float(u.max()) - xus[i]
            u, xu = observed[i], xus[i]
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
                profile[i] = played[i] = x_next
                updated[i] = True
                if x_next.tobytes() != x.tobytes():
                    # later blocks observe the moved strategy
                    kept, fresh = False, True
            regrets[i] = r
            steps[i] = g
            l1[i] = total
            l2[i] = math.sqrt(theta.dot(theta))

        if t == 0 or not (reuse and kept):
            v = value(profile)
        row = trace_row(*gaps, float(sum(gaps)), *l2, *l1, v)
        append(1, row)
        if eps is not None and all(gap <= eps for gap in gaps):
            stop_reason = "converged"
            break
        if jump and kept:
            # the state is a fixed point when the regrets kept their bits too;
            # else rm's stretch opens only where its regrets already hold play
            fixed = all(r.tobytes() == b.tobytes() for r, b in zip(regrets, before))
            if fixed or kind is ln.Kind.RM:
                free = [_free_entries(x) for x in profile]
                if fixed or not any(map(_moves, regrets, free)):
                    jumping = True

    if sink is not None and t > handed:
        sink(*record())
    history, traces = record()
    return RunResult(
        config=config,
        history=history,
        traces=traces,
        states=[ln.RegretState(kind, r, x, discount) for r, x in zip(regrets, profile)],
        stop_reason=stop_reason,
        rounds=t,
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
    return float(_running_sums(U, 0.0)[-1].max() - _running_sums(realized, 0.0)[-1])


def _running_sums(rows: np.ndarray, carry) -> np.ndarray:
    """The running sums of ``rows`` over the leading axis, continued from
    ``carry``, the sum before the first row.

    ``cumsum`` over ``[carry; rows]`` adds in round order, so each sum has
    the bits of a running ``total += row``; from a +0.0 carry that is the
    total started as ``0.0``, which turns a leading -0.0 into +0.0, and a
    chunk continued from the last sum of the chunk before has the bits of
    one pass over both.
    """
    sums = np.empty((len(rows) + 1, *rows.shape[1:]))
    sums[0] = carry
    sums[1:] = rows
    np.cumsum(sums, axis=0, out=sums)
    return sums[1:]


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
    the bits of a separate ``cce_gap`` call.  The replay is ``replay_cce``
    fed the history as one chunk.
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
    if not checkpoints:
        return []
    _, gaps = replay_cce(game, [history.strategies], checkpoints)
    return [gaps[T] for T in checkpoints]


def replay_cce(game: GameSpec, chunks, checkpoints=None):
    """``(rounds, {T: cce gap})`` from one replay of ``Rounds`` chunks, fed in
    round order: the rounds fed, and the gap at each checkpoint up to them,
    or, when ``checkpoints`` is ``None``, at the last round.

    Every chunk is read, but rounds past the largest checkpoint are not
    folded.  The replay runs ``_CHUNK_ROWS`` rounds at a time, folding the
    first and each whose bits differ from the round before, and carries only
    the running sums from one to the next, so what it holds does not grow
    with the rounds, and the sums, sequential ``cumsum``s, do not depend on
    where a chunk ends.
    """
    n = game.num_players
    grad, _ = BlockGradients(game.utilities).hoisted()
    wanted = None if checkpoints is None else sorted(set(checkpoints))
    last = None if checkpoints is None else max(checkpoints, default=0)
    gaps = {}
    # the running sums before the rows to come
    dev, realized = [np.zeros(m) for m in game.action_counts], np.zeros(n)
    done = 0
    for chunk in chunks:
        if not done:
            # every round has the block sizes of the first, so one check covers them
            _check_profile(game.action_counts, [b[0] for b in chunk.blocks])
        top = len(chunk) if last is None else min(len(chunk), last - done)
        for start, stop in _chunks(top):
            rows = [b[start:stop] for b in chunk.blocks]
            # a profile with the bits of the one before folds to the same rows, so
            # only changed profiles fold (``_repeats`` compares bits, unlike
            # ``==``, which equates -0.0 with 0.0 and never a nan with itself)
            changed = ~_repeats(rows)
            folds = np.flatnonzero(changed)
            fold_dev = [np.empty((len(folds), m)) for m in game.action_counts]
            fold_realized = np.empty((len(folds), n))
            for row, t in enumerate(folds):
                profile = [b[t] for b in rows]
                for i in range(n):
                    u = fold_dev[i][row] = grad(profile, i)
                    fold_realized[row, i] = profile[i] @ u
            # each round takes the rows of its latest fold
            source = np.cumsum(changed) - 1
            sums = [_running_sums(d[source], carry) for d, carry in zip(fold_dev, dev)]
            realized_sums = _running_sums(fold_realized[source], realized)
            while wanted and wanted[0] <= done + stop:
                T = wanted.pop(0)
                k = T - 1 - done - start
                gaps[T] = max(float(sums[i][k].max() - realized_sums[k, i]) / T
                              for i in range(n))
            dev = [d[-1] for d in sums]
            realized = realized_sums[-1]
        done += len(chunk)
    if checkpoints is None and done:
        gaps[done] = max(float(dev[i].max() - realized[i]) / done for i in range(n))
    return done, gaps


def _fmt(x) -> str:
    return f"{x:.17g}"


TRACE_HEADER = "round,player,br_gap,kkt_gap,regret_l2,regret_l1,value,updated"


def _chunks(rows: int):
    for start in range(0, rows, _CHUNK_ROWS):
        yield start, min(start + _CHUNK_ROWS, rows)


def _repeats(columns) -> np.ndarray:
    """Per row of the ``columns``, (rows, width) arrays of one length, whether
    every column has the bits of the row before it; the first row never
    does.  Float columns compare as int64, so -0.0 is not 0.0."""
    same = np.arange(len(columns[0])) > 0
    rest = same[1:]
    # one compare per column of each block: rows are only a few entries wide,
    # so a reduction along them costs more than the compares
    for column in columns:
        if column.dtype == np.float64:
            column = column.view(np.int64)
        for j in range(column.shape[1]):
            rest &= column[1:, j] == column[:-1, j]
    return same


def _numbered(parts, first: int, count: int) -> str:
    """The text of rounds ``first`` to ``first + count - 1``, each
    ``str(t).join(parts)``.  From ``_FILL_ROUNDS`` rounds on, the rounds of
    one digit count are one uint8 array: the template row repeated, with the
    digit columns filled in at once."""
    if count < _FILL_ROUNDS:
        return "".join([str(t).join(parts) for t in range(first, first + count)])
    parts = [p.encode() for p in parts]
    text = []
    while count > 0:
        d = len(str(first))
        k = min(count, 10 ** d - first)
        row = np.frombuffer((b"0" * d).join(parts), np.uint8)
        rows = np.empty((k, len(row)), np.uint8)
        rows[:] = row
        digits = np.arange(first, first + k)[:, None] // _POWERS_OF_TEN[-d:]
        digits %= 10
        digits += 48
        at = len(parts[0])
        for part in parts[1:]:
            rows[:, at:at + d] = digits
            at += d + len(part)
        text.append(rows.tobytes().decode())
        first, count = first + k, count - k
    return "".join(text)


def _trace_lines(row, updated, n: int) -> List[str]:
    """One round's CSV lines without their leading round number."""
    gaps, kkt, l2, l1, value = _trace_fields(row, n)
    kkt, value = _fmt(kkt), _fmt(value)
    lines = [",".join((str(i), _fmt(gap), kkt, _fmt(l2[i]), _fmt(l1[i]), value,
                       "1" if updated[i] else "0"))
             for i, gap in enumerate(gaps)]
    lines.append(",".join(("-1", _fmt(max(gaps)), kkt, _fmt(max(l2)), _fmt(max(l1)), value,
                           str(sum(updated)))))
    return lines


class _RoundsWriter:
    """The text of a run's rounds, fed chunk by chunk in round order.

    ``_parts`` gives the text of each round whose rows are new, split at its
    round numbers: the first of each ``_CHUNK_ROWS`` rows, and each with
    other bits than the round before.  A repeated round reuses that text
    under its own number, and a stretch of them goes out as ``_numbered``
    text, in writes of up to ``_BATCH_BYTES``.  ``fh`` is an open text file.
    """

    def __init__(self, fh):
        self._fh = fh

    def _write(self, columns, first: int, rounds: int) -> None:
        """Write rounds ``first`` to ``first + rounds - 1``, whose rows are
        those of the (rounds, width) ``columns``."""
        for start, stop in _chunks(rounds):
            chunk = [c[start:stop] for c in columns]
            new = np.flatnonzero(~_repeats(chunk))
            # each new row opens the rounds that share its text
            bounds = [first + start + a for a in (*new.tolist(), stop - start)]
            texts = self._parts([c[new].tolist() for c in chunk])
            for a, b, parts in zip(bounds, bounds[1:], texts):
                if b - a == 1:
                    self._fh.write(str(a).join(parts))
                    continue
                # the longest round number sets the bytes of a round
                size = (len(parts) - 1) * len(str(b - 1)) + sum(map(len, parts))
                batch = max(1, _BATCH_BYTES // size)
                for lo in range(a, b, batch):
                    self._fh.write(_numbered(parts, lo, min(batch, b - lo)))


class TraceCsvWriter(_RoundsWriter):
    """The trace CSV of a run fed chunk by chunk, in round order.

    One row per (round, player) plus a summary row with player -1.  The
    summary aggregates: max gap, the round's kkt gap, max norms, the round's
    value, and the number of updated players.  The header is written on
    construction; a write takes ``Traces`` whose ``rounds`` are a step-1
    ``range``.
    """

    def __init__(self, fh):
        super().__init__(fh)
        fh.write(TRACE_HEADER + "\n")

    def write(self, traces: Traces) -> None:
        rounds = traces.rounds
        if not (isinstance(rounds, range) and rounds.step == 1):
            raise ValueError(f"the rounds of a trace write must be a step-1 range, "
                             f"not {rounds!r}")
        self._write((traces.columns, traces.updated), rounds.start, len(rounds))

    @staticmethod
    def _parts(rows):
        return [["", *("," + line + "\n" for line in _trace_lines(row, flags, len(flags)))]
                for row, flags in zip(*rows)]


class StrategiesJsonlWriter(_RoundsWriter):
    """The strategies JSONL of a run fed chunk by chunk, in round order.

    One line per round, ``json.dumps({"round": t, "blocks": ...})``: the
    strategies entering round t, all blocks, numbered from 1 on across the
    chunks.
    """

    def __init__(self, fh):
        super().__init__(fh)
        self._rounds = 0

    def write(self, history: PlayHistory) -> None:
        self._write(history.strategies.blocks, self._rounds + 1, history.rounds)
        self._rounds += history.rounds

    @staticmethod
    def _parts(rows):
        return [['{"round": ', ', "blocks": %s}\n' % json.dumps(profile)]
                for profile in zip(*rows)]


def write_trace_csv(traces: Traces, path) -> None:
    """The whole trace as ``TraceCsvWriter`` writes it, to ``path``."""
    with open(path, "w") as fh:
        TraceCsvWriter(fh).write(traces)


def write_strategies_jsonl(history: PlayHistory, path) -> None:
    """The whole history as ``StrategiesJsonlWriter`` writes it, to ``path``."""
    with open(path, "w") as fh:
        StrategiesJsonlWriter(fh).write(history)


def iter_strategies_jsonl(path):
    """Per-round profiles from the writer's format, as ``Rounds`` chunks of
    ``_CHUNK_ROWS`` lines in order, the last one shorter.

    The file is UTF-8 bytes, and a line ends in ``\\n``.  The ``t``-th
    non-blank line must hold round ``t``, finite entries, and the block
    count and sizes of the first line; a bad line names its number.  A chunk
    is yielded once its lines are read, so an error in a later line comes
    after it.  A line that differs from the line before only in its round
    number parses to the same blocks: the chunk holds those blocks as one
    row with the count of lines that read them, and is expanded once, when
    it is yielded (``_stretch_columns``).  After ``_BULK_AFTER``
    such lines in a row, the reader reads the bytes of as many more lines as
    fit in ``_BATCH_BYTES`` at once and compares them with those lines'
    ``_numbered`` text, each ending as the line before did; on a miss it
    seeks back and reads on line by line.
    """
    size = _CHUNK_ROWS
    first = None  # the first line's number and block sizes
    # the chunk so far, one row per parsed line and its count of lines, and
    # the last parsed line's blocks as bytes
    buffers, counts, blocks = [], array("q"), ()

    def add(lines):
        """Append the last parsed line's blocks as one row read ``lines`` times."""
        for b, x in zip(buffers, blocks):
            b.frombytes(x)
        counts.append(lines)

    rest = None  # that line's bytes after its round, when the next line may repeat it
    t = done = line_no = 0  # the lines read, those appended to a chunk, and the file's lines
    run = 0  # the lines in a row that repeat the last parsed one
    with open(path, "rb") as fh:
        for raw in fh:
            line_no += 1
            line = raw.strip()
            if not line:
                continue
            t += 1
            head = b'{"round": %d, ' % t
            if rest is not None and line == head + rest:
                run += 1
                if run >= _BULK_AFTER and t % size:
                    # the next k lines as the writer writes them, each ending
                    # as this one did; on a miss, they are read line by line
                    k = max(1, min(size - t % size, _BATCH_BYTES // (len(line) + 2)))
                    tail = (b", " + rest + raw[len(raw.rstrip()):]).decode()
                    repeats = _numbered(['{"round": ', tail], t + 1, k).encode()
                    at = fh.tell()
                    if fh.read(len(repeats)) == repeats:
                        t, line_no = t + k, line_no + k
                    else:
                        fh.seek(at)
                        run = 0
            else:
                run = 0
                # the lines since the last append repeat the last parsed one
                if t - 1 > done:
                    add(t - 1 - done)
                done = t - 1
                try:
                    text = line.decode()
                    doc = json.loads(text)
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: not valid JSON ({exc})") from exc
                profile = doc.get("blocks") if isinstance(doc, dict) else None
                if not isinstance(profile, list):
                    raise ValueError(
                        f"{path}:{line_no}: expected an object with a 'blocks' list")
                got = doc.get("round")
                if type(got) is not int or got != t:
                    raise ValueError(
                        f"{path}:{line_no}: round {json.dumps(got)}, expected {t}")
                if not all(isinstance(b, list) for b in profile):
                    raise ValueError(
                        f"{path}:{line_no}: blocks are not numeric (each must be a list)")
                try:
                    profile = [array("d", b) for b in profile]
                except (TypeError, OverflowError) as exc:
                    raise ValueError(
                        f"{path}:{line_no}: blocks are not numeric ({exc})") from exc
                sizes = [len(x) for x in profile]
                if first is None:
                    if not sizes or not all(sizes):
                        raise ValueError(
                            f"{path}:{line_no}: expected non-empty blocks, got sizes {sizes}")
                    first = (line_no, sizes)
                    buffers = [array("d") for _ in sizes]
                elif sizes != first[1]:
                    raise ValueError(f"{path}:{line_no}: block sizes {sizes} differ from "
                                     f"line {first[0]}'s {first[1]}")
                # an entry that is not finite is spelled NaN or Infinity,
                # or overflows, which takes an exponent or 309 digits;
                # finite entries have a finite sum unless it overflows
                if (("N" in text or "I" in text or "e" in text or "E" in text
                     or len(text) > 308)
                        and not (math.isfinite(sum(map(sum, profile)))
                                 or all(math.isfinite(v) for x in profile for v in x))):
                    raise ValueError(f"{path}:{line_no}: blocks are not finite")
                blocks = [x.tobytes() for x in profile]
                # the next line may reuse these blocks only when this text
                # after the round holds no key but "blocks", so that with
                # the next round before it the line parses to that round
                rest = line[len(head):]
                if not line.startswith(head) or rest.count(b'"') != 2:
                    rest = None
            if t % size == 0:
                add(t - done)
                done = t
                yield Rounds(_stretch_columns(buffers, first[1], counts))
                buffers, counts = [array("d") for _ in first[1]], array("q")
    if t % size:
        add(t - done)
        yield Rounds(_stretch_columns(buffers, first[1], counts))


def read_strategies_jsonl(path) -> Rounds:
    """The chunks of ``iter_strategies_jsonl`` stacked into one ``Rounds`` of
    read-only per-block columns."""
    columns = [np.concatenate(parts) for parts in
               zip(*(chunk.blocks for chunk in iter_strategies_jsonl(path)))]
    for column in columns:
        column.flags.writeable = False
    return Rounds(columns)
