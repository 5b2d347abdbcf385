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
when it is the kernel's own.  The pair folds the tensor that blocks and
the value share against the last block's strategy once per bits of it, so a
round of a 3-block multilinear objective whose first two axes hold a
multiple of 4 rows reads its potential twice, not four times; the other
blocks fold axis-moved copies made once per run and dropped with it.  Any
other gradient or value callable, a wrapped or rescaled one included, is
called per call.  ``replay_cce`` replays a recording once for any number of
checkpoints, and folds a recorded profile only where its bits differ from
the round before.

A round's folds of one profile are one call, the pair's ``folds``: at the
end of a round it gives the round's value and what the next round observes
at the same profile, every block's gradient under the simultaneous scheme
and block 0's under the alternating ones.  ``replay_cce`` folds each
recorded profile, and ``rmkit run`` the final one, the same way.  Each of
them owns a ``games.Lane``, a second thread that starts at its first task
and is joined when the run or the replay ends, however it ends.  ``folds``
hands the lane about half of the full-tensor folds that are due once those
read at least ``games._LANE_ENTRIES`` tensor entries in all, and keeps
every fold that makes or reads the shared partial on one lane.  A fold is
the same single-threaded call on the same inputs on either thread, so a
record has the bits of a serial run.  On a 3 x 64 game a simultaneous
round's four folds take about 0.35 ms on one thread and 0.20 ms on two (a
2-core VM); the hard instances and every game under the gate never start
the thread.  A gradient or value callable that is not the kernel's runs on
the caller's thread only, and so does everything else in the run.

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
Otherwise, for rm, the regrets move by the same g each round, and
``_repeat_add`` gives the bits of k sequential ``r + g`` at the cost of the
binades the sums cross, not of the rounds.  Such a stretch opens only where
the stepped round's own regrets already hold play: every free entry's
positive part is +0.0 (every entry but j at a pure e_j) and the played
entry is finite.  At e_j, ``x @ u`` is exactly u_j, so g_j is a zero and the
held regret keeps its bits, and the free entries stay at +0.0 up to the
round that would move play, which is stepped.  So a jumped round has the
stepped round's l1 and l2 norms too: a jumped stretch is its trace row
repeated k times.  The same walk over the binades finds the round that
would move play; ``_rm_look_ahead`` gives the argument.

``run`` is one loop.  Each stepped round appends one row to the record, and
a jumped stretch adds its k rounds to that row whatever k is: one look-ahead
finds the whole stretch, up to the round that moves play or the round
limit.  ``progress`` is called at every multiple of ``PROGRESS_EVERY`` the
rounds reach, in order, so the calls for a jumped stretch come in bursts,
not at the pace of the rounds.

Everything else steps and observes every round: drm+ and the lazy scheme
step each round, and a gradient callable that is not the kernel or a value
that is not the kernel's own is called, and the gradient checked, every
round; beside such a value the kernel's hoisted gradient, too, observes
every round.  That per-round loop is the reference that the reuse and the
jump are tested against, bit for bit.  The limit keeps a large tensor on it:
up to the limit a round's folds cost about what the loop's own work costs,
but past it they are most of a round, and skipping them would make a run's
time follow the round at which its play settles.  500 rounds of simultaneous
rm+ on seeded 3 x 64 potential games took 0.01-0.24 s by seed with the
reuse, against 0.21-0.25 s with every round folded (seeds 1-10, as a game
and as an objective, folding on two lanes, on a 2-core VM).

The record a run returns is float64 columns, not per-round objects: per
block the entering strategies and the observed gradients (``Rounds``), and
one block of trace columns plus one of updated flags (``Traces``), one row
per stretch of rounds, a stepped round or a stepped round and the jumped
stretch that repeats it, and one int64 ``counts`` of the rounds of each
row, shared by all of them.  The run appends each stepped round's bytes to
``array.array`` buffers and adds a jumped stretch's k rounds to its row's
count, so nothing is sized by ``max_rounds``, and hands the columns over as
read-only views of the buffers' memory, which copy nothing.  Where the
rounds jump, the record costs per stretch, not per round: the padded m=6
walk to 10^7 rounds is 63 rows of 298 B.  Indexing, ``len`` and ``==`` go
by round without expanding a stretch, and build lists of block rows and
``TraceRecord``s on access; ``expanded`` gives one row per round.

Given a ``sink``, the run hands the record over as it goes, in the same
layout.  It calls ``sink(history, traces)`` with each ``_CHUNK_ROWS`` rows,
once the next stretch opens, and once more with the rows left when the run
ends, so each chunk that ends before round t reaches the sink before
``progress(t)``.  The chunk is a ``PlayHistory`` and a ``Traces`` with
``traces.rounds`` numbering the rounds it covers; the run never writes
those arrays again, so the sink may keep them, and a kept record is the
chunks' rows and counts concatenated.  The result's record is then empty;
its round count, stop reason and final states are those of the same run
without a sink.

A recording is read back the same way: ``iter_strategies_jsonl`` yields it
as ``Rounds`` chunks of ``_CHUNK_ROWS`` stretches of lines that repeat the
line before but for the round number, each one row and a count.  The
writers (``TraceCsvWriter``, ``StrategiesJsonlWriter``), ``replay_cce``
and ``hard_instances.PhaseTracker`` take chunks in round order, from the
reader or from a sink, and take their rows as they come: the writers
format a row once and write its rounds as ``_numbered`` bytes, the replay
folds a row once and adds it k times through ``_repeat_add``, and the
tracker checks a row's supports once and places an onset at a stretch's
first round.  None of them expands a stretch, and each merges a run of rows
with equal bits into one stretch first, so a record of a row per round
goes the same way.  Only running sums, onsets, dropped action sets,
violations and round counters cross a chunk edge, so no output depends on
where the chunks end.  ``write_trace_csv``, ``write_strategies_jsonl``,
``read_strategies_jsonl`` and ``cce_gaps`` are the writers, the reader and
the replay fed, or giving, one whole record.

Only the bytes of the two per-round outputs follow the rounds, and they too
are built per stretch.  For each stretch and each digit count of its round
numbers, ``_numbered`` fills one buffer of at most ``_BATCH_BYTES`` with the
stretch's row text and the low digits of its round numbers, and each piece
of the buffer then rewrites only the higher digits.  The writers take
binary files and write those pieces as they are, with no decode and no
encode.  The reader reads the file's bytes through one handle and compares
the lines ahead, a piece at a time, with the pieces ``_numbered`` gives for
the rounds to come; at a piece that differs it takes the whole lines before
the first differing byte and reads on line by line.
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
from .games import BlockGradients, GameSpec, Lane, _check_profile, utility_vector
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _columns(buffers: list, widths) -> List[np.ndarray]:
    """The rows appended to each of ``buffers`` as read-only C-contiguous
    (rows, width) views of its memory, float64, or bool for an
    ``array("b")``; a buffer cannot grow any more while a view lives."""
    return [_read_only(np.frombuffer(b, np.bool_ if b.typecode == "b" else np.float64)
                       .reshape(-1, width))
            for b, width in zip(buffers, widths)]


class _Stretched(Sequence):
    """Rows that each stand for a stretch of ``counts[j]`` rounds with the
    bits of row j, ``counts`` an int64 array with one entry per row; a
    record built one row per round gets ones.  ``len`` and indexing go by
    round."""

    def _stretch(self, rows: int, counts) -> None:
        self.counts = _read_only(np.ones(rows, np.int64)) if counts is None else counts
        self._ends = None
        self._rounds = int(self.counts.sum())

    def __len__(self) -> int:
        return self._rounds

    @property
    def ends(self) -> np.ndarray:
        """Per row, the rounds from the first row's to the end of its own
        stretch: ``cumsum(counts)``, computed on first use."""
        if self._ends is None:
            self._ends = _read_only(np.cumsum(self.counts))
        return self._ends

    @property
    def starts(self) -> np.ndarray:
        """Per row, the rounds before its stretch: ``ends - counts``."""
        return self.ends - self.counts

    def _rows(self, t):
        """The row of round index ``t`` (an IndexError past the end), or for
        a slice ``(rows, counts)``: for a step-1 slice of stretches the rows
        its rounds fall in, the first and last count cut to them, and for
        any other slice one row per round of it, found without expanding the
        others, and no counts."""
        if not isinstance(t, slice):
            return int(np.searchsorted(self.ends, range(self._rounds)[t], side="right"))
        a, b, step = t.indices(self._rounds)
        if step != 1:
            return np.searchsorted(self.ends, range(a, b, step), side="right"), None
        if b <= a:
            return slice(0, 0), _read_only(self.counts[:0].copy())
        first, last = np.searchsorted(self.ends, [a, b - 1], side="right").tolist()
        counts = self.counts[first:last + 1].copy()
        counts[0] -= a - (self.ends[first] - self.counts[first])
        counts[-1] -= self.ends[last] - b
        return slice(first, last + 1), _read_only(counts)

    def _paired(self, other: "_Stretched"):
        """``(rows, other's rows, counts)`` of two sides over the same
        rounds: per piece of their stretches cut at each other's ends, the
        row of each side that it falls in, and its rounds.  It costs per
        row, not per round."""
        ends = np.union1d(self.ends, other.ends)
        return (np.searchsorted(self.ends, ends), np.searchsorted(other.ends, ends),
                np.diff(ends, prepend=0))

    def _expand(self, rows: np.ndarray) -> np.ndarray:
        return _read_only(np.repeat(rows, self.counts, axis=0))


class Rounds(_Stretched):
    """Per-round profiles over per-block columns.

    ``blocks[i]`` is a (rows, m_i) float64 array, read-only in a record,
    one row per stretch of rounds with the stretch's rounds in ``counts``,
    as a run keeps them, a sink gets a chunk and ``iter_strategies_jsonl``
    yields one; without ``counts``, a row is one round.  Indexing a round
    gives the list of its block rows (views), a step-1 slice another
    ``Rounds`` of the stretches of its rounds, any other slice one of a row
    per round, and ``expanded`` all of it so.  ``==`` cuts both sides'
    stretches at each other's ends and compares one row pair per piece
    (``_paired``), never round by round.
    """

    def __init__(self, blocks=(), counts=None):
        self.blocks = list(blocks)
        self._stretch(len(self.blocks[0]) if self.blocks else 0, counts)

    def __getitem__(self, t):
        if isinstance(t, slice):
            rows, counts = self._rows(t)
            return Rounds([b[rows] for b in self.blocks], counts)
        rows = self._rows(t)  # the IndexError past the end stops iteration
        return [b[rows] for b in self.blocks]

    def expanded(self) -> "Rounds":
        """These rounds with one row each: ``self`` when its rows are."""
        return self if len(self.counts) == len(self) else Rounds(map(self._expand, self.blocks))

    def __eq__(self, other):
        if isinstance(other, Rounds):
            if len(self) != len(other) or len(self.blocks) != len(other.blocks):
                return False
            rows, others, _ = self._paired(other)
            return all(np.array_equal(a[rows], b[others])
                       for a, b in zip(self.blocks, other.blocks))
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
            for a, b in zip(self, other))


def _trace_fields(row, n: int):
    """(gaps, kkt gap, l2 norms, l1 norms, value) of one trace row as a list."""
    return row[:n], row[n], row[n + 1 : 2 * n + 1], row[2 * n + 1 : 3 * n + 1], row[3 * n + 1]


class Traces(_Stretched):
    """Per-round trace over one float64 column block and one bool block.

    The float block holds, per row, the n gaps, the kkt gap, the n regret
    l2 norms, the n l1 norms and the value; the bool block the n updated
    flags.  A row is a stretch of rounds, as ``Rounds`` has them.  Indexing
    a round builds a ``TraceRecord``; the attributes of the same names are
    the columns, read whole.  ``rounds`` numbers the rounds, 1, 2, ... by
    default; ``TraceCsvWriter`` takes only a step-1 ``range``, so that it
    can number the rounds of a write from the first one.
    """

    def __init__(self, columns, updated, rounds=None, counts=None):
        self.columns = columns
        self.updated = updated
        self._stretch(len(columns), counts)
        self.rounds = range(1, len(self) + 1) if rounds is None else rounds
        self._n = updated.shape[1]
        gaps, kkt, l2, l1, value = _trace_fields(columns.T, self._n)
        self.br_gaps, self.kkt_gap, self.value = gaps.T, kkt, value
        self.regret_l2, self.regret_l1 = l2.T, l1.T

    def __getitem__(self, t):
        if isinstance(t, slice):
            rows, counts = self._rows(t)
            return Traces(self.columns[rows], self.updated[rows], self.rounds[t], counts)
        row = self._rows(t)
        gaps, kkt, l2, l1, value = _trace_fields(self.columns[row].tolist(), self._n)
        return TraceRecord(self.rounds[t], gaps, kkt, l2, l1, value, self.updated[row].tolist())

    def expanded(self) -> "Traces":
        """This trace with one row per round: ``self`` when its rows are."""
        if len(self.counts) == len(self):
            return self
        return Traces(self._expand(self.columns), self._expand(self.updated), self.rounds)

    def __eq__(self, other):
        if isinstance(other, Traces):
            if len(self) != len(other) or self.rounds != other.rounds:
                return False
            rows, others, _ = self._paired(other)
            # whole columns, so that the nan values of a game without a
            # potential compare equal when the runs are
            return (np.array_equal(self.updated[rows], other.updated[others])
                    and np.array_equal(self.columns[rows], other.columns[others],
                                       equal_nan=True))
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass
class PlayHistory:
    """Strategies entering each round and the utilities each block observed,
    as ``Rounds`` columns, which share one ``counts`` in a run's record;
    ``utilities`` is ``None`` for a recording that kept none."""

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


def _gradient_and_value(target, lane=None):
    """``(block sizes, gradient, folds, folded)``: ``folds(profile, blocks)``
    gives ``gradient(profile, i)`` for each block in ``blocks`` and the value
    at ``profile``; ``folded`` says both come from the kernel's hoisted pair,
    so both are functions of the profile alone, and only then may ``folds``
    hand folds to ``lane``."""
    # a gradient kernel moves its axes once, here, and the copies end with the run
    if isinstance(target, GameSpec):
        grad, folds = BlockGradients(target.utilities, target.potential).hoisted(lane)
        return tuple(target.action_counts), grad, folds, True
    if isinstance(target, ObjectiveHandle):
        sizes, grad, value = tuple(target.domain.block_sizes), target.block_gradient, target.value
        if isinstance(grad, BlockGradients):
            # the kernel's gradient is hoisted; its value only when it is the
            # kernel's own, for any other value is called as given
            if value == grad.value:
                return (sizes, *grad.hoisted(lane), True)
            grad = grad.hoisted()[0]

        def folds(profile, blocks):
            return [grad(profile, i) for i in blocks], value(profile)

        return sizes, grad, folds, False
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

# rows per chunk: the stretches ``run`` hands a sink at once and
# ``iter_strategies_jsonl`` yields at once, and the rows the writers and the
# cce replay turn into Python objects or running sums at once, so that
# nothing holds every stretch of a long run
_CHUNK_ROWS = 4096

# the most profiles (tensor entries) for which a repeated round reuses the
# kernel's observations and value, and repeated rounds are jumped: up to
# 16^3, a round's folds take 10-30 us on a 2-core VM, about the loop's own
# work, and a 3 x 64 game's take 0.35 ms, 0.20 ms on two lanes
_REUSE_ENTRIES = 4096

# the bytes of ``_numbered``'s buffer, which it builds once per stretch and
# digit count: at most this many bytes of repeated CSV rounds or JSONL lines
# go to one write, and the JSONL reader checks at most this many at once
# (about 640 lines of the m=6 walk)
_BATCH_BYTES = 1 << 16

# below this many rounds of one digit count, joining each round's bytes
# beats building ``_numbered``'s buffer: with timeit on a hard_walk CSV row
# and JSONL line (2-core VM), the buffer takes 13-16 us for 1 to 10 rounds
# against the join's 2-5 us, and the two cross at 70-85 rounds
_FILL_ROUNDS = 80

# the JSONL reader checks repeated lines in bulk once this many in a row
# passed line by line, reading at most ``_BATCH_BYTES`` at a time
_BULK_AFTER = 64

# a significand in units of its binade's spacing is below 2^53, and
# ``_repeat_add`` covers steps that land from 2^52 + 1 on, so that each
# sum is exact and rounds in the binade it lands in
_TOP = (1 << 53) - 1
_LOW = (1 << 52) + 1
_TINY = math.ulp(0.0)  # 2^-1074: the spacing of every double below 2^-1021


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


def _repeat_add(r: float, g: float, k: int, until_positive: bool = False):
    """``(s, j)``: s has the bits of j sequential ``r += g`` in float64, and
    j is k, or, with ``until_positive``, the adds before the first sum
    above 0 when that comes sooner.

    Let u be the spacing of the binade that r is in.  While the sums stay
    in it, fl(r + g) - r is the constant D u with D = round(g / u), so with
    r = N u the sums are (N + j D) u, covered at once in integers.  A tie,
    where g / u is a half-integer, rounds to the even N + j D, so D is fixed
    only once N is even: an odd N takes one real add, which leaves it even.
    Below 2^-1021 the spacing is 2^-1074 on both sides of zero and every
    sum is exact, so there a walk may cross zero in integers too.  A step
    that would land on a binade's edge or past it, or on another sign, is
    one real add, as is the first add from each binade.  A D of 0 is a
    stall: r keeps its bits for good.  So the walk costs a few adds per
    binade the sums cross, not one per round.
    """
    j = 0
    while j < k:
        s = r + g
        if until_positive and s > 0.0:
            return r, j
        if s == r and math.copysign(1.0, s) == math.copysign(1.0, r):
            return r, k
        r, j = s, j + 1
        if not math.isfinite(r):
            return r, k  # every later add keeps an inf or nan sum's bits
        u = math.ulp(r)
        if not abs(g) < u * 2.0 ** 53:
            continue  # one add leaves the binade
        N, q = int(r / u), g / u
        D = round(q)
        if abs(D - q) == 0.5:
            if N % 2:
                continue
            D = math.floor(q)
            D += D % 2
        lo, hi = (-_TOP, _TOP) if u == _TINY else (_LOW, _TOP) if N > 0 else (-_TOP, -_LOW)
        if not lo <= N <= hi:
            continue
        if D == 0:
            return r, k
        J = (hi - N) // D if D > 0 else (N - lo) // -D
        if until_positive and D > 0:
            J = min(J, -N // D)
        J = min(J, k - j)
        if J > 0:
            r, j = (N + J * D) * u, j + J
    return r, j


def _repeat_row(total: np.ndarray, row: np.ndarray, k: int) -> np.ndarray:
    """``total`` after ``k`` sequential ``total += row``, with their bits."""
    return np.array([_repeat_add(a, b, k)[0] for a, b in zip(total.tolist(), row.tolist())])


def _rm_look_ahead(regrets, steps, free, k: int):
    """How many of the next ``k`` rm rounds of a stretch keep play, and the
    regrets after the last of them.

    A block's regrets after j rounds are j sequential adds of g to r, which
    ``_repeat_add`` gives with their bits.  A stretch opens or goes on only
    where every free entry's positive part is +0.0, so each free regret r_e
    is at most 0.  A free entry with g_e <= 0 has every sum at most r_e <=
    0: it never moves play and never reaches +inf, and a -0.0 sum comes only
    from -0.0 + -0.0, so it was there at the opening, which accepted it
    (``np.maximum(-0.0, 0.0)`` is +0.0).  The held entry j has g_j a zero,
    so its sum keeps its finite value.  A free entry with g_e > 0 has sums
    that never decrease, since fl(s + g) >= s and no sum is NaN, so its
    positive part turns nonzero at its first sum above 0: the exit of its
    walk.  The stretch ends before the first such round over the free
    entries with g_e > 0, each walked up to the least exit so far.

    Returns the count of covered rounds, and per block the regrets after the
    last one (``regrets`` when none is covered).
    """
    for r, g, f in zip(regrets, steps, free):
        for e in np.flatnonzero(f & (g > 0.0)).tolist():
            k = _repeat_add(float(r[e]), float(g[e]), k, until_positive=True)[1]
    if not k:
        return 0, regrets
    return k, [np.array([_repeat_add(a, b, k)[0] for a, b in zip(r.tolist(), g.tolist())])
               for r, g in zip(regrets, steps)]


def run(
    target,
    config: RunConfig,
    progress: Optional[Callable] = None,
    sink: Optional[Callable] = None,
) -> RunResult:
    """Drive the configured learners on a game or objective.

    ``progress`` is called with the round number every ``PROGRESS_EVERY``
    rounds, in order; the calls for a jumped stretch come together.
    ``sink``, when given, is called as ``sink(history, traces)`` with every
    ``_CHUNK_ROWS`` stretches of the record, as rows and their counts, in
    round order once the next stretch opens, and with the stretches left
    over when the run ends; the result then keeps an empty record (see the
    module docstring).  A lane the run starts for its folds ends with it.
    """
    with Lane() as lane:
        return _run(target, config, progress, sink, lane)


def _run(target, config: RunConfig, progress, sink, lane: Lane) -> RunResult:
    sizes, grad, folds, folded = _gradient_and_value(target, lane)
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
    # stretches, not stepped
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

    # the blocks that observe the profile a round enters with, and what they
    # observe there when the round before folded it with its value
    first = range(n) if simultaneous else range(1)
    ahead = [None] * n

    def observe(i):
        # a block gradient is outside input: check it every round
        u, ahead[i] = ahead[i], None
        u = np.asarray(grad(profile, i) if u is None else u, dtype=np.float64)
        if u.shape != shapes[i]:
            raise ValueError(f"block {i} gradient has shape {u.shape}, want {shapes[i]}")
        if not np.isfinite(u).all():
            raise ValueError(f"block {i} gradient has non-finite entries")
        return u

    # The record: per block the entering strategies and the observed
    # gradients, the trace rows and the updated flags, as raw bytes, one row
    # per stretch, and its count of rounds in ``counts``.  With a sink, the
    # buffers are handed over and replaced by empty ones whenever they hold
    # ``_CHUNK_ROWS`` rows and the next stretch opens.
    def empty():
        return [array("d") for _ in range(2 * n + 1)] + [array("b")], array("q")

    buffers, counts = empty()
    widths = [*sizes, *sizes, 3 * n + 2, n]
    trace_row = struct.Struct(f"{3 * n + 2}d").pack
    stop_reason = "max_rounds"
    t = 0  # the rounds appended
    handed = 0  # the rounds handed to the sink

    def record():
        """The buffered rounds, ``handed + 1`` to ``t``, as (history,
        traces); the buffers start empty again."""
        nonlocal buffers, counts, handed
        columns = _columns(buffers, widths)
        stretches = _read_only(np.frombuffer(counts, np.int64))
        buffers, counts = empty()
        rounds, handed = range(handed + 1, t + 1), t
        return (PlayHistory(config.scheme, Rounds(columns[:n], stretches),
                            Rounds(columns[n:2 * n], stretches)),
                Traces(columns[-2], columns[-1], rounds, stretches))

    def advance(k):
        """Count ``k`` more rounds, calling ``progress`` at each multiple of
        ``PROGRESS_EVERY`` they reach."""
        nonlocal t
        t += k
        if progress is not None:
            for p in range((t - k) // PROGRESS_EVERY * PROGRESS_EVERY + PROGRESS_EVERY, t + 1,
                           PROGRESS_EVERY):
                progress(p)

    def append():
        """Append the round stepped last, which entered ``entering``,
        observed ``observed``, set ``updated`` and traced ``row``, as a new
        row; a sink first gets a full chunk."""
        if sink is not None and len(counts) == _CHUNK_ROWS:
            sink(*record())
        counts.append(1)
        for i in range(n):
            buffers[i].frombytes(entering[i])
            buffers[n + i].frombytes(observed[i].tobytes())
        buffers[-2].frombytes(row)
        buffers[-1].frombytes(bytes(updated))
        advance(1)

    # each block's last observation (gradient, x @ u, gap) and the last value,
    # reused while the inputs they fold keep their bits (module docstring)
    observed, xus, gaps = [None] * n, [0.0] * n, [0.0] * n
    kept = False  # the round before left every block's strategy with its bits
    while t < config.max_rounds:
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

        stop = eps is not None and all(gap <= eps for gap in gaps)
        if t == 0 or not (reuse and kept):
            # one call folds the value and, unless the run ends or the next
            # round reuses this one's, what the next round observes first:
            # the profile it enters with is this one
            blocks = () if stop or t + 1 == config.max_rounds or reuse and kept else first
            us, v = folds(profile, blocks)
            ahead[:len(us)] = us
        row = trace_row(*gaps, float(sum(gaps)), *l2, *l1, v)
        append()
        if stop:
            stop_reason = "converged"
            break
        if jump and kept:
            # the rounds that repeat this one (module docstring): the rest of
            # the run at a fixed point, where the regrets kept their bits too;
            # else, for rm, a stretch opens only where the regrets already
            # hold play, and rm's regrets move by the same g each round up to
            # the round that moves play, which is stepped
            fixed = all(r.tobytes() == b.tobytes() for r, b in zip(regrets, before))
            if fixed or kind is ln.Kind.RM:
                free = [_free_entries(x) for x in profile]
                if fixed or not any(map(_moves, regrets, free)):
                    k = config.max_rounds - t
                    if not fixed:
                        k, regrets = _rm_look_ahead(regrets, steps, free, k)
                    if k:
                        counts[-1] += k
                        advance(k)

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


def _utilities(history: PlayHistory) -> Rounds:
    if history.utilities is None:
        raise ValueError("the history keeps no utilities")
    return history.utilities


def external_regret(history: PlayHistory, block: int, rounds: Optional[int] = None) -> float:
    """Best fixed action's advantage over the realized play, cumulated.

    Per piece of the strategies' and the utilities' stretches (``_paired``),
    the utilities and ``x @ u`` are one row that ``_stretch_sums`` adds once
    per round of it, so the sums have the bits of round-by-round adds from
    +0.0 and cost per stretch."""
    T = history.rounds if rounds is None else rounds
    utilities = _utilities(history)
    if not 0 < T <= history.rounds:
        raise ValueError(f"rounds must lie in 1..{history.rounds}")
    X, U = history.strategies[:T], utilities[:T]
    xs, us, counts = X._paired(U)
    x, u = X.blocks[block][xs], U.blocks[block][us]
    realized = [float(a @ b) for a, b in zip(x, u)]
    _, total = _stretch_sums(np.column_stack([u, realized]), counts, np.zeros(u.shape[1] + 1), ())
    return float(total[:-1].max() - total[-1])


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


def _stretch_sums(rows: np.ndarray, counts: np.ndarray, total: np.ndarray, at):
    """``(totals at, total)``: ``total`` after sequential ``total += rows[j]``,
    ``counts[j]`` times each in row order, read off after each count of
    adds in ``at`` (increasing, from 1), and after all of them.

    A run of rows of one round each is one ``_running_sums``, and a row of
    more rounds is ``_repeat_row``, so each total has the bits of the
    sequential adds, and the rounds a row stands for cost nothing."""
    at, out, done, a = list(at), [], 0, 0
    for j in [*np.flatnonzero(counts > 1).tolist(), len(counts)]:
        if j > a:
            sums = _running_sums(rows[a:j], total)
            while at and at[0] <= done + j - a:
                out.append(sums[at.pop(0) - done - 1])
            total, done = sums[-1], done + j - a
        if j == len(counts):
            break
        k = int(counts[j])
        while at and at[0] <= done + k:
            T = at.pop(0)
            total = _repeat_row(total, rows[j], T - done)
            out.append(total)
            k, done = k - (T - done), T
        total, done, a = _repeat_row(total, rows[j], k), done + k, j + 1
    return out, total


def replay_cce(game: GameSpec, chunks, checkpoints=None):
    """``(rounds, {T: cce gap})`` from one replay of ``Rounds`` chunks, fed in
    round order: the rounds fed, and the gap at each checkpoint up to them,
    or, when ``checkpoints`` is ``None``, at the last round.

    Every chunk is read, but rounds past the largest checkpoint are not
    folded.  The replay takes a chunk's rows ``_CHUNK_ROWS`` at a time,
    merges each run of rows with the bits of the row before into one
    stretch (``_runs``), folds each stretch's profile once and adds the
    folded row k times through ``_repeat_add`` (``_stretch_sums``).  Only
    the running sums cross from one slice to the next, so what it holds
    does not grow with the rounds, its cost follows the stretches, and the
    sums, sequential adds, do not depend on where a chunk or a stretch ends.
    """
    n = game.num_players
    wanted = None if checkpoints is None else sorted(set(checkpoints))
    last = None if checkpoints is None else max(checkpoints, default=0)
    gaps = {}
    # the running sums before the rounds to come, in one row: each block's
    # deviation sums, then the realized sums
    edges = np.cumsum([0, *game.action_counts]).tolist()
    blocks = list(zip(edges, edges[1:]))
    total = np.zeros(edges[-1] + n)

    def gap(sums, T):
        return max(float(sums[a:b].max() - sums[edges[-1] + i]) / T
                   for i, (a, b) in enumerate(blocks))

    with Lane() as lane:
        _, folds = BlockGradients(game.utilities).hoisted(lane)
        done = 0
        for chunk in chunks:
            if not done:
                # every round has the block sizes of the first, so one check covers them
                _check_profile(game.action_counts, [b[0] for b in chunk.blocks])
            # the rounds up to the largest checkpoint, the last stretch cut to them
            rounds = len(chunk)
            if last is not None and last - done < rounds:
                chunk = chunk[:max(last - done, 0)]
            at = done
            for start, stop in _chunks(len(chunk.blocks[0]) if chunk.blocks else 0):
                part = [b[start:stop] for b in chunk.blocks]
                # a profile with the bits of the one before folds to the same row,
                # so each stretch folds once (``_runs`` compares bits, unlike
                # ``==``, which equates -0.0 with 0.0 and never a nan with itself)
                first, stretches = _runs(part, chunk.counts[start:stop])
                folded = np.empty((len(first), len(total)))
                for row, t in enumerate(first.tolist()):
                    profile = [b[t] for b in part]
                    us, _ = folds(profile, range(n))
                    for i, ((a, b), u) in enumerate(zip(blocks, us)):
                        folded[row, a:b] = u
                        folded[row, edges[-1] + i] = profile[i] @ u
                end = at + int(stretches.sum())
                here = []
                while wanted and wanted[0] <= end:
                    here.append(wanted.pop(0))
                sums, total = _stretch_sums(folded, stretches, total, [T - at for T in here])
                gaps.update((T, gap(row, T)) for T, row in zip(here, sums))
                at = end
            done += rounds
    if checkpoints is None and done:
        gaps[done] = gap(total, done)
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


def _runs(columns, counts: np.ndarray):
    """``(first, rounds)``: the first row of each run of rows of the
    ``columns`` that repeat the bits of the row before, and the rounds each
    run stands for, summed from ``counts``, one per row."""
    first = np.flatnonzero(~_repeats(columns))
    return first, np.add.reduceat(counts, first)


def _numbered(parts, first: int, count: int):
    """The bytes of rounds ``first`` to ``first + count - 1``, each
    ``b"%d" % t`` joined into the bytes ``parts``, as ``(rounds, piece)``
    pairs in round order.  A piece holds whole rounds, at most
    ``_BATCH_BYTES`` of them unless one round is longer.

    The rounds of one digit count share a template: ``parts`` joined by that
    many zeros.  Below ``_FILL_ROUNDS`` of them, each round's bytes are
    joined; from there on ``_filled`` builds them in one buffer.
    """
    end = first + count
    while first < end:
        d = len(str(first))
        stop = min(end, 10 ** d)
        template = (b"0" * d).join(parts)
        size = max(1, min(stop - first, _BATCH_BYTES // len(template)))
        if stop - first < _FILL_ROUNDS:
            for lo in range(first, stop, size):
                hi = min(lo + size, stop)
                yield hi - lo, b"".join([(b"%d" % t).join(parts) for t in range(lo, hi)])
        else:
            yield from _filled(parts, template, d, first, stop, size)
        first = stop


def _filled(parts, template: bytes, d: int, first: int, stop: int, size: int):
    """``_numbered``'s pieces of rounds ``first`` to ``stop - 1``, all of d
    digits, at most ``size`` rounds each.

    One uint8 buffer holds n rows of the ``template``, n a multiple of the
    largest power of ten p up to ``size`` (or, when ``size`` rounds are all
    of them, n = ``size`` and p the next power of ten, at most 10^d), with
    the low log10(p) digits of each round filled in once: every piece starts
    at a round congruent to ``first`` modulo p, so those digits are the same
    in each.  A piece then rewrites only the high digits, one slice per p
    rows they stay on, and is a memoryview of the buffer, released when the
    next piece is taken, so that no piece keeps a buffer alive past its
    stretch.
    """
    whole = size == stop - first
    p = min(10 ** (len(str(size)) - (not whole)), 10 ** d)
    low, n, c = len(str(p)) - 1, size if whole else size // p * p, first % p
    at = []  # where each round number starts in a row
    for part in parts[:-1]:
        at.append(len(part) + (at[-1] + d if at else 0))
    buffer = np.empty(n * len(template), np.uint8)
    rows = buffer.reshape(n, -1)
    rows[:] = np.frombuffer(template, np.uint8)
    if low:
        # int32 holds them, for c + n < p + size <= 11 * _BATCH_BYTES
        digits = (np.arange(c, c + n, dtype=np.int32)[:, None]
                  // 10 ** np.arange(low - 1, -1, -1, dtype=np.int32))
        digits %= 10
        digits += 48
        for a in at:
            rows[:, a + d - low:a + d] = digits
    for s in range(first, stop, n):
        m = min(n, stop - s)
        # rows b - c to b - c + p - 1 are rounds s - c + b on, of one high part
        for b in range(0, m + c, p):
            high = np.frombuffer(b"%d" % ((s - c + b) // p), np.uint8)
            for a in at:
                rows[max(b - c, 0):b - c + p, a:a + d - low] = high
        with memoryview(buffer)[:m * len(template)] as piece:
            yield m, piece


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
    """The text of a run's rounds, fed chunk by chunk in round order, as
    bytes: ``fh`` is a binary file, such as ``open(path, "wb")`` gives.

    A chunk's rows are rounds or stretches of rounds.  ``_parts`` gives the
    text of each run of rows with equal bits (``_runs``), split at its round
    numbers, once per ``_CHUNK_ROWS`` rows, and each run's parts are encoded
    once.  A run of one round is written joined; the rounds of a longer run
    are the pieces, of up to ``_BATCH_BYTES``, that ``_numbered`` builds for
    the whole run from one buffer per digit count, each written as it is.
    """

    def __init__(self, fh):
        self._fh = fh

    def _write(self, columns, counts, first: int) -> None:
        """Write the rounds of the (rows, width) ``columns``, row j standing
        for ``counts[j]`` rounds, numbered from ``first``."""
        for start, stop in _chunks(len(columns[0]) if len(columns) else 0):
            chunk = [c[start:stop] for c in columns]
            new, runs = _runs(chunk, counts[start:stop])
            texts = self._parts([c[new].tolist() for c in chunk])
            for parts, k in zip(texts, runs.tolist()):
                parts = [part.encode() for part in parts]
                if k == 1:
                    self._fh.write((b"%d" % first).join(parts))
                else:
                    for _, piece in _numbered(parts, first, k):
                        self._fh.write(piece)
                first += k


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
        fh.write(TRACE_HEADER.encode() + b"\n")

    def write(self, traces: Traces) -> None:
        rounds = traces.rounds
        if not (isinstance(rounds, range) and rounds.step == 1):
            raise ValueError(f"the rounds of a trace write must be a step-1 range, "
                             f"not {rounds!r}")
        self._write((traces.columns, traces.updated), traces.counts, rounds.start)

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
        strategies = history.strategies
        self._write(strategies.blocks, strategies.counts, self._rounds + 1)
        self._rounds += len(strategies)

    @staticmethod
    def _parts(rows):
        return [['{"round": ', ', "blocks": %s}\n' % json.dumps(profile)]
                for profile in zip(*rows)]


def write_trace_csv(traces: Traces, path) -> None:
    """The whole trace as ``TraceCsvWriter`` writes it, to ``path``."""
    with open(path, "wb") as fh:
        TraceCsvWriter(fh).write(traces)


def write_strategies_jsonl(history: PlayHistory, path) -> None:
    """The whole history as ``StrategiesJsonlWriter`` writes it, to ``path``."""
    with open(path, "wb") as fh:
        StrategiesJsonlWriter(fh).write(history)


def _read_prefix(fh, piece) -> int:
    """Read up to ``len(piece)`` bytes of the binary ``fh``: how many of them
    from the start equal those of the buffer ``piece``."""
    # a bytearray compares with a buffer by memcmp, copying neither
    got = bytearray(len(piece))
    read = fh.readinto(got)
    if read == len(got) and got == piece:
        return read
    got, piece = np.frombuffer(got, np.uint8, read), np.frombuffer(piece, np.uint8, read)
    for i in range(0, read, 4096):  # no temporary longer than that
        diff = got[i:i + 4096] != piece[i:i + 4096]
        if diff.any():
            return i + int(diff.argmax())
    return read


def _read_numbered(fh, parts, first: int) -> int:
    """How many of the lines ahead in the binary ``fh`` are rounds ``first``
    on as ``_numbered`` gives them, compared a piece at a time for as many
    rounds as the file may hold; ``fh`` is left after those lines.  The
    piece that differs gives the whole lines before its first differing
    byte."""
    lines = 0
    for k, piece in _numbered(parts, first, 1 << 62):
        at = fh.tell()
        same = _read_prefix(fh, piece)
        if same < len(piece):
            size = len(piece) // k
            fh.seek(at + same // size * size)
            return lines + same // size
        lines += k
    return lines


def iter_strategies_jsonl(path):
    """Per-round profiles from the writer's format, as ``Rounds`` chunks of
    ``_CHUNK_ROWS`` stretches of lines in order, the last one shorter.

    The file is UTF-8 bytes, and a line ends in ``\\n``.  The ``t``-th
    non-blank line must hold round ``t``, finite entries, and the block
    count and sizes of the first line; a bad line names its number.  A line
    that differs from the line before only in its round number parses to
    the same blocks, so each run of such lines is one stretch: one row of a
    chunk, with the count of lines that read it in the chunk's ``counts``.
    A chunk is yielded once the line that opens the stretch after its last
    one is read, so an error in that line or a later one comes after it.
    After ``_BULK_AFTER`` repeated lines in a row, the reader compares the
    bytes ahead with the lines the writer would write for the rounds to
    come, each ending as the line before did: ``_numbered``'s pieces of up
    to ``_BATCH_BYTES``, built once per stretch and compared as bytes
    (``_read_numbered``).  At the first piece that differs it takes the
    whole lines before the first differing byte and reads on line by line.
    """
    first = None  # the first line's number and block sizes
    # the chunk so far, one row per stretch and its count of lines, and the
    # last parsed line's blocks as bytes
    buffers, counts, blocks = [], array("q"), ()

    def add(lines):
        """Append the last parsed line's blocks as one row read ``lines`` times."""
        for b, x in zip(buffers, blocks):
            b.frombytes(x)
        counts.append(lines)

    def chunk():
        return Rounds(_columns(buffers, first[1]), _read_only(np.frombuffer(counts, np.int64)))

    rest = None  # that line's bytes after its round, when the next line may repeat it
    t = done = line_no = 0  # the lines read, those in a stretch of the chunk, and the file's lines
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
                if run >= _BULK_AFTER:
                    # the lines ahead as the writer writes them, each ending
                    # as this one did, compared in bulk up to the first that
                    # differs, which is read line by line
                    tail = b", " + rest + raw[len(raw.rstrip()):]
                    k = _read_numbered(fh, [b'{"round": ', tail], t + 1)
                    t, line_no, run = t + k, line_no + k, 0
            else:
                run = 0
                # the lines since the last stretch repeat the last parsed one
                if t - 1 > done:
                    add(t - 1 - done)
                    done = t - 1
                    if len(counts) == _CHUNK_ROWS:
                        yield chunk()
                        buffers, counts = [array("d") for _ in first[1]], array("q")
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
    if t > done:
        add(t - done)
        yield chunk()


def read_strategies_jsonl(path) -> Rounds:
    """The chunks of ``iter_strategies_jsonl`` stacked into one ``Rounds``
    of read-only per-block columns, one row per round."""
    chunks = list(iter_strategies_jsonl(path))
    if not chunks:
        return Rounds()
    return Rounds([np.concatenate(rows) for rows in zip(*(c.blocks for c in chunks))],
                  np.concatenate([c.counts for c in chunks])).expanded()
