"""Finite normal-form games stored as dense utility tensors.

A game is a list of per-player tensors, one axis per player, stored
C-contiguous so that the memory layout of an input never changes the bits.
Potential games carry their potential tensor explicitly; the exactness of
the potential identity is checked exhaustively, never sampled.  Every
contraction goes through one kernel, ``fold``, which contracts a tensor's
trailing axes from the last one down: an expected utility vector folds the
player's tensor with its own axis moved to the front, a multilinear value
folds every axis.  ``BlockGradients`` moves the axes for block gradients:
per call for one-off callers, once per run for a round loop, which also
folds a shared tensor's last axis once for its blocks and the value, and on
a large tensor runs about half of a profile's folds on a ``Lane``, a second
thread, with the bits of one.
Contracting in a fixed order keeps runs reproducible and makes equal inputs
give bitwise-equal outputs on permutation-symmetric tensors, which the
symmetric-game diagnostics rely on.
"""

from __future__ import annotations

import json
import queue
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .learners import Vector

TAG_IDENTICAL = "identical_interest"
TAG_POTENTIAL = "potential"
TAG_SYMMETRIC = "symmetric"

POTENTIAL_TOL = 1e-12


@dataclass
class GameSpec:
    action_counts: tuple
    utilities: list  # one ndarray of shape action_counts per player
    potential: Optional[np.ndarray] = None
    tags: frozenset = field(default_factory=frozenset)

    @property
    def num_players(self) -> int:
        return len(self.action_counts)

    def __post_init__(self):
        self.action_counts = tuple(int(m) for m in self.action_counts)
        if not self.action_counts:
            raise ValueError("a game needs at least one player")
        if any(m < 1 for m in self.action_counts):
            raise ValueError(f"action counts must be positive, got {self.action_counts}")
        if len(self.utilities) != self.num_players:
            raise ValueError(
                f"{len(self.utilities)} utility tensors for {self.num_players} players"
            )
        self.utilities = [np.ascontiguousarray(u, dtype=np.float64) for u in self.utilities]
        for i, u in enumerate(self.utilities):
            if u.shape != self.action_counts:
                raise ValueError(f"utility tensor {i} has shape {u.shape}, want {self.action_counts}")
            if not np.all(np.isfinite(u)):
                raise ValueError(f"utility tensor {i} has non-finite entries")
        self.tags = frozenset(self.tags)
        if TAG_IDENTICAL in self.tags:
            for i in range(1, self.num_players):
                if not np.array_equal(self.utilities[0], self.utilities[i]):
                    raise ValueError("identical-interest tag but utilities differ")
            if self.potential is None:
                self.potential = self.utilities[0]
            self.tags = self.tags | {TAG_POTENTIAL}
        if self.potential is not None:
            self.potential = np.ascontiguousarray(self.potential, dtype=np.float64)
            if self.potential.shape != self.action_counts:
                raise ValueError(
                    f"potential shape {self.potential.shape}, want {self.action_counts}"
                )


def fold(tensor: np.ndarray, vectors) -> np.ndarray:
    """Contract the trailing axes of a C-contiguous tensor, last axis first.

    Each step is one matrix-vector product on the tensor viewed as a matrix
    over its last axis; a stacked ``@`` over the leading axes would round
    differently when one of them has size one.  Folding every axis
    leaves a 0-d array; a vector comes back as the product itself, not as a
    view, because a run keeps every gradient in its history, and with no
    vector to fold it comes back as a copy, so no caller can write into the
    tensor.  Folding ``tensor`` against its last vector alone gives the
    partial that every further fold continues, which is what
    ``BlockGradients.hoisted`` shares.
    """
    t = tensor if len(vectors) else tensor.copy()
    for v in reversed(vectors):
        t = t.reshape(-1, len(v)) @ v
    shape = tensor.shape[: tensor.ndim - len(vectors)]
    return t if t.shape == shape else t.reshape(shape)


def own_axis_first(tensor: np.ndarray, player: int) -> np.ndarray:
    # axis 0 is first already; ``moveaxis`` would only build a view of it
    return np.ascontiguousarray(np.moveaxis(tensor, player, 0) if player else tensor)


# the fewest tensor entries, summed over the folds it would hand over, for
# which ``BlockGradients.hoisted``'s ``folds`` uses its lane: below that, the
# round trip and the waits for the interpreter lock cost more than the
# second core saves.
# Per call with a new last strategy (median of 300 calls, 1 OpenBLAS thread,
# 2-core VM), serial against two lanes: three blocks and a value on 3 x m^3
# tensors, two folds to the lane, took 68 vs 92 us at m = 40 (2 x 64,000
# entries), 98 vs 81 us at 43 (2 x 79,507) and 348 vs 204 us at 64; one fold
# to the lane, 75 vs 84 us at 50 (125,000), 100 vs 88 us at 54 (157,464) and
# 175 vs 131 us at 64.  A task's round trip through the lane's queue takes
# 12 us, against 23 us through ``ThreadPoolExecutor.submit``
_LANE_ENTRIES = 150_000


class Lane:
    """A second thread for folds, owned by the code that makes it.

    The thread starts at the first task and takes tasks one at a time from a
    ``queue.SimpleQueue``; ``close``, or leaving a ``with`` block, ends and
    joins it, and a later task starts another.
    """

    def __init__(self):
        self._thread = self._tasks = self._done = None

    def start(self, task) -> None:
        """Run ``task()`` on the lane; ``wait`` waits for it."""
        if self._thread is None:
            self._tasks, self._done = queue.SimpleQueue(), queue.SimpleQueue()
            self._thread = threading.Thread(target=_work, args=(self._tasks, self._done),
                                            name="rmkit-lane", daemon=True)
            self._thread.start()
        self._tasks.put(task)

    def wait(self) -> None:
        """Wait for the task started last, and raise what it raised."""
        exc = self._done.get()
        if exc is not None:
            raise exc

    def close(self) -> None:
        if self._thread is not None:
            self._tasks.put(None)
            self._thread.join()
            self._thread = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _work(tasks, done) -> None:
    for task in iter(tasks.get, None):
        try:
            task()
        except BaseException as exc:  # ``wait`` raises it on the caller's thread
            done.put(exc)
        else:
            done.put(None)


class BlockGradients:
    """The block gradients of one tensor per block, and a multilinear value,
    through one kernel.

    Block ``i``'s gradient folds tensor ``i``, with axis ``i`` moved to the
    front, against every other block's strategy; ``value`` folds ``potential``
    against the whole profile, and is nan without one.  A call moves the axis
    itself and keeps nothing, so a handle holding the kernel holds no copy.

    A round loop takes ``hoisted(lane)``, a ``(grad, folds)`` pair of
    closures that keep what they make only as long as they live;
    ``folds(profile, blocks)`` gives ``grad(profile, i)`` for each block in
    ``blocks`` and the value at ``profile``, in one call.  The blocks before
    the last whose tensor is block 0's, and the value when ``potential`` is
    that tensor too, all start by folding its last axis against the last
    block's strategy; the pair makes that partial once per bits of the
    strategy, and each of them folds the rest of it with its own axis moved
    to the front.  Other blocks fold axis-moved copies made once.  Block 0
    and the value run a call's operations on the same memory, so they have
    its bits.  A middle block's rows are a call's rows in another order, and
    gemv kernels take rows four at a time and sum each leftover row in
    another order; so a middle block shares the partial only when the row
    count is a multiple of 4, where its bits were a call's in all 308 random
    shapes tried (OpenBLAS 0.3.31, Haswell, 1 and 2 threads), against 31
    mismatches in 229 other shapes, (7, 9, 17) among them.

    Given a ``Lane``, ``folds`` runs half of the full-tensor folds due, rounded
    down, on it while the caller's thread runs the rest, once those read at
    least ``_LANE_ENTRIES`` tensor entries in all.  The folds due are the
    partial when its key changed, each block that folds a moved copy, and
    the value when it folds ``potential`` apart from the partial.  Every
    user of the partial runs on one lane, so one thread makes it and reads
    it.  Each fold is the same call on the same inputs on either thread, so
    it has the same bits; the lane gains because gemv releases the
    interpreter lock while it reads the tensor.
    """

    def __init__(self, tensors, potential: Optional[np.ndarray] = None):
        self.tensors = list(tensors)
        self.potential = potential

    def __call__(self, profile, i: int) -> Vector:
        return _fold_block(own_axis_first(self.tensors[i], i), profile, i)

    def value(self, profile) -> float:
        if self.potential is None:
            return float("nan")
        return mixed_tensor_value(self.potential, profile)

    def hoisted(self, lane: Optional[Lane] = None):
        n, shared = len(self.tensors), self.tensors[0]
        # gemv gives a row the same bits wherever it sits only when it takes
        # every row four at a time, so a middle block shares only then
        whole = shared.size // shared.shape[-1] % 4 == 0
        sharing = [i < n - 1 and t is shared and (i == 0 or whole)
                   for i, t in enumerate(self.tensors)]
        value_shares = self.potential is shared
        # a partial with one user saves no fold
        if sum(sharing) + value_shares < 2:
            sharing, value_shares = [False] * n, False
        moved = [None if s else own_axis_first(t, i)
                 for i, (t, s) in enumerate(zip(self.tensors, sharing))]
        last = [None, None]  # the bits of the last block's strategy, their partial

        def partial(profile):
            key = profile[-1].tobytes()
            if key != last[0]:
                p = fold(shared, profile[-1:])
                p.flags.writeable = False
                last[:] = key, p
            return last[1]

        def grad(profile, i: int) -> Vector:
            if not sharing[i]:
                return _fold_block(moved[i], profile, i)
            return _fold_block(own_axis_first(partial(profile), i), profile[:-1], i)

        def value(profile) -> float:
            if value_shares:
                return float(fold(partial(profile), profile[:-1]))
            return self.value(profile)

        shares = [*sharing, value_shares]  # per block, then the value's, at n
        # the fewest full-tensor folds worth handing to the lane
        least = float("inf") if lane is None else -(-_LANE_ENTRIES // shared.size)

        def folds(profile, blocks):
            jobs = [*blocks, n]  # n stands for the value
            out = [None] * len(jobs)

            def fill(part):
                for k in part:
                    i = jobs[k]
                    out[k] = value(profile) if i == n else grad(profile, i)

            there = []
            if len(jobs) >= 2 * least:
                # (due, jobs): every user of the partial in one part, which
                # folds the tensor when the partial's key changed; every
                # other job a part of its own, one fold, but a value without
                # a potential folds nothing.  The lane takes whole parts from
                # the end, half the folds due, when that is enough of them
                users = [k for k, i in enumerate(jobs) if shares[i]]
                parts = [(profile[-1].tobytes() != last[0], users)] if users else []
                parts += [(i < n or self.potential is not None, [k])
                          for k, i in enumerate(jobs) if not shares[i]]
                room = sum(due for due, _ in parts) // 2
                if room >= least:
                    for due, part in reversed(parts):
                        if due and room:
                            there += part
                            room -= 1
            if not there:
                fill(range(len(jobs)))
                return out[:-1], out[-1]
            lane.start(lambda: fill(there))
            try:
                fill([k for k in range(len(jobs)) if k not in there])
            finally:
                lane.wait()
            return out[:-1], out[-1]

        return grad, folds


def _fold_block(moved: np.ndarray, profile, i: int) -> Vector:
    return fold(moved, [*profile[:i], *profile[i + 1 :]])


def utility_vector(game: GameSpec, player: int, profile) -> Vector:
    """Expected utility of each own action against the opponents' mixtures."""
    if not 0 <= player < game.num_players:
        raise IndexError(f"player {player} out of range")
    _check_profile(game.action_counts, profile)
    return _fold_block(own_axis_first(game.utilities[player], player), profile, player)


def mixed_tensor_value(tensor: np.ndarray, profile) -> float:
    """Multilinear extension of a tensor evaluated at a mixed profile."""
    return float(fold(np.ascontiguousarray(tensor, dtype=np.float64), profile))


def mixed_potential(game: GameSpec, profile) -> float:
    if game.potential is None:
        raise ValueError("game has no potential tensor")
    _check_profile(game.action_counts, profile)
    return mixed_tensor_value(game.potential, profile)


def _check_profile(action_counts, profile):
    if len(profile) != len(action_counts):
        raise ValueError(f"profile has {len(profile)} blocks, want {len(action_counts)}")
    for j, (x, m) in enumerate(zip(profile, action_counts)):
        x = np.asarray(x)
        if x.shape != (m,):
            raise ValueError(f"block {j} has shape {x.shape}, want ({m},)")


def verify_potential(game: GameSpec):
    """Exhaustively check the potential identity over all unilateral deviations.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness names
    the player, the joint action, the deviation, and both sides of the first
    violated identity.  Player i's identity is equivalent to ``u_i - potential``
    being constant along axis i, which is what gets scanned.
    """
    if game.potential is None:
        raise ValueError("game has no potential tensor")
    for i in range(game.num_players):
        d = game.utilities[i] - game.potential
        spread = d.max(axis=i) - d.min(axis=i)
        if float(spread.max()) <= POTENTIAL_TOL:
            continue
        rest = np.unravel_index(int(np.argmax(spread)), spread.shape)
        hi = int(np.argmax([d[rest[:i] + (a,) + rest[i:]] for a in range(game.action_counts[i])]))
        lo = int(np.argmin([d[rest[:i] + (a,) + rest[i:]] for a in range(game.action_counts[i])]))
        base = rest[:i] + (lo,) + rest[i:]
        dev = rest[:i] + (hi,) + rest[i:]
        witness = {
            "player": i,
            "action": tuple(map(int, base)),
            "deviation": tuple(map(int, dev)),
            "potential_diff": float(game.potential[dev] - game.potential[base]),
            "utility_diff": float(game.utilities[i][dev] - game.utilities[i][base]),
        }
        return False, witness
    return True, None


def random_potential_game(
    num_players: int, action_counts, seed: int, dummy_shifts: bool = True
) -> GameSpec:
    """Potential tensor with i.i.d. uniform[0,1] entries.

    With ``dummy_shifts`` each player's utility adds a random term that is
    constant in their own action, so the game is a potential game without
    being identical-interest.
    """
    action_counts = tuple(int(m) for m in action_counts)
    if len(action_counts) != num_players:
        raise ValueError("one action count per player")
    rng = np.random.default_rng(seed)
    pot = rng.uniform(0.0, 1.0, size=action_counts)
    utilities = []
    tags = {TAG_POTENTIAL}
    for i in range(num_players):
        if dummy_shifts:
            shape = action_counts[:i] + (1,) + action_counts[i + 1 :]
            utilities.append(pot + rng.uniform(0.0, 1.0, size=shape))
        else:
            utilities.append(pot.copy())
    if not dummy_shifts:
        tags.add(TAG_IDENTICAL)
    return GameSpec(action_counts, utilities, potential=pot, tags=frozenset(tags))


def random_symmetric_identical_game(num_players: int, num_actions: int, seed: int) -> GameSpec:
    """Identical-interest game whose tensor is invariant under axis permutation.

    The entry at a joint action depends only on the multiset of actions, so
    every player contracting against equal opponent mixtures sees the same
    utility vector.
    """
    rng = np.random.default_rng(seed)
    values = {}
    shape = (num_actions,) * num_players
    pot = np.empty(shape)
    for idx in np.ndindex(shape):
        key = tuple(sorted(idx))
        if key not in values:
            values[key] = rng.uniform(0.0, 1.0)
        pot[idx] = values[key]
    return GameSpec(
        (num_actions,) * num_players,
        [pot.copy() for _ in range(num_players)],
        potential=pot,
        tags=frozenset({TAG_IDENTICAL, TAG_SYMMETRIC}),
    )


def random_congestion_game(num_players: int, num_resources: int, seed: int) -> GameSpec:
    """Each player picks one resource; cost depends on how many picked it.

    Utilities are negated costs.  The exact potential sums, per resource,
    the marginal costs of each unit of load in turn.
    """
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.0, 1.0, size=(num_resources, num_players))  # cost at load 1..n
    shape = (num_resources,) * num_players
    utilities = [np.empty(shape) for _ in range(num_players)]
    pot = np.empty(shape)
    for idx in np.ndindex(shape):
        loads = np.bincount(idx, minlength=num_resources)
        for i in range(num_players):
            utilities[i][idx] = -costs[idx[i], loads[idx[i]] - 1]
        pot[idx] = -sum(
            costs[r, k] for r in range(num_resources) for k in range(loads[r])
        )
    return GameSpec(
        shape,
        utilities,
        potential=pot,
        tags=frozenset({TAG_POTENTIAL, TAG_SYMMETRIC}),
    )


def check_symmetric(game: GameSpec, trials: int = 50, seed: int = 0, atol: float = 1e-9) -> bool:
    """All players see the same utility vector whenever all mixtures are equal."""
    counts = set(game.action_counts)
    if len(counts) != 1:
        return False
    m = counts.pop()
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = rng.dirichlet(np.ones(m))
        profile = [x] * game.num_players
        u0 = utility_vector(game, 0, profile)
        for i in range(1, game.num_players):
            if not np.allclose(u0, utility_vector(game, i, profile), rtol=0.0, atol=atol):
                return False
    return True


def utility_range(game: GameSpec) -> float:
    """Largest entry spread across the utility tensors and the potential."""
    spans = [float(u.max() - u.min()) for u in game.utilities]
    if game.potential is not None:
        spans.append(float(game.potential.max() - game.potential.min()))
    return max(spans)


def normalize_game(game: GameSpec) -> GameSpec:
    """Divide every tensor by the largest range so each spread is at most one."""
    span = utility_range(game)
    if span <= 0.0:
        return game
    return GameSpec(
        game.action_counts,
        [u / span for u in game.utilities],
        potential=None if game.potential is None else game.potential / span,
        tags=game.tags,
    )


def _kind_of(game: GameSpec) -> str:
    if TAG_IDENTICAL in game.tags:
        return "identical_interest"
    if TAG_POTENTIAL in game.tags or game.potential is not None:
        return "potential"
    return "general"


def game_json_dict(game: GameSpec) -> dict:
    """The on-disk document for a game; flat tensors use C order."""
    doc = {
        "players": game.num_players,
        "actions": list(game.action_counts),
        "kind": _kind_of(game),
    }
    if game.num_players == 2 and TAG_IDENTICAL in game.tags:
        doc["payoff_matrix"] = game.utilities[0].tolist()
    else:
        doc["utilities"] = [u.reshape(-1).tolist() for u in game.utilities]
        if game.potential is not None:
            doc["potential"] = game.potential.reshape(-1).tolist()
    if TAG_SYMMETRIC in game.tags:
        doc["symmetric"] = True
    return doc


def save_game(game: GameSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(game_json_dict(game), fh)
        fh.write("\n")


def load_game(path) -> GameSpec:
    """Read a game file, validating its fields' JSON types, the shapes, and
    (when present) the potential identity and the symmetric tag; a refusal
    is a ``ValueError`` whose message starts with ``path``."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key in ("players", "actions", "kind"):
        if key not in doc:
            raise ValueError(f"{path}: missing field '{key}'")
    # JSON integers only: a bool is an int in Python, and 2.9 would truncate
    n, actions = doc["players"], doc["actions"]
    if type(n) is not int:
        raise ValueError(f"{path}: field 'players' must be an integer, got {json.dumps(n)}")
    if not (isinstance(actions, list) and all(type(m) is int for m in actions)):
        raise ValueError(
            f"{path}: field 'actions' must be a list of integers, got {json.dumps(actions)}")
    if any(m < 1 for m in actions):
        raise ValueError(f"{path}: field 'actions' must hold positive counts, got {actions}")
    actions = tuple(actions)
    if len(actions) != n:
        raise ValueError(f"{path}: field 'actions' has {len(actions)} entries for {n} players")
    kind = doc["kind"]
    if kind not in ("identical_interest", "potential", "general"):
        raise ValueError(f"{path}: unknown kind '{kind}'")
    tags = set()
    if kind == "identical_interest":
        tags.add(TAG_IDENTICAL)
    if kind in ("identical_interest", "potential"):
        tags.add(TAG_POTENTIAL)
    if "symmetric" in doc:
        if doc["symmetric"] is not True:
            raise ValueError(f"{path}: field 'symmetric' must be true when present, "
                             f"got {json.dumps(doc['symmetric'])}")
        tags.add(TAG_SYMMETRIC)

    potential = None
    if "payoff_matrix" in doc:
        if n != 2 or kind != "identical_interest":
            raise ValueError(f"{path}: 'payoff_matrix' is the 2-player identical-interest shortcut")
        a = _numbers(path, "'payoff_matrix'", doc["payoff_matrix"])
        if a.shape != actions:
            raise ValueError(f"{path}: 'payoff_matrix' has shape {a.shape}, want {actions}")
        utilities = [a, a.copy()]
    else:
        if "utilities" not in doc:
            raise ValueError(f"{path}: missing field 'utilities'")
        flats = doc["utilities"]
        if not isinstance(flats, list):
            raise ValueError(f"{path}: field 'utilities' is a {type(flats).__name__}, not a list")
        if len(flats) != n:
            raise ValueError(f"{path}: field 'utilities' has {len(flats)} tensors for {n} players")
        utilities = [_numbers(path, f"utilities[{i}]", flat, actions)
                     for i, flat in enumerate(flats)]
        if "potential" in doc:
            potential = _numbers(path, "'potential'", doc["potential"], actions)
    try:
        game = GameSpec(actions, utilities, potential=potential, tags=frozenset(tags))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if game.potential is not None:
        ok, witness = verify_potential(game)
        if not ok:
            raise ValueError(f"{path}: potential identity fails: {witness}")
    if kind == "potential" and game.potential is None:
        raise ValueError(f"{path}: kind 'potential' but no potential tensor")
    if TAG_SYMMETRIC in game.tags and not check_symmetric(game):
        raise ValueError(f"{path}: symmetric tag but utilities are not exchangeable")
    return game


def _numbers(path, name, values, shape=None) -> np.ndarray:
    """A game file's JSON list of numbers, or of such lists, as a float64
    array; with ``shape``, a flat list in C order, as that shape."""
    if not isinstance(values, list):
        raise ValueError(f"{path}: {name} must be a list, got {type(values).__name__}")
    if shape is not None and len(values) != int(np.prod(shape)):
        raise ValueError(f"{path}: {name} has {len(values)} entries, want {int(np.prod(shape))}")
    try:
        a = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {name} is not numbers ({exc})") from None
    if shape is not None and a.ndim != 1:
        raise ValueError(f"{path}: {name} is not a flat list of numbers")
    return a if shape is None else a.reshape(shape)
