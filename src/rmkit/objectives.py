"""First-order objectives over products of probability simplices.

An objective bundles a value function, per-block gradients, a smoothness
constant, and the value range.  Two constructors cover the cases the rest
of the package needs: the multilinear extension of a potential tensor, and
a fixed quartic in one variable whose gradient field makes regret matching
cycle through four points with zero cumulative regret while the
stationarity gap stays bounded away from zero.

Stationarity is measured by ``kkt_gap``: the sum over blocks of the best
response gap ``max_a u[a] - <x, u>``.  A point is a mixed KKT point within
``eps`` exactly when the sum is at most ``eps``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import games as games_mod
from .learners import Vector, uniform_strategy


@dataclass(frozen=True)
class SimplexProduct:
    block_sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "block_sizes", tuple(int(m) for m in self.block_sizes))
        if any(m < 1 for m in self.block_sizes):
            raise ValueError(f"block sizes must be positive, got {self.block_sizes}")

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def uniform_profile(self):
        return [uniform_strategy(m) for m in self.block_sizes]

    def random_profile(self, rng):
        return [rng.dirichlet(np.ones(m)) for m in self.block_sizes]


@dataclass
class ObjectiveHandle:
    domain: SimplexProduct
    value: Callable
    block_gradient: Callable  # (profile, block index) -> gradient vector
    smoothness: float
    value_range: float
    tensor: Optional[np.ndarray] = None  # set for multilinear objectives


def br_gap(utility, strategy) -> float:
    """Best response gap max_a u[a] - <x, u>; nonnegative on the simplex."""
    u = np.asarray(utility, dtype=np.float64)
    x = np.asarray(strategy, dtype=np.float64)
    if u.shape != x.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {x.shape}")
    return float(u.max() - x @ u)


def kkt_gap(obj: ObjectiveHandle, profile) -> float:
    return sum(
        br_gap(obj.block_gradient(profile, i), profile[i])
        for i in range(obj.domain.num_blocks)
    )


def multilinear_smoothness_bound(tensor: np.ndarray) -> float:
    """Upper bound on the gradient Lipschitz constant of a multilinear map.

    Off-diagonal Hessian blocks have entries that are averages of tensor
    entries over the remaining axes, so bounding each entry by the largest
    slice magnitude and taking the Frobenius norm of the stacked blocks
    dominates the spectral norm at every feasible point.
    """
    n = tensor.ndim
    if n == 1:
        return 0.0
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            axes = tuple(k for k in range(n) if k not in (i, j))
            block = np.abs(tensor).max(axis=axes) if axes else np.abs(tensor)
            total += float((block**2).sum())
    return float(np.sqrt(total))


def make_multilinear(game: games_mod.GameSpec) -> ObjectiveHandle:
    """Multilinear extension of a game's potential tensor.

    The per-block gradient is the contraction of the potential over every
    other block, which matches each player's expected utility vector up to
    a constant shift, so best-response gaps agree with the game's.
    """
    if game.potential is None:
        raise ValueError("game has no potential tensor")
    pot = game.potential
    # a one-off call moves its axis and keeps nothing; ``dynamics.run`` folds
    # the gradients and the value through the kernel's hoisted pair, and what
    # that makes ends with the run, so the handle never keeps a second
    # potential for its whole life
    kernel = games_mod.BlockGradients([pot] * game.num_players, pot)
    return ObjectiveHandle(
        domain=SimplexProduct(game.action_counts),
        value=kernel.value,
        block_gradient=kernel,
        smoothness=multilinear_smoothness_bound(pot),
        value_range=float(pot.max() - pot.min()),
        tensor=pot,
    )


# Quartic with exact rational coefficients; its derivative takes the values
# 2, -1, -2, 1 at p = 0.6, 0.7, 0.4, 0.3 and the four (point, gradient)
# pairs have both zero total gradient and zero total played value, so the
# regret accrued over the cycle is exactly zero.
_CYCLE_COEFFS = (
    Fraction(0),
    Fraction(90),
    Fraction(-895, 3),
    Fraction(1250, 3),
    Fraction(-625, 3),
)
CYCLE_POINTS = (0.6, 0.7, 0.4, 0.3)


def _cycle_f(p: float) -> float:
    # exact rational Horner evaluation; one float rounding at the end keeps
    # the cycle sums inside 1e-12 over a hundred steps
    q = Fraction(p)
    acc = Fraction(0)
    for coeff in reversed(_CYCLE_COEFFS):
        acc = acc * q + coeff
    return float(acc)


def _cycle_fprime(p: float) -> float:
    q = Fraction(p)
    acc = Fraction(0)
    for k in range(len(_CYCLE_COEFFS) - 1, 0, -1):
        acc = acc * q + k * _CYCLE_COEFFS[k]
    return float(acc)


def cycle_smoothness() -> float:
    # |f''| on [0,1]; f'' is a concave parabola, so the max magnitude sits
    # at an endpoint or at the vertex
    c2, c3, c4 = (float(_CYCLE_COEFFS[k]) for k in (2, 3, 4))

    def fpp(p):
        return 2.0 * c2 + 6.0 * c3 * p + 12.0 * c4 * p**2

    vertex = -6.0 * c3 / (24.0 * c4)
    cands = [0.0, 1.0] + ([vertex] if 0.0 <= vertex <= 1.0 else [])
    return max(abs(fpp(p)) for p in cands)


def _cycle_value_range() -> float:
    c = [float(v) for v in _CYCLE_COEFFS]
    # stationary points of f on [0,1] via the cubic roots of f'
    roots = np.roots([4.0 * c[4], 3.0 * c[3], 2.0 * c[2], c[1]])
    cands = [0.0, 1.0] + [float(r.real) for r in roots if abs(r.imag) < 1e-12 and 0.0 <= r.real <= 1.0]
    vals = [_cycle_f(p) for p in cands]
    return max(vals) - min(vals)


def make_cycle_polynomial() -> ObjectiveHandle:
    """Single 2-action block; the value depends on the mass of action one."""
    domain = SimplexProduct((2,))

    def value(profile) -> float:
        return _cycle_f(float(profile[0][0]))

    def block_gradient(profile, i: int) -> Vector:
        if i != 0:
            raise IndexError("single-block objective")
        return np.array([_cycle_fprime(float(profile[0][0])), 0.0])

    return ObjectiveHandle(
        domain=domain,
        value=value,
        block_gradient=block_gradient,
        smoothness=cycle_smoothness(),
        value_range=_cycle_value_range(),
    )


def check_gradient(obj: ObjectiveHandle, profile, h: float = 1e-5) -> float:
    """Max guarded relative error of central differences along e_a - e_b.

    Perturbations act within one block; points slightly outside the simplex
    are fine because both constructors extend to a neighbourhood.
    """
    if not 0.0 < h <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {h}")
    worst = 0.0
    for i, m in enumerate(obj.domain.block_sizes):
        grad = obj.block_gradient(profile, i)
        for a in range(m):
            for b in range(a + 1, m):
                d = np.zeros(m)
                d[a] = h
                d[b] = -h
                hi = [x.copy() for x in profile]
                lo = [x.copy() for x in profile]
                hi[i] = hi[i] + d
                lo[i] = lo[i] - d
                fd = (obj.value(hi) - obj.value(lo)) / (2.0 * h)
                an = float(grad[a] - grad[b])
                worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    return worst


def normalize_objective(obj: ObjectiveHandle, scale: Optional[float] = None) -> ObjectiveHandle:
    """Rescale so every block gradient has range at most one.

    For multilinear objectives the gradient entries live inside the tensor's
    value interval, so dividing by the value range suffices.  Other
    objectives must supply the factor.
    """
    if scale is None:
        if obj.tensor is None:
            raise ValueError("need an explicit scale for non-multilinear objectives")
        scale = obj.value_range
    if scale <= 0.0:
        return obj
    s = float(scale)
    inner_value, inner_grad = obj.value, obj.block_gradient
    return replace(
        obj,
        value=lambda profile: inner_value(profile) / s,
        block_gradient=lambda profile, i: inner_grad(profile, i) / s,
        smoothness=obj.smoothness / s,
        value_range=obj.value_range / s,
        tensor=None if obj.tensor is None else obj.tensor / s,
    )


def load_objective(spec, base_dir: str = ".") -> ObjectiveHandle:
    """Build an objective from a JSON file path or an already-parsed dict.
    A refusal of a file names its path first."""
    where = ""
    if isinstance(spec, (str, os.PathLike)):
        where = f"{spec}: "
        base_dir = os.path.dirname(os.fspath(spec)) or "."
        with open(spec) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{spec}: not valid JSON ({exc})") from exc
    else:
        doc = spec
    if not isinstance(doc, dict) or not isinstance(doc.get("type"), str):
        raise ValueError(f"{where}objective spec needs a 'type' field, a string")
    keys = {"cycle_poly": {"type"}, "multilinear": {"type", "game"}}.get(doc["type"])
    if keys is None:
        raise ValueError(f"{where}unknown objective type '{doc['type']}'")
    unknown = set(doc) - keys
    if unknown:
        raise ValueError(f"{where}objective spec: unknown keys {sorted(unknown)}")
    if doc["type"] == "cycle_poly":
        return make_cycle_polynomial()
    if not isinstance(doc.get("game"), str):
        raise ValueError(f"{where}multilinear objective needs a 'game' file field, a path")
    game = games_mod.load_game(os.path.join(base_dir, doc["game"]))
    try:
        return make_multilinear(game)
    except ValueError as exc:  # a game file with no potential
        raise ValueError(f"{where}{exc}") from None
