"""Regret-matching learners over a single probability simplex.

Three update rules share one state shape and one play rule:

* ``RM``        keeps the full signed cumulative regret vector and plays
                proportionally to its positive part.
* ``RM_PLUS``   truncates the regret vector at zero after every update, so
                the state is always componentwise nonnegative.
* ``DRM_PLUS``  additionally multiplies the truncated vector by a discount
                factor ``alpha`` in (0, 1] each round.

A state always carries the strategy it would play next; ``play`` is the
rule.  When the positive part of the regrets vanishes there is nothing to
be proportional to; the stored strategy is then whatever fallback is in
effect (uniform at birth, the previously played strategy after a step),
which keeps the play rule total without breaking any of the norm arguments.

``step`` is pure: it returns the successor state plus the instantaneous
regret vector ``g = u - <x, u> * 1`` computed with the strategy that was
actually played, fallback branch included.  It is the validated single-step
reference.  The update rule itself is ``advance``, a kernel on plain arrays
that checks nothing; ``step`` and the round loop of ``dynamics.run`` both
call it, so the two cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

Vector = np.ndarray


class Kind(str, Enum):
    RM = "rm"
    RM_PLUS = "rm+"
    DRM_PLUS = "drm+"


def positive_part(v: Vector) -> Vector:
    return np.maximum(v, 0.0)


def uniform_strategy(num_actions: int) -> Vector:
    if num_actions < 1:
        raise ValueError(f"need at least one action, got {num_actions}")
    return np.full(num_actions, 1.0 / num_actions)


def normalize_strategy(probs) -> Vector:
    """Validate a nonnegative vector and rescale it to sum exactly to one."""
    x = np.asarray(probs, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"strategy must be a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("strategy has non-finite entries")
    if np.any(x < 0.0):
        raise ValueError("strategy has negative entries")
    s = float(x.sum())
    if s <= 0.0:
        raise ValueError("strategy mass is zero")
    return x / s


def play(regrets: Vector, fallback: Vector):
    """The play rule: ``(theta, total, x)`` with ``theta = max(r, 0)``, its
    sum, and ``x = theta / total``, or ``fallback`` when ``total`` is zero."""
    theta = positive_part(regrets)
    total = float(np.add.reduce(theta))
    return theta, total, (theta / total if total > 0.0 else fallback)


@dataclass(frozen=True)
class RegretState:
    kind: Kind
    regrets: Vector
    strategy: Vector  # the strategy played next round; fallback when max(r,0)=0
    discount: Optional[float] = None

    @property
    def num_actions(self) -> int:
        return self.regrets.shape[0]


def _check_discount(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"discount must lie in (0, 1], got {alpha}")
    return alpha


def new_learner(
    kind: Kind,
    num_actions: int,
    init_regrets=None,
    init_strategy=None,
    discount: Optional[float] = None,
) -> RegretState:
    """Build a fresh learner state.

    ``init_regrets`` defaults to zero.  The nonnegative kinds reject
    negative initial regrets.  The stored strategy is the play rule applied
    to the initial regrets, falling back to ``init_strategy`` (uniform if
    absent) when their positive part vanishes.
    """
    kind = Kind(kind)
    if num_actions < 1:
        raise ValueError(f"need at least one action, got {num_actions}")
    if init_regrets is None:
        r = np.zeros(num_actions)
    else:
        r = np.asarray(init_regrets, dtype=np.float64)
        if r.shape != (num_actions,):
            raise ValueError(f"init regrets shape {r.shape} != ({num_actions},)")
        if not np.all(np.isfinite(r)):
            raise ValueError("init regrets have non-finite entries")
        if kind in (Kind.RM_PLUS, Kind.DRM_PLUS) and np.any(r < 0.0):
            raise ValueError(f"{kind.value} keeps regrets nonnegative; got negative init")
        r = r.copy()
    if discount is not None:
        discount = _check_discount(discount)
    elif kind is Kind.DRM_PLUS:
        raise ValueError("drm+ needs a discount in (0, 1]")
    fallback = (
        uniform_strategy(num_actions)
        if init_strategy is None
        else normalize_strategy(init_strategy)
    )
    if fallback.shape != r.shape:
        raise ValueError(f"init strategy shape {fallback.shape} != ({num_actions},)")
    return RegretState(kind=kind, regrets=r, strategy=play(r, fallback)[2], discount=discount)


def advance(kind: Kind, regrets: Vector, x: Vector, u: Vector, xu: float,
            alpha: Optional[float] = None):
    """The update rule on plain arrays, with no checks.

    ``x`` is the strategy played, ``xu`` is ``float(x @ u)`` and ``alpha`` the
    drm+ discount.  Returns ``(r, theta, total, x_next, g)``: the next
    regrets, ``play(r, x)`` and ``g = u - xu``.
    """
    g = u - xu
    if kind is Kind.RM:
        r = regrets + g
    elif kind is Kind.RM_PLUS:
        r = positive_part(regrets + g)
    else:
        r = alpha * positive_part(regrets + g)
    theta, total, x_next = play(r, x)
    return r, theta, total, x_next, g


def current_strategy(state: RegretState) -> Vector:
    """max(r,0)/||max(r,0)||_1 when that is nonzero, else the stored fallback."""
    return play(state.regrets, state.strategy)[2]


def step(state: RegretState, utility, alpha: Optional[float] = None):
    """Advance one round against a utility vector.

    Returns ``(next_state, g)`` where ``g = u - <x, u> * 1`` is the
    instantaneous regret of the strategy ``x`` actually played.  ``alpha``
    overrides the stored discount for this round (DRM_PLUS only).
    """
    u = np.asarray(utility, dtype=np.float64)
    if u.shape != state.regrets.shape:
        raise ValueError(f"utility shape {u.shape} != {state.regrets.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("utility has non-finite entries")
    if state.kind is Kind.DRM_PLUS:
        alpha = _check_discount(alpha if alpha is not None else state.discount)
    elif alpha is not None:
        raise ValueError("per-round discount only applies to drm+")
    x = current_strategy(state)
    r, _, _, x_next, g = advance(state.kind, state.regrets, x, u, float(x @ u), alpha)
    return replace(state, regrets=r, strategy=x_next), g


def regret_l2(state: RegretState) -> float:
    """l2 norm of the positive part of the regrets."""
    return float(np.linalg.norm(positive_part(state.regrets)))


def regret_l1_positive(state: RegretState) -> float:
    """l1 norm of the positive part of the regrets."""
    return float(positive_part(state.regrets).sum())


def threshold_init_value(num_actions: int, smoothness: float) -> float:
    """Constant c with r^(0) = c * 1 such that ||r^(0)||_2 = max{2m, 9mL}."""
    m = num_actions
    if smoothness < 0.0:
        raise ValueError("smoothness must be nonnegative")
    return max(2.0 * np.sqrt(m), 9.0 * np.sqrt(m) * smoothness)


def external_regret_bound_check(
    state: RegretState, g_history: Sequence[Vector], tol: float = 1e-9
) -> bool:
    """Check ||max(r,0)||_2 <= sqrt(sum_t ||g^(t)||_2^2) <= sqrt(m T).

    The second inequality is only meaningful when every observed utility
    had range at most one (then ||g^(t)||_inf <= 1); it is skipped when the
    history violates that.
    """
    lhs = regret_l2(state)
    sq = sum(float(g @ g) for g in g_history)
    mid = float(np.sqrt(sq))
    if lhs > mid + tol:
        return False
    if g_history and max(float(np.max(np.abs(g))) for g in g_history) <= 1.0 + tol:
        cap = float(np.sqrt(state.num_actions * len(g_history)))
        if mid > cap + tol:
            return False
    return True
