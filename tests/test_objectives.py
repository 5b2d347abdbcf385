"""Unit tests for objectives, gap measures, and the cycling quartic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmkit import games as gm
from rmkit import objectives as ob


# ---------------------------------------------------------------------------
# domain and gap measures
# ---------------------------------------------------------------------------


def test_simplex_product_basics():
    dom = ob.SimplexProduct((2, 3))
    assert dom.num_blocks == 2
    prof = dom.uniform_profile()
    np.testing.assert_array_equal(prof[0], [0.5, 0.5])
    np.testing.assert_array_equal(prof[1], np.full(3, 1 / 3))
    rng = np.random.default_rng(0)
    rand = dom.random_profile(rng)
    for x, m in zip(rand, (2, 3)):
        assert x.shape == (m,)
        assert np.all(x >= 0)
        assert abs(float(x.sum()) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="positive"):
        ob.SimplexProduct((2, 0))


def test_br_gap_frozen():
    assert ob.br_gap([1.0, 0.0], [0.3, 0.7]) == pytest.approx(0.7, abs=1e-15)
    assert ob.br_gap([1.0, 1.0], [0.5, 0.5]) == 0.0
    with pytest.raises(ValueError, match="shape mismatch"):
        ob.br_gap([1.0, 0.0], [1.0, 0.0, 0.0])


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 6))
def test_br_gap_nonnegative_on_the_simplex(seed, m):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-5, 5, size=m)
    x = rng.dirichlet(np.ones(m))
    assert ob.br_gap(u, x) >= -1e-12


def test_kkt_gap_sums_block_gaps():
    dom = ob.SimplexProduct((2, 3))
    grads = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0, 2.0])}
    handle = ob.ObjectiveHandle(
        domain=dom,
        value=lambda p: 0.0,
        block_gradient=lambda p, i: grads[i],
        smoothness=0.0,
        value_range=0.0,
    )
    profile = [np.array([0.5, 0.5]), np.full(3, 1 / 3)]
    # gaps: (1 - 0.5) + (2 - 1) = 1.5
    assert ob.kkt_gap(handle, profile) == pytest.approx(1.5, abs=1e-15)


# ---------------------------------------------------------------------------
# the cycling quartic, against an exact interpolation oracle
# ---------------------------------------------------------------------------

_CYCLE_SLOPES = (2, -1, -2, 1)


def _fit_cycle_coeffs():
    """Solve, in exact rational arithmetic, for the unique cubic derivative
    through the four (point, slope) pairs, then integrate with f(0) = 0."""
    pts = [
        (Fraction(6, 10), Fraction(2)),
        (Fraction(7, 10), Fraction(-1)),
        (Fraction(4, 10), Fraction(-2)),
        (Fraction(3, 10), Fraction(1)),
    ]
    rows = [[p**j for j in range(4)] + [s] for p, s in pts]
    for col in range(4):
        piv = next(r for r in range(col, 4) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(4):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    deriv = [rows[j][4] for j in range(4)]
    return [Fraction(0)] + [deriv[j] / (j + 1) for j in range(4)]


def _exact_eval(coeffs, p: float) -> float:
    q = Fraction(p)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q + c
    return float(acc)


def test_cycle_polynomial_matches_interpolation_oracle_bitwise():
    coeffs = _fit_cycle_coeffs()
    deriv = [k * coeffs[k] for k in range(1, 5)]
    for p in list(ob.CYCLE_POINTS) + [0.0, 1.0, 0.123, 0.987]:
        assert ob._cycle_f(p) == _exact_eval(coeffs, p)
        assert ob._cycle_fprime(p) == _exact_eval(deriv, p)


def test_cycle_derivative_hits_the_designed_slopes():
    for p, s in zip(ob.CYCLE_POINTS, _CYCLE_SLOPES):
        assert ob._cycle_fprime(p) == pytest.approx(s, abs=1e-12)


def test_cycle_points_have_zero_total_gradient_and_played_value():
    slopes = [ob._cycle_fprime(p) for p in ob.CYCLE_POINTS]
    assert abs(sum(slopes)) <= 1e-12
    assert abs(sum(p * s for p, s in zip(ob.CYCLE_POINTS, slopes))) <= 1e-12


def test_cycle_objective_handle():
    obj = ob.make_cycle_polynomial()
    assert obj.domain.block_sizes == (2,)
    p = 0.4375  # exact binary fraction
    profile = [np.array([p, 1.0 - p])]
    assert obj.value(profile) == ob._cycle_f(p)
    np.testing.assert_array_equal(
        obj.block_gradient(profile, 0), [ob._cycle_fprime(p), 0.0]
    )
    with pytest.raises(IndexError):
        obj.block_gradient(profile, 1)


def test_cycle_smoothness_is_the_second_derivative_sup():
    # f'' = -1790/3 + 2500 p - 2500 p^2 peaks in magnitude at the endpoints
    assert ob.cycle_smoothness() == pytest.approx(1790.0 / 3.0, rel=1e-12)
    obj = ob.make_cycle_polynomial()
    assert obj.smoothness == ob.cycle_smoothness()


def test_cycle_value_range_matches_grid_scan():
    obj = ob.make_cycle_polynomial()
    coeffs = [float(Fraction(c)) for c in _fit_cycle_coeffs()]
    grid = np.linspace(0.0, 1.0, 20001)
    vals = np.polyval(list(reversed(coeffs)), grid)
    scan = float(vals.max() - vals.min())
    assert obj.value_range >= scan - 1e-9
    assert abs(obj.value_range - scan) <= 1e-3


def test_cycle_kkt_gap_along_the_cycle_stays_above_seven_tenths():
    obj = ob.make_cycle_polynomial()
    expected = {0.6: 0.8, 0.7: 0.7, 0.4: 0.8, 0.3: 0.7}
    for p, want in expected.items():
        gap = ob.kkt_gap(obj, [np.array([p, 1.0 - p])])
        assert gap == pytest.approx(want, abs=1e-9)
        assert gap >= 0.7 - 1e-9


# ---------------------------------------------------------------------------
# multilinear extensions of potential tensors
# ---------------------------------------------------------------------------


def test_make_multilinear_requires_a_potential():
    game = gm.GameSpec((2, 2), [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="no potential"):
        ob.make_multilinear(game)


def test_multilinear_gradient_equals_utility_vector_for_shared_payoffs():
    game = gm.random_potential_game(3, (2, 3, 2), seed=11, dummy_shifts=False)
    obj = ob.make_multilinear(game)
    rng = np.random.default_rng(3)
    profile = obj.domain.random_profile(rng)
    for i in range(3):
        np.testing.assert_array_equal(
            obj.block_gradient(profile, i), gm.utility_vector(game, i, profile)
        )
    assert obj.value(profile) == gm.mixed_potential(game, profile)


def test_multilinear_gradient_gaps_match_utility_gaps_up_to_shifts():
    # per-player utilities differ from the potential by terms constant in the
    # own action, which cancel inside the best-response gap
    game = gm.random_potential_game(3, (2, 3, 2), seed=7, dummy_shifts=True)
    obj = ob.make_multilinear(game)
    rng = np.random.default_rng(4)
    for _ in range(10):
        profile = obj.domain.random_profile(rng)
        for i in range(3):
            a = ob.br_gap(obj.block_gradient(profile, i), profile[i])
            b = ob.br_gap(gm.utility_vector(game, i, profile), profile[i])
            assert a == pytest.approx(b, abs=1e-12)


def test_multilinear_metadata():
    game = gm.random_potential_game(2, (3, 4), seed=2)
    obj = ob.make_multilinear(game)
    assert obj.domain.block_sizes == (3, 4)
    assert obj.tensor is game.potential
    assert obj.value_range == float(game.potential.max() - game.potential.min())
    assert obj.smoothness == ob.multilinear_smoothness_bound(game.potential)


def test_smoothness_bound_hand_value_and_degenerate_cases():
    # 2 blocks, both off-diagonal Hessian blocks equal the 2x2 tensor itself:
    # bound = sqrt(2) * frobenius
    t = np.eye(2)
    assert ob.multilinear_smoothness_bound(t) == pytest.approx(2.0, abs=1e-15)
    assert ob.multilinear_smoothness_bound(np.array([1.0, -3.0])) == 0.0


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1))
def test_smoothness_bound_dominates_sampled_gradient_lipschitz_ratios(seed):
    rng = np.random.default_rng(seed)
    game = gm.random_potential_game(3, (2, 3, 2), seed=seed % 1000)
    obj = ob.make_multilinear(game)
    L = obj.smoothness
    y = obj.domain.random_profile(rng)
    z = obj.domain.random_profile(rng)
    dg = np.concatenate(
        [obj.block_gradient(y, i) - obj.block_gradient(z, i) for i in range(3)]
    )
    dx = np.concatenate([a - b for a, b in zip(y, z)])
    assert float(np.linalg.norm(dg)) <= L * float(np.linalg.norm(dx)) + 1e-9


# ---------------------------------------------------------------------------
# finite-difference gradient checks
# ---------------------------------------------------------------------------


def test_check_gradient_on_both_constructors():
    rng = np.random.default_rng(8)
    game = gm.random_potential_game(3, (2, 2, 3), seed=8)
    obj = ob.make_multilinear(game)
    assert ob.check_gradient(obj, obj.domain.random_profile(rng)) <= 1e-6
    cyc = ob.make_cycle_polynomial()
    assert ob.check_gradient(cyc, [np.array([0.37, 0.63])]) <= 1e-6


@pytest.mark.parametrize("h", [0.0, -1e-5, 1e-2])
def test_check_gradient_rejects_bad_steps(h):
    cyc = ob.make_cycle_polynomial()
    with pytest.raises(ValueError, match="step must lie"):
        ob.check_gradient(cyc, [np.array([0.5, 0.5])], h=h)


# ---------------------------------------------------------------------------
# rescaling and loading
# ---------------------------------------------------------------------------


def test_normalize_objective_multilinear_defaults_to_value_range():
    game = gm.random_potential_game(2, (3, 3), seed=6)
    obj = ob.make_multilinear(game)
    norm = ob.normalize_objective(obj)
    rng = np.random.default_rng(1)
    profile = obj.domain.random_profile(rng)
    s = obj.value_range
    assert norm.value(profile) == obj.value(profile) / s
    np.testing.assert_array_equal(
        norm.block_gradient(profile, 1), obj.block_gradient(profile, 1) / s
    )
    assert norm.value_range == 1.0
    assert norm.smoothness == obj.smoothness / s
    np.testing.assert_array_equal(norm.tensor, obj.tensor / s)


def test_normalize_objective_needs_a_scale_without_a_tensor():
    cyc = ob.make_cycle_polynomial()
    with pytest.raises(ValueError, match="explicit scale"):
        ob.normalize_objective(cyc)
    halved = ob.normalize_objective(cyc, scale=2.0)
    assert halved.value([np.array([0.5, 0.5])]) == cyc.value([np.array([0.5, 0.5])]) / 2.0
    # nonpositive scales are a no-op
    assert ob.normalize_objective(cyc, scale=0.0) is cyc


def test_load_objective_cycle_and_multilinear(tmp_path):
    obj = ob.load_objective({"type": "cycle_poly"})
    assert obj.domain.block_sizes == (2,)

    game = gm.random_potential_game(2, (2, 3), seed=9)
    gm.save_game(game, tmp_path / "g.json")
    spec_path = tmp_path / "obj.json"
    spec_path.write_text('{"type": "multilinear", "game": "g.json"}\n')
    # the game path resolves relative to the objective file
    loaded = ob.load_objective(str(spec_path))
    assert loaded.domain.block_sizes == (2, 3)
    np.testing.assert_array_equal(loaded.tensor, game.potential)
    # dict form resolves against base_dir instead
    again = ob.load_objective(
        {"type": "multilinear", "game": "g.json"}, base_dir=str(tmp_path)
    )
    np.testing.assert_array_equal(again.tensor, game.potential)


def test_load_objective_rejects(tmp_path):
    with pytest.raises(ValueError, match="'type' field"):
        ob.load_objective({"game": "g.json"})
    with pytest.raises(ValueError, match="unknown objective type"):
        ob.load_objective({"type": "mystery"})
    with pytest.raises(ValueError, match="'game' file field"):
        ob.load_objective({"type": "multilinear"})
    with pytest.raises(ValueError, match=r"unknown keys \['scale'\]"):
        ob.load_objective({"type": "multilinear", "game": "g.json", "scale": 1000.0})
    with pytest.raises(ValueError, match="unknown keys"):
        ob.load_objective({"type": "cycle_poly", "game": "g.json"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        ob.load_objective(str(bad))
