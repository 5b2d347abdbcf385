"""Unit tests for game containers, generators, and serialization."""

import json
import math
import threading

import numpy as np
import pytest

from rmkit import dynamics as dyn
from rmkit import games as gm


def _potential_game_by_hand():
    pot = np.array([[1.0, 0.0], [2.0, 3.0]])
    shift0 = np.array([[0.5, -1.0], [0.5, -1.0]])  # constant in player 0's action
    shift1 = np.array([[0.25, 0.25], [-2.0, -2.0]])  # constant in player 1's action
    return gm.GameSpec(
        (2, 2),
        [pot + shift0, pot + shift1],
        potential=pot,
        tags=frozenset({gm.TAG_POTENTIAL}),
    )


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------


def test_gamespec_basics():
    game = _potential_game_by_hand()
    assert game.num_players == 2
    assert game.action_counts == (2, 2)


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        (dict(action_counts=(2, 0), utilities=[np.zeros((2, 0))] * 2), "positive"),
        (dict(action_counts=(2, 2), utilities=[np.zeros((2, 2))]), "utility tensors for"),
        (
            dict(action_counts=(2, 2), utilities=[np.zeros((2, 2)), np.zeros((2, 3))]),
            "has shape",
        ),
        (
            dict(
                action_counts=(2, 2),
                utilities=[np.zeros((2, 2)), np.full((2, 2), np.nan)],
            ),
            "non-finite",
        ),
        (
            dict(
                action_counts=(2, 2),
                utilities=[np.zeros((2, 2)), np.ones((2, 2))],
                tags={gm.TAG_IDENTICAL},
            ),
            "utilities differ",
        ),
        (
            dict(
                action_counts=(2, 2),
                utilities=[np.zeros((2, 2)), np.zeros((2, 2))],
                potential=np.zeros((2, 3)),
            ),
            "potential shape",
        ),
    ],
)
def test_gamespec_rejects(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        gm.GameSpec(**kwargs)


def test_identical_tag_installs_the_shared_tensor_as_potential():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    game = gm.GameSpec((2, 2), [a, a.copy()], tags=frozenset({gm.TAG_IDENTICAL}))
    np.testing.assert_array_equal(game.potential, a)
    assert gm.TAG_POTENTIAL in game.tags


# ---------------------------------------------------------------------------
# expected utilities against an einsum oracle
# ---------------------------------------------------------------------------


def test_utility_vector_matches_einsum_oracle():
    rng = np.random.default_rng(42)
    shape = (2, 3, 4)
    utilities = [rng.uniform(-1, 1, size=shape) for _ in range(3)]
    game = gm.GameSpec(shape, utilities)
    profile = [rng.dirichlet(np.ones(m)) for m in shape]
    oracles = [
        np.einsum("abc,b,c->a", utilities[0], profile[1], profile[2]),
        np.einsum("abc,a,c->b", utilities[1], profile[0], profile[2]),
        np.einsum("abc,a,b->c", utilities[2], profile[0], profile[1]),
    ]
    for i in range(3):
        np.testing.assert_allclose(
            gm.utility_vector(game, i, profile), oracles[i], rtol=0, atol=1e-12
        )


def test_utility_vector_validates_inputs():
    game = _potential_game_by_hand()
    profile = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    with pytest.raises(IndexError, match="out of range"):
        gm.utility_vector(game, 2, profile)
    with pytest.raises(ValueError, match="blocks"):
        gm.utility_vector(game, 0, profile[:1])
    with pytest.raises(ValueError, match="block 1 has shape"):
        gm.utility_vector(game, 0, [profile[0], np.array([1.0, 0.0, 0.0])])


def test_mixed_tensor_value_matches_einsum():
    rng = np.random.default_rng(5)
    t = rng.uniform(-1, 1, size=(2, 3, 2))
    profile = [rng.dirichlet(np.ones(m)) for m in (2, 3, 2)]
    want = float(np.einsum("abc,a,b,c->", t, *profile))
    assert gm.mixed_tensor_value(t, profile) == pytest.approx(want, abs=1e-12)


def test_memory_layout_never_changes_the_bits():
    rng = np.random.default_rng(11)
    a = rng.random((7, 7))
    traces = []
    for tensor in (a, np.asfortranarray(a)):
        game = gm.GameSpec((7, 7), [tensor, tensor.copy(order="K")],
                           tags={gm.TAG_IDENTICAL})
        traces.append(dyn.run(game, dyn.RunConfig(kind="rm", max_rounds=300)).traces)
    assert traces[0] == traces[1]
    for _ in range(40):
        t = rng.random((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
        profile = [rng.dirichlet(np.ones(m)) for m in t.T.shape]
        assert gm.mixed_tensor_value(t.T, profile) == \
            gm.mixed_tensor_value(np.ascontiguousarray(t.T), profile)


# ---------------------------------------------------------------------------
# the hoisted pair: one shared partial, with the bits of per-call folds
# ---------------------------------------------------------------------------


def _bits(x):
    return np.float64(x).tobytes()


# row counts (all axes but the last) of 12, 35, 3, 8, 1287, 1221 and 63; at
# (7, 9, 17) taking the middle block's rows from the shared partial changed
# bits, so the kernel folds a moved copy for it
@pytest.mark.parametrize("shape", [(3, 4, 5), (5, 7, 3), (3, 1, 4), (2, 2, 2, 3),
                                   (9, 11, 13, 7), (33, 37, 41), (7, 9, 17), (4, 6), (5,)])
def test_the_hoisted_pair_gives_the_bits_of_per_call_folds(shape):
    rng = np.random.default_rng(sum(shape))
    tensor = rng.uniform(-1.0, 1.0, size=shape)
    kernel = gm.BlockGradients([tensor] * len(shape), tensor)
    grad, folds = kernel.hoisted()
    first, second = ([rng.dirichlet(np.ones(m)) for m in shape] for _ in range(2))
    # the last block's strategy kept while the others move, as within a
    # round, then changed back
    kept_last = [rng.dirichlet(np.ones(m)) for m in shape[:-1]] + [second[-1]]
    for profile in (first, second, kept_last, first):
        for i in range(len(shape)):
            assert grad(profile, i).tobytes() == kernel(profile, i).tobytes()
        assert _bits(folds(profile, ())[1]) == _bits(gm.mixed_tensor_value(tensor, profile))
        assert _bits(kernel.value(profile)) == _bits(gm.mixed_tensor_value(tensor, profile))


@pytest.mark.parametrize("shape", [(4, 6), (4, 5, 6)])
def test_a_gradient_of_the_hoisted_pair_is_the_callers_to_change(shape):
    # with two blocks, block 0's gradient is the shared partial itself
    rng = np.random.default_rng(3)
    tensor = rng.uniform(size=shape)
    kernel = gm.BlockGradients([tensor] * len(shape), tensor)
    grad, folds = kernel.hoisted()
    profile = [rng.dirichlet(np.ones(m)) for m in shape]
    for i in range(len(shape)):
        grad(profile, i)[:] = np.nan
    for i in range(len(shape)):
        assert grad(profile, i).tobytes() == kernel(profile, i).tobytes()
    assert _bits(folds(profile, ())[1]) == _bits(gm.mixed_tensor_value(tensor, profile))


def test_a_one_player_gradient_is_a_new_array_not_the_game_tensor():
    # with one player no vector is folded, so the gradient is the tensor's
    # entries, in an array of its own
    u = np.array([0.25, 0.5, 1.0])
    game = gm.GameSpec((3,), [u.copy()])
    x = [np.array([0.5, 0.25, 0.25])]
    kernel = gm.BlockGradients(game.utilities)
    grad, folds = kernel.hoisted()
    for gradient in (gm.utility_vector(game, 0, x), kernel(x, 0), grad(x, 0), *folds(x, [0])[0]):
        assert gradient.tobytes() == u.tobytes()
        gradient[:] = 0.0
        assert game.utilities[0].tobytes() == u.tobytes()


def test_the_kernel_value_is_nan_without_a_potential():
    a = np.ones((2, 3))
    kernel = gm.BlockGradients([a, a])
    profile = [np.full(2, 0.5), np.full(3, 1 / 3)]
    assert math.isnan(kernel.value(profile)) and math.isnan(kernel.hoisted()[1](profile, ())[1])


# ---------------------------------------------------------------------------
# folds on two lanes: the bits of per-call folds, one thread per partial
# ---------------------------------------------------------------------------


# 2-, 3- and 4-block shapes; a shared (7, 9, 17) has 63 rows, not a multiple
# of 4, so its middle block folds a moved copy, and (8, 9, 17) has 72
@pytest.mark.parametrize("shape", [(4, 6), (3, 4, 5), (7, 9, 17), (8, 9, 17), (2, 2, 2, 3),
                                   (9, 11, 13, 7)])
@pytest.mark.parametrize("tensors", ["shared", "distinct"])
def test_folds_on_a_lane_give_the_bits_of_per_call_folds(shape, tensors, monkeypatch):
    monkeypatch.setattr(gm, "_LANE_ENTRIES", 0)
    n = len(shape)
    rng = np.random.default_rng(sum(shape))
    potential = rng.uniform(-1.0, 1.0, size=shape)
    utilities = ([potential] * n if tensors == "shared"
                 else [rng.uniform(-1.0, 1.0, size=shape) for _ in shape])
    kernel = gm.BlockGradients(utilities, potential)
    # which thread each fold runs on, and whether it makes or reads the
    # shared partial: a fold of the whole shared tensor against one vector,
    # or any fold of a tensor with one axis fewer
    calls, fold = [], gm.fold

    def logged(tensor, vectors):
        user = tensor.ndim == n - 1 or tensor is potential and len(vectors) == 1
        calls.append((threading.get_ident(), user))
        return fold(tensor, vectors)

    monkeypatch.setattr(gm, "fold", logged)
    first, second = ([rng.dirichlet(np.ones(m)) for m in shape] for _ in range(2))
    kept_last = [rng.dirichlet(np.ones(m)) for m in shape[:-1]] + [second[-1]]
    threads = set()
    with gm.Lane() as lane:
        _, folds = kernel.hoisted(lane)
        for profile in (first, second, kept_last, first):
            for blocks in (range(n), range(1), range(n - 1, -1, -1), ()):
                calls.clear()
                us, value = folds(profile, blocks)
                threads |= {ident for ident, _ in calls}
                if tensors == "shared":
                    assert len({ident for ident, user in calls if user}) <= 1
                assert [u.tobytes() for u in us] == [kernel(profile, i).tobytes() for i in blocks]
                assert _bits(value) == _bits(kernel.value(profile))
    assert len(threads) == 2


def test_a_kernel_below_the_lane_gate_folds_on_the_caller_s_thread(monkeypatch):
    # of a 3 x 40^3 game's four folds two would go to the lane, 128,000
    # entries in all, under the gate
    game = gm.random_potential_game(3, (40, 40, 40), seed=1)
    kernel = gm.BlockGradients(game.utilities, game.potential)
    profile = [np.full(40, 1 / 40)] * 3
    with gm.Lane() as lane:
        monkeypatch.setattr(lane, "start", lambda task: pytest.fail("a task went to the lane"))
        us, value = kernel.hoisted(lane)[1](profile, range(3))
    assert [u.tobytes() for u in us] == [kernel(profile, i).tobytes() for i in range(3)]
    assert _bits(value) == _bits(kernel.value(profile))


def test_a_lane_raises_its_task_s_error_on_the_caller_s_thread_and_ends_when_closed():
    before = threading.active_count()
    lane = gm.Lane()
    assert threading.active_count() == before  # started only by a task
    with lane:
        lane.start(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            lane.wait()
        # the thread goes on to the next task
        ran = []
        lane.start(lambda: ran.append(threading.get_ident()))
        lane.wait()
        assert ran and ran[0] != threading.get_ident()
        assert threading.active_count() == before + 1
    assert threading.active_count() == before
    # a closed lane starts a new thread for its next task
    with lane:
        lane.start(lambda: None)
        lane.wait()
    assert threading.active_count() == before


def test_mixed_potential_requires_a_potential():
    game = gm.GameSpec((2, 2), [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="no potential"):
        gm.mixed_potential(game, [np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    hand = _potential_game_by_hand()
    e0 = np.array([1.0, 0.0])
    assert gm.mixed_potential(hand, [e0, e0]) == 1.0


# ---------------------------------------------------------------------------
# potential verification
# ---------------------------------------------------------------------------


def test_verify_potential_accepts_the_hand_built_game():
    ok, witness = gm.verify_potential(_potential_game_by_hand())
    assert ok and witness is None


def test_verify_potential_witness_names_the_broken_deviation():
    game = _potential_game_by_hand()
    game.utilities[1][0, 1] += 0.5  # break player 1's identity at (0, 1)
    ok, witness = gm.verify_potential(game)
    assert not ok
    assert witness["player"] == 1
    # the witness quotes both sides of the violated identity, recomputable
    # from the tensors it points at
    base, dev = witness["action"], witness["deviation"]
    assert witness["utility_diff"] == float(
        game.utilities[1][dev] - game.utilities[1][base]
    )
    assert witness["potential_diff"] == float(game.potential[dev] - game.potential[base])
    assert abs(witness["utility_diff"] - witness["potential_diff"]) >= 0.5 - 1e-12


def test_verify_potential_requires_a_potential():
    game = gm.GameSpec((2, 2), [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="no potential"):
        gm.verify_potential(game)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_random_potential_game_verifies_and_is_not_identical():
    game = gm.random_potential_game(3, (2, 3, 2), seed=0)
    assert gm.verify_potential(game)[0]
    assert gm.TAG_POTENTIAL in game.tags
    assert gm.TAG_IDENTICAL not in game.tags
    assert not np.array_equal(game.utilities[0], game.utilities[1])
    with pytest.raises(ValueError, match="one action count per player"):
        gm.random_potential_game(2, (2, 3, 2), seed=0)


def test_random_potential_game_without_shifts_is_identical_interest():
    game = gm.random_potential_game(2, (3, 3), seed=1, dummy_shifts=False)
    assert gm.TAG_IDENTICAL in game.tags
    np.testing.assert_array_equal(game.utilities[0], game.utilities[1])
    np.testing.assert_array_equal(game.utilities[0], game.potential)


def test_symmetric_identical_game_is_exchangeable():
    game = gm.random_symmetric_identical_game(3, 2, seed=3)
    assert gm.verify_potential(game)[0]
    pot = game.potential
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        np.testing.assert_array_equal(pot, pot.transpose(perm))
    assert gm.check_symmetric(game)


def test_congestion_game_structure():
    game = gm.random_congestion_game(3, 2, seed=4)
    assert gm.verify_potential(game)[0]
    assert gm.TAG_SYMMETRIC in game.tags
    assert gm.check_symmetric(game)
    # utilities are negated costs, and a player's utility depends only on
    # their own resource and its load: players sharing a resource at a pure
    # profile get the same utility
    assert all(float(u.max()) <= 0.0 for u in game.utilities)
    idx = (0, 0, 1)  # players 0 and 1 share resource 0
    assert game.utilities[0][idx] == game.utilities[1][idx]
    assert game.utilities[0][(0, 1, 0)] == game.utilities[2][(0, 1, 0)]


def test_check_symmetric_rejects():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])  # not exchangeable
    lopsided = gm.GameSpec((2, 2), [a, a.copy()], tags=frozenset({gm.TAG_IDENTICAL}))
    assert not gm.check_symmetric(lopsided)
    uneven = gm.random_potential_game(2, (2, 3), seed=0)
    assert not gm.check_symmetric(uneven)


# ---------------------------------------------------------------------------
# ranges and normalization
# ---------------------------------------------------------------------------


def test_utility_range_and_normalize_game():
    game = gm.random_potential_game(2, (3, 3), seed=5)
    scaled = gm.GameSpec(
        game.action_counts,
        [7.0 * u for u in game.utilities],
        potential=7.0 * game.potential,
        tags=game.tags,
    )
    norm = gm.normalize_game(scaled)
    spans = [float(u.max() - u.min()) for u in norm.utilities]
    spans.append(float(norm.potential.max() - norm.potential.min()))
    assert max(spans) == pytest.approx(1.0, abs=1e-12)
    assert all(v <= 1.0 + 1e-12 for v in spans)
    assert gm.verify_potential(norm)[0]

    flat = gm.GameSpec((2, 2), [np.ones((2, 2)), np.ones((2, 2))])
    assert gm.normalize_game(flat) is flat


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_game_json_dict_shapes():
    two = gm.random_symmetric_identical_game(2, 3, seed=6)
    doc = gm.game_json_dict(two)
    assert doc["kind"] == "identical_interest"
    assert "payoff_matrix" in doc and "utilities" not in doc
    assert doc["symmetric"] is True

    three = gm.random_potential_game(3, (2, 2, 2), seed=6)
    doc = gm.game_json_dict(three)
    assert doc["kind"] == "potential"
    assert "payoff_matrix" not in doc
    assert len(doc["utilities"]) == 3
    assert len(doc["potential"]) == 8


@pytest.mark.parametrize(
    "build",
    [
        lambda: gm.random_symmetric_identical_game(2, 3, seed=7),
        lambda: gm.random_potential_game(3, (2, 3, 2), seed=7),
        lambda: gm.random_congestion_game(2, 3, seed=7),
        lambda: gm.GameSpec(
            (2, 2),
            [np.array([[1.0, 0.25], [0.0, -1.0]]), np.array([[0.5, 0.5], [2.0, 0.0]])],
        ),
    ],
)
def test_save_load_round_trip_is_bit_exact(build, tmp_path):
    game = build()
    path = tmp_path / "game.json"
    gm.save_game(game, path)
    loaded = gm.load_game(path)
    assert loaded.action_counts == game.action_counts
    assert loaded.tags == game.tags
    for a, b in zip(loaded.utilities, game.utilities):
        np.testing.assert_array_equal(a, b)
    if game.potential is None:
        assert loaded.potential is None
    else:
        np.testing.assert_array_equal(loaded.potential, game.potential)


def test_load_game_uses_c_order_for_flat_tensors(tmp_path):
    flat = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    doc = {
        "players": 2,
        "actions": [2, 3],
        "kind": "general",
        "utilities": [flat, flat],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    game = gm.load_game(path)
    # row-major: index (a, b) reads flat[a * 3 + b]
    assert game.utilities[0][1][2] == 5.0
    assert game.utilities[0][0][1] == 1.0


@pytest.mark.parametrize(
    "mutate, msg",
    [
        (lambda d: d.pop("players"), "missing field 'players'"),
        (lambda d: d.update(actions=[2]), "has 1 entries for 2 players"),
        (lambda d: d.update(kind="mystery"), "unknown kind"),
        (lambda d: d.update(utilities=d["utilities"][:1]), "has 1 tensors for 2"),
        (
            lambda d: d["utilities"].__setitem__(1, [1.0, 2.0, 3.0]),
            r"utilities\[1\] has 3 entries, want 4",
        ),
        (lambda d: d.update(potential=[1.0, 2.0]), "'potential' has 2 entries, want 4"),
        (lambda d: d.update(kind="potential"), "no potential tensor"),
        # JSON integers only, and a symmetric tag that is true and holds
        (lambda d: d.update(players=2.9), "field 'players' must be an integer, got 2.9$"),
        (lambda d: d.update(players=True), "field 'players' must be an integer, got true$"),
        (lambda d: d.update(actions=[2, 2.5]),
         r"field 'actions' must be a list of integers, got \[2, 2.5\]$"),
        (lambda d: d.update(actions=[2, True]),
         r"field 'actions' must be a list of integers, got \[2, true\]$"),
        # a count below 1 is refused before any tensor is read against it
        (lambda d: d.update(actions=[-1, 2]),
         r"field 'actions' must hold positive counts, got \[-1, 2\]$"),
        (lambda d: d.update(actions=[-2, -2]),
         r"field 'actions' must hold positive counts, got \[-2, -2\]$"),
        (lambda d: (d.pop("utilities"), d.update(
            kind="identical_interest", actions=[-2, -2], payoff_matrix=[[1.0, 0.0], [0.0, 0.0]])),
         r"field 'actions' must hold positive counts, got \[-2, -2\]$"),
        (lambda d: d.update(symmetric="no"),
         "field 'symmetric' must be true when present, got \"no\"$"),
        (lambda d: d.update(symmetric=False),
         "field 'symmetric' must be true when present, got false$"),
        (lambda d: d.update(symmetric=True, utilities=[[1, 2, 3, 4], [5, 1, 7, 2]]),
         "symmetric tag but utilities are not exchangeable$"),
    ],
)
def test_load_game_field_errors(mutate, msg, tmp_path):
    doc = {
        "players": 2,
        "actions": [2, 2],
        "kind": "general",
        "utilities": [[1.0, 0.0, 0.0, 0.0]] * 2,
    }
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=msg):
        gm.load_game(path)


def test_load_game_rejects_broken_potential(tmp_path):
    doc = {
        "players": 2,
        "actions": [2, 2],
        "kind": "potential",
        "utilities": [[1.0, 0.0, 0.0, 0.0]] * 2,
        "potential": [0.0, 0.0, 0.0, 1.0],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="potential identity fails"):
        gm.load_game(path)


def test_a_broken_potential_s_witness_names_plain_integers(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "players": 2, "actions": [2, 2], "kind": "potential",
        "utilities": [[1.0, 0.0, 0.0, 0.0]] * 2, "potential": [0.0, 0.0, 0.0, 1.0]}))
    with pytest.raises(ValueError) as refusal:
        gm.load_game(path)
    assert str(refusal.value) == (
        f"{path}: potential identity fails: {{'player': 0, 'action': (1, 0), "
        f"'deviation': (0, 0), 'potential_diff': 0.0, 'utility_diff': 1.0}}")


def test_load_game_payoff_matrix_rules(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps(
            {
                "players": 2,
                "actions": [2, 2],
                "kind": "potential",
                "payoff_matrix": [[1.0, 0.0], [0.0, 0.0]],
            }
        )
    )
    with pytest.raises(ValueError, match="identical-interest shortcut"):
        gm.load_game(path)
    path.write_text(
        json.dumps(
            {
                "players": 2,
                "actions": [2, 3],
                "kind": "identical_interest",
                "payoff_matrix": [[1.0, 0.0], [0.0, 0.0]],
            }
        )
    )
    with pytest.raises(ValueError, match="'payoff_matrix' has shape"):
        gm.load_game(path)


def test_load_game_rejects_invalid_json(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text("{broken")
    with pytest.raises(ValueError, match="not valid JSON"):
        gm.load_game(path)
