"""Unit tests for the multi-learner dynamics driver and its reports."""

import dataclasses
import hashlib
import io
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from rmkit import dynamics as dyn
from rmkit import games as gm
from rmkit import hard_instances as hard
from rmkit import learners as ln
from rmkit import objectives as ob
from rmkit.dynamics import InitPolicy, RunConfig, Scheme


def _corner_game():
    """Identical interests, single 1 in the corner; everything about the
    first rounds of regret matching on it is computable by hand."""
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    return gm.GameSpec((2, 2), [a, a.copy()], tags=frozenset({gm.TAG_IDENTICAL}))


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def _rounds(profiles):
    """``Rounds`` columns of per-round lists of block vectors."""
    return dyn.Rounds(np.array([profile[i] for profile in profiles], dtype=np.float64)
                      for i in range(len(profiles[0])))


def test_run_config_coerces_strings():
    cfg = RunConfig(scheme="lazy", kind="rm+", epsilon=0.5)
    assert cfg.scheme is Scheme.LAZY_ALTERNATING
    assert cfg.kind is ln.Kind.RM_PLUS


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        (dict(max_rounds=0), "max_rounds"),
        (dict(epsilon=-1.0), "epsilon must be positive"),
        (dict(scheme="lazy"), "lazy scheme needs epsilon"),
        (dict(kind="drm+"), "drm\\+ needs a discount"),
        (dict(init="custom"), "custom init needs init_regrets"),
        (dict(init_regrets=[[1.0, 0.0]]), "only applies to custom init"),
        (dict(epsilon=math.nan), "epsilon must be positive and finite when set, got nan"),
        (dict(epsilon=math.inf), "epsilon must be positive and finite when set, got inf"),
    ],
)
def test_run_config_rejects(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        RunConfig(**kwargs)


def test_run_rejects_unknown_targets():
    with pytest.raises(TypeError, match="cannot run on"):
        dyn.run(42, RunConfig(max_rounds=1))


def test_run_validates_custom_block_counts():
    game = _corner_game()
    with pytest.raises(ValueError, match="one init regret vector per block"):
        dyn.run(game, RunConfig(init="custom", init_regrets=[[1.0, 0.0]], max_rounds=1))
    with pytest.raises(ValueError, match="one init strategy per block"):
        dyn.run(game, RunConfig(init_strategies=[[1.0, 0.0]], max_rounds=1))


# ---------------------------------------------------------------------------
# hand-derived first rounds on the corner game
# ---------------------------------------------------------------------------


def test_simultaneous_rm_first_rounds_by_hand():
    # round 1: both play (1/2, 1/2); u = (1/2, 0); <x,u> = 1/4;
    # g = (1/4, -1/4); play moves to (1, 0) for both; potential hits 1
    res = dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=3))
    assert res.rounds == 3 and res.stop_reason == "max_rounds"

    np.testing.assert_array_equal(res.history.strategies[0][0], [0.5, 0.5])
    np.testing.assert_array_equal(res.history.utilities[0][0], [0.5, 0.0])

    first = res.traces[0]
    assert first.br_gaps == [0.25, 0.25]
    assert first.kkt_gap == 0.5
    assert first.regret_l2 == [0.25, 0.25]
    assert first.regret_l1 == [0.25, 0.25]
    assert first.value == 1.0
    assert first.updated == [True, True]

    # from round 2 on the profile is the corner and gaps vanish; unplayed
    # action keeps losing regret: r = (1/4, -1/4 - (rounds-1))
    assert res.traces[1].br_gaps == [0.0, 0.0]
    assert res.traces[1].value == 1.0
    for state in res.states:
        np.testing.assert_array_equal(state.regrets, [0.25, -2.25])
    for x in res.final_profile:
        np.testing.assert_array_equal(x, [1.0, 0.0])


def test_simultaneous_rm_stops_when_all_gaps_reach_epsilon():
    res = dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=50, epsilon=1e-9))
    assert res.converged and res.stop_reason == "converged"
    assert res.rounds == 2  # round 1 has gaps 1/4; round 2 has gaps 0


def test_alternating_observes_the_predecessors_updates():
    # player 2 moves after player 1 within the round, so its round-1 utility
    # is measured against player 1's already-updated strategy (1, 0)
    res = dyn.run(_corner_game(), RunConfig(kind="rm", scheme="alternating", max_rounds=1))
    np.testing.assert_array_equal(res.history.utilities[0][0], [0.5, 0.0])
    np.testing.assert_array_equal(res.history.utilities[0][1], [1.0, 0.0])
    assert res.traces[0].br_gaps == [0.25, 0.5]
    np.testing.assert_array_equal(res.states[0].regrets, [0.25, -0.25])
    np.testing.assert_array_equal(res.states[1].regrets, [0.5, -0.5])
    # the recorded entering profile predates both updates
    np.testing.assert_array_equal(res.history.strategies[0][0], [0.5, 0.5])
    np.testing.assert_array_equal(res.history.strategies[0][1], [0.5, 0.5])


# ---------------------------------------------------------------------------
# lazy alternation
# ---------------------------------------------------------------------------


def _near_converged_config(**extra):
    # gaps at ((0.95, 0.05), (1, 0)): ~0.05 and 0 - both inside eps = 0.1
    return RunConfig(
        scheme="lazy",
        kind="rm+",
        epsilon=0.1,
        max_rounds=5,
        init_strategies=[np.array([0.95, 0.05]), np.array([1.0, 0.0])],
        **extra,
    )


def test_lazy_freezes_players_inside_epsilon():
    res = dyn.run(_corner_game(), _near_converged_config())
    assert res.converged and res.rounds == 1
    assert res.traces[0].updated == [False, False]
    for state, init in zip(res.states, ([0.95, 0.05], [1.0, 0.0])):
        np.testing.assert_array_equal(state.regrets, [0.0, 0.0])
        np.testing.assert_array_equal(state.strategy, init)


def test_lazy_regret_updates_accumulate_without_moving_play():
    res = dyn.run(_corner_game(), _near_converged_config(lazy_regret_updates=True))
    assert res.converged and res.rounds == 1
    assert res.traces[0].updated == [False, False]
    # player 1 saw u = (1, 0) against <x,u> = 0.95: positive regret ~0.05
    # lands on the first action, but the played strategy stays put
    r = res.states[0].regrets
    assert r[0] == pytest.approx(0.05, abs=1e-12)
    assert r[1] == 0.0
    np.testing.assert_array_equal(res.states[0].strategy, [0.95, 0.05])


def test_lazy_updates_only_players_beyond_epsilon():
    game = gm.random_potential_game(3, (3, 2, 4), seed=12)
    res = dyn.run(game, RunConfig(scheme="lazy", kind="rm+", epsilon=0.05, max_rounds=400))
    assert res.converged
    for rec in res.traces:
        for i, updated in enumerate(rec.updated):
            if not updated:
                assert rec.br_gaps[i] <= 0.05


# ---------------------------------------------------------------------------
# potential telescoping along lazy runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, discount",
    [("rm+", None), ("drm+", 0.6)],
)
def test_lazy_potential_gains_telescope_across_updates(kind, discount):
    # every realized update lifts the potential by at least
    # gap^2 / l1(pre-discount post-update regrets); the discounted kind
    # stores alpha * [r+g]+, so divide the stored norm by alpha
    game = gm.random_potential_game(3, (3, 2, 4), seed=21)
    res = dyn.run(
        game,
        RunConfig(scheme="lazy", kind=kind, discount=discount, epsilon=0.05, max_rounds=600),
    )
    assert res.converged
    values = [gm.mixed_potential(game, res.history.strategies[0])] + [
        rec.value for rec in res.traces
    ]
    diffs = np.diff(values)
    assert float(diffs.min()) >= -1e-12  # lazy ascent never loses potential
    updates = 0
    for t, rec in enumerate(res.traces, start=1):
        floor = 0.0
        for i in np.flatnonzero(rec.updated):
            # the trace's l1 norm is that of the stored regrets' positive part
            l1 = rec.regret_l1[i] / (discount or 1.0)
            if l1 > 0.0:
                floor += rec.br_gaps[i] ** 2 / l1
            updates += 1
        assert diffs[t - 1] >= floor - 1e-9
    assert 0 < updates < 3 * res.rounds  # the lazy scheme skipped some blocks


# ---------------------------------------------------------------------------
# determinism, lockstep, and recorded artifacts
# ---------------------------------------------------------------------------


def test_runs_are_deterministic_and_traces_serialize_identically(tmp_path):
    game = gm.random_potential_game(2, (3, 3), seed=33)
    cfg = dict(kind="rm+", max_rounds=200)
    a = dyn.run(game, RunConfig(**cfg))
    b = dyn.run(game, RunConfig(**cfg))
    assert [r.kkt_gap for r in a.traces] == [r.kkt_gap for r in b.traces]
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    dyn.write_trace_csv(a.traces, pa)
    dyn.write_trace_csv(b.traces, pb)
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("kind", ["rm", "rm+"])
def test_symmetric_game_keeps_identical_learners_in_lockstep(kind):
    game = gm.random_symmetric_identical_game(2, 4, seed=9)
    res = dyn.run(game, RunConfig(kind=kind, max_rounds=200))
    for profile in res.history.strategies:
        np.testing.assert_array_equal(profile[0], profile[1])
    np.testing.assert_array_equal(res.states[0].regrets, res.states[1].regrets)


def test_trace_csv_rows_reproduce_the_records_exactly(tmp_path):
    game = gm.random_potential_game(2, (3, 3), seed=14)
    res = dyn.run(game, RunConfig(kind="rm+", max_rounds=40))
    path = tmp_path / "trace.csv"
    dyn.write_trace_csv(res.traces, path)
    lines = path.read_text().splitlines()
    n = game.num_players
    assert lines[0] == dyn.TRACE_HEADER
    assert len(lines) == 1 + len(res.traces) * (n + 1)
    for t, rec in enumerate(res.traces):
        block = lines[1 + t * (n + 1) : 1 + (t + 1) * (n + 1)]
        for i in range(n):
            row = block[i].split(",")
            assert row[0] == str(rec.round) and row[1] == str(i)
            # %.17g fields round-trip to the exact stored doubles
            assert float(row[2]) == rec.br_gaps[i]
            assert float(row[3]) == rec.kkt_gap
            assert float(row[4]) == rec.regret_l2[i]
            assert float(row[5]) == rec.regret_l1[i]
            assert float(row[6]) == rec.value
            assert row[7] == ("1" if rec.updated[i] else "0")
        summary = block[n].split(",")
        assert summary[1] == "-1"
        assert float(summary[2]) == max(rec.br_gaps)
        assert float(summary[4]) == max(rec.regret_l2)
        assert float(summary[5]) == max(rec.regret_l1)
        assert summary[7] == str(sum(rec.updated))


def test_strategies_jsonl_round_trip_is_bit_exact(tmp_path):
    res = dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=5))
    path = tmp_path / "strategies.jsonl"
    dyn.write_strategies_jsonl(res.history, path)
    first = json.loads(path.read_text().splitlines()[0])
    assert first["round"] == 1 and len(first["blocks"]) == 2
    rounds = dyn.read_strategies_jsonl(path)
    assert len(rounds) == 5
    for recorded, loaded in zip(res.history.strategies, rounds):
        for a, b in zip(recorded, loaded):
            np.testing.assert_array_equal(np.asarray(a), b)


def test_writers_reuse_a_round_only_when_its_bits_repeat(tmp_path):
    # gaps (2), kkt gap, l2 norms (2), l1 norms (2), value; the signed row
    # differs from the others only in the sign of a zero gap
    row = [0.5, 0.0, 0.5, 1.0, 0.0, 2.0, 0.0, float("nan")]
    signed = [0.5, -0.0] + row[2:]
    traces = dyn.Traces(np.array([row, row, signed, signed, row]),
                        np.array([[True, False]] * 5))
    whole = tmp_path / "whole.csv"
    dyn.write_trace_csv(traces, whole)
    lines = [dyn.TRACE_HEADER]
    for t in range(len(traces)):  # each round written alone, with no round before it
        part = tmp_path / f"round{t}.csv"
        dyn.write_trace_csv(traces[t : t + 1], part)
        lines += part.read_text().splitlines()[1:]
    assert whole.read_text().splitlines() == lines
    assert "3,1,-0," in whole.read_text() and "5,1,0," in whole.read_text()
    # one writer fed a round at a time compares each round with the last one
    # written, by its bits
    streamed = tmp_path / "streamed.csv"
    with open(streamed, "wb") as fh:
        writer = dyn.TraceCsvWriter(fh)
        for t in range(len(traces)):
            writer.write(traces[t : t + 1])
    assert streamed.read_bytes() == whole.read_bytes()

    pure, signed = [[1.0, 0.0], [0.25, 0.75]], [[1.0, -0.0], [0.25, 0.75]]
    profiles = [pure, pure, signed, signed, pure]
    history = dyn.PlayHistory(Scheme.SIMULTANEOUS, _rounds(profiles))
    path = tmp_path / "strategies.jsonl"
    dyn.write_strategies_jsonl(history, path)
    assert path.read_text().splitlines() == [
        json.dumps({"round": t, "blocks": blocks}) for t, blocks in enumerate(profiles, 1)]
    streamed = tmp_path / "streamed.jsonl"
    with open(streamed, "wb") as fh:
        writer = dyn.StrategiesJsonlWriter(fh)
        for t in range(history.rounds):
            writer.write(dyn.PlayHistory(Scheme.SIMULTANEOUS, history.strategies[t : t + 1]))
    assert streamed.read_bytes() == path.read_bytes()


def test_read_strategies_jsonl_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"round": 1, "blocks": [[1.0, 0.0]]}\n{oops\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        dyn.read_strategies_jsonl(path)
    # finite entries whose sum overflows are read; a number past the
    # largest float is infinite
    path.write_text('{"round": 1, "blocks": [[1e308, 1e308]]}\n')
    assert dyn.read_strategies_jsonl(path).blocks[0].tolist() == [[1e308, 1e308]]
    path.write_text('{"round": 1, "blocks": [[1e308, 1e309]]}\n')
    with pytest.raises(ValueError, match="bad.jsonl:1: blocks are not finite"):
        dyn.read_strategies_jsonl(path)


def test_read_strategies_jsonl_rejects_blocks_that_change_between_lines(tmp_path):
    path = tmp_path / "ragged.jsonl"
    first = '{"round": 1, "blocks": [[1.0, 0.0], [0.0, 1.0]]}'
    for second, sizes in (('[[1.0, 0.0]]', "[2]"), ('[[1.0, 0.0], [1.0]]', "[2, 1]")):
        path.write_text(first + '\n{"round": 2, "blocks": ' + second + "}\n")
        with pytest.raises(ValueError) as info:
            dyn.read_strategies_jsonl(path)
        assert str(info.value) == f"{path}:2: block sizes {sizes} differ from line 1's [2, 2]"


def test_read_strategies_jsonl_reuses_only_lines_that_repeat_after_the_round(tmp_path):
    pure = '"blocks": [[1.0, 0.0], [0.0, 1.0]]}'
    signed = '"blocks": [[1.0, -0.0], [0.0, 1.0]]}'
    lines = ['{"round": 1, ' + pure, '{"round": 2, ' + pure, '{"round": 3, ' + signed,
             '{"round": 4,  ' + signed, '{"blocks": [[1.0, -0.0], [0.0, 1.0]], "round": 5}',
             '{"round": 6, ' + pure]
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join(lines) + "\n")
    got = dyn.read_strategies_jsonl(path)
    for i, block in enumerate(got.blocks):
        want = np.array([json.loads(line)["blocks"][i] for line in lines])
        assert block.tobytes() == want.tobytes()
    # a round that is not a JSON integer is parsed, and refused, even before
    # a repeated remainder
    path.write_text('{"round": 1, ' + pure + '\n{"round": 02, ' + pure + "\n")
    with pytest.raises(ValueError, match="s.jsonl:2: not valid JSON"):
        dyn.read_strategies_jsonl(path)


def test_the_reader_yields_chunks_of_stretches_that_expand_to_the_whole_recording(
        tmp_path, monkeypatch):
    # the padded m=4 walk repeats its lines in stretches; chunks of 7 of them
    res = dyn.run(*_walk(hard.build_padded, 4, 300)("rm", "simultaneous"))
    path = tmp_path / "walk.jsonl"
    dyn.write_strategies_jsonl(res.history, path)
    monkeypatch.setattr(dyn, "_CHUNK_ROWS", 7)
    chunks = list(dyn.iter_strategies_jsonl(path))
    sizes = [len(chunk.counts) for chunk in chunks]
    assert sizes[:-1] == [7] * (len(sizes) - 1) and 0 < sizes[-1] <= 7
    counts = np.concatenate([chunk.counts for chunk in chunks])
    assert counts.dtype == np.int64 and counts.min() >= 1
    assert [len(chunk) for chunk in chunks] == [int(chunk.counts.sum()) for chunk in chunks]
    assert counts.sum() == 300 > 3 * len(counts)
    # each stretch is a run of lines that repeat the line before but for the
    # round number, so no stretch has the bits of the one before it
    rows = [np.concatenate([chunk.blocks[i] for chunk in chunks]) for i in range(2)]
    assert not dyn._repeats(rows)[1:].any()
    whole = dyn.read_strategies_jsonl(path)
    for i, block in enumerate(res.history.strategies.expanded().blocks):
        expanded = np.concatenate([chunk.expanded().blocks[i] for chunk in chunks])
        assert np.repeat(rows[i], counts, axis=0).tobytes() == expanded.tobytes()
        assert expanded.tobytes() == whole.blocks[i].tobytes() == block.tobytes()
        assert not whole.blocks[i].flags.writeable
    # one row per round, each counted once
    assert whole.counts.tolist() == [1] * 300
    # a chunk is handed over once the line that opens the stretch after its
    # last one is read, before that line is parsed
    lines = path.read_text().splitlines()
    opens = int(chunks[0].counts.sum()) + 1
    lines[opens - 1] = lines[opens - 1].replace(f'{{"round": {opens}, ', '{"round": 0, ')
    path.write_text("\n".join(lines) + "\n")
    reader = dyn.iter_strategies_jsonl(path)
    assert next(reader).counts.tolist() == chunks[0].counts.tolist()
    with pytest.raises(ValueError, match=f"walk.jsonl:{opens}: round 0, expected {opens}"):
        next(reader)


# ---------------------------------------------------------------------------
# the run record: columns behind per-round views
# ---------------------------------------------------------------------------


def test_the_record_is_read_only_columns_behind_per_round_views():
    game = gm.random_potential_game(3, (2, 3, 4), seed=41)
    res = dyn.run(game, RunConfig(kind="rm+", max_rounds=150))
    strategies, utilities, traces = res.history.strategies, res.history.utilities, res.traces
    # one row per stretch: the run reaches a fixed point, whose rounds are one row
    counts = traces.counts
    assert counts.sum() == 150 and counts[-1] > 1 and not counts.flags.writeable
    for rounds in (strategies, utilities):
        assert len(rounds) == 150 and rounds.counts is counts
        rows = len(counts)
        assert [b.shape for b in rounds.blocks] == [(rows, 2), (rows, 3), (rows, 4)]
        assert all(b.dtype == np.float64 and not b.flags.writeable for b in rounds.blocks)
        assert [len(row) for row in rounds] == [3] * 150
        last = rounds[-1]  # a list of block rows
        assert isinstance(last, list)
        assert all(np.array_equal(x, b[-1]) for x, b in zip(last, rounds.blocks))
        part = rounds[10:20:3]
        assert len(part) == 4 and part == [rounds[t] for t in (10, 13, 16, 19)]
    with pytest.raises(ValueError):
        strategies[0][0][0] = 1.0
    assert isinstance(traces[0], dyn.TraceRecord) and traces[-1].round == 150
    assert [rec.round for rec in traces[7:10]] == [8, 9, 10]
    assert traces[7:10] == [traces[t] for t in (7, 8, 9)]
    records = list(traces)
    for name in ("br_gaps", "kkt_gap", "regret_l2", "regret_l1", "value", "updated"):
        column = np.repeat(getattr(traces, name), counts, axis=0)
        assert column.tolist() == [getattr(rec, name) for rec in records]
    again = dyn.run(game, RunConfig(kind="rm+", max_rounds=150))
    assert again.traces == traces and again.history == res.history
    assert again.traces[:149] != traces


def test_a_chunk_of_stretches_indexes_and_slices_by_round_without_expanding():
    rows, counts = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]), np.array([2, 10**12, 3])
    rounds = dyn.Rounds([rows], counts)
    assert len(rounds) == 10**12 + 5
    assert [rounds[t][0].tolist() for t in (0, 1, 2, -4, -3, -1)] == [
        [1.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.0, 1.0], [0.0, 1.0]]
    with pytest.raises(IndexError):
        rounds[10**12 + 5]
    assert rounds.ends.tolist() == [2, 10**12 + 2, 10**12 + 5]
    assert rounds.starts.tolist() == [0, 2, 10**12 + 2]
    # a step-1 slice is the stretches its rounds fall in, the first and last
    # cut to them; any other step gives one row per round
    part = rounds[1:10**12 + 3]
    assert part.counts.tolist() == [1, 10**12, 1] and not part.counts.flags.writeable
    assert part.blocks[0].tolist() == rows.tolist() and len(part) == 10**12 + 2
    inside = rounds[5:-10]
    assert inside.counts.tolist() == [10**12 - 10] and inside.blocks[0].tolist() == [[0.5, 0.5]]
    assert rounds[3:3].counts.tolist() == [] and len(rounds[3:3]) == 0
    assert rounds.counts.tolist() == [2, 10**12, 3]  # the cut counts are copies
    stepped = rounds[10**12 - 1:10**12 + 4:2]
    assert stepped.counts.tolist() == [1, 1, 1]
    assert stepped.blocks[0].tolist() == [[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]]
    small = dyn.Rounds([rows], np.array([2, 1, 3]))
    assert small == small.expanded() and small.expanded().ends.tolist() == [1, 2, 3, 4, 5, 6]
    for a in range(7):
        for b in range(7):
            assert small[a:b].expanded() == small.expanded()[a:b]
    assert small.expanded().blocks[0].tolist() == [rows[j].tolist() for j in (0, 0, 1, 2, 2, 2)]
    traces = dyn.Traces(np.arange(24.0).reshape(3, 8), np.eye(3, 2, dtype=bool),
                        range(5, 10**12 + 10), counts)
    assert len(traces) == 10**12 + 5
    assert traces[-1].round == 10**12 + 9 and traces[-1].value == 23.0
    assert traces[1].updated == [True, False] and traces[2].updated == [False, True]
    cut = traces[1:4]
    assert cut.rounds == range(6, 9) and cut.counts.tolist() == [1, 2]
    assert cut.columns[:, 0].tolist() == [0.0, 8.0]
    assert cut.expanded().columns[:, 0].tolist() == [0.0, 8.0, 8.0]


def test_equality_compares_stretch_by_stretch_without_expanding():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    chunk = dyn.Rounds([rows], np.array([10**12, 3]))
    # the same rounds, the long stretch split in two rows
    split = dyn.Rounds([rows[[0, 0, 1]]], np.array([4 * 10**11, 6 * 10**11, 3]))
    assert chunk == split and split == chunk
    # one segment differs
    other = dyn.Rounds([np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])],
                       np.array([4 * 10**11, 6 * 10**11, 3]))
    assert chunk != other and other != chunk
    # the same rows over stretches that end elsewhere, and fewer rounds
    assert chunk != dyn.Rounds([rows], np.array([10**12 - 1, 4]))
    assert chunk != dyn.Rounds([rows], np.array([10**12, 2]))
    # traces compare their flags exactly and their nan values as equal
    columns = np.array([[0.5, 0.5, 1.0, 1.0, np.nan], [0.0, 0.0, 2.0, 2.0, np.nan]])
    updated = np.array([[True], [False]])
    traces = dyn.Traces(columns, updated, counts=np.array([10**12, 3]))
    assert traces == dyn.Traces(columns[[0, 0, 1]], updated[[0, 0, 1]],
                                counts=np.array([4 * 10**11, 6 * 10**11, 3]))
    assert traces != dyn.Traces(columns[[0, 0, 1]], np.array([[True], [False], [False]]),
                                counts=np.array([4 * 10**11, 6 * 10**11, 3]))
    moved = columns[[0, 0, 1]].copy()
    moved[1, 0] = 0.25
    assert traces != dyn.Traces(moved, updated[[0, 0, 1]],
                                counts=np.array([4 * 10**11, 6 * 10**11, 3]))
    assert traces != dyn.Traces(columns, updated, range(2, 10**12 + 5), np.array([10**12, 3]))


def test_play_history_holds_rounds_columns():
    a, b = np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0])
    strategies = _rounds([[a, b], [b[:2], b]])
    history = dyn.PlayHistory(Scheme.SIMULTANEOUS, strategies, _rounds([[a, b], [a, b]]))
    assert history.rounds == 2
    assert [blk.shape for blk in history.strategies.blocks] == [(2, 2), (2, 3)]
    assert history.utilities == [[a, b], [a, b]]
    assert history.strategies == [[a, b], [b[:2], b]]  # == iterates round by round
    assert np.array_equal(history.strategies[-1][0], b[:2])
    with pytest.raises(IndexError):
        history.strategies[2]
    assert dyn.PlayHistory(Scheme.SIMULTANEOUS, strategies, None).utilities is None
    empty = dyn.PlayHistory(Scheme.SIMULTANEOUS)
    assert empty.rounds == 0 and list(empty.strategies) == [] and empty.utilities == []


def test_a_long_walk_keeps_under_400_bytes_per_round():
    config = RunConfig(kind="rm", max_rounds=10_000, init_strategies=hard.pure_init_strategies(6))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = dyn.run(hard.build_padded(6), config)
        kept, peak = (b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # per round: strategies and gradients of two 7-action blocks (224 B), a
    # trace row (64 B) and the updated flags (2 B), plus the buffers' slack
    assert result.rounds == 10_000
    assert kept / result.rounds <= 400 and peak / result.rounds <= 400


def test_a_run_reserves_no_rows_for_its_round_limit():
    game = gm.random_potential_game(2, (3, 3), seed=5)
    config = RunConfig(scheme="lazy", kind="rm+", epsilon=0.05, max_rounds=10**7)
    dyn.run(game, RunConfig(scheme="lazy", kind="rm+", epsilon=0.05))  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = dyn.run(game, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.converged and result.rounds <= 100
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# init policies
# ---------------------------------------------------------------------------


def test_threshold_init_seeds_the_documented_constant():
    game = _corner_game()
    L = ob.multilinear_smoothness_bound(game.potential)
    want = ln.threshold_init_value(2, L)
    res = dyn.run(game, RunConfig(init="threshold", max_rounds=1))
    for i in range(2):
        # round 1 steps rm+ from the seeded regrets with the recorded play
        x, u = res.history.strategies[0][i], res.history.utilities[0][i]
        np.testing.assert_array_equal(res.states[i].regrets,
                                      ln.positive_part(np.full(2, want) + (u - float(x @ u))))
    assert want >= 18.0  # 9 sqrt(2) * sqrt(2), up to rounding


def test_threshold_init_needs_a_potential_or_objective():
    game = gm.GameSpec((2, 2), [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="threshold init needs"):
        dyn.run(game, RunConfig(init="threshold", max_rounds=1))


def test_custom_init_regrets_and_strategies_shape_round_one():
    game = _corner_game()
    res = dyn.run(
        game,
        RunConfig(init="custom", init_regrets=[[1.0, 0.0], [0.0, 1.0]], max_rounds=1),
    )
    np.testing.assert_array_equal(res.history.strategies[0][0], [1.0, 0.0])
    np.testing.assert_array_equal(res.history.strategies[0][1], [0.0, 1.0])

    res = dyn.run(
        game,
        RunConfig(init_strategies=[np.array([0.25, 0.75]), np.array([1.0, 0.0])], max_rounds=1),
    )
    np.testing.assert_array_equal(res.history.strategies[0][0], [0.25, 0.75])
    np.testing.assert_array_equal(res.history.strategies[0][1], [1.0, 0.0])


# ---------------------------------------------------------------------------
# objectives as targets
# ---------------------------------------------------------------------------


def test_run_on_the_cycle_objective_records_values():
    res = dyn.run(ob.make_cycle_polynomial(), RunConfig(kind="rm", max_rounds=10))
    assert res.rounds == 10
    assert all(len(rec.br_gaps) == 1 for rec in res.traces)
    assert all(math.isfinite(rec.value) for rec in res.traces)


def test_run_without_a_potential_reports_nan_values():
    game = gm.GameSpec((2, 2), [np.eye(2), 1.0 - np.eye(2)])
    res = dyn.run(game, RunConfig(kind="rm+", max_rounds=3))
    assert all(math.isnan(rec.value) for rec in res.traces)
    assert res.traces == dyn.run(game, RunConfig(kind="rm+", max_rounds=3)).traces


# ---------------------------------------------------------------------------
# the round loop against the validated single-step reference
# ---------------------------------------------------------------------------


def _constant_sum_game():
    # no pure equilibrium, so lazy runs keep both skipping and stepping
    A = np.random.default_rng(3).random((3, 4))
    return gm.GameSpec((3, 4), [A, 1.0 - A])


@pytest.mark.parametrize("kind", ["rm", "rm+", "drm+"])
@pytest.mark.parametrize(
    "scheme, lazy_regret_updates",
    [("simultaneous", False), ("alternating", False), ("lazy", False), ("lazy", True)],
)
def test_the_loop_replays_bit_for_bit_through_the_reference_step(
        kind, scheme, lazy_regret_updates):
    game = _constant_sum_game()
    config = RunConfig(
        scheme=scheme, kind=kind, max_rounds=150,
        discount=0.9 if kind == "drm+" else None,
        epsilon=0.02 if scheme == "lazy" else None,
        lazy_regret_updates=lazy_regret_updates)
    res = dyn.run(game, config)
    states = [ln.new_learner(kind, m, discount=config.discount) for m in game.action_counts]
    skipped = 0
    for t, rec in enumerate(res.traces):
        for i, state in enumerate(states):
            assert np.array_equal(res.history.strategies[t][i], state.strategy)
        for i, u in enumerate(res.history.utilities[t]):
            if rec.updated[i]:
                states[i], _ = ln.step(states[i], u)
                continue
            skipped += 1
            if lazy_regret_updates:
                stepped, _ = ln.step(states[i], u)
                states[i] = dataclasses.replace(stepped, strategy=states[i].strategy)
        assert rec.regret_l2 == [ln.regret_l2(s) for s in states]
        assert rec.regret_l1 == [ln.regret_l1_positive(s) for s in states]
    assert (skipped > 0) == (scheme == "lazy")
    for got, want in zip(res.states, states):
        assert np.array_equal(got.regrets, want.regrets)
        assert np.array_equal(got.strategy, want.strategy)
        assert np.array_equal(ln.current_strategy(got), ln.current_strategy(want))


# ---------------------------------------------------------------------------
# the gradient kernel, hoisted once per run
# ---------------------------------------------------------------------------


def _assert_same_run(a, b):
    assert a.rounds == b.rounds and a.stop_reason == b.stop_reason
    assert a.traces == b.traces
    for got, want in ((a.history.strategies, b.history.strategies),
                      (a.history.utilities, b.history.utilities)):
        assert len(got) == len(want)
        for row_a, row_b in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(row_a, row_b))
    for x, y in zip(a.states, b.states):
        assert np.array_equal(x.regrets, y.regrets) and np.array_equal(x.strategy, y.strategy)


@pytest.mark.parametrize("scheme", ["simultaneous", "alternating", "lazy"])
@pytest.mark.parametrize("shape", [(4,), (3, 4), (3, 4, 5), (5, 7, 3), (3, 1, 4), (2, 2, 2, 3),
                                   (9, 11, 13, 7), (33, 37, 41)])
def test_a_hoisted_objective_gradient_gives_the_bits_of_per_call_folds(shape, scheme):
    game = gm.normalize_game(gm.random_potential_game(len(shape), shape, seed=sum(shape)))
    # an identical-interest game whose players and potential are one tensor,
    # so that its blocks and value share the partial as the objective's do
    shared = gm.GameSpec(shape, [game.potential] * len(shape), tags={gm.TAG_IDENTICAL})
    assert all(u is shared.potential for u in shared.utilities)
    obj = ob.make_multilinear(game)
    assert isinstance(obj.block_gradient, gm.BlockGradients)
    # plain functions are not the kernel, so run calls them per call
    per_call = dataclasses.replace(obj, block_gradient=lambda p, i: obj.block_gradient(p, i),
                                   value=lambda p: obj.value(p))
    config = RunConfig(scheme=scheme, kind="rm+", max_rounds=200,
                       epsilon=0.005 if scheme == "lazy" else None)
    _assert_same_bits(dyn.run(obj, config), dyn.run(per_call, config))
    _assert_same_bits(dyn.run(shared, config), dyn.run(_unfolded(shared), config))


def test_a_rescaled_multilinear_objective_takes_the_per_call_path(monkeypatch):
    obj = ob.make_multilinear(gm.random_potential_game(3, (4, 5, 6), seed=4))
    scaled = ob.normalize_objective(obj)

    def hoisted(self, lane=None):
        raise AssertionError("run hoisted the kernel behind a rescaled handle")

    monkeypatch.setattr(gm.BlockGradients, "hoisted", hoisted)
    res = dyn.run(scaled, RunConfig(kind="rm+", max_rounds=20))
    assert res.rounds == 20
    # each round's value is the rescaled value of the profile it ends on
    ends = [*list(res.history.strategies)[1:], res.final_profile]
    assert res.traces.value.tolist() == [scaled.value(p) for p in ends]


def test_run_folds_a_multilinear_objective_through_the_hoisted_kernel(monkeypatch):
    obj = ob.make_multilinear(gm.random_potential_game(3, (2, 3, 4), seed=3))

    def per_call(self, profile, i):
        raise AssertionError("run moved an axis per call")

    monkeypatch.setattr(gm.BlockGradients, "__call__", per_call)
    assert dyn.run(obj, RunConfig(kind="rm+", max_rounds=5)).rounds == 5


def test_a_run_on_an_objective_keeps_no_copy_of_its_potential():
    game = gm.normalize_game(gm.random_potential_game(3, (16, 16, 16), seed=5))
    config = RunConfig(kind="rm+", max_rounds=50)
    nbytes = game.potential.nbytes
    for target in (ob.make_multilinear(game), game):  # first-call allocations
        dyn.run(target, config)

    def run_peak(target):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = dyn.run(target, config)
        peak = tracemalloc.get_traced_memory()[1] - base
        del result
        return peak

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        obj = ob.make_multilinear(game)
        objective_peak = run_peak(obj)
        kept = tracemalloc.get_traced_memory()[0] - start
        game_peak = run_peak(game)
    finally:
        tracemalloc.stop()
    # the handle keeps none of what the run made
    assert kept <= nbytes
    # the game run holds two moved copies of 32 KiB (blocks 1 and 2; block
    # 0's is a view); the objective run one, block 2's, beside a shared
    # partial of 2 KiB: within half a copy of one copy less than the game's
    assert game_peak - 3 * nbytes // 2 <= objective_peak <= game_peak - nbytes // 2


def _objective_with_gradient(bad):
    inner = ob.make_multilinear(gm.normalize_game(gm.random_potential_game(2, (2, 3), seed=1)))

    def block_gradient(profile, i):
        return bad if i == 1 else inner.block_gradient(profile, i)

    return dataclasses.replace(inner, block_gradient=block_gradient)


@pytest.mark.parametrize("scheme", ["simultaneous", "alternating"])
def test_run_rejects_a_non_finite_gradient(scheme):
    obj = _objective_with_gradient(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        dyn.run(obj, RunConfig(scheme=scheme, kind="rm", max_rounds=3))


@pytest.mark.parametrize("scheme", ["simultaneous", "alternating"])
def test_run_rejects_a_gradient_of_the_wrong_shape(scheme):
    obj = _objective_with_gradient(np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        dyn.run(obj, RunConfig(scheme=scheme, kind="rm", max_rounds=3))


def test_progress_callback_fires_on_the_configured_cadence(monkeypatch):
    monkeypatch.setattr(dyn, "PROGRESS_EVERY", 10)
    ticks = []
    dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=25), progress=ticks.append)
    assert ticks == [10, 20]


# ---------------------------------------------------------------------------
# a repeated round's observations and value, reused with their bits
# ---------------------------------------------------------------------------


def _unfolded(game):
    """``game`` as an objective whose gradient and value give the game's bits
    but are not the kernel, so that ``run`` calls both every round."""
    kernel = gm.BlockGradients(game.utilities)
    return dataclasses.replace(ob.make_multilinear(game),
                               block_gradient=lambda profile, i: kernel(profile, i),
                               value=lambda profile: gm.mixed_potential(game, profile))


def _moves(res):
    """Per round and block, whether the round changed the bits of the block's
    strategy."""
    ends = [np.concatenate([b, s.strategy[None]]).view(np.int64)
            for b, s in zip(res.history.strategies.blocks, res.states)]
    return np.stack([(e[1:] != e[:-1]).any(axis=1) for e in ends], axis=1)


@pytest.mark.parametrize("kind", ["rm", "rm+", "drm+"])
@pytest.mark.parametrize("scheme, lazy_regret_updates", [
    ("simultaneous", False), ("alternating", False), ("lazy", False), ("lazy", True)])
@pytest.mark.parametrize("case", [
    lambda: (hard.build_padded(4), hard.pure_init_strategies(4), 3_000),
    lambda: (hard.build_padded(6), hard.pure_init_strategies(6), 3_000),
    lambda: (hard.build_uniform_init(6), None, 3_000),
    # rm+ settles on a fixed point here
    lambda: (gm.random_potential_game(3, (16, 16, 16), seed=3), None, 300),
], ids=["padded_m4", "padded_m6", "uniform_init_m6", "potential_3x16"])
def test_repeated_rounds_reuse_observations_with_the_bits_of_fresh_ones(
        case, scheme, lazy_regret_updates, kind, monkeypatch):
    game, init, rounds = case()
    config = RunConfig(scheme=scheme, kind=kind, max_rounds=rounds, init_strategies=init,
                       discount=0.9 if kind == "drm+" else None,
                       epsilon=1e-3 if scheme == "lazy" else None,
                       lazy_regret_updates=lazy_regret_updates)
    monkeypatch.setattr(dyn, "PROGRESS_EVERY", 100)
    runs = []
    for target in (game, _unfolded(game)):
        ticks = []
        runs.append((dyn.run(target, config, progress=ticks.append), ticks))
    (reused, reused_ticks), (fresh, fresh_ticks) = runs
    _assert_same_bits(reused, fresh)
    assert reused_ticks == fresh_ticks == list(range(100, reused.rounds + 1, 100))


def test_the_reuse_cases_move_play_right_after_repeated_rounds():
    # the padded m=6 rm walk under the alternating scheme, a case above, has
    # both rounds where a reuse would go stale
    res = dyn.run(hard.build_padded(6), RunConfig(
        scheme="alternating", kind="rm", max_rounds=3_000,
        init_strategies=hard.pure_init_strategies(6)))
    moved = _moves(res)
    value = np.ascontiguousarray(res.traces.value).view(np.int64)
    gradients = res.history.utilities.blocks[1].view(np.int64)
    after_repeats = np.flatnonzero(~moved[:-1].any(axis=1)) + 1
    # a round that moves play, so that its value is not the round before's
    assert any(moved[t].any() and value[t] != value[t - 1] for t in after_repeats)
    # a round in which block 0 moves, so that block 1 observes a new gradient
    assert any(moved[t, 0] and (gradients[t] != gradients[t - 1]).any() for t in after_repeats)


def _logged_folds(monkeypatch):
    """Log the kernel's folds: the block of each ``_fold_block`` call, and per
    ``fold`` the size of the folded tensor and whether it folds every axis,
    as a value does."""
    blocks, folds = [], []
    fold_block, fold = gm._fold_block, gm.fold
    monkeypatch.setattr(gm, "_fold_block", lambda *a: blocks.append(a[2]) or fold_block(*a))
    monkeypatch.setattr(gm, "fold",
                        lambda t, v: folds.append((t.size, len(v) == t.ndim)) or fold(t, v))
    return blocks, folds


def test_the_kernel_folds_once_per_block_for_each_round_whose_profile_changed(monkeypatch):
    gradient_folds, folds = _logged_folds(monkeypatch)
    res = dyn.run(*_padded_m6(3_000))
    moved = _moves(res).any(axis=1)
    # round 1 and every round after one that moved play observe afresh
    assert gradient_folds == [0, 1] * (1 + int(moved[:-1].sum()))
    # the value folds at round 1 and at the end of every round that moved play
    value_folds = [size for size, value in folds if value]
    assert len(value_folds) == 1 + int(moved[1:].sum())
    assert len(value_folds) < res.rounds // 50


def test_the_kernel_folds_every_round_on_a_tensor_past_the_reuse_size(monkeypatch):
    game, config = _padded_m6(3_000)
    assert math.prod(game.action_counts) == 49
    runs = []
    for most in (49, 48):
        monkeypatch.setattr(dyn, "_REUSE_ENTRIES", most)
        gradient_folds, folds = _logged_folds(monkeypatch)
        look_aheads = []
        look_ahead = dyn._rm_look_ahead
        monkeypatch.setattr(dyn, "_rm_look_ahead",
                            lambda *a: look_aheads.append(a) or look_ahead(*a))
        runs.append((dyn.run(game, config), len(gradient_folds),
                     sum(value for _, value in folds), len(look_aheads)))
        monkeypatch.undo()
    (reused, *reused_folds, jumps), (folded, *folds, no_jumps) = runs
    _assert_same_bits(reused, folded)
    assert max(reused_folds) < reused.rounds // 50
    assert folds == [2 * folded.rounds, folded.rounds]
    # the same limit decides the jump: within it rm jumps the walk's
    # stretches, past it every round is stepped
    assert jumps > 0 and no_jumps == 0


@pytest.mark.parametrize("scheme", ["simultaneous", "alternating", "lazy"])
def test_a_round_of_a_three_block_objective_folds_its_potential_twice(scheme, monkeypatch):
    obj = ob.make_multilinear(gm.random_potential_game(3, (4, 5, 6), seed=37))
    # every round observes, as on a tensor past the reuse size
    monkeypatch.setattr(dyn, "_REUSE_ENTRIES", 0)
    _, folds = _logged_folds(monkeypatch)
    res = dyn.run(obj, RunConfig(scheme=scheme, kind="rm+", max_rounds=20,
                                 epsilon=1e-9 if scheme == "lazy" else None))
    moved = _moves(res)[:, -1]
    assert res.rounds >= 12 and moved[:12].all()
    # round 1 folds the partial for blocks 0 and 1; then each round folds
    # block 2's moved copy and, for its value, the partial again if block 2
    # moved: two full folds, not four
    assert sum(size == 120 for size, _ in folds) == 1 + res.rounds + int(moved.sum())


def test_a_stateful_gradient_and_objective_value_are_called_every_round(monkeypatch):
    game, config = _padded_m6(300)
    gradients, values = [], []

    def block_gradient(profile, i):
        # a new constant vector on each call, so that play never moves
        gradients.append(np.full(game.action_counts[i], float(len(gradients))))
        return gradients[-1]

    def value(profile):
        values.append(float(len(values)))
        return values[-1]

    kernel = ob.make_multilinear(game)
    res = dyn.run(dataclasses.replace(kernel, block_gradient=block_gradient, value=value), config)
    assert not _moves(res).any()
    assert len(gradients) == 2 * res.rounds
    for i, observed in enumerate(res.history.utilities.blocks):
        assert observed.tobytes() == np.stack(gradients[i::2]).tobytes()
    assert res.traces.value.tolist() == values == [float(t) for t in range(res.rounds)]
    # a value that is not the kernel's own is called every round even beside
    # the kernel, and the run observes and steps every round with it; the
    # kernel's gradient still runs hoisted, not moving its axes per call
    def per_call(self, profile, i):
        raise AssertionError("the kernel's gradient ran per call")

    monkeypatch.setattr(gm.BlockGradients, "__call__", per_call)
    runs = []
    for most in (dyn._REUSE_ENTRIES, 0):
        monkeypatch.setattr(dyn, "_REUSE_ENTRIES", most)
        values.clear()
        runs.append(dyn.run(dataclasses.replace(kernel, value=value), config))
        assert runs[-1].traces.value.tolist() == values == [float(t) for t in range(300)]
    default, per_round = runs
    assert _moves(default).sum() < default.rounds // 10
    _assert_same_bits(default, per_round)


def test_a_multilinear_objective_reuses_its_own_value_on_repeated_rounds(monkeypatch):
    game, config = _padded_m6(3_000)
    objective = ob.make_multilinear(game)
    runs = []
    for most in (dyn._REUSE_ENTRIES, 0):
        monkeypatch.setattr(dyn, "_REUSE_ENTRIES", most)
        _, folds = _logged_folds(monkeypatch)
        runs.append((dyn.run(objective, config), sum(full for _, full in folds)))
        monkeypatch.undo()
    (default, default_values), (per_round, per_round_values) = runs
    _assert_same_bits(default, per_round)
    _assert_same_bits(default, dyn.run(game, config))
    # the value folds at round 1 and after every round that moved play
    assert default_values == 1 + int(_moves(default)[1:].any(axis=1).sum()) < 3_000 // 50
    assert per_round_values == 3_000


# ---------------------------------------------------------------------------
# folds on a lane: a run's bits, and no thread outlives the run
# ---------------------------------------------------------------------------


def _lane_tasks(monkeypatch):
    """A list that gets one entry per task a lane is handed."""
    tasks, start = [], gm.Lane.start

    def counted(self, task):
        tasks.append(1)
        start(self, task)

    monkeypatch.setattr(gm.Lane, "start", counted)
    return tasks


def _record_sha256(res):
    digest = hashlib.sha256(f"{res.rounds} {res.stop_reason}".encode())
    for column in _chunk_columns(res.history, res.traces):
        digest.update(column.tobytes())
    for state in res.states:
        digest.update(state.regrets.tobytes() + state.strategy.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("target", ["game", "objective"])
@pytest.mark.parametrize("kind", ["rm", "rm+", "drm+"])
@pytest.mark.parametrize("scheme", ["simultaneous", "alternating", "lazy"])
def test_a_run_folding_on_a_lane_has_the_bits_of_the_serial_run(scheme, kind, target, reuse,
                                                                   monkeypatch):
    if not reuse:
        monkeypatch.setattr(dyn, "_REUSE_ENTRIES", 0)
    # (8, 5, 6): the objective's blocks 0 and 1 and its value share the
    # partial (40 rows), and block 2 folds a moved copy
    game = gm.normalize_game(gm.random_potential_game(3, (8, 5, 6), seed=7))
    on = game if target == "game" else ob.make_multilinear(game)
    config = RunConfig(scheme=scheme, kind=kind, max_rounds=300,
                       discount=0.9 if kind == "drm+" else None,
                       epsilon=0.001 if scheme == "lazy" else None)
    tasks = _lane_tasks(monkeypatch)
    serial = _record_sha256(dyn.run(on, config))
    assert not tasks  # below the gate
    monkeypatch.setattr(gm, "_LANE_ENTRIES", 0)
    assert _record_sha256(dyn.run(on, config)) == serial
    # under the alternating schemes the objective folds only block 0 and the
    # value at the end of a round, both users of the partial, so one lane
    assert bool(tasks) == (target == "game" or scheme == "simultaneous")


@pytest.mark.parametrize("end", ["max_rounds", "converged", "sink", "progress"])
def test_no_lane_thread_outlives_a_run(end, monkeypatch):
    monkeypatch.setattr(gm, "_LANE_ENTRIES", 0)
    monkeypatch.setattr(dyn, "PROGRESS_EVERY", 5)
    monkeypatch.setattr(dyn, "_CHUNK_ROWS", 5)
    tasks = _lane_tasks(monkeypatch)
    game = gm.normalize_game(gm.random_potential_game(3, (8, 5, 6), seed=7))
    config = RunConfig(kind="rm+", max_rounds=40, epsilon=0.005 if end == "converged" else None)
    before = threading.active_count()
    seen = []  # the threads alive at each call

    def called(*args):
        seen.append(threading.active_count())
        if end in ("sink", "progress"):
            raise RuntimeError(f"{end} failed")

    if end in ("sink", "progress"):
        with pytest.raises(RuntimeError, match=f"{end} failed"):
            dyn.run(game, config, **{end: called})
    else:
        res = dyn.run(game, config, progress=called)
        assert res.stop_reason == end and res.rounds > 5
    # the lane ran beside the run's thread, and ended with the run
    assert tasks and set(seen) == {before + 1}
    assert threading.active_count() == before


def test_a_replay_of_a_lane_sized_recording_has_the_bits_of_per_block_calls(tmp_path,
                                                                             monkeypatch):
    # of the three folds of a replayed profile one goes to the lane, and it
    # reads 56^3 = 175,616 entries, above the gate
    game = gm.normalize_game(gm.random_potential_game(3, (56, 56, 56), seed=2))
    assert game.utilities[0].size >= gm._LANE_ENTRIES
    path = tmp_path / "play.jsonl"
    dyn.write_strategies_jsonl(dyn.run(game, RunConfig(kind="rm+", max_rounds=120)).history, path)
    checkpoints = [1, 7, 60, 120]
    tasks = _lane_tasks(monkeypatch)
    rounds, gaps = dyn.replay_cce(game, dyn.iter_strategies_jsonl(path), checkpoints)
    assert rounds == 120 and tasks

    def per_block(self, lane=None):
        return self.__call__, lambda profile, blocks: ([self(profile, i) for i in blocks],
                                                       self.value(profile))

    monkeypatch.setattr(gm.BlockGradients, "hoisted", per_block)
    _, want = dyn.replay_cce(game, dyn.iter_strategies_jsonl(path), checkpoints)
    assert [_bits(gaps[T]) for T in checkpoints] == [_bits(want[T]) for T in checkpoints]


# ---------------------------------------------------------------------------
# rounds that repeat the profile: jumped, with the bits of single steps
# ---------------------------------------------------------------------------


def _walk(build, m, rounds):
    def case(kind, scheme):
        init = hard.pure_init_strategies(m) if build is hard.build_padded else None
        return build(m), RunConfig(scheme=scheme, kind=kind, max_rounds=rounds,
                                   init_strategies=init)
    return case


def _fixed_point_game(kind, scheme):
    # rm+ settles on a profile and regrets that every later round repeats
    return gm.random_potential_game(3, (16, 16, 16), seed=3), RunConfig(
        scheme=scheme, kind=kind, max_rounds=300)


def _drifting_regrets(kind, scheme):
    # uniform play on three equal payoffs, where x @ u rounds one ulp below
    # the payoff: play repeats every round while every regret grows
    return gm.GameSpec((3,), [np.full(3, 0.8574042765875693)]), RunConfig(
        scheme=scheme, kind=kind, max_rounds=300)


def _positive_part_that_vanishes(kind, scheme):
    # uniform x @ u rounds one ulp above five equal payoffs: round 1 leaves a
    # positive part of half an ulp on every regret, which still plays uniform,
    # and round 2 falls back to uniform with l1 0, so no stretch may open on
    # round 1's regrets and repeat its l1
    c = 0.7840034569635694
    return gm.GameSpec((5,), [np.full(5, c)]), RunConfig(
        scheme=scheme, kind=kind, max_rounds=300, init="custom",
        init_regrets=[np.full(5, 1.5 * np.spacing(c))])


def _free_regret_that_lands_on_zero(kind, scheme):
    # e_0 holds play while action 1's regret climbs -3, -2, -1, +0.0 by exact
    # steps of 1.0; the round after the +0.0 moves play, so a stretch covers
    # the +0.0 round and stops before the next.  Play then settles on e_1.
    # rm+ starts from nonnegative regrets, so its regret starts at +0.0.
    start = -3.0 if kind == "rm" else 0.0
    return gm.GameSpec((2,), [np.array([0.0, 1.0])]), RunConfig(
        scheme=scheme, kind=kind, max_rounds=300, init="custom",
        init_regrets=[np.array([1.0, start])])


def _free_regret_that_overflows(kind, scheme):
    # e_0 holds play while action 1's regret falls by -1e308 a round, to
    # -inf from round 2 on under rm; rm+ keeps it at +0.0
    return gm.GameSpec((2,), [np.array([0.0, -1e308])]), RunConfig(
        scheme=scheme, kind=kind, max_rounds=300, init="custom",
        init_regrets=[np.array([1.0, 0.0])])


def _assert_same_bits(a, b):
    _assert_same_run(a, b)
    assert a.history == b.history
    # == equates -0.0 with 0.0; the bytes do not.  A jumped stretch is one
    # row, so the records compare a row per round.
    for got, want in ((a.history.strategies, b.history.strategies),
                      (a.history.utilities, b.history.utilities)):
        assert ([x.tobytes() for x in got.expanded().blocks]
                == [y.tobytes() for y in want.expanded().blocks])
    assert a.traces.expanded().columns.tobytes() == b.traces.expanded().columns.tobytes()
    for x, y in zip(a.states, b.states):
        assert x.regrets.tobytes() == y.regrets.tobytes()
        assert x.strategy.tobytes() == y.strategy.tobytes()


def _both_paths(target, config, monkeypatch):
    """The default run, which jumps rounds that repeat the profile, and the
    per-round reference, which observes and steps every round, each with the
    rounds its progress callback saw."""
    monkeypatch.setattr(dyn, "PROGRESS_EVERY", 100)
    runs = []
    # the reference first, so that the limit is back for the caller
    for most in (0, dyn._REUSE_ENTRIES):
        monkeypatch.setattr(dyn, "_REUSE_ENTRIES", most)
        ticks = []
        runs.append((dyn.run(target, config, progress=ticks.append), ticks))
    return runs[::-1]


@pytest.mark.parametrize("scheme", ["simultaneous", "alternating"])
@pytest.mark.parametrize("kind", ["rm", "rm+"])
@pytest.mark.parametrize("case", [
    _walk(hard.build_padded, 4, 3_000),
    _walk(hard.build_padded, 6, 3_000),
    _walk(hard.build_uniform_init, 6, 3_000),
    _fixed_point_game,
    _drifting_regrets,
    _positive_part_that_vanishes,
    _free_regret_that_lands_on_zero,
    _free_regret_that_overflows,
], ids=["padded_m4", "padded_m6", "uniform_init_m6", "potential_3x16", "drifting_regrets",
        "positive_part_that_vanishes", "free_regret_that_lands_on_zero",
        "free_regret_that_overflows"])
def test_repeated_profiles_are_jumped_with_the_bits_of_single_steps(
        case, kind, scheme, monkeypatch):
    target, config = case(kind, scheme)
    (jumped, jumped_ticks), (stepped, stepped_ticks) = _both_paths(target, config, monkeypatch)
    _assert_same_bits(jumped, stepped)
    assert jumped_ticks == stepped_ticks == list(range(100, config.max_rounds + 1, 100))
    # every case spends most of its rounds on a repeated profile
    blocks = jumped.history.strategies.expanded().blocks
    repeats = sum(all(b[t].tobytes() == b[t - 1].tobytes() for b in blocks)
                  for t in range(1, jumped.rounds))
    assert repeats > jumped.rounds // 3


def test_a_stretch_covers_the_round_whose_free_regret_lands_on_zero(monkeypatch):
    target, config = _free_regret_that_lands_on_zero("rm", "simultaneous")
    look_aheads = []
    look_ahead = dyn._rm_look_ahead

    def logged(*args):
        k, after = look_ahead(*args)
        # the run keeps and updates the list it gets back
        look_aheads.append((k, after[0].tobytes()))
        return k, after

    monkeypatch.setattr(dyn, "_rm_look_ahead", logged)
    res = dyn.run(target, config)
    # round 1 steps to -2; the first chunk covers -1 and +0.0 and ends before
    # the round that turns the regret positive, which is stepped
    assert look_aheads[0] == (2, np.array([1.0, 0.0]).tobytes())
    assert res.traces.counts[:2].tolist() == [3, 1]
    assert res.traces.expanded().updated[:5].tolist() == [[True]] * 5
    strategies = res.history.strategies.expanded().blocks[0]
    assert strategies[:5].tolist() == [[1.0, 0.0]] * 4 + [[0.5, 0.5]]


def test_moves_takes_signed_zero_regrets_to_hold_play():
    # the search for a stretch's exit counts on a -0.0 free regret holding
    # play as +0.0 does: its positive part is +0.0, and play falls back
    x = np.array([0.0, 1.0, 0.0])
    free = np.array([True, False, True])
    held, zero = np.array([-0.0, 2.0, -0.0]), np.array([-0.0, -1.0, -0.0])
    for regrets in (held, zero):
        assert np.maximum(regrets, 0.0).view(np.int64).tolist()[::2] == [0, 0]
        assert not dyn._moves(regrets, free)
    assert ln.play(held, x)[2].tobytes() == x.tobytes()
    theta, total, played = ln.play(zero, x)
    assert theta.view(np.int64).tolist() == [0, 0, 0] and total == 0.0 and played is x
    # the smallest positive free regret, or +inf anywhere, moves play
    assert dyn._moves(np.array([-0.0, 2.0, 5e-324]), free)
    assert dyn._moves(np.array([-0.0, np.inf, -1.0]), free)


def test_the_potential_game_reaches_a_fixed_point_under_rm_plus():
    target, config = _fixed_point_game("rm+", "simultaneous")
    res = dyn.run(target, config)
    # the fixed point's rounds are one row
    assert res.traces.counts[-1] >= 100
    traces, strategies = res.traces.expanded(), res.history.strategies.expanded()
    last = traces.columns[-1].tobytes()
    assert traces.columns[-100].tobytes() == last
    assert all(b[-100].tobytes() == b[-1].tobytes() for b in strategies.blocks)


def test_a_stretch_cut_off_by_the_round_limit_keeps_the_bits(monkeypatch):
    # rounds 1,155 to 7,826 of the padded m=6 walk sit in phase 7; 4,321 ends
    # inside one of its stretches, which the look-ahead cuts at the limit
    target, config = _walk(hard.build_padded, 6, 4_321)("rm", "simultaneous")
    look_aheads = []
    look_ahead = dyn._rm_look_ahead
    monkeypatch.setattr(dyn, "_rm_look_ahead", lambda *a: look_aheads.append(a) or look_ahead(*a))
    (jumped, jumped_ticks), (stepped, stepped_ticks) = _both_paths(target, config, monkeypatch)
    _assert_same_bits(jumped, stepped)
    assert look_aheads  # the default run jumped
    look_aheads.clear()
    # the reference does not jump
    limit = dyn._REUSE_ENTRIES
    monkeypatch.setattr(dyn, "_REUSE_ENTRIES", 0)
    dyn.run(target, config)
    monkeypatch.setattr(dyn, "_REUSE_ENTRIES", limit)
    assert not look_aheads
    assert jumped_ticks == stepped_ticks
    assert jumped.rounds == 4_321
    # the walk goes on repeating the profile past the limit, and the cut
    # run is a prefix of the longer one
    longer = dyn.run(target, dataclasses.replace(config, max_rounds=4_400))
    for cut, b in zip(jumped.history.strategies.expanded().blocks,
                      longer.history.strategies.expanded().blocks):
        assert b[4_319:4_323].tobytes() == b[4_320].tobytes() * 4
        assert b[:4_321].tobytes() == cut.tobytes()
    assert (longer.traces.expanded().columns[:4_321].tobytes()
            == jumped.traces.expanded().columns.tobytes())
    # its last row is the longer run's row, its stretch cut at the limit
    assert jumped.traces[:] == longer.traces[:4_321]
    assert jumped.traces.counts[-1] < longer.traces.counts[len(jumped.traces.counts) - 1]


# ---------------------------------------------------------------------------
# the repeat-add kernel behind jumped stretches and the cce replay
# ---------------------------------------------------------------------------


def _sequential_adds(r, g, k, until_positive=False):
    """``_repeat_add``'s reference: one add a round, stopping before the
    first sum above 0 with ``until_positive``."""
    for j in range(k):
        s = r + g
        if until_positive and s > 0.0:
            return r, j
        r = s
    return r, k


def _ulp_steps(r, *multiples):
    return [(r, m * math.ulp(r)) for m in multiples]


_ADVERSARIAL_ADDS = [
    # ties, g an odd multiple of half the spacing, from even and odd significands
    *_ulp_steps(1.5, 0.5, -0.5, 1.5, -1.5, 2.5, 7.5),
    *_ulp_steps(1.5 + math.ulp(1.5), 0.5, -0.5, 1.5, 2.5, -7.5),
    *_ulp_steps(-3e5 - math.ulp(3e5), 0.5, 1.5, -2.5),
    # binade edges crossed upward and downward, on both sides of zero
    *_ulp_steps(2.0 - 9 * math.ulp(1.0), 1.0, 3.0, 0.75, 1.3, 2.6),
    *_ulp_steps(2.0 + 9 * math.ulp(2.0), -1.0, -0.5, -3.0, -1.3, -0.7, -2.2),
    *_ulp_steps(-2.0 ** 35 - 5 * math.ulp(2.0 ** 35), 0.5, 1.0, 0.25, 1.3, 0.7),
    *_ulp_steps(-2.0 ** 56 + 7 * math.ulp(2.0 ** 55), -1.0, -0.5),
    (0.75, 0.125), (-1024.0, 0.3), (1e-3, -1e-5),
    # steps through +0.0 and -0.0, and signed zeros that stay
    (-3.0, 1.0), (3.0, -1.0), (-2.5, 0.5), (-1.0, 0.1), (1e-300, -1e-301),
    (-0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (0.0, 0.0), (-0.0, 1.0), (0.0, -1.0),
    (-0.0, 5e-324), (0.0, -5e-324),
    # subnormals: exact sums on either side of zero, and out of their range
    (-5e-324 * 1000, 5e-324 * 7), (5e-324 * 3, -5e-324), (-2.0 ** -1022, 2.0 ** -1074),
    (2.0 ** -1021 - 2.0 ** -1074 * 40, 2.0 ** -1074 * 3), (-2.0 ** -1021, 2.0 ** -1030),
    # a g that rounds to nothing, at once or once the sums grow
    (1e20, 1.0), (1.0, 1e-17), (-1.0, 1e-17), (2.0 ** 53, 1.0), (1.0, 2.0 ** -53),
    (1.0 + 2.0 ** -52, 2.0 ** -53), (2.0 ** 52, 0.5), (2.0 ** 52 - 100, 0.5),
    # |r| at 2^53 and beyond, where the spacing is 2 or more
    (2.0 ** 53, 3.0), (2.0 ** 53 + 2, 1.0), (-2.0 ** 60, 300.0), (2.0 ** 70, -2.0 ** 17 * 3),
    (9e15, 0.7), (-9.1e15, -1.5),
    # sums that overflow to an inf, which every later add keeps, and an inf
    # or nan from the start
    (1.7e308, 1e307), (-1.7e308, -1e307), (1.79e308, 2.0 ** 971), (-1.79e308, -2.0 ** 970 * 3),
    (-1e308, -1e308), (math.inf, -1.0), (-math.inf, 1e308), (math.inf, -math.inf),
    (1.0, math.inf), (1.0, math.nan),
]


@pytest.mark.parametrize("r, g", _ADVERSARIAL_ADDS)
def test_repeat_add_has_the_bits_of_sequential_adds_on_adversarial_cases(r, g):
    for k in (0, 1, 2, 3, 17, 1_000, 5_000):
        for stop in (False, True):
            got, want = dyn._repeat_add(r, g, k, stop), _sequential_adds(r, g, k, stop)
            assert (_bits(got[0]), got[1]) == (_bits(want[0]), want[1]), (k, stop)


def test_repeat_add_has_the_bits_of_sequential_adds_on_random_cases():
    rng = np.random.default_rng(22)
    mismatches = 0
    for case in range(2_000):
        scale = 2.0 ** rng.integers(-60, 70)
        r = float(rng.normal() * scale)
        g = float(rng.choice([
            rng.normal() * scale * 2.0 ** -rng.integers(0, 60),
            rng.integers(-40, 40) * math.ulp(r) / 2,  # ties and small multiples
            rng.integers(-9, 9) / rng.integers(1, 9),  # small rationals
        ]))
        k, stop = int(rng.integers(0, 2_000)), bool(case % 3 == 0)
        got, want = dyn._repeat_add(r, g, k, stop), _sequential_adds(r, g, k, stop)
        mismatches += (_bits(got[0]), got[1]) != (_bits(want[0]), want[1])
    assert mismatches == 0


def test_repeat_add_covers_many_rounds_per_binade():
    # exact integer sums: k adds are r + k g, however large k is
    assert dyn._repeat_add(-1e15, 3.0, 10**14) == (-1e15 + 3e14, 10**14)
    assert dyn._repeat_add(-1e15, 3.0, 10**15, until_positive=True) == (-1.0, 333_333_333_333_333)
    # from 0.1 the sums round; split anywhere, the walk gives the same bits
    whole = dyn._repeat_add(0.0, 0.1, 10**12)[0]
    part = dyn._repeat_add(dyn._repeat_add(0.0, 0.1, 123_456_789)[0], 0.1,
                           10**12 - 123_456_789)[0]
    assert _bits(part) == _bits(whole) and 0.99e11 < whole < 1.01e11
    # a g that rounds to nothing stalls the walk at once
    assert dyn._repeat_add(2.0 ** 60, 1.0, 10**18) == (2.0 ** 60, 10**18)


def test_repeat_row_adds_a_row_k_times_with_the_bits_of_sequential_adds():
    total, row = np.array([-0.0, 1e16, -3.0, 0.5]), np.array([-0.0, 1.0, 0.1, -1 / 3])
    for k in (0, 1, 2, 33, 500):
        want = total.copy()
        for _ in range(k):
            want = want + row
        assert dyn._repeat_row(total, row, k).tobytes() == want.tobytes()


def test_the_look_ahead_exit_and_regrets_are_those_of_a_per_round_scan():
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = int(rng.integers(2, 6))
        held = int(rng.integers(m))
        free = np.arange(m) != held
        # free regrets at most 0, signed zeros among them; the held regret
        # positive, and its g a zero
        r = -rng.random(m) * 10.0 ** rng.integers(0, 4)
        r[rng.random(m) < 0.2] = rng.choice([0.0, -0.0])
        g = rng.normal(size=m) * 10.0 ** rng.integers(-3, 1)
        g[rng.random(m) < 0.2] = 0.0
        r[held], g[held] = 1.0 + rng.random(), rng.choice([0.0, -0.0])
        k = int(rng.integers(1, 3_000))
        covered, after = dyn._rm_look_ahead([r], [g], [free], k)
        sums = dyn._running_sums(np.broadcast_to(g, (k, m)), r)
        theta = np.maximum(sums, 0.0)
        moved = theta[:, free].view(np.int64).any(axis=1) | np.isinf(theta).any(axis=1)
        want = int(moved.argmax()) if moved.any() else k
        assert covered == want
        assert after[0].tobytes() == (sums[want - 1] if want else r).tobytes()


# ---------------------------------------------------------------------------
# the record streamed to a sink chunk by chunk
# ---------------------------------------------------------------------------


def _padded_m6(rounds, scheme="simultaneous"):
    return hard.build_padded(6), RunConfig(
        scheme=scheme, kind="rm", max_rounds=rounds, init_strategies=hard.pure_init_strategies(6))


def _chunk_columns(history, traces):
    return [*history.strategies.blocks, *history.utilities.blocks, traces.columns,
            traces.updated]


def _expanded_columns(chunks):
    """The rounds of a run's sink chunks, one row each, column by column."""
    return [np.concatenate(parts) for parts in zip(*(
        [np.repeat(c, traces.counts, axis=0) for c in _chunk_columns(history, traces)]
        for history, traces in chunks))]


@pytest.mark.parametrize("case, per_round", [
    (lambda: _padded_m6(2 * 4096 + 1), True),
    (lambda: _padded_m6(3 * 4096 + 100), False),
    # converges at round 6,173, inside the second chunk
    (lambda: (_constant_sum_game(), RunConfig(scheme="lazy", kind="rm+", epsilon=0.0015,
                                              max_rounds=20_000)), False),
    (lambda: (_constant_sum_game(), RunConfig(scheme="alternating", kind="drm+",
                                              discount=0.7, max_rounds=4_500)), False),
], ids=["stepped", "jumped", "lazy_converged", "alternating_drm+"])
def test_a_sink_gets_the_record_in_chunks_with_the_bits_of_the_whole(case, per_round,
                                                                     monkeypatch):
    if per_round:
        # every round observed and stepped, so that the loop itself flushes
        monkeypatch.setattr(dyn, "_REUSE_ENTRIES", 0)
    target, config = case()
    whole = dyn.run(target, config)
    chunks = []
    streamed = dyn.run(target, config, sink=lambda *chunk: chunks.append(chunk))
    assert dyn._CHUNK_ROWS == 4096
    # _CHUNK_ROWS stretches a chunk, each one row and an int64 count
    sizes = [len(traces.columns) for _, traces in chunks]
    assert sizes[:-1] == [4096] * (len(sizes) - 1) and 0 < sizes[-1] <= 4096
    for history, traces in chunks:
        assert traces.counts.dtype == np.int64 and traces.counts.min() >= 1
        assert not traces.counts.flags.writeable
        assert history.strategies.counts is history.utilities.counts is traces.counts
        assert all(len(c) == len(traces.counts) for c in _chunk_columns(history, traces))
    rounds = [len(traces) for _, traces in chunks]
    assert sum(rounds) == whole.rounds == streamed.rounds
    assert [traces.rounds for _, traces in chunks] == [
        range(sum(rounds[:c]) + 1, sum(rounds[:c + 1]) + 1) for c in range(len(chunks))]
    if config.epsilon is not None:
        assert whole.converged
    # the walk jumps nearly all its rounds, so its one chunk holds few rows
    assert (sum(sizes) < whole.rounds // 100) == (not per_round and config.kind is ln.Kind.RM)
    # expanded, the chunks have the bits of the whole record expanded
    history = dyn.PlayHistory(config.scheme, whole.history.strategies.expanded(),
                              whole.history.utilities.expanded())
    want = _chunk_columns(history, whole.traces.expanded())
    for got, ref in zip(_expanded_columns(chunks), want):
        assert got.tobytes() == ref.tobytes()
    # the record went to the sink; the result keeps none of it
    assert streamed.history.rounds == 0 and len(streamed.traces) == 0
    assert streamed.stop_reason == whole.stop_reason
    for x, y in zip(streamed.states, whole.states):
        assert x.regrets.tobytes() == y.regrets.tobytes()
        assert x.strategy.tobytes() == y.strategy.tobytes()


@pytest.mark.parametrize("per_round", [True, False], ids=["stepped", "jumped"])
def test_a_chunk_reaches_the_sink_once_the_next_stretch_opens_before_its_progress(
        per_round, monkeypatch):
    if per_round:
        monkeypatch.setattr(dyn, "_REUSE_ENTRIES", 0)
    # chunks of 5 stretches, and progress every 500 rounds: the walk's
    # chunks end both between progress rounds and on one
    monkeypatch.setattr(dyn, "_CHUNK_ROWS", 5)
    monkeypatch.setattr(dyn, "PROGRESS_EVERY", 500)
    target, config = _padded_m6(12_000)
    calls = []
    dyn.run(target, config, progress=lambda t: calls.append(("progress", t)),
            sink=lambda history, traces: calls.append(("sink", traces.rounds[-1],
                                                       len(traces.columns))))
    sinks = [call for call in calls if call[0] == "sink"]
    assert [size for *_, size in sinks[:-1]] == [5] * (len(sinks) - 1)
    assert [t for _, t in (c for c in calls if c[0] == "progress")] == list(
        range(500, 12_001, 500))
    # in round order, a chunk that ends at round e after progress(e) and
    # before the progress of any later round; the last one when the run ends
    order = [t + 0.5 if kind == "sink" else t for kind, t, *_ in calls]
    assert order == sorted(order) and sinks[-1][1] == 12_000
    assert any(t % 500 == 0 for _, t, _ in sinks[:-1]) == per_round


@pytest.mark.parametrize("scheme", ["simultaneous", "alternating"])
def test_every_sink_chunk_of_the_m6_walk_expands_to_the_per_round_reference(
        scheme, tmp_path, monkeypatch):
    # chunks of 7 stretches, so that the walk's stretches make several
    monkeypatch.setattr(dyn, "_CHUNK_ROWS", 7)
    target, config = _padded_m6(3 * 4096 + 100)
    config = dataclasses.replace(config, scheme=scheme)
    runs = []
    for most in (0, dyn._REUSE_ENTRIES):
        monkeypatch.setattr(dyn, "_REUSE_ENTRIES", most)
        chunks = []
        dyn.run(target, config, sink=lambda *chunk: chunks.append(chunk))
        runs.append(chunks)
    stepped, jumped = runs
    # the reference steps every round, one row each
    assert all((traces.counts == 1).all() for _, traces in stepped)
    assert len(jumped) > 3 and sum(len(traces.columns) for _, traces in jumped) < 100
    for history, traces in jumped:
        for column in _chunk_columns(history, traces):
            assert column.flags.c_contiguous and not column.flags.writeable
    for got, want in zip(_expanded_columns(jumped), _expanded_columns(stepped)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # the recording of the walk reads back as the stretches the sink got:
    # the round that ends a stretch enters its profile, so the reader's
    # stretches are the sink's strategies with each such round joined to
    # the stretch before it
    path = tmp_path / "walk.jsonl"
    with open(path, "wb") as fh:
        writer = dyn.StrategiesJsonlWriter(fh)
        for history, _ in jumped:
            writer.write(history)
    rows = [np.concatenate(parts) for parts in zip(*(h.strategies.blocks for h, _ in jumped))]
    first, counts = dyn._runs(rows, np.concatenate([h.strategies.counts for h, _ in jumped]))
    assert len(first) < len(rows[0])
    read = list(dyn.iter_strategies_jsonl(path))
    assert [len(chunk.counts) for chunk in read[:-1]] == [7] * (len(read) - 1)
    assert np.concatenate([chunk.counts for chunk in read]).tolist() == counts.tolist()
    for i, block in enumerate(rows):
        assert np.concatenate([c.blocks[i] for c in read]).tobytes() == block[first].tobytes()
        assert all(c.blocks[i].flags.c_contiguous and not c.blocks[i].flags.writeable
                   for c in read)


def _stretch_digest(chunks):
    """The sha256 of a run's record as runs of rounds with equal bits: each
    run's row (strategies, gradients, trace row, updated flags) and its
    count of rounds, merged across the sink's rows and chunks."""
    digest, last, count = hashlib.sha256(), None, 0
    for history, traces in chunks:
        columns = _chunk_columns(history, traces)
        for j, k in enumerate(traces.counts.tolist()):
            row = b"".join(c[j].tobytes() for c in columns)
            if row != last:
                if last is not None:
                    digest.update(last + np.int64(count).tobytes())
                last, count = row, 0
            count += k
    digest.update(last + np.int64(count).tobytes())
    return digest.hexdigest()


# ``_stretch_digest`` of the padded walks' per-round reference
# (``_REUSE_ENTRIES`` patched to 0), which takes 70-90 s a walk to 2 * 10^6
# rounds on a 2-core VM; the jumped walks take milliseconds
_REFERENCE_DIGESTS = {
    (6, "simultaneous", 62_000):
        "2bba271650448dcf97a30247c7c4f6629a1f1af5329651c10fa01683a6da35c7",
    (6, "alternating", 62_000):
        "c2ad1e2be227ecb3e5448f3336daa13e6fbfeee3fbc74de10031d53f58d2b07a",
    (8, "simultaneous", 2_000_000):
        "dd9c66844447b61e43dea8c7226b2ddbf46d5a8088cbb7424161c8c586113ed1",
    (8, "alternating", 2_000_000):
        "0b19bacc4c19fd87bb03256efb290e9d2d0918b46d89db4e7efce3b7ad75604c",
}


@pytest.mark.parametrize("m, scheme, rounds", list(_REFERENCE_DIGESTS))
def test_a_long_jumped_walk_streams_the_bits_of_the_per_round_reference(m, scheme, rounds):
    chunks = []
    dyn.run(hard.build_padded(m), RunConfig(
        scheme=scheme, kind="rm", max_rounds=rounds,
        init_strategies=hard.pure_init_strategies(m)), sink=lambda *chunk: chunks.append(chunk))
    assert sum(len(traces) for _, traces in chunks) == rounds
    assert _stretch_digest(chunks) == _REFERENCE_DIGESTS[m, scheme, rounds]


def _record_bytes(result):
    return sum(column.nbytes for column in _chunk_columns(result.history, result.traces)
               ) + result.traces.counts.nbytes


@pytest.mark.parametrize("case", [
    lambda: _padded_m6(3 * 4096 + 100),
    lambda: _padded_m6(3 * 4096 + 100, "alternating"),
    lambda: (_constant_sum_game(), RunConfig(kind="rm", max_rounds=5_000)),
    lambda: (_constant_sum_game(), RunConfig(scheme="lazy", kind="rm+", epsilon=0.0015,
                                             max_rounds=20_000)),
], ids=["padded_m6_simultaneous", "padded_m6_alternating", "constant_sum_rm", "lazy"])
def test_a_kept_run_has_the_rows_and_counts_of_its_sink_chunks(case, monkeypatch):
    # chunks of 7 stretches, so that every case makes several
    monkeypatch.setattr(dyn, "_CHUNK_ROWS", 7)
    target, config = case()
    kept = dyn.run(target, config)
    chunks = []
    dyn.run(target, config, sink=lambda *chunk: chunks.append(chunk))
    assert len(chunks) > 2
    streamed = [np.concatenate(parts) for parts in zip(*(
        _chunk_columns(history, traces) for history, traces in chunks))]
    for got, want in zip(_chunk_columns(kept.history, kept.traces), streamed):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable
    counts = kept.traces.counts
    assert counts.dtype == np.int64 and not counts.flags.writeable
    assert counts.tolist() == np.concatenate([traces.counts for _, traces in chunks]).tolist()
    assert kept.history.strategies.counts is kept.history.utilities.counts is counts
    assert len(kept.traces) == kept.rounds == int(counts.sum())
    assert kept.traces.rounds == range(1, kept.rounds + 1)


@pytest.mark.parametrize("per_round", [True, False], ids=["stepped", "jumped"])
def test_a_kept_record_peaks_near_its_own_bytes(per_round, monkeypatch):
    if per_round:
        # every round stepped
        monkeypatch.setattr(dyn, "_REUSE_ENTRIES", 0)
    config = RunConfig(kind="rm", max_rounds=5_000)
    dyn.run(_constant_sum_game(), RunConfig(kind="rm", max_rounds=100))  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = dyn.run(_constant_sum_game(), config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.rounds == 5_000
    # one row a stretch, a stepped round one, and its count, as views of the buffers
    counts = result.traces.counts
    columns = [*_chunk_columns(result.history, result.traces), counts]
    assert all(column.base is not None and len(column) == len(counts) for column in columns)
    assert int(counts.sum()) == 5_000 and (len(counts) == 5_000) == per_round
    if not per_round:
        strategies = result.history.strategies.expanded().blocks
        assert sum(all(b[t].tobytes() == b[t - 1].tobytes() for b in strategies)
                   for t in range(1, 5_000)) > 1_000
    # beyond the record: the buffers' slack
    assert peak <= 1.1 * _record_bytes(result)


def test_a_long_streamed_walk_holds_no_more_than_a_chunk():
    target, config = _padded_m6(10**6)
    dyn.run(target, dataclasses.replace(config, max_rounds=5_000), sink=lambda *chunk: None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = dyn.run(target, config, sink=lambda *chunk: None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.rounds == 10**6
    assert peak < 2 * 2**20


def test_a_long_kept_walk_holds_a_row_per_stretch():
    target, config = _padded_m6(10**6)
    dyn.run(target, dataclasses.replace(config, max_rounds=5_000))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = dyn.run(target, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(result.traces) == result.rounds == 10**6
    assert len(result.traces.counts) < 100
    assert peak < 2**20


def test_writers_fed_in_pieces_write_the_bytes_of_one_whole_write(tmp_path, monkeypatch):
    # rows formatted 7 at a time, so that pieces and tolist chunks end apart
    monkeypatch.setattr(dyn, "_CHUNK_ROWS", 7)
    res = dyn.run(*_walk(hard.build_padded, 4, 300)("rm", "simultaneous"))
    whole = {"csv": tmp_path / "whole.csv", "jsonl": tmp_path / "whole.jsonl"}
    formatted = []
    trace_lines = dyn._trace_lines
    monkeypatch.setattr(dyn, "_trace_lines", lambda *a: formatted.append(a) or trace_lines(*a))
    dyn.write_trace_csv(res.traces, whole["csv"])
    dyn.write_strategies_jsonl(res.history, whole["jsonl"])
    whole_formatted = len(formatted)
    formatted.clear()
    # pieces of one round, of a few, and cuts inside stretches of repeated rounds
    cuts = [0, 1, 2, 5, 40, 41, 150, 299, 300]
    # and a few repeated rounds (about 160 B of CSV, 80 B of JSONL each) to a
    # write, so that writes end inside stretches
    monkeypatch.setattr(dyn, "_BATCH_BYTES", 500)
    pieces = {"csv": tmp_path / "pieces.csv", "jsonl": tmp_path / "pieces.jsonl"}
    csv_writes = []
    with open(pieces["csv"], "wb") as csv, open(pieces["jsonl"], "wb") as jsonl:
        trace, strategies = dyn.TraceCsvWriter(csv), dyn.StrategiesJsonlWriter(jsonl)
        write = csv.write
        csv.write = lambda piece: csv_writes.append(bytes(piece)) or write(piece)
        for a, b in zip(cuts, cuts[1:]):
            trace.write(res.traces[a:b])
            strategies.write(dyn.PlayHistory(Scheme.SIMULTANEOUS, res.history.strategies[a:b]))
    for kind in whole:
        assert pieces[kind].read_bytes() == whole[kind].read_bytes()
    # three lines per round; a write of several rounds stays within the batch
    rounds_per_write = [piece.count(b"\n") // 3 for piece in csv_writes]
    assert max(rounds_per_write) >= 3 and len(csv_writes) < 300 // 2
    assert all(len(piece) <= 500 for piece, k in zip(csv_writes, rounds_per_write) if k > 1)
    # each write formats the first row of each 7-row slice and every row whose
    # bits differ from the row before it, and reuses the text of the others
    def formats(traces):
        rows = [c.tobytes() + u.tobytes() for c, u in zip(traces.columns, traces.updated)]
        return sum(t % 7 == 0 or rows[t] != rows[t - 1] for t in range(len(rows)))

    assert whole_formatted == formats(res.traces) < 300
    assert len(formatted) == sum(formats(res.traces[a:b]) for a, b in zip(cuts, cuts[1:]))


def _numbered_bytes(parts, first, count):
    """``_numbered``'s pieces joined, checking that their round counts add
    up and that a piece is at most ``_BATCH_BYTES`` unless it is one round."""
    pieces = [(k, bytes(piece)) for k, piece in dyn._numbered(parts, first, count)]
    assert sum(k for k, _ in pieces) == count
    assert all(len(piece) <= dyn._BATCH_BYTES or k == 1 for k, piece in pieces)
    return b"".join(piece for _, piece in pieces)


def _joined(parts, first, count):
    return b"".join(str(t).encode().join(parts) for t in range(first, first + count))


@pytest.mark.parametrize("parts", [
    [b"x"], [b'{"round": ', b', "blocks": [[1.0]]}\n'],
    [b"", b",0,0.5,1\n", b",1,0.25,0\n", b",-1,0.5,1\n"], [b"a", b"", b"bc", b"\n"],
    [b'{"round": ', b', "blocks": [[1.0]]}\r\n'],
], ids=["one_piece", "two_pieces", "csv_empty_first", "four_pieces", "crlf"])
def test_numbered_text_is_each_round_joined_into_its_parts(parts, monkeypatch):
    # the buffer for every count, then for long stretches only
    for fill_rounds in (1, dyn._FILL_ROUNDS):
        monkeypatch.setattr(dyn, "_FILL_ROUNDS", fill_rounds)
        for edge in (10 ** d for d in range(1, 7)):  # 9 -> 10 up to 999,999 -> 1,000,000
            for first, count in ((edge - 1, 1), (edge, 1), (edge - 1, 2), (edge - 5, 12)):
                assert _numbered_bytes(parts, first, count) == _joined(parts, first, count)
        # counts that span two edges: 9 -> 10 -> 100, 999 -> 1,000 -> 10,000
        for first, count in ((8, 95), (1, 100), (998, 9_010)):
            assert _numbered_bytes(parts, first, count) == _joined(parts, first, count)


@pytest.mark.parametrize("parts", [
    [b'{"round": ', b', "blocks": [[0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]}\n'],
    [b"", b",0,0.5,1,2,0.25,1\n", b",1,0.25,0,2,0.25,0\n", b",-1,0.5,1,2,0.25,1\n"],
    [b'{"round": ', b', "blocks": [[0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]}\r\n'],
], ids=["jsonl", "csv", "crlf"])
def test_numbered_pieces_rewrite_the_high_digits_across_their_edges(parts):
    # the buffer's low digits are filled once per stretch; a piece rewrites
    # the rest, whose edges fall inside pieces and between them, from every
    # first round modulo the buffer's power of ten
    edges = (2_000, 13_000, 100_000)
    for edge in edges:
        for first in (edge - 1, edge - 37, edge - 999, edge - 1_000, edge - 1_234):
            for count in (1_500, 3_000, 7_777):
                assert _numbered_bytes(parts, first, count) == _joined(parts, first, count)
    # one stretch across all of them, in one call
    assert _numbered_bytes(parts, 1_999, 98_005) == _joined(parts, 1_999, 98_005)


@pytest.mark.parametrize("count", [1, 2, 150])
def test_a_numbered_round_longer_than_a_batch_is_a_piece_of_its_own(count):
    parts = [b"<", b"x" * (dyn._BATCH_BYTES + 5), b">\n"]
    pieces = [(k, bytes(piece)) for k, piece in dyn._numbered(parts, 9_990, count)]
    assert [k for k, _ in pieces] == [1] * count
    assert b"".join(piece for _, piece in pieces) == _joined(parts, 9_990, count)


def test_a_numbered_piece_is_released_when_the_next_is_taken():
    # a piece is a view of the stretch's buffer: kept past the next one, it
    # refuses to be read rather than give another piece's bytes
    parts = [b'{"round": ', b', "blocks": [[1.0]]}\n']
    pieces = dyn._numbered(parts, 1_000, 5_000)
    k, kept = next(pieces)
    assert bytes(kept) == _joined(parts, 1_000, k)
    next(pieces)
    with pytest.raises(ValueError, match="released"):
        bytes(kept)


class _Recorder(io.BytesIO):
    """A binary file in memory that keeps a copy of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, piece):
        self.writes.append(bytes(piece))
        return super().write(piece)


def test_writes_of_a_long_walk_hold_at_most_a_batch_unless_one_round_is_longer(tmp_path):
    res = dyn.run(*_padded_m6(62_000))
    for writer, write, record, lines in (
            (dyn.TraceCsvWriter, dyn.write_trace_csv, res.traces, 3),
            (dyn.StrategiesJsonlWriter, dyn.write_strategies_jsonl, res.history, 1)):
        fh = _Recorder()
        writer(fh).write(record)
        write(record, tmp_path / "whole")
        assert fh.getvalue() == (tmp_path / "whole").read_bytes()
        assert max(map(len, fh.writes)) > dyn._BATCH_BYTES // 2
        assert all(len(piece) <= dyn._BATCH_BYTES or piece.count(b"\n") == lines
                   for piece in fh.writes)
    # three equal rounds of a trace whose round is longer than a batch are
    # three writes after the header
    players = 4_000
    fh = _Recorder()
    dyn.TraceCsvWriter(fh).write(dyn.Traces(np.zeros((3, 3 * players + 2)),
                                            np.ones((3, players), bool)))
    assert len(fh.writes) == 4
    assert all(len(piece) > dyn._BATCH_BYTES for piece in fh.writes[1:])


def test_the_trace_writer_refuses_rounds_that_are_not_consecutive(tmp_path):
    traces = dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=6)).traces
    listed = dyn.Traces(traces.columns, traces.updated, list(traces.rounds))
    for bad in (traces[::2], listed):
        with pytest.raises(ValueError, match="must be a step-1 range"):
            dyn.write_trace_csv(bad, tmp_path / "trace.csv")


def test_repeated_rounds_across_digit_edges_write_the_bytes_of_each_line(tmp_path, monkeypatch):
    # writes of a few rounds, so that they end on both sides of each edge,
    # each filled in as an array
    monkeypatch.setattr(dyn, "_BATCH_BYTES", 500)
    monkeypatch.setattr(dyn, "_FILL_ROUNDS", 1)
    res = dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=2))
    row, flags = res.traces.columns[1], res.traces.updated[1]
    for rounds in (range(9_990, 10_010), range(99_990, 100_010)):
        traces = dyn.Traces(np.array([row] * len(rounds)), np.array([flags] * len(rounds)),
                            rounds)
        path = tmp_path / "trace.csv"
        dyn.write_trace_csv(traces, path)
        # each round's lines after the round number, formatted once
        lines = dyn._trace_lines(row.tolist(), flags.tolist(), 2)
        assert path.read_text() == dyn.TRACE_HEADER + "\n" + "".join(
            f"{t},{line}\n" for t in rounds for line in lines)

    # one profile up to round 50,000 and another after it, fed in pieces
    # whose cuts fall next to 9,999 -> 10,000 and 99,999 -> 100,000
    profiles = [[[1.0, 0.0], [0.25, 0.75]], [[0.5, 0.5], [0.0, 1.0]]]
    rounds = 100_010
    history = dyn.PlayHistory(Scheme.SIMULTANEOUS, dyn.Rounds(
        np.repeat(np.array([p[i] for p in profiles]), [50_000, rounds - 50_000], axis=0)
        for i in range(2)))
    path = tmp_path / "strategies.jsonl"
    cuts = [0, 9_997, 10_002, 50_000, 99_998, 100_001, rounds]
    with open(path, "wb") as fh:
        writer = dyn.StrategiesJsonlWriter(fh)
        for a, b in zip(cuts, cuts[1:]):
            writer.write(dyn.PlayHistory(Scheme.SIMULTANEOUS, history.strategies[a:b]))
    assert path.read_text() == "".join(
        json.dumps({"round": t, "blocks": profiles[t > 50_000]}) + "\n"
        for t in range(1, rounds + 1))
    # and the reader's bulk checks cross the same edges
    got = dyn.read_strategies_jsonl(path)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.blocks, history.strategies.blocks))


# a recording of 10,000 lines: three stretches of repeated rounds, then
# 200 rounds that each move, which the reader reads one line at a time
_PROFILES = ([[[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]] * 3_000
             + [[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]] * 4_000
             + [[[0.0, 0.0, 1.0], [0.25, 0.25, 0.5]]] * 2_800
             + [[[t / 256, 1.0 - t / 256, 0.0], [0.5, 0.5, 0.0]] for t in range(200)])


def _edited_recording(defect, line):
    """The text of the recording with ``defect`` at 1-based ``line``, and
    the profile of each round the reader accepts."""
    profiles = list(_PROFILES)
    lines = [json.dumps({"round": t, "blocks": p}) for t, p in enumerate(profiles, 1)]
    ends = ["\n"] * len(lines)
    i = line - 1
    if defect == "wrong_round":
        lines[i] = lines[i].replace(f'"round": {line},', f'"round": {line + 1},')
    elif defect == "extra_key":
        lines[i] = lines[i][:-1] + ', "note": 1}'
    elif defect == "blank_line":
        lines.insert(i, "")
        ends.insert(i, "\n")
    elif defect == "trailing_spaces":
        lines[i] += "   "
    elif defect == "crlf":
        ends[i] = "\r\n"
    elif defect == "no_final_newline":
        del lines[line:], ends[line:], profiles[line:]
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends)), profiles


@pytest.mark.parametrize("defect", ["wrong_round", "extra_key", "blank_line", "trailing_spaces",
                                    "crlf", "no_final_newline"])
@pytest.mark.parametrize("where", ["mid_stretch", "window_edge", "chunk_end", "chunk_start"])
def test_the_reader_checks_a_stretch_at_once_with_the_result_of_each_line(
        defect, where, tmp_path, monkeypatch):
    line = {"chunk_end": 4_900, "chunk_start": 4_901}.get(where, 5_003)
    if where.startswith("chunk"):
        monkeypatch.setattr(dyn, "_CHUNK_ROWS", 7)
    if where == "window_edge":
        # bulk reads of two lines, so that a defect meets the end of one
        monkeypatch.setattr(dyn, "_BATCH_BYTES", 150)
    text, profiles = _edited_recording(defect, line)
    path = tmp_path / "walk.jsonl"
    path.write_bytes(text.encode())
    if defect == "wrong_round":
        with pytest.raises(ValueError) as info:
            dyn.read_strategies_jsonl(path)
        assert str(info.value) == f"{path}:{line}: round {line + 1}, expected {line}"
        return
    got = dyn.read_strategies_jsonl(path)
    for i, block in enumerate(got.blocks):
        assert block.tobytes() == np.array([p[i] for p in profiles]).tobytes()


def test_the_reader_reads_stretches_of_each_length_around_the_bulk_check(tmp_path, monkeypatch):
    # stretches of 1 to 12 lines, and one of 40, around a check that starts
    # after 4 repeats in a row and reads 3 lines at a time
    monkeypatch.setattr(dyn, "_BULK_AFTER", 4)
    monkeypatch.setattr(dyn, "_BATCH_BYTES", 3 * 60)
    lengths = [*range(1, 13), 40, *range(12, 0, -1)]
    profiles = [[[i / 64, 1.0 - i / 64], [0.5, 0.5]] for i, n in enumerate(lengths) for _ in range(n)]
    path = tmp_path / "walk.jsonl"
    path.write_text("".join(json.dumps({"round": t, "blocks": p}) + "\n"
                            for t, p in enumerate(profiles, 1)))
    got = dyn.read_strategies_jsonl(path)
    for i, block in enumerate(got.blocks):
        assert block.tobytes() == np.array([p[i] for p in profiles]).tobytes()


def test_a_crlf_recording_reads_with_the_bits_and_the_bulk_checks_of_the_lf_one(
        tmp_path, monkeypatch):
    checks, numbered_bytes = [], dyn._numbered

    def numbered(parts, first, count):
        # each piece the reader compares: its line ending, first round and rounds
        for k, piece in numbered_bytes(parts, first, count):
            checks.append((parts[1][-2:], first, k))
            first += k
            yield k, piece

    monkeypatch.setattr(dyn, "_numbered", numbered)
    text, _ = _edited_recording(None, 1)
    got = {}
    for end in ("\n", "\r\n"):
        path = tmp_path / "walk.jsonl"
        path.write_bytes(text.replace("\n", end).encode())
        got[end] = dyn.read_strategies_jsonl(path)
    for lf, crlf in zip(got["\n"].blocks, got["\r\n"].blocks):
        assert crlf.tobytes() == lf.tobytes()
    # the CRLF lines are checked in the same bulk reads, each ending in CRLF;
    # a miss would start the next check 64 lines later
    lf = [(first, count) for end, first, count in checks if end == b"}\n"]
    crlf = [(first, count) for end, first, count in checks if end == b"\r\n"]
    assert crlf == lf and len(crlf) + len(lf) == len(checks)
    assert sum(count for _, count in crlf) > 9_500


def test_the_reader_s_windows_cross_the_high_digit_edges_inside_and_between_them(tmp_path,
                                                                               monkeypatch):
    # stretches of rounds 1-1,500, 1,501-11,000 and 11,001-100,500: the
    # bulk windows of the second and third start off the buffer's power of
    # ten, so that 1,999 -> 2,000 and 12,999 -> 13,000 fall inside a window,
    # and 99,999 -> 100,000, a digit edge, between two
    profiles = [[[1.0, 0.0], [0.25, 0.75]], [[0.5, 0.5], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]
    which = [0] * 1_500 + [1] * 9_500 + [2] * 89_500
    path = tmp_path / "walk.jsonl"
    path.write_text("".join(json.dumps({"round": t, "blocks": profiles[i]}) + "\n"
                            for t, i in enumerate(which, 1)))
    windows, numbered_bytes = [], dyn._numbered

    def numbered(parts, first, count):
        for k, piece in numbered_bytes(parts, first, count):
            windows.append(range(first, first + k))
            first += k
            yield k, piece

    monkeypatch.setattr(dyn, "_numbered", numbered)
    got = list(dyn.iter_strategies_jsonl(path))
    assert len(got) == 1 and got[0].counts.tolist() == [1_500, 9_500, 89_500]
    for i, block in enumerate(got[0].blocks):
        assert block.tolist() == [p[i] for p in profiles]
    assert any(1_999 in w and 2_000 in w for w in windows)
    assert any(12_999 in w and 13_000 in w for w in windows)
    assert any(w.stop == 100_000 for w in windows) and any(w.start == 100_000 for w in windows)


def test_the_reader_checks_a_walk_s_repeated_lines_with_the_array_fill(tmp_path, monkeypatch):
    # a window holds enough of the m=6 walk's lines, about 100 bytes each,
    # for ``_numbered`` to build them in its buffer
    target, config = _padded_m6(20_000)
    res = dyn.run(target, config)
    path = tmp_path / "walk.jsonl"
    dyn.write_strategies_jsonl(res.history, path)
    counts, numbered_bytes = [], dyn._numbered

    def numbered(parts, first, count):
        # the rounds of each piece the reader compares
        for k, piece in numbered_bytes(parts, first, count):
            counts.append(k)
            yield k, piece

    monkeypatch.setattr(dyn, "_numbered", numbered)
    got = dyn.read_strategies_jsonl(path)
    for x, y in zip(got.blocks, res.history.strategies.expanded().blocks):
        assert x.tobytes() == y.tobytes()
    assert max(counts) >= dyn._FILL_ROUNDS


@pytest.mark.parametrize("end", ["\r", "\u00a0\n"], ids=["lone_cr", "no_break_space"])
def test_the_reader_refuses_lines_that_end_in_other_whitespace(end, tmp_path):
    # only "\n" ends a line, and only ASCII whitespace is stripped around it
    text, _ = _edited_recording(None, 1)
    path = tmp_path / "walk.jsonl"
    path.write_bytes(text.replace("\n", end).encode())
    with pytest.raises(ValueError, match=r"walk.jsonl:1: not valid JSON \(Extra data"):
        dyn.read_strategies_jsonl(path)


def _bits(x):
    return np.float64(x).tobytes()


def test_running_sums_start_from_a_positive_zero_as_a_running_total():
    rows = np.array([-0.0, -0.0, 1.0, -0.0])
    want, total = [], 0.0
    for row in rows:
        total += row
        want.append(total)
    sums = dyn._running_sums(rows, 0.0)
    assert sums.tobytes() == np.array(want).tobytes()
    # a chunk continued from the last sum of the chunk before
    rest = dyn._running_sums(rows[2:], sums[1])
    assert rest.tobytes() == sums[2:].tobytes()


def test_external_regret_and_cce_gaps_sum_signed_zeros_as_a_running_total():
    # one player paid -0.0 for both actions: the gradient is that tensor, and
    # the strategy (1, -0.0) realizes -0.0 + -0.0 * -0.0 = +0.0 each round
    game = gm.GameSpec((2,), [np.array([-0.0, -0.0])])
    x, u = np.array([1.0, -0.0]), game.utilities[0]
    history = dyn.PlayHistory(Scheme.SIMULTANEOUS, _rounds([[x]] * 3), _rounds([[u]] * 3))
    for T in (1, 2, 3):
        total, realized = np.zeros(2), 0.0
        for _ in range(T):
            total += u
            realized += float(x @ u)
        want = float(total.max() - realized)
        assert _bits(want) == _bits(0.0)
        assert _bits(dyn.external_regret(history, 0, rounds=T)) == _bits(want)
        assert _bits(dyn.cce_gap(game, history, rounds=T)) == _bits(want / T)
        assert _bits(_cce_gap_by_hand(game, history, T)) == _bits(want / T)


def test_cce_gaps_holds_no_more_for_ten_times_the_rounds(monkeypatch):
    # chunks of 64 rounds, so that both replays run many chunks in a short test
    monkeypatch.setattr(dyn, "_CHUNK_ROWS", 64)
    game = gm.random_potential_game(2, (3, 4), seed=8)
    rng = np.random.default_rng(8)
    profiles = [[rng.dirichlet(np.ones(m)) for m in game.action_counts] for _ in range(50)]

    def peak(rounds):
        # mixed profiles, each held for up to 20 rounds, as in a walk
        holds = rng.integers(1, 20, size=rounds)
        rows = [profiles[t % 50] for t in np.repeat(np.arange(rounds), holds)[:rounds]]
        history = dyn.PlayHistory(Scheme.SIMULTANEOUS, _rounds(rows))
        checkpoints = [1, rounds // 3, rounds]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gaps = dyn.cce_gaps(game, history, checkpoints)
            used = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert gaps == [_cce_gap_by_hand(game, history, T) for T in checkpoints]
        return used

    peak(100)  # first-call allocations
    assert peak(4_000) - peak(400) < 8 * 1024


# ---------------------------------------------------------------------------
# equilibrium measures
# ---------------------------------------------------------------------------


def _nash_oracle(game, profile):
    worst = -np.inf
    for i in range(game.num_players):
        base_profile = list(profile)
        base = gm.mixed_tensor_value(game.utilities[i], base_profile)
        for a in range(game.action_counts[i]):
            e = np.zeros(game.action_counts[i])
            e[a] = 1.0
            dev_profile = list(profile)
            dev_profile[i] = e
            dev = gm.mixed_tensor_value(game.utilities[i], dev_profile)
            worst = max(worst, dev - base)
    return worst


def test_nash_gap_frozen_and_against_pure_deviation_oracle():
    a = np.eye(2)
    game = gm.GameSpec((2, 2), [a, a.copy()], tags=frozenset({gm.TAG_IDENTICAL}))
    uniform = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    assert dyn.nash_gap(game, uniform) == 0.0
    mismatched = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert dyn.nash_gap(game, mismatched) == 1.0

    rng = np.random.default_rng(17)
    rand = gm.random_potential_game(3, (2, 3, 2), seed=17)
    for _ in range(5):
        profile = [rng.dirichlet(np.ones(m)) for m in rand.action_counts]
        assert dyn.nash_gap(rand, profile) == pytest.approx(
            _nash_oracle(rand, profile), abs=1e-12
        )


def test_external_regret_hand_example_and_validation():
    res = dyn.run(_corner_game(), RunConfig(kind="rm", max_rounds=2))
    history = res.history
    # utilities: round 1 (1/2, 0) vs play (1/2, 1/2); round 2 (1, 0) vs (1, 0)
    # best fixed action earns 3/2; realized play earned 1/4 + 1 = 5/4
    assert dyn.external_regret(history, 0) == 0.25
    assert dyn.external_regret(history, 0, rounds=1) == 0.25
    for bad in (0, 3):
        with pytest.raises(ValueError, match="rounds must lie"):
            dyn.external_regret(history, 0, rounds=bad)


def test_external_regret_gives_the_bits_of_a_running_sum():
    game = gm.random_potential_game(3, (2, 3, 2), seed=31)
    history = dyn.run(game, RunConfig(kind="rm", max_rounds=120)).history
    for i in range(3):
        for T in (1, 2, 57, 120):
            total, realized = np.zeros(game.action_counts[i]), 0.0
            for x, u in zip(history.strategies[:T], history.utilities[:T]):
                total += u[i]
                realized += float(x[i] @ u[i])
            assert dyn.external_regret(history, i, rounds=T) == float(total.max() - realized)


@pytest.mark.parametrize("case", [
    lambda: _padded_m6(62_000),
    lambda: (_constant_sum_game(), RunConfig(kind="rm", max_rounds=5_000)),
], ids=["padded_m6", "constant_sum_rm"])
def test_external_regret_sums_stretches_with_the_bits_of_a_running_sum(case):
    target, config = case()
    history = dyn.run(target, config).history
    T = history.rounds
    assert len(history.strategies.counts) < T  # some rounds are jumped
    X, U = history.strategies.expanded().blocks, history.utilities.expanded().blocks
    checkpoints = sorted({1, 2, 3, 10, 99, 1_000, T // 3, T // 2, T - 1, T})
    assert len(checkpoints) == 10
    for i in range(2):
        # the running sums of every round, one row each
        total = dyn._running_sums(U[i], 0.0)
        realized = dyn._running_sums(np.array([float(x @ u) for x, u in zip(X[i], U[i])]), 0.0)
        for t in checkpoints:
            want = float(total[t - 1].max() - realized[t - 1])
            assert _bits(dyn.external_regret(history, i, rounds=t)) == _bits(want)


def test_external_regret_sums_a_long_stretch_without_expanding_it():
    # dyadic rows, so that every sum is exact
    strategies = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    utilities = np.array([[1.0, 0.0], [0.25, 0.5], [0.0, 2.0]])
    counts = np.array([2, 10**12, 3])
    history = dyn.PlayHistory(Scheme.SIMULTANEOUS, dyn.Rounds([strategies], counts),
                              dyn.Rounds([utilities], counts))
    # best fixed action 2: 10^12 / 2 + 6; realized 2 + 10^12 * 3 / 8 + 6
    assert dyn.external_regret(history, 0) == 10**12 / 8 - 2
    assert dyn.external_regret(history, 0, rounds=2 + 10**11) == 10**11 / 8 - 2
    # strategies and utilities need not share their stretches
    split = dyn.Rounds([strategies[[0, 1, 1, 2]]], np.array([2, 7, 10**12 - 7, 3]))
    split = dyn.PlayHistory(Scheme.SIMULTANEOUS, split, dyn.Rounds([utilities], counts))
    assert dyn.external_regret(split, 0) == 10**12 / 8 - 2


def test_regrets_of_a_history_that_keeps_no_utilities_are_refused():
    history = dyn.PlayHistory(Scheme.SIMULTANEOUS, _rounds([[np.array([1.0, 0.0])]] * 3), None)
    with pytest.raises(ValueError, match="^the history keeps no utilities$"):
        dyn.external_regret(history, 0)
    with pytest.raises(ValueError, match="^the history keeps no utilities$"):
        hard.replay_regrets(history)


def test_cce_gap_zero_at_a_pure_equilibrium_history():
    res = dyn.run(
        _corner_game(),
        RunConfig(
            kind="rm",
            max_rounds=5,
            init_strategies=[np.array([1.0, 0.0]), np.array([1.0, 0.0])],
        ),
    )
    assert dyn.cce_gap(_corner_game(), res.history) == 0.0


def test_cce_gap_equals_max_average_regret_under_simultaneous_play():
    game = gm.random_symmetric_identical_game(2, 3, seed=23)
    res = dyn.run(game, RunConfig(kind="rm", max_rounds=50))
    T = res.history.rounds
    want = max(dyn.external_regret(res.history, i) for i in range(2)) / T
    assert dyn.cce_gap(game, res.history) == want
    with pytest.raises(ValueError, match="rounds must lie"):
        dyn.cce_gap(game, res.history, rounds=51)


def _cce_gap_by_hand(game, history, T):
    """A replay of the first ``T`` rounds, every profile folded and summed in turn."""
    n = game.num_players
    dev = [np.zeros(m) for m in game.action_counts]
    realized = [0.0] * n
    for profile in history.strategies[:T]:
        for i in range(n):
            u = gm.utility_vector(game, i, profile)
            dev[i] += u
            realized[i] += float(profile[i] @ u)
    return max(float(dev[i].max() - realized[i]) / T for i in range(n))


def test_one_cce_replay_gives_the_bits_of_separate_cce_gap_calls():
    game = gm.random_potential_game(3, (2, 3, 2), seed=31)
    history = dyn.run(game, RunConfig(kind="rm", max_rounds=120)).history
    checkpoints = [120, 7, 50, 7, 1, 99]  # unsorted, with a repeat
    gaps = dyn.cce_gaps(game, history, checkpoints)
    assert gaps == [dyn.cce_gap(game, history, rounds=T) for T in checkpoints]
    assert gaps == [_cce_gap_by_hand(game, history, T) for T in checkpoints]
    for bad in ([0], [121], [5, 121]):
        with pytest.raises(ValueError, match="rounds must lie"):
            dyn.cce_gaps(game, history, bad)


def test_cce_gaps_over_repeated_profiles_give_the_bits_of_a_full_replay():
    game = gm.random_potential_game(2, (3, 3), seed=31)
    pure, signed, mixed = [1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [0.25, 0.5, 0.25]
    # repeated rows, and rows that differ from the row before only in the
    # sign of a zero
    rows = ([[pure, mixed]] * 3 + [[signed, mixed]] * 2
            + [[pure, mixed], [mixed, pure], [mixed, pure]])
    history = dyn.PlayHistory(Scheme.SIMULTANEOUS, _rounds(rows))
    checkpoints = list(range(1, len(rows) + 1))
    assert dyn.cce_gaps(game, history, checkpoints) == [
        _cce_gap_by_hand(game, history, T) for T in checkpoints]


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_cce_replay_over_chunks_gives_the_bits_of_one_chunk(size):
    # the padded m=4 walk: stretches of repeated profiles cross the chunk ends
    game, config = _walk(hard.build_padded, 4, 4200)("rm", "simultaneous")
    history = dyn.run(game, config).history
    checkpoints = [4200, 1, 7, 8, 4096, 4097, 4100, 7]
    want = [_bits(gap) for gap in dyn.cce_gaps(game, history, checkpoints)]

    def chunks():
        return (history.strategies[a:a + size] for a in range(0, 4200, size))

    rounds, gaps = dyn.replay_cce(game, chunks(), checkpoints)
    assert rounds == 4200 and [_bits(gaps[T]) for T in checkpoints] == want
    # every chunk is read, past the largest checkpoint too
    rounds, gaps = dyn.replay_cce(game, chunks(), [4096])
    assert rounds == 4200 and list(gaps) == [4096] and _bits(gaps[4096]) == want[4]
    # with no checkpoints, the gap at the last round
    rounds, gaps = dyn.replay_cce(game, chunks())
    assert rounds == 4200 and list(gaps) == [4200] and _bits(gaps[4200]) == want[0]


def test_cce_replay_of_a_chunk_of_stretches_costs_its_rows_not_its_rounds(monkeypatch):
    game = gm.random_potential_game(2, (2, 2), seed=5)
    rows = [np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]),
            np.array([[0.0, 1.0], [0.25, 0.75], [1.0, 0.0]])]
    chunk, T = dyn.Rounds(rows, np.array([2, 10**12, 3])), 10**12 + 5
    slices, runs = [], dyn._runs
    monkeypatch.setattr(dyn, "_runs", lambda part, counts: slices.append(len(counts))
                        or runs(part, counts))
    checkpoints = [1, 3, 10**12, T]
    rounds, gaps = dyn.replay_cce(game, [chunk], checkpoints)
    # one slice of the chunk's three rows, however many rounds they stand for
    assert rounds == T and slices == [3]
    few = dyn.PlayHistory(Scheme.SIMULTANEOUS, dyn.Rounds(rows, np.array([2, 1, 3])).expanded())
    assert [_bits(gaps[t]) for t in (1, 3)] == [_bits(g) for g in dyn.cce_gaps(game, few, [1, 3])]
    # a largest checkpoint inside the long stretch cuts it and drops the row after
    rounds, cut = dyn.replay_cce(game, [chunk], [3, 10**12])
    assert rounds == T and slices[-1] == 2
    assert [_bits(cut[t]) for t in (3, 10**12)] == [_bits(gaps[t]) for t in (3, 10**12)]
    # chunks cut from it anywhere give the same bits
    for at in (1, 2, 3, 10**11, T - 3, T - 1):
        rounds, split = dyn.replay_cce(game, [chunk[:at], chunk[at:]], checkpoints)
        assert rounds == T and [_bits(split[t]) for t in checkpoints] == [
            _bits(gaps[t]) for t in checkpoints]


@pytest.mark.parametrize("size", [1, 7, 300])
def test_cce_replay_folds_each_slice_s_first_round_and_each_changed_profile(
        size, monkeypatch):
    # slices of 5 rounds within each chunk fed
    monkeypatch.setattr(dyn, "_CHUNK_ROWS", 5)
    game, config = _walk(hard.build_padded, 4, 300)("rm", "simultaneous")
    history = dyn.run(game, config).history
    want = _bits(dyn.cce_gap(game, history))
    hoisted, calls = gm.BlockGradients.hoisted, []

    def counted(self, lane=None):
        grad, folds = hoisted(self, lane)

        def counted_folds(profile, blocks):
            calls.extend(blocks)
            return folds(profile, blocks)

        return (lambda profile, i: calls.append(i) or grad(profile, i)), counted_folds

    monkeypatch.setattr(gm.BlockGradients, "hoisted", counted)
    # chunks of one row per round, as the reader gives them
    strategies = history.strategies.expanded()
    chunks = [strategies[a:a + size] for a in range(0, 300, size)]
    rounds, gaps = dyn.replay_cce(game, iter(chunks))
    assert rounds == 300 and _bits(gaps[300]) == want

    def folds(chunk):
        rows = [b"".join(b[t].tobytes() for b in chunk.blocks) for t in range(len(chunk))]
        return sum(t % 5 == 0 or rows[t] != rows[t - 1] for t in range(len(rows)))

    # a fold observes both blocks
    assert len(calls) == 2 * sum(map(folds, chunks))


def test_cce_gap_refuses_alternating_histories_unless_asked():
    game = _corner_game()
    res = dyn.run(game, RunConfig(kind="rm", scheme="alternating", max_rounds=10))
    with pytest.raises(ValueError, match="allow_alternating"):
        dyn.cce_gap(game, res.history)
    value = dyn.cce_gap(game, res.history, allow_alternating=True)
    assert value >= -1e-12
