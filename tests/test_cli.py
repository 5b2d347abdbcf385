"""End-to-end tests of the command line interface, run in process."""

import argparse
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rmkit import cli
from rmkit import dynamics as dyn
from rmkit import games as gm
from rmkit import hard_instances as hard
from rmkit import objectives as ob

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "digests.json")
README_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _run_json(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_cycle_objective_converges_and_reports(capsys):
    rc, summary = _run_json(
        capsys,
        ["run", "--objective", "cycle_poly", "--algo", "rm+",
         "--max-rounds", "200", "--epsilon", "0.05"],
    )
    assert rc == 0
    assert summary["input"] == "cycle_poly"
    assert summary["algo"] == "rm+"
    assert summary["scheme"] == "simultaneous"
    assert summary["converged"] is True
    assert summary["stop_reason"] == "converged"
    assert summary["final_kkt_gap"] <= 0.05
    assert summary["rounds"] <= 200
    assert len(summary["final_br_gaps"]) == 1
    assert len(summary["regret_l2_final"]) == 1
    assert summary["regret_l2_max"][0] >= summary["regret_l2_final"][0] - 1e-12
    assert summary["final_value"] is not None


def test_run_exit_two_when_epsilon_unmet_but_still_writes_outputs(capsys, tmp_path):
    # the pure-strategy walk on the m=4 hard instance has gaps far above
    # 1e-12 after five rounds, so the run must stop on the round budget
    report = tmp_path / "report.json"
    rc, summary = _run_json(
        capsys,
        ["run", "--hard-instance", "m=4", "--algo", "rm",
         "--max-rounds", "5", "--epsilon", "1e-12", "--report", str(report)],
    )
    assert rc == 2
    assert summary["converged"] is False and summary["stop_reason"] == "max_rounds"
    on_disk = json.loads(report.read_text())
    assert on_disk == summary


def test_run_requires_exactly_one_input(capsys, tmp_path):
    assert cli.main(["run", "--algo", "rm"]) == 1
    assert "exactly one of" in capsys.readouterr().err
    game = tmp_path / "g.json"
    gm.save_game(gm.random_potential_game(2, (2, 2), seed=0), game)
    rc = cli.main(["run", "--game", str(game), "--objective", "cycle_poly"])
    assert rc == 1
    assert "exactly one of" in capsys.readouterr().err


def test_run_validates_gamma(capsys):
    assert cli.main(["run", "--objective", "cycle_poly", "--algo", "drm+"]) == 1
    assert "needs --gamma" in capsys.readouterr().err
    rc = cli.main(
        ["run", "--objective", "cycle_poly", "--algo", "drm+", "--gamma", "1.5"]
    )
    assert rc == 1
    assert "must lie in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_run_refuses_an_epsilon_that_is_not_finite(epsilon, capsys, tmp_path):
    msg = f"epsilon must be positive and finite when set, got {epsilon}"
    assert cli.main(["run", "--objective", "cycle_poly", "--epsilon", epsilon]) == 1
    assert msg in _one_line_error(capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"objective": "cycle_poly", "epsilon": %s}'
                   % {"nan": "NaN", "inf": "Infinity"}[epsilon])
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert msg in _one_line_error(capsys)


def test_run_reports_unknown_objectives(capsys):
    assert cli.main(["run", "--objective", "nonsense"]) == 1
    assert "neither a builtin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, msg",
    [
        ("m=5", "even and at least 2"),
        ("foo", "expected key=value"),
        ("variant=pure_init", "missing m="),
        ("m=4,variant=bogus", "unknown hard-instance variant"),
        ("m=4,extra=1", "unknown keys"),
        ("m=x", "m must be an integer"),
    ],
)
def test_run_rejects_bad_hard_specs(spec, msg, capsys):
    assert cli.main(["run", "--hard-instance", spec]) == 1
    assert msg in _one_line_error(capsys)


def test_run_config_flags_override_the_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "objective": "cycle_poly", "algo": "rm", "max_rounds": 30, "scheme": "alternating",
    }))
    rc, summary = _run_json(capsys, ["run", "--config", str(cfg), "--algo", "rm+"])
    assert rc == 0
    assert summary["algo"] == "rm+"  # flag beats file
    assert summary["scheme"] == "alternating"  # file beats default
    assert summary["max_rounds"] == 30


def test_run_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    # the run jumps repeated rounds on its own; "fast_forward" is no key
    for key in ("wat", "fast_forward"):
        cfg.write_text(json.dumps({"objective": "cycle_poly", key: True}))
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert f"{cfg}: unknown keys ['{key}']" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "doc, msg",
    [
        (5, "expected a JSON object of run settings, got int"),
        (None, "expected a JSON object of run settings, got NoneType"),
        ({"objective": "cycle_poly", "algo": "drm+", "gamma": "0.5"},
         'gamma must be a number, got "0.5"'),
        ({"objective": "cycle_poly", "epsilon": "0.1"}, 'epsilon must be a number, got "0.1"'),
        ({"objective": "cycle_poly", "scheme": "lazy", "epsilon": 0.1,
          "lazy_regret_updates": "false"}, 'lazy_regret_updates must be true or false'),
        ({"objective": "cycle_poly", "max_rounds": True}, "max_rounds must be an integer, got true"),
        ({"objective": "cycle_poly", "max_rounds": 2.5}, "max_rounds must be an integer, got 2.5"),
        ({"objective": "cycle_poly", "trace": 5}, "trace must be a string, got 5"),
        ({"objective": "cycle_poly", "init_strategies": 5},
         "init_strategies must be a list of per-block vectors, got 5"),
    ],
    ids=["int_document", "null_document", "gamma_string", "epsilon_string",
         "lazy_regret_updates_string", "max_rounds_bool", "max_rounds_float", "trace_int",
         "init_strategies_int"],
)
def test_run_config_rejects_wrong_json_types(doc, msg, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert f"{cfg}: {msg}" in _one_line_error(capsys)


def test_run_config_refuses_a_file_that_is_not_json(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"objective": "cycle_poly",')
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert f"{cfg}: not valid JSON (" in _one_line_error(capsys)


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    parser = cli._parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("the parser was rebuilt"))
    assert cli.main(["selftest", "--list"]) == 0
    assert cli.main(["gen-hard", "--m", "4"]) == 0
    assert cli.main(["analyze", "--strategies", "missing.jsonl", "--analyses", "x"]) == 1
    assert cli._parser() is parser
    capsys.readouterr()


def test_the_run_flags_match_the_config_keys_and_the_readme():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag: action.dest for action in commands.choices["run"]._actions
             for flag in action.option_strings if flag.startswith("--")}
    with open(README_PATH) as fh:
        readme = fh.read()
    section = readme[readme.index("\n### run\n"):]
    section = section[: section.index("\n### ", 1)]
    documented = set(re.findall(r"--[a-z][a-z-]*[a-z]", section))
    for flag, dest in flags.items():
        if flag in ("--help", "--config", "--jobs"):
            continue
        assert dest in cli._RUN_KEY_TYPES, f"{flag} is no --config key"
        assert flag in documented, f"{flag} is not in README's run section"
    assert documented <= set(flags), f"README's run section names {documented - set(flags)}"


def test_every_subcommand_option_is_in_the_readme():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    with open(README_PATH) as fh:
        documented = set(re.findall(r"--[a-z](?:[a-z-]*[a-z])?", fh.read()))
    missing = [f"{name} {flag}" for name, sub in commands.choices.items()
               for action in sub._actions if not isinstance(action, argparse._HelpAction)
               for flag in action.option_strings if flag not in documented]
    assert not missing, f"options missing from README.md: {missing}"


def test_run_config_carries_custom_inits(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    strategies = tmp_path / "s.jsonl"
    cfg.write_text(json.dumps({
        "objective": "cycle_poly",
        "algo": "rm",
        "max_rounds": 3,
        "init_strategies": [[0.25, 0.75]],
        "strategies": str(strategies),
    }))
    rc, summary = _run_json(capsys, ["run", "--config", str(cfg)])
    assert rc == 0
    first = json.loads(strategies.read_text().splitlines()[0])
    assert first["blocks"] == [[0.25, 0.75]]

    cfg.write_text(json.dumps({
        "objective": "cycle_poly",
        "algo": "rm",
        "max_rounds": 3,
        "init": "custom",
        "init_regrets": [[3.0, 1.0]],
    }))
    rc, summary = _run_json(capsys, ["run", "--config", str(cfg)])
    assert rc == 0
    assert summary["init"] == "custom"


def test_run_traces_are_byte_identical_across_reruns(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        rc = cli.main(
            ["run", "--objective", "cycle_poly", "--algo", "rm+",
             "--max-rounds", "50", "--trace", str(p)]
        )
        assert rc == 0
        capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header = paths[0].read_text().splitlines()[0]
    assert header == "round,player,br_gap,kkt_gap,regret_l2,regret_l1,value,updated"


def test_run_writes_the_bytes_of_the_per_round_reference(tmp_path, capsys, monkeypatch):
    # the default run jumps the m=4 walk's repeated rounds; with no reuse
    # allowed, every round is observed and stepped
    outputs = []
    for most in (dyn._REUSE_ENTRIES, 0):
        monkeypatch.setattr(dyn, "_REUSE_ENTRIES", most)
        paths = [tmp_path / f"{name}{len(outputs)}" for name in ("trace", "strategies", "report")]
        rc = cli.main(
            ["run", "--hard-instance", "m=4", "--algo", "rm", "--max-rounds", "3000",
             "--trace", str(paths[0]), "--strategies", str(paths[1]),
             "--report", str(paths[2])]
        )
        assert rc == 0
        capsys.readouterr()
        outputs.append([p.read_bytes() for p in paths])
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# streamed outputs
# ---------------------------------------------------------------------------


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _constant_sum_game():
    # no pure equilibrium: lazy rm+ keeps skipping and stepping until it converges
    A = np.random.default_rng(3).random((3, 4))
    return gm.GameSpec((3, 4), [A, 1.0 - A])


def _m6_walk(rounds):
    argv = ["--hard-instance", "m=6", "--algo", "rm", "--max-rounds", str(rounds)]
    config = dyn.RunConfig(kind="rm", max_rounds=rounds,
                           init_strategies=hard.pure_init_strategies(6))
    return argv, lambda: (hard.build_padded(6), config)


def _constant_sum_run(tmp_path, *flags, **config):
    game = tmp_path / "constant_sum.json"
    gm.save_game(_constant_sum_game(), str(game))
    argv = ["--game", str(game), *flags]
    return argv, lambda: (gm.load_game(str(game)), dyn.RunConfig(**config))


# (the run's flags and its target and config, the golden case it matches or
# None, whether the streamed side is the per-round reference: every round
# observed and stepped, with no reuse allowed); the whole record comes from
# the default run
STREAMED_RUNS = {
    # the payoff-8 stretch from round 7,827 on covers the ends of chunks 2, 3 and 4
    "m6_walk_20000": (lambda tmp: _m6_walk(20_000), "hard_m6_rm_pure_20000", False),
    "two_chunks": (lambda tmp: _m6_walk(2 * 4096), None, True),
    "two_chunks_and_a_round": (lambda tmp: _m6_walk(2 * 4096 + 1), None, True),
    "per_round_20000": (lambda tmp: _m6_walk(20_000), "hard_m6_rm_pure_20000", True),
    # converges at round 6,173, inside the second chunk
    "lazy_converges_mid_chunk": (lambda tmp: _constant_sum_run(
        tmp, "--scheme", "lazy", "--algo", "rm+", "--epsilon", "0.0015", "--max-rounds", "20000",
        scheme="lazy", kind="rm+", epsilon=0.0015, max_rounds=20_000), None, False),
    "alternating_drm+": (lambda tmp: _constant_sum_run(
        tmp, "--scheme", "alternating", "--algo", "drm+", "--gamma", "0.3",
        "--max-rounds", "4500",
        scheme="alternating", kind="drm+", discount=1.0 - 0.3, max_rounds=4_500), None, False),
    "uniform_init_m6": (lambda tmp: (
        ["--hard-instance", "m=6,variant=uniform_init", "--algo", "rm", "--max-rounds", "10000"],
        lambda: (hard.build_uniform_init(6), dyn.RunConfig(kind="rm", max_rounds=10_000))),
        None, False),
    "simultaneous_drm+": (lambda tmp: (
        ["--objective", "cycle_poly", "--algo", "drm+", "--gamma", "0.3", "--max-rounds", "300"],
        lambda: (ob.make_cycle_polynomial(),
                 dyn.RunConfig(kind="drm+", discount=1.0 - 0.3, max_rounds=300))),
        "cycle_poly_drm+", False),
}


@pytest.mark.parametrize("name", list(STREAMED_RUNS))
def test_a_streamed_run_writes_the_bytes_of_the_whole_record(
        name, tmp_path, capsys, monkeypatch):
    build, golden, per_round = STREAMED_RUNS[name]
    argv, case = build(tmp_path)
    streamed = {kind: tmp_path / f"streamed.{kind}" for kind in ("csv", "jsonl", "json")}
    with monkeypatch.context() as patch:
        if per_round:
            patch.setattr(dyn, "_REUSE_ENTRIES", 0)
        rc = cli.main(["run", *argv, "--trace", str(streamed["csv"]),
                       "--strategies", str(streamed["jsonl"]), "--report", str(streamed["json"])])
    assert rc == 0
    capsys.readouterr()
    whole = dyn.run(*case())
    assert whole.rounds > 4096 or golden is not None
    dyn.write_trace_csv(whole.traces, tmp_path / "whole.csv")
    dyn.write_strategies_jsonl(whole.history, tmp_path / "whole.jsonl")
    for kind in ("csv", "jsonl"):
        assert streamed[kind].read_bytes() == (tmp_path / f"whole.{kind}").read_bytes()
    report = json.loads(streamed["json"].read_text())
    assert report["rounds"] == whole.rounds and report["stop_reason"] == whole.stop_reason
    assert report["regret_l2_final"] == whole.traces.regret_l2[-1].tolist()
    assert report["regret_l2_max"] == whole.traces.regret_l2.max(axis=0).tolist()
    if golden is not None:
        with open(GOLDEN_PATH) as fh:
            digests = json.load(fh)[golden]
        assert digests == {"rounds": report["rounds"], "trace": _sha256(streamed["csv"]),
                           "strategies": _sha256(streamed["jsonl"])}


@pytest.mark.parametrize("per_round, rounds", [(True, 300), (False, 3_000)],
                         ids=["stepped", "jumped"])
def test_a_streamed_run_holds_no_more_for_ten_times_the_rounds(
        per_round, rounds, tmp_path, capsys, monkeypatch):
    # chunks of 32 stretches, so that the stepped runs stream many chunks in
    # a short test
    monkeypatch.setattr(dyn, "_CHUNK_ROWS", 32)
    if per_round:
        monkeypatch.setattr(dyn, "_REUSE_ENTRIES", 0)

    def peak(rounds):
        argv = ["run", "--hard-instance", "m=4", "--algo", "rm", "--max-rounds", str(rounds),
                "--trace", str(tmp_path / "trace.csv"),
                "--strategies", str(tmp_path / "walk.jsonl"),
                "--report", str(tmp_path / "report.json")]
        # a full collection empties CPython's free lists (of tuples, say),
        # whose growth tracemalloc would count
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert cli.main(argv) == 0
            used = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        return used

    peak(30)  # first-call allocations
    short = peak(rounds)
    # the record alone would add about 270 B a round: 700 KB for the stepped
    # runs, 7 MB for the jumped ones
    assert peak(10 * rounds) - short < 32 * 1024
    if not per_round:
        # from 3,000 rounds on, the walk has a stretch whose repeated lines
        # fill a write of _BATCH_BYTES; the 300-round walk has none so long,
        # and holds less than those rounds by at most a few such writes
        assert short - peak(300) < 4 * dyn._BATCH_BYTES


def test_analyze_holds_no_more_for_ten_times_the_rounds(tmp_path, capsys, monkeypatch):
    # chunks of 32 rounds, so that both recordings stream many chunks in a short test
    monkeypatch.setattr(dyn, "_CHUNK_ROWS", 32)
    game = tmp_path / "hard4.json"
    assert cli.main(["gen-hard", "--m", "4", "--out", str(game)]) == 0

    def peak(rounds):
        strategies = tmp_path / f"walk{rounds}.jsonl"
        assert cli.main(["run", "--hard-instance", "m=4", "--algo", "rm",
                         "--max-rounds", str(rounds), "--strategies", str(strategies)]) == 0
        capsys.readouterr()
        argv = ["analyze", "--strategies", str(strategies), "--m", "4", "--game", str(game),
                "--analyses", "phases,stall_growth,cce"]
        gc.collect()  # as in the run's test above
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert cli.main(argv) == 0
            used = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)
        assert report["rounds"] == rounds and report["phases"]["violations"] == []
        return used

    peak(30)  # first-call allocations
    # the whole recording alone would add 80 B a round, 216 KB here
    assert peak(3_000) - peak(300) < 32 * 1024


@pytest.mark.parametrize("bad", ["missing/walk.jsonl", "."], ids=["missing_dir", "a_directory"])
def test_run_fails_fast_on_an_output_path_that_cannot_be_opened(
        bad, tmp_path, capsys, monkeypatch):
    def no_rounds(*args, **kwargs):
        raise AssertionError("a round ran")

    monkeypatch.setattr(dyn, "run", no_rounds)
    trace = tmp_path / "trace.csv"
    rc = cli.main(["run", "--hard-instance", "m=6", "--algo", "rm", "--max-rounds", "10000000",
                   "--trace", str(trace), "--strategies", str(tmp_path / bad)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    # the trace's temporary file, opened before the bad path, is removed again
    assert [p.name for p in tmp_path.iterdir() if p.is_file()] == []


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_run_that_fails_leaves_earlier_outputs_as_they_were(
        error, tmp_path, capsys, monkeypatch):
    run = dyn.run

    def failing_run(target, config, progress=None, sink=None):
        def failing_sink(history, traces):
            sink(history, traces)  # the first chunk reaches the files
            raise error("block 0 gradient has non-finite entries")
        return run(target, config, progress=progress, sink=failing_sink)

    monkeypatch.setattr(dyn, "run", failing_run)
    # chunks of 8 stretches, so that the first one ends long before round 10,000
    monkeypatch.setattr(dyn, "_CHUNK_ROWS", 8)
    paths = [tmp_path / name for name in ("trace.csv", "walk.jsonl", "report.json")]
    paths[2].write_text("an earlier report\n")
    argv = ["run", "--hard-instance", "m=6", "--algo", "rm", "--max-rounds", "10000",
            "--trace", str(paths[0]), "--strategies", str(paths[1]), "--report", str(paths[2])]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
    else:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: block 0 gradient has non-finite entries\n"
    # no partial file, and the earlier report keeps its bytes
    assert sorted(tmp_path.iterdir()) == [paths[2]]
    assert paths[2].read_text() == "an earlier report\n"

    # a run that succeeds replaces it, with the mode a plain open gives
    monkeypatch.setattr(dyn, "run", run)
    assert cli.main(argv) == 0
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    assert json.loads(paths[2].read_text())["rounds"] == 10000
    umask = os.umask(0)
    os.umask(umask)
    assert {p.stat().st_mode & 0o777 for p in paths} == {0o666 & ~umask}


def test_run_refuses_two_outputs_on_one_file(tmp_path, capsys):
    path = tmp_path / "out"
    rc = cli.main(["run", "--objective", "cycle_poly", "--max-rounds", "5",
                   "--trace", str(path), "--report", str(tmp_path / "." / "out")])
    assert rc == 1
    assert "--trace and --report name the same file" in capsys.readouterr().err
    assert not path.exists()
    # a device takes any number of writers
    rc = cli.main(["run", "--objective", "cycle_poly", "--max-rounds", "5",
                   "--trace", os.devnull, "--strategies", os.devnull])
    assert rc == 0
    assert os.path.exists(os.devnull)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


def _write_cycle_config(path, report):
    path.write_text(json.dumps({
        "objective": "cycle_poly", "algo": "rm+", "max_rounds": 20,
        "report": str(report),
    }))


def test_run_batch_sequential_and_parallel(tmp_path, capsys):
    reports = [tmp_path / "r1.json", tmp_path / "r2.json"]
    cfgs = [tmp_path / "c1.json", tmp_path / "c2.json"]
    for cfg, rep in zip(cfgs, reports):
        _write_cycle_config(cfg, rep)
    assert cli.main(["run", "--config", str(cfgs[0]), str(cfgs[1])]) == 0
    for rep in reports:
        assert json.loads(rep.read_text())["rounds"] == 20
        rep.unlink()
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfgs[0]), str(cfgs[1]), "--jobs", "2"]) == 0
    for rep in reports:
        assert json.loads(rep.read_text())["rounds"] == 20


_LANE_THEN_BATCH = """
import sys
from rmkit import cli, dynamics as dyn, games as gm

tasks, start = [], gm.Lane.start
gm.Lane.start = lambda lane, task: tasks.append(1) or start(lane, task)
dyn.run(gm.load_game(sys.argv[1]), dyn.RunConfig(kind="rm+", max_rounds=5))
if not tasks:
    sys.exit("the parent's run handed its lane no task")
sys.exit(cli.main(["run", "--config", *sys.argv[2:], "--jobs", "2"]))
"""


def test_a_parallel_batch_completes_after_the_parent_folded_on_a_lane(tmp_path):
    # a 400 x 400 identical-interest game: its value and block 0 share the
    # partial, and block 1 folds a copy, so a round hands the lane one fold
    # of 160,000 entries, above the gate
    rng = np.random.default_rng(4)
    game = tmp_path / "game.json"
    gm.save_game(gm.GameSpec((400, 400), [rng.random((400, 400))] * 2,
                             tags={gm.TAG_IDENTICAL}), str(game))
    assert 400 * 400 >= gm._LANE_ENTRIES
    reports = [tmp_path / f"r{k}.json" for k in range(2)]
    cfgs = [tmp_path / f"c{k}.json" for k in range(2)]
    for cfg, report in zip(cfgs, reports):
        cfg.write_text(json.dumps({"game": str(game), "algo": "rm+", "max_rounds": 20,
                                   "report": str(report)}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _LANE_THEN_BATCH, str(game), *map(str, cfgs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for report in reports:
        assert json.loads(report.read_text())["rounds"] == 20


def test_run_batch_refuses_shared_output_paths(tmp_path, capsys):
    cfgs = [tmp_path / "c1.json", tmp_path / "c2.json"]
    for cfg in cfgs:
        _write_cycle_config(cfg, tmp_path / f"{cfg.stem}-r.json")
    rc = cli.main(
        ["run", "--config", str(cfgs[0]), str(cfgs[1]), "--report", str(tmp_path / "shared.json")]
    )
    assert rc == 1
    assert "cannot be shared across a batch" in capsys.readouterr().err


def test_run_batch_propagates_the_worst_exit_code(tmp_path, capsys):
    good_cfg, good_report = tmp_path / "good.json", tmp_path / "good-r.json"
    _write_cycle_config(good_cfg, good_report)
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"game": str(tmp_path / "missing.json")}))
    rc = cli.main(["run", "--config", str(good_cfg), str(bad_cfg)])
    assert rc == 1
    assert good_report.exists()  # the healthy run still completed


# ---------------------------------------------------------------------------
# gen-hard and verify
# ---------------------------------------------------------------------------


def test_gen_hard_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "hard4.json"
    assert cli.main(["gen-hard", "--m", "4", "--out", str(path)]) == 0
    captured = capsys.readouterr()
    assert str(path) in captured.err
    assert cli.main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK: 2 players, actions 5x5")
    assert "identical_interest" in out


def test_gen_hard_stdout_mode_and_uniform_variant(capsys):
    assert cli.main(["gen-hard", "--m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["players"] == 2 and doc["actions"] == [3, 3]
    assert cli.main(["gen-hard", "--m", "2", "--variant", "uniform_init"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["actions"] == [4, 4]


def test_verify_flags_invalid_files(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"players": 2}))
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("INVALID")


def test_verify_flags_false_symmetry_claims(tmp_path, capsys):
    doc = {
        "players": 2,
        "actions": [2, 2],
        "kind": "general",
        "utilities": [[0.0, 1.0, 0.0, 0.0]] * 2,
        "symmetric": True,
    }
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 1
    assert "not exchangeable" in capsys.readouterr().out


_GOOD_GAME = {"players": 2, "actions": [2, 2], "kind": "general",
              "utilities": [[1.0, 0.0, 0.0, 0.0]] * 2}
_BAD_GAMES = {
    "number": 5,
    "null": None,
    "utilities_not_a_list": {**_GOOD_GAME, "utilities": 5},
    "potential_not_a_list": {**_GOOD_GAME, "kind": "potential", "potential": 5},
    "no_players": {"players": 0, "actions": [], "kind": "general", "utilities": []},
    "not_integers": {**_GOOD_GAME, "players": 2.9, "actions": [2, 2.5], "symmetric": "no"},
    "actions_not_integers": {**_GOOD_GAME, "actions": [2, 2.5]},
    "no_utilities": {k: v for k, v in _GOOD_GAME.items() if k != "utilities"},
    "utilities_a_string_entry": {**_GOOD_GAME, "utilities": [[1.0, "x", 0.0, 0.0]] * 2},
    "utilities_ragged": {**_GOOD_GAME, "utilities": [[[1.0, 0.0], 0.0, 0.0, 0.0]] * 2},
    "utilities_nested": {**_GOOD_GAME, "utilities": [[[1.0], [0.0], [0.0], [0.0]]] * 2},
    "symmetric_not_true": {**_GOOD_GAME, "symmetric": "no"},
    "not_exchangeable": {**_GOOD_GAME, "utilities": [[1, 2, 3, 4], [5, 1, 7, 2]],
                         "symmetric": True},
}
_BAD_OBJECTIVES = {
    "type_a_list": {"type": ["x"]},
    "game_a_number": {"type": "multilinear", "game": 5},
    "game_without_potential": {"type": "multilinear", "game": "good.json"},
}
_BAD_INPUTS = [
    *((["verify"], name, doc) for name, doc in _BAD_GAMES.items()),
    *((["run", "--game"], name, doc) for name, doc in _BAD_GAMES.items()),
    *((["run", "--objective"], name, doc) for name, doc in _BAD_OBJECTIVES.items()),
]


@pytest.mark.parametrize("argv, name, doc", _BAD_INPUTS,
                         ids=[f"{argv[-1].lstrip('-')}-{name}" for argv, name, _ in _BAD_INPUTS])
def test_a_malformed_game_or_objective_file_is_refused_in_one_line(
        argv, name, doc, tmp_path, capsys):
    (tmp_path / "good.json").write_text(json.dumps(_GOOD_GAME))  # a game with no potential
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert cli.main([*argv, str(path)]) == 1
    out, err = capsys.readouterr()
    lines = (out + err).splitlines()
    # "INVALID: <path>: ..." from verify, "error: <path>: ..." from run
    assert len(lines) == 1 and lines[0].split(": ", 1)[1].startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


@pytest.fixture()
def hard_run(tmp_path, capsys):
    strategies = tmp_path / "walk.jsonl"
    game = tmp_path / "hard4.json"
    assert cli.main(["gen-hard", "--m", "4", "--out", str(game)]) == 0
    rc = cli.main(
        ["run", "--hard-instance", "m=4", "--algo", "rm", "--max-rounds", "300",
         "--strategies", str(strategies)]
    )
    assert rc == 0
    capsys.readouterr()
    return strategies, game


def test_analyze_phases_and_stall_growth(hard_run, tmp_path, capsys):
    strategies, _ = hard_run
    out = tmp_path / "report.json"
    rc = cli.main(
        ["analyze", "--strategies", str(strategies),
         "--analyses", "phases,stall_growth", "--m", "4", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == report
    assert report["rounds"] == 300
    assert report["phases"]["first_seen"] == {
        "1": 2, "2": 3, "3": 5, "4": 12, "5": 44, "6": 202,
    }
    assert report["phases"]["violations"] == []
    assert report["stall_growth"]["ok"] is True


def test_analyze_cce_checkpoints(hard_run, capsys):
    strategies, game = hard_run
    rc = cli.main(
        ["analyze", "--strategies", str(strategies), "--analyses", "cce",
         "--game", str(game), "--cce-at", "100,300"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["cce"]) == {"100", "300"}
    for value in report["cce"].values():
        assert isinstance(value, float)


@pytest.mark.parametrize("scheme", ["alternating", "lazy"])
def test_analyze_labels_the_cce_of_a_recording_not_played_simultaneously(
        scheme, hard_run, capsys):
    strategies, game = hard_run
    argv = ["analyze", "--strategies", str(strategies), "--analyses", "cce",
            "--game", str(game), "--cce-at", "100,300"]
    assert cli.main(argv) == 0
    plain = json.loads(capsys.readouterr().out)
    assert "cce_scheme" not in plain
    assert cli.main([*argv, "--scheme", scheme]) == 0
    labelled = json.loads(capsys.readouterr().out)
    assert list(labelled) == ["rounds", "cce", "cce_scheme"]
    assert labelled["cce_scheme"] == scheme and labelled["cce"] == plain["cce"]


def test_analyze_validation_errors(hard_run, tmp_path, capsys):
    strategies, _ = hard_run
    assert cli.main(["analyze", "--strategies", str(strategies), "--analyses", "wat"]) == 1
    assert "unknown analyses" in capsys.readouterr().err
    assert cli.main(["analyze", "--strategies", str(strategies), "--analyses", "phases"]) == 1
    assert "need --m" in capsys.readouterr().err
    assert cli.main(["analyze", "--strategies", str(strategies), "--analyses", "cce"]) == 1
    assert "needs --game" in capsys.readouterr().err
    assert cli.main(["analyze", "--strategies", str(strategies), "--m", "4",
                     "--skip-rounds", "-3"]) == 1
    assert "skip_rounds must be nonnegative, got -3" in capsys.readouterr().err
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert cli.main(["analyze", "--strategies", str(empty), "--analyses", "phases", "--m", "4"]) == 1
    assert "no rounds recorded" in capsys.readouterr().err


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


def test_analyze_rejects_an_m_that_does_not_fit_the_recording(hard_run, capsys):
    strategies, game = hard_run  # recorded on the padded m=4 game
    assert cli.main(["analyze", "--strategies", str(strategies), "--m", "8"]) == 1
    assert "do not fit --m 8" in _one_line_error(capsys)
    other = game.parent / "hard6.json"
    assert cli.main(["gen-hard", "--m", "6", "--out", str(other)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", "--strategies", str(strategies), "--analyses", "cce",
                     "--game", str(other)]) == 1
    assert "block 0 has shape (5,), want (7,)" in _one_line_error(capsys)


@pytest.mark.parametrize("cce_at, msg", [
    ("10,", "--cce-at: '10,' is not a comma list of round numbers"),
    ("100,301", "--cce-at 301 exceeds the 300 recorded rounds"),
    ("0,100", "--cce-at 0: rounds are counted from 1"),
])
def test_analyze_rejects_bad_cce_checkpoints(cce_at, msg, hard_run, capsys):
    strategies, game = hard_run
    out = strategies.parent / "report.json"
    assert cli.main(["analyze", "--strategies", str(strategies), "--analyses", "phases,cce",
                     "--m", "4", "--game", str(game), "--cce-at", cce_at,
                     "--out", str(out)]) == 1
    assert _one_line_error(capsys).strip() == f"error: {msg}"
    # checked before anything is printed or written
    assert capsys.readouterr().out == "" and not out.exists()


_LINE = '{"round": %d, "blocks": [[0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0]]}'


@pytest.mark.parametrize("lines, msg", [
    (["[[1.0, 0.0], [0.0, 1.0]]"], "1: expected an object with a 'blocks' list"),
    (['{"round": 1}'], "1: expected an object with a 'blocks' list"),
    (['{"round": 1, "blocks": [["x"], [1.0]]}'], "1: blocks are not numeric"),
    (['{"round": 1, "blocks": [{}, [1.0]]}'], "1: blocks are not numeric"),
    # the t-th line must be round t
    ([_LINE % 2, _LINE % 1], "1: round 2, expected 1"),
    ([_LINE % 1, _LINE % 2, _LINE % 4], "3: round 4, expected 3"),
    ([_LINE % 1, _LINE % 2, _LINE % 2], "3: round 2, expected 3"),
    (['{"blocks": [[1.0], [1.0]]}'], "1: round null, expected 1"),
    # Python's json reads NaN and Infinity, which no strategy holds
    ([_LINE % 1, _LINE.replace("1.0]]", "NaN]]") % 2], "2: blocks are not finite"),
    ([_LINE.replace("[[0.0,", "[[-Infinity,") % 1], "1: blocks are not finite"),
    # the first line fixes the block sizes, so it must hold at least one action each
    (['{"round": 1, "blocks": [[]]}'], "1: expected non-empty blocks, got sizes [0]"),
    (['{"round": 1, "blocks": []}'], "1: expected non-empty blocks, got sizes []"),
], ids=["not_an_object", "no_blocks", "a_string_entry", "an_object_block",
        "swapped_pair", "gap", "repeat", "no_round", "nan", "inf", "empty_block",
        "no_block"])
def test_analyze_rejects_malformed_strategy_lines(lines, msg, tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["analyze", "--strategies", str(path), "--m", "4"]) == 1
    assert f"bad.jsonl:{msg}" in _one_line_error(capsys)


def test_analyze_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    lines = [(_LINE % t).encode() for t in (1, 2, 3)]
    lines[2] = lines[2].replace(b"]]}", b"]]\xff}")
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert cli.main(["analyze", "--strategies", str(path), "--m", "4"]) == 1
    assert (f"bad.jsonl:3: not valid JSON ('utf-8' codec can't decode byte 0xff"
            in _one_line_error(capsys))


@pytest.mark.parametrize("analyses", ["cce", "phases"])
@pytest.mark.parametrize("blocks, msg", [
    ([[0.0, 1.0, 0.0, 0.0, 0.0]], "block sizes [5] differ from line 1's [5, 5]"),
    ([[0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
     "block sizes [5, 3] differ from line 1's [5, 5]"),
])
def test_analyze_rejects_a_recording_whose_blocks_change_between_lines(
        analyses, blocks, msg, hard_run, capsys):
    strategies, game = hard_run
    lines = strategies.read_text().splitlines()
    lines[1] = json.dumps({"round": 2, "blocks": blocks})
    bad = strategies.parent / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["analyze", "--strategies", str(bad), "--analyses", analyses,
                     "--m", "4", "--game", str(game)]) == 1
    assert f"bad.jsonl:2: {msg}" in _one_line_error(capsys)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_list_names_all_suites(capsys):
    assert cli.main(["selftest", "--list"]) == 0
    out = capsys.readouterr().out
    for i, name in enumerate(
        ("regret_bounds", "monotone_norm", "one_step_lemmas", "potential_convergence",
         "threshold_init", "hard_separation", "uniform_init", "cycle_counterexample",
         "cce", "gradient_structure"),
        start=1,
    ):
        assert f"{i:2d}  {name}" in out


def test_selftest_runs_a_named_suite(capsys):
    assert cli.main(["selftest", "one_step_lemmas"]) == 0
    assert "criterion 3 (one_step_lemmas): PASS" in capsys.readouterr().out


def test_selftest_rejects_unknown_suites(capsys):
    assert cli.main(["selftest", "wat"]) == 1
    assert "error: unknown suites ['wat']" in _one_line_error(capsys)
