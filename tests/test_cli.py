"""End-to-end tests of the command line interface, run in process."""

import json

import numpy as np
import pytest

from rmkit import cli
from rmkit import games as gm


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
    ],
)
def test_run_rejects_bad_hard_specs(spec, msg, capsys):
    assert cli.main(["run", "--hard-instance", spec]) == 1
    assert msg in capsys.readouterr().err


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
    cfg.write_text(json.dumps({"objective": "cycle_poly", "wat": 1}))
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert "unknown keys" in capsys.readouterr().err


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
    assert cli.main(["analyze", "--strategies", str(strategies), "--analyses", "cce",
                     "--game", str(game), "--cce-at", cce_at]) == 1
    assert _one_line_error(capsys).strip() == f"error: {msg}"


@pytest.mark.parametrize("line, msg", [
    ("[[1.0, 0.0], [0.0, 1.0]]", "expected an object with a 'blocks' list"),
    ('{"round": 1}', "expected an object with a 'blocks' list"),
    ('{"round": 1, "blocks": [["x"], [1.0]]}', "blocks are not numeric"),
    ('{"round": 1, "blocks": [{}, [1.0]]}', "blocks are not numeric"),
])
def test_analyze_rejects_malformed_strategy_lines(line, msg, tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    assert cli.main(["analyze", "--strategies", str(path), "--m", "4"]) == 1
    assert f"bad.jsonl:1: {msg}" in _one_line_error(capsys)


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
