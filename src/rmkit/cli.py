"""Command line front end.

Subcommands: ``run`` executes the dynamics on a game, an objective, or a
generated hard instance and emits a machine-readable summary plus optional
trace/strategy/report files; ``gen-hard`` writes hard-instance game JSON;
``verify`` validates a game file; ``analyze`` reconstructs phase and
equilibrium reports from recorded strategies; ``selftest`` drives the
diagnostic suites.

Exit codes: 0 on success, 1 on usage or validation errors, 2 when a run had
an epsilon target and finished without reaching it (outputs are still
written).  ``selftest`` exits 1 when any suite fails.  Progress lines go to
stderr; stdout carries only the summary JSON or requested documents.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
from multiprocessing import Pool

import numpy as np

from . import dynamics as dyn
from . import games as gm
from . import hard_instances as hard
from . import objectives as ob
from . import selftests as st

BUILTIN_OBJECTIVES = ("cycle_poly",)
HARD_VARIANTS = ("pure_init", "uniform_init")

_OUTPUTS = ("trace", "strategies", "report")

# config-file keys, which mirror the run flags (flags override the file),
# with their JSON types; null leaves a key without a default unset
_RUN_KEY_TYPES = {
    **{key: ((str,), "a string") for key in (
        "game", "objective", "hard_instance", "algo", "scheme", "init", *_OUTPUTS)},
    "gamma": ((int, float), "a number"),
    "epsilon": ((int, float), "a number"),
    "max_rounds": ((int,), "an integer"),
    "init_regrets": ((list,), "a list of per-block vectors"),
    "init_strategies": ((list,), "a list of per-block vectors"),
    "lazy_regret_updates": ((bool,), "true or false"),
}
_RUN_DEFAULTS = {
    "algo": "rm+",
    "scheme": "simultaneous",
    "max_rounds": 10_000,
    "init": "zero",
    "lazy_regret_updates": False,
}


class CliError(Exception):
    """Validation failure with a user-facing message."""


def _parse_hard_spec(text: str):
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise CliError(f"hard-instance spec '{text}': expected key=value parts")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    if "m" not in fields:
        raise CliError(f"hard-instance spec '{text}': missing m=<even integer>")
    try:
        m = int(fields.pop("m"))
    except ValueError:
        raise CliError(f"hard-instance spec '{text}': m must be an integer") from None
    variant = fields.pop("variant", "pure_init")
    if variant not in HARD_VARIANTS:
        raise CliError(f"unknown hard-instance variant '{variant}'; "
                       f"choose from {', '.join(HARD_VARIANTS)}")
    if fields:
        raise CliError(f"hard-instance spec '{text}': unknown keys {sorted(fields)}")
    return m, variant


def _check_config_doc(doc, source: str) -> None:
    if not isinstance(doc, dict):
        raise CliError(f"{source}: expected a JSON object of run settings, "
                       f"got {type(doc).__name__}")
    unknown = [k for k in doc if k not in _RUN_KEY_TYPES]
    if unknown:
        raise CliError(f"{source}: unknown keys {sorted(unknown)}")
    for key, value in doc.items():
        if value is None and key not in _RUN_DEFAULTS:
            continue
        types, what = _RUN_KEY_TYPES[key]
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise CliError(f"{source}: {key} must be {what}, got {json.dumps(value)}")


def _merge_run_config(ns: argparse.Namespace, file_doc, source: str) -> dict:
    _check_config_doc(file_doc, source)
    cfg = {**_RUN_DEFAULTS, **file_doc}
    for key in _RUN_KEY_TYPES:
        flag = getattr(ns, key, None)
        if flag is not None:
            cfg[key] = flag
    inputs = [k for k in ("game", "objective", "hard_instance") if cfg.get(k)]
    if len(inputs) != 1:
        raise CliError("exactly one of --game, --objective, --hard-instance is required")
    return cfg


def _load_target(cfg: dict):
    """Returns (target, default init strategies, input label)."""
    if cfg.get("game"):
        return gm.load_game(cfg["game"]), None, cfg["game"]
    if cfg.get("objective"):
        name = cfg["objective"]
        if name == "cycle_poly":
            return ob.make_cycle_polynomial(), None, name
        if os.path.exists(name):
            return ob.load_objective(name, base_dir=os.path.dirname(name) or "."), None, name
        raise CliError(f"objective '{name}' is neither a builtin "
                       f"({', '.join(BUILTIN_OBJECTIVES)}) nor a file")
    m, variant = _parse_hard_spec(cfg["hard_instance"])
    if variant == "uniform_init":
        return hard.build_uniform_init(m), None, f"hard m={m} uniform_init"
    return hard.build_padded(m), hard.pure_init_strategies(m), f"hard m={m} pure_init"


def _final_gaps(target, profile):
    with gm.Lane() as lane:
        _, _, folds, _ = dyn._gradient_and_value(target, lane)
        us, val = folds(profile, range(len(profile)))
    gaps = [ob.br_gap(u, x) for u, x in zip(us, profile)]
    return gaps, (None if math.isnan(val) else val)


class _Streams:
    """The sink ``_execute_run`` hands to ``dyn.run``: each chunk of the
    record goes to the open writers, and only the regret l2 norms that the
    summary reports are kept, for the last round and as a running max."""

    def __init__(self, files):
        self.trace = dyn.TraceCsvWriter(files["trace"]) if "trace" in files else None
        self.strategies = (dyn.StrategiesJsonlWriter(files["strategies"])
                           if "strategies" in files else None)
        self.l2_final = self.l2_max = None

    def __call__(self, history, traces):
        if self.trace is not None:
            self.trace.write(traces)
        if self.strategies is not None:
            self.strategies.write(history)
        l2 = traces.regret_l2
        self.l2_final = l2[-1]
        top = l2.max(axis=0)
        self.l2_max = top if self.l2_max is None else np.maximum(self.l2_max, top)


@contextlib.contextmanager
def _open_outputs(cfg: dict):
    """The output files the config names, opened for writing before any round
    runs, so that a path that cannot be written fails at once.  A regular
    file is written as a temporary file beside it, which replaces it only
    when the block succeeds; when the block fails (an error or Ctrl-C) the
    temporary files are removed, so no partial file is left and earlier
    outputs at those paths keep their bytes.  A path that exists but is not a
    regular file, such as /dev/null, is opened directly (a directory then
    fails at once).  The trace and the strategies are opened for bytes, which
    their writers take, and the report for text."""
    paths = {key: cfg[key] for key in _OUTPUTS if cfg.get(key)}
    seen = {}
    for key, path in paths.items():
        if os.path.exists(path) and not os.path.isfile(path):
            continue  # a device such as /dev/null takes any number of writers
        other = seen.setdefault(os.path.realpath(path), key)
        if other != key:
            raise CliError(f"--{other} and --{key} name the same file '{path}'")
    mode = os.umask(0)
    os.umask(mode)
    files, temps = {}, {}
    try:
        for key, path in paths.items():
            # the writers take bytes; the report is text
            how = "w" if key == "report" else "wb"
            if os.path.exists(path) and not os.path.isfile(path):
                files[key] = open(path, how)
                continue
            target = os.path.realpath(path)
            try:
                fh = tempfile.NamedTemporaryFile(
                    how, dir=os.path.dirname(target),
                    prefix=f".{os.path.basename(target)}.", suffix=".part", delete=False)
            except OSError as exc:
                raise CliError(f"cannot write --{key} '{path}': {exc.strerror}") from exc
            temps[key] = (fh.name, target)
            files[key] = fh
            os.chmod(fh.name, 0o666 & ~mode)  # the mode open(path, "w") gives
        yield files
        for fh in files.values():
            fh.close()
        for temp, target in temps.values():
            os.replace(temp, target)
    except BaseException:
        for fh in files.values():
            fh.close()
        for temp, _ in temps.values():
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise


def _execute_run(cfg: dict) -> int:
    target, default_init, label = _load_target(cfg)
    init_strategies = cfg.get("init_strategies", None)
    if init_strategies is None:
        init_strategies = default_init
    else:
        init_strategies = [np.asarray(x, dtype=np.float64) for x in init_strategies]
    init_regrets = cfg.get("init_regrets")
    gamma = cfg.get("gamma")
    if cfg["algo"] == "drm+" and gamma is None:
        raise CliError("--algo drm+ needs --gamma in (0, 1)")
    if gamma is not None and not 0.0 < gamma < 1.0:
        raise CliError(f"--gamma must lie in (0, 1), got {gamma}")
    run_config = dyn.RunConfig(
        scheme=cfg["scheme"],
        kind=cfg["algo"],
        max_rounds=int(cfg["max_rounds"]),
        epsilon=cfg.get("epsilon"),
        discount=None if gamma is None else 1.0 - gamma,
        init=cfg["init"],
        init_regrets=init_regrets,
        init_strategies=init_strategies,
        lazy_regret_updates=cfg["lazy_regret_updates"],
    )

    def progress(t):
        print(f"[{label}] round {t}", file=sys.stderr)

    with _open_outputs(cfg) as files:
        # the record streams to the outputs chunk by chunk, so memory stays
        # bounded however many rounds run
        streams = _Streams(files)
        result = dyn.run(target, run_config, progress=progress, sink=streams)
        gaps, final_value = _final_gaps(target, result.final_profile)
        summary = {
            "input": label,
            "algo": str(run_config.kind.value),
            "scheme": str(run_config.scheme.value),
            "epsilon": run_config.epsilon,
            "gamma": gamma,
            "max_rounds": run_config.max_rounds,
            "init": str(run_config.init.value),
            "rounds": result.rounds,
            "stop_reason": result.stop_reason,
            "converged": result.converged,
            "final_br_gaps": gaps,
            "final_nash_gap": max(gaps),
            "final_kkt_gap": sum(gaps),
            "final_value": final_value,
            "regret_l2_final": streams.l2_final.tolist(),
            "regret_l2_max": streams.l2_max.tolist(),
        }
        if "report" in files:
            json.dump(summary, files["report"], indent=2)
            files["report"].write("\n")
    print(json.dumps(summary, indent=2))
    if run_config.epsilon is not None and not result.converged:
        return 2
    return 0


def _run_one_config(payload) -> int:
    # one merged config, here or in a Pool worker; an error ends it alone, in one line
    try:
        return _execute_run(payload)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_run(ns: argparse.Namespace) -> int:
    configs = []
    if ns.config:
        for path in ns.config:
            with open(path) as fh:
                try:
                    doc = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise CliError(f"{path}: not valid JSON ({exc})") from exc
            configs.append(_merge_run_config(ns, doc, path))
    else:
        configs.append(_merge_run_config(ns, {}, "flags"))
    if len(configs) > 1:
        for key in _OUTPUTS:
            if getattr(ns, key, None):
                raise CliError(
                    f"--{key} cannot be shared across a batch; set per-config paths"
                )
    if ns.jobs > 1 and len(configs) > 1:
        with Pool(processes=min(ns.jobs, len(configs))) as pool:
            return max(pool.map(_run_one_config, configs))
    return max(map(_run_one_config, configs))


def cmd_gen_hard(ns: argparse.Namespace) -> int:
    if ns.variant == "uniform_init":
        game = hard.build_uniform_init(ns.m)
    else:
        game = hard.build_padded(ns.m)
    if ns.out:
        gm.save_game(game, ns.out)
        print(f"wrote {ns.out}", file=sys.stderr)
    else:
        print(json.dumps(gm.game_json_dict(game)))
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    try:
        game = gm.load_game(ns.game)
    except ValueError as exc:
        print(f"INVALID: {exc}")
        return 1
    shape = "x".join(str(m) for m in game.action_counts)
    tags = ", ".join(sorted(game.tags)) or "none"
    print(f"OK: {game.num_players} players, actions {shape}, tags: {tags}")
    return 0


def _cce_checkpoints(text):
    """The ``--cce-at`` rounds, or ``None`` for the last round recorded."""
    if not text:
        return None
    try:
        checkpoints = [int(part) for part in text.split(",")]
    except ValueError:
        raise CliError(f"--cce-at: '{text}' is not a comma list of round numbers") from None
    for T in checkpoints:
        if T < 1:
            raise CliError(f"--cce-at {T}: rounds are counted from 1")
    return checkpoints


def cmd_analyze(ns: argparse.Namespace) -> int:
    analyses = [a.strip() for a in ns.analyses.split(",") if a.strip()]
    unknown = [a for a in analyses if a not in ("phases", "stall_growth", "cce")]
    if unknown:
        raise CliError(f"unknown analyses {unknown}; choose from phases, stall_growth, cce")
    scheme = dyn.Scheme(ns.scheme)
    # every input but the recording first, so that the recording is read once,
    # chunk by chunk, into the tracker and the cce replay
    tracker = game = checkpoints = None
    if "phases" in analyses or "stall_growth" in analyses:
        if ns.m is None:
            raise CliError("phase analyses need --m to rebuild the spiral")
        tracker = hard.PhaseTracker(hard.build_spiral(ns.m), skip_rounds=ns.skip_rounds)
    if "cce" in analyses:
        if not ns.game:
            raise CliError("cce analysis needs --game to recompute utilities")
        game = gm.load_game(ns.game)
        checkpoints = _cce_checkpoints(ns.cce_at)

    def chunks():
        for chunk in dyn.iter_strategies_jsonl(ns.strategies):
            if tracker is not None:
                if not tracker.rounds:
                    fits = {((ns.m + 1,), (ns.m + 1,)), ((2 * ns.m,), (2 * ns.m,))}
                    shapes = tuple(b.shape[1:] for b in chunk.blocks)
                    if shapes not in fits:
                        raise CliError(
                            f"{ns.strategies}: block shapes {shapes} do not fit --m {ns.m}; "
                            f"want two blocks of size {ns.m + 1} (padded) "
                            f"or {2 * ns.m} (uniform_init)")
                tracker.update(chunk)
            yield chunk

    if game is not None:
        rounds, gaps = dyn.replay_cce(game, chunks(), checkpoints)
    else:
        rounds = sum(map(len, chunks()))
    if not rounds:
        raise CliError(f"{ns.strategies}: no rounds recorded")
    for T in checkpoints or ():
        if T > rounds:
            raise CliError(f"--cce-at {T} exceeds the {rounds} recorded rounds")
    report = {"rounds": rounds}
    if tracker is not None:
        phase_report = tracker.report()
        if "phases" in analyses:
            report["phases"] = phase_report.to_json_dict()
        if "stall_growth" in analyses:
            ok, failures = hard.check_stall_growth(phase_report)
            report["stall_growth"] = {"ok": ok, "failures": failures}
    if game is not None:
        report["cce"] = {str(T): gaps[T] for T in checkpoints or [rounds]}
        if scheme is not dyn.Scheme.SIMULTANEOUS:
            # a recording not played simultaneously averages time-skewed profiles
            report["cce_scheme"] = scheme.value
    if ns.out:
        with open(ns.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(json.dumps(report, indent=2))
    return 0


def cmd_selftest(ns: argparse.Namespace) -> int:
    if ns.list:
        for i, name in enumerate(st.SUITES, start=1):
            print(f"{i:2d}  {name}")
        return 0
    names = ns.suite or None
    results = st.run_suites(names)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmkit",
        description="Regret-matching dynamics over products of simplices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute dynamics and write traces")
    run_p.add_argument("--config", nargs="*", metavar="JSON",
                       help="config file(s) mirroring the flags; flags override")
    run_p.add_argument("--game", help="game JSON path")
    run_p.add_argument("--objective",
                       help="builtin objective name (cycle_poly) or objective JSON path")
    run_p.add_argument("--hard-instance", dest="hard_instance", metavar="SPEC",
                       help="hard instance spec, e.g. m=6 or m=6,variant=uniform_init")
    run_p.add_argument("--algo", choices=("rm", "rm+", "drm+"))
    run_p.add_argument("--gamma", type=float,
                       help="drm+ discount parameter; the per-round factor is 1-gamma")
    run_p.add_argument("--scheme", choices=("simultaneous", "alternating", "lazy"))
    run_p.add_argument("--epsilon", type=float, help="stopping precision / lazy threshold")
    run_p.add_argument("--max-rounds", dest="max_rounds", type=int)
    run_p.add_argument("--init", choices=("zero", "threshold", "custom"))
    run_p.add_argument("--trace", help="trace CSV output path")
    run_p.add_argument("--strategies", help="strategies JSONL output path")
    run_p.add_argument("--report", help="summary JSON output path")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for batch configs")
    run_p.set_defaults(func=cmd_run)

    gen_p = sub.add_parser("gen-hard", help="write a hard-instance game JSON")
    gen_p.add_argument("--m", type=int, required=True, help="even spiral size >= 2")
    gen_p.add_argument("--variant", choices=HARD_VARIANTS, default="pure_init")
    gen_p.add_argument("--out", help="output path; stdout when omitted")
    gen_p.set_defaults(func=cmd_gen_hard)

    ver_p = sub.add_parser("verify", help="validate a game file")
    ver_p.add_argument("game", help="game JSON path")
    ver_p.set_defaults(func=cmd_verify)

    an_p = sub.add_parser("analyze", help="reports from recorded strategies")
    an_p.add_argument("--strategies", required=True, help="strategies JSONL from a run")
    an_p.add_argument("--analyses", default="phases",
                      help="comma list from: phases, stall_growth, cce")
    an_p.add_argument("--m", type=int, help="spiral size for phase analyses")
    an_p.add_argument("--game", help="game JSON for the cce analysis")
    an_p.add_argument("--scheme", choices=("simultaneous", "alternating", "lazy"),
                      default="simultaneous",
                      help="scheme label of the recorded run")
    an_p.add_argument("--skip-rounds", dest="skip_rounds", type=int, default=0,
                      help="leading rounds to exclude from the walk checks")
    an_p.add_argument("--cce-at", dest="cce_at",
                      help="comma list of round checkpoints for cce")
    an_p.add_argument("--out", help="report JSON output path")
    an_p.set_defaults(func=cmd_analyze)

    self_p = sub.add_parser("selftest", help="run the diagnostic suites")
    self_p.add_argument("suite", nargs="*",
                        help="suite names; all suites when omitted")
    self_p.add_argument("--list", action="store_true", help="list suite names")
    self_p.set_defaults(func=cmd_selftest)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process."""
    return _build_parser()


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
