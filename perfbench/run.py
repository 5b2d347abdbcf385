"""rmkit benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload hard_walk --seed 1 --seconds 58 --trace 0

Run from the root of a source checkout; rmkit is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a traced pass.
A full record (machine, sizes, seed, output digests, checks, every pass,
the per-layer split) goes to ``perfbench/_run/``.  ``--smoke`` shrinks
every workload to a few seconds; ``--corrupt`` feeds a damaged input so
that the output checks can be seen to fail (see selfcheck.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import rmkit; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    p.add_argument("--corrupt", help="damage one input of the workload (checks must fail)")
    return p.parse_args(argv)


def import_seconds():
    """Time of ``import rmkit`` in a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine():
    import numpy as np

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:  # no sysfs: the record says null
        entries = []
    for entry in entries:
        info = {f: _read(os.path.join(base, entry, f))
                for f in ("level", "type", "size", "shared_cpu_list")}
        if info["level"] in ("2", "3"):
            caches["L" + info.pop("level")] = info
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as exc:  # older numpy has no dict mode; the record says so
        blas = {"name": None, "error": repr(exc)}
    return {
        "nproc": NPROC,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_cap": {k: os.environ.get(k) for k in BLAS_ENV},
        "load": "closed loop, one client, one process",
    }


def run_timed(wl, checks, seconds, min_passes):
    passes = []
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        res = wl.run_pass(checks)
        durations.append(time.perf_counter() - t0)
        if passes:
            checks.check(res.digests == passes[0].digests,
                         f"pass {len(passes) + 1} outputs differ from pass 1")
        passes.append(res)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + statistics.median(durations) > seconds:
            return passes


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(passes, setup_times):
    jobs = sorted(j for p in passes for j in p.job_s)
    rates = [r for p in passes for r in p.round_rates]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "rounds_per_s": statistics.median(rates),
        "job_p50_s": statistics.median(jobs),
        "job_p90_s": percentile(jobs, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(wl, checks, record):
    from tracing import Tracer
    from workloads import utility_vector_cost

    import rmkit.dynamics as dyn
    import rmkit.games as gm

    untraced = wl.run_pass(checks)
    tracer = Tracer(extra=wl.traced_attributes())
    with tracer:
        res = wl.run_pass(checks, tracer=tracer, keep=True)
    checks.check(res.digests == untraced.digests, "traced pass outputs differ from untraced")
    stats, top = tracer.aggregate()
    tracer.save(os.path.join(RUN_DIR, f"{wl.name}-spans.npz"))
    span_count = tracer.span_count
    top_level = tracer.top_level()
    tracer.reset()

    # the GameSpec loop inlines its contraction: time the public call on the
    # profiles the workload recorded
    inputs = wl.replay_inputs()
    replay_flops = 0
    with tracer:
        for game, profiles in inputs:
            n = game.num_players
            for profile in profiles:
                for i in range(n):
                    gm.utility_vector(game, i, profile)
            replay_flops += len(profiles) * sum(
                utility_vector_cost(game.action_counts, i)[0] for i in range(n))
    replay, _ = tracer.aggregate()
    tracer.reset()

    peak = rounds = 0
    for target, config in wl.memory_jobs():
        tracemalloc.start()
        result = dyn.run(target, config)
        peak += tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rounds += result.rounds
        del result

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def us_per_call(calls, total):
        return total / calls * 1e6 if calls else 0.0

    replayed = replay.get("games.utility_vector", {"calls": 0, "total_s": 0.0})
    replay_s = replayed["total_s"]
    uv_calls = get("games.utility_vector", "calls") + replayed["calls"]
    uv_total = get("games.utility_vector", "total_s") + replay_s
    flops, bytes_ = wl.round_cost()
    written, read = wl.io_bytes()
    analyze_s = get("hard_instances.analyze_phases", "total_s")
    wall = res.wall_s
    m = {}
    for layer in ("learners.step", "learners.regret_norms", "objectives.br_gap",
                  "objectives.block_gradient", "games.mixed_potential"):
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.us_per_call"] = us_per_call(get(layer, "calls"), get(layer, "total_s"))
    m["learners.step.self_s"] = get("learners.step", "self_s")
    m["learners.new_learner.calls"] = get("learners.new_learner", "calls")
    m["learners.new_learner.self_s"] = get("learners.new_learner", "self_s")
    m["objectives.value.us_per_call"] = us_per_call(get("objectives.value", "calls"),
                                                    get("objectives.value", "total_s"))
    m["games.utility_vector.calls"] = uv_calls
    m["games.utility_vector.us_per_call"] = us_per_call(uv_calls, uv_total)
    m["games.contract.flops_per_round"] = flops
    m["games.contract.bytes_per_round"] = bytes_
    m["games.contract.gflops"] = replay_flops / replay_s / 1e9 if replay_s else 0.0
    m["dynamics.run.calls"] = get("dynamics.run", "calls")
    m["dynamics.run.s"] = get("dynamics.run", "total_s")
    m["dynamics.run.self_s"] = get("dynamics.run", "self_s")
    m["dynamics.kept_bytes_per_round"] = peak / rounds
    for name in ("write_trace_csv", "write_strategies_jsonl", "read_strategies_jsonl", "cce_gap"):
        m[f"dynamics.{name}.s"] = get(f"dynamics.{name}", "total_s")
    m["dynamics.io.bytes_written"] = written
    m["dynamics.io.bytes_read"] = read
    visits = getattr(wl, "lazy_visits", 0)
    m["dynamics.lazy_skip_ratio"] = wl.lazy_skips / visits if visits else 0.0
    m["hard_instances.analyze_phases.s"] = analyze_s
    m["hard_instances.analyze_phases.rounds_per_s"] = wl.rounds / analyze_s if analyze_s else 0.0
    m["cli.run.s"] = get("cli.run", "total_s")
    m["cli.analyze.s"] = get("cli.analyze", "total_s")
    m["cli.self_s"] = get("cli.run", "self_s") + get("cli.analyze", "self_s")
    m["trace.overhead_frac"] = wall / untraced.wall_s - 1.0
    m["trace.wall_s"] = wall
    m["trace.untimed_s"] = wall - top

    # the split along the blocking path: every span's self time, plus what
    # no span covers, adds up to the traced wall time
    rows = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])
    record["blocking_path"] = {
        "traced_wall_s": wall,
        "untraced_wall_s": untraced.wall_s,
        "self_s": {name: s["self_s"] for name, s in rows},
        "untimed_s": wall - top,
        "sum_self_plus_untimed_s": sum(s["self_s"] for s in stats.values()) + (wall - top),
    }
    record["spans"] = {"pass": stats, "replay": replay, "count": span_count,
                       "top_level": top_level, "replay_flops": replay_flops}
    record["memory"] = {"tracemalloc_peak_sum_bytes": peak, "rounds": rounds}
    record["passes"] = [pass_record(untraced), pass_record(res)]
    return m


def pass_record(p):
    return {"wall_s": p.wall_s, "rounds": p.rounds, "dyn_s": p.dyn_s,
            "jobs": len(p.job_s), "round_rate_samples": len(p.round_rates),
            "round_rate_median": statistics.median(p.round_rates), "digests": p.digests}


def print_split(split):
    wall = split["traced_wall_s"]
    print(f"blocking path, traced wall {wall:.4f} s (untraced {split['untraced_wall_s']:.4f} s):")
    for name, s in split["self_s"].items():
        print(f"  {name:36s} self {s:10.4f} s  {100 * s / wall:6.2f} %")
    u = split["untimed_s"]
    print(f"  {'(untimed: no span)':36s}      {u:10.4f} s  {100 * u / wall:6.2f} %")
    print(f"  {'sum':36s}      {split['sum_self_plus_untimed_s']:10.4f} s")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rmkit", "__init__.py")):
        print(f"error: no rmkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # one BLAS thread: on the 2-vCPU VM the benchmark was built on, a second
    # thread made tensor_kernel no faster and its runs less steady (README)
    for var in BLAS_ENV:  # before numpy is imported, here and in the probes
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import rmkit
    import workloads

    if os.path.dirname(os.path.abspath(rmkit.__file__)) != os.path.join(SRC, "rmkit"):
        print(f"error: rmkit imported from {rmkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.corrupt is not None and args.corrupt not in cls.CORRUPTIONS:
        print(f"error: {args.workload} corruptions are {', '.join(cls.CORRUPTIONS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_times = []
        # set-up time is an end-to-end metric; a traced run needs one set-up
        for _ in range(1 if args.smoke or args.trace else SETUP_REPEATS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            wl = cls(args.seed, workdir, smoke=args.smoke, corrupt=args.corrupt)
            wl.setup()
            setup_times.append(t_import + time.perf_counter() - t0)
        checks = workloads.Checks()
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke, "corrupt": args.corrupt,
                  "machine": machine(), "sizes": wl.sizes(), "setup_s": setup_times}
        if args.trace:
            values = traced(wl, checks, record)
        else:
            passes = run_timed(wl, checks, args.seconds, 1 if args.smoke else cls.MIN_PASSES)
            values = end_to_end(passes, setup_times)
            record["passes"] = [pass_record(p) for p in passes]
            record["jobs"] = sum(len(p.job_s) for p in passes)
            record["job_p90_has_ten_beyond"] = record["jobs"] >= 100
        record["digests"] = record["passes"][0]["digests"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [d["name"] for d in declared]
    if sorted(names) != sorted(values):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(names)}",
              file=sys.stderr)
        return 2
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    failed = len(checks.failures)
    record.update(metrics=metrics, checks_attempted=checks.attempted, checks_failed=failed,
                  fail_ratio=failed / checks.attempted, failures=checks.failures[:20])
    tag = "-smoke" if args.smoke else ""
    tag += f"-corrupt-{args.corrupt}" if args.corrupt else ""
    out = os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}; machine {json.dumps(record['machine'])}")
    print(f"sizes {json.dumps(record['sizes'])[:400]}")
    for name, d in metrics.items():
        print(f"  {name:46s} {d['value']:16.6g} {d['unit']}")
    if args.trace:
        print_split(record["blocking_path"])
    print(f"checks: {failed} failed of {checks.attempted} (fail_ratio {record['fail_ratio']:.4g})"
          + "".join(f"\n  FAILED {f}" for f in checks.failures[:5]))
    print(f"record: {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
