"""Checks on the benchmark itself, in smoke sizes (about a minute).

    python3 perfbench/selfcheck.py

* every workload, untraced and traced, emits exactly the metric names
  BENCHMARK.json declares, and passes its output checks;
* every corruption hook makes its workload's output checks fail
  (``failed`` > 0, so fail_ratio > 0);
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 1 when any of these does not hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from workloads import WORKLOADS  # noqa: E402


def bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "7", "--seconds", "1",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload, cls in WORKLOADS.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = bench(ROOT, "--workload", workload, "--trace", str(trace), "--smoke")
            declared = sorted(m["name"] for m in spec[key])
            emitted = sorted(result["metrics"]) if result else None
            expect(code == 0 and emitted == declared,
                   f"{workload} --trace {trace}: emits the {len(declared)} {key} metrics"
                   + ("" if code == 0 else f" (exit {code}: {err.strip()[-200:]})"))
            expect(bool(result) and result["correct"] and result["failed"] == 0,
                   f"{workload} --trace {trace}: output checks pass"
                   + (f" ({result['failed']} of {result['attempted']} failed)" if result else ""))
        for corruption in cls.CORRUPTIONS:
            code, result, err = bench(ROOT, "--workload", workload, "--trace", "0", "--smoke",
                                      "--corrupt", corruption)
            expect(code == 0 and result is not None and not result["correct"]
                   and result["failed"] > 0,
                   f"{workload} --corrupt {corruption}: checks fire"
                   + (f" ({result['failed']} of {result['attempted']} failed)" if result else ""))

    bare = os.path.join(HERE, "_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_run", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result, _ = bench(bare, "--workload", "hard_walk", "--trace", "0")
        expect(code != 0 and result is None,
               f"without src/: exits {code} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
