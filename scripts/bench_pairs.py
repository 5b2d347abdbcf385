#!/usr/bin/env python3
"""Interleaved parent/change runs of the benchmark, written as BENCH_<pr>.json.

For each gated workload of BENCHMARK.json and each of N seeds, runs

    python3 perfbench/run.py --workload <w> --seed <seed> --seconds <s> --trace 0

(``<s>`` is BENCHMARK.json's ``run_seconds``, the same on both sides)

once in a checkout of the parent revision and once in a checkout of the
change, one right after the other.  The side that runs first alternates from
pair to pair, so that drift in the machine's speed falls on both sides
alike.  Both checkouts are fresh temporary directories (removed afterwards),
so neither side runs with the other's paths or compiled caches, and nothing
is registered in the repository: the parent's is the revision's committed
files exported with ``git archive``, and the change's is a copy of the files
of the working tree that git tracks or would add, as they are on disk,
committed or not.  The result is written to BENCH_<pr>.json at the root of
the repository.

The output has the schema of the earlier BENCH files: per workload and
end-to-end metric the median and quartiles of each side (numpy.percentile,
linear), the pairs the change wins, the ratio of the medians and the
change's spread over the parent's median and a verdict (``verdict``), plus
the output checks of each side and whether every record digest of a pair
matched.

Example (10 pairs per workload, about 50 minutes):

    python3 scripts/bench_pairs.py --parent HEAD --pr 7 --pairs 10 --seed0 1201
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    p.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    p.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    p.add_argument("--seed0", type=int, default=1, help="seed of the first pair; then +1")
    p.add_argument("--note", action="append", default=[], help="a line for the notes list")
    return p.parse_args(argv)


def export(revision: str, into: str) -> None:
    """The committed files of ``revision``, unpacked under ``into``."""
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                       stdout=archive, check=True)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(into)


def copy_working_tree(into: str) -> None:
    """The working tree's files that git tracks or would add, as they are on
    disk, copied under ``into``."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, capture_output=True,
                           check=True).stdout.decode().split("\0")
    for name in names:
        source = os.path.join(ROOT, name)
        if name and os.path.isfile(source):  # a deleted tracked file is left out
            os.makedirs(os.path.dirname(os.path.join(into, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(into, name))


def bench(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One run in ``tree``: its result line, its record's digests and machine."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    path = os.path.join(tree, "perfbench", "_run", f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        record = json.load(fh)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "digests": record["digests"], "machine": record["machine"]}


def spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr_over_median": float((q3 - q1) / median) if median else None}


def verdict(parent, change, better: str, bound: float) -> str:
    """The first that holds for the runs of one metric, paired in order:
    ``worse`` (the change's median worse by more than ``bound`` x the
    parent's), ``unresolved`` (the change's q3 - q1 over the parent's median
    above ``bound``, and not every change run better than every parent run),
    ``gain`` (better in 9 of 10 pairs or more, ties for neither side, and
    the median better by more than the parent's q3 - q1), ``within_bound``."""
    sign = -1.0 if better == "lower" else 1.0  # sign * value grows as a run reads better
    p, c = spread(parent), spread(change)
    gained = sign * (c["median"] - p["median"])
    if -gained > bound * p["median"]:
        return "worse"
    apart = min(sign * x for x in change) > max(sign * x for x in parent)
    if c["q3"] - c["q1"] > bound * p["median"] and not apart:
        return "unresolved"
    wins = sum(sign * b > sign * a for a, b in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and gained > p["q3"] - p["q1"]:
        return "gain"
    return "within_bound"


def summarize(spec_metrics, runs) -> dict:
    """Per metric the two sides' spreads and how the change compares."""
    out = {}
    for m in spec_metrics:
        name = m["name"]
        parent = [pair["parent"]["metrics"][name] for pair in runs]
        change = [pair["change"]["metrics"][name] for pair in runs]
        lower = m["better"] == "lower"
        p, c = spread(parent), spread(change)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": p, "change": c,
            "change_wins": sum((b < a) if lower else (b > a) for a, b in zip(parent, change)),
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "change_iqr_over_parent_median":
                (c["q3"] - c["q1"]) / p["median"] if p["median"] else None,
            "verdict": verdict(parent, change, m["better"], m["bound"]),
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_dir:
        export(args.parent, parent_dir)
        copy_working_tree(change_dir)
        doc_workloads, digests_equal, machine = {}, True, None
        for workload in (w["name"] for w in spec["workloads"]):
            seeds = list(range(args.seed0, args.seed0 + args.pairs))
            runs = []
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    tree = parent_dir if side == "parent" else change_dir
                    pair[side] = bench(tree, workload, seed, seconds)
                    shown = {n: round(v, 4) for n, v in pair[side]["metrics"].items()}
                    print(f"{workload} seed {seed} {side}: {json.dumps(shown)} "
                          f"failed {pair[side]['failed']}", file=sys.stderr, flush=True)
                digests_equal &= pair["parent"]["digests"] == pair["change"]["digests"]
                machine = machine or pair["change"]["machine"]
                runs.append(pair)
            doc_workloads[workload] = {
                "seeds": seeds,
                "pairs": len(runs),
                "metrics": summarize(spec["end_to_end"], runs),
                "checks": {side: {"attempted": sum(r[side]["attempted"] for r in runs),
                                  "failed": sum(r[side]["failed"] for r in runs)}
                           for side in ("parent", "change")},
            }
    doc = {
        "what": "End-to-end metrics of the gated perfbench workloads, parent commit vs "
                "this change, from interleaved runs.",
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds} --trace 0",
        "machine": {**machine, "load": "closed loop, one client, one process"},
        "method": f"{args.pairs} pairs per workload, one seed per pair, run one after the "
                  "other in separate source checkouts (scripts/bench_pairs.py); the side "
                  "that runs first alternates from pair to pair. Median and quartiles are "
                  "numpy.percentile (linear) at 50, 25 and 75 over the runs of a side. "
                  "change_wins counts pairs where the change reads better. iqr_over_median "
                  "is (q3 - q1) / median. change_iqr_over_parent_median is (q3 - q1) of the "
                  "change over the parent's median, the quantity the spread bound applies to. "
                  "verdict is the rule of bench_pairs.verdict.",
        "parent": parent_rev,
        "workloads": doc_workloads,
        "record_digests_equal": digests_equal,
        "notes": args.note,
    }
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, entry in doc_workloads.items():
        for name, m in entry["metrics"].items():
            print(f"{workload:14s} {name:14s} {m['parent']['median']:14.6g} -> "
                  f"{m['change']['median']:14.6g} {m['unit']:4s} "
                  f"wins {m['change_wins']}/{entry['pairs']} {m['verdict']}")
    print(f"wrote {os.path.relpath(out, ROOT)}; record digests equal: {digests_equal}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
