#!/usr/bin/env python3
"""Reproduce the rm-vs-rm+ separation on the padded spiral game.

Runs plain regret matching (simultaneous or alternating updates, pure-strategy
start) on the padded m x m spiral game and tabulates the phases of its
abandonment walk, then runs rm+ with alternating updates from the same start
and reports how many rounds each algorithm needs to push the Nash gap below
the cutoff, and what the whole took: wall time, the walk's rounds per second,
its stepped rounds and jumped stretches, and the process's peak resident
memory.

Example:
    python3 scripts/separation_experiment.py --m 6 --max-rounds 200000
    python3 scripts/separation_experiment.py --m 6 --max-rounds 200000 --scheme alternating
    python3 scripts/separation_experiment.py --m 8 --max-rounds 200000000000
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from rmkit import hard_instances as hard


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=6,
                    help="spiral size (even, >= 2); the padded game is (m+1)x(m+1)")
    ap.add_argument("--max-rounds", type=int, default=200_000,
                    help="round budget for the rm walk")
    ap.add_argument("--epsilon", type=float, default=1.0 / 14.0,
                    help="Nash-gap cutoff both algorithms must reach")
    ap.add_argument("--rm-plus-max-rounds", type=int, default=10_000,
                    help="round budget for the alternating rm+ run")
    ap.add_argument("--scheme", choices=("simultaneous", "alternating"), default="simultaneous",
                    help="update scheme of the rm walk")
    ap.add_argument("--json", type=str, default=None,
                    help="also write the results as JSON to this path")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    ns = parse_args(argv)
    print(f"padded spiral game: m={ns.m}, actions {ns.m + 1}x{ns.m + 1}")
    print(f"rm, {ns.scheme} updates, pure start, up to {ns.max_rounds} rounds; then")
    print(f"rm+, alternating updates, same start, up to {ns.rm_plus_max_rounds} rounds ...")
    start = time.perf_counter()
    sep = hard.run_separation(ns.m, ns.max_rounds, ns.epsilon, ns.rm_plus_max_rounds,
                              scheme=ns.scheme)
    elapsed = time.perf_counter() - start
    res, report, res_plus = sep.walk, sep.report, sep.contrast
    rate = res.rounds / sep.walk_seconds
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"\nwalk violations: {report.violation_count}")
    for msg in report.violations[:10]:
        print(f"  {msg}")
    print("\nphase table (payoff k first placed at round t_low; the walk sits on")
    print("payoff k-1 for T_k rounds before moving):")
    print(f"  {'k':>3}  {'t_low':>12}  {'t_high':>12}  {'T_k':>12}  {'T_k/T_k-1':>9}")
    prev = None
    for ph in report.phases:
        ratio = (f"{ph.length / prev:9.2f}"
                 if ph.length is not None and prev else f"{'-':>9}")
        t_low = ph.t_low if ph.t_low is not None else "-"
        t_high = ph.t_high if ph.t_high is not None else "-"
        length = ph.length if ph.length is not None else "open"
        print(f"  {ph.k:>3}  {t_low:>12}  {t_high:>12}  {length:>12}  {ratio}")
        prev = ph.length
    growth_ok, failures = hard.check_stall_growth(report)
    print(f"\nrecursive/factorial growth floors: {'ok' if growth_ok else 'VIOLATED'}")
    for msg in failures:
        print(f"  {msg}")

    rm_round = sep.rm_rounds
    rm_label = str(rm_round) if rm_round is not None else f">{res.rounds}"
    print(f"\nrm rounds until nash_gap <= {ns.epsilon:.4g}: {rm_label}")
    if sep.contrast_reached:
        print(f"rm+ rounds until nash_gap <= {ns.epsilon:.4g}: {res_plus.rounds} "
              f"(final gap {sep.contrast_gap:.3g}, converged={res_plus.converged})")
        print(f"\nseparation ratio: {rm_label} / {res_plus.rounds} >= {sep.ratio:.0f}x")
    else:
        # a run that stops on the gaps of its last alternating pass can end
        # on a profile whose Nash gap is above the cutoff
        print(f"rm+ did not reach nash_gap <= {ns.epsilon:.4g} in {res_plus.rounds} rounds "
              f"(final gap {sep.contrast_gap:.3g}, stop reason {res_plus.stop_reason})")
        print("\nno separation ratio: the rm+ contrast did not reach the cutoff")
    print(f"\nelapsed {elapsed:.2f} s; walk {res.rounds} rounds in {sep.walk_seconds:.2f} s "
          f"({rate:.3g} rounds/s); peak rss {peak_rss_mb:.1f} MB")
    print(f"walk: {sep.walk_stepped} rounds stepped, {sep.walk_stretches} stretches jumped")

    if ns.json:
        payload = {
            "m": ns.m,
            "scheme": ns.scheme,
            "epsilon": ns.epsilon,
            "rm_rounds": rm_round,
            "rm_budget": res.rounds,
            "rm_plus_rounds": res_plus.rounds,
            "rm_plus_converged": sep.contrast_reached,
            "separation_ratio": sep.ratio if sep.contrast_reached else None,
            "violations": list(report.violations),
            "phases": report.to_json_dict(),
            "elapsed_s": elapsed,
            "rounds_per_s": rate,
            "stepped_rounds": sep.walk_stepped,
            "jumped_stretches": sep.walk_stretches,
            "peak_rss_mb": peak_rss_mb,
        }
        with open(ns.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {ns.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
