#!/usr/bin/env python3
"""Measure lazy rm+/drm+ convergence rounds against their theoretical budgets.

Samples random potential games (normalized so utilities span at most 1), runs
lazy alternating rm+ and discounted rm+ to a target precision epsilon, and compares
the observed round counts with the guarantees

    rm+   : 1 + (m * Phi_range)^2 / eps^4
    drm+  : 1 + m * Phi_range / (eps^2 * sqrt(gamma))

where m is the largest action count and Phi_range the potential's span.
The games and runs come from ``rmkit.selftests.potential_rates``, which also
drives ``rmkit selftest potential_convergence`` (50 games at its own seed).

Example:
    python3 scripts/potential_rates.py --games 20 --epsilon 0.05 --gamma 0.25
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from rmkit import selftests as st


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--games", type=int, default=20, help="number of sampled games")
    ap.add_argument("--max-players", type=int, default=3)
    ap.add_argument("--max-actions", type=int, default=6)
    ap.add_argument("--epsilon", type=float, default=0.05,
                    help="per-player best-response-gap target")
    ap.add_argument("--gamma", type=float, default=0.25,
                    help="drm+ discount parameter in (0, 1); alpha = 1 - gamma")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--round-cap", type=int, default=200_000,
                    help="hard cap on rounds regardless of the formula budget")
    ap.add_argument("--json", type=str, default=None,
                    help="also write per-game rows as JSON to this path")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    ns = parse_args(argv)
    if not 0.0 < ns.gamma < 1.0:
        print("error: --gamma must lie in (0, 1)", file=sys.stderr)
        return 1
    rng = np.random.default_rng(ns.seed)
    rows, over = [], []
    print(f"{'game':>4}  {'shape':>12}  {'Phi_rng':>8}  "
          f"{'rm+ T':>7}  {'budget':>10}  {'drm+ T':>7}  {'budget':>10}")
    plan = st.potential_rates(rng, ns.games, ns.epsilon, ns.gamma, ns.max_players,
                              ns.max_actions, ns.round_cap)
    for idx, (sizes, phi_range, res_p, bound_rmp, res_d, bound_drm) in enumerate(plan):
        shape = "x".join(str(s) for s in sizes)
        flag_p = "" if res_p.converged and res_p.rounds <= bound_rmp else "  !! over budget"
        flag_d = "" if res_d.converged and res_d.rounds <= bound_drm else "  !! over budget"
        print(f"{idx:>4}  {shape:>12}  {phi_range:8.3f}  "
              f"{res_p.rounds:>7}  {bound_rmp:>10.3g}  "
              f"{res_d.rounds:>7}  {bound_drm:>10.3g}{flag_p}{flag_d}")
        if flag_p or flag_d:
            over.append(idx)
        rows.append({
            "game": idx, "players": len(sizes), "actions": list(sizes),
            "phi_range": phi_range,
            "rm_plus_rounds": res_p.rounds, "rm_plus_budget": bound_rmp,
            "rm_plus_converged": res_p.converged,
            "drm_plus_rounds": res_d.rounds, "drm_plus_budget": bound_drm,
            "drm_plus_converged": res_d.converged,
        })

    worst_p = max((r["rm_plus_rounds"] for r in rows), default=0)
    worst_d = max((r["drm_plus_rounds"] for r in rows), default=0)
    print(f"\nworst rounds: rm+ {worst_p}, drm+ {worst_d}; "
          f"games over budget: {over if over else 'none'}")

    if ns.json:
        with open(ns.json, "w", encoding="utf-8") as fh:
            json.dump({"epsilon": ns.epsilon, "gamma": ns.gamma, "rows": rows},
                      fh, indent=2)
        print(f"wrote {ns.json}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main())
