"""The three benchmark workloads, each a fixed job set run as one pass.

A pass is the closed loop of one client: the jobs run back to back in this
process.  ``Stopwatch`` segments cover only the calls into rmkit (and the
argument building that belongs to them); output checks, digests and
corruption hooks run between segments, off the clock and outside every
span.  Every workload builds its inputs from the seed it is given and
passes rmkit nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time

import numpy as np

from rmkit import cli
from rmkit import dynamics as dyn
from rmkit import games as gm
from rmkit import hard_instances as hard
from rmkit import objectives as ob

# onset of each payoff on the padded m=6 walk under simultaneous rm; frozen
# here rather than imported, so that a change to rmkit cannot move it
M6_FIRST_SEEN = {1: 2, 2: 3, 3: 5, 4: 12, 5: 44, 6: 202, 7: 1155, 8: 7827, 9: 61210}
TOL = 1e-9
F64 = 8  # bytes per float64


class Stopwatch:
    """Sums the wall time spent inside ``with`` blocks."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t0


class ProgressClock(io.StringIO):
    """A stderr sink that timestamps the CLI's ``... round <t>`` progress lines."""

    LINE = re.compile(r"\bround (\d+)$")

    def __init__(self):
        super().__init__()
        self.marks = []  # (round, perf_counter when its line ended)
        self._line = []

    def write(self, s):
        now = time.perf_counter()
        self._line.append(s)
        if s.endswith("\n"):
            found = self.LINE.search("".join(self._line).rstrip())
            if found:
                self.marks.append((int(found.group(1)), now))
            self._line = []
        return super().write(s)

    def rates(self):
        """Rounds per second between consecutive progress lines."""
        return [(r1 - r0) / (t1 - t0)
                for (r0, t0), (r1, t1) in zip(self.marks, self.marks[1:]) if t1 > t0]


class Checks:
    """Counts output checks; a failure keeps its description."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_arrays(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def states_arrays(states):
    for s in states:
        yield s.regrets
        yield s.strategy


def trace_matrix(traces):
    """Per round: gaps, kkt, l2 norms, l1 norms, value, updated flags."""
    return np.array(
        [[*r.br_gaps, r.kkt_gap, *r.regret_l2, *r.regret_l1, r.value, *r.updated]
         for r in traces],
        dtype=np.float64,
    )


def contraction_cost(shape, axes_left):
    """Computed (flops, bytes) of folding a C-order tensor from its last axis.

    ``axes_left`` is how many leading axes remain uncontracted (1 for a
    gradient, 0 for the multilinear value).  Each fold reads the tensor and
    the vector and writes a tensor one axis shorter; it does one multiply
    and one add per element read.
    """
    size = int(np.prod(shape))
    flops = bytes_ = 0
    for m in reversed(shape[axes_left:]):
        flops += 2 * size
        bytes_ += F64 * (size + m + size // m)
        size //= m
    return flops, bytes_


def round_cost(shape, copies=False):
    """Computed cost of one round of the ``GameSpec`` loop (or, with
    ``copies``, the objective path, which moves and copies the tensor on
    every block gradient).  All players' gradients plus the trace value."""
    n = len(shape)
    flops = bytes_ = 0
    for i in range(n):
        moved = (shape[i],) + tuple(m for j, m in enumerate(shape) if j != i)
        f, b = contraction_cost(moved, 1)
        flops += f
        bytes_ += b
        if copies and i != 0:
            bytes_ += 2 * F64 * int(np.prod(shape))
    f, b = contraction_cost(tuple(shape), 0)
    return flops + f, bytes_ + b


def utility_vector_cost(shape, player):
    """Computed cost of one public ``utility_vector`` call (move, copy, fold)."""
    moved = (shape[player],) + tuple(m for j, m in enumerate(shape) if j != player)
    flops, bytes_ = contraction_cost(moved, 1)
    if player != 0:
        bytes_ += 2 * F64 * int(np.prod(shape))
    return flops, bytes_


class PassResult:
    def __init__(self):
        self.wall_s = 0.0  # stopwatch time of the pass
        self.job_s = []  # per-job latency
        self.rounds = 0  # learner rounds of the jobs that run dynamics
        self.dyn_s = 0.0  # time of those jobs
        self.round_rates = []  # rounds/s samples; rounds_per_s is their median over a run
        self.digests = {}


# ---------------------------------------------------------------------------


class HardWalk:
    """``rmkit run`` on the padded m=6 spiral, then ``rmkit analyze`` on its output."""

    name = "hard_walk"
    # a pass takes 15-21 s on a 2-vCPU Xeon VM, so a 58 s run would stop
    # after two passes whenever one took over 19 s; three make the median
    # robust to one slow pass
    MIN_PASSES = 3
    M = 6
    CORRUPTIONS = ("jsonl", "onset")
    # rounds between the CLI's progress lines in a pass: each interval between
    # two lines is one rounds/s sample, about 0.15 s long
    PROGRESS_EVERY = 1_000
    MEMORY_ROUNDS = 10_000  # rounds of the traced run's tracemalloc job

    def __init__(self, seed, workdir, smoke=False, corrupt=None):
        self.seed = seed  # the construction is fixed; the seed changes nothing
        self.rounds = 8_000 if smoke else 62_000  # > 61,210, the onset of payoff 9
        self.corrupt = corrupt
        self.checkpoints = [c for c in (1_000, 10_000) if c < self.rounds] + [self.rounds]
        self.paths = {
            key: os.path.join(workdir, name)
            for key, name in (("game", "padded_m6.json"), ("trace", "trace.csv"),
                              ("strategies", "strategies.jsonl"),
                              ("run_report", "run_report.json"),
                              ("analyze_report", "analyze_report.json"))
        }
        self._final_states_digest = None

    def setup(self):
        self.game = hard.build_padded(self.M)
        gm.save_game(self.game, self.paths["game"])
        self.range = gm.utility_range(self.game)
        expected = dict(M6_FIRST_SEEN)
        if self.corrupt == "onset":
            expected[8] += 1
        self.expected_onsets = {k: t for k, t in expected.items() if t <= self.rounds}
        # warm up: the CLI's imports, argparse, writers and analyzer
        self._cli(self._run_argv(300))
        self._cli(self._analyze_argv([300]))

    def _run_argv(self, rounds):
        return [
            "run", "--hard-instance", f"m={self.M}", "--algo", "rm",
            "--max-rounds", str(rounds),
            "--trace", self.paths["trace"],
            "--strategies", self.paths["strategies"],
            "--report", self.paths["run_report"],
        ]

    def _analyze_argv(self, checkpoints):
        return [
            "analyze", "--strategies", self.paths["strategies"],
            "--analyses", "phases,stall_growth,cce", "--m", str(self.M),
            "--game", self.paths["game"],
            "--cce-at", ",".join(str(c) for c in checkpoints),
            "--out", self.paths["analyze_report"],
        ]

    @staticmethod
    def _cli(argv, err=None):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err or sink):
            return cli.main(argv)

    @contextlib.contextmanager
    def _fine_progress(self):
        # without the constant the samples are whatever progress lines the CLI
        # prints, or else the whole command (see run_pass)
        original = getattr(dyn, "PROGRESS_EVERY", None)
        if original is None:
            yield
            return
        dyn.PROGRESS_EVERY = self.PROGRESS_EVERY
        try:
            yield
        finally:
            dyn.PROGRESS_EVERY = original

    @contextlib.contextmanager
    def _digesting_final_states(self):
        # the CLI drops the run result; keep only a digest of its final states
        original = dyn.run

        def run_and_digest(*args, **kwargs):
            result = original(*args, **kwargs)
            self._final_states_digest = digest_arrays(states_arrays(result.states))
            return result

        dyn.run = run_and_digest
        try:
            yield
        finally:
            dyn.run = original

    def run_pass(self, checks, tracer=None, keep=False):
        res = PassResult()
        sw = Stopwatch()
        run_cli = analyze_cli = self._cli
        if tracer is not None:
            run_cli = tracer.wrap(self._cli, "cli.run")
            analyze_cli = tracer.wrap(self._cli, "cli.analyze")
        clock = ProgressClock()
        t0 = time.perf_counter()
        with self._digesting_final_states(), self._fine_progress(), sw:
            rc_run = run_cli(self._run_argv(self.rounds), err=clock)
        run_s = time.perf_counter() - t0
        checks.check(rc_run == 0, f"rmkit run exit code {rc_run}")
        if self.corrupt == "jsonl":
            self._corrupt_jsonl(1_000)
        with sw:
            rc_an = analyze_cli(self._analyze_argv(self.checkpoints))
        checks.check(rc_an == 0, f"rmkit analyze exit code {rc_an}")
        self._check_reports(checks)
        res.wall_s = sw.total
        res.job_s = [sw.total]
        res.rounds = self.rounds
        res.dyn_s = run_s
        # the loop's speed between progress lines; the whole command (outputs
        # included) if the CLI printed too few lines to time an interval
        res.round_rates = clock.rates() or [self.rounds / run_s]
        res.digests = {
            **{k: sha256_file(self.paths[k])
               for k in ("trace", "strategies", "run_report", "analyze_report")},
            "final_states": self._final_states_digest,
        }
        return res

    def _corrupt_jsonl(self, round_no):
        # one strategy changed: player 1 mixes uniformly in one round
        with open(self.paths["strategies"]) as fh:
            lines = fh.readlines()
        doc = json.loads(lines[round_no - 1])
        doc["blocks"][0] = [1.0 / (self.M + 1)] * (self.M + 1)
        lines[round_no - 1] = json.dumps(doc) + "\n"
        with open(self.paths["strategies"], "w") as fh:
            fh.writelines(lines)

    def _check_reports(self, checks):
        with open(self.paths["run_report"]) as fh:
            run_report = json.load(fh)
        with open(self.paths["analyze_report"]) as fh:
            report = json.load(fh)
        checks.check(run_report["rounds"] == self.rounds,
                     f"run report rounds {run_report['rounds']} != {self.rounds}")
        seen = {int(k): t for k, t in report["phases"]["first_seen"].items()}
        checks.check(seen == self.expected_onsets,
                     f"first_seen {seen} != frozen onsets {self.expected_onsets}")
        violations = report["phases"]["violations"]
        checks.check(not violations, f"{len(violations)} walk violations, first: {violations[:1]}")
        checks.check(report["stall_growth"]["ok"],
                     f"stall growth failures {report['stall_growth']['failures']}")
        for T in self.checkpoints:
            gap = report["cce"][str(T)] / self.range
            checks.check(gap <= math.sqrt(7.0 / T) + TOL,
                         f"normalized cce gap {gap} > sqrt(7/{T}) at T={T}")

    def sizes(self):
        return {
            "rounds": self.rounds,
            "jobs_per_pass": 1,
            "job": "rmkit run + rmkit analyze",
            "game_shape": list(self.game.action_counts),
            "cce_checkpoints": self.checkpoints,
            "tensor_bytes": F64 * int(np.prod(self.game.action_counts)),
        }

    def round_cost(self):
        return round_cost(self.game.action_counts)

    def io_bytes(self):
        """(bytes the writers wrote, bytes the reader read) in one pass."""
        jsonl = os.path.getsize(self.paths["strategies"])
        return os.path.getsize(self.paths["trace"]) + jsonl, jsonl

    def traced_attributes(self):
        return ()

    def replay_inputs(self):
        strategies = dyn.read_strategies_jsonl(self.paths["strategies"])
        return [(self.game, strategies)]

    def memory_jobs(self):
        # kept bytes grow linearly with rounds: 10,000 rounds give the same
        # bytes per round as 62,000 (within 0.1 %) at a sixth of the time
        # that tracemalloc adds
        config = dyn.RunConfig(kind="rm", max_rounds=min(self.rounds, self.MEMORY_ROUNDS),
                               init_strategies=hard.pure_init_strategies(self.M))
        return [(self.game, config)]


# ---------------------------------------------------------------------------

ALGOS = (("rm", None), ("rm+", None), ("drm+", 0.1), ("drm+", 0.5))  # (kind, gamma)
SCHEMES = ("simultaneous", "alternating", "lazy")
FAMILIES = ("potential", "symmetric_identical", "congestion")
SHAPES = tuple((fam, n, m) for fam in FAMILIES for n in (2, 3) for m in (2, 3, 4))
LAZY_EPSILON = 0.01


def make_game(family, players, actions, seed):
    if family == "potential":
        game = gm.random_potential_game(players, (actions,) * players, seed=seed)
    elif family == "symmetric_identical":
        game = gm.random_symmetric_identical_game(players, actions, seed=seed)
    else:
        game = gm.random_congestion_game(players, actions, seed=seed)
    return gm.normalize_game(game)


def run_config(kind, gamma, scheme, max_rounds):
    return dyn.RunConfig(
        scheme=scheme,
        kind=kind,
        max_rounds=max_rounds,
        epsilon=LAZY_EPSILON if scheme == "lazy" else None,
        discount=None if gamma is None else 1.0 - gamma,
    )


class PotentialBatch:
    """Many short seeded runs over the learner x scheme grid of the regret-bound plan."""

    name = "potential_batch"
    MIN_PASSES = 3  # so that a run has more than 100 jobs
    CORRUPTIONS = ("game",)
    REPLAY_STRIDE = 10  # replay every tenth recorded profile

    def __init__(self, seed, workdir, smoke=False, corrupt=None):
        self.seed = seed
        # one cycle of lcm(18 shapes, 4 learners, 3 schemes)
        self.jobs = 12 if smoke else 36
        self.max_rounds = 100 if smoke else 1000
        self.corrupt = corrupt

    def setup(self):
        rng = np.random.default_rng(self.seed)
        plan = []
        for idx in range(self.jobs):
            family, n, m = SHAPES[idx % len(SHAPES)]
            game = make_game(family, n, m, int(rng.integers(2**31)))
            kind, gamma = ALGOS[idx % len(ALGOS)]
            plan.append((game, kind, gamma, SCHEMES[idx % len(SCHEMES)]))
        if self.corrupt == "game":
            game, kind, gamma, scheme = plan[0]
            loud = gm.GameSpec(game.action_counts, [1e3 * u for u in game.utilities],
                               potential=1e3 * game.potential, tags=game.tags)
            plan[0] = (loud, kind, gamma, scheme)
        self.plan = plan
        for game, kind, gamma, scheme in plan[: len(ALGOS) * len(SCHEMES)]:
            dyn.run(game, run_config(kind, gamma, scheme, 20))

    def run_pass(self, checks, tracer=None, keep=False):
        res = PassResult()
        sw = Stopwatch()
        final, traces = [], []
        self.kept = []
        self.last_rounds = []
        self.lazy_visits = self.lazy_skips = 0
        for game, kind, gamma, scheme in self.plan:
            t0 = time.perf_counter()
            with sw:
                result = dyn.run(game, run_config(kind, gamma, scheme, self.max_rounds))
            job_s = time.perf_counter() - t0
            res.job_s.append(job_s)
            res.rounds += result.rounds
            res.dyn_s += job_s
            self.last_rounds.append(result.rounds)
            self._check(checks, game, gamma, result)
            final.extend(states_arrays(result.states))
            traces.append(trace_matrix(result.traces))
            if scheme == "lazy":
                self.lazy_visits += result.rounds * game.num_players
                self.lazy_skips += sum(not u for rec in result.traces for u in rec.updated)
            if keep:
                self.kept.append((game, result.history.strategies[:: self.REPLAY_STRIDE]))
        res.wall_s = sw.total
        res.round_rates = [res.rounds / res.dyn_s]
        res.digests = {"final_states": digest_arrays(final), "traces": digest_arrays(traces)}
        return res

    @staticmethod
    def _check(checks, game, gamma, result):
        T = result.rounds
        norms = [float(np.linalg.norm(np.maximum(s.regrets, 0.0))) for s in result.states]
        caps = [math.sqrt(m * T) for m in game.action_counts]
        checks.check(all(r <= c + TOL for r, c in zip(norms, caps)),
                     f"||[r]+||_2 {norms} > sqrt(mT) {caps}")
        if gamma is not None:
            cap = [math.sqrt(m / gamma) for m in game.action_counts]
            worst = max(n - c for rec in result.traces for n, c in zip(rec.regret_l2, cap))
            checks.check(worst <= TOL, f"drm+ per-round norm exceeds sqrt(m/gamma) by {worst}")

    def sizes(self):
        return {
            "jobs_per_pass": self.jobs,
            "max_rounds_per_job": self.max_rounds,
            "lazy_epsilon": LAZY_EPSILON,
            "shapes": [list(g.action_counts) for g, *_ in self.plan],
        }

    def round_cost(self):
        # weighted by the rounds each job ran in the last pass
        flops = bytes_ = rounds = 0
        for (game, *_), r in zip(self.plan, self.last_rounds):
            f, b = round_cost(game.action_counts)
            flops += r * f
            bytes_ += r * b
            rounds += r
        return flops / rounds, bytes_ / rounds

    def io_bytes(self):
        return 0, 0

    def traced_attributes(self):
        return ()

    def replay_inputs(self):
        return self.kept

    def memory_jobs(self):
        # one job of every learner x scheme cell
        return [(game, run_config(kind, gamma, scheme, self.max_rounds))
                for game, kind, gamma, scheme in self.plan[: len(ALGOS) * len(SCHEMES)]]


# ---------------------------------------------------------------------------


class TensorKernel:
    """Simultaneous rm+ on a 3 x 64 potential game, as a GameSpec and as an objective."""

    name = "tensor_kernel"
    MIN_PASSES = 2
    CORRUPTIONS = ("tensor",)

    def __init__(self, seed, workdir, smoke=False, corrupt=None):
        self.seed = seed
        self.shape = (16, 16, 16) if smoke else (64, 64, 64)
        self.rounds = 30 if smoke else 500
        self.corrupt = corrupt

    def setup(self):
        game = gm.random_potential_game(len(self.shape), self.shape, seed=self.seed)
        self.game = gm.normalize_game(game)
        source = self.game
        if self.corrupt == "tensor":
            pot = self.game.potential.copy()
            pot[(0,) * pot.ndim] += 0.5
            source = gm.GameSpec(self.shape, self.game.utilities, potential=pot)
        self.objective = ob.make_multilinear(source)
        self.config = dyn.RunConfig(scheme="simultaneous", kind="rm+", max_rounds=self.rounds)
        warm = dyn.RunConfig(scheme="simultaneous", kind="rm+", max_rounds=3)
        dyn.run(self.game, warm)
        dyn.run(self.objective, warm)

    def run_pass(self, checks, tracer=None, keep=False):
        res = PassResult()
        sw = Stopwatch()
        with sw:
            on_game = dyn.run(self.game, self.config)
        with sw:
            on_objective = dyn.run(self.objective, self.config)
        res.wall_s = res.dyn_s = sw.total
        res.job_s = [sw.total]
        res.rounds = on_game.rounds + on_objective.rounds
        res.round_rates = [res.rounds / res.dyn_s]
        self._check(checks, on_game, on_objective)
        res.digests = {
            "final_states_game": digest_arrays(states_arrays(on_game.states)),
            "final_states_objective": digest_arrays(states_arrays(on_objective.states)),
            "traces_game": digest_arrays([trace_matrix(on_game.traces)]),
            "traces_objective": digest_arrays([trace_matrix(on_objective.traces)]),
        }
        self.kept = [(self.game, on_game.history.strategies)] if keep else []
        return res

    def _check(self, checks, a, b):
        same = all(np.allclose(x, y, rtol=0.0, atol=TOL)
                   for x, y in zip(a.final_profile, b.final_profile))
        checks.check(same, "game and objective paths end on different profiles")
        ka = np.array([r.kkt_gap for r in a.traces])
        kb = np.array([r.kkt_gap for r in b.traces])
        diff = float(np.abs(ka - kb).max()) if len(ka) == len(kb) else math.inf
        checks.check(diff <= TOL, f"KKT traces differ by {diff}")
        for label, result in (("game", a), ("objective", b)):
            T = result.rounds
            norms = [float(np.linalg.norm(np.maximum(s.regrets, 0.0))) for s in result.states]
            checks.check(all(r <= math.sqrt(m * T) + TOL for r, m in zip(norms, self.shape)),
                         f"{label} path: ||[r]+||_2 {norms} > sqrt(mT)")

    def sizes(self):
        nbytes = F64 * int(np.prod(self.shape))
        return {
            "rounds_per_path": self.rounds,
            "jobs_per_pass": 1,
            "job": "GameSpec run + objective run",
            "shape": list(self.shape),
            "potential_bytes": nbytes,
            "working_set_bytes": (len(self.shape) + 1) * nbytes,
            "objective_path_flops_bytes_per_round": round_cost(self.shape, copies=True),
        }

    def round_cost(self):
        return round_cost(self.shape)

    def io_bytes(self):
        return 0, 0

    def traced_attributes(self):
        return ((self.objective, "block_gradient", "objectives.block_gradient"),
                (self.objective, "value", "objectives.value"))

    def replay_inputs(self):
        return self.kept

    def memory_jobs(self):
        return [(self.game, self.config), (self.objective, self.config)]


WORKLOADS = {w.name: w for w in (HardWalk, PotentialBatch, TensorKernel)}
