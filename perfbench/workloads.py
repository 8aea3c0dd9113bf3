"""Workload inputs, rounds and the correctness gate.

Every workload is a closed loop: one caller, serial, one process.  A run
repeats *rounds* until its time is up; a round is the workload's unit of
work (see ``ROUND`` below).  Inputs are generated from the workload seed
and handed to the program only as a config file or a game, the way a user
would hand them over.

Why these workloads (measured at the commit that added the benchmark):

* ``coverage-n3-k50`` -- the README config.  Each trial is small (LPs with
  at most 3 variables), so fixed per-call costs dominate: LP set-up, one
  seeded generator per private sample, fresh draws, value evaluation.
* ``relaxed-n3-k200`` -- relaxed-allocation trials at K=200 on an
  empty-core game.  One zeta LP with 603 variables plus row generation
  and a lexicographic tie-break is nearly all of each trial, so large-LP
  savings show here and almost nowhere else.
* ``runall-n5-k200`` -- ``coalisure run-all`` on a 5-agent config, the
  command users run.  Its 30 coalitions make compression, coalition minima
  and vertex enumeration the work, and it is the only workload that
  writes artifacts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from coalisure import cli, compression, risk, scenario_core, validation, zeta_core
from coalisure.sampling import draw_private, samples_from_csv

METHODS = list(risk.ALL_METHODS)
ZETA_TOL = 1e-6

ROUND = {
    "coverage-n3-k50": "one trial of each of the six methods",
    "relaxed-n3-k200": "one relaxed-allocation trial on the empty-core game",
    "runall-n5-k200": "one in-process `coalisure run-all` call",
    "relaxed-readme-k200": "one relaxed-allocation trial on the README game",
}

UNIT2 = {"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}

# The README game: never-empty core.
README_VALUES = {
    "1": (0.0, [1.0, 0.4]),
    "2": (0.2, [0.9, 0.5]),
    "3": (0.4, [0.8, 0.6]),
    "1,2": (0.5, [0.6, 0.2]),
    "1,3": (0.5, [0.6, 0.2]),
    "2,3": (0.5, [0.6, 0.2]),
}
# The acceptance suite's empty-core game: the grand value sits a full unit
# below the sum of the singleton suprema.
EMPTY_CORE_VALUES = {
    "1": (0.0, [1.0, 0.5]),
    "2": (0.1, [1.1, 0.4]),
    "3": (0.2, [0.9, 0.6]),
    "1,2": (0.3, [0.0, 0.0]),
    "1,3": (0.3, [0.0, 0.0]),
    "2,3": (0.3, [0.0, 0.0]),
}


def derive(seed: int, *key: int) -> int:
    """A positive 31-bit integer that depends only on (seed, key)."""
    ss = np.random.SeedSequence(entropy=int(seed) % (1 << 64), spawn_key=tuple(int(k) for k in key))
    return 1 + int(ss.generate_state(1, dtype=np.uint32)[0] >> 1)


def config_doc(values, grand_value, k, master_seed, validation_seed, methods, trials=1):
    n = max(int(a) for label in values for a in label.split(","))
    return {
        "schema_version": 1,
        "game": {
            "n_agents": n,
            "grand_value": grand_value,
            "uncertainty_dim": 2,
            "values": {label: [{"a": a, "b": list(b)}] for label, (a, b) in values.items()},
        },
        "distribution": UNIT2,
        "counts": [k] * n,
        "master_seed": master_seed,
        "beta": 0.2,
        "epsilon": 0.15,
        "methods": methods,
        "validation": {"trials": trials, "n_fresh": 100_000, "seed": validation_seed},
    }


def affine_n5_values(seed: int, r: int):
    """Round r's game: all 30 proper coalitions of 5 agents with affine
    values on [0,1]^2, and a grand value of N times the largest value any
    coalition reaches, so the equal split lies in the core for every draw."""
    rng = np.random.default_rng(derive(seed, 5, r))
    values = {}
    for size in range(1, 5):
        for members in itertools.combinations(range(1, 6), size):
            values[",".join(map(str, members))] = (
                float(rng.uniform(0.0, 0.5)),
                [float(v) for v in rng.uniform(0.0, 1.0, size=2)],
            )
    top = max(a + sum(b) for a, b in values.values())
    return values, 5 * top


def trial_record(result, counts) -> dict:
    return {"counts": list(counts), **result.to_json_dict()}


def check_trial(rec: dict, where: str) -> list[str]:
    """A trial that ran must have eps in [0,1], p_hat inside its
    Clopper-Pearson interval and s <= K for every agent."""
    if rec["error"]:
        return []
    bad = []
    eps = rec["epsilon"]
    if not (math.isfinite(eps) and 0.0 <= eps <= 1.0):
        bad.append(f"{where}: epsilon {eps} outside [0,1]")
    if not rec["cp_lower"] <= rec["p_hat"] <= rec["cp_upper"]:
        bad.append(f"{where}: p_hat {rec['p_hat']} outside [{rec['cp_lower']}, {rec['cp_upper']}]")
    if rec["s_values"] is not None and any(
        not 0 <= s <= k for s, k in zip(rec["s_values"], rec["counts"])
    ):
        bad.append(f"{where}: s {rec['s_values']} outside 0..K {rec['counts']}")
    return bad


def full_zeta_objective(doc: dict, samples) -> float:
    """Optimum of the whole slack program (no row generation), by HiGHS.

    Values come straight from the config's affine forms, not from the
    library's value model.
    """
    n = doc["game"]["n_agents"]
    forms = {
        tuple(int(a) - 1 for a in label.split(",")): (p[0]["a"], np.array(p[0]["b"]))
        for label, p in doc["game"]["values"].items()
    }
    counts = [m.shape[0] for m in samples.per_agent]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    rows, cols, data, rhs = [], [], [], []
    r = 0
    for agent, xis in enumerate(samples.per_agent):
        for members, (a, b) in forms.items():
            if agent not in members:
                continue
            u = a + xis @ b
            for k in range(xis.shape[0]):
                # -(x(S) + zeta_ik) <= -u_S(xi_ik)
                rows += [r] * (len(members) + 1)
                cols += list(members) + [n + offsets[agent] + k]
                data += [-1.0] * (len(members) + 1)
                rhs.append(-u[k])
                r += 1
    n_vars = n + int(offsets[-1])
    a_ub = sparse.csr_matrix((data, (rows, cols)), shape=(r, n_vars))
    cost = np.concatenate([np.zeros(n), np.ones(n_vars - n)])
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.array(rhs),
        A_eq=np.concatenate([np.ones(n), np.zeros(n_vars - n)]).reshape(1, -1),
        b_eq=[doc["game"]["grand_value"]],
        bounds=[(None, None)] * n + [(0.0, None)] * (n_vars - n),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference slack program failed: {res.message}")
    return float(res.fun)


class Workload:
    """Base: ``prepare`` and ``before_round`` are untimed, ``round`` is timed."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.trials_done = 0

    def write_config(self, doc: dict, name: str = "config.json") -> Path:
        path = self.workdir / name
        path.write_text(json.dumps(doc))
        return path

    def before_round(self, r: int) -> None:
        pass

    def count_trial(self, rec: dict) -> None:
        self.attempted += 1
        self.trials_done += 1
        self.failed += rec["error"] is not None


class TrialWorkload(Workload):
    """Calls ``validation.run_trial`` directly for each method of a config."""

    values: dict
    grand_value: float
    k: int
    methods: list[str]

    def prepare(self) -> None:
        doc = config_doc(
            self.values, self.grand_value, self.k,
            derive(self.seed, 1), derive(self.seed, 2), self.methods,
        )
        self.doc = doc
        self.config = cli.load_config(self.write_config(doc))
        self.configs = [self._coverage_config(self.config, m) for m in self.methods]
        self.records: list[dict] = []
        self.op_ms: list[float] = []

    @staticmethod
    def _coverage_config(config, method):
        return validation.CoverageConfig(
            spec=config.spec,
            dist=config.dist,
            counts=config.counts,
            method=method,
            beta=config.beta,
            n_trials=1,
            n_fresh=config.n_fresh,
            seed=config.validation_seed,
            beta_split=config.beta_split,
            epsilon=config.epsilon,
            compression_mode=config.compression_mode,
        )

    def warmup(self) -> None:
        # another validation seed, so no measured input is seen twice
        for cfg in self.configs:
            validation.run_trial(dataclasses.replace(cfg, seed=derive(self.seed, 3)), 0)

    def round(self, r: int, clock) -> None:
        for cfg in self.configs:
            t0 = clock()
            result = validation.run_trial(cfg, r)
            self.op_ms.append(1e3 * (clock() - t0))
            rec = trial_record(result, cfg.counts)
            self.records.append(rec)
            self.count_trial(rec)

    def check(self) -> list[str]:
        bad = []
        for rec in self.records:
            bad += check_trial(rec, f"trial {rec['trial']}")
        return bad


class Coverage(TrialWorkload):
    values, grand_value, k, methods = README_VALUES, 6.0, 50, METHODS


class Relaxed(TrialWorkload):
    values, grand_value, k = EMPTY_CORE_VALUES, 3.8, 200
    methods = [risk.METHOD_RELAXED_ALLOCATION]

    def prepare(self) -> None:
        super().prepare()
        # keep each trial's zeta solution for the gate; the hook costs one
        # dict insert per trial
        self.solutions: dict[int, object] = {}
        solve = zeta_core.solve_zeta_program
        self._restore = solve

        def capture(spec, samples):
            sol = solve(spec, samples)
            self.solutions[samples.master_seed] = sol
            return sol

        zeta_core.solve_zeta_program = capture

    def warmup(self) -> None:
        cfg = dataclasses.replace(self.configs[0], seed=derive(self.seed, 3), counts=(20, 20, 20))
        validation.run_trial(cfg, 0)

    def check(self) -> list[str]:
        zeta_core.solve_zeta_program = self._restore
        bad = super().check()
        for rec in self.records:
            if rec["error"]:
                continue
            seed = rec["master_seed"]
            samples = draw_private(self.config.dist, self.config.counts, seed)
            sol = self.solutions[seed]
            ref = full_zeta_objective(self.doc, samples)
            if abs(sol.objective - ref) > ZETA_TOL:
                bad.append(f"trial {rec['trial']}: zeta objective {sol.objective!r} vs HiGHS {ref!r}")
            if list(sol.s_star) != rec["s_values"]:
                bad.append(f"trial {rec['trial']}: s* {rec['s_values']} vs solution {list(sol.s_star)}")
        return bad


class RelaxedReadme(Relaxed):
    """Not a gated workload: shows the relaxed certificate's NoRootError on
    a non-empty core (s*=0) at K=200."""

    values, grand_value = README_VALUES, 6.0


class RunAll(Workload):
    """``coalisure run-all`` in-process; each round has its own game, seeds
    and out dir, so a run's median spans several games."""

    # per round: the run-all call, six certificates, the zeta certificate,
    # and 3 validation trials per method
    TRIALS = 3

    WARMUP_KEY = 1 << 20  # a round index no run reaches

    def prepare(self) -> None:
        self.calls: list[list] = []  # [config, out dir, exit code] per call
        self.op_ms = []
        self.write_config(self._doc(0))

    def _doc(self, r: int, k: int = 200, trials: int = TRIALS) -> dict:
        return config_doc(
            *affine_n5_values(self.seed, r), k,
            derive(self.seed, 1, r), derive(self.seed, 2, r), METHODS, trials,
        )

    def _call(self, config: Path, out: Path) -> int:
        args = ["run-all", "--config", str(config), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(args, standalone_mode=False)
            except SystemExit as exc:
                return int(exc.code or 0)
        return 0

    def warmup(self) -> None:
        doc = self._doc(self.WARMUP_KEY, k=20, trials=1)
        doc["validation"]["n_fresh"] = 1000
        self._call(self.write_config(doc, "warmup.json"), self.workdir / "warmup")

    def before_round(self, r: int) -> None:
        out = self.workdir / f"call{len(self.calls)}"
        self.calls.append([self.write_config(self._doc(r), f"round{r}.json"), out, None])

    def round(self, r: int, clock) -> None:
        call = self.calls[-1]
        t0 = clock()
        call[2] = self._call(call[0], call[1])
        self.op_ms.append(1e3 * (clock() - t0))
        self.attempted += 1
        self.failed += call[2] != 0

    def check(self) -> list[str]:
        bad = []
        for config, out, code in self.calls:
            if code == 0:  # a failed call is counted already
                bad += self._check_call(config, out)
        return bad

    def _check_call(self, config_path: Path, out: Path) -> list[str]:
        where = out.name
        config = cli.load_config(config_path)
        spec, counts = config.spec, list(config.counts)
        bad = []
        samples = samples_from_csv((out / "samples.csv").read_text())
        core = scenario_core.build(spec, scenario_core.tighten(spec, samples))
        core_doc = json.loads((out / "core.json").read_text())
        if core_doc["empty"] or not core_doc["vertices"]:
            bad.append(f"{where}: the core of this game cannot be empty")
        for v in core_doc["vertices"]:
            if not scenario_core.contains(core, v):
                bad.append(f"{where}: vertex {v} is not in the core")
        comp = json.loads((out / "compression.json").read_text())
        selection = tuple(tuple(s["index"] - 1 for s in a["samples"]) for a in comp["agents"])
        if not compression.compression_reproduces_bounds(spec, samples, selection):
            bad.append(f"{where}: compression does not reproduce the bounds")
        certs = json.loads((out / "certificates.json").read_text())["certificates"]
        zeta_cert = json.loads((out / "zeta.json").read_text())["certificate"]
        for name, cert in [*certs.items(), ("zeta", zeta_cert)]:
            self.attempted += 1
            if "error" in cert:
                self.failed += 1
            elif not 0.0 <= cert["epsilon"] <= 1.0:
                bad.append(f"{where}: {name} epsilon {cert['epsilon']} outside [0,1]")
        for m in METHODS:
            report = json.loads((out / f"coverage_{m}.json").read_text())
            for t in report["trials"]:
                rec = {"counts": counts, **t}
                self.count_trial(rec)
                bad += check_trial(rec, f"{where} {m} trial {t['trial']}")
        return bad


WORKLOADS = {
    "coverage-n3-k50": Coverage,
    "relaxed-n3-k200": Relaxed,
    "runall-n5-k200": RunAll,
    "relaxed-readme-k200": RelaxedReadme,
}
