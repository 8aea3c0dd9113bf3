"""Certificate methods, Monte Carlo estimation of instability, and coverage runs.

``METHODS`` is the one table of certificate methods, used by the CLI and
by every coverage trial; a :class:`SampleSet` computes the points and
complexities the methods read at most once per private multi-sample.

Two estimators and one harness:

* allocation instability: the chance a fresh realization makes some
  coalition's sampled value exceed what the allocation pays it;
* core instability: the chance a fresh realization cuts into the core,
  decided through precomputed per-coalition minima (a realization removes
  some core point iff a coalition's value exceeds that coalition's
  minimum payoff over the core);
* coverage experiments that rebuild the whole pipeline trial after trial
  and compare certified levels against estimated truth.

Coverage runs are trial-major: a trial's seeds depend on the experiment
seed and the trial index, never on the method, so one trial draws one
private multi-sample into one :class:`SampleSet` (one core, allocation,
compression set, ζ solution and set of core minima) and certifies every
requested method on it.  One fresh draw then serves them all: each
coalition's fresh values are computed once, compared against every
distinct point's threshold and dropped.

All estimators are exact binomial experiments, reported with two-sided
99% Clopper-Pearson intervals.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np
from scipy.special import betaincinv

from . import compression, risk, scenario_core, zeta_core
from .errors import CoalisureError, ConfigError, EmptyCoreError
from .game import GameSpec, enumerate_subcoalitions
from .sampling import DistributionSpec, PrivateSamples, draw_fresh, draw_private

_TRIAL_TAG = 0x7B1A15

CP_CONFIDENCE = 0.99


def clopper_pearson(hits: int, n: int, confidence: float = CP_CONFIDENCE) -> tuple[float, float]:
    """Two-sided exact binomial interval for hits/n."""
    if not 0 <= hits <= n or n < 1:
        raise CoalisureError("need 0 <= hits <= n with n >= 1")
    alpha = 1.0 - confidence
    lo = 0.0 if hits == 0 else float(betaincinv(hits, n - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == n else float(betaincinv(hits + 1, n - hits, 1.0 - alpha / 2.0))
    return lo, hi


@dataclass(eq=False)
class SampleSet:
    """Everything one private multi-sample determines, each computed at most
    once: the scenario core, its lexicographic allocation, the compression
    set and the slack-minimizing solution.  Every coverage trial builds its
    own, so threads share none."""

    spec: GameSpec
    samples: PrivateSamples
    mode: compression.CompressionMode

    @cached_property
    def core(self) -> scenario_core.ScenarioCoreDesc:
        return scenario_core.build(self.spec, scenario_core.tighten(self.spec, self.samples))

    @cached_property
    def allocation(self) -> np.ndarray:
        return scenario_core.lexicographic_allocation(self.core)

    @cached_property
    def compression(self) -> compression.CompressionSet:
        return compression.compress_all(self.spec, self.samples, self.mode)

    @cached_property
    def zeta(self) -> zeta_core.ZetaSolution:
        return zeta_core.solve_zeta_program(self.spec, self.samples)


@dataclass(frozen=True)
class Method:
    """One certificate method.  ``point`` and ``complexity`` are attribute
    paths into a :class:`SampleSet`: the point whose out-of-sample
    instability the certificate bounds and the per-agent counts it reads
    (``None``: an a priori statement).  ``certificate(config, counts,
    seed)`` builds it; ``derives_beta``: its confidence is an output."""

    point: str
    certificate: Callable[..., risk.RiskCertificate]
    complexity: str | None = None
    derives_beta: bool = False

    @property
    def needs_samples(self) -> bool:
        return self.complexity is not None

    def counts(self, sampled: SampleSet | None) -> tuple[int, ...] | None:
        return attrgetter(self.complexity)(sampled) if self.needs_samples else None


# Certificates call risk and zeta_core through their module attributes at
# call time, never through stored function objects, so a caller that
# rebinds those attributes sees every call.
def _compression_provenance(config, seed) -> dict:
    return {"seed": seed, "compression": config.compression_mode.tag}


def _support_rank_bound(config, counts, seed) -> risk.RiskCertificate:
    if config.epsilon is None:
        raise ConfigError("allocation-apriori needs 'epsilon' in the config")
    n = config.spec.n_agents
    ranks = [risk.support_rank(config.spec, i) for i in range(n)]
    return risk.a_priori_allocation_bound([config.epsilon / n] * n, config.counts, ranks)


METHODS: dict[str, Method] = {
    risk.METHOD_CORE_APOSTERIORI: Method(
        "core",
        lambda config, s, seed: risk.a_posteriori_core_bound(
            config.split(), s, config.counts, provenance=_compression_provenance(config, seed)
        ),
        "compression.cardinalities",
    ),
    risk.METHOD_CORE_APRIORI: Method(
        "core", lambda config, s, seed: risk.a_priori_core_bound(config.split(), config.counts)
    ),
    risk.METHOD_ALLOCATION_APRIORI: Method("allocation", _support_rank_bound, derives_beta=True),
    risk.METHOD_ALLOCATION_APOSTERIORI: Method(
        "allocation",
        lambda config, s, seed: risk.a_posteriori_allocation_bound(
            config.split(), s, config.counts, provenance=_compression_provenance(config, seed)
        ),
        "compression.cardinalities",
    ),
    risk.METHOD_ALLOCATION_APRIORI_BUDGET: Method(
        "allocation",
        lambda config, s, seed: risk.a_priori_allocation_bound_budget(config.split(), config.counts),
    ),
    risk.METHOD_RELAXED_ALLOCATION: Method(
        "zeta.x_star",
        lambda config, s, seed: zeta_core.zeta_certificate(
            config.split(),
            s,
            config.counts,
            config.spec.n_agents,
            assumption_continuous=not config.dist.possibly_degenerate,
            provenance={"seed": seed},
        ),
        "zeta.s_star",
    ),
}


def certify(method: str, config, sampled: SampleSet | None, seed: int) -> risk.RiskCertificate:
    """The method's certificate, reading its complexity from ``sampled``
    (which may be ``None`` for a priori methods)."""
    entry = METHODS[method]
    return entry.certificate(config, entry.counts(sampled), seed)


@dataclass(frozen=True)
class ViolationEstimate:
    """Empirical violation frequency with its exact confidence interval."""

    p_hat: float
    n_samples: int
    hits: int
    lower: float
    upper: float
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "n_samples": self.n_samples,
            "hits": self.hits,
            "cp_lower": self.lower,
            "cp_upper": self.upper,
            "confidence": CP_CONFIDENCE,
            "seed": self.seed,
        }


def _allocation_thresholds(spec: GameSpec, x: Sequence[float]) -> dict[int, float]:
    """What the allocation pays each coalition, by coalition mask."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n_agents,):
        raise CoalisureError("allocation length does not match the agent count")
    return {c.mask: float(x[list(c.members)].sum()) for c in enumerate_subcoalitions(spec)}


def _core_thresholds(core: scenario_core.ScenarioCoreDesc) -> dict[int, float]:
    """Each coalition's minimum payoff over the core, by coalition mask."""
    try:
        return {c.mask: scenario_core.coalition_min(core, c) for c in core.coalitions()}
    except EmptyCoreError as exc:
        raise EmptyCoreError("core instability is undefined for an empty core") from exc


def estimate_violations(
    spec: GameSpec,
    thresholds: Sequence[dict[int, float]],
    dist: DistributionSpec,
    n: int,
    seed: int,
) -> list[ViolationEstimate]:
    """For each threshold map: the fraction of ``n`` fresh draws under which
    some coalition's value strictly exceeds its threshold.

    All maps share one fresh draw and one evaluation of every coalition's
    values; no values are kept beyond the coalition being compared.
    """
    fresh = draw_fresh(dist, n, seed)
    flags = [np.zeros(fresh.shape[0], dtype=bool) for _ in thresholds]
    for coalition in enumerate_subcoalitions(spec):
        vals = spec.value_model.value_batch(coalition, fresh)
        for hit, lims in zip(flags, thresholds):
            hit |= vals > lims[coalition.mask]
    out = []
    for hit in flags:
        hits = int(hit.sum())
        lo, hi = clopper_pearson(hits, n)
        out.append(ViolationEstimate(hits / n, int(n), hits, lo, hi, int(seed)))
    return out


def estimate_allocation_instability(
    spec: GameSpec, x: Sequence[float], dist: DistributionSpec, n: int, seed: int
) -> ViolationEstimate:
    """Fraction of fresh draws under which some coalition strictly prefers
    defecting from the allocation; ties count as stable."""
    return estimate_violations(spec, [_allocation_thresholds(spec, x)], dist, n, seed)[0]


def estimate_core_instability(
    spec: GameSpec,
    core: scenario_core.ScenarioCoreDesc,
    dist: DistributionSpec,
    n: int,
    seed: int,
) -> ViolationEstimate:
    """Fraction of fresh draws that would cut some allocation out of the core.

    A draw removes a point iff some coalition's value strictly exceeds the
    coalition's minimum payoff over the core, so the per-sample cost after
    the LP precomputation is one affine evaluation per coalition.
    """
    return estimate_violations(spec, [_core_thresholds(core)], dist, n, seed)[0]


@dataclass(frozen=True)
class TrialResult:
    trial: int
    master_seed: int
    fresh_seed: int
    epsilon: float | None = None
    p_hat: float | None = None
    cp_lower: float | None = None
    cp_upper: float | None = None
    exceeded: bool | None = None
    s_values: tuple[int, ...] | None = None
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "master_seed": self.master_seed,
            "fresh_seed": self.fresh_seed,
            "epsilon": self.epsilon,
            "p_hat": self.p_hat,
            "cp_lower": self.cp_lower,
            "cp_upper": self.cp_upper,
            "exceeded": self.exceeded,
            "s_values": list(self.s_values) if self.s_values is not None else None,
            "error": self.error,
        }


@dataclass(frozen=True)
class CoverageReport:
    """Per-trial certified levels vs. estimated truth for one method."""

    method: str
    beta: float
    n_trials: int
    n_fresh: int
    seed: int
    trials: tuple[TrialResult, ...]

    @property
    def n_failed(self) -> int:
        return sum(1 for t in self.trials if t.error is not None)

    @property
    def exceedance_frequency(self) -> float:
        done = [t for t in self.trials if t.error is None]
        if not done:
            return 0.0
        return sum(1 for t in done if t.exceeded) / len(done)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "method": self.method,
            "beta": self.beta,
            "n_trials": self.n_trials,
            "n_fresh": self.n_fresh,
            "seed": self.seed,
            "exceedance_frequency": self.exceedance_frequency,
            "n_failed": self.n_failed,
            "trials": [t.to_json_dict() for t in self.trials],
        }

    def to_csv(self) -> str:
        lines = ["trial,master_seed,fresh_seed,epsilon,p_hat,cp_lower,cp_upper,exceeded,error"]
        for t in self.trials:
            fields = [
                str(t.trial),
                str(t.master_seed),
                str(t.fresh_seed),
                "" if t.epsilon is None else repr(t.epsilon),
                "" if t.p_hat is None else repr(t.p_hat),
                "" if t.cp_lower is None else repr(t.cp_lower),
                "" if t.cp_upper is None else repr(t.cp_upper),
                "" if t.exceeded is None else str(t.exceeded).lower(),
                t.error or "",
            ]
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CoverageConfig:
    """One coverage experiment: a fixed game, resampled trial after trial."""

    spec: GameSpec
    dist: DistributionSpec
    counts: tuple[int, ...]
    method: str
    beta: float
    n_trials: int
    n_fresh: int
    seed: int
    beta_split: str | tuple[float, ...] = "equal"
    epsilon: float | None = None  # only the support-rank method needs it
    compression_mode: compression.CompressionMode = field(
        default_factory=compression.CompressionMode.default
    )

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown certificate method {self.method!r}")
        if len(self.counts) != self.spec.n_agents:
            raise ConfigError("counts must cover every agent")
        if self.method == risk.METHOD_ALLOCATION_APRIORI and self.epsilon is None:
            raise ConfigError("the support-rank method needs a total epsilon")
        if self.n_trials < 1 or self.n_fresh < 1:
            raise ConfigError("a coverage run needs at least one trial and one fresh draw")

    def split(self) -> risk.BetaSplit:
        return risk.BetaSplit.make(self.beta, self.spec.n_agents, self.beta_split, self.counts)


_SHARED_FIELDS = tuple(f.name for f in fields(CoverageConfig) if f.name != "method")


def trial_seeds(seed: int, trial: int) -> tuple[int, int]:
    """Deterministic (private, fresh) seeds for one trial."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_TRIAL_TAG, int(trial)))
    a, b = ss.generate_state(2, dtype=np.uint64)
    return int(a), int(b)


def _error(exc: CoalisureError) -> str:
    return f"{type(exc).__name__}: {exc}"


def trial_results(configs: Sequence[CoverageConfig], trial: int) -> list[TrialResult]:
    """One trial of every config's method, in the order given.

    The configs differ only in ``method``.  One private multi-sample feeds
    one :class:`SampleSet`; each method takes its point, then its
    certificate, then the point's thresholds from it, and a
    :class:`CoalisureError` on the way is that method's result.  The
    methods that get through share one fresh draw, with one estimate per
    distinct point.
    """
    config = configs[0]
    master_seed, fresh_seed = trial_seeds(config.seed, trial)
    try:
        sampled = SampleSet(
            config.spec, draw_private(config.dist, config.counts, master_seed), config.compression_mode
        )
    except CoalisureError as exc:
        return [TrialResult(trial, master_seed, fresh_seed, error=_error(exc)) for _ in configs]
    outcomes: list[risk.RiskCertificate | str] = []
    thresholds: dict[str, dict[int, float]] = {}  # point path -> thresholds
    for cfg in configs:
        method = METHODS[cfg.method]
        try:
            point = attrgetter(method.point)(sampled)
            cert = certify(cfg.method, cfg, sampled, master_seed)
            if method.point not in thresholds:
                thresholds[method.point] = (
                    _core_thresholds(point)
                    if method.point == "core"
                    else _allocation_thresholds(config.spec, point)
                )
            outcomes.append(cert)
        except CoalisureError as exc:
            outcomes.append(_error(exc))
    estimates: dict[str, ViolationEstimate] = {}
    if thresholds:
        found = estimate_violations(
            config.spec, list(thresholds.values()), config.dist, config.n_fresh, fresh_seed
        )
        estimates = dict(zip(thresholds, found))
    results = []
    for cfg, outcome in zip(configs, outcomes):
        if isinstance(outcome, str):
            results.append(TrialResult(trial, master_seed, fresh_seed, error=outcome))
            continue
        method = METHODS[cfg.method]
        est = estimates[method.point]
        results.append(
            TrialResult(
                trial=trial,
                master_seed=master_seed,
                fresh_seed=fresh_seed,
                epsilon=outcome.epsilon,
                p_hat=est.p_hat,
                cp_lower=est.lower,
                cp_upper=est.upper,
                exceeded=bool(est.lower > outcome.epsilon),
                s_values=method.counts(sampled),
            )
        )
    return results


def run_trial(config: CoverageConfig, trial: int) -> TrialResult:
    """One trial of one method: draw a private multi-sample, compute the
    method's point, then its certificate, then the point's estimated
    instability."""
    return trial_results([config], trial)[0]


def worker_count() -> int:
    raw = os.environ.get("COALISURE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _same_experiment(a: CoverageConfig, b: CoverageConfig) -> bool:
    try:
        return all(
            getattr(a, name) is getattr(b, name) or getattr(a, name) == getattr(b, name)
            for name in _SHARED_FIELDS
        )
    except ValueError:  # distinct distribution objects compare arrays element-wise
        return False


def _report_beta(config: CoverageConfig) -> float:
    if METHODS[config.method].derives_beta:
        # a confidence derived from (K, eps, rank) does not depend on the
        # drawn samples, so one certificate stands for every trial
        return certify(config.method, config, None, config.seed).beta
    return config.beta


def coverage_experiments(configs: Sequence[CoverageConfig]) -> list[CoverageReport]:
    """One report per config, run trial-major: every trial serves all the
    configs' methods (see :func:`trial_results`).

    The configs must differ only in ``method``.  Trials run in a thread
    pool of ``COALISURE_THREADS`` workers, each taking whole trial indices;
    per-trial seeds derive from (experiment seed, trial index) alone, so
    the reports are identical whatever the worker count.
    """
    configs = list(configs)
    if not configs:
        return []
    if not all(_same_experiment(c, configs[0]) for c in configs[1:]):
        raise ConfigError("coverage configs run together must differ only in method")
    indices = range(configs[0].n_trials)
    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(lambda t: trial_results(configs, t), indices))
    else:
        per_trial = [trial_results(configs, t) for t in indices]
    return [
        CoverageReport(
            method=config.method,
            beta=_report_beta(config),
            n_trials=config.n_trials,
            n_fresh=config.n_fresh,
            seed=config.seed,
            trials=tuple(results[i] for results in per_trial),
        )
        for i, config in enumerate(configs)
    ]


def coverage_experiment(config: CoverageConfig) -> CoverageReport:
    """Run every trial of one method and collect the report."""
    return coverage_experiments([config])[0]
