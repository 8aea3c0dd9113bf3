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

A coverage run takes one :class:`Experiment` and the methods to check on
it, and is trial-major: a trial's seeds depend on the experiment seed and
the trial index, never on the method, so one trial draws one private
multi-sample into one :class:`SampleSet` (one core, allocation,
compression set, ζ solution and set of core minima) and certifies every
method on it, a certificate that reads no samples being built once per
experiment.  One fresh draw then serves them all, streamed
in blocks of ``sampling._FRESH_BLOCK`` rows: in each block, each
coalition's fresh values are computed once, compared against every
distinct point's threshold and dropped, so the pass holds one block
whatever the number of fresh draws.

All estimators are exact binomial experiments, reported with two-sided
99% Clopper-Pearson intervals.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np
from scipy.special import betaincinv

from . import compression, risk, scenario_core, zeta_core
from .errors import CoalisureError, ConfigError, EmptyCoreError
from .game import GameSpec
from .sampling import DistributionSpec, PrivateSamples, draw_private, fresh_blocks

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
    set and the slack-minimizing solution, at that allocation unless the
    core is empty.  Every coverage trial builds its own, so threads share none."""

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
        try:
            x = self.allocation
        except EmptyCoreError:
            return zeta_core.solve_zeta_program(self.spec, self.samples)
        return zeta_core.solution_at(self.spec, self.samples, x)


@dataclass(frozen=True)
class Method:
    """One certificate method.  ``point`` and ``complexity`` are attribute
    paths into a :class:`SampleSet`: the point whose out-of-sample
    instability the certificate bounds and the per-agent counts it reads
    (``None``: an a priori statement).  ``certificate(config, counts,
    seed)`` builds it."""

    point: str
    certificate: Callable[..., risk.RiskCertificate]
    complexity: str | None = None

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


def check_prerequisites(spec: GameSpec, counts, epsilon, methods, *, needs_epsilon=True, ranks=True) -> None:
    """A :class:`ConfigError` unless every one of ``methods`` is a known
    method and ``allocation-apriori``, if among them, has a total
    ``epsilon`` (if ``needs_epsilon``), every agent in some coalition and
    (if ``ranks``) each K_i >= its support rank."""
    for method in methods:
        if method not in risk.ALL_METHODS:  # a tuple: an unhashable entry is unknown, not a TypeError
            raise ConfigError(f"unknown certificate method {method!r}; valid: {', '.join(risk.ALL_METHODS)}")
    if risk.METHOD_ALLOCATION_APRIORI not in methods:
        return
    if needs_epsilon and epsilon is None:
        raise ConfigError("allocation-apriori needs 'epsilon' in the config")
    for agent, k in enumerate(counts):
        if not spec.allowed(agent):
            raise ConfigError(f"allocation-apriori needs every agent in a coalition: agent {agent + 1} joins none")
        if ranks and k < (rank := risk.support_rank(spec, agent)):
            msg = f"agent {agent + 1} has {k} samples, support rank {rank}"
            raise ConfigError(f"allocation-apriori needs K_i >= the support rank: {msg}")


def _support_rank_bound(config) -> risk.RiskCertificate:
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
    risk.METHOD_ALLOCATION_APRIORI: Method("allocation", lambda config, s, seed: _support_rank_bound(config)),
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


def _allocation_thresholds(spec: GameSpec, x: Sequence[float]) -> np.ndarray:
    """What the allocation pays each coalition of ``spec``, in row order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n_agents,):
        raise CoalisureError("allocation length does not match the agent count")
    return spec.payoffs(x)


def _core_thresholds(spec: GameSpec, core: scenario_core.ScenarioCoreDesc) -> np.ndarray:
    """Each coalition's minimum payoff over the core, in ``spec``'s row order."""
    try:
        return np.array([scenario_core.coalition_min(core, c) for c in spec.coalitions])
    except EmptyCoreError as exc:
        raise EmptyCoreError("core instability is undefined for an empty core") from exc


def estimate_violations(
    spec: GameSpec,
    thresholds: Sequence[np.ndarray],
    dist: DistributionSpec,
    n: int,
    seed: int,
) -> list[ViolationEstimate]:
    """For each threshold array (one entry per coalition of ``spec``, in row
    order): the fraction of ``n`` fresh draws under which some coalition's
    value strictly exceeds its threshold.

    All maps share one fresh draw, streamed block by block
    (:func:`~coalisure.sampling.fresh_blocks`), and one evaluation of every
    coalition's values per block; no values are kept beyond the coalition
    being compared, and no draws beyond the block.  Arrays with equal bytes
    give equal comparisons, so each distinct array is compared once.
    """
    distinct = {lims.tobytes(): lims for lims in thresholds}
    hits = [0] * len(distinct)
    for block in fresh_blocks(dist, n, seed):
        flags = [np.zeros(block.shape[0], dtype=bool) for _ in distinct]
        for row, coalition in enumerate(spec.coalitions):
            vals = spec.value_model.value_batch(coalition, block)
            for hit, lims in zip(flags, distinct.values()):
                hit |= vals > lims[row]
        hits = [total + int(np.count_nonzero(hit)) for total, hit in zip(hits, flags)]
    found = {}
    for key, count in zip(distinct, hits):
        lo, hi = clopper_pearson(count, n)
        found[key] = ViolationEstimate(count / n, int(n), count, lo, hi, int(seed))
    return [found[lims.tobytes()] for lims in thresholds]


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
    return estimate_violations(spec, [_core_thresholds(spec, core)], dist, n, seed)[0]


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
        return {**vars(self), "s_values": None if self.s_values is None else list(self.s_values)}


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
            levels = ["" if v is None else repr(v) for v in (t.epsilon, t.p_hat, t.cp_lower, t.cp_upper)]
            exceeded = "" if t.exceeded is None else str(t.exceeded).lower()
            ids = [str(t.trial), str(t.master_seed), str(t.fresh_seed)]
            lines.append(",".join([*ids, *levels, exceeded, t.error or ""]))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, kw_only=True)
class Experiment:
    """One coverage experiment: a fixed game, resampled trial after trial,
    each trial's points checked against ``n_fresh`` fresh draws."""

    spec: GameSpec
    dist: DistributionSpec
    counts: tuple[int, ...]
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
        if len(self.counts) != self.spec.n_agents:
            raise ConfigError("counts must cover every agent")
        if self.n_trials < 1 or self.n_fresh < 1:
            raise ConfigError("a coverage run needs at least one trial and one fresh draw")

    def split(self) -> risk.BetaSplit:
        return risk.BetaSplit.make(self.beta, self.spec.n_agents, self.beta_split, self.counts)


@dataclass(frozen=True, kw_only=True)
class CoverageConfig(Experiment):
    """An experiment of one certificate method."""

    method: str

    def __post_init__(self):
        super().__post_init__()
        check_prerequisites(self.spec, self.counts, self.epsilon, [self.method])


def trial_seeds(seed: int, trial: int) -> tuple[int, int]:
    """Deterministic (private, fresh) seeds for one trial."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_TRIAL_TAG, int(trial)))
    a, b = ss.generate_state(2, dtype=np.uint64)
    return int(a), int(b)


def _error(exc: CoalisureError) -> str:
    return f"{type(exc).__name__}: {exc}"


def fixed_certificates(experiment: Experiment, methods: Sequence[str]) -> dict[str, risk.RiskCertificate | str]:
    """The certificate, or its error string, of each of ``methods`` that
    reads no samples: one stands for every trial of ``experiment``."""
    fixed: dict[str, risk.RiskCertificate | str] = {}
    for name in methods:
        if not METHODS[name].needs_samples:
            try:
                fixed[name] = certify(name, experiment, None, experiment.seed)
            except CoalisureError as exc:
                fixed[name] = _error(exc)
    return fixed


def trial_results(
    experiment: Experiment, methods: Sequence[str], trial: int, fixed: dict[str, risk.RiskCertificate | str]
) -> list[TrialResult]:
    """One trial of every method, in the order given.

    One private multi-sample feeds one :class:`SampleSet`; each method
    takes its point, then its certificate (from ``fixed``, see
    :func:`fixed_certificates`, if it reads no samples), then the point's
    thresholds from it, and a :class:`CoalisureError` on the way is that
    method's result.  The methods that get through share one fresh draw,
    with one estimate per distinct point.
    """
    master_seed, fresh_seed = trial_seeds(experiment.seed, trial)
    try:
        samples = draw_private(experiment.dist, experiment.counts, master_seed)
        sampled = SampleSet(experiment.spec, samples, experiment.compression_mode)
    except CoalisureError as exc:
        return [TrialResult(trial, master_seed, fresh_seed, error=_error(exc)) for _ in methods]
    outcomes: list[risk.RiskCertificate | str] = []
    thresholds: dict[str, np.ndarray] = {}  # point path -> thresholds
    for name in methods:
        method = METHODS[name]
        try:
            point = attrgetter(method.point)(sampled)
            cert = fixed[name] if name in fixed else certify(name, experiment, sampled, master_seed)
            if not isinstance(cert, str) and method.point not in thresholds:
                thresholds[method.point] = (
                    _core_thresholds(experiment.spec, point)
                    if method.point == "core"
                    else _allocation_thresholds(experiment.spec, point)
                )
            outcomes.append(cert)
        except CoalisureError as exc:
            outcomes.append(_error(exc))
    estimates: dict[str, ViolationEstimate] = {}
    if thresholds:
        found = estimate_violations(
            experiment.spec, list(thresholds.values()), experiment.dist, experiment.n_fresh, fresh_seed
        )
        estimates = dict(zip(thresholds, found))
    results = []
    for name, outcome in zip(methods, outcomes):
        if isinstance(outcome, str):
            results.append(TrialResult(trial, master_seed, fresh_seed, error=outcome))
            continue
        method = METHODS[name]
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
    methods = (config.method,)
    return trial_results(config, methods, trial, fixed_certificates(config, methods))[0]


def worker_count() -> int:
    raw = os.environ.get("COALISURE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def coverage_experiments(experiment: Experiment, methods: Sequence[str]) -> list[CoverageReport]:
    """One report per method, run trial-major: every trial serves all the
    methods (see :func:`trial_results`).

    Trials run in a thread pool of ``COALISURE_THREADS`` workers, each
    taking whole trial indices; per-trial seeds derive from (experiment
    seed, trial index) alone, so the reports are identical whatever the
    worker count.  A report's ``beta`` is its certificate's where one
    certificate stands for every trial, else the experiment's.
    """
    methods = tuple(methods)
    if not methods:
        return []
    check_prerequisites(experiment.spec, experiment.counts, experiment.epsilon, methods)
    fixed = fixed_certificates(experiment, methods)
    indices = range(experiment.n_trials)
    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(lambda t: trial_results(experiment, methods, t, fixed), indices))
    else:
        per_trial = [trial_results(experiment, methods, t, fixed) for t in indices]
    return [
        CoverageReport(
            method=name,
            beta=getattr(fixed.get(name), "beta", experiment.beta),
            n_trials=experiment.n_trials,
            n_fresh=experiment.n_fresh,
            seed=experiment.seed,
            trials=tuple(results[i] for results in per_trial),
        )
        for i, name in enumerate(methods)
    ]


def coverage_experiment(config: CoverageConfig) -> CoverageReport:
    """Run every trial of one method and collect the report."""
    return coverage_experiments(config, (config.method,))[0]
