"""Certificate numerics: violation levels, confidence splits, and budgets.

Every statement this package certifies has the shape "with confidence at
least 1 - beta over the private sampling, the violation probability is at
most epsilon".  This module holds the scalar machinery behind those
statements:

* the per-agent violation level as a function of an observed compression
  cardinality, either as the equal-split solution of the binomial-sum
  equation (``epsilon_implicit``) or in closed form (``epsilon_closed_form``);
* the binomial tail that converts a per-agent violation level and a
  support rank into a confidence level (``beta_from_support_rank``);
* worst-case budget maximization for sample-independent bounds
  (dynamic programming over per-agent complexity budgets);
* the polynomial whose smallest root yields the relaxed-core violation
  level (``solve_campi_polynomial``).

Every level checks one shared (K, beta_i, N, s) domain, and every
certificate that sums per-agent levels gets its rows from
``summed_certificate``.  Binomial coefficients are evaluated through
log-gamma so the formulas stay usable at sample counts in the thousands;
violation-level tables and relaxed roots are cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import log
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from .errors import CoalisureError, GameSpecError, NoRootError
from .game import GameSpec, subcoalition_budget

METHOD_CORE_APOSTERIORI = "core-aposteriori"
METHOD_CORE_APRIORI = "core-apriori"
METHOD_ALLOCATION_APRIORI = "allocation-apriori"
METHOD_ALLOCATION_APOSTERIORI = "allocation-aposteriori"
METHOD_ALLOCATION_APRIORI_BUDGET = "allocation-apriori-budget"
METHOD_RELAXED_ALLOCATION = "relaxed-allocation"

ALL_METHODS = (
    METHOD_CORE_APOSTERIORI,
    METHOD_CORE_APRIORI,
    METHOD_ALLOCATION_APRIORI,
    METHOD_ALLOCATION_APOSTERIORI,
    METHOD_ALLOCATION_APRIORI_BUDGET,
    METHOD_RELAXED_ALLOCATION,
)

# target comfortably inside the 1e-10 contract so the residual holds under
# independent re-evaluation too
_ROOT_RESIDUAL_TOL = 5e-11
_BUDGET_CELLS = 1 << 20  # budget-DP candidates per block: 8 MiB of float64


def log_binom(n: int | np.ndarray, k: int | np.ndarray) -> np.ndarray | float:
    """log C(n, k) via log-gamma; -inf outside the support."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    out = np.where(
        (k < 0) | (k > n),
        -np.inf,
        gammaln(n + 1) - gammaln(np.maximum(k, 0) + 1) - gammaln(np.maximum(n - k, 0) + 1),
    )
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BetaSplit:
    """A confidence budget beta divided among agents."""

    total: float
    per_agent: tuple[float, ...]
    strategy: str

    def __post_init__(self):
        if not 0.0 < self.total < 1.0:
            raise CoalisureError(f"beta must lie in (0,1), got {self.total}")
        if any(not 0.0 < b < 1.0 for b in self.per_agent):
            raise CoalisureError("every per-agent beta must lie in (0,1)")
        if abs(sum(self.per_agent) - self.total) > 1e-12:
            raise CoalisureError(f"beta_split sums to {sum(self.per_agent):g}, but beta is {self.total:g}")

    @classmethod
    def equal(cls, beta: float, n_agents: int) -> "BetaSplit":
        share = beta / n_agents
        parts = [share] * (n_agents - 1)
        parts.append(beta - sum(parts))  # make the sum exact
        return cls(beta, tuple(parts), "equal")

    @classmethod
    def proportional(cls, beta: float, counts: Sequence[int]) -> "BetaSplit":
        total_k = sum(counts)
        parts = [beta * k / total_k for k in counts[:-1]]
        parts.append(beta - sum(parts))
        return cls(beta, tuple(parts), "proportional-to-counts")

    @classmethod
    def explicit(cls, betas: Sequence[float]) -> "BetaSplit":
        betas = tuple(float(b) for b in betas)
        return cls(sum(betas), betas, "explicit")

    @classmethod
    def make(cls, beta: float, n_agents: int, strategy, counts=None) -> "BetaSplit":
        if isinstance(strategy, (list, tuple)):
            return cls(beta, cls.explicit(strategy).per_agent, "explicit")  # ranges first, then the sum
        if strategy == "equal":
            return cls.equal(beta, n_agents)
        if strategy == "proportional":
            if counts is None:
                raise CoalisureError("proportional split needs sample counts")
            return cls.proportional(beta, counts)
        raise CoalisureError(f"unknown beta split strategy {strategy!r}")


@dataclass(frozen=True)
class RiskCertificate:
    """One probabilistic stability statement with its full provenance."""

    method: str
    epsilon: float
    beta: float
    per_agent: tuple[dict, ...]
    provenance: dict = field(default_factory=dict)
    warning: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise CoalisureError(f"certificate epsilon {self.epsilon} outside [0,1]")

    def to_json_dict(self) -> dict:
        doc = {
            "schema_version": 1,
            "method": self.method,
            "epsilon": self.epsilon,
            "beta": self.beta,
            "per_agent": [dict(row) for row in self.per_agent],
            "provenance": dict(self.provenance),
        }
        if self.warning:
            doc["warning"] = self.warning
        return doc


def _check_domain(k_total: int, beta_i: float, n_agents: int, s: int) -> None:
    """The domain every violation level shares: K >= 1 samples, N >= 1
    agents, a share 0 < beta_i < 1 and a complexity 0 <= s <= K."""
    if k_total < 1 or n_agents < 1:
        raise CoalisureError("sample and agent counts must be >= 1")
    if not 0.0 < beta_i < 1.0:
        raise CoalisureError(f"beta_i must lie in (0,1), got {beta_i}")
    if not 0 <= s <= k_total:
        raise CoalisureError(f"complexity s={s} outside 0..{k_total}")


def _level_table(k_total: int, beta_i: float, log_div: float) -> np.ndarray:
    """Read-only eps(s) = 1 - (beta_i / (e^log_div C(K,s)))^(1/(K-s)), s < K; eps(K) = 1."""
    ks = np.arange(0, k_total)
    table = np.empty(k_total + 1)
    log_base = log(beta_i) - log_div - log_binom(k_total, ks)
    table[:k_total] = np.clip(1.0 - np.exp(log_base / (k_total - ks)), 0.0, 1.0)
    table[k_total] = 1.0
    table.flags.writeable = False
    return table


@lru_cache(maxsize=256)
def epsilon_implicit(k_total: int, beta_i: float) -> np.ndarray:
    """Violation-level table eps(k), k = 0..K, from the binomial-sum equation.

    The defining condition spreads the confidence mass equally over the
    K - 1 interior binomial terms, so each satisfies
    ``C(K,k) (1-eps(k))^(K-k) = beta / (K-1)`` exactly, and the table plugs
    back into the sum with zero residual.  ``eps(K) = 1`` by convention;
    ``eps(0)`` extends the same formula with the k = 0 coefficient.

    For K = 1 the interior sum is empty and the usual one-sample bound
    ``eps(0) = 1 - beta`` is used instead.
    """
    k_total = int(k_total)
    _check_domain(k_total, beta_i, 1, 0)  # the table spans every s and needs no N
    if k_total > 1:
        return _level_table(k_total, beta_i, log(k_total - 1))
    table = np.array([1.0 - beta_i, 1.0])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=256)
def _closed_form_table(k_total: int, beta_i: float, n_agents: int) -> np.ndarray:
    _check_domain(k_total, beta_i, n_agents, 0)
    return _level_table(k_total, beta_i, log(n_agents + 1))


def epsilon_closed_form(k_total: int, beta_i: float, n_agents: int, s: int) -> float:
    """eps(s) = 1 - (beta / ((N+1) C(K,s)))^(1/(K-s)); eps(K) = 1."""
    k_total, n_agents, s = int(k_total), int(n_agents), int(s)
    _check_domain(k_total, beta_i, n_agents, s)
    return float(_closed_form_table(k_total, beta_i, n_agents)[s])


def _clip_unit(x: float) -> float:
    return float(min(1.0, max(0.0, x)))


def summed_certificate(
    method: str,
    split: BetaSplit,
    s_counts: Sequence[int],
    counts: Sequence[int],
    level: Callable[[int, int, float, int], dict],
    provenance: dict,
    warning: str | None,
) -> RiskCertificate:
    """A certificate whose epsilon is the sum of per-agent levels.

    Agent i's row is ``{"agent", "samples", "beta", **level(i, K_i,
    beta_i, s_i)}``: ``level`` returns the row's complexity and level
    fields, ending in its summand ``"term"``, once (K_i, beta_i, s_i) has
    passed the shared domain check.  Every method with per-agent level rows
    is built here, the a posteriori ones and the budget bounds alike.
    """
    if not len(split.per_agent) == len(s_counts) == len(counts):
        raise CoalisureError("split, complexity counts, and sample counts must align")
    rows = []
    total = 0.0
    for agent, (beta_i, s_i, k_i) in enumerate(zip(split.per_agent, s_counts, counts)):
        k_i, s_i = int(k_i), int(s_i)
        _check_domain(k_i, beta_i, len(counts), s_i)
        rows.append({"agent": agent + 1, "samples": k_i, "beta": beta_i, **level(agent, k_i, beta_i, s_i)})
        total += rows[-1]["term"]
    return RiskCertificate(
        method=method,
        epsilon=_clip_unit(total),
        beta=split.total,
        per_agent=tuple(rows),
        provenance={"split": split.strategy, **provenance},
        warning=warning,
    )


def a_posteriori_core_bound(
    split: BetaSplit, s_counts: Sequence[int], counts: Sequence[int], provenance: dict | None = None
) -> RiskCertificate:
    """Core-instability level from observed per-agent compression sizes."""
    return summed_certificate(
        METHOD_CORE_APOSTERIORI, split, s_counts, counts,
        lambda i, k, b, s: {"s": s, "term": float(epsilon_implicit(k, b)[s])}, provenance or {}, None,
    )


def _budget_maximize(tables: Sequence[np.ndarray], budget: int) -> list[int]:
    """The s maximizing sum_i f_i(s_i) s.t. sum s_i <= budget, 0 <= s_i <= K_i.

    Dynamic programming over (agent, remaining budget), one max-plus step
    per agent: cand[b, s] = f_i(s) + value[b - s] for s <= min(K_i, b) and
    -inf elsewhere, over blocks of budgets of at most ``_BUDGET_CELLS``
    candidates.  ``argmax`` keeps the first maximum, so ties resolve to the
    smallest s for the earliest agents and the assignment is deterministic.
    """
    budget = int(min(budget, sum(len(t) - 1 for t in tables)))
    if budget < 0:
        raise CoalisureError("budget must be >= 0")
    value = np.zeros(budget + 1)
    choices = []
    for table in tables:
        width = min(len(table), budget + 1)
        table = np.asarray(table[:width], dtype=float)
        rows = max(1, _BUDGET_CELLS // width)
        new_value = np.empty(budget + 1)
        choice = np.empty(budget + 1, dtype=int)
        for lo in range(0, budget + 1, rows):
            hi = min(lo + rows, budget + 1)
            rest = np.arange(lo, hi)[:, None] - np.arange(width)  # b - s, >= -budget
            cand = np.where(rest >= 0, table + value[rest], -np.inf)
            choice[lo:hi] = best = np.argmax(cand, axis=1)
            new_value[lo:hi] = cand[np.arange(hi - lo), best]
        value = new_value
        choices.append(choice)
    assignment = [0] * len(tables)
    b = budget
    for i in range(len(tables) - 1, -1, -1):
        assignment[i] = int(choices[i][b])
        b -= assignment[i]
    return assignment


def _budget_certificate(method, split, counts, tables, budget, provenance) -> RiskCertificate:
    """The worst case of sum_i tables[i][s_i] over the complexity budget.

    The row sum repeats the dynamic program's additions, so epsilon equals
    the maximum it found bit for bit.
    """
    return summed_certificate(
        method, split, _budget_maximize(tables, budget), counts,
        lambda i, k, b, s: {"s": s, "term": float(tables[i][s])},
        {"budget": int(budget), **(provenance or {})}, None,
    )


def a_priori_core_bound(
    split: BetaSplit, counts: Sequence[int], budget: int | None = None, provenance: dict | None = None
) -> RiskCertificate:
    """Sample-independent core bound: worst case over complexity budgets.

    The budget defaults to the conventional subcoalition count 2^N - 1.
    """
    if budget is None:
        budget = subcoalition_budget(len(counts))
    tables = [epsilon_implicit(k, b) for k, b in zip(counts, split.per_agent)]
    return _budget_certificate(METHOD_CORE_APRIORI, split, counts, tables, budget, provenance)


def support_rank(spec: GameSpec, agent: int) -> int:
    """Row rank of the agent's coalition incidence matrix.

    For affine constraints the maximal unconstrained subspace is the common
    null space of the incidence rows, so the rank equals the problem
    dimension minus that subspace's dimension.
    """
    rows = spec.allowed_rows(agent)
    if not rows.size:
        raise GameSpecError(f"agent {agent + 1} has no allowed coalitions")
    return int(np.linalg.matrix_rank(spec.incidence[rows]))


def _binomial_mass(k_total: int, eps_i: float, rho_i: int, first: int) -> float:
    """sum_{j=first}^{first+rho-1} C(K,j) eps^j (1-eps)^(K-j), for 1 <= rho <= K."""
    k_total, rho_i = int(k_total), int(rho_i)
    if not 0.0 < eps_i < 1.0:
        raise CoalisureError(f"eps_i must lie in (0,1), got {eps_i}")
    if not 1 <= rho_i <= k_total:
        raise CoalisureError(f"support rank {rho_i} outside 1..{k_total}")
    js = np.arange(first, first + rho_i)
    terms = log_binom(k_total, js) + js * log(eps_i) + (k_total - js) * np.log1p(-eps_i)
    return float(np.exp(terms).sum())


def beta_from_support_rank(k_total: int, eps_i: float, rho_i: int) -> float:
    """Confidence mass beta_i = sum_{j=1}^{rho} C(K,j) eps^j (1-eps)^(K-j)."""
    return _binomial_mass(k_total, eps_i, rho_i, 1)


def beta_from_support_rank_conventional(k_total: int, eps_i: float, rho_i: int) -> float:
    """The j = 0..rho-1 binomial tail, reported alongside the primary form."""
    return _binomial_mass(k_total, eps_i, rho_i, 0)


def a_priori_allocation_bound(
    eps_split: Sequence[float],
    counts: Sequence[int],
    ranks: Sequence[int],
    provenance: dict | None = None,
) -> RiskCertificate:
    """Support-rank allocation bound: given a violation split, derive beta."""
    if not len(eps_split) == len(counts) == len(ranks):
        raise CoalisureError("eps split, counts, and ranks must align")
    rows = []
    beta_total = 0.0
    for agent, (eps_i, k_i, rho_i) in enumerate(zip(eps_split, counts, ranks)):
        b = beta_from_support_rank(k_i, eps_i, rho_i)
        rows.append(
            {
                "agent": agent + 1,
                "samples": k_i,
                "eps": float(eps_i),
                "support_rank": int(rho_i),
                "term": b,
                "term_conventional": beta_from_support_rank_conventional(k_i, eps_i, rho_i),
            }
        )
        beta_total += b
    return RiskCertificate(
        method=METHOD_ALLOCATION_APRIORI,
        epsilon=_clip_unit(sum(eps_split)),
        beta=_clip_unit(beta_total),
        per_agent=tuple(rows),
        provenance=dict(provenance or {}),
    )


def a_posteriori_allocation_bound(
    split: BetaSplit, s_counts: Sequence[int], counts: Sequence[int], provenance: dict | None = None
) -> RiskCertificate:
    """Allocation bound from observed compression sizes, closed-form levels."""
    n = len(counts)
    return summed_certificate(
        METHOD_ALLOCATION_APOSTERIORI, split, s_counts, counts,
        lambda i, k, b, s: {"s": s, "term": epsilon_closed_form(k, b, n, s)}, provenance or {}, None,
    )


def a_priori_allocation_bound_budget(
    split: BetaSplit, counts: Sequence[int], budget: int | None = None, provenance: dict | None = None
) -> RiskCertificate:
    """Sample-independent allocation bound over a complexity budget.

    Per-agent compression sizes for a single allocation sum to at most the
    number of agents, so the default budget is N.
    """
    n = len(counts)
    if budget is None:
        budget = n
    tables = [_closed_form_table(int(k), b, n) for k, b in zip(counts, split.per_agent)]
    return _budget_certificate(METHOD_ALLOCATION_APRIORI_BUDGET, split, counts, tables, budget, provenance)


# --- the relaxed-core polynomial -------------------------------------------

def _lse(lc: np.ndarray, pw: np.ndarray, logt: np.ndarray) -> np.ndarray:
    """log sum_j exp(lc_j + pw_j log t) for each entry of log t."""
    m = lc[None, :] + pw[None, :] * logt[:, None]
    peak = m.max(axis=1)
    return peak + np.log(np.exp(m - peak[:, None]).sum(axis=1))


class _PolyTerms:
    """Precomputed log-domain coefficients of the certificate polynomial

        h(t) = C(K,s) t^(K-s)
             - beta/(2N)  sum_{j=s}^{K-1}   C(j,s) t^(j-s)
             - beta/(6K)  sum_{j=K+1}^{4K}  C(j,s) t^(j-s).

    Divided by its leading term, h/lead = 1 - r(t) with r(e^u) =
    sum_j w_j e^((j-K)u) and every w_j > 0: a convex function of u that
    grows without bound as u goes to either end.
    """

    def __init__(self, k_total: int, s: int, beta_i: float, n_agents: int):
        self.k_total, self.s, self.beta_i, self.n_agents = k_total, s, beta_i, n_agents
        self.log_lead = float(log_binom(k_total, s))
        js_mid = np.arange(s, k_total)
        self.lc_mid = log_binom(js_mid, s) if js_mid.size else np.zeros(0)
        self.pw_mid = (js_mid - s).astype(float)
        js_tail = np.arange(k_total + 1, 4 * k_total + 1)
        self.lc_tail = log_binom(js_tail, s)
        self.pw_tail = (js_tail - s).astype(float)
        self.log_w_mid = log(beta_i / (2.0 * n_agents))
        self.log_w_tail = log(beta_i / (6.0 * k_total))
        # log |j - K|, the factor d/d(log t) brings down on each term of r
        self.ld_mid = np.log(k_total - js_mid)
        self.ld_tail = np.log(js_tail - k_total)

    def log_parts(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log positive part, log negative part) via log-sum-exp."""
        logt = np.log(ts)
        log_pos = self.log_lead + (self.k_total - self.s) * logt
        mid = self.log_w_mid + _lse(self.lc_mid, self.pw_mid, logt)
        tail = self.log_w_tail + _lse(self.lc_tail, self.pw_tail, logt)
        return log_pos, np.logaddexp(mid, tail)

    def normalized(self, ts) -> np.ndarray:
        """h(t) divided by its leading term; same sign and roots on t > 0."""
        log_pos, log_neg = self.log_parts(np.atleast_1d(np.asarray(ts, dtype=float)))
        with np.errstate(over="ignore"):
            return 1.0 - np.exp(log_neg - log_pos)

    def rising(self, t: float) -> bool:
        """Whether r increases with log t at t.

        d r / d(log t) = sum_j w_j (j - K) t^(j-K): the tail terms (j > K)
        push it up and the middle terms (j < K) pull it down.
        """
        logt = np.log(np.atleast_1d(float(t)))
        up = self.log_w_tail + _lse(self.lc_tail + self.ld_tail, self.pw_tail, logt)
        down = self.log_w_mid + _lse(self.lc_mid + self.ld_mid, self.pw_mid, logt)
        return bool(up[0] > down[0])


@lru_cache(maxsize=4096)
def solve_campi_polynomial(
    k_total: int, beta_i: float, n_agents: int, s: int
) -> tuple[float, float]:
    """Smallest nonnegative root t of the certificate polynomial, and 1 - t.

    h/lead = 1 - r(t), and r is convex in u = log t and unbounded at both
    ends (see :class:`_PolyTerms`), so {h > 0} is one interval, possibly
    empty, and the smallest root is where r falls through 1.  Starting at
    t = 1, the search bisects towards the minimum of r on the sign of
    dr/d(log t) and stops at the first t with h(t) > 0.  Brent's method
    (``scipy.optimize.brentq``) then finds the root between that t and the
    last point left of the minimum, or a point found by halving t, and
    h/lead at the root must be below 5e-11 in magnitude (the raw polynomial
    spans hundreds of orders of magnitude; h/lead has the same roots).  For
    s = K the root is 0 by convention.

    Raises :class:`NoRootError` when r is still falling at t = 1, or when
    the search closes in on the minimum of r without h turning positive;
    the error carries the points evaluated and the sign of h at each.

    The result depends on (K, beta_i, N, s) alone and is cached per tuple;
    errors are not cached, so a failing call raises afresh every time.
    """
    k_total, s, n_agents = int(k_total), int(s), int(n_agents)
    _check_domain(k_total, beta_i, n_agents, s)
    if s == k_total:
        return 0.0, 1.0

    terms = _PolyTerms(k_total, s, beta_i, n_agents)
    points, values = [], []
    left, right, hi = 0.0, 1.0, 1.0
    while (val := float(terms.normalized(hi)[0])) <= 0.0:
        points.append(hi)
        values.append(val)
        if terms.rising(hi):
            right = hi
        else:
            left = hi  # at t = 1 this collapses the bracket at once
        hi = 0.5 * (left + right)
        if hi == left or hi == right:
            raise NoRootError(
                f"no sign change on (0,1] for K={k_total}, s={s}, beta={beta_i}, N={n_agents}",
                scan_points=np.array(points),
                scan_signs=np.sign(values),
            )

    def h(t: float) -> float:
        return float(terms.normalized(t)[0])

    # h(lo) <= 0 < h(hi); below a search that never moved ``left`` off 0,
    # halve t until h < 0, which holds near 0+ whenever s < K
    lo = left if left > 0.0 else 0.5 * hi
    while left == 0.0 and h(lo) > 0.0:
        lo *= 0.5
    # lo > root / 2, so xtol locates the root to about 1e-14 of itself
    root = float(brentq(h, lo, hi, xtol=1e-14 * lo, rtol=4 * np.finfo(float).eps))
    residual = abs(h(root))
    if residual > _ROOT_RESIDUAL_TOL:
        raise CoalisureError(f"residual {residual:.3e} at the root for K={k_total}, s={s}")
    return root, 1.0 - root
