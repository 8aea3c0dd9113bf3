"""The relaxed (zeta) core: slack-minimizing allocation and its certificate.

When the scenario core is empty, per-sample nonnegative slacks make the
constraint system feasible again.  The program

    min  sum_{i,k} zeta_i^(k)
    s.t. sum_i x_i = grand value
         x(S) >= u_S(xi_i^(k)) - zeta_i^(k)   for every agent i, sample k,
                                              and coalition S the agent may join

always has a solution; its optimal slacks say how much each agent's data
pushes against stability, and the count of strictly positive slacks per
agent feeds the polynomial certificate.  One slack per (agent, sample) is
shared across that sample's coalition constraints.

The LP serves empty cores only.  On a non-empty core its optimal face at
zero slack is the core itself (the rows say x(S) >= the tightened bound of
S), and its tie-break is the lexicographic allocation's, so callers take
that allocation and :func:`solution_at` instead.  The LP is solved by row
generation: starting from each coalition's currently-binding sample rows,
violated (agent, sample, coalition) rows are added until none remain, which
yields the exact optimum of the full program.  A lexicographic tie-break
over x selects one optimal point, up to its 1e-9 caps (see
:func:`solve_zeta_program`).  Both run in one :meth:`lp.Model.lexmin`
call: the total slack, then x_1, ..., x_N, each under row generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp, scenario_core
from .errors import LpError
from .game import GameSpec
from .risk import (
    METHOD_RELAXED_ALLOCATION,
    BetaSplit,
    RiskCertificate,
    solve_campi_polynomial,
    summed_certificate,
)
from .sampling import PrivateSamples

POSITIVE_SLACK_TOL = 1e-7


@dataclass(frozen=True)
class ZetaSolution:
    """Optimal allocation, per-sample slacks, and derived complexity counts."""

    x_star: np.ndarray
    zeta_star: tuple[np.ndarray, ...]       # per agent, length K_i
    objective: float
    s_star: tuple[int, ...]                  # strictly positive slacks per agent
    s_star_sensitivity: tuple[int, ...]      # recount at a 10x smaller threshold
    zeta_bar: tuple[float, ...]              # per-agent max slack
    positive_tol: float

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "x_star": [float(v) for v in self.x_star],
            "objective": self.objective,
            "zeta": [[float(z) for z in zs] for zs in self.zeta_star],
            "s_star": list(self.s_star),
            "s_star_sensitivity": list(self.s_star_sensitivity),
            "zeta_bar": [float(z) for z in self.zeta_bar],
            "positive_tol": self.positive_tol,
        }


def _gaps(spec: GameSpec, values, x) -> list[np.ndarray]:
    """u_S(xi_i^(k)) - x(S) for every agent i, sample k and allowed S, each
    x(S) summed once."""
    payoff = spec.payoffs(x)
    return [vals - payoff[spec.allowed_rows(agent)] for agent, vals in enumerate(values)]


def _binding_rows(spec: GameSpec, values) -> list[tuple[int, int, int]]:
    """Seed rows (agent, sample, position in ``allowed(agent)``): per
    coalition and member, the lowest maximizing sample, coalition-major and
    then by ascending member (the row order is part of the program HiGHS
    solves)."""
    first = [scenario_core.column_maxima(vals)[1] for vals in values]
    coalition, agent = np.nonzero(spec.incidence)  # row-major: coalition-major
    position = (np.cumsum(spec.incidence, axis=0) - 1)[coalition, agent].astype(np.intp)
    return [(a, int(first[a][pos]), pos) for a, pos in zip(agent.tolist(), position.tolist())]


def solve_zeta_program(spec: GameSpec, samples: PrivateSamples) -> ZetaSolution:
    """Minimize total slack, then pick the lexicographically smallest x.

    Among total-slack minimizers, x minimizes x_1, then x_2, and so on; the
    slacks for that x are the pointwise minima.  The pair is unique only up
    to the tie-break band: the total slack and each minimized coordinate are
    capped at their optimum plus 1e-9, HiGHS's feasibility tolerance, so two
    valid solve paths can return x* up to about 2e-9 apart on tied values.
    On a non-empty core x is the lexicographic allocation within that band.
    """
    n = spec.n_agents
    values = scenario_core.value_table(spec, samples)
    counts = samples.counts
    total_k = sum(counts)
    zeta_offset = np.concatenate([[0], np.cumsum(counts)])[:-1]
    n_vars = n + total_k
    seed_rows = _binding_rows(spec, values)
    seen = set(seed_rows)

    lower = np.concatenate([np.full(n, -np.inf), np.zeros(total_k)])
    objective = np.concatenate([np.zeros(n), np.ones(total_k)])

    def build_rows(rows):
        """The rows (agent, sample, position) as triplets: each row's
        members, then its slack column, the largest in the row."""
        agent, k, _ = np.array(rows, dtype=np.intp).reshape(-1, 3).T
        coalition = [spec.allowed_rows(i)[p] for i, _, p in rows]
        member_row, member_col = np.nonzero(spec.incidence[coalition])  # ascending members
        row = np.concatenate([member_row, np.arange(len(rows))])
        order = np.argsort(row, kind="stable")  # a row's members before its slack
        col = np.concatenate([member_col, n + zeta_offset[agent] + k]).astype(np.int32)
        b = np.array([values[i][s, p] for i, s, p in rows], dtype=float)
        return lp.Rows(row[order], col[order], np.ones(row.size), (len(rows), n_vars)), b

    def violated(x):
        """The rows (agent, sample, coalition) that ``x`` violates and the program lacks, or None."""
        added = []
        for agent, gaps in enumerate(_gaps(spec, values, x[:n])):
            zv = x[n + zeta_offset[agent] : n + zeta_offset[agent] + counts[agent]]
            worst = gaps.max(axis=1, initial=-np.inf) - zv
            for k in np.flatnonzero(worst > lp.TOL).tolist():
                key = (agent, k, int(gaps[k].argmax()))
                if key not in seen:
                    seen.add(key)
                    added.append(key)
        return build_rows(added) if added else None

    eff_row = np.zeros(n_vars)
    eff_row[:n] = 1.0
    a_seed, b_seed = build_rows(seed_rows)
    program = lp.LinearProgram.build(
        objective, a_eq=[eff_row], b_eq=[spec.grand_value],
        a_ge=a_seed, b_ge=b_seed, lower_bounds=lower,
    )
    # total slack, then the lexicographic tie-break over x on the optimal face
    out = lp.Model(program).lexmin(np.vstack([objective, np.eye(n, n_vars)]), violated)
    if not out.is_optimal:
        raise LpError(f"slack program came back {out.status}")
    return solution_at(spec, samples, out.x[:n])


def solution_at(spec: GameSpec, samples: PrivateSamples, x: np.ndarray) -> ZetaSolution:
    """The solution at the allocation ``x``: the pointwise minimal slacks
    max(0, u - x(S)) per sample and the counts they give."""
    values = scenario_core.value_table(spec, samples)
    zeta = tuple(np.maximum(0.0, g.max(axis=1, initial=-np.inf)) for g in _gaps(spec, values, x))
    s_star, s_sens = complexity_counts_from_slacks(zeta)
    return ZetaSolution(
        x_star=x.copy(),
        zeta_star=zeta,
        objective=float(sum(z.sum() for z in zeta)),
        s_star=s_star,
        s_star_sensitivity=s_sens,
        zeta_bar=tuple(float(z.max()) if z.size else 0.0 for z in zeta),
        positive_tol=POSITIVE_SLACK_TOL,
    )


def complexity_counts_from_slacks(
    zeta: tuple[np.ndarray, ...], tol: float = POSITIVE_SLACK_TOL
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Counts of strictly positive slacks at ``tol`` and at ``tol/10``."""
    primary = tuple(int((z > tol).sum()) for z in zeta)
    finer = tuple(int((z > tol / 10.0).sum()) for z in zeta)
    return primary, finer


def zeta_certificate(
    split: BetaSplit,
    s_star: tuple[int, ...] | list[int],
    counts: tuple[int, ...] | list[int],
    n_agents: int,
    assumption_continuous: bool = True,
    provenance: dict | None = None,
) -> RiskCertificate:
    """Stability level for the slack-minimizing allocation.

    With confidence 1 - beta, a fresh realization makes some coalition
    strictly prefer defecting from x* with probability at most the sum of
    per-agent levels 1 - t_i(s_i*).  Emitted with a warning when the
    sampling distribution may be degenerate (value ties would void the
    non-accumulation requirement behind the statement).
    """
    warning = None if assumption_continuous else (
        "distribution may be degenerate: the non-accumulation assumption "
        "behind this certificate is not guaranteed"
    )

    def level(agent, k_i, beta_i, s_i):
        t_i, eps_bar = solve_campi_polynomial(k_i, beta_i, n_agents, s_i)
        return {"s_star": s_i, "t": t_i, "term": eps_bar}

    return summed_certificate(METHOD_RELAXED_ALLOCATION, split, s_star, counts, level, provenance or {}, warning)

