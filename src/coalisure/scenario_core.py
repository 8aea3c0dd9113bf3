"""The scenario core under private sampling: tightened bounds and geometry.

Pooling every agent's private draws tightens each subcoalition's
rationality constraint to the worst sampled value:

    b_S = max over agents i in S of  max over k  u_S(xi_i^(k)),

and the core is the polytope { sum x = grand value, x(S) >= b_S for all S }.
The grand-coalition equality is exact in the geometry; tolerances appear
only in membership queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Mapping, Sequence

import numpy as np

from . import lp
from .errors import EmptyCoreError, GameSpecError, GuardError, LpError
from .game import Coalition, GameSpec, enumerate_subcoalitions
from .sampling import PrivateSamples

VERTEX_GUARD_AGENTS = 6
_VERTEX_DEDUP_TOL = 1e-7
_VERTEX_BLOCK = 4096  # subsets per batched solve: about 1 MB of systems at N=5


@dataclass(frozen=True)
class BoundEntry:
    """One tightened bound with its argmax witness and per-agent maxima."""

    value: float
    witness_agent: int
    witness_index: int
    per_agent: dict[int, float]  # agent -> max over that agent's samples


@dataclass(frozen=True)
class TightenedBounds:
    """Map from coalition mask to its tightened right-hand side."""

    entries: dict[int, BoundEntry]

    def value(self, coalition: Coalition) -> float:
        return self.entries[coalition.mask].value

    def witness(self, coalition: Coalition) -> tuple[int, int]:
        e = self.entries[coalition.mask]
        return (e.witness_agent, e.witness_index)

    def coalitions(self) -> list[Coalition]:
        return [Coalition(m) for m in sorted(self.entries)]


@dataclass(frozen=True)
class ScenarioCoreDesc:
    """H-representation of the scenario core."""

    n_agents: int
    grand_value: float
    bounds: TightenedBounds

    def coalitions(self) -> list[Coalition]:
        return self.bounds.coalitions()

    def constraint_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with one row per coalition constraint A x >= b."""
        cs = self.coalitions()
        a = np.array([c.indicator(self.n_agents) for c in cs])
        b = np.array([self.bounds.value(c) for c in cs])
        return a, b

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n_agents": self.n_agents,
            "grand_value": self.grand_value,
            "bounds": [
                {
                    "coalition": c.label(),
                    "value": self.bounds.value(c),
                    "witness_agent": self.bounds.witness(c)[0] + 1,
                    "witness_sample": self.bounds.witness(c)[1] + 1,
                }
                for c in self.coalitions()
            ],
        }


def value_table(spec: GameSpec, samples: PrivateSamples) -> list[dict[int, np.ndarray]]:
    """u_S at every agent's own samples: ``table[i][S.mask][k] = u_S(xi_i^(k))``
    for each coalition S agent i may join.

    Evaluated one coalition at a time, so every consumer sees the values
    bit for bit as a direct ``value_batch`` call would give them.
    """
    if samples.n_agents != spec.n_agents:
        raise GameSpecError(
            f"samples cover {samples.n_agents} agents, game has {spec.n_agents}"
        )
    if samples.dim != spec.uncertainty_dim:
        raise GameSpecError("sample dimension does not match the value model")
    return [
        {c.mask: spec.value_model.value_batch(c, samples.per_agent[agent]) for c in spec.allowed(agent)}
        for agent in range(spec.n_agents)
    ]


def tighten(spec: GameSpec, samples: PrivateSamples) -> TightenedBounds:
    """Compute every coalition's tightened bound from the private samples.

    Every member agent contributes (its allowed structure holds every
    coalition containing it); argmax ties break toward the lowest
    (agent, sample) pair.
    """
    values = value_table(spec, samples)
    entries: dict[int, BoundEntry] = {}
    for coalition in enumerate_subcoalitions(spec):
        best = -np.inf
        who = None
        per_agent: dict[int, float] = {}
        for agent in coalition.members:
            vals = values[agent][coalition.mask]
            k = int(np.argmax(vals))
            per_agent[agent] = float(vals[k])
            if who is None or vals[k] > best:
                best = float(vals[k])
                who = (agent, k)
        entries[coalition.mask] = BoundEntry(best, who[0], who[1], per_agent)
    return TightenedBounds(entries)


def build(spec: GameSpec, bounds: TightenedBounds) -> ScenarioCoreDesc:
    """Package the polyhedron; no solving happens here."""
    return ScenarioCoreDesc(
        n_agents=spec.n_agents, grand_value=spec.grand_value, bounds=bounds
    )


def bounds_from_values(values: Mapping[Coalition, float]) -> TightenedBounds:
    """Bounds with given values and placeholder witnesses (tests, imports)."""
    entries = {
        c.mask: BoundEntry(float(v), c.members[0], 0, {c.members[0]: float(v)})
        for c, v in values.items()
    }
    return TightenedBounds(entries)


def contains(core: ScenarioCoreDesc, x: Sequence[float], tol: float = 1e-9) -> bool:
    """Membership test with an absolute tolerance on every constraint."""
    x = np.asarray(x, dtype=float)
    if x.shape != (core.n_agents,):
        raise GameSpecError("allocation length does not match the agent count")
    if abs(x.sum() - core.grand_value) > tol:
        return False
    a, b = core.constraint_rows()
    return bool((a @ x >= b - tol).all()) if a.size else True


def _core_lp(core: ScenarioCoreDesc, objective: np.ndarray) -> lp.LinearProgram:
    a, b = core.constraint_rows()
    return lp.LinearProgram.build(
        objective,
        a_eq=[np.ones(core.n_agents)],
        b_eq=[core.grand_value],
        a_ge=a,
        b_ge=b,
    )


def is_empty(core: ScenarioCoreDesc) -> bool:
    """True iff the defining system is infeasible."""
    out = lp.feasible(_core_lp(core, np.zeros(core.n_agents)))
    return out.status == lp.INFEASIBLE


def coalition_min(core: ScenarioCoreDesc, coalition: Coalition) -> float:
    """min over the core of the coalition's total payoff.

    A fresh realization destabilizes the core exactly when some coalition's
    value exceeds this minimum, so these minima are the whole cost of the
    core-instability estimator.  Returns ``-inf`` when the core is
    unbounded in that direction.
    """
    out = lp.solve(_core_lp(core, coalition.indicator(core.n_agents)))
    if out.status == lp.INFEASIBLE:
        raise EmptyCoreError("coalition_min requires a non-empty core")
    if out.status == lp.UNBOUNDED:
        return -np.inf
    return float(out.objective)


def vertices(core: ScenarioCoreDesc) -> list[np.ndarray]:
    """All basic feasible points, by exhaustive active-set enumeration.

    Guarded to small games: every (N-1)-subset of coalition constraints is
    solved against the efficiency equality and kept if feasible.  Subsets
    are streamed in blocks of ``_VERTEX_BLOCK``; each block's systems are
    stacked and solved in one batched call after masking the singular ones
    (``slogdet`` sign 0: the same zero-pivot LU test under which a single
    ``solve`` raises), and duplicates are dropped in enumeration order, so
    the list equals a one-subset-at-a-time loop bit for bit.
    """
    n = core.n_agents
    if n > VERTEX_GUARD_AGENTS:
        raise GuardError(
            f"vertex enumeration is guarded to <= {VERTEX_GUARD_AGENTS} agents"
        )
    a, b = core.constraint_rows()
    m = a.shape[0]
    if m < n - 1:
        return []
    subsets = chain.from_iterable(combinations(range(m), n - 1))
    out: list[np.ndarray] = []
    while True:
        rows = np.fromiter(islice(subsets, _VERTEX_BLOCK * (n - 1)), dtype=np.intp).reshape(-1, n - 1)
        if not rows.size:
            return out
        mats = np.empty((rows.shape[0], n, n))
        mats[:, 0] = 1.0
        mats[:, 1:] = a[rows]
        rhs = np.empty((rows.shape[0], n))
        rhs[:, 0] = core.grand_value
        rhs[:, 1:] = b[rows]
        regular = np.linalg.slogdet(mats)[0] != 0
        xs = np.linalg.solve(mats[regular], rhs[regular][..., None])[..., 0]
        keep = np.isfinite(xs).all(axis=1)
        keep[keep] = (xs[keep] @ a.T >= b - 1e-9).all(axis=1)
        for x in xs[keep]:
            for seen in out:
                if np.abs(seen - x).max() <= _VERTEX_DEDUP_TOL:
                    break
            else:
                out.append(x)


def lexicographic_allocation(core: ScenarioCoreDesc) -> np.ndarray:
    """The core point minimizing x_1, then x_2, ... (deterministic selection)."""
    n = core.n_agents
    a, b = core.constraint_rows()
    a_extra: list[np.ndarray] = []
    b_extra: list[float] = []
    x = None
    for j in range(n):
        obj = np.zeros(n)
        obj[j] = 1.0
        prog = lp.LinearProgram.build(
            obj,
            a_eq=[np.ones(n)],
            b_eq=[core.grand_value],
            a_ge=np.vstack([a] + a_extra) if a_extra else a,
            b_ge=np.concatenate([b, b_extra]) if b_extra else b,
        )
        out = lp.solve(prog)
        if out.status == lp.INFEASIBLE:
            raise EmptyCoreError("cannot select an allocation from an empty core")
        if out.status == lp.UNBOUNDED:
            raise LpError(f"core is unbounded below in coordinate {j + 1}")
        x = out.x
        row = np.zeros(n)
        row[j] = -1.0  # -x_j >= -(v_j + tol)  i.e.  x_j <= v_j + tol
        a_extra.append(row)
        b_extra.append(-(out.objective + 1e-9))
    return x
