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
from functools import cached_property
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
        """(A, b) with one row per coalition constraint A x >= b (read-only)."""
        return self._rows

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        cs = self.coalitions()
        a = np.array([c.indicator(self.n_agents) for c in cs])
        b = np.array([self.bounds.value(c) for c in cs])
        a.flags.writeable = b.flags.writeable = False
        return a, b

    @cached_property
    def _minima(self) -> dict[int, float] | None:
        """Every coalition's minimum payoff over the core, by mask, from one
        model re-solved in ``coalitions()`` order; ``None`` for an empty core."""
        model = lp.Model(_core_lp(self, np.zeros(self.n_agents)))
        minima = {}
        for c in self.coalitions():
            minima[c.mask] = _minimum(model.minimize(c.indicator(self.n_agents)))
            if minima[c.mask] is None:
                return None
        return minima

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


def value_table(spec: GameSpec, samples: PrivateSamples) -> tuple[np.ndarray, ...]:
    """u_S at every agent's own samples: ``table[i][k, j] = u_S(xi_i^(k))``
    for the j-th coalition S of ``spec.allowed(i)``.

    Agent i's matrix is K_i x |allowed(i)| and read-only; each column is one
    ``value_batch`` call, so every consumer sees the values bit for bit as a
    direct evaluation would give them.  It is evaluated once per
    ``(spec, samples)`` pair and kept on ``samples`` for every consumer.
    """
    tables = samples._value_tables  # by id(spec); each entry holds its spec, so ids stay unique
    if id(spec) not in tables:
        if samples.n_agents != spec.n_agents:
            raise GameSpecError(f"samples cover {samples.n_agents} agents, game has {spec.n_agents}")
        if samples.dim != spec.uncertainty_dim:
            raise GameSpecError("sample dimension does not match the value model")
        matrices = []
        for agent, xis in enumerate(samples.per_agent):
            values = np.empty((xis.shape[0], len(spec.allowed(agent))))
            for j, c in enumerate(spec.allowed(agent)):
                values[:, j] = spec.value_model.value_batch(c, xis)
            values.flags.writeable = False
            matrices.append(values)
        tables[id(spec)] = (spec, tuple(matrices))
    return tables[id(spec)][1]


def column_maxima(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's maximum and the lowest sample index attaining it."""
    first = values.argmax(axis=0)
    return values[first, np.arange(values.shape[1])], first


def tighten(spec: GameSpec, samples: PrivateSamples) -> TightenedBounds:
    """Compute every coalition's tightened bound from the private samples.

    Every member agent contributes (its allowed structure holds every
    coalition containing it); argmax ties break toward the lowest
    (agent, sample) pair.
    """
    maxima = []  # agent -> coalition mask -> (sampled max, first argmax)
    for agent, vals in enumerate(value_table(spec, samples)):
        top, first = column_maxima(vals)
        maxima.append({c.mask: (float(v), int(k)) for c, v, k in zip(spec.allowed(agent), top, first)})
    entries: dict[int, BoundEntry] = {}
    for coalition in enumerate_subcoalitions(spec):
        found = {agent: maxima[agent][coalition.mask] for agent in coalition.members}
        who = max(found, key=lambda agent: found[agent][0])  # the first of equal maxima
        per_agent = {agent: v for agent, (v, _) in found.items()}
        entries[coalition.mask] = BoundEntry(found[who][0], who, found[who][1], per_agent)
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
    unbounded in that direction.  The first call solves every coalition's
    minimum in ``core.coalitions()`` order and caches them on the core, so
    a value does not depend on which coalition was asked for first.  A
    coalition without a constraint row is solved on its own.
    """
    minima = core._minima
    if minima is not None and coalition.mask not in minima:
        minima = {coalition.mask: _minimum(lp.solve(_core_lp(core, coalition.indicator(core.n_agents))))}
    if minima is None or minima[coalition.mask] is None:
        raise EmptyCoreError("coalition_min requires a non-empty core")
    return minima[coalition.mask]


def _minimum(out: lp.LpOutcome) -> float | None:
    """A minimum over the core: ``None`` if the core is empty, ``-inf`` if
    the objective is unbounded below."""
    if out.status == lp.INFEASIBLE:
        return None
    return -np.inf if out.status == lp.UNBOUNDED else float(out.objective)


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
    """The core point minimizing x_1, then x_2, ... (deterministic selection).

    One model: after coordinate j is minimized, the cap x_j <= v_j + 1e-9
    is appended as a row and the next coordinate is re-solved warm.
    """
    n = core.n_agents
    model = lp.Model(_core_lp(core, np.eye(n)[0]))
    for j in range(n):
        out = model.minimize(np.eye(n)[j])
        if out.status == lp.INFEASIBLE:
            raise EmptyCoreError("cannot select an allocation from an empty core")
        if out.status == lp.UNBOUNDED:
            raise LpError(f"core is unbounded below in coordinate {j + 1}")
        if j < n - 1:
            # -x_j >= -(v_j + tol)  i.e.  x_j <= v_j + tol
            model.add_rows([-np.eye(n)[j]], [-(out.objective + 1e-9)])
    return out.x
