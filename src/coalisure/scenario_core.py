"""The scenario core under private sampling: tightened bounds and geometry.

Pooling every agent's private draws tightens each subcoalition's
rationality constraint to the worst sampled value:

    b_S = max over agents i in S of  max over k  u_S(xi_i^(k)),

and the core is the polytope { sum x = grand value, x(S) >= b_S for all S }.
The grand-coalition equality is exact in the geometry; tolerances appear
only in membership queries.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, groupby, islice
from math import comb
from typing import Sequence

import numpy as np
from scipy.spatial import HalfspaceIntersection, QhullError

from . import lp
from .errors import EmptyCoreError, GameSpecError, GuardError, LpError
from .game import Coalition, GameSpec, incidence
from .sampling import PrivateSamples

_VERTEX_DEDUP_TOL = 1e-7
_VERTEX_BLOCK = 4096  # subsets per batched solve: about 1 MB of systems at N=5
_VERTEX_ACTIVE_TOL = 1e-6  # slack under which a row is active at a Qhull vertex, relative to 1 + max |rhs|
VERTEX_SUBSET_LIMIT = comb(62, 5)  # every subset of a full 6-agent core: 6,471,002 systems
# Qhull runs up to this many agents: a core has at most N! vertices (Derks &
# Kuipers 2002), so its slack matrix stays within 40,320 x 254 at N=8
VERTEX_QHULL_AGENTS = 8


@dataclass(frozen=True, eq=False)
class TightenedBounds:
    """Tightened right-hand sides, one row per coalition of ``coalitions``
    (ascending mask order; from :func:`tighten`, the rows of ``spec.incidence``).

    ``maxima[r, i]`` is agent i's largest sampled value of coalition r and
    ``argmax[r, i]`` the lowest sample index attaining it; where agent i is
    not a member they hold ``-inf`` and -1.  A bound is its row's maximum,
    witnessed by the lowest agent attaining it.  The arrays are read-only.
    """

    coalitions: tuple[Coalition, ...]
    maxima: np.ndarray
    argmax: np.ndarray

    def __post_init__(self):
        self.maxima.flags.writeable = self.argmax.flags.writeable = False

    @cached_property
    def values(self) -> np.ndarray:
        """b_S per row."""
        values = self.maxima.max(axis=1)
        values.flags.writeable = False
        return values

    def row(self, coalition: Coalition) -> int:
        """The coalition's row; a ``KeyError`` if it has no bound."""
        r = bisect_left(self.coalitions, coalition)
        if self.coalitions[r : r + 1] != (coalition,):
            raise KeyError(coalition)
        return r

    def value(self, coalition: Coalition) -> float:
        return float(self.values[self.row(coalition)])

    def witness(self, coalition: Coalition) -> tuple[int, int]:
        r = self.row(coalition)
        agent = int(self.maxima[r].argmax())
        return agent, int(self.argmax[r, agent])


@dataclass(frozen=True)
class ScenarioCoreDesc:
    """H-representation of the scenario core."""

    n_agents: int
    grand_value: float
    bounds: TightenedBounds

    def coalitions(self) -> tuple[Coalition, ...]:
        return self.bounds.coalitions

    def constraint_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with one row per coalition constraint A x >= b (read-only)."""
        return self._rows

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        return incidence(self.bounds.coalitions, self.n_agents), self.bounds.values

    @cached_property
    def _minima(self) -> np.ndarray | None:
        """Every coalition's minimum payoff over the core, in row order, from
        one model re-solved row by row; ``None`` for an empty core."""
        return lp.Model(_core_lp(self, np.zeros(self.n_agents))).minima(self.constraint_rows()[0])

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
    for the j-th coalition S of ``spec.allowed(i)``: columns follow the
    rows ``spec.allowed_rows(i)`` of ``spec.incidence``, ascending.

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
    (agent, sample) pair.  The rows are those of ``spec.incidence``.
    """
    shape = (len(spec.coalitions), spec.n_agents)
    maxima, argmax = np.full(shape, -np.inf), np.full(shape, -1, dtype=np.intp)
    for agent, vals in enumerate(value_table(spec, samples)):
        rows = spec.allowed_rows(agent)
        maxima[rows, agent], argmax[rows, agent] = column_maxima(vals)
    return TightenedBounds(spec.coalitions, maxima, argmax)


def build(spec: GameSpec, bounds: TightenedBounds) -> ScenarioCoreDesc:
    """Package the polyhedron; no solving happens here."""
    return ScenarioCoreDesc(
        n_agents=spec.n_agents, grand_value=spec.grand_value, bounds=bounds
    )


def contains(core: ScenarioCoreDesc, x: Sequence[float], tol: float = lp.TOL) -> bool:
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
    if core._minima is None:
        raise EmptyCoreError("coalition_min requires a non-empty core")
    try:
        return float(core._minima[core.bounds.row(coalition)])
    except KeyError:
        model = lp.Model(_core_lp(core, np.zeros(core.n_agents)))
        return float(model.minima(incidence((coalition,), core.n_agents))[0])


def vertices(core: ScenarioCoreDesc) -> list[np.ndarray]:
    """All basic feasible points, by active-set enumeration.

    A basic point solves the efficiency equality together with N-1
    coalition rows; it is kept if it meets every row to 1e-9 and lies more
    than 1e-7 from every point kept before it.  The (N-1)-subsets of rows
    come from one of two sources:

    * Qhull (Barber, Dobkin & Huhdanpaa, *ACM TOMS* 22, 1996): x_N is
      eliminated through efficiency, one Chebyshev-centre LP gives an
      interior point, ``scipy.spatial.HalfspaceIntersection`` gives the
      vertices, and every (N-1)-subset of the rows loosely active at some
      vertex (slack within ``_VERTEX_ACTIVE_TOL`` relative) is a candidate;
    * every (N-1)-subset of the rows, when N is below 3 or above
      ``VERTEX_QHULL_AGENTS``, when the Chebyshev radius is within that
      tolerance of 0 (a core of lower dimension, or one empty up to the
      tolerance), when the structure lacks a singleton (the singletons
      alone bound the core; without one it may be unbounded), when the LP
      or Qhull fails, or when Qhull's candidates would be no fewer.

    A core whose Chebyshev LP finds every point violating some row by more
    than the tolerance is empty and has no candidates.  Candidates are
    streamed in ``combinations`` order and solved in blocks of
    ``_VERTEX_BLOCK`` stacked systems after masking the singular ones
    (``slogdet`` sign 0: the same zero-pivot LU test under which a single
    ``solve`` raises); every subset the full stream would keep is a
    candidate, so the list equals a one-subset-at-a-time loop over all
    subsets bit for bit.  A :class:`GuardError` naming the count is raised
    before any system is solved when there are more than
    ``VERTEX_SUBSET_LIMIT`` subsets.
    """
    n = core.n_agents
    a, b = core.constraint_rows()
    m = a.shape[0]
    if m < n - 1:
        return []
    full = comb(m, n - 1)
    active = _qhull_active_sets(core)
    count = full if active is None else sum(comb(len(rows), n - 1) for rows in active)
    if count >= full:
        count, active = full, None
    if count > VERTEX_SUBSET_LIMIT:
        raise GuardError(
            f"vertex enumeration would solve {count} (N-1)-subsets of constraint rows; "
            f"the limit is {VERTEX_SUBSET_LIMIT}"
        )
    if active is None:
        subsets = combinations(range(m), n - 1)
    else:
        # each active set's subsets come in combinations order, so the merge does too
        subsets = (rows for rows, _ in groupby(heapq.merge(*(combinations(rows, n - 1) for rows in active))))
    return _basic_points(core, subsets)


def _qhull_active_sets(core: ScenarioCoreDesc) -> list[tuple[int, ...]] | None:
    """The distinct sets of rows loosely active at the core's Qhull
    vertices, each ascending; ``[]`` for a core empty beyond the tolerance,
    ``None`` when the full subset stream must be solved instead."""
    n = core.n_agents
    if not 3 <= n <= VERTEX_QHULL_AGENTS:  # Qhull needs 2 dimensions
        return None
    masks = {c.mask for c in core.coalitions()}
    if any(1 << i not in masks for i in range(n)):
        return None
    a, b = core.constraint_rows()
    # x_N = u - sum(y) turns  a x >= b  into  g y >= h  over y = x_1..x_{N-1}
    g = a[:, :-1] - a[:, -1:]
    h = b - a[:, -1] * core.grand_value
    norms = np.sqrt((g * g).sum(axis=1))  # >= 1: every row of g is a nonzero integer vector
    tol = _VERTEX_ACTIVE_TOL * (1.0 + np.abs(h).max())
    # Chebyshev centre: max r  s.t.  g y - |g| r >= h  (bounded: the singleton
    # rows bound each y_i below and x_N >= b_N bounds sum(y) above)
    program = lp.LinearProgram.build(-np.eye(1, n, n - 1)[0], a_ge=np.hstack([g, -norms[:, None]]), b_ge=h)
    try:
        out = lp.solve(program)
    except LpError:
        return None
    if out.status != lp.OPTIMAL:
        return None
    centre, radius = out.x[:-1], out.x[-1]
    if radius < -tol:
        return []  # every point misses some row by more than tol, far beyond the 1e-9 test
    if radius <= tol:
        return None
    try:
        points = HalfspaceIntersection(np.hstack([-g, h[:, None]]), centre).intersections
    except QhullError:
        return None
    slack = points @ g.T - h
    if not np.isfinite(slack).all() or (slack < -tol).any():
        return None
    # dedup the flag rows packed eight to a byte: an eight times shorter sort key
    packed = np.unique(np.packbits(slack <= tol, axis=1), axis=0)
    active = [tuple(np.flatnonzero(row).tolist()) for row in np.unpackbits(packed, axis=1, count=len(h))]
    if any(len(rows) < n - 1 for rows in active):
        return None
    return active


def _basic_points(core: ScenarioCoreDesc, subsets) -> list[np.ndarray]:
    """The feasible, pairwise distinct basic points of ``subsets`` (tuples
    of N-1 row indices), in subset order, ``_VERTEX_BLOCK`` at a time.

    Each point is compared only with the kept points whose keys w.x, for a
    fixed generic w, lie within 2 tol sum(w) + 1e-12 |x|.w of its own, found
    in a sorted index: a point within tol of x (max norm) differs from it
    in w.x by at most tol sum(w), and the rest covers rounding.  So the
    list is the one a comparison with every kept point gives.
    """
    n = core.n_agents
    a, b = core.constraint_rows()
    flat = chain.from_iterable(subsets)
    kept = np.empty((16, n))  # the points kept so far: kept[:count]
    count = 0
    weights = np.sqrt(np.arange(2.0, n + 2.0))  # lattice points rarely share a key
    keys, order = [], []  # kept keys in ascending order, and their rows in kept
    while (rows := np.fromiter(islice(flat, _VERTEX_BLOCK * (n - 1)), dtype=np.intp).reshape(-1, n - 1)).size:
        mats = np.empty((rows.shape[0], n, n))
        mats[:, 0] = 1.0
        mats[:, 1:] = a[rows]
        rhs = np.empty((rows.shape[0], n))
        rhs[:, 0] = core.grand_value
        rhs[:, 1:] = b[rows]
        regular = np.linalg.slogdet(mats)[0] != 0
        xs = np.linalg.solve(mats[regular], rhs[regular][..., None])[..., 0]
        keep = np.isfinite(xs).all(axis=1)
        keep[keep] = (xs[keep] @ a.T >= b - lp.TOL).all(axis=1)
        points = xs[keep]
        reach = 2 * _VERTEX_DEDUP_TOL * weights.sum() + 1e-12 * (np.abs(points) @ weights)
        for x, key, half in zip(points, (points @ weights).tolist(), reach.tolist()):
            lo = bisect_left(keys, key - half)
            hi = bisect_right(keys, key + half, lo)
            if lo < hi and (np.abs(kept[order[lo:hi]] - x).max(axis=1) <= _VERTEX_DEDUP_TOL).any():
                continue
            if count == len(kept):
                kept = np.concatenate([kept, np.empty_like(kept)])
            kept[count] = x
            at = bisect_right(keys, key, lo, hi)
            keys.insert(at, key)
            order.insert(at, count)
            count += 1
    return list(kept[:count])


def lexicographic_allocation(core: ScenarioCoreDesc) -> np.ndarray:
    """The core point minimizing x_1, then x_2, ... (deterministic selection):
    one :meth:`lp.Model.lexmin`, each coordinate capped at v_j + lp.TOL."""
    n = core.n_agents
    out = lp.Model(_core_lp(core, np.eye(n)[0])).lexmin(np.eye(n))
    if out.status == lp.INFEASIBLE:
        raise EmptyCoreError("cannot select an allocation from an empty core")
    if out.status == lp.UNBOUNDED:
        raise LpError("core is unbounded below in a coordinate")
    return out.x
