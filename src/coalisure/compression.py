"""Per-agent compression of private multi-samples.

A compression set is a subset of the pooled samples that reconstructs the
same scenario core.  Each agent finds its own contribution without sharing
raw data: for every coalition it may join, it pins that coalition's
constraint at the agent's own sampled maximum and checks (by LP) whether
the pinned system is still feasible.  If it is, the maximizing sample is
essential and joins the compression set.  The union over agents is a valid
compression, though in general not a minimal one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import lp, scenario_core
from .errors import GuardError
from .game import Coalition, GameSpec, enumerate_subcoalitions
from .sampling import PrivateSamples

BRUTE_FORCE_GUARD = 12


@dataclass(frozen=True)
class CompressionMode:
    """Constraint toggles for the per-coalition feasibility programs.

    The default keeps the grand-coalition efficiency equality (the core's
    defining equation) and leaves payoffs sign-free.  ``printed`` drops the
    efficiency row and forces x >= 0 instead, mirroring the bare
    feasibility program some formulations state.
    """

    efficiency: bool = True
    nonnegative: bool = False

    @classmethod
    def default(cls) -> "CompressionMode":
        return cls()

    @classmethod
    def printed(cls) -> "CompressionMode":
        return cls(efficiency=False, nonnegative=True)

    @property
    def tag(self) -> str:
        return f"efficiency={'on' if self.efficiency else 'off'},sign={'on' if self.nonnegative else 'off'}"


@dataclass(frozen=True)
class CompressionSet:
    """Per-agent essential sample indices (0-based internally).

    ``recruiters[i]`` maps each retained index to the coalitions whose
    pinned program recruited it.
    """

    per_agent: tuple[tuple[int, ...], ...]
    recruiters: tuple[dict[int, tuple[Coalition, ...]], ...]
    mode_tag: str = field(default=CompressionMode.default().tag)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(ix) for ix in self.per_agent)

    @property
    def total(self) -> int:
        return sum(self.cardinalities)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "mode": self.mode_tag,
            "agents": [
                {
                    "agent": i + 1,
                    "samples": [
                        {
                            "index": k + 1,
                            "recruited_by": [c.label() for c in self.recruiters[i].get(k, ())],
                        }
                        for k in self.per_agent[i]
                    ],
                }
                for i in range(len(self.per_agent))
            ],
            "cardinalities": list(self.cardinalities),
        }


def compress_agent(
    spec: GameSpec,
    samples: PrivateSamples,
    agent: int,
    mode: CompressionMode = CompressionMode.default(),
    values: list[dict[int, np.ndarray]] | None = None,
) -> tuple[list[int], dict[int, tuple[Coalition, ...]]]:
    """One agent's compression indices and the coalitions that recruited them.

    For each coalition S' the agent may join, solve the feasibility program
    that pins S' at the agent's sampled maximum while every other coalition
    of the agent keeps its inequality; feasibility marks the maximizing
    sample as essential.  ``values`` is the sample set's
    :func:`scenario_core.value_table`, evaluated here when not given.
    """
    allowed = spec.allowed(agent)
    if values is None:
        values = scenario_core.value_table(spec, samples)
    maxima = {}  # coalition mask -> (sampled max, argmax index)
    for mask, vals in values[agent].items():
        k = int(np.argmax(vals))  # ties resolve to the lowest index
        maxima[mask] = (float(vals[k]), k)
    n = spec.n_agents
    picked: dict[int, list[Coalition]] = {}
    for pinned in allowed:
        pin_value, pin_index = maxima[pinned.mask]
        a_eq = [pinned.indicator(n)]
        b_eq = [pin_value]
        if mode.efficiency:
            a_eq.append(np.ones(n))
            b_eq.append(spec.grand_value)
        a_ge, b_ge = [], []
        for other in allowed:
            if other.mask == pinned.mask:
                continue
            a_ge.append(other.indicator(n))
            b_ge.append(maxima[other.mask][0])
        prog = lp.LinearProgram.build(
            np.zeros(n),
            a_eq=np.array(a_eq),
            b_eq=np.array(b_eq),
            a_ge=np.array(a_ge) if a_ge else None,
            b_ge=np.array(b_ge) if b_ge else None,
            lower_bounds=np.zeros(n) if mode.nonnegative else None,
        )
        if lp.feasible(prog).is_optimal:
            picked.setdefault(pin_index, []).append(pinned)
    indices = sorted(picked)
    return indices, {k: tuple(picked[k]) for k in indices}


def compress_all(
    spec: GameSpec,
    samples: PrivateSamples,
    mode: CompressionMode = CompressionMode.default(),
) -> CompressionSet:
    """Run the per-agent compression for every agent and merge the results."""
    values = scenario_core.value_table(spec, samples)
    per_agent = []
    recruiters = []
    for agent in range(spec.n_agents):
        indices, rec = compress_agent(spec, samples, agent, mode, values)
        per_agent.append(tuple(indices))
        recruiters.append(rec)
    return CompressionSet(tuple(per_agent), tuple(recruiters), mode.tag)


def rebuild_bounds(
    spec: GameSpec,
    samples: PrivateSamples,
    selection: tuple[tuple[int, ...], ...],
    values: list[dict[int, np.ndarray]] | None = None,
) -> dict[int, float]:
    """Tightened bounds recomputed from a per-agent subset of samples.

    Values come from the full sample set's value table (``values``, or
    evaluated here) and are then restricted, so a retained sample
    contributes bit-identically the value it contributed to the full
    bounds.  Coalitions none of whose members retained a sample get
    ``-inf`` (their constraint vanishes).
    """
    if values is None:
        values = scenario_core.value_table(spec, samples)
    out: dict[int, float] = {}
    for coalition in enumerate_subcoalitions(spec):
        best = -np.inf
        for agent in coalition.members:
            idx = list(selection[agent])
            if not idx:
                continue
            best = max(best, float(values[agent][coalition.mask][idx].max()))
        out[coalition.mask] = best
    return out


def compression_reproduces_bounds(
    spec: GameSpec, samples: PrivateSamples, selection: tuple[tuple[int, ...], ...]
) -> bool:
    """Bound-by-bound equality of the rebuilt core with the full-sample core."""
    full = scenario_core.tighten(spec, samples)
    rebuilt = rebuild_bounds(spec, samples, selection)
    return all(
        rebuilt[c.mask] == full.value(c) for c in enumerate_subcoalitions(spec)
    )


def _same_core_set(spec: GameSpec, full: scenario_core.TightenedBounds, rebuilt: dict[int, float]) -> bool:
    """Set equality of the two cores (rebuilt bounds are never larger).

    The rebuilt core contains the full one, so equality reduces to: for
    every coalition, the rebuilt core cannot pay the coalition less than
    the full bound.  Checked by one LP minimum per coalition.
    """
    coalitions = enumerate_subcoalitions(spec)
    if all(rebuilt[c.mask] == full.value(c) for c in coalitions):
        return True
    n = spec.n_agents
    finite = [c for c in coalitions if np.isfinite(rebuilt[c.mask])]
    a = np.array([c.indicator(n) for c in finite]) if finite else None
    b = np.array([rebuilt[c.mask] for c in finite]) if finite else None
    probe = lp.LinearProgram.build(
        np.zeros(n), a_eq=[np.ones(n)], b_eq=[spec.grand_value], a_ge=a, b_ge=b
    )
    if not lp.feasible(probe).is_optimal:
        # rebuilt core empty ⇒ full core empty too ⇒ equal as sets
        return True
    full_empty = scenario_core.is_empty(scenario_core.build(spec, full))
    if full_empty:
        return False  # rebuilt nonempty, full empty
    for c in coalitions:
        if rebuilt[c.mask] == full.value(c):
            continue
        out = lp.solve(
            lp.LinearProgram.build(
                c.indicator(n), a_eq=[np.ones(n)], b_eq=[spec.grand_value], a_ge=a, b_ge=b
            )
        )
        if out.status == lp.UNBOUNDED:
            return False
        if out.objective < full.value(c) - 1e-9:
            return False
    return True


def _witness_sets(spec: GameSpec, samples: PrivateSamples, values, full):
    """For each non-redundant coalition, the (agent, k) pairs attaining its
    bound.  Any polytope-preserving subset must hit every one of these sets:
    dropping a non-redundant bound strictly enlarges the core."""
    n = spec.n_agents
    coalitions = enumerate_subcoalitions(spec)
    a_rows = {c.mask: c.indicator(n) for c in coalitions}
    needed = []
    for c in coalitions:
        others = [o for o in coalitions if o.mask != c.mask]
        probe = lp.solve(
            lp.LinearProgram.build(
                a_rows[c.mask],
                a_eq=[np.ones(n)],
                b_eq=[spec.grand_value],
                a_ge=np.array([a_rows[o.mask] for o in others]) if others else None,
                b_ge=np.array([full.value(o) for o in others]) if others else None,
            )
        )
        if probe.status == lp.UNBOUNDED or (
            probe.is_optimal and probe.objective < full.value(c) - 1e-9
        ):
            witnesses = frozenset(
                (agent, k)
                for agent in c.members
                for k in np.flatnonzero(values[agent][c.mask] == full.value(c))
            )
            needed.append(witnesses)
    return needed


def brute_force_min_compression(spec: GameSpec, samples: PrivateSamples) -> CompressionSet:
    """Smallest sample subset whose core equals the full-sample core.

    Subsets are enumerated in increasing cardinality and lexicographic
    order over (agent, index) pairs; equality is set equality of the two
    polytopes.  A necessary witness filter (every non-redundant bound must
    keep a sample attaining it) prunes the enumeration before the LP
    containment check runs.  Guarded to tiny sample totals.
    """
    if samples.total > BRUTE_FORCE_GUARD:
        raise GuardError(
            f"brute-force search is guarded to <= {BRUTE_FORCE_GUARD} samples"
        )
    full = scenario_core.tighten(spec, samples)
    values = scenario_core.value_table(spec, samples)
    core_empty = scenario_core.is_empty(scenario_core.build(spec, full))
    needed = [] if core_empty else _witness_sets(spec, samples, values, full)
    universe = [
        (agent, k)
        for agent in range(samples.n_agents)
        for k in range(samples.counts[agent])
    ]
    for size in range(len(universe) + 1):
        for subset in combinations(universe, size):
            chosen = set(subset)
            if any(not (w & chosen) for w in needed):
                continue
            selection = tuple(
                tuple(k for a, k in subset if a == agent)
                for agent in range(samples.n_agents)
            )
            rebuilt = rebuild_bounds(spec, samples, selection, values)
            if _same_core_set(spec, full, rebuilt):
                recruiters = tuple({} for _ in range(samples.n_agents))
                return CompressionSet(selection, recruiters, mode_tag="brute-force")
    raise AssertionError("the full sample set is always a compression of itself")
