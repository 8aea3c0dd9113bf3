"""Per-agent compression of private multi-samples.

A compression set is a subset of the pooled samples that reconstructs the
same scenario core.  Each agent finds its own contribution without sharing
raw data: for every coalition it may join, it asks whether its own
polytope P_i (every such coalition's constraint at the agent's sampled
maximum) still has a point with that coalition's constraint at equality.
If it has, the maximizing sample is essential and joins the compression
set.  The union over agents is a valid compression, though in general not
a minimal one.  Every agent's polytope is decided in one :class:`lp.Model`
per sample set, with far fewer solves than coalitions (see
:func:`compress_all`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp, scenario_core
from .game import Coalition, GameSpec
from .sampling import PrivateSamples


@dataclass(frozen=True)
class CompressionMode:
    """Constraint toggles for the per-agent polytopes.

    The default keeps the grand-coalition efficiency equality (the core's
    defining equation) and leaves payoffs sign-free.  ``efficiency=False,
    nonnegative=True`` drops the efficiency row and forces x >= 0 instead,
    mirroring the bare feasibility program some formulations state.
    """

    efficiency: bool = True
    nonnegative: bool = False

    @classmethod
    def default(cls) -> "CompressionMode":
        return cls()

    @property
    def tag(self) -> str:
        return f"efficiency={'on' if self.efficiency else 'off'},sign={'on' if self.nonnegative else 'off'}"


@dataclass(frozen=True)
class CompressionSet:
    """Per-agent essential sample indices (0-based internally).

    ``recruiters[i]`` maps each retained index to the coalitions that
    recruited it.
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
) -> tuple[list[int], dict[int, tuple[Coalition, ...]]]:
    """One agent's compression indices and the coalitions that recruited
    them, decided as :func:`compress_all` decides them, in a model of its own."""
    return _compress(spec, samples, mode, [agent])[0]


def compress_all(
    spec: GameSpec, samples: PrivateSamples, mode: CompressionMode = CompressionMode.default()
) -> CompressionSet:
    """Every agent's compression, in one :class:`lp.Model` over the rows of
    ``spec.incidence``: for agent i, :meth:`lp.Model.set_lower` gives the
    agent's rows its sampled maxima and frees the others, so the model is
    P_i, warm from the previous agent's basis.

    Coalition S' recruits its maximizing sample (the lowest index among
    ties) when P_i with S' held at its maximum is feasible, that is when
    the minimum of x(S') over P_i is at most the maximum + ``lp.TOL`` (see
    :mod:`lp`).  Coalitions go largest first (stably); a solve also recruits
    every row within ``lp.TOL`` of its bound at the returned point, the
    same evidence a solve of the row gives: a checked HiGHS optimum over
    P_i.  An empty P_i recruits nothing; recruiters are in coalition order.
    """
    found = _compress(spec, samples, mode, range(spec.n_agents))
    return CompressionSet(tuple(tuple(ix) for ix, _ in found), tuple(rec for _, rec in found), mode.tag)


def _compress(spec: GameSpec, samples: PrivateSamples, mode: CompressionMode, agents) -> list:
    n, m = spec.n_agents, len(spec.coalitions)
    model = lp.Model(
        lp.LinearProgram.build(
            np.zeros(n),
            a_eq=[np.ones(n)] if mode.efficiency else None,
            b_eq=[spec.grand_value] if mode.efficiency else None,
            a_ge=spec.incidence,
            b_ge=np.zeros(m),  # replaced agent by agent
            lower_bounds=np.zeros(n) if mode.nonnegative else None,
        )
    )
    found = []
    for agent in agents:
        top, first = scenario_core.column_maxima(scenario_core.value_table(spec, samples)[agent])
        rows, allowed = spec.allowed_rows(agent), spec.allowed(agent)
        b_ge = np.full(m, -np.inf)
        b_ge[rows] = top
        model.set_lower(b_ge)
        held = np.zeros(rows.size, dtype=bool)
        for j in sorted(range(rows.size), key=lambda j: -allowed[j].size):
            if held[j]:
                continue
            out = model.minimize(spec.incidence[rows[j]])
            if out.status == lp.INFEASIBLE:
                held[:] = False
                break
            if out.is_optimal:
                held |= out.slack_ge[rows] <= lp.TOL
            held[j] = not out.is_optimal or out.objective <= top[j] + lp.TOL  # unbounded below, or within TOL
        picked: dict[int, list[Coalition]] = {}
        for j in np.flatnonzero(held):
            picked.setdefault(int(first[j]), []).append(allowed[j])
        found.append((sorted(picked), {k: tuple(picked[k]) for k in sorted(picked)}))
    return found


def rebuild_bounds(
    spec: GameSpec, samples: PrivateSamples, selection: tuple[tuple[int, ...], ...]
) -> np.ndarray:
    """Tightened bounds recomputed from a per-agent subset of samples, one
    per row of ``spec.incidence``.

    Values come from the full sample set's value table and are then
    restricted, so a retained sample contributes bit-identically the value
    it contributed to the full bounds.  Coalitions none of whose members
    retained a sample get ``-inf`` (their constraint vanishes).
    """
    out = np.full(len(spec.coalitions), -np.inf)
    for agent, vals in enumerate(scenario_core.value_table(spec, samples)):
        if selection[agent]:
            rows = spec.allowed_rows(agent)
            out[rows] = np.maximum(out[rows], scenario_core.column_maxima(vals[list(selection[agent])])[0])
    return out


def compression_reproduces_bounds(
    spec: GameSpec, samples: PrivateSamples, selection: tuple[tuple[int, ...], ...]
) -> bool:
    """Bound-by-bound equality of the rebuilt core with the full-sample core."""
    full = scenario_core.tighten(spec, samples)
    return bool((rebuild_bounds(spec, samples, selection) == full.values).all())
