"""Seeded generation of private per-agent multi-samples and fresh validation draws.

Every distribution is one transform of ``width`` uniforms per sample.
Private draws are counter-based (Salmon et al., SC'11): agent i owns one
Philox stream keyed by ``(master_seed, purpose_tag, i)`` via ``SeedSequence``
spawn keys, and its sample k reads words ``[k*width, (k+1)*width)``, each
mapped to ``((r >> 12) + 0.5) * 2**-52`` in the open interval (0, 1).  So a
longer draw extends a shorter one, and no agent's samples depend on another
agent's count.  Fresh validation draws use a distinct tag and one PCG64 stream,
delivered in consecutive blocks of at most ``_FRESH_BLOCK`` rows
(:func:`fresh_blocks`): the same stream and the same bits as one draw of
the whole array (:func:`draw_fresh`), so a pass over them holds one block
at a time.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.special import ndtri

from .errors import DistributionError
from .game import _numeric

_PRIVATE_TAG = 0x1C0A11
_FRESH_TAG = 0x2FE54
# Rows per fresh block.  On a pass over 100k draws at N=3 and N=5, blocks
# of 16384 and 32768 rows ran within 5% of each other, 8192 up to 12%
# slower and 4096 or 100,000 rows 20-45% slower; 16384 keeps the pass's
# memory under 1 MiB at N=5.
_FRESH_BLOCK = 16384

# each kind's document keys, as ``to_json_dict`` writes them
_KIND_KEYS = {
    "uniform": ("kind", "lo", "hi"),
    "gaussian": ("kind", "mean", "cov"),
    "mixture": ("kind", "weights", "components"),
}
_KINDS = tuple(_KIND_KEYS)


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """Uncertainty distribution: uniform box, gaussian, or a finite mixture.

    uniform: params = {"lo": [d], "hi": [d]}
    gaussian: params = {"mean": [d], "cov": [d, d]}
    mixture: params = {"weights": [m], "components": [m DistributionSpec dicts]}

    The fields hold arrays, so equality and hashing are by identity, as for
    :class:`~coalisure.game.ValueModel`.
    """

    kind: str
    dim: int
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    weights: np.ndarray | None = None
    components: tuple["DistributionSpec", ...] = ()
    _chol: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def uniform(cls, lo: Sequence[float], hi: Sequence[float]) -> "DistributionSpec":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DistributionError("box bounds must be equal-length vectors")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise DistributionError("box bounds must be finite")
        if (lo > hi).any():
            raise DistributionError("box bounds need lo <= hi componentwise")
        lo.flags.writeable = False
        hi.flags.writeable = False
        return cls(kind="uniform", dim=lo.size, lo=lo, hi=hi)

    @classmethod
    def gaussian(cls, mean: Sequence[float], cov: Sequence[Sequence[float]]) -> "DistributionSpec":
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise DistributionError("mean/covariance shapes disagree")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise DistributionError("gaussian parameters must be finite")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise DistributionError("covariance must be symmetric")
        w, v = np.linalg.eigh(cov)
        if w.min() < -1e-10 * max(1.0, abs(w).max()):
            raise DistributionError("covariance must be positive semidefinite")
        chol = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        for arr in (mean, cov, chol):
            arr.flags.writeable = False
        return cls(kind="gaussian", dim=mean.size, mean=mean, cov=cov, _chol=chol)

    @classmethod
    def mixture(cls, weights: Sequence[float], components: Sequence["DistributionSpec"]) -> "DistributionSpec":
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(components) != weights.size or weights.size == 0:
            raise DistributionError("mixture needs one weight per component")
        if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-9:
            raise DistributionError("mixture weights must be nonnegative and sum to 1")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise DistributionError("mixture components must share a dimension")
        weights.flags.writeable = False
        return cls(kind="mixture", dim=dims.pop(), weights=weights, components=tuple(components))

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DistributionError(f"unknown distribution kind {self.kind!r}")

    @property
    def possibly_degenerate(self) -> bool:
        """True when some direction of the support carries no spread.

        Degenerate components make value ties possible with positive
        probability, which the non-degeneracy assumption behind the relaxed
        certificates rules out; reports carry this flag as a warning.
        """
        if self.kind == "uniform":
            return bool((self.lo == self.hi).any())
        if self.kind == "gaussian":
            return bool(np.linalg.eigvalsh(self.cov).min() <= 1e-15)
        return any(c.possibly_degenerate for c in self.components)

    @property
    def width(self) -> int:
        """Uniforms per sample: dim, plus one to pick a mixture component."""
        if self.kind == "mixture":
            return 1 + max(c.width for c in self.components)
        return self.dim

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """One sample per row of uniforms in [0, 1); may overwrite ``u``."""
        if self.kind == "uniform":
            for j in range(self.dim):
                u[:, j] *= self.hi[j] - self.lo[j]
                u[:, j] += self.lo[j]
            return u
        if self.kind == "gaussian":
            np.maximum(u, 2.0**-53, out=u)  # ndtri(0) = -inf
            return self.mean + ndtri(u, out=u) @ self._chol.T
        picks = np.searchsorted(np.cumsum(self.weights), u[:, 0], side="right")
        np.minimum(picks, np.flatnonzero(self.weights)[-1], out=picks)
        out = np.empty((u.shape[0], self.dim))
        for ci, comp in enumerate(self.components):
            rows = np.flatnonzero(picks == ci)
            if rows.size:
                out[rows] = comp._from_uniforms(u[rows, 1 : 1 + comp.width])
        return out

    def to_json_dict(self) -> dict:
        if self.kind == "uniform":
            return {"kind": "uniform", "lo": self.lo.tolist(), "hi": self.hi.tolist()}
        if self.kind == "gaussian":
            return {"kind": "gaussian", "mean": self.mean.tolist(), "cov": self.cov.tolist()}
        return {
            "kind": "mixture",
            "weights": self.weights.tolist(),
            "components": [c.to_json_dict() for c in self.components],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "DistributionSpec":
        """Parse a distribution document; a malformed field or an unknown
        key raises a :class:`DistributionError` that names it."""

        def parse(doc, where: str) -> DistributionSpec:
            if not isinstance(doc, Mapping):
                raise DistributionError(f"{where} must be an object")

            def numbers(key, depth=1):
                if not _numeric(doc.get(key), depth):
                    what = f"{where}.{key} must be a list of {'lists of ' * (depth - 1)}numbers"
                    raise DistributionError(what if key in doc else f"{where}.{key} is missing")
                return doc[key]

            kind = doc.get("kind")
            if kind not in _KINDS:  # a tuple: an unhashable kind is unknown, not a TypeError
                raise DistributionError(f"{where}.kind must be one of {', '.join(_KINDS)}, not {kind!r}")
            if unknown := [key for key in doc if key not in _KIND_KEYS[kind]]:
                raise DistributionError(f"unknown key {f'{where}.{unknown[0]}'!r}; known: {', '.join(_KIND_KEYS[kind])}")
            if kind == "uniform":
                return cls.uniform(numbers("lo"), numbers("hi"))
            if kind == "gaussian":
                return cls.gaussian(numbers("mean"), numbers("cov", 2))
            if not isinstance(doc.get("components"), list):
                raise DistributionError(f"{where}.components must be a list of distributions")
            parts = [parse(c, f"{where}.components[{i}]") for i, c in enumerate(doc["components"])]
            return cls.mixture(numbers("weights"), parts)

        return parse(doc, "distribution")


@dataclass(frozen=True)
class PrivateSamples:
    """Per-agent uncertainty draws with full seed provenance.

    ``per_agent[i]`` is agent i's (K_i, d) sample matrix.  Regeneration from
    ``(master_seed, distribution, counts)`` is bit-identical.
    """

    per_agent: tuple[np.ndarray, ...]
    master_seed: int
    _value_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_agents(self) -> int:
        return len(self.per_agent)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.per_agent)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def dim(self) -> int:
        return self.per_agent[0].shape[1]


def draw_private(
    spec: DistributionSpec, counts: Sequence[int], master_seed: int
) -> PrivateSamples:
    """Draw K_i i.i.d. vectors for each agent from independent streams.

    Agent i's draws are one block of ``K_i * spec.width`` words of its
    Philox stream, each word r mapped to the open-interval uniform
    ``((r >> 12) + 0.5) * 2**-52``; sample k reads words
    ``[k*width, (k+1)*width)``, so it is a function of ``(master_seed, i, k)``.
    """
    counts = [int(k) for k in counts]
    if not counts or any(k < 1 for k in counts):
        raise DistributionError("every agent needs at least one sample")
    matrices = []
    for agent, k_i in enumerate(counts):
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(_PRIVATE_TAG, agent))
        raw = np.random.Philox(key=ss.generate_state(2, np.uint64)).random_raw(k_i * spec.width)
        m = spec._from_uniforms((((raw >> np.uint64(12)) + 0.5) * 2.0**-52).reshape(k_i, -1))
        m.flags.writeable = False
        matrices.append(m)
    return PrivateSamples(per_agent=tuple(matrices), master_seed=int(master_seed))


def fresh_blocks(spec: DistributionSpec, n: int, seed: int) -> Iterator[np.ndarray]:
    """The n validation draws of :func:`draw_fresh`, as consecutive blocks
    of at most ``_FRESH_BLOCK`` rows read in turn from one PCG64 stream
    disjoint from all private ones."""
    n = int(n)
    if n < 1:
        raise DistributionError("need at least one fresh sample")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(_FRESH_TAG,)))
    for start in range(0, n, _FRESH_BLOCK):
        yield spec._from_uniforms(rng.random((min(_FRESH_BLOCK, n - start), spec.width)))


def draw_fresh(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. validation draws: the blocks of :func:`fresh_blocks`, joined."""
    return np.concatenate(list(fresh_blocks(spec, n, seed)))


_CSV_HEADER = ("agent_id", "sample_index")


def samples_to_csv(samples: PrivateSamples) -> str:
    """One row per sample: 1-based agent id, 1-based index, components
    (``repr`` of each float; no field needs CSV quoting)."""
    lines = [",".join([*_CSV_HEADER, *(f"xi{j + 1}" for j in range(samples.dim))])]
    for agent, matrix in enumerate(samples.per_agent, 1):
        lines += (f"{agent},{index},{','.join(map(repr, row))}" for index, row in enumerate(matrix.tolist(), 1))
    return "\n".join(lines) + "\n"


def samples_from_csv(text: str, master_seed: int = 0) -> PrivateSamples:
    """Inverse of :func:`samples_to_csv`; floats round-trip exactly.  A row
    other than two integer ids and one finite number per remaining header
    column, or one that repeats an earlier row's (agent, sample) pair, is a
    :class:`DistributionError` naming its line."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header[:2]) != _CSV_HEADER:
        raise DistributionError("unrecognized samples CSV header")
    rows: dict[int, dict[int, list[float]]] = {}
    for rec in reader:
        if not rec:
            continue
        try:
            agent, index, xi = int(rec[0]) - 1, int(rec[1]) - 1, [float(v) for v in rec[2:]]
        except (IndexError, ValueError):
            xi = None
        if xi is None or len(rec) != len(header) or not np.isfinite(xi).all():
            raise DistributionError(
                f"samples CSV line {reader.line_num}: {','.join(rec)!r} is not two integer ids "
                f"and {len(header) - 2} finite numbers"
            )
        if index in rows.get(agent, ()):
            raise DistributionError(
                f"samples CSV line {reader.line_num}: agent {rec[0]} sample {rec[1]} appears on an earlier line"
            )
        rows.setdefault(agent, {})[index] = xi
    if not rows or sorted(rows) != list(range(len(rows))):
        raise DistributionError("samples CSV must cover agents 1..N contiguously")
    matrices = []
    for agent in range(len(rows)):
        per = rows[agent]
        if sorted(per) != list(range(len(per))):
            raise DistributionError(f"agent {agent + 1} has non-contiguous sample indices")
        m = np.array([per[k] for k in range(len(per))])
        m.flags.writeable = False
        matrices.append(m)
    return PrivateSamples(per_agent=tuple(matrices), master_seed=int(master_seed))
