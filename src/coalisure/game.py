"""Coalition algebra, game specification, and uncertain value functions.

A game couples a set of agents with a deterministic grand-coalition value
and per-subcoalition value functions that depend on an exogenous
uncertainty vector.  Value functions are affine (or max-of-affine) in the
uncertainty, which keeps every downstream construction a linear program.

Agent indices are 0-based throughout the in-memory API; serialized
artifacts (JSON/CSV) use 1-based ids.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import GameSpecError, UnknownCoalitionError


@dataclass(frozen=True, order=True)
class Coalition:
    """A nonempty set of agents, encoded as a bit mask over agent indices."""

    mask: int

    def __post_init__(self):
        if self.mask <= 0:
            raise GameSpecError("a coalition must contain at least one agent")

    @classmethod
    def of(cls, *agents: int) -> "Coalition":
        return cls.from_members(agents)

    @classmethod
    def from_members(cls, agents: Iterable[int]) -> "Coalition":
        mask = 0
        for a in agents:
            if a < 0:
                raise GameSpecError(f"negative agent index {a}")
            mask |= 1 << a
        return cls(mask)

    @property
    def members(self) -> tuple[int, ...]:
        """Member agents in ascending index order."""
        out = []
        m, i = self.mask, 0
        while m:
            if m & 1:
                out.append(i)
            m >>= 1
            i += 1
        return tuple(out)

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, agent: int) -> bool:
        return bool(self.mask >> agent & 1)

    def __iter__(self):
        return iter(self.members)

    def indicator(self, n_agents: int) -> np.ndarray:
        """0/1 membership vector of length ``n_agents``."""
        return incidence((self,), n_agents)[0].copy()

    def label(self) -> str:
        """Human-readable 1-based member list, e.g. ``"1,3"``."""
        return ",".join(str(a + 1) for a in self.members)

    @classmethod
    def from_label(cls, label: str) -> "Coalition":
        return cls.from_members(int(part) - 1 for part in label.split(","))

    def __repr__(self):
        return f"Coalition({{{self.label()}}})"


class ValueModel:
    """Per-coalition value functions, affine or max-affine in the uncertainty.

    Each coalition ``S`` maps to one or more pieces ``(a, b)`` and evaluates
    to ``max_r (a_r + b_r . xi)``; a single piece is plain affine.
    Evaluation is total and deterministic on R^d.
    """

    def __init__(self, dim: int, pieces: Mapping[Coalition, Sequence[tuple[float, Sequence[float]]]]):
        if dim < 1:
            raise GameSpecError("uncertainty dimension must be >= 1")
        self.dim = int(dim)
        table: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for coalition, forms in pieces.items():
            if not forms:
                raise GameSpecError(f"coalition {coalition.label()} has no value form")
            offsets = np.array([float(a) for a, _ in forms])
            slopes = np.array([np.asarray(b, dtype=float) for _, b in forms])
            if slopes.shape != (len(forms), self.dim):
                raise GameSpecError(
                    f"coalition {coalition.label()}: slope length does not match dim {self.dim}"
                )
            if not (np.isfinite(offsets).all() and np.isfinite(slopes).all()):
                raise GameSpecError(f"coalition {coalition.label()}: non-finite coefficients")
            offsets.flags.writeable = False
            slopes.flags.writeable = False
            table[coalition.mask] = (offsets, slopes)
        self._table = table

    @classmethod
    def affine(cls, dim: int, forms: Mapping[Coalition, tuple[float, Sequence[float]]]) -> "ValueModel":
        return cls(dim, {S: [ab] for S, ab in forms.items()})

    def defines(self, coalition: Coalition) -> bool:
        return coalition.mask in self._table

    def pieces(self, coalition: Coalition) -> tuple[np.ndarray, np.ndarray]:
        try:
            return self._table[coalition.mask]
        except KeyError:
            raise UnknownCoalitionError(
                f"no value form for coalition {{{coalition.label()}}}"
            ) from None

    def value(self, coalition: Coalition, xi: Sequence[float]) -> float:
        """u_S(xi) = max over pieces of a + b . xi."""
        offsets, slopes = self.pieces(coalition)
        xi = np.asarray(xi, dtype=float)
        return float(np.max(offsets + slopes @ xi))

    def value_batch(self, coalition: Coalition, xis: np.ndarray) -> np.ndarray:
        """Vectorized ``value`` over rows of an (n, dim) sample matrix; a
        one-piece form is one matrix-vector product, with the same bits as
        the max over its single column."""
        offsets, slopes = self.pieces(coalition)
        if offsets.size == 1:
            vals = xis @ slopes[0]
            vals += offsets[0]
            return vals
        return (xis @ slopes.T + offsets).max(axis=1)


def incidence(coalitions: Sequence[Coalition], n_agents: int) -> np.ndarray:
    """The read-only 0/1 membership matrix of ``coalitions``: row r is the
    indicator of ``coalitions[r]`` over ``n_agents`` agents."""
    rows = np.zeros((len(coalitions), n_agents))
    for r, c in enumerate(coalitions):
        rows[r, list(c.members)] = 1.0
    rows.flags.writeable = False
    return rows


# the fields of a game document; ``to_json_dict`` emits all of them
_GAME_KEYS = ("schema_version", "n_agents", "grand_value", "uncertainty_dim", "coalitions", "values")


def _default_coalitions(n_agents: int) -> tuple[Coalition, ...]:
    """Every proper nonempty subset, in ascending mask order."""
    return tuple(Coalition(mask) for mask in range(1, (1 << n_agents) - 1))


@dataclass(frozen=True)
class GameSpec:
    """An uncertain transferable-utility game.

    ``coalitions`` is the enforced subcoalition structure: the proper,
    nonempty subsets whose rationality constraints the game carries.  Agent
    ``i``'s view of it, ``allowed(i)``, is the subset of coalitions
    containing ``i``; deriving the views from one global set makes the
    structure symmetric by construction.  ``None`` means all proper
    nonempty subsets.  Its ascending mask order is the row order of every
    per-coalition array: ``incidence``, bounds, minima, thresholds, payoffs.
    """

    n_agents: int
    grand_value: float
    value_model: ValueModel
    coalitions: tuple[Coalition, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n_agents < 2:
            raise GameSpecError("a game needs at least 2 agents")
        if not np.isfinite(self.grand_value):
            raise GameSpecError("grand-coalition value must be finite")
        if self.coalitions is None:
            object.__setattr__(self, "coalitions", _default_coalitions(self.n_agents))
        else:
            full = (1 << self.n_agents) - 1
            seen = set()
            for c in self.coalitions:
                if c.mask & ~full:
                    raise GameSpecError(f"coalition {{{c.label()}}} has out-of-range agents")
                if c.mask == full:
                    raise GameSpecError("the grand coalition is not a subcoalition")
                if c.mask in seen:
                    raise GameSpecError(f"duplicate coalition {{{c.label()}}}")
                seen.add(c.mask)
            object.__setattr__(self, "coalitions", tuple(sorted(self.coalitions)))
        for c in self.coalitions:
            if not self.value_model.defines(c):
                raise UnknownCoalitionError(f"no value form for coalition {{{c.label()}}}")

    @property
    def uncertainty_dim(self) -> int:
        return self.value_model.dim

    @cached_property
    def incidence(self) -> np.ndarray:
        """The read-only 0/1 incidence matrix of ``coalitions``, one row each."""
        return incidence(self.coalitions, self.n_agents)

    @cached_property
    def _agent_rows(self) -> tuple[np.ndarray, ...]:
        rows = tuple(np.flatnonzero(column) for column in self.incidence.T)
        for r in rows:
            r.flags.writeable = False
        return rows

    @cached_property
    def _allowed(self) -> tuple[tuple[Coalition, ...], ...]:
        return tuple(tuple(self.coalitions[r] for r in rows) for rows in self._agent_rows)

    def allowed_rows(self, agent: int) -> np.ndarray:
        """The ``incidence`` rows of the coalitions containing ``agent``,
        ascending (read-only)."""
        if not 0 <= agent < self.n_agents:
            raise GameSpecError(f"agent index {agent} out of range")
        return self._agent_rows[agent]

    def allowed(self, agent: int) -> tuple[Coalition, ...]:
        """Coalitions containing ``agent``, in ascending mask order."""
        self.allowed_rows(agent)  # the range check
        return self._allowed[agent]

    @cached_property
    def _members(self) -> tuple[np.ndarray, ...]:
        return tuple(np.flatnonzero(row) for row in self.incidence)

    def payoffs(self, x: np.ndarray) -> np.ndarray:
        """x(S) for every coalition S, in row order, each summed as
        ``x[members].sum()`` (a matrix product would reassociate the sums)."""
        return np.array([x[members].sum() for members in self._members])

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n_agents": self.n_agents,
            "grand_value": self.grand_value,
            "uncertainty_dim": self.uncertainty_dim,
            "coalitions": [c.label() for c in self.coalitions],
            "values": {
                c.label(): [
                    {"a": float(a), "b": [float(x) for x in b]}
                    for a, b in zip(*self.value_model.pieces(c))
                ]
                for c in self.coalitions
            },
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "GameSpec":
        """Parse a game document; a malformed field or an unknown key
        raises a :class:`GameSpecError` that names it."""

        def need(key, what, ok):
            if not ok(doc.get(key)):
                raise GameSpecError(f"game.{key} must be {what}" if key in doc else f"game.{key} is missing")
            return doc[key]

        if unknown := [key for key in doc if key not in _GAME_KEYS]:
            raise GameSpecError(f"unknown key {'game.' + unknown[0]!r}; known: {', '.join(_GAME_KEYS)}")
        values = need("values", "an object keyed by coalition labels", lambda v: isinstance(v, Mapping))
        pieces = {}
        for label, forms in values.items():
            if not (isinstance(forms, list) and all(map(_is_form, forms))):
                raise GameSpecError(f"game.values[{label!r}] must list forms {{'a': number, 'b': [numbers]}}")
            coalition = _coalition(label, "game.values")
            if coalition in pieces:
                raise GameSpecError(f"game.values: label {label!r} names coalition {coalition.label()!r} twice")
            pieces[coalition] = [(f["a"], f["b"]) for f in forms]
        coalitions = None
        if "coalitions" in doc:
            labels = need("coalitions", "a list of coalition labels", lambda v: isinstance(v, list))
            coalitions = tuple(_coalition(label, "game.coalitions") for label in labels)
        integral = partial(_numeric, kind=numbers.Integral)
        return cls(
            n_agents=int(need("n_agents", "an integer", integral)),
            grand_value=float(need("grand_value", "a number", _numeric)),
            value_model=ValueModel(int(need("uncertainty_dim", "an integer", integral)), pieces),
            coalitions=coalitions,
        )


def _numeric(value, depth: int = 0, kind=numbers.Real) -> bool:
    """Whether ``value`` is a number of ``kind`` (``depth`` 0), a list of them (1)
    or a rectangular list of such lists (2); booleans and strings are not numbers."""
    if depth:
        rows = isinstance(value, list) and all(_numeric(v, depth - 1, kind) for v in value)
        return rows and (depth == 1 or len({len(v) for v in value}) <= 1)
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_form(form) -> bool:
    return isinstance(form, Mapping) and _numeric(form.get("a")) and _numeric(form.get("b"), 1)


def _coalition(label, where: str) -> Coalition:
    try:
        return Coalition.from_label(label)
    except (AttributeError, ValueError, GameSpecError):
        raise GameSpecError(f"{where}: label {label!r} is not a list of agent ids like '1,3'") from None


def subcoalition_budget(n_agents: int) -> int:
    """Conventional subcoalition count 2^N - 1 used as a complexity budget.

    Counts every subset other than the grand coalition (the empty set
    included), so it exceeds ``len(spec.coalitions)`` for the
    default structure by one.  Complexity budgets use this count; geometry
    uses the enforced-constraint count.
    """
    if n_agents < 1:
        raise GameSpecError("need at least one agent")
    return 2**n_agents - 1
