"""Linear programs through HiGHS, the simplex solver that ships inside scipy.

Every program in the package (core emptiness and coalition minima, the
per-agent compression feasibility programs, the lexicographic selections
and the zeta slack program) runs in a :class:`Model`: one ``_Highs``
instance of scipy's bindings in ``scipy.optimize._highspy._core`` for the
HiGHS dual revised simplex (Huangfu & Hall, "Parallelizing the dual
revised simplex method", *Math. Prog. Comp.* 10, 2018).  A model loads
its columns (lower bounds, costs), then every row through one row-wise
path (``addRows``): first ``[A_eq; A_ge]``, equality rows bounded to
``[b, b]`` and inequality rows to ``[b, inf)``, then each appended block.
Options: ``output_flag=False``, ``threads=1`` and primal and dual
feasibility tolerances of ``TOL = 1e-9``.

A model keeps its rows as the triplets it hands to HiGHS (:class:`Rows`:
row, column and value arrays, row-major, ascending column within a row),
never as a dense matrix.  The zeta program has N + sum K_i columns and at
most N+1 nonzeros per row, and row generation appends a block every
round; each block costs one concatenate of its nonzeros.  Dense input (a
:class:`LinearProgram` built from matrices, a lexicographic cap) becomes
triplets in one place, :meth:`Rows.of`; a caller that builds triplets,
such as the zeta program, passes :class:`Rows` directly.

One constraint system is one model.  A family of programs over it (the
minimum of each row of a matrix, cap rows appended by a lexicographic
selection or violated rows by row generation) is a sequence of re-solves,
each starting from the basis the previous one left, instead of a fresh
instance per program.  The first solve of a model is cold and runs the
dual simplex.  A re-solve under a new cost starts from a primal feasible
basis and runs the primal simplex; appended rows leave the basis dual
feasible, and those re-solves run the dual simplex.  (After a cost change
the dual simplex, too, ends within the 1e-9 tolerances of the optimum,
but on degenerate cores with 1e-9 caps it can stop 1e-9 short of the
point a cold solve returns.)  ``solve`` and ``feasible`` are one-shot
models.

:meth:`Model.minima` minimizes each row of a matrix in turn, for the
core's coalition minima and for compression.  Where ``r.x >= b`` is a row
of the system, the system with that row held at equality is feasible
exactly when the minimum of ``r.x`` is at most ``b + TOL``: HiGHS holds
both programs to the same ``TOL``, and its verdicts on the equality
program agree with this test at gaps of 5e-10 and 9e-10 (feasible) and
1.1e-9 and above (infeasible), with values scaled from 1e-3 to 1e5.  So
such a family costs one warm re-solve per row, and an empty system one
solve.  Both deterministic selections (the lexicographic core allocation
and the zeta program) are one :meth:`Model.lexmin`: for each cost c_j in
turn, minimize it, append the rows a callback finds violated and re-solve
until it finds none, then cap ``-c_j.x >= -(optimum + TOL)`` before
c_{j+1}.

With one thread and HiGHS's fixed default random seed, a model's answers
are a function of its program and of the sequence of re-solves before
them: identical inputs solved in the same order give bit-identical
solutions, and callers fix that order (coalition minima and compression
rows in coalition order).  A warm answer may differ in the last bits from
a cold solve of the same program.

Model status ``kOptimal``, ``kInfeasible`` and ``kUnbounded`` map to
``OPTIMAL``, ``INFEASIBLE`` and ``UNBOUNDED``.  ``kUnboundedOrInfeasible``
(dual infeasibility found before primal feasibility was decided) is settled
by re-solving with a zero objective: a feasible point means unbounded.  An
optimal point must pass the residual check: no constraint or bound may be
violated by more than ``1e2 * TOL``.  Row activities come from a sparse
product over the triplets (``np.bincount`` of ``val * x[col]`` by row), so
every row's slack is reported.  A re-solve that ends with any other status
or fails the residual check is solved once more from scratch in the same
model (``clearSolver``); only if that fails too, or if the model's first
(cold) solve fails, does ``LpNumericalError`` follow.

The public wrappers ``scipy.optimize.linprog`` and ``milp`` solve the same
programs with the same HiGHS, but validate their inputs and options in
Python on every call: on a 3-variable, 7-row core program they cost
about 2.0 and 1.2 ms per call against 0.42 ms for a fresh model here
(2-CPU x86-64 VM, BLAS on one thread), and every coverage trial solves
several such programs.  The bindings are scipy-internal, so this module is
the only place that imports them; they exist from scipy 1.15 on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import LpError, LpNumericalError

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # pragma: no cover - depends on the installed scipy
    raise ImportError(
        "coalisure.lp needs scipy>=1.15, whose HiGHS bindings live in "
        "scipy.optimize._highspy._core"
    ) from exc

TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MS = _highs.HighsModelStatus
_STATUS = {_MS.kOptimal: OPTIMAL, _MS.kInfeasible: INFEASIBLE, _MS.kUnbounded: UNBOUNDED}


def _options():
    opts = _highs.HighsOptions()
    opts.output_flag = False
    opts.threads = 1
    opts.primal_feasibility_tolerance = TOL
    opts.dual_feasibility_tolerance = TOL
    return opts


_OPTIONS = _options()  # read-only after import; passOptions copies it
_PRIMAL_SIMPLEX = 4  # HiGHS simplex_strategy value for the primal simplex


@dataclass(frozen=True)
class Rows:
    """A ``shape[0] x shape[1]`` constraint matrix as row-wise triplets:
    ``a[row[j], col[j]] = val[j]``, ordered by row and then by column, the
    order HiGHS receives them in."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def of(cls, a: "np.ndarray | Rows") -> "Rows":
        """The nonzeros of a dense matrix; :class:`Rows` come back as they are."""
        if isinstance(a, Rows):
            return a
        rows, cols = np.nonzero(a)  # sorted by row, then column
        return cls(rows, cols.astype(np.int32), a[rows, cols], a.shape)

    def dot(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.row, weights=self.val * x[self.col], minlength=self.shape[0])

    def stack(self, below: "Rows") -> "Rows":
        """These rows, then the rows of ``below``."""
        return Rows(
            np.concatenate([self.row, below.row + self.shape[0]]),
            np.concatenate([self.col, below.col]),
            np.concatenate([self.val, below.val]),
            (self.shape[0] + below.shape[0], self.shape[1]),
        )


def _as_rows(a, n_cols: int, name: str) -> np.ndarray | Rows:
    """``a`` as a dense matrix with ``n_cols`` columns, or as checked
    :class:`Rows`."""
    if isinstance(a, Rows):
        row, col = a.row, a.col
        if a.shape[1] != n_cols or not row.size == col.size == a.val.size:
            raise LpError(f"{name} must be triplets over {n_cols} columns")
        inside = not row.size or (min(row[0], col.min()) >= 0 and row[-1] < a.shape[0] and col.max() < n_cols)
        if not inside or (np.diff(row) < 0).any():
            raise LpError(f"{name} triplets must be sorted by row and lie inside shape {a.shape}")
        return a
    if a is None:
        return np.zeros((0, n_cols))
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or (a.size and a.shape[1] != n_cols):
        raise LpError(f"{name} must be a matrix with {n_cols} columns, got shape {a.shape}")
    return a.reshape(a.shape[0], n_cols)


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  A_eq x = b_eq,  A_ge x >= b_ge,  x >= lower_bounds.

    ``lower_bounds`` may be None (all variables free) or a vector mixing
    finite bounds with ``-inf`` for free variables.  ``a_eq`` and ``a_ge``
    are dense matrices or :class:`Rows`.
    """

    objective: np.ndarray
    a_eq: np.ndarray | Rows
    b_eq: np.ndarray
    a_ge: np.ndarray | Rows
    b_ge: np.ndarray
    lower_bounds: np.ndarray | None = None

    @classmethod
    def build(
        cls,
        objective: Sequence[float],
        a_eq=None,
        b_eq=None,
        a_ge=None,
        b_ge=None,
        lower_bounds=None,
    ) -> "LinearProgram":
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1:
            raise LpError("objective must be a vector")
        n = c.size
        a_eq = _as_rows(a_eq, n, "a_eq")
        a_ge = _as_rows(a_ge, n, "a_ge")
        b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
        b_ge = np.zeros(0) if b_ge is None else np.asarray(b_ge, dtype=float).ravel()
        if a_eq.shape[0] != b_eq.size or a_ge.shape[0] != b_ge.size:
            raise LpError("constraint matrix/vector row counts disagree")
        if lower_bounds is not None:
            lower_bounds = np.asarray(lower_bounds, dtype=float).ravel()
            if lower_bounds.size != n:
                raise LpError("lower_bounds length must match the variable count")
            if np.isposinf(lower_bounds).any() or np.isnan(lower_bounds).any():
                raise LpError("lower bounds must be finite or -inf")
        for arr, name in ((c, "objective"), (a_eq, "a_eq"), (a_ge, "a_ge"), (b_eq, "b_eq"), (b_ge, "b_ge")):
            arr = arr.val if isinstance(arr, Rows) else arr
            if arr.size and not np.isfinite(arr).all():
                raise LpError(f"non-finite entries in {name}")
        return cls(c, a_eq, b_eq, a_ge, b_ge, lower_bounds)

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpOutcome:
    """Solver verdict plus the activity report for the original constraints."""

    status: str
    x: np.ndarray | None
    objective: float | None
    slack_eq: np.ndarray | None
    slack_ge: np.ndarray | None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class Model:
    """One HiGHS instance holding one constraint system.

    Built from a :class:`LinearProgram`, it re-solves under a new cost
    (:meth:`minimize`), under each row of a matrix as the cost
    (:meth:`minima`), after ``>=`` rows are appended (:meth:`add_rows`) and
    through a sequence of capped costs (:meth:`lexmin`); each re-solve
    starts from the basis the previous one left.  ``program``
    is the current system, its rows held as the :class:`Rows` HiGHS was
    given, so outcomes report slacks for every row.  A model is not shared
    between threads.
    """

    def __init__(self, program: LinearProgram):
        self.program = p = replace(program, a_eq=Rows.of(program.a_eq), a_ge=Rows.of(program.a_ge))
        self._solved = False
        self._simplex = _OPTIONS.simplex_strategy
        self._highs = _highs._Highs()
        self._highs.passOptions(_OPTIONS)
        lower = np.full(p.n_vars, -np.inf) if p.lower_bounds is None else p.lower_bounds
        self._accept(self._highs.addVars(p.n_vars, lower, np.full(p.n_vars, np.inf)))
        self._set_cost(p.objective)
        upper = np.concatenate([p.b_eq, np.full(p.b_ge.size, np.inf)])
        self._add_rows(p.a_eq.stack(p.a_ge), np.concatenate([p.b_eq, p.b_ge]), upper)

    def minimize(self, cost=None) -> LpOutcome:
        """Minimize ``cost`` (default: the current cost) over the system."""
        if cost is not None:
            self._set_cost(np.asarray(cost, dtype=float))
        return self._solve(primal=cost is not None)

    def minima(self, rows) -> np.ndarray | None:
        """Minimize each row of ``rows`` in turn, one :meth:`minimize` per
        row: the minima (read-only, ``-inf`` where a row is unbounded
        below), or ``None`` at the first infeasible solve."""
        rows = np.asarray(rows, dtype=float)
        minima = np.empty(len(rows))
        for r, row in enumerate(rows):
            out = self.minimize(row)
            if out.status == INFEASIBLE:
                return None
            minima[r] = -np.inf if out.status == UNBOUNDED else out.objective
        minima.flags.writeable = False
        return minima

    def lexmin(self, costs, violated: Callable[[np.ndarray], tuple] | None = None) -> LpOutcome:
        """Minimize each row of ``costs`` in turn, capping each optimum at
        +``TOL`` before the next; while ``violated(x)`` returns rows ``(a,
        b)`` (``a`` dense or :class:`Rows`) at an optimal ``x``, append ``a x
        >= b`` and re-solve.  The first outcome that is not optimal comes
        back at once."""
        costs = np.asarray(costs, dtype=float)
        for j, cost in enumerate(costs):
            out = self.minimize(cost)
            while out.is_optimal and violated is not None and (rows := violated(out.x)) is not None:
                self.add_rows(*rows)
                out = self.minimize()
            if not out.is_optimal or j == len(costs) - 1:
                return out
            self.add_rows(-cost.reshape(1, -1), [-(out.objective + TOL)])

    def add_rows(self, a, b) -> None:
        """Append the rows ``a x >= b``; ``a`` is a dense matrix or :class:`Rows`."""
        p = self.program
        a = Rows.of(_as_rows(a, p.n_vars, "a"))
        b = np.asarray(b, dtype=float).ravel()
        if a.shape[0] != b.size:
            raise LpError("constraint matrix/vector row counts disagree")
        self._add_rows(a, b, np.full(b.size, np.inf))
        self.program = replace(p, a_ge=p.a_ge.stack(a), b_ge=np.concatenate([p.b_ge, b]))

    def _add_rows(self, a: Rows, lower: np.ndarray, upper: np.ndarray) -> None:
        """Append the rows ``lower <= a x <= upper``."""
        starts = np.concatenate([[0], np.cumsum(np.bincount(a.row, minlength=lower.size))])[:-1]
        triplets = starts.astype(np.int32), a.col.astype(np.int32, copy=False), a.val
        self._accept(self._highs.addRows(lower.size, lower, upper, a.val.size, *triplets))

    @staticmethod
    def _accept(status) -> None:
        if status == _highs.HighsStatus.kError:
            raise LpNumericalError("HiGHS rejected the model")

    def _strategy(self, strategy: int) -> None:
        if strategy != self._simplex:
            self._highs.setOptionValue("simplex_strategy", strategy)
            self._simplex = strategy

    def _set_cost(self, cost: np.ndarray) -> None:
        n = self.program.n_vars
        self._highs.changeColsCost(n, np.arange(n, dtype=np.int32), cost)
        self._cost = cost

    def _run(self):
        if self._highs.run() == _highs.HighsStatus.kError:
            raise LpNumericalError("HiGHS run failed")
        return self._highs.getModelStatus()

    def _status(self):
        status = self._run()
        if status == _MS.kUnboundedOrInfeasible:
            # a zero objective cannot be unbounded, so feasibility decides
            cost = self._cost
            self._set_cost(np.zeros(self.program.n_vars))
            probe = self._run()
            self._set_cost(cost)
            status = {_MS.kOptimal: _MS.kUnbounded, _MS.kUnboundedOrInfeasible: _MS.kInfeasible}.get(
                probe, probe
            )
        return status

    def _solve(self, primal: bool = False) -> LpOutcome:
        # a warm answer that is undecided or fails the residual check is
        # solved once more from scratch before it counts as an error
        for attempt in range(2 if self._solved else 1):
            if attempt:
                self._highs.clearSolver()
            warm = self._solved and not attempt
            self._strategy(_PRIMAL_SIMPLEX if primal and warm else _OPTIONS.simplex_strategy)
            self._solved = True
            status = self._status()
            verdict = _STATUS.get(status)
            if verdict is None:
                failure = f"HiGHS ended with model status {status.name}"
                continue
            if verdict != OPTIMAL:
                return LpOutcome(verdict, None, None, None, None)
            x = np.array(self._highs.getSolution().col_value)
            out, worst = self._outcome(x)
            if worst <= 1e2 * TOL:
                return out
            failure = f"residual {worst:.3e} exceeds tolerance after solve"
        raise LpNumericalError(failure)

    def _outcome(self, x: np.ndarray) -> tuple[LpOutcome, float]:
        """The optimal outcome at ``x`` and its worst constraint or bound
        violation."""
        p = self.program
        slack_eq = p.a_eq.dot(x) - p.b_eq
        slack_ge = p.a_ge.dot(x) - p.b_ge
        worst = float(np.abs(slack_eq).max(initial=0.0))
        worst = max(worst, float(-slack_ge.min(initial=0.0)))
        if p.lower_bounds is not None:
            finite = np.isfinite(p.lower_bounds)
            worst = max(worst, float((p.lower_bounds[finite] - x[finite]).max(initial=0.0)))
        return LpOutcome(OPTIMAL, x, float(self._cost @ x), slack_eq, slack_ge), worst


def solve(lp: LinearProgram) -> LpOutcome:
    """Minimize over the program; deterministic for identical inputs."""
    return Model(lp).minimize()


def feasible(lp: LinearProgram) -> LpOutcome:
    """Feasibility check: solve with a zero objective, return any feasible point."""
    return solve(replace(lp, objective=np.zeros(lp.n_vars)))
