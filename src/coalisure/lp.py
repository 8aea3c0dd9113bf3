"""Linear programs through HiGHS, the simplex solver that ships inside scipy.

Every program in the package (core emptiness and coalition minima, the
per-agent compression feasibility programs, the lexicographic selections
and the zeta slack program) goes through ``solve``.  The backend is HiGHS
(Huangfu & Hall, "Parallelizing the dual revised simplex method",
*Math. Prog. Comp.* 10, 2018), called through scipy's bindings in
``scipy.optimize._highspy._core``: each call fills a ``HighsLp`` with the
rows ``[A_eq; A_ge]`` (equality rows bounded to ``[b, b]``, inequality rows
to ``[b, inf)``), a column-wise sparse matrix and the column lower bounds,
and runs a fresh ``_Highs`` instance on it.  Options: ``output_flag=False``,
``threads=1`` and primal and dual feasibility tolerances of ``TOL = 1e-9``;
with one thread and HiGHS's fixed default random seed, identical inputs
give bit-identical solutions.

Model status ``kOptimal``, ``kInfeasible`` and ``kUnbounded`` map to
``OPTIMAL``, ``INFEASIBLE`` and ``UNBOUNDED``.  ``kUnboundedOrInfeasible``
(dual infeasibility found before primal feasibility was decided) is settled
by re-solving with a zero objective: a feasible point means unbounded.
Any other status raises ``LpNumericalError``, as does an optimal point
whose worst constraint or bound violation exceeds ``1e2 * TOL``.

The public wrappers ``scipy.optimize.linprog`` and ``milp`` solve the same
programs with the same HiGHS, but validate their inputs and options in
Python on every call: on a 3-variable, 7-row core program they cost
about 2.0 and 1.2 ms per call against 0.42 ms for the model object here
(2-CPU x86-64 VM, BLAS on one thread), and every coverage trial solves
several such programs.  The bindings are scipy-internal, so this module is
the only place that imports them; they exist from scipy 1.15 on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def _as_matrix(a, n_cols: int, name: str) -> np.ndarray:
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
    finite bounds with ``-inf`` for free variables.
    """

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ge: np.ndarray
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
        a_eq = _as_matrix(a_eq, n, "a_eq")
        a_ge = _as_matrix(a_ge, n, "a_ge")
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


def _run(lp: LinearProgram, cost: np.ndarray):
    """One HiGHS solve of ``lp`` under ``cost``: (model status, x or None)."""
    n, m = lp.n_vars, lp.b_eq.size + lp.b_ge.size
    a_t = np.vstack([lp.a_eq, lp.a_ge]).T  # a_t[j] is column j of the rows
    cols, rows = np.nonzero(a_t)  # sorted by column, then row
    model = _highs.HighsLp()
    model.num_col_ = n
    model.num_row_ = m
    model.col_cost_ = cost
    model.col_lower_ = np.full(n, -np.inf) if lp.lower_bounds is None else lp.lower_bounds
    model.col_upper_ = np.full(n, np.inf)
    model.row_lower_ = np.concatenate([lp.b_eq, lp.b_ge])
    model.row_upper_ = np.concatenate([lp.b_eq, np.full(lp.b_ge.size, np.inf)])
    matrix = model.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.start_ = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    matrix.index_ = rows
    matrix.value_ = a_t[cols, rows]

    highs = _highs._Highs()
    highs.passOptions(_OPTIONS)
    if highs.passModel(model) == _highs.HighsStatus.kError:
        raise LpNumericalError("HiGHS rejected the model")
    if highs.run() == _highs.HighsStatus.kError:
        raise LpNumericalError("HiGHS run failed")
    status = highs.getModelStatus()
    if status != _MS.kOptimal:
        return status, None
    return status, np.array(highs.getSolution().col_value)


def solve(lp: LinearProgram) -> LpOutcome:
    """Minimize over the program; deterministic for identical inputs."""
    status, x = _run(lp, lp.objective)
    if status == _MS.kUnboundedOrInfeasible:
        # a zero objective cannot be unbounded, so feasibility decides
        probe, _ = _run(lp, np.zeros(lp.n_vars))
        status = {_MS.kOptimal: _MS.kUnbounded, _MS.kUnboundedOrInfeasible: _MS.kInfeasible}.get(
            probe, probe
        )
    verdict = _STATUS.get(status)
    if verdict is None:
        raise LpNumericalError(f"HiGHS ended with model status {status.name}")
    if verdict != OPTIMAL:
        return LpOutcome(verdict, None, None, None, None)

    slack_eq = lp.a_eq @ x - lp.b_eq if lp.a_eq.size else np.zeros(0)
    slack_ge = lp.a_ge @ x - lp.b_ge if lp.a_ge.size else np.zeros(0)
    worst = 0.0
    if slack_eq.size:
        worst = max(worst, float(np.abs(slack_eq).max()))
    if slack_ge.size:
        worst = max(worst, float(max(0.0, -slack_ge.min())))
    if lp.lower_bounds is not None:
        lbv = lp.lower_bounds
        finite = np.isfinite(lbv)
        if finite.any():
            worst = max(worst, float(max(0.0, (lbv[finite] - x[finite]).max())))
    if worst > 1e2 * TOL:
        raise LpNumericalError(f"residual {worst:.3e} exceeds tolerance after solve")
    return LpOutcome(OPTIMAL, x, float(lp.objective @ x), slack_eq, slack_ge)


def feasible(lp: LinearProgram) -> LpOutcome:
    """Feasibility check: solve with a zero objective, return any feasible point."""
    zero = LinearProgram(
        np.zeros(lp.n_vars), lp.a_eq, lp.b_eq, lp.a_ge, lp.b_ge, lp.lower_bounds
    )
    return solve(zero)
