"""``lp.Model``: one HiGHS instance re-solved under a new cost, under each
row of a matrix (``minima``) and after rows are appended.  Each re-solve is
checked against a fresh one-shot solve of the same program; a row's
minimum is at most its bound + ``TOL`` exactly when the program with that
row at equality is feasible, on random programs and at gaps around
``TOL`` over eight orders of magnitude.  Every status path
of a warm answer is forced through a wrapper around the model's HiGHS
instance.  HiGHS's own copy of a model, built and grown through the one
row path, and the model's own row triplets (``model.program``) are read
back against the test's record of what it built and appended; a block
appended as ``lp.Rows`` and the same block appended dense give HiGHS the
same model and the same bits.  The sparse residual check rejects a
perturbed answer, and no other module imports the bindings.  ``lexmin``
caps each cost's optimum before the next and runs row generation through
a callback; only ``lp.py`` appends rows."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coalisure import lp
from coalisure import scenario_core as sc
from coalisure.errors import LpError, LpNumericalError
from coalisure.game import GameSpec
from coalisure.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, Model, solve
from coalisure.sampling import DistributionSpec, draw_private

from oracles import cold_lexicographic_allocation
from test_pipeline import README_GAME

_MS = lp._highs.HighsModelStatus


def random_program(rng, n=4, m=10):
    """A bounded, feasible program: a box plus random rows through a
    planted interior point."""
    x0 = rng.normal(size=n)
    a = rng.normal(size=(m, n))
    a_ge = np.vstack([np.eye(n), -np.eye(n), a])
    b_ge = np.concatenate([x0 - 2.0, -(x0 + 2.0), a @ x0 - rng.uniform(0.1, 1.0, size=m)])
    return LinearProgram.build(rng.normal(size=n), a_eq=[np.ones(n)], b_eq=[x0.sum()], a_ge=a_ge, b_ge=b_ge)


def with_row_at_equality(prog, row):
    keep = np.arange(prog.b_ge.size) != row
    return LinearProgram.build(
        prog.objective,
        a_eq=np.vstack([prog.a_eq, prog.a_ge[row]]),
        b_eq=np.concatenate([prog.b_eq, prog.b_ge[row : row + 1]]),
        a_ge=prog.a_ge[keep],
        b_ge=prog.b_ge[keep],
        lower_bounds=prog.lower_bounds,
    )


def assert_same_answer(warm, cold):
    assert warm.status == cold.status
    if cold.status == OPTIMAL:
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


class TestReSolves:
    def test_new_costs_match_fresh_solves(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            prog = random_program(rng)
            model = Model(prog)
            for _ in range(5):
                cost = rng.normal(size=prog.n_vars)
                warm = model.minimize(cost)
                cold = solve(LinearProgram.build(cost, prog.a_eq, prog.b_eq, prog.a_ge, prog.b_ge))
                assert_same_answer(warm, cold)
                assert np.abs(warm.x - cold.x).max() <= 1e-9

    def test_minima_decide_the_pinned_programs(self):
        rng = np.random.default_rng(4)
        verdicts = set()
        for _ in range(10):
            prog = random_program(rng)
            model = Model(prog)
            minima = model.minima(dense(prog.a_ge))
            for row in range(prog.b_ge.size):
                held = bool(minima[row] <= prog.b_ge[row] + lp.TOL)
                assert held == solve(with_row_at_equality(prog, row)).is_optimal
                verdicts.add(held)
            assert_same_answer(model.minimize(prog.objective), solve(prog))  # the system is unchanged
        assert verdicts == {True, False}

    def test_appended_rows_match_fresh_solves(self):
        rng = np.random.default_rng(5)
        verdicts = set()
        for _ in range(20):
            prog = random_program(rng)
            model = Model(prog)
            model.minimize()
            a_new = rng.normal(size=(3, prog.n_vars))
            b_new = rng.normal(size=3) - 2.0
            model.add_rows(a_new, b_new)
            grown = LinearProgram.build(
                prog.objective, prog.a_eq, prog.b_eq, np.vstack([prog.a_ge, a_new]), np.concatenate([prog.b_ge, b_new])
            )
            warm = model.minimize()
            assert_same_answer(warm, solve(grown))
            assert model.program.b_ge.size == grown.b_ge.size
            verdicts.add(warm.status)
            if warm.status == OPTIMAL:
                assert warm.slack_ge.size == grown.b_ge.size
        assert verdicts == {OPTIMAL, INFEASIBLE}

    def test_feasibility_model_minima(self):
        # x1 + x2 = 1, x >= 0 and 0.5 <= x1 <= 2: x1 = 0.5 is reachable, x1 = 2 is not
        a_ge, b_ge = np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.5, -2.0])
        model = Model(
            LinearProgram.build([0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ge=a_ge, b_ge=b_ge, lower_bounds=[0.0, 0.0])
        )
        minima = model.minima(a_ge)
        assert minima == pytest.approx([0.5, -1.0], abs=1e-12)
        assert (minima <= b_ge + lp.TOL).tolist() == [True, False]
        assert model.minima(a_ge[::-1]) == pytest.approx([-1.0, 0.5], abs=1e-12)

    def test_solve_order_fixes_the_bits(self):
        rng = np.random.default_rng(6)
        prog = random_program(rng)
        costs = rng.normal(size=(6, prog.n_vars))
        runs = []
        for _ in range(3):
            model = Model(prog)
            runs.append([model.minimize(c).x.tobytes() for c in costs])
        assert runs[0] == runs[1] == runs[2]


def highs_copy(model):
    """HiGHS's own copy of the model: the dense matrix, the row bounds, the
    column bounds and the costs."""
    got = model._highs.getLp()
    a = got.a_matrix_
    start, index, value = np.asarray(a.start_, int), np.asarray(a.index_, int), np.asarray(a.value_)
    dense = np.zeros((got.num_row_, got.num_col_))
    if a.format_ == lp._highs.MatrixFormat.kColwise:
        for j in range(got.num_col_):
            dense[index[start[j] : start[j + 1]], j] = value[start[j] : start[j + 1]]
    else:
        assert a.format_ == lp._highs.MatrixFormat.kRowwise
        for i in range(got.num_row_):
            dense[i, index[start[i] : start[i + 1]]] = value[start[i] : start[i + 1]]
    return dense, got.row_lower_, got.row_upper_, got.col_lower_, got.col_upper_, got.col_cost_


def dense(a):
    """A matrix held dense or as ``lp.Rows``, dense; the triplets must be
    row-major with ascending columns and no repeated entry."""
    if not isinstance(a, lp.Rows):
        return a
    assert np.array_equal(np.lexsort((a.col, a.row)), np.arange(a.row.size))
    assert not ((np.diff(a.row) == 0) & (np.diff(a.col) == 0)).any()
    out = np.zeros(a.shape)
    out[a.row, a.col] = a.val
    return out


def dense_program(prog):
    """The same five arrays and costs, as ``prog`` says they are."""
    n = prog.n_vars
    return (
        np.vstack([dense(prog.a_eq), dense(prog.a_ge)]),
        np.concatenate([prog.b_eq, prog.b_ge]),
        np.concatenate([prog.b_eq, np.full(prog.b_ge.size, np.inf)]),
        np.full(n, -np.inf) if prog.lower_bounds is None else prog.lower_bounds,
        np.full(n, np.inf),
        prog.objective,
    )


def appended(prog, a, b):
    """The test's record of ``prog`` after the dense rows ``a x >= b``."""
    return replace(prog, a_ge=np.vstack([prog.a_ge, a]), b_ge=np.concatenate([prog.b_ge, b]))


def assert_highs_holds_the_program(model, record):
    """HiGHS's copy and the model's own rows both equal ``record``."""
    for got, held, want in zip(highs_copy(model), dense_program(model.program), dense_program(record), strict=True):
        assert np.array_equal(np.asarray(got, dtype=float), want)
        assert np.array_equal(held, want)


def encoder_programs(rng, n=4):
    a_eq, a_ge = rng.normal(size=(2, n)), rng.normal(size=(5, n))
    a_ge[a_ge < -0.5] = 0.0  # structural zeros, so the sparse pattern matters
    return {
        "equality-and-ge": LinearProgram.build(rng.normal(size=n), a_eq, rng.normal(size=2), a_ge, rng.normal(size=5)),
        "ge-only": LinearProgram.build(rng.normal(size=n), a_ge=a_ge, b_ge=rng.normal(size=5)),
        "finite-lower-bounds": LinearProgram.build(
            rng.normal(size=n), a_eq[:1], [1.0], a_ge, rng.normal(size=5), lower_bounds=[0.0, -np.inf, -2.5, 1.0]
        ),
        "no-rows": LinearProgram.build(rng.normal(size=n), lower_bounds=np.zeros(n)),
    }


class TestOneRowPath:
    @pytest.mark.parametrize("kind", ["equality-and-ge", "ge-only", "finite-lower-bounds", "no-rows"])
    def test_highs_copy_equals_the_program(self, kind):
        rng = np.random.default_rng(11)
        prog = record = encoder_programs(rng)[kind]
        model = Model(prog)
        assert_highs_holds_the_program(model, record)
        for rows in (1, 3, 0, 2):
            a = rng.normal(size=(rows, prog.n_vars))
            a[:, 1] = 0.0  # a column left empty by the new block
            b = rng.normal(size=rows)
            model.add_rows(a, b)
            record = appended(record, a, b)
            assert_highs_holds_the_program(model, record)
        assert model.program.b_ge.size == prog.b_ge.size + 6

    def test_minima_cover_appended_rows(self):
        rng = np.random.default_rng(12)
        prog = encoder_programs(rng)["equality-and-ge"]
        model = Model(prog)
        a = rng.normal(size=(2, prog.n_vars))
        model.add_rows(a, [-5.0, -5.0])
        record = appended(prog, a, [-5.0, -5.0])
        rows = dense(model.program.a_ge)
        minima = model.minima(rows)
        for got, want in zip(highs_copy(model)[:5], dense_program(record)[:5], strict=True):
            assert np.array_equal(np.asarray(got, dtype=float), want)  # rows and bounds stay as built
        held = minima <= record.b_ge + lp.TOL
        for row in range(record.b_ge.size):
            assert held[row] == solve(with_row_at_equality(record, row)).is_optimal
        assert held[prog.b_ge.size :].any()  # an appended row held at equality

    def test_rejected_columns_and_rows_raise(self):
        with pytest.raises(LpNumericalError, match="rejected"):
            Model(LinearProgram.build([1.0, 1.0], a_ge=[[1e16, 0.0]], b_ge=[0.0]))
        with pytest.raises(LpNumericalError, match="rejected"):
            Model(LinearProgram(np.ones(1), np.zeros((0, 1)), np.zeros(0), np.zeros((0, 1)), np.zeros(0), np.array([np.inf])))
        model = Model(LinearProgram.build([1.0, 1.0], a_ge=[[1.0, 0.0]], b_ge=[0.0]))
        with pytest.raises(LpNumericalError, match="rejected"):
            model.add_rows([[np.inf, 1.0]], [0.0])


def test_only_lp_imports_the_highs_bindings():
    package = Path(lp.__file__).parent
    importers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.startswith("scipy.optimize._highspy") for name in names):
                importers.add(path.relative_to(package).as_posix())
    assert importers == {"lp.py"}


class ForcedStatus:
    """A model's HiGHS instance that reports the given model statuses (or
    solutions) for its next runs and counts ``clearSolver`` calls."""

    def __init__(self, highs, statuses=(), solutions=()):
        self._highs = highs
        self.statuses = list(statuses)
        self.solutions = list(solutions)
        self.cleared = 0

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getModelStatus(self):
        real = self._highs.getModelStatus()
        return self.statuses.pop(0) if self.statuses else real

    def getSolution(self):
        real = self._highs.getSolution()
        return self.solutions.pop(0) if self.solutions else real

    def clearSolver(self):
        self.cleared += 1
        return self._highs.clearSolver()


class _Point:
    def __init__(self, x):
        self.col_value = list(x)


def warm_model(prog):
    model = Model(prog)
    assert model.minimize().status == OPTIMAL
    return model


class TestWarmStatusPaths:
    @pytest.mark.parametrize("status", [_MS.kUnknown, _MS.kIterationLimit, _MS.kSolveError, _MS.kNotset])
    def test_undecided_warm_status_is_solved_cold(self, status):
        rng = np.random.default_rng(8)
        prog = random_program(rng)
        model = warm_model(prog)
        cost = rng.normal(size=prog.n_vars)
        model._highs = forced = ForcedStatus(model._highs, [status])
        out = model.minimize(cost)
        assert forced.cleared == 1
        assert_same_answer(out, solve(LinearProgram.build(cost, prog.a_eq, prog.b_eq, prog.a_ge, prog.b_ge)))

    def test_undecided_after_the_cold_retry_raises(self):
        model = warm_model(random_program(np.random.default_rng(9)))
        model._highs = forced = ForcedStatus(model._highs, [_MS.kUnknown, _MS.kUnknown])
        with pytest.raises(LpNumericalError, match="kUnknown"):
            model.minimize()
        assert forced.cleared == 1

    def test_first_solve_is_not_repeated(self):
        model = Model(random_program(np.random.default_rng(10)))
        model._highs = forced = ForcedStatus(model._highs, [_MS.kUnknown])
        with pytest.raises(LpNumericalError, match="kUnknown"):
            model.minimize()
        assert forced.cleared == 0

    def test_residual_failure_is_solved_cold(self):
        prog = random_program(np.random.default_rng(11))
        model = warm_model(prog)
        bad = np.zeros(prog.n_vars)  # breaks the efficiency row
        model._highs = forced = ForcedStatus(model._highs, solutions=[_Point(bad)])
        out = model.minimize()
        assert forced.cleared == 1
        assert_same_answer(out, solve(prog))

    def test_minima_re_solves_pass_the_residual_check(self):
        # 1 <= x <= 3: the point x = 0 misses the row x >= 1
        prog = LinearProgram.build([0.0], a_ge=[[1.0], [-1.0]], b_ge=[1.0, -3.0])
        model = warm_model(prog)
        model._highs = forced = ForcedStatus(model._highs, solutions=[_Point([0.0])])
        assert model.minima([[1.0]]).tolist() == [pytest.approx(1.0, abs=1e-12)]
        assert forced.cleared == 1
        model._highs = ForcedStatus(forced._highs, solutions=[_Point([0.0]), _Point([0.0])])
        with pytest.raises(LpNumericalError, match="residual"):
            model.minima([[-1.0]])

    def test_unbounded_or_infeasible_is_settled_by_the_probe(self):
        # the probe runs for real: feasible means unbounded, infeasible stays so
        prog = LinearProgram.build([1.0], a_ge=[[1.0], [-1.0]], b_ge=[0.0, -3.0])
        model = warm_model(prog)
        model._highs = ForcedStatus(model._highs, [_MS.kUnboundedOrInfeasible])
        assert model.minimize([-1.0]).status == UNBOUNDED
        # appending x >= 5 leaves nothing below the bound x <= 3
        infeasible = warm_model(prog)
        infeasible.add_rows([[1.0]], [5.0])
        infeasible._highs = ForcedStatus(infeasible._highs, [_MS.kUnboundedOrInfeasible])
        assert infeasible.minimize().status == INFEASIBLE

    @pytest.mark.parametrize("presolve", ["on", "off"])
    def test_undecided_status_is_settled_on_warm_re_solves(self, monkeypatch, presolve):
        """HiGHS allowed to stop at 'unbounded or infeasible': warm re-solves
        still give each program its verdict."""
        opts = lp._options()
        opts.allow_unbounded_or_infeasible = True
        opts.presolve = presolve
        monkeypatch.setattr(lp, "_OPTIONS", opts)
        model = Model(LinearProgram.build([1.0, 0.0], a_ge=[[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], b_ge=[0.0, 0.0, -1.0]))
        assert model.minimize().status == OPTIMAL
        assert model.minimize([-1.0, 0.0]).status == UNBOUNDED
        assert model.minimize([1.0, 1.0]).status == OPTIMAL
        model.add_rows([[0.0, 1.0]], [2.0])  # 2 <= x1 <= 1
        assert model.minimize([-1.0, 0.0]).status == INFEASIBLE


class CountedRuns(ForcedStatus):
    """A model's HiGHS instance that counts its runs."""

    runs = 0

    def run(self):
        self.runs += 1
        return self._highs.run()


def gapped_program(scale, gap):
    """x1 + x2 = 2 scale, x1 >= scale / 2 (row 0) and x2 <= 3 scale / 2 - gap:
    the minimum of x1 sits ``gap`` above row 0's bound."""
    return LinearProgram.build(
        [0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[2 * scale], a_ge=[[1.0, 0.0], [0.0, -1.0]],
        b_ge=[scale / 2, -(1.5 * scale - gap)],
    )


class TestMinima:
    @pytest.mark.parametrize("scale", [1e-3, 1e5])
    @pytest.mark.parametrize("gap, held", [(5e-10, True), (9e-10, True), (1.1e-9, False), (2e-9, False)])
    def test_verdict_at_the_tolerance_matches_the_pinned_program(self, scale, gap, held):
        prog = gapped_program(scale, gap)
        minima = Model(prog).minima(dense(prog.a_ge))
        assert bool(minima[0] <= prog.b_ge[0] + lp.TOL) is held
        assert solve(with_row_at_equality(prog, 0)).is_optimal is held

    def test_infeasible_system_stops_after_one_solve(self):
        model = Model(LinearProgram.build([0.0], a_ge=[[1.0], [-1.0]], b_ge=[1.0, 0.0]))  # 1 <= x <= 0
        model._highs = counted = CountedRuns(model._highs)
        assert model.minima(np.ones((5, 1))) is None
        assert counted.runs == 1

    def test_unbounded_row_is_minus_infinity(self):
        # x1 + x2 = 1 and x1 >= 0: x2 sinks without limit
        model = Model(LinearProgram.build([0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ge=[[1.0, 0.0]], b_ge=[0.0]))
        minima = model.minima([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert minima.tolist() == [pytest.approx(0.0, abs=1e-12), -np.inf, pytest.approx(1.0, abs=1e-12)]
        assert not minima.flags.writeable

    def test_bits_equal_a_loop_of_minimize(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            prog = random_program(rng)
            rows = np.vstack([dense(prog.a_ge), rng.normal(size=(4, prog.n_vars))])
            looped = Model(prog)
            want = np.array([looped.minimize(row).objective for row in rows])
            assert Model(prog).minima(rows).tobytes() == want.tobytes()


def loop_triplets(a):
    """``a``'s nonzeros as ``lp.Rows``, read off entry by entry."""
    row, col, val = [], [], []
    for i, j in np.ndindex(*a.shape):
        if a[i, j] != 0.0:
            row.append(i), col.append(j), val.append(a[i, j])
    return lp.Rows(np.array(row, dtype=np.intp), np.array(col, dtype=np.int64), np.array(val), a.shape)


class TestSparseRows:
    def test_triplet_block_equals_the_dense_block(self):
        """The same block appended as triplets and dense: equal HiGHS
        copies, bit-identical answers, and slacks equal to the dense
        product within rounding."""
        rng = np.random.default_rng(13)
        verdicts = set()
        for _ in range(10):
            prog = random_program(rng)
            a = rng.normal(size=(4, prog.n_vars))
            a[rng.uniform(size=a.shape) < 0.4] = 0.0
            a[2] = 0.0  # a row with no entry
            b = np.concatenate([rng.normal(size=2) - 2.0, [-1.0], rng.normal(size=1) - 2.0])
            by_dense, by_triplets = warm_model(prog), warm_model(prog)
            by_dense.add_rows(a, b)
            by_triplets.add_rows(loop_triplets(a), b)
            for got, want in zip(highs_copy(by_triplets), highs_copy(by_dense), strict=True):
                assert np.array_equal(got, want)
            dense_out, triplet_out = by_dense.minimize(), by_triplets.minimize()
            assert triplet_out.status == dense_out.status
            verdicts.add(dense_out.status)
            if dense_out.status == OPTIMAL:
                assert triplet_out.x.tobytes() == dense_out.x.tobytes()
                record = appended(prog, a, b)
                for slack, want in ((triplet_out.slack_eq, record.a_eq @ triplet_out.x - record.b_eq),
                                    (triplet_out.slack_ge, record.a_ge @ triplet_out.x - record.b_ge)):
                    assert np.abs(slack - want).max() <= 1e-12
        assert verdicts == {OPTIMAL, INFEASIBLE}

    def test_sparse_residual_rejects_a_perturbed_answer(self):
        # min x0 + x1 over x >= 0 with x0 + x1 >= 2 appended as triplets
        model = Model(LinearProgram.build([1.0, 1.0], a_ge=np.eye(2), b_ge=[0.0, 0.0]))
        model.add_rows(lp.Rows(np.array([0, 0]), np.array([0, 1], dtype=np.int32), np.ones(2), (1, 2)), [2.0])
        assert model.minimize().objective == pytest.approx(2.0, abs=1e-12)
        model._highs = ForcedStatus(model._highs, solutions=[_Point([1.0, 1.0 - 1e-8])])
        out = model.minimize()  # short of the appended row by 1e-8: within 1e2 * TOL
        assert out.x.tolist() == [1.0, 1.0 - 1e-8]
        assert out.slack_ge[2] == pytest.approx(-1e-8, abs=1e-15)
        off = _Point([1.0, 1.0 - 1e-6])
        model._highs = forced = ForcedStatus(model._highs._highs, solutions=[off, off])
        with pytest.raises(LpNumericalError, match="residual 1.000e-06"):
            model.minimize()
        assert forced.cleared == 1

    @pytest.mark.parametrize(
        "rows, message",
        [
            (lp.Rows(np.array([1, 0]), np.array([0, 1]), np.ones(2), (2, 2)), "sorted by row"),
            (lp.Rows(np.array([0, 2]), np.array([0, 1]), np.ones(2), (2, 2)), "inside shape"),
            (lp.Rows(np.array([0, 1]), np.array([0, 2]), np.ones(2), (2, 2)), "inside shape"),
            (lp.Rows(np.array([0, 1]), np.array([0]), np.ones(2), (2, 2)), "triplets over 2 columns"),
            (lp.Rows(np.array([0, 1]), np.array([0, 1]), np.ones(2), (2, 3)), "triplets over 2 columns"),
        ],
    )
    def test_malformed_triplets_are_refused(self, rows, message):
        model = Model(LinearProgram.build([1.0, 1.0], a_ge=np.eye(2), b_ge=[0.0, 0.0]))
        with pytest.raises(LpError, match=message):
            model.add_rows(rows, [0.0, 0.0])
        with pytest.raises(LpError, match=message):
            LinearProgram.build([1.0, 1.0], a_ge=rows, b_ge=[0.0, 0.0])
        assert model.program.b_ge.size == 2


def readme_core():
    spec = GameSpec.from_json_dict(README_GAME)
    samples = draw_private(DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]), (8, 8, 8), 5)
    return sc.build(spec, sc.tighten(spec, samples))


def core_program(core):
    n = core.n_agents
    a, b = core.constraint_rows()
    return LinearProgram.build(np.zeros(n), a_eq=[np.ones(n)], b_eq=[core.grand_value], a_ge=a, b_ge=b)


class Release:
    """A row-generation callback that appends the first held-back row the
    answer violates, one per call, and counts its calls."""

    def __init__(self, a, b):
        self.a, self.b = list(a), list(b)
        self.calls = self.released = 0

    def __call__(self, x):
        self.calls += 1
        for r, (row, bound) in enumerate(zip(self.a, self.b)):
            if row @ x < bound - lp.TOL:
                self.released += 1
                return self.a.pop(r).reshape(1, -1), [self.b.pop(r)]
        return None


class TestLexmin:
    def test_caps_select_the_cold_lexicographic_point(self):
        core = readme_core()
        prog = core_program(core)
        model = Model(prog)
        costs = np.eye(core.n_agents)
        out = model.lexmin(costs)
        assert out.status == OPTIMAL
        assert np.abs(out.x - cold_lexicographic_allocation(core)).max() <= 1e-12
        caps = dense(model.program.a_ge)[prog.b_ge.size :]
        assert np.array_equal(caps, -costs[:-1])  # one cap per cost but the last
        assert np.array_equal(highs_copy(model)[0][prog.b_eq.size + prog.b_ge.size :], caps)

    def test_row_generation_runs_until_nothing_is_violated(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            prog = random_program(rng, m=12)
            box = 2 * prog.n_vars  # random_program's box rows come first
            model = Model(replace(prog, a_ge=prog.a_ge[:box], b_ge=prog.b_ge[:box]))
            release = Release(prog.a_ge[box:], prog.b_ge[box:])
            out = model.lexmin([prog.objective], release)
            assert release.released >= 1
            assert release.calls == release.released + 1
            assert_same_answer(out, solve(prog))

    @pytest.mark.parametrize(
        "prog, status",
        [
            (LinearProgram.build([0.0, 0.0], a_ge=[[1.0, 0.0], [-1.0, 0.0]], b_ge=[1.0, 0.0]), INFEASIBLE),
            (LinearProgram.build([0.0, 0.0], a_ge=[[1.0, 0.0]], b_ge=[0.0]), UNBOUNDED),
        ],
    )
    def test_a_failed_cost_comes_back_at_once(self, prog, status):
        model = Model(prog)
        release = Release(np.zeros((0, 2)), [])
        out = model.lexmin([[0.0, 1.0], [1.0, 0.0]], release)
        assert out.status == status
        assert release.calls == 0
        assert model.program.b_ge.size == prog.b_ge.size  # no cap appended


def test_only_lp_appends_rows():
    package = Path(lp.__file__).parent
    callers = {
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_rows"
    }
    assert callers == {"lp.py"}
