from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from coalisure import lp
from coalisure.errors import LpError
from coalisure.lp import INFEASIBLE, OPTIMAL, TOL, UNBOUNDED, LinearProgram, feasible, solve

from oracles import enumerate_lp_vertices


class TestBasics:
    def test_min_above_threshold(self):
        out = solve(LinearProgram.build([1.0], a_ge=[[1.0]], b_ge=[3.0]))
        assert out.status == OPTIMAL
        assert out.x[0] == pytest.approx(3.0, abs=1e-9)
        assert out.objective == pytest.approx(3.0, abs=1e-9)

    def test_contradictory_constraints(self):
        out = solve(LinearProgram.build([0.0], a_ge=[[1.0], [-1.0]], b_ge=[1.0, 0.0]))
        assert out.status == INFEASIBLE

    def test_unbounded_direction(self):
        out = solve(LinearProgram.build([-1.0], a_ge=[[1.0]], b_ge=[0.0]))
        assert out.status == UNBOUNDED

    def test_feasibility_simplex(self):
        out = feasible(
            LinearProgram.build(
                [0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], lower_bounds=[0.0, 0.0]
            )
        )
        assert out.status == OPTIMAL
        assert out.x.sum() == pytest.approx(1.0, abs=1e-9)
        assert out.x.min() >= -1e-9

    def test_two_incompatible_equalities(self):
        out = feasible(LinearProgram.build([0.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]))
        assert out.status == INFEASIBLE

    def test_dimension_mismatch(self):
        with pytest.raises(LpError):
            LinearProgram.build([1.0, 2.0], a_ge=[[1.0]], b_ge=[0.0])

    def test_non_finite_input(self):
        with pytest.raises(LpError):
            LinearProgram.build([np.nan], a_ge=[[1.0]], b_ge=[0.0])

    def test_equality_only_system(self):
        out = feasible(
            LinearProgram.build([0.0, 0.0], a_eq=[[1.0, 0.0], [0.0, 1.0]], b_eq=[2.0, -3.0])
        )
        assert out.status == OPTIMAL
        assert out.x == pytest.approx([2.0, -3.0])


class TestRandomBoxes:
    def test_feasibility_inside_box(self):
        """Random boxes with known interiors: rejection sampling says the
        returned point must land inside."""
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            lo = rng.uniform(-5, 4, size=n)
            hi = lo + rng.uniform(0.1, 3.0, size=n)
            # box as general inequalities: x >= lo and -x >= -hi
            a_ge = np.vstack([np.eye(n), -np.eye(n)])
            b_ge = np.concatenate([lo, -hi])
            out = feasible(LinearProgram.build(np.zeros(n), a_ge=a_ge, b_ge=b_ge))
            assert out.status == OPTIMAL
            assert (out.x >= lo - 1e-9).all() and (out.x <= hi + 1e-9).all()


class TestVertexDuality:
    def test_objective_matches_best_vertex(self):
        """On bounded instances (<= 8 vars, <= 12 constraints) the optimum
        must equal the best enumerated basic feasible point."""
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 5))
            lo = rng.uniform(-2, 0, size=n)
            hi = lo + rng.uniform(0.5, 2.5, size=n)
            m_extra = int(rng.integers(0, max(1, 13 - 2 * n)))
            a_extra = rng.normal(size=(m_extra, n)).round(2)
            b_extra = (a_extra @ ((lo + hi) / 2) - rng.uniform(0.0, 1.0, size=m_extra)).round(2)
            a_ge = np.vstack([np.eye(n), -np.eye(n), a_extra])
            b_ge = np.concatenate([lo, -hi, b_extra])
            c = rng.normal(size=n).round(2)
            out = solve(LinearProgram.build(c, a_ge=a_ge, b_ge=b_ge))
            assert out.status == OPTIMAL  # the box midpoint is feasible
            verts = enumerate_lp_vertices(n, np.zeros((0, n)), [], a_ge, b_ge)
            assert verts, "bounded nonempty polytope must have vertices"
            best = min(float(c @ v) for v in verts)
            assert out.objective == pytest.approx(best, abs=1e-7)
            checked += 1


class TestResidualInvariant:
    def test_optimal_points_satisfy_constraints(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            m_eq = int(rng.integers(0, 2))
            m_ge = int(rng.integers(1, 8))
            a_eq = rng.normal(size=(m_eq, n))
            a_ge = rng.normal(size=(m_ge, n))
            x0 = rng.normal(size=n)  # plant a feasible point
            b_eq = a_eq @ x0
            b_ge = a_ge @ x0 - rng.uniform(0, 1, size=m_ge)
            c = rng.normal(size=n)
            lb = np.where(rng.random(n) < 0.4, x0 - rng.uniform(0, 2, size=n), -np.inf)
            out = solve(LinearProgram.build(c, a_eq, b_eq, a_ge, b_ge, lb))
            if out.status != OPTIMAL:
                assert out.status == UNBOUNDED
                continue
            assert np.abs(a_eq @ out.x - b_eq).max(initial=0.0) <= TOL
            assert (a_ge @ out.x - b_ge).min(initial=0.0) >= -TOL
            finite = np.isfinite(lb)
            if finite.any():
                assert (out.x[finite] - lb[finite]).min() >= -TOL

    def test_slack_report(self):
        out = solve(
            LinearProgram.build([1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[4.0], a_ge=[[1.0, 0.0]], b_ge=[1.0])
        )
        assert out.slack_eq == pytest.approx([0.0], abs=1e-9)
        assert out.slack_ge[0] == pytest.approx(0.0, abs=1e-9)


class TestDeterminism:
    def test_repeat_solves_identical(self):
        rng = np.random.default_rng(31)
        a_ge = rng.normal(size=(10, 4))
        b_ge = a_ge @ rng.normal(size=4) - 1.0
        c = rng.normal(size=4)
        lp1 = LinearProgram.build(c, a_ge=a_ge, b_ge=b_ge)
        first = solve(lp1)
        second = solve(lp1)
        assert first.status == second.status
        assert (first.x == second.x).all()
        assert first.objective == second.objective


class TestStatusMapping:
    def test_infeasible_with_unbounded_ray(self):
        # x0 can fall without limit, but 1 <= x1 <= 0 has no solution
        out = solve(
            LinearProgram.build([1.0, 0.0], a_ge=[[0.0, 1.0], [0.0, -1.0]], b_ge=[1.0, 0.0])
        )
        assert out.status == INFEASIBLE
        assert out.x is None

    def test_unbounded_with_equality_row(self):
        out = solve(
            LinearProgram.build(
                [-1.0, 0.0], a_eq=[[1.0, -1.0]], b_eq=[1.0], lower_bounds=[0.0, 0.0]
            )
        )
        assert out.status == UNBOUNDED
        assert out.x is None

    @pytest.mark.parametrize("presolve", ["on", "off"])
    def test_undecided_status_is_settled(self, monkeypatch, presolve):
        """With HiGHS allowed to stop at 'unbounded or infeasible', the
        zero-objective re-solve still gives each program its verdict."""
        opts = lp._options()
        opts.allow_unbounded_or_infeasible = True
        opts.presolve = presolve
        monkeypatch.setattr(lp, "_OPTIONS", opts)
        cases = [
            (LinearProgram.build([-1.0], a_ge=[[1.0]], b_ge=[0.0]), UNBOUNDED),
            (LinearProgram.build([-1.0, 0.0], a_eq=[[0.0, 1.0]], b_eq=[1.0]), UNBOUNDED),
            (
                LinearProgram.build(
                    [-1.0, 0.0], a_ge=[[0.0, 1.0], [0.0, -1.0]], b_ge=[1.0, 0.0]
                ),
                INFEASIBLE,
            ),
            (
                LinearProgram.build(
                    [-1.0, -1.0],
                    a_ge=[[1.0, -1.0], [-1.0, 1.0]],
                    b_ge=[1.0, 0.0],
                    lower_bounds=[0.0, 0.0],
                ),
                INFEASIBLE,
            ),
            (LinearProgram.build([1.0], a_ge=[[1.0]], b_ge=[3.0]), OPTIMAL),
        ]
        for prog, verdict in cases:
            assert solve(prog).status == verdict


def _degenerate_programs():
    """Bounded, feasible programs with integer rows and 0/1 costs, so that
    ties between optimal vertices are likely."""
    rng = np.random.default_rng(77)
    progs = []
    for _ in range(6):
        n = 12
        a_ge = rng.integers(-2, 3, size=(30, n)).astype(float)
        b_ge = a_ge @ np.full(n, 1.0 / n) - rng.integers(0, 2, size=30)
        c = rng.integers(0, 2, size=n).astype(float)
        progs.append(
            LinearProgram.build(
                c, a_eq=[np.ones(n)], b_eq=[1.0], a_ge=a_ge, b_ge=b_ge,
                lower_bounds=np.full(n, -5.0),
            )
        )
    return progs


class TestBitIdenticalRepeats:
    def test_serial_repeats(self):
        for prog in _degenerate_programs():
            first = solve(prog)
            assert first.status == OPTIMAL
            for _ in range(3):
                again = solve(prog)
                assert again.x.tobytes() == first.x.tobytes()
                assert again.objective == first.objective

    def test_thread_pool_repeats(self):
        progs = _degenerate_programs()
        reference = [solve(p).x.tobytes() for p in progs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve, p) for _ in range(5) for p in progs]
            results = [f.result(timeout=60) for f in futures]
        for i, out in enumerate(results):
            assert out.x.tobytes() == reference[i % len(progs)]
