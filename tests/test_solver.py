import numpy as np
import pytest

from helpers import random_gridfn, random_quadratic_problem
from tsvar.calculus import GridFunction, from_callable
from tsvar.expr import parse
from tsvar.solver import (
    InfeasibleConstraintError,
    SolverConfig,
    consistency_solve,
    is_affine_class,
    probe_extremal_type,
    solve,
    solve_isoperimetric,
)
from tsvar.timescale import from_points, q_scale, uniform
from tsvar.variational import (
    IsoperimetricConstraint,
    VariationalProblem,
    functional_gradient,
)

CFG = SolverConfig(seed=42)


def quad_double(ts, alpha, beta):
    return VariationalProblem(ts, parse("v^2"), parse("v^2"), alpha, beta)


def product_problem(ts):
    return VariationalProblem(ts, parse("t*v"), parse("v^2"), 0.0, 1.0)


def iso_problem(M):
    ts = uniform(0, M, M + 1)
    c = IsoperimetricConstraint(parse("t*v"), parse(f"1/{M}"), 1.0)
    return VariationalProblem(ts, parse("v^2"), parse("v^2 + v"), 0.0, float(M), c)


class TestConfig:
    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(multistarts=0)
        SolverConfig(seed=0)  # seed zero is fine


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = random_quadratic_problem(rng)
            ts = p.scale
            y = random_gridfn(rng, ts).values
            val, grad = functional_gradient(ts, p.L_delta, p.L_nabla, y)
            h = 1e-6
            for j in rng.choice(len(ts), size=min(4, len(ts)), replace=False):
                up, dn = y.copy(), y.copy()
                up[j] += h
                dn[j] -= h
                fd = (
                    functional_gradient(ts, p.L_delta, p.L_nabla, up)[0]
                    - functional_gradient(ts, p.L_delta, p.L_nabla, dn)[0]
                ) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-5 * (1.0 + abs(fd))


class TestDirectSolve:
    def test_straight_line_on_integer_scale(self):
        ts = uniform(0, 4, 5)
        rep = solve(quad_double(ts, 0.0, 4.0), CFG)
        assert rep.converged
        assert np.max(np.abs(rep.trajectory.values - ts.points)) <= 1e-7
        assert rep.el_defect_1 <= 1e-8 and rep.el_defect_2 <= 1e-8

    def test_straight_line_on_geometric_scale(self):
        ts = q_scale(2, 0, 4)
        rep = solve(quad_double(ts, 1.0, 16.0), CFG)
        assert rep.converged
        assert np.max(np.abs(rep.trajectory.values - ts.points)) <= 1e-7
        assert rep.el_defect_1 <= 1e-8 and rep.el_defect_2 <= 1e-8

    def test_free_endpoint_finds_zero_minimizer(self):
        ts = uniform(0, 2, 3)
        p = VariationalProblem(ts, parse("v^2"), parse("v^2"), 0.0, None)
        rep = solve(p, CFG)
        assert rep.converged
        assert np.max(np.abs(rep.trajectory.values)) <= 1e-7
        assert rep.J <= 1e-14
        assert abs(rep.bc_residual_b) <= 1e-8

    def test_both_endpoints_free(self):
        # tracking cost pins the shape; the solution is the strictly convex
        # quadratic minimum y = (1/3, 1/3, 2/3)
        ts = uniform(0, 2, 3)
        p = VariationalProblem(ts, parse("(y - t)^2 + v^2"), parse("0.5"), None, None)
        rep = solve(p, CFG)
        assert rep.converged
        np.testing.assert_allclose(
            rep.trajectory.values, [1 / 3, 1 / 3, 2 / 3], atol=1e-7
        )
        assert abs(rep.bc_residual_a) <= 1e-8
        assert abs(rep.bc_residual_b) <= 1e-8

    def test_unbounded_product_reports_no_convergence(self):
        # the discretized linear-times-quadratic functional has no interior
        # stationary point on a uniform grid, so an honest descent cannot
        # converge; it must terminate and say so
        rep = solve(product_problem(uniform(0, 1, 21)), CFG)
        assert not rep.converged
        # step expansion reaches the -1e100 cut-off in a few steps
        assert rep.J < -1e100 and rep.iterations < 50

    def test_constrained_problem_rejected(self):
        with pytest.raises(ValueError):
            solve(iso_problem(3), CFG)

    def test_everywhere_undefined_objective_raises(self):
        # the state slot is forced negative by the boundary values, so the
        # logarithm fails at every admissible start
        from tsvar.expr import DomainViolation

        ts = uniform(0, 2, 3)
        p = VariationalProblem(ts, parse("ln(y)"), parse("v^2"), -1.0, -2.0)
        with pytest.raises(DomainViolation):
            solve(p, CFG)

    def test_deterministic_under_seed(self):
        ts = uniform(0, 4, 5)
        p = quad_double(ts, 0.0, 4.0)
        r1 = solve(p, SolverConfig(seed=7))
        r2 = solve(p, SolverConfig(seed=7))
        np.testing.assert_array_equal(r1.trajectory.values, r2.trajectory.values)
        assert (r1.J, r1.iterations, r1.multistart_index) == (
            r2.J,
            r2.iterations,
            r2.multistart_index,
        )


class TestConsistencySolve:
    def test_affine_class_detection(self):
        assert is_affine_class(product_problem(uniform(0, 1, 11)))
        assert is_affine_class(quad_double(uniform(0, 1, 11), 0.0, 1.0))
        ts = uniform(0, 1, 11)
        assert not is_affine_class(
            VariationalProblem(ts, parse("y^2 + v^2"), parse("v^2"), 0.0, 1.0)
        )
        assert not is_affine_class(
            VariationalProblem(ts, parse("v^3"), parse("v^2"), 0.0, 1.0)
        )

    def test_straight_line_family(self):
        # for the quadratic double functional the trajectory is the straight
        # line whatever (A, B), so the system is affine with a single root at
        # the line's own functional values
        ts = from_points([0, 1, 2])
        roots = consistency_solve(quad_double(ts, 0.0, 2.0), CFG)
        assert len(roots) == 1
        assert roots[0].A == pytest.approx(2.0, abs=1e-9)
        assert roots[0].B == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(roots[0].trajectory.values, ts.points, atol=1e-10)

    def test_three_point_product_has_no_roots(self):
        roots = consistency_solve(product_problem(from_points([0, 0.5, 1])), CFG)
        assert roots == []

    def test_uniform_grid_product_has_no_exact_roots(self):
        # the continuum solution is a double root of the limiting system and
        # splits into a complex pair under discretization: no real roots
        roots = consistency_solve(product_problem(uniform(0, 1, 11)), CFG)
        assert roots == []

    def test_deterministic_under_seed(self):
        p = product_problem(from_points([0, 0.5, 1]))
        a = consistency_solve(p, SolverConfig(seed=3))
        b = consistency_solve(p, SolverConfig(seed=3))
        assert len(a) == len(b) == 0

    def test_non_affine_rejected(self):
        ts = uniform(0, 1, 11)
        p = VariationalProblem(ts, parse("y*v"), parse("v^2"), 0.0, 1.0)
        with pytest.raises(ValueError):
            consistency_solve(p, CFG)

    def test_free_endpoint_rejected(self):
        ts = uniform(0, 1, 11)
        p = VariationalProblem(ts, parse("t*v"), parse("v^2"), 0.0, None)
        with pytest.raises(ValueError):
            consistency_solve(p, CFG)


class TestIsoperimetricSolve:
    def test_m2_reduces_to_identity_with_zero_multiplier(self):
        rep = solve_isoperimetric(iso_problem(2), CFG)
        assert rep.converged
        np.testing.assert_allclose(rep.trajectory.values, [0.0, 1.0, 2.0], atol=1e-8)
        assert abs(rep.lam) <= 1e-6
        assert rep.constraint_error <= 1e-8

    @pytest.mark.parametrize("M", [3, 4])
    def test_closed_form_recovered(self, M):
        rep = solve_isoperimetric(iso_problem(M), CFG)
        t = np.arange(M + 1, dtype=float)
        closed = (4 * M**2 - 7 * M - 3 * M * t + 6 * t) * t / (M * (M - 1))
        assert rep.converged
        assert np.max(np.abs(rep.trajectory.values - closed)) <= 1e-6
        assert rep.constraint_error <= 1e-8
        lam_expected = -12 * (rep.J_nabla + rep.J_delta) * (M - 2) / (M * (M - 1))
        assert abs(rep.lam - lam_expected) <= 1e-6
        assert rep.lambda0 == 1.0
        assert rep.el_defect_1 <= 1e-7 and rep.el_defect_2 <= 1e-7

    def test_redundant_constraint_takes_abnormal_branch(self):
        ts = uniform(0, 2, 3)
        c = IsoperimetricConstraint(parse("v"), parse("0.5"), 2.0)
        p = VariationalProblem(ts, parse("v^2"), parse("v^2"), 0.0, 2.0, c)
        rep = solve_isoperimetric(p, CFG)
        assert rep.converged
        assert rep.lambda0 == 0.0 and rep.lam == 1.0
        assert rep.constraint_error <= 1e-10

    def test_infeasible_constraint_raises(self):
        ts = uniform(0, 2, 3)
        c = IsoperimetricConstraint(parse("v"), parse("0.5"), 5.0)
        p = VariationalProblem(ts, parse("v^2"), parse("v^2"), 0.0, 2.0, c)
        with pytest.raises(InfeasibleConstraintError):
            solve_isoperimetric(p, CFG)

    def test_deterministic_under_seed(self):
        p = iso_problem(3)
        r1 = solve_isoperimetric(p, SolverConfig(seed=5))
        r2 = solve_isoperimetric(p, SolverConfig(seed=5))
        np.testing.assert_array_equal(r1.trajectory.values, r2.trajectory.values)
        assert r1.lam == r2.lam and r1.J == r2.J

    def test_free_endpoint_combination_flagged_as_extension(self):
        ts = uniform(0, 2, 3)
        c = IsoperimetricConstraint(parse("v"), parse("0.5"), 2.0)
        p = VariationalProblem(ts, parse("v^2"), parse("v^2"), 0.0, None, c)
        rep = solve_isoperimetric(p, CFG)
        assert rep.extension

    def test_unconstrained_problem_rejected(self):
        ts = uniform(0, 2, 3)
        with pytest.raises(ValueError):
            solve_isoperimetric(quad_double(ts, 0.0, 2.0), CFG)


class TestProbe:
    def test_straight_line_minimum(self):
        ts = uniform(0, 4, 5)
        p = quad_double(ts, 0.0, 4.0)
        rep = solve(p, CFG)
        assert probe_extremal_type(p, rep.trajectory, CFG) == "local-min-indication"

    def test_free_endpoint_zero_minimum(self):
        ts = uniform(0, 2, 3)
        p = VariationalProblem(ts, parse("v^2"), parse("v^2"), 0.0, None)
        rep = solve(p, CFG)
        assert probe_extremal_type(p, rep.trajectory, CFG) == "local-min-indication"

    def test_sign_indefinite_product(self):
        ts = uniform(0, 2, 3)
        p = VariationalProblem(ts, parse("v^2"), parse("-v^2"), 0.0, 2.0)
        y = GridFunction(ts, ts.points.copy())
        assert probe_extremal_type(p, y, CFG) in (
            "saddle-indication",
            "local-max-indication",
            "inconclusive",
        )

    def test_rejects_nonstationary_trajectory(self):
        ts = uniform(0, 3, 4)
        p = quad_double(ts, 0.0, 3.0)
        y = from_callable(ts, lambda t: t * t)
        with pytest.raises(ValueError):
            probe_extremal_type(p, y, CFG)


class TestStationarityInvariant:
    def test_converged_solves_have_constant_residuals(self):
        # discrete stationarity forces both integral residual forms constant
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 10:
            p = random_quadratic_problem(rng, coercive=True, nmax=9)
            rep = solve(p, SolverConfig(seed=checked))
            if not rep.converged:
                continue
            bound = 10 * CFG.grad_tol * (1.0 + abs(rep.J))
            assert rep.el_defect_1 <= bound and rep.el_defect_2 <= bound
            checked += 1
