import dataclasses
import gc
import time
import weakref
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

import helpers
from helpers import (
    count_evaluations,
    dense,
    random_gridfn,
    random_integrand,
    random_quadratic_problem,
    run_alone,
)
from tsvar import cli
from tsvar import expr as ex
from tsvar import solver as so
from tsvar import variational as va
from tsvar.calculus import GridFunction, from_callable
from tsvar.expr import parse
from tsvar.solver import (
    InfeasibleConstraintError,
    SolverConfig,
    consistency_scan,
    consistency_solve,
    is_affine_class,
    probe_extremal_type,
    solve,
    solve_auto,
    solve_isoperimetric,
)
from tsvar.timescale import from_points, q_scale, uniform
from tsvar.variational import (
    IsoperimetricConstraint,
    VariationalProblem,
    eval_J_delta,
    eval_J_nabla,
    functional_gradient,
)

CFG = SolverConfig(seed=42)


def quad_double(ts, alpha, beta):
    return VariationalProblem(ts, parse("v^2"), parse("v^2"), alpha, beta)


def product_problem(ts):
    return VariationalProblem(ts, parse("t*v"), parse("v^2"), 0.0, 1.0)


def assert_roots_solve_system(p, roots):
    for r in roots:
        jn, jd = eval_J_nabla(p, r.trajectory), eval_J_delta(p, r.trajectory)
        assert max(abs(jn - r.A), abs(jd - r.B)) <= 1e-10 * (1.0 + max(abs(r.A), abs(r.B)))


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

    @pytest.mark.parametrize("field", [dict(grad_tol=float("nan")), dict(grad_tol=float("inf")),
                                       dict(seed=-1)])
    def test_non_finite_tolerance_and_negative_seed_rejected(self, field):
        with pytest.raises(ValueError):
            SolverConfig(**field)


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
        assert rep.message == "objective unbounded below; best iterate"

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


def bundled_affine_problems():
    """The bundled problems that ``consistency_scan`` solves, by name."""
    out = {}
    for f in sorted(resources.files("tsvar").joinpath("problems").iterdir()):
        if f.name.endswith(".problem"):
            p = cli.parse_problem_text(f.read_text(encoding="utf-8"))[0]
            if p.constraint is None and None not in (p.bc_a, p.bc_b) and is_affine_class(p):
                out[f.name[: -len(".problem")]] = p
    return out


def tangent_problem(shift):
    """t*v + c / v^2 on {0, 1/2, 1}, with c = c* + shift (see
    ``test_tangent_and_close_roots``)."""
    c = (np.sqrt(3.0) - 1.0) / 4.0 + shift
    return VariationalProblem(
        from_points([0, 0.5, 1]), parse(f"t*v + {float(c)!r}"), parse("v^2"), 0.0, 1.0
    )


def near_zero_problem():
    """Three sign changes in one root search: a root at (0.0, 0.3125), on
    the angle 0 itself, whose bracket [0, h] still spans h*2^-64 when the
    64-bit cap ends the search, and two others."""
    return VariationalProblem(
        from_points([0, 0.25, 0.5, 1]), parse("t*v"), parse("v^2 - v"), 0.0, 1.0
    )


def scan(p):
    """The angle scan of ``consistency_scan``, also where the cubic of the
    proportional class would take its place."""
    return so._scan(p, so._affine_pieces(p))


def reference_scan(p):
    """``scan(p)`` by the one-step reference searches."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(so, "_root_search", helpers.bisect)
        m.setattr(so, "_min_search", helpers.golden_min)
        return scan(p)


def assert_tangent_roots(shift, solver):
    """The roots and near miss that ``solver`` reports for
    ``tangent_problem(shift)``.  t*v + c / v^2 on {0, 1/2, 1}: with
    u = A/(8B) the system reads 3u^2 - (2 + 8c)u + 1 = 0, A = 1 + u^2,
    B = (1 - u)/4 + c, with a double root u = 1/sqrt(3) at
    c* = (sqrt(3) - 1)/4.  Just above c* both roots lie inside one grid cell
    of the scan, where G keeps its sign at the grid angles; just below, there
    is no root but a near miss."""
    c = (np.sqrt(3.0) - 1.0) / 4.0 + shift
    p = tangent_problem(shift)
    roots, near = solver(p)
    assert_roots_solve_system(p, roots)
    if shift == 0.0:  # rounding leaves a double root or a pair within 1e-8
        assert len(roots) == 1
        assert abs(roots[0].A - 4 / 3) + abs(roots[0].B - np.sqrt(3) / 6) <= 1e-7
    elif shift > 0.0:
        disc = np.sqrt((2 + 8 * c) ** 2 - 12)
        u = np.array([(2 + 8 * c - disc) / 6, (2 + 8 * c + disc) / 6])
        want = sorted(zip(1 + u * u, (1 - u) / 4 + c))
        assert len(roots) == 2
        np.testing.assert_allclose([(r.A, r.B) for r in roots], want, atol=1e-10)
    else:
        assert roots == []
        assert near.gap < 1e-5
        assert abs(near.A - 4 / 3) + abs(near.B - np.sqrt(3) / 6) <= 1e-5


def assert_sign_changes_at_adjacent_floats(G, x):
    """Each x is the left end of a pair of adjacent floats across which G
    changes sign, as the searches read signs: G <= 0 or not (NaN, at a
    pole, is not)."""
    right = np.nextafter(x, np.inf)
    np.testing.assert_array_equal(G(x) <= 0.0, ~(G(right) <= 0.0))


def ray_values(p):
    pieces = so._affine_pieces(p)
    return lambda theta: so._on_rays(p, pieces, theta)[0]


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

    def test_pole_at_b_zero_is_not_reported(self):
        # G changes sign between the grid angles on either side of B = 0,
        # where y_{A,B} degenerates.  Refined to that pole, (A, B) is about
        # (1.6e22, 1.6e10) and within the relative residual bound; it is
        # rejected because |G| grew under refinement
        p = product_problem(from_points([0, 0.5, 1]))
        h = np.pi / (so._THETA_POINTS - 1)
        g, _, _ = so._on_rays(p, so._affine_pieces(p), np.pi / 2 + np.array([-h / 2, h / 2]))
        assert g[0] < -10.0 and g[1] > 10.0
        roots, near = scan(p)
        assert roots == []
        assert near.gap == pytest.approx(0.17879, abs=1e-5)
        assert abs(near.theta - np.pi / 2) > 0.1

    @pytest.mark.parametrize(
        "points, Ld, Ln, b, want",
        [
            # references from the seeded Newton search this scan replaced
            ([0, 0.2, 1, 1.3], "v^2 + t*v", "v^2 - 2*v", 1.0, (-1.031304, 1.50627)),
            (np.linspace(0, 1, 6), "v^2 + 3*t*v", "(1+t)*v^2 - v", 2.0, (4.196377, 6.223671)),
        ],
    )
    def test_single_root_is_found_exactly_and_seed_free(self, points, Ld, Ln, b, want):
        p = VariationalProblem(from_points(points), parse(Ld), parse(Ln), 0.0, b)
        roots = consistency_solve(p, SolverConfig(seed=0))
        assert len(roots) == 1
        assert roots[0].A == pytest.approx(want[0], abs=1e-6)
        assert roots[0].B == pytest.approx(want[1], abs=1e-5)
        assert_roots_solve_system(p, roots)
        for seed in (3, 77):
            other = consistency_solve(p, SolverConfig(seed=seed))
            assert [(r.A, r.B) for r in other] == [(r.A, r.B) for r in roots]
            np.testing.assert_array_equal(other[0].trajectory.values, roots[0].trajectory.values)

    @pytest.mark.parametrize("shift", [0.0, 1e-6, 1e-9, -1e-6])
    def test_tangent_and_close_roots(self, shift):
        # the cubic's near-double root: a complex pair with a tiny imaginary
        # part at shift 0, whose real part is the root
        assert_tangent_roots(shift, consistency_scan)

    def test_undefined_integrand_drops_only_its_row(self):
        # a DomainViolation in one row of a block leaves the other rows
        ts = from_points([0, 1, 2])
        p = VariationalProblem(ts, parse("ln(v)"), parse("v^2"), 0.0, 2.0)
        d = np.array([[1.0, 2.0], [-1.0, 1.0], [3.0, 0.5], [2.0, -2.0]])
        y = np.concatenate([np.zeros((4, 1)), np.cumsum(d, axis=1)], axis=1)
        jn, jd = so._integrals(p, y, d)
        np.testing.assert_array_equal(np.isnan(jd), [False, True, False, True])
        np.testing.assert_allclose(jd[[0, 2]], [np.log(2.0), np.log(1.5)], rtol=1e-15)
        np.testing.assert_allclose(jn[[0, 2]], [5.0, 9.25], rtol=1e-15)
        for i in (0, 2):
            alone = so._integrals(p, y[i : i + 1], d[i : i + 1])
            np.testing.assert_array_equal(alone, [jn[i : i + 1], jd[i : i + 1]], strict=True)

    @pytest.mark.parametrize("case, kernel_runs", [("ex1", 4), ("ex1_q", 4), ("product_3pt", 3)])
    def test_consistency_cases_sample_through_the_pair_kernel(self, monkeypatch, case, kernel_runs):
        # the quadratic pieces, each call of the ray integrals and the report
        # are one kernel run of the integrand pair; no integrand's own
        # program runs
        manifest = cli.load_bundled_manifest()
        (rows, ok), runs, n = count_evaluations(
            monkeypatch, lambda: cli.run_verify_cases(manifest, SolverConfig(seed=0), case))
        assert ok and len(runs) == kernel_runs and n == 0

    def test_g_has_no_pole_where_one_slope_denominator_vanishes(self):
        # at theta_i = atan2(-qn_i, qd_i) the denominator A*qd_i + B*qn_i of
        # interval i vanishes, but then s1 = sum(mu/denominator) grows without
        # bound, C tends to A*pd_i + B*pn_i and every slope stays finite.  The
        # poles of G are the zeros of s1, which lie between the theta_i
        ts = from_points([0, 0.4, 1.1, 1.5, 2.3, 3.0])
        p = VariationalProblem(ts, parse("(1 + t)*v^2 + t*v"), parse("(2 - t*t/3)*v^2 - v"),
                               0.5, 1.5)
        pieces = so._affine_pieces(p)
        _, _, qd, _, _, qn = pieces
        assert so._proportional(qd, qn) is None
        theta = np.mod(np.arctan2(-qn, qd), np.pi)
        left, right = (so._on_rays(p, pieces, theta + h)[0] for h in (-1e-9, 1e-9))
        np.testing.assert_allclose(left, right, rtol=1e-7)
        mu = ts.mu_values[:-1]
        for zero in (0.19013, 2.11082, 2.48128, 2.81251):
            x = zero + np.array([-1e-4, 1e-4])
            s1 = np.sum(mu / (np.sin(x)[:, None] * qd + np.cos(x)[:, None] * qn), axis=1)
            assert s1[0] * s1[1] < 0.0 and np.min(np.abs(theta - zero)) > 1e-2
            assert np.all(np.abs(so._on_rays(p, pieces, x)[0]) >= 8e5)

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


class TestLookaheadSearch:
    """Multisection samples many points of every bracket per call of G.
    Checked against the one-step bisection and golden-section references in
    ``helpers``: the same roots up to rounding, in fewer calls."""

    # the bundled product_3pt is the problem of test_pole_at_b_zero_is_not_reported
    @pytest.mark.parametrize(
        "name, p",
        list(bundled_affine_problems().items())
        + [(f"tangent{s}", tangent_problem(s)) for s in (0.0, 1e-6, 1e-9, -1e-6)]
        + [("near_zero", near_zero_problem())],
    )
    def test_scan_matches_one_step_searches(self, name, p):
        roots, _ = scan(p)
        want = reference_scan(p)[0]
        assert len(roots) == len(want)
        assert_roots_solve_system(p, roots)
        if name == "tangent0.0":  # a double root is fixed only to about sqrt(eps)
            assert abs(roots[0].A - 4 / 3) <= 1e-7
            return
        # G is nearly flat at the close pair 1e-9 above the tangent, so
        # rounding in G moves its sign changes further than at simple roots
        tol = 1e-11 if name == "tangent1e-09" else 1e-12
        for r, w in zip(roots, want):
            assert max(abs(r.A - w.A), abs(r.B - w.B)) <= tol * max(abs(w.A), abs(w.B))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_scans_match_one_step_searches(self, seed):
        # 25 problems per seed: n up to 1001 for the first seed, up to 101
        # for the others, which keeps the four to a few seconds
        rng = np.random.default_rng(5100 + seed)
        sizes = []
        for _ in range(25):
            p = helpers.random_affine_problem(rng, nmax=1001 if seed == 0 else 101)
            sizes.append(len(p.scale))
            roots, _ = scan(p)
            assert len(roots) >= len(reference_scan(p)[0]), len(p.scale)
            assert_roots_solve_system(p, roots)
        assert min(sizes) <= 5 and max(sizes) >= (300 if seed == 0 else 50)

    def test_search_coverage(self, monkeypatch):
        # the near-zero problem refines three sign changes at once, 85 points
        # each (3*85 angles of 4 points fit 1024 samples); the one at the
        # angle 0 runs into the 64-bit cap, alone and 256 points a call for
        # its last three calls, and the other two end at adjacent floats
        p = near_zero_problem()
        seen = []
        real = so._root_search

        def search(G, a, b, neg_a, n):
            sizes = []
            out = real(lambda t: sizes.append(t.size) or G(t), a, b, neg_a, n)
            seen.append((a, b, out, sizes))
            return out

        monkeypatch.setattr(so, "_root_search", search)
        roots, _ = scan(p)
        ((a, b, out, sizes),) = seen
        assert sizes == [3 * 85] * 7 + [256] * 3
        assert out[0] == a[0] == 0.0
        assert_sign_changes_at_adjacent_floats(ray_values(p), out[1:])
        assert (roots[0].A, roots[0].B) == (0.0, 0.3125)

    @pytest.mark.parametrize("n", [3, 11, 101, 1001])
    def test_bisect_with_brackets_at_adjacent_floats(self, n):
        # the first and last brackets start at adjacent floats and are left
        # as they are; the sign change through the pole at B = 0, from a
        # grid cell and from a bracket 65 cells wide, ends at the one
        # adjacent pair with a sign change, where one-step bisection ends too
        p = product_problem(uniform(0, 1, n))
        G = ray_values(p)
        h = np.pi / (so._THETA_POINTS - 1)
        a = np.array([0.3, 1.2, (np.pi / 2) // h * h, 2.5])
        b = np.array([np.nextafter(0.3, 1.0), 1.6, a[2] + h, np.nextafter(2.5, 3.0)])
        neg_a = G(a) <= 0.0
        got = so._root_search(G, a, b, neg_a, n)
        assert (got[0], got[3]) == (a[0], a[3])
        assert_sign_changes_at_adjacent_floats(G, got[1:3])
        want = helpers.bisect(G, a, b, neg_a, n)
        np.testing.assert_array_equal(got[1:3], want[1:3], strict=True)

    @pytest.mark.parametrize("n", [3, 11, 1001])
    def test_golden_min_on_several_brackets(self, n):
        # the scan's own minimum brackets, and three wide ones on which
        # sign*G falls towards an end
        p = product_problem(uniform(0, 1, n))
        seen = []
        real = so._min_search
        with pytest.MonkeyPatch.context() as m:
            m.setattr(so, "_min_search", lambda *args: seen.append(args[1:4]) or real(*args))
            scan(p)
        ((sign, lo, hi),) = seen
        assert lo.size >= 1
        G = ray_values(p)
        sign = np.concatenate([sign, [1.0, -1.0, -1.0]])
        lo = np.concatenate([lo, [0.1, 1.0, 2.0]])
        hi = np.concatenate([hi, [0.4, 1.2, 2.5]])
        x, f = so._min_search(G, sign, lo, hi, n)
        want = helpers.golden_min(G, sign, lo, hi, n)[1]
        assert np.all(f <= want + 1e-15 * np.abs(want))
        np.testing.assert_array_equal(sign * G(x), f, strict=True)
        assert np.all((lo < x) & (x < hi))

    @pytest.mark.parametrize("n, samples", [(101, 138), (1001, 110)])
    def test_min_search_samples_each_angle_once(self, monkeypatch, n, samples):
        # the best sample of a call is the centre of the cells it keeps, which
        # the next call's middle point hits again when its k is odd: sampled
        # twice, the two searches took 170 and 162 samples, 144 and 114
        # distinct
        seen = []
        real = so._min_search

        def search(G, *args):
            return real(lambda t: seen.append(t.copy()) or G(t), *args)

        monkeypatch.setattr(so, "_min_search", search)
        scan(product_problem(uniform(0, 1, n)))
        theta = np.concatenate(seen)
        assert theta.size == samples and np.unique(theta).size == theta.size

    @pytest.mark.parametrize("seed", range(2))
    def test_G_is_batch_invariant(self, seed):
        # G at an angle has the same bits alone, in a batch of 2, in a batch
        # of 63 and inside the scan's grid of 513 angles
        rng = np.random.default_rng(5200 + seed)
        problems = [helpers.random_affine_problem(rng) for _ in range(4)]
        if seed == 0:
            problems += list(bundled_affine_problems().values())
        h = np.pi / (so._THETA_POINTS - 1)
        theta = h * np.arange(-1, so._THETA_POINTS)
        for p in problems:
            G = ray_values(p)
            grid = G(theta)
            alone = np.concatenate([G(theta[i : i + 1]) for i in range(theta.size)])
            pairs = np.concatenate([G(theta[i : i + 2]) for i in range(0, theta.size, 2)])
            batches = np.concatenate([G(theta[i : i + 63]) for i in range(0, theta.size, 63)])
            for other in (alone, pairs, batches):
                np.testing.assert_array_equal(other, grid, strict=True)

    @staticmethod
    def count_rays(monkeypatch, p):
        calls = []
        real = so._on_rays
        monkeypatch.setattr(so, "_on_rays", lambda *args: calls.append(0) or real(*args))
        scan(p)
        return len(calls)

    @pytest.mark.parametrize("name, most", [("ex1", 9), ("ex1_q", 9), ("product_3pt", 15)])
    def test_bundled_scans_call_G_rarely(self, monkeypatch, name, most):
        # one call per step took 48, 48 and 89 calls; the searches of the
        # decision-tree design took 9, 9 and 15
        assert self.count_rays(monkeypatch, bundled_affine_problems()[name]) <= most

    def test_fine_grid_scan_calls_G_no_more_than_one_step_searches(self, monkeypatch):
        # at n = 1001 one-step refinement took 88 calls
        assert self.count_rays(monkeypatch, product_problem(uniform(0, 1, 1001))) <= 88

    @pytest.mark.parametrize(
        "seed, index, pair",
        [
            (9000, 24, [(0.58900, -0.27523), (0.59092, -0.27492)]),
            (9001, 124, [(0.41802, -0.64101), (0.41854, -0.64211)]),
        ],
    )
    def test_close_root_pair_inside_a_minimum_bracket(self, seed, index, pair):
        # both roots of each pair lie in one minimum bracket of the grid;
        # golden section converged to another minimum there and missed them
        rng = np.random.default_rng(seed)
        for _ in range(index + 1):
            p = helpers.random_affine_problem(rng, nmax=1001)
        roots, _ = consistency_scan(p)
        assert_roots_solve_system(p, roots)
        found = np.array([(r.A, r.B) for r in roots])
        for A, B in pair:
            assert np.min(np.hypot(found[:, 0] - A, found[:, 1] - B)) <= 1e-5


    @pytest.mark.parametrize("shift", [0.0, 1e-6, 1e-9, -1e-6])
    def test_scan_tangent_and_close_roots(self, shift):
        assert_tangent_roots(shift, scan)

    def test_every_sign_change_cell_of_a_crowded_minimum_bracket(self):
        # one minimum bracket of the grid holds three dips of G through zero
        # between poles; its searches' samples show two of them, four sign
        # changes, and each sign-change cell is refined.  Splitting at the
        # minimum alone found one root of each of the two dips: multisection
        # reported the first pair below and golden section the second
        rng = np.random.default_rng(9000)
        for _ in range(77):
            p = helpers.random_affine_problem(rng, nmax=1001)
        assert len(p.scale) == 857
        assert so._proportional(*so._affine_pieces(p)[2::3]) is None
        roots, _ = consistency_scan(p)
        assert_roots_solve_system(p, roots)
        found = np.array([(r.A, r.B) for r in roots])
        for A, B in [(0.22782, -15.1087), (0.22959, -11.6286)]:
            assert np.min(np.hypot(found[:, 0] - A, found[:, 1] - B)) <= 1e-4


def proportional_draws():
    """The random problems of seeds 9000 and 9001 (160 each, up to 1001
    points) whose curvatures are proportional, by (seed, draw)."""
    out = {}
    for seed in (9000, 9001):
        rng = np.random.default_rng(seed)
        for i in range(160):
            p = helpers.random_affine_problem(rng, nmax=1001)
            if so._proportional(*so._affine_pieces(p)[2::3]) is not None:
                out[seed, i] = p
    return out


class TestProportionalCubic:
    """Where (qd, qn) = (kappa, lam)*w on every interval, the system is one
    cubic in the position tau on the line kappa*a + lam*b = 1."""

    def test_cubic_reports_every_root_of_the_scan(self):
        # one more root only next to the pole ray, where the scan's grid
        # cell holds the pole too: |A| or |B| >= 306
        near_pole = {
            (9000, 112): (-1.11808, 447.431),
            (9000, 128): (0.62476, -8678.21),
            (9000, 130): (0.80385, -306.525),
            (9001, 50): (0.38994, 1185.10),
            (9001, 77): (-1095150.5, -0.14634),
        }
        draws = proportional_draws()
        assert len(draws) == 141
        extra = {}
        for key, p in draws.items():
            roots, near = consistency_scan(p)
            assert_roots_solve_system(p, roots)
            assert near is not None and np.isfinite(near.gap)
            got = np.array([(r.A, r.B) for r in roots]).reshape(-1, 2)
            want = scan(p)[0]
            for r in want:
                assert np.min(np.hypot(*(got - (r.A, r.B)).T)) <= 1e-11 * (
                    1.0 + max(abs(r.A), abs(r.B))
                ), key
            if len(roots) > len(want):
                (extra[key],) = [(r.A, r.B) for r in roots if max(abs(r.A), abs(r.B)) >= 306]
        assert extra.keys() == near_pole.keys()
        for key, (A, B) in near_pole.items():
            np.testing.assert_allclose(extra[key], (A, B), rtol=1e-5)

    @pytest.mark.parametrize("n", [3, 11, 101, 1001])
    def test_product_problem_has_no_root_and_a_finite_closest_approach(self, monkeypatch, n):
        # L_delta = t*v has no v^2: the leading coefficients of the cubic P
        # and of the quartic of the closest approach are exactly 0, and
        # numpy's polynomials drop them
        coefficients = []
        real = np.roots
        monkeypatch.setattr(np, "roots", lambda c: coefficients.append(c) or real(c))
        p = product_problem(uniform(0, 1, n))
        roots, near = consistency_scan(p)
        assert roots == []
        assert np.isfinite([near.theta, near.A, near.B, near.gap]).all()
        assert 0.0 <= near.theta < np.pi and near.gap > 0.0
        assert near.gap <= scan(p)[1].gap * (1.0 + 1e-12)
        P, R = (np.trim_zeros(c, "f") for c in coefficients)
        assert (len(P), len(R)) == (3, 4)

    def test_class_test_is_exact(self):
        # Dekker's product is error-free across the range the test admits
        rng = np.random.default_rng(31)
        x = rng.uniform(1.0, 2.0, 400) * 2.0 ** rng.integers(-480, 480, 400)
        y = rng.uniform(-2.0, 2.0, 400) * 2.0 ** rng.integers(-480, 480, 400)
        for xi, yi, pi, ei in zip(x, y, *so._two_product(x, y)):
            assert Fraction(pi) + Fraction(ei) == Fraction(xi) * Fraction(yi)
        w = np.array([3.0, 1.0])
        assert so._proportional(w, np.array([1.5, 0.5])) == (1.0, 0.5, w)
        # 3 * fl(1/3) rounds to 1, but is not 1
        assert so._proportional(w, np.array([1.0, 1.0 / 3.0])) is None
        assert so._proportional(np.zeros(2), np.zeros(2)) is None
        assert so._proportional(np.array([2.0, 0.0]), np.array([1.0, 0.0])) is None

    def test_curvature_moved_by_one_ulp_goes_to_the_scan(self, monkeypatch):
        p = bundled_affine_problems()["ex1"]
        pieces = so._affine_pieces(p)
        assert so._proportional(pieces[2], pieces[5]) is not None
        qn = pieces[5].copy()
        qn[1] = np.nextafter(qn[1], np.inf)
        moved = pieces[:5] + (qn,)
        assert so._proportional(pieces[2], qn) is None
        calls = []
        real = so._scan
        monkeypatch.setattr(so, "_affine_pieces", lambda p: moved)
        monkeypatch.setattr(so, "_scan", lambda *args: calls.append(args) or real(*args))
        roots, _ = consistency_scan(p)
        assert len(calls) == 1 and calls[0][1] is moved
        assert len(roots) == 1
        assert max(abs(roots[0].A - 4.0), abs(roots[0].B - 4.0)) <= 1e-12

    @pytest.mark.parametrize("name", ["ex1", "ex1_q", "product_3pt"])
    def test_bundled_problems_never_multisect(self, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("_multisect called")

        monkeypatch.setattr(so, "_multisect", refuse)
        roots, near = consistency_scan(bundled_affine_problems()[name])
        assert len(roots) == (0 if name == "product_3pt" else 1)
        assert near is not None

    def test_straight_line_root_is_exact(self):
        # tau = 0 is a root of P = 8*tau exactly, where J_nabla = J_delta = 4
        (root,) = consistency_scan(bundled_affine_problems()["ex1"])[0]
        assert (root.A, root.B) == (4.0, 4.0)
        np.testing.assert_array_equal(root.trajectory.values, [0.0, 1.0, 2.0, 3.0, 4.0])


class TestIsoperimetricSolve:
    def test_feasibility_phase_hands_over_to_kkt_newton(self, monkeypatch):
        # the straight line cannot be projected onto K = k, so the start first
        # minimizes (K - k)^2/2 and then reruns KKT Newton from where that ends;
        # the feasibility phase takes 6 steps, one of them ended by the
        # parabolic trial after the step expansion
        p = VariationalProblem(
            from_points([0.234, 0.791, 1.05]),
            parse("0.7529*v^2 + y^2 + t*v*y"), parse("0.4961*v^2 + y^2 + t*v*y"), 0.5, -0.5,
            IsoperimetricConstraint(parse("0.3671*v^2 + y^2 + t*v*y"),
                                    parse("cos(y - t*v) + 0.6676*v^3"), -2.855079),
        )
        runs = []
        real = so._newton

        def newton(*a):
            runs.append((yield from real(*a)))
            return runs[-1]

        monkeypatch.setattr(so, "_newton", newton)
        rep = solve_isoperimetric(p, SolverConfig(multistarts=1))
        assert [np.isfinite(at.f) for _, at, _ in runs] == [False, True, True]
        assert rep.converged and rep.message == "normal extremal"
        assert abs(rep.J - 1.43823802776) <= 1e-10
        assert rep.iterations == 6 and rep.constraint_error <= 1e-10

    def test_converged_start_stops_at_a_degenerate_stationary_point(self, monkeypatch):
        # J = (y(b) - y(a))^2 with both endpoints free, so its minima along
        # K = k are degenerate; once converged, a step that does not lower the
        # error ends the run instead of crawling to the step cap
        p = VariationalProblem(
            from_points([0.234, 0.791, 1.05]), parse("v"), parse("v"), None, None,
            IsoperimetricConstraint(parse("t*v"), parse("1/3"), 1.0),
        )
        runs = []
        real = so._newton

        def newton(*a):
            runs.append((yield from real(*a)))
            return runs[-1]

        monkeypatch.setattr(so, "_MAX_STEPS", 200)
        monkeypatch.setattr(so, "_newton", newton)
        rep = solve_isoperimetric(p, SolverConfig())
        assert rep.converged and len(runs) >= 8
        assert max(it for _, _, it in runs) < 200

    def test_m2_reduces_to_identity_with_zero_multiplier(self):
        rep = solve_isoperimetric(iso_problem(2), CFG)
        assert rep.converged
        np.testing.assert_allclose(rep.trajectory.values, [0.0, 1.0, 2.0], atol=1e-8)
        assert abs(rep.lam) <= 1e-6
        assert rep.constraint_error <= 1e-8

    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
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

    def test_same_extremal_from_any_seed(self):
        # the seed changes the random starts, not the reported extremal
        reps = [solve_isoperimetric(iso_problem(4), SolverConfig(seed=s)) for s in (0, 3, 77)]
        for rep in reps:
            assert rep.converged and rep.lambda0 == 1.0
            np.testing.assert_allclose(rep.trajectory.values, reps[0].trajectory.values,
                                       rtol=0, atol=1e-12)
            assert rep.J == pytest.approx(reps[0].J, rel=1e-14)
            assert rep.lam == pytest.approx(reps[0].lam, rel=1e-12)

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

    def test_unbounded_along_constraint_ends_quickly(self, monkeypatch):
        # J is unbounded below along K = k.  As |y| grows, K can no longer be
        # resolved to 1e-10 (its telescoping sums of v cancel), so a fixed
        # projection target rejected trial points at random and every start
        # crawled for hundreds of steps (over 100,000 evaluations in all).
        ts = uniform(0, 1, 8)
        c = IsoperimetricConstraint(parse("sin(y) + 0.564*v"), parse("1 + 0.357*v^2"),
                                    1.0750533211782773)
        p = VariationalProblem(ts, parse("sqrt(1+v^2) + 0.825*y^2*v^2"),
                               parse("cos(y - t*v) + 0.827*v^3"), 0.0, -0.1830535891600027, c)
        calls = []
        real = va.functional_gradient
        monkeypatch.setattr(va, "functional_gradient",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        rep = solve_isoperimetric(p, SolverConfig())
        assert calls and len(calls) <= 10000 and rep.iterations <= 20
        assert not rep.converged and rep.J < -1e100
        assert rep.message == "objective unbounded below along K = k; best iterate"

    def test_start_diverging_along_the_constraint_is_not_on_it(self):
        # the start runs off along K = k to y ~ -3e9, where J ~ -3.7e33 and
        # |K - k| ~ 1e13 is within its projection target (the rounding size
        # of K, which grows with |y|) but far beyond reach: it was reported
        # as a best iterate on the constraint, and is now unmet (exit 3).
        # Ending it early needs a divergence test; it still runs ~1,400 steps
        p = VariationalProblem(
            from_points([0.53271, 0.81186, 1.05835]),
            parse("ln(2 + y^2) * v^2 + 0.203 * y"), parse("sqrt(1 + v^2) + 0.4425 * y^2 * v^2"),
            None, None,
            IsoperimetricConstraint(parse("exp(0.8826 * v) + sin(y) * v"),
                                    parse("0.5654 * v^2 + y^2 + t * v * y"), 0.3),
        )
        with pytest.raises(InfeasibleConstraintError, match=r"best \|K - k\| = [0-9.]+e\+1[0-9]"):
            solve_isoperimetric(p, SolverConfig(multistarts=1))

    @pytest.mark.parametrize("M", [2, 3, 4])
    @pytest.mark.parametrize("free", ["a", "b"])
    def test_free_endpoint_residual_is_that_of_the_multipliers(self, M, free):
        # at the extremal the free endpoint's natural boundary condition holds
        # for lambda0*J - lambda*K; J's own residual was 0.97 on iso_M3 with b free
        p = cli.parse_problem_file(cli._bundled_path(f"iso_M{M}.problem"))[0]
        rep = solve_isoperimetric(dataclasses.replace(p, **{f"bc_{free}": None}), SolverConfig())
        assert rep.converged and rep.lambda0 == 1.0 and rep.extension
        assert abs(getattr(rep, f"bc_residual_{free}")) <= 1e-8 * (1.0 + abs(rep.J))

    def test_unconverged_starts_on_the_constraint_rank_by_gradient(self, monkeypatch):
        # two starts that end unconverged, each within its own projection
        # target: |K - k| below it is rounding noise, so the smaller
        # Lagrangian gradient decides, not the smaller |K - k|
        p = iso_problem(3)
        ends = [(1e-11, 1e-3), (5e-11, 1e-6)]  # (|K - k|, max|gradJ - lam*gradK|)

        def newton(fun, model, z0, *_):
            s = len(seen)
            seen.append(s)
            r, gn = ends[s]
            cp = so._Compiled(p, so._base_trajectory(p))
            first = (yield from cp.value_grad(z0, p.L_delta, p.L_nabla))[2]
            kfirst = (yield from cp.value_grad(z0, p.constraint.K_delta, p.constraint.K_nabla))[2]
            g = np.full(z0.size, gn)
            at = so._At(first.value, 1e3, z0, g, (-26.0, r, 1e-10, first, kfirst), (g, r))
            return z0, at, 7

        seen = []
        monkeypatch.setattr(so, "_newton", newton)
        rep = solve_isoperimetric(p, SolverConfig(multistarts=2))
        assert not rep.converged and rep.multistart_index == 1
        assert rep.constraint_error == 5e-11 and rep.grad_norm == 1e-6
        assert rep.message == "did not converge; best iterate"

    def test_start_stuck_off_the_constraint_is_recorded_unmet(self, monkeypatch):
        # Start 2 cannot be projected onto K = k, and its feasibility phase
        # ends at a nonzero local minimum of (K - k)^2/2 (|K - k| ~ 0.14),
        # where gradK vanishes.  KKT Newton run on from there crawled for
        # 1,447 steps and about 300,000 evaluations without converging.
        ts = from_points([0.25939104072278973, 0.6523357979962027,
                          0.8717081877736784, 1.305698149972931])
        c = IsoperimetricConstraint(parse("exp(0.4574*v) + sin(y)*v"),
                                    parse("cos(y - t*v) + 0.387*v^3"), 1.388792958733802)
        p = VariationalProblem(ts, parse("0.7529*v^2 + y^2 + t*v*y"),
                               parse("0.4961*v^2 + y^2 + t*v*y"), None, None, c)
        cfg = SolverConfig(multistarts=4, seed=0)
        calls = []
        real = va.functional_gradient

        def counted(*a, **k):
            calls.append(1)
            assert len(calls) < 5000, "the stuck start crawls"
            return real(*a, **k)

        monkeypatch.setattr(va, "functional_gradient", counted)
        rep = solve_isoperimetric(p, cfg)
        assert calls
        # the same extremal as from the other three starts alone
        real_starts = so._starts

        def start_2_as_start_0(cp, p, cfg):
            starts = list(real_starts(cp, p, cfg))
            starts[2] = starts[0].copy()
            yield from starts

        monkeypatch.setattr(so, "_starts", start_2_as_start_0)
        other = solve_isoperimetric(p, cfg)
        assert rep.converged and rep.multistart_index == other.multistart_index
        np.testing.assert_array_equal(rep.trajectory.values, other.trajectory.values)
        assert (rep.J, rep.lam, rep.iterations) == (other.J, other.lam, other.iterations)


class TestStarts:
    @pytest.mark.parametrize("bc_a, bc_b", [(0.0, 1.0), (2.0, None), (None, -3.0), (None, None)])
    def test_perturbations_keep_slopes_bounded_on_fine_grids(self, bc_a, bc_b):
        # a per-node perturbation would give slopes of about amp/mu = 150*amp
        ts = uniform(0, 1, 151)
        p = VariationalProblem(ts, parse("exp(0.7*v)"), parse("v^2"), bc_a, bc_b)
        amp = so._perturb_amplitude(p)
        cp = so._Compiled(p, so._base_trajectory(p))
        starts = list(so._starts(cp, p, SolverConfig(seed=4, multistarts=16)))
        again = list(so._starts(cp, p, SolverConfig(seed=4, multistarts=16)))
        np.testing.assert_array_equal(starts[0], cp.base[cp.lo : cp.hi])
        for z, z2 in zip(starts, again):
            np.testing.assert_array_equal(z, z2)
            y = cp.trajectory(z).values
            assert np.max(np.abs(np.diff(y) / np.diff(ts.points))) <= 10 * amp / (ts.b - ts.a)
        assert len({float(z[0]) for z in starts}) == 16


def record(J):
    """A first-order record with value J and a zero gradient on the 4 nodes
    of the problems that the scripted ends below are reported on."""
    zero = np.zeros(4)
    return va.ProductGradient(J, 1.0, zero, zero, zero, (zero, None))


def direct_end(f, err, gn):
    """A scripted end of a Newton run on J."""
    return so._At(f, err, None, np.array([gn]), record(f))


def kkt_end(J, err, r, gn, target=1e-10, abnormal=False):
    """A scripted end of a KKT Newton run: J the objective, r = K - k."""
    g = np.array([gn])
    return so._At(J, err, None, g, (-26.0, r, target, record(J), record(0.0)),
                  None if abnormal else (g, r))


def feas_end(feas):
    """A scripted end of a feasibility run that leaves |K - k| = feas."""
    return so._At(0.5 * feas * feas, 1e3, None, np.array([1.0]), ())


U = so._UNDEFINED
NOT_CONVERGED = "did not converge; best iterate"
INFEASIBLE = InfeasibleConstraintError


class TestMultistart:
    """One driver ranks the ends of both methods: converged starts first,
    then the method's own measure, then the start's index."""

    # each start's scripted ends of ``_newton``, in the order of its calls,
    # and the report fields expected, or the exception and its message
    DIRECT = [
        # converged beats a lower J and a smaller gradient
        ([[direct_end(-5.0, 2.0, 1e-12)], [direct_end(3.0, 0.5, 1e-9)]],
         dict(multistart_index=1, converged=True, message="stationary point found")),
        # lowest J among the converged, a tie to the earlier start
        ([[direct_end(2.0, 0.5, 1e-10)], [direct_end(1.0, 0.5, 1e-10)],
          [direct_end(1.0, 0.5, 1e-10)]],
         dict(multistart_index=1, converged=True)),
        # none converged: the smallest gradient, a tie to the earlier start,
        # and an undefined start skipped
        ([[U], [direct_end(0.0, 2.0, 1e-3)], [direct_end(-1.0, 3.0, 1e-5)],
          [direct_end(-9.0, 3.0, 1e-5)]],
         dict(multistart_index=2, converged=False, grad_norm=1e-5, message=NOT_CONVERGED)),
        ([[direct_end(-1e101, 2.0, 1.0)]],
         dict(converged=False, message="objective unbounded below; best iterate")),
        ([[U], [U]], (ex.DomainViolation, "objective undefined at every multistart")),
    ]
    CONSTRAINED = [
        # converged beats starts off K = k and on it with a lower J and a
        # smaller gradient
        ([[kkt_end(-9.0, 2.0, 1e-4, 1e-12)], [kkt_end(-9.0, 2.0, 1e-11, 1e-12)],
          [kkt_end(5.0, 0.5, 0.0, 1e-10)]],
         dict(multistart_index=2, converged=True, message="normal extremal")),
        ([[kkt_end(2.0, 0.5, 0.0, 1e-10)], [kkt_end(1.0, 0.5, 0.0, 1e-10)],
          [kkt_end(1.0, 0.5, 0.0, 1e-10)]],
         dict(multistart_index=1, converged=True)),
        # on K = k (|K - k| within its target) beats off it, whatever |K - k|
        ([[kkt_end(0.0, 5.0, 1e-4, 1e-12)], [kkt_end(3.0, 5.0, 5e-11, 1e-3)]],
         dict(multistart_index=1, converged=False, constraint_error=5e-11, grad_norm=1e-3,
              message=NOT_CONVERGED)),
        ([[kkt_end(0.0, 5.0, 1e-11, 1e-3)], [kkt_end(0.0, 5.0, 5e-11, 1e-6)],
          [kkt_end(0.0, 5.0, 1e-12, 1e-6)]],
         dict(multistart_index=1, grad_norm=1e-6, constraint_error=5e-11)),
        # off K = k: the smallest |K - k|, then the smallest gradient
        ([[kkt_end(0.0, 5.0, 1e-4, 1.0)], [kkt_end(0.0, 5.0, 1e-5, 2.0)],
          [kkt_end(0.0, 5.0, 1e-5, 1.0)]],
         dict(multistart_index=2, converged=False, constraint_error=1e-5, grad_norm=1.0)),
        # an unmet start (its feasibility phase reached K = k within reach,
        # but KKT Newton stayed undefined) nearer than any other is reported
        # as infeasible with its own |K - k|
        ([[U, feas_end(1e-4), U], [kkt_end(0.0, 5.0, 5e-4, 1.0)]],
         (INFEASIBLE, r"unmet across multistarts \(best \|K - k\| = 1\.000e-04\)")),
        # an unmet start beyond reach (no KKT run after its feasibility phase)
        # loses to an off start within reach
        ([[U, feas_end(0.5)], [kkt_end(0.0, 5.0, 1e-4, 1.0)]],
         dict(multistart_index=1, converged=False, constraint_error=1e-4)),
        ([[kkt_end(0.0, 5.0, 0.5, 1.0)], [kkt_end(0.0, 5.0, 0.25, 1.0)]],
         (INFEASIBLE, r"unmet across multistarts \(best \|K - k\| = 2\.500e-01\)")),
        # a feasibility phase, then KKT Newton: the iterations of both count
        ([[U, feas_end(1e-12), kkt_end(1.0, 0.5, 0.0, 1e-10)]],
         dict(multistart_index=0, converged=True, iterations=14)),
        ([[kkt_end(1.0, 0.5, 0.0, 0.0, abnormal=True)]],
         dict(converged=True, lambda0=0.0, lam=1.0,
              message="abnormal extremal (candidate is an extremal of K)")),
        ([[U, U], [U, U]], (ex.DomainViolation, "objective undefined at every multistart")),
    ]

    @staticmethod
    def scripted(monkeypatch, starts):
        """Replace ``_newton`` by the ends of ``starts``, one per call and
        in order, each at the point the run started from, after 7 steps;
        returns the ends not yet used."""
        queue = [end for ends in starts for end in ends]

        def newton(fun, model, z0):
            return z0, queue.pop(0), 7
            yield  # a generator, as ``_multistart`` runs it, that needs no kernel run

        monkeypatch.setattr(so, "_newton", newton)
        return queue

    @pytest.mark.parametrize("method", ["direct", "constrained"])
    def test_selection_table(self, monkeypatch, method):
        table = self.DIRECT if method == "direct" else self.CONSTRAINED
        p = quad_double(uniform(0, 3, 4), 0.0, 3.0) if method == "direct" else iso_problem(3)
        solver = solve if method == "direct" else solve_isoperimetric
        for starts, want in table:
            left = self.scripted(monkeypatch, starts)
            cfg = SolverConfig(multistarts=len(starts))
            if isinstance(want, tuple):
                with pytest.raises(want[0], match=want[1]):
                    solver(p, cfg)
            else:
                rep = solver(p, cfg)
                got = {key: getattr(rep, key) for key in want}
                if "message" in got:  # without the spread of the converged starts
                    got["message"] = got["message"].split("; weak-norm")[0]
                assert got == want
            assert left == []

    @pytest.mark.parametrize("name", ["free_endpoint", "iso_M3"])
    def test_undefined_at_every_start_exits_67(self, monkeypatch, tmp_path, name):
        def newton(fun, model, z0):
            return z0, so._UNDEFINED, 0
            yield

        monkeypatch.setattr(so, "_newton", newton)
        path = cli._bundled_path(f"{name}.problem")
        assert cli.main(["solve", "--problem", str(path), "--out", str(tmp_path)]) == 67

    def test_starts_are_made_lazily(self):
        ts = uniform(0, 1, 11)
        p = VariationalProblem(ts, parse("exp(0.7*v)"), parse("v^2"), 0.0, None)
        cp = so._Compiled(p, so._base_trajectory(p))
        base = cp.base[cp.lo : cp.hi].copy()
        other = so._Compiled(p, so._base_trajectory(p))
        fresh = list(so._starts(other, p, SolverConfig(multistarts=3)))
        started = time.perf_counter()
        starts = so._starts(cp, p, SolverConfig(multistarts=10**9))
        z0 = next(starts)
        assert time.perf_counter() - started < 1.0
        # evaluating a start makes a node row of its own, so cp.base, of
        # which the first start is the free block, is never written
        cp._at(z0 + 1.0)
        np.testing.assert_array_equal(z0, base)
        for want in fresh[1:]:
            np.testing.assert_array_equal(next(starts), want)

    def test_only_the_converged_blocks_are_kept(self):
        p = quad_double(uniform(0, 3, 4), 0.0, 3.0)
        refs = []

        def run(cp, z0):  # odd starts converge, with falling J; even ones do not
            s = len(refs)
            refs.append(weakref.ref(z0))
            return ((0, -s) if s % 2 else (1, s)), z0, None, s
            yield  # a generator, as ``_multistart`` runs it, that needs no kernel run

        _, best, converged = so._multistart(p, SolverConfig(multistarts=6), run)
        gc.collect()
        assert best[0] == (0, -5, 5) and best[3] == 5
        assert sorted(converged) == [1, 3, 5]
        assert all(converged[s] is refs[s]() for s in converged)
        assert [ref() is None for ref in refs] == [True, False, True, False, True, False]


def kernel_rows(monkeypatch, fn):
    """fn() and the number of node rows of each of its kernel runs."""
    rows, real = [], va._kernel

    def kernel(Ld, Ln, slots):
        run = real(Ld, Ln, slots)
        return lambda *samples: rows.append(len(np.atleast_2d(samples[1]))) or run(*samples)

    monkeypatch.setattr(va, "_kernel", kernel)
    out = fn()
    monkeypatch.setattr(va, "_kernel", real)
    return out, rows


def same_report(a, b):
    """Two SolveReports field by field, the trajectory bit for bit."""
    assert a.trajectory.values.tobytes() == b.trajectory.values.tobytes()
    for field in dataclasses.fields(a):
        if field.name != "trajectory":
            assert getattr(a, field.name) == getattr(b, field.name), field.name


class TestLockstep:
    """The starts of a group run in lockstep: each round serves the largest
    group of pending requests of one kind and integrand pair with one
    kernel run on their stacked node rows."""

    @pytest.mark.parametrize("case, most", [("iso_M4", 40), ("iso_M3", 26), ("free_endpoint", 8)])
    def test_verify_case_kernel_runs(self, monkeypatch, case, most):
        # one start at a time took 155, 129 and 46 kernel runs
        manifest = cli.load_bundled_manifest()
        (rows, ok), runs, n = count_evaluations(
            monkeypatch, lambda: cli.run_verify_cases(manifest, SolverConfig(seed=0), case))
        assert ok and len(runs) <= most and n == 0

    def test_a_smaller_group_ends_every_start_where_it_did(self, monkeypatch):
        # at most max(1, 2**16 // n) starts are in flight; shrinking the
        # block to 3 rows' worth changes which rows share a kernel run, not
        # one bit of the report
        p = VariationalProblem(uniform(0, 1, 9), parse("v^2 + sin(y)^2"),
                               parse("exp(0.5*v) + y^2"), 0.0, None)
        rep, rows = kernel_rows(monkeypatch, lambda: solve(p, SolverConfig(multistarts=8)))
        assert 1 < max(rows) <= min(8, 2**16 // 9)
        monkeypatch.setattr(so, "_BLOCK_ELEMENTS", 3 * 9)
        small, rows = kernel_rows(monkeypatch, lambda: solve(p, SolverConfig(multistarts=8)))
        assert max(rows) == 3
        same_report(small, rep)

    def test_from_65536_points_one_start_at_a_time(self, monkeypatch):
        # the straight line is the minimum, so start 0 takes no step
        n = 2**16 + 5
        p = quad_double(uniform(0, 1, n), 0.0, 1.0)
        rep, rows = kernel_rows(monkeypatch, lambda: solve(p, SolverConfig(multistarts=2)))
        assert rep.converged and rep.iterations == 0
        assert len(rows) > 2 and set(rows) == {1}


def dense_hessian(p, y):
    """The exact Hessian of J on the free block as a dense matrix, from the
    ``_model`` form that Newton factorizes."""
    cp = so._Compiled(p, y.values)
    z = cp.base[cp.lo : cp.hi].copy()
    first = run_alone(cp.value_grad(z, p.L_delta, p.L_nabla))[2]
    return dense(so._model([(1.0, run_alone(cp.hessian(p.L_delta, p.L_nabla, first)))]))


class TestProbe:
    def test_straight_line_minimum(self):
        ts = uniform(0, 4, 5)
        p = quad_double(ts, 0.0, 4.0)
        rep = solve(p, CFG)
        assert probe_extremal_type(p, rep.trajectory, CFG) == "local-min-indication"

    def test_free_endpoint_zero_minimum(self):
        # J = (sum of mu*v^2)^2 is quartic at its minimum y = 0, where its
        # exact Hessian is zero: a degenerate point, not a definite minimum
        ts = uniform(0, 2, 3)
        p = VariationalProblem(ts, parse("v^2"), parse("v^2"), 0.0, None)
        rep = solve(p, CFG)
        assert np.array_equal(rep.trajectory.values, np.zeros(3))
        assert probe_extremal_type(p, rep.trajectory, CFG) == "inconclusive"

    @pytest.mark.parametrize("n", [3, 4])
    def test_zero_hessian_with_both_ends_fixed(self, n):
        # y = 1 makes J_delta = J_nabla = 0 and the exact Hessian 0: with
        # n = 3 the only free node's pivot, the last one, is 0
        p = quad_double(uniform(0, 1, n), 1.0, 1.0)
        y = GridFunction(p.scale, np.ones(n))
        assert probe_extremal_type(p, y, CFG) == "inconclusive"

    def test_model_comes_from_the_newton_merit(self, monkeypatch):
        calls = []
        real = so._merit
        monkeypatch.setattr(so, "_merit", lambda *a, **k: calls.append(k) or real(*a, **k))
        ts = uniform(0, 4, 5)
        p = quad_double(ts, 0.0, 4.0)
        assert probe_extremal_type(p, GridFunction(ts, ts.points.copy()), CFG) == "local-min-indication"
        assert calls == [{}]

    def test_reads_one_first_and_one_second_order_kernel_run(self, monkeypatch):
        # the stationarity defect and J come from the record the Hessian reuses
        ts = uniform(0, 4, 5)
        p = VariationalProblem(ts, parse("v^2 + 0.1*y^2"), parse("exp(0.5*v) + y^2"), 0.0, None)
        y = solve(p, CFG).trajectory
        label, runs, n = count_evaluations(monkeypatch, lambda: probe_extremal_type(p, y, CFG))
        assert label == "local-min-indication"
        assert runs == [va._FIRST, va._SECOND] and n == 0

    def test_raises_for_a_foreign_or_undefined_trajectory(self):
        ts = uniform(0, 3, 4)
        p = quad_double(ts, 0.0, 3.0)
        with pytest.raises(ValueError, match="different time scale"):
            probe_extremal_type(p, GridFunction(uniform(0, 3, 5), np.zeros(5)), CFG)
        q = VariationalProblem(ts, parse("ln(y) + v^2"), parse("v^2"), 0.0, 3.0)
        with pytest.raises(ex.DomainViolation, match="at t="):
            probe_extremal_type(q, from_callable(ts, lambda t: t - 1.5), CFG)

    def test_sign_indefinite_product(self):
        # J = -J_delta^2 at the straight line, which minimizes J_delta > 0
        ts = uniform(0, 2, 3)
        p = VariationalProblem(ts, parse("v^2"), parse("-v^2"), 0.0, 2.0)
        y = GridFunction(ts, ts.points.copy())
        assert probe_extremal_type(p, y, CFG) == "local-max-indication"

    def test_saddle_that_random_directions_called_a_minimum(self):
        # y = 0 is stationary: both partials of y*v/(1 + v^2) vanish there.
        # The Hessian's eigenvalues run from -3.26 to 14.75
        ts = from_points([0.312, 0.8464, 1.3496, 1.7869, 1.986, 2.2512, 2.529, 3.1045])
        p = VariationalProblem(ts, parse("y*v/(1 + v^2) + 0.2059*t"),
                               parse("y*v/(1 + v^2) + 0.863*t"), None, None)
        y = GridFunction(ts, np.zeros(len(ts)))
        ev = np.linalg.eigvalsh(dense_hessian(p, y))
        assert ev[0] == pytest.approx(-3.26, abs=0.01) and ev[-1] == pytest.approx(14.75, abs=0.01)
        for seed in range(6):
            assert probe_extremal_type(p, y, SolverConfig(seed=seed)) == "saddle-indication"

    def test_agrees_with_the_dense_hessian_at_random_stationary_points(self, monkeypatch):
        # converged solves give minima and saddles; negating one integrand
        # negates J and its Hessian at the same point, which gives maxima.
        # The solves are capped at 50 steps: only their converged ends count
        monkeypatch.setattr(so, "_MAX_STEPS", 50)
        rng = np.random.default_rng(2036)  # two of its points need the Schur term
        labels = ("local-max-indication", "saddle-indication", "local-min-indication")
        found = []
        for i in range(40):
            n = int(rng.integers(3, 13))
            ts = from_points(np.cumsum(rng.uniform(0.1, 0.6, n)))
            bc = [(0.0, 1.0), (None, 1.0), (0.5, None), (None, None)][i % 4]
            p = VariationalProblem(ts, random_integrand(rng), random_integrand(rng), *bc)
            rep = solve(p, SolverConfig(multistarts=2, seed=i))
            if not rep.converged:
                continue
            ev = np.linalg.eigvalsh(dense_hessian(p, rep.trajectory))
            if not np.min(np.abs(ev)) > 1e-8 * np.max(np.abs(ev)):
                continue
            k = 1 + (ev[0] > 0) - (ev[-1] < 0)  # the index of the label in labels
            flipped = VariationalProblem(ts, p.L_delta, ex.Neg(p.L_nabla), *bc)
            for q, label in ((p, labels[k]), (flipped, labels[2 - k])):
                assert probe_extremal_type(q, rep.trajectory, SolverConfig(seed=i)) == label
                found.append(label)
        assert len(found) >= 40 and set(found) == set(labels)

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


class TestReport:
    """The report builder samples each integrand pair once."""

    FIELDS = dict(converged=True, iterations=0, multistart_index=0)

    @pytest.mark.parametrize("bc_a, bc_b", [(0.0, 1.0), (None, 1.0), (0.0, None), (None, None)])
    def test_direct_report_samples_once(self, monkeypatch, bc_a, bc_b):
        ts = uniform(0, 1, 6)
        p = VariationalProblem(ts, parse("v^2 + sin(y)^2"), parse("exp(0.5*v) + y^2"), bc_a, bc_b)
        y = GridFunction(ts, np.linspace(0.1, 0.9, 6))
        rep, runs, n = count_evaluations(
            monkeypatch, lambda: so._report(p, y, 1.0, **self.FIELDS)
        )
        assert runs == [("", "y", "v")] and n == 0  # one first-order kernel run of the pair
        assert rep.el_defect_1 == rep.el_defect_2 == va.el_residual_2(p, y).defect
        assert rep.J == va.eval_J(p, y)
        assert rep.bc_residual_a == (None if bc_a is not None else va.natural_bc_residual_a(p, y))
        assert rep.bc_residual_b == (None if bc_b is not None else va.natural_bc_residual_b(p, y))
        assert not rep.extension

    def test_consistency_report_samples_once(self, monkeypatch):
        p = quad_double(uniform(0, 1, 6), 0.0, 1.0)
        y = GridFunction(p.scale, np.array([0.0, 0.3, 0.35, 0.6, 0.8, 1.0]))
        rep, runs, n = count_evaluations(monkeypatch, lambda: so._report(p, y, **self.FIELDS))
        assert runs == [("", "y", "v")] and n == 0
        grad = functional_gradient(p.scale, p.L_delta, p.L_nabla, y.values)[1]
        assert rep.grad_norm == float(np.max(np.abs(grad[1:-1])))

    @pytest.mark.parametrize("bc_b", [1.0, None])
    def test_constrained_report_samples_each_pair_once(self, monkeypatch, bc_b):
        ts = uniform(0, 1, 6)
        c = IsoperimetricConstraint(parse("t*v + y^2"), parse("1 + v^2"), 1.0)
        p = VariationalProblem(ts, parse("v^2 + sin(y)^2"), parse("exp(0.5*v) + y^2"), 0.0, bc_b, c)
        y = GridFunction(ts, np.linspace(0.0, 1.0, 6) ** 2)
        rep, runs, n = count_evaluations(
            monkeypatch, lambda: so._report(p, y, 1.0, 1.0, -0.7, **self.FIELDS)
        )
        assert runs == [("", "y", "v")] * 2 and n == 0
        assert rep.el_defect_1 == rep.el_defect_2 == va.iso_residual(p, y, 1.0, -0.7, "el1").defect
        assert rep.extension == (bc_b is None)

    @pytest.mark.parametrize("bc_a, bc_b", [(None, 1.0), (0.0, None), (None, None)])
    @pytest.mark.parametrize("lambda0, lam", [(1.0, -0.7), (0.0, 1.0)])
    def test_constrained_bc_residual_is_the_multiplier_combination(self, bc_a, bc_b, lambda0, lam):
        # at a free endpoint of a constrained problem the natural boundary
        # condition is that of lambda0*J - lam*K, not of J alone
        ts = uniform(0, 1, 6)
        c = IsoperimetricConstraint(parse("t*v + y^2"), parse("1 + v^2"), 1.0)
        p = VariationalProblem(ts, parse("v^2 + sin(y)^2"), parse("exp(0.5*v) + y^2"),
                               bc_a, bc_b, c)
        y = GridFunction(ts, np.linspace(0.2, 1.0, 6) ** 2)
        rep = so._report(p, y, 1.0, lambda0, lam, **self.FIELDS)
        pk = va._as_constraint_problem(p)
        for end, got in (("a", rep.bc_residual_a), ("b", rep.bc_residual_b)):
            if getattr(p, f"bc_{end}") is not None:
                assert got is None
                continue
            nbc = getattr(va, f"natural_bc_residual_{end}")
            want = lambda0 * nbc(p, y) - lam * nbc(pk, y)
            assert want != 0.0 and got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_a_solve_reports_from_its_own_records(self, monkeypatch, constrained):
        # the report reads the first-order records of the reported start's
        # last iterate: no kernel run, and the report of sampling it afresh
        ts = uniform(0, 1, 6)
        c = IsoperimetricConstraint(parse("t*v + y^2"), parse("1 + v^2"), 1.0)
        p = VariationalProblem(ts, parse("v^2 + sin(y)^2"), parse("exp(0.5*v) + y^2"), 0.0,
                               None, c if constrained else None)
        calls, real = [], so._report

        def report(*a, **k):
            rep, runs, n = count_evaluations(monkeypatch, lambda: real(*a, **k))
            calls.append((rep, runs, n, a, k))
            return rep

        monkeypatch.setattr(so, "_report", report)
        (solve_isoperimetric if constrained else solve)(p, SolverConfig(multistarts=4))
        ((rep, runs, n, a, k),) = calls
        assert len(k.pop("records")) == 1 + constrained
        assert runs == [] and n == 0
        same_report(rep, real(*a, **k))

    def test_solve_auto_selects_the_method(self):
        ts = uniform(0, 2, 3)
        rep, method, near = solve_auto(quad_double(ts, 0.0, 2.0), CFG)
        assert method == "consistency" and near is not None
        assert (rep.iterations, rep.multistart_index) == (0, 0)
        np.testing.assert_allclose(rep.trajectory.values, [0.0, 1.0, 2.0], atol=1e-12)
        for bc_a, bc_b in ((0.0, None), (None, 2.0)):
            assert solve_auto(quad_double(ts, bc_a, bc_b), CFG)[1:] == ("direct", None)
        c = IsoperimetricConstraint(parse("v"), parse("0.5"), 2.0)
        p = VariationalProblem(ts, parse("v^2"), parse("v^2"), 0.0, 2.0, c)
        assert solve_auto(p, CFG)[1:] == ("isoperimetric", None)
        rep, method, near = solve_auto(product_problem(from_points([0, 0.5, 1])), CFG)
        assert (rep, method) == (None, "consistency") and near.gap > 0
