from dataclasses import replace

import numpy as np
import pytest

import helpers
from helpers import quadratic_expr, random_gridfn, random_quadratic_problem, random_scale
from tsvar import expr as ex
from tsvar.calculus import GridFunction, cumulative_delta, cumulative_nabla, from_callable
from tsvar.expr import DomainViolation, parse
from tsvar.timescale import from_points, h_integers, q_scale, uniform
from tsvar.variational import (
    IsoperimetricConstraint,
    VariationalProblem,
    el_differential_delta,
    el_differential_nabla,
    el_residual_1,
    el_residual_2,
    eval_J,
    eval_J_delta,
    eval_J_nabla,
    eval_K,
    first_variation,
    functional_gradient,
    is_K_extremal,
    iso_residual,
    natural_bc_reduced,
    natural_bc_residual_a,
    natural_bc_residual_b,
    weak_norm,
)

V2 = parse("v^2")


def quad_problem(scale, alpha, beta):
    return VariationalProblem(scale, V2, parse("v^2"), alpha, beta)


def identity_on(ts):
    return GridFunction(ts, ts.points.copy())


def iso_problem(M):
    ts = uniform(0, M, M + 1)
    c = IsoperimetricConstraint(parse("t*v"), parse(f"1/{M}"), 1.0)
    return VariationalProblem(ts, parse("v^2"), parse("v^2 + v"), 0.0, float(M), c)


def iso_closed_form(M):
    t = np.arange(M + 1, dtype=float)
    return (4 * M**2 - 7 * M - 3 * M * t + 6 * t) * t / (M * (M - 1))


class TestFunctionalValues:
    def test_unit_slope_on_three_integers(self):
        ts = from_points([0, 1, 2])
        p = quad_problem(ts, 0.0, 2.0)
        y = identity_on(ts)
        # direct summation: each integral is sum of gaps times slope^2 = 2
        assert eval_J_delta(p, y) == 2.0
        assert eval_J_nabla(p, y) == 2.0
        assert eval_J(p, y) == 4.0

    def test_normalized_backward_integrand_reduces_to_forward_functional(self):
        ts = from_points([0, 1, 2, 3, 4])  # dyadic span: the weight sum is exact
        p = VariationalProblem(ts, parse("t*v^2"), parse("0.25"), 0.0, 4.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            y = random_gridfn(rng, ts)
            assert eval_J(p, y) == eval_J_delta(p, y)

    def test_parabola_recovers_continuum_values(self):
        # forward value 1/3 and backward value 4/3 at first order in 1/n
        for n in (11, 101, 1001):
            ts = uniform(0, 1, n)
            p = VariationalProblem(ts, parse("t*v"), parse("v^2"), 0.0, 1.0)
            y = from_callable(ts, lambda t: -t * t + 2 * t)
            assert abs(eval_J_delta(p, y) - 1.0 / 3.0) <= 2.0 / n
            assert abs(eval_J_nabla(p, y) - 4.0 / 3.0) <= 2.0 / n

    def test_domain_violation_reports_node(self):
        ts = from_points([-1, 0, 1])
        p = VariationalProblem(ts, parse("ln(t)"), V2, 0.0, 0.0)
        y = identity_on(ts)
        with pytest.raises(DomainViolation) as err:
            eval_J_delta(p, y)
        assert "t=" in str(err.value)
        # one offset and a plain float, however deep the failing node sits
        assert str(err.value) == "domain violation in 'ln' at t=-1.0 (node at offset 0)"
        p = VariationalProblem(ts, parse("v^2 + ln(t + 3)/ln(t + 2)"), V2, 0.0, 0.0)
        with pytest.raises(DomainViolation) as err:
            eval_J_delta(p, y)
        assert str(err.value) == "domain violation in '/' at t=-1.0 (node at offset 15)"

    def test_domain_violation_is_located_without_evaluating_again(self, monkeypatch):
        # the failing node names its first non-finite element, so the whole
        # trajectory is run checked once, not once more per sample
        ts = uniform(0, 1, 1001)
        p = VariationalProblem(ts, parse("ln(y) + v^2"), V2, 0.0, 0.0)
        y = GridFunction(ts, np.r_[np.ones(1000), -1.0])
        calls = []
        real = ex._checked

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ex, "_checked", counted)
        with pytest.raises(DomainViolation) as err:
            eval_J_delta(p, y)
        assert len(calls) == 1
        # the last forward sample holds y(sigma(t)) = -1 at t = 0.999
        assert str(err.value) == f"domain violation in 'ln' at t={float(ts.points[-2])!r} (node at offset 0)"
        assert err.value.index == 999

    def test_trajectory_scale_must_match(self):
        p = quad_problem(from_points([0, 1, 2]), 0.0, 2.0)
        other = identity_on(from_points([0, 1, 3]))
        with pytest.raises(ValueError):
            eval_J(p, other)

    def test_trajectory_must_cover_both_endpoints(self):
        ts = from_points([0, 1, 2, 3])
        p = quad_problem(ts, 0.0, 3.0)
        partial = identity_on(ts).restricted(range(0, 3))
        with pytest.raises(ValueError):
            eval_J_delta(p, partial)

    def test_problem_validation(self):
        ts = from_points([0, 1, 2])
        with pytest.raises(ValueError):
            VariationalProblem(ts, V2, V2, np.nan, 2.0)
        with pytest.raises(ValueError):
            IsoperimetricConstraint(V2, V2, np.inf)


class TestEulerLagrangeResiduals:
    def test_unit_slope_residual_is_constant(self):
        for pts in ([0, 1, 2], [0, 0.5, 1], [1, 2, 4, 8]):
            ts = from_points(pts)
            p = quad_problem(ts, ts.a, ts.b)
            y = identity_on(ts)
            r1 = el_residual_1(p, y)
            r2 = el_residual_2(p, y)
            A, B = eval_J_nabla(p, y), eval_J_delta(p, y)
            assert r1.defect == 0.0
            np.testing.assert_allclose(r1.residual.values, 2 * A + 2 * B)
            assert r2.defect == 0.0
            np.testing.assert_allclose(r2.residual.values, 2 * A + 2 * B)

    def test_constant_integrands_give_zero_residual(self):
        ts = from_points([0, 1, 2, 3])
        p = VariationalProblem(ts, parse("1"), parse("1"), 0.0, 3.0)
        rng = np.random.default_rng(1)
        y = random_gridfn(rng, ts)
        assert el_residual_1(p, y).defect == 0.0
        assert np.all(el_residual_1(p, y).residual.values == 0.0)

    def test_slope_only_integrands_constant_for_any_trajectory(self):
        # d2 = 0 and d3 = 1 make the residual J_nabla + J_delta everywhere
        ts = from_points([0, 1, 2])
        p = VariationalProblem(ts, parse("v"), parse("v"), 0.0, 2.0)
        rng = np.random.default_rng(2)
        for _ in range(5):
            y = random_gridfn(rng, ts)
            rep = el_residual_2(p, y)
            assert rep.defect <= 1e-13 * (1 + abs(rep.mean))
            assert rep.mean == pytest.approx(
                eval_J_delta(p, y) + eval_J_nabla(p, y), rel=1e-12
            )

    def test_parabola_defect_first_order(self):
        # fitted constant is about 1; assert the 2/n envelope
        for n in (10, 100, 1000):
            ts = uniform(0, 1, n)
            p = VariationalProblem(ts, parse("t*v"), parse("v^2"), 0.0, 1.0)
            y = from_callable(ts, lambda t: -t * t + 2 * t)
            assert el_residual_1(p, y).defect <= 2.0 / n
            assert el_residual_2(p, y).defect <= 2.0 / n

    def test_square_trajectory_not_stationary(self):
        ts = from_points([0, 1, 2, 3])
        p = quad_problem(ts, 0.0, 3.0)
        y = from_callable(ts, lambda t: t * t)
        assert el_residual_2(p, y).defect > 0.1

    def test_residual_domains(self):
        ts = from_points([0, 1, 2, 3])
        p = quad_problem(ts, 0.0, 3.0)
        y = identity_on(ts)
        assert el_residual_1(p, y).residual.domain == range(1, 4)
        assert el_residual_2(p, y).residual.domain == range(0, 3)

    def test_forms_shift_into_each_other(self):
        # residual form 2 at t equals form 1 at sigma(t), exactly
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_quadratic_problem(rng)
            y = random_gridfn(rng, p.scale)
            rep1, rep2 = el_residual_1(p, y), el_residual_2(p, y)
            np.testing.assert_array_equal(rep1.residual.values, rep2.residual.values)
            assert rep1.defect == rep2.defect
            # the natural boundary residual at a is the array's first entry
            pa = replace(p, bc_a=None)
            assert natural_bc_residual_a(pa, y) == el_residual_1(pa, y).residual.values[0]

    def test_defects_agree_between_forms(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_quadratic_problem(rng)
            y = random_gridfn(rng, p.scale)
            d1 = el_residual_1(p, y).defect
            d2 = el_residual_2(p, y).defect
            assert abs(d1 - d2) <= 1e-8 * (1 + max(d1, d2))


class TestDifferentialForms:
    def test_identity_is_stationary_for_forward_square(self):
        ts = from_points([0, 1, 2, 3])
        p = VariationalProblem(ts, V2, parse("0.25"), 0.0, 3.0)
        res = el_differential_delta(p, identity_on(ts))
        np.testing.assert_array_equal(res.values, 0.0)
        assert res.domain == range(0, 2)

    def test_square_trajectory_backward_residual_is_four(self):
        # backward slope of t^2 is 2t-1; its backward slope is 4 - 0
        ts = from_points([0, 1, 2, 3])
        p = VariationalProblem(ts, parse("0.25"), V2, 0.0, 3.0)
        res = el_differential_nabla(p, from_callable(ts, lambda t: t * t))
        np.testing.assert_allclose(res.values, 4.0)
        assert res.domain == range(2, 4)

    def test_differential_equals_slope_of_integral_residual(self):
        # for a forward-pure problem the differential form is exactly the
        # forward difference quotient of the integral residual
        rng = np.random.default_rng(5)
        for _ in range(10):
            ts = random_scale(rng, nmax=12)
            p = VariationalProblem(ts, quadratic_expr(rng), parse("0.5"), ts.a, ts.b)
            y = random_gridfn(rng, ts)
            r2 = el_residual_2(p, y)
            jn = eval_J_nabla(p, y)
            slope = np.diff(r2.residual.values) / ts.mu_values[: len(ts) - 2]
            diff_res = el_differential_delta(p, y)
            np.testing.assert_allclose(jn * diff_res.values, slope, rtol=1e-9, atol=1e-9)

    def test_mixed_problem_warns(self):
        ts = from_points([0, 1, 2, 3])
        p = quad_problem(ts, 0.0, 3.0)
        with pytest.warns(UserWarning):
            el_differential_delta(p, identity_on(ts))
        with pytest.warns(UserWarning):
            el_differential_nabla(p, identity_on(ts))


class TestNaturalBoundary:
    def test_zero_minimizer_of_free_endpoint_problem(self):
        ts = from_points([0, 1, 2])
        p = VariationalProblem(ts, V2, parse("v^2"), 0.0, None)
        yhat = GridFunction(ts, np.zeros(3))
        assert natural_bc_residual_b(p, yhat) == 0.0

    def test_forward_pure_residual_at_a_is_slope_term(self):
        ts = from_points([0, 1, 2, 3])
        p = VariationalProblem(ts, parse("t*v + v^2"), parse("1/3"), None, 3.0)
        rng = np.random.default_rng(6)
        y = random_gridfn(rng, ts)
        d3 = ex.differentiate(p.L_delta, "v")
        v0 = (y.values[1] - y.values[0]) / 1.0
        want = ex.evaluate(d3, ex.Binding(0.0, y.values[1], v0))
        # J_nabla = 1 for the normalized constant, so the general form collapses
        assert natural_bc_residual_a(p, y) == pytest.approx(want, rel=1e-12)
        assert natural_bc_reduced(p, y, "a") == pytest.approx(want, rel=1e-12)

    def test_backward_pure_residual_at_b_is_slope_term(self):
        ts = from_points([0, 1, 2, 3])
        p = VariationalProblem(ts, parse("1/3"), parse("y*v + v^2"), 0.0, None)
        rng = np.random.default_rng(7)
        y = random_gridfn(rng, ts)
        d3 = ex.differentiate(p.L_nabla, "v")
        v_end = y.values[3] - y.values[2]
        want = ex.evaluate(d3, ex.Binding(3.0, y.values[2], v_end))
        assert natural_bc_residual_b(p, y) == pytest.approx(want, rel=1e-12)
        assert natural_bc_reduced(p, y, "b") == pytest.approx(want, rel=1e-12)

    def test_reduced_variants_agree_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ts = random_scale(rng, nmax=10)
            y = random_gridfn(rng, ts)
            pf = VariationalProblem(ts, quadratic_expr(rng), parse("2"), None, None)
            assert natural_bc_reduced(pf, y, "b", "integral") == natural_bc_reduced(
                pf, y, "b", "product"
            )
            pb = VariationalProblem(ts, parse("2"), quadratic_expr(rng), None, None)
            assert natural_bc_reduced(pb, y, "a", "integral") == natural_bc_reduced(
                pb, y, "a", "product"
            )

    def test_classical_limit_of_free_right_endpoint(self):
        # minimizing int (y')^2/2 + y' dt with y(b) free drives d3 L(b) -> 0
        target = []
        for n in (11, 51, 201):
            ts = uniform(0, 1, n)
            p = VariationalProblem(ts, parse("0.5*v^2 + v"), parse("1"), 0.0, None)
            y = from_callable(ts, lambda t: -t)  # continuum minimizer has slope -1
            target.append(abs(natural_bc_reduced(p, y, "b")))
        assert all(v <= 1e-12 for v in target)

    def test_general_residuals_are_endpoint_gradients(self):
        # with both weights away from 1 the residuals must still equal
        # -dJ/dy(a) and dJ/dy(b)
        rng = np.random.default_rng(16)
        problems = [(uniform(0, 1, 41), parse("v^2 + 0.7*y^2"), parse("exp(0.8*v) + y^2"))]
        for _ in range(25):
            ts = random_scale(rng, nmax=15)
            problems.append((ts, quadratic_expr(rng), quadratic_expr(rng)))
        for ts, Ld, Ln in problems:
            p = VariationalProblem(ts, Ld, Ln, None, None)
            y = random_gridfn(rng, ts, amp=0.5)
            _, grad = functional_gradient(ts, Ld, Ln, y.values)
            scale = 1.0 + np.max(np.abs(grad))
            assert abs(natural_bc_residual_b(p, y) - grad[-1]) <= 1e-12 * scale
            assert abs(natural_bc_residual_a(p, y) + grad[0]) <= 1e-12 * scale

    def test_fixed_endpoint_rejected(self):
        ts = from_points([0, 1, 2])
        p = quad_problem(ts, 0.0, 2.0)
        with pytest.raises(ValueError):
            natural_bc_residual_a(p, identity_on(ts))
        with pytest.raises(ValueError):
            natural_bc_residual_b(p, identity_on(ts))

    def test_mixed_problem_rejected_for_reduced_form(self):
        ts = from_points([0, 1, 2])
        p = VariationalProblem(ts, parse("t*v"), parse("y*v"), None, None)
        with pytest.raises(ValueError):
            natural_bc_reduced(p, identity_on(ts), "a")


class TestIsoperimetric:
    def test_unconstrained_extremal_solves_m2(self):
        p = iso_problem(2)
        y = GridFunction(p.scale, iso_closed_form(2))
        assert eval_K(p, y) == pytest.approx(1.0, abs=1e-12)
        rep = iso_residual(p, y, 1.0, 0.0, "el2")
        assert rep.defect <= 1e-12

    @pytest.mark.parametrize("M", [3, 4])
    def test_closed_form_with_consistent_multiplier(self, M):
        p = iso_problem(M)
        y = GridFunction(p.scale, iso_closed_form(M))
        A, B = eval_J_nabla(p, y), eval_J_delta(p, y)
        lam = -12 * (A + B) * (M - 2) / (M * (M - 1))
        for form in ("el1", "el2"):
            rep = iso_residual(p, y, 1.0, lam, form)
            assert rep.defect <= 1e-10 * (1 + abs(rep.mean))

    def test_m3_multiplier_against_brute_force(self):
        # independent check: exhaustive scan over the feasible segment
        M = 3
        p = iso_problem(M)
        u = np.linspace(-1, 5, 120001)
        w = 5.0 - u  # the constraint pins y1 + y2 = 5
        Q = u**2 + (w - u) ** 2 + (3 - w) ** 2
        J = Q * (Q + 3)
        i = int(np.argmin(J))
        assert abs(u[i] - 2.0) <= 1e-4 and abs(w[i] - 3.0) <= 1e-4
        y = GridFunction(p.scale, iso_closed_form(M))
        assert iso_residual(p, y, 1.0, -26.0, "el2").defect <= 1e-10

    def test_abnormal_pair_annihilates_objective_terms(self):
        # trivially satisfied constraint: every trajectory is a K-extremal
        ts = from_points([0, 1, 2])
        c = IsoperimetricConstraint(parse("v"), parse("0.5"), 2.0)
        p = VariationalProblem(ts, parse("t*v^2 + y"), parse("v^2"), 0.0, 2.0, c)
        rng = np.random.default_rng(9)
        for _ in range(5):
            y = random_gridfn(rng, ts)
            assert is_K_extremal(p, y, 1e-12)
            assert iso_residual(p, y, 0.0, 1.0, "el1").defect <= 1e-12

    def test_weighted_slope_constraint_has_no_abnormal_extremals(self):
        p = iso_problem(3)
        y = GridFunction(p.scale, iso_closed_form(3))
        assert not is_K_extremal(p, y, 1e-6)
        rng = np.random.default_rng(10)
        z = random_gridfn(rng, p.scale)
        assert not is_K_extremal(p, z, 1e-6)

    def test_constraint_residual_is_exactly_t(self):
        # for K_delta = t*v and normalized K_nabla the shifted residual form
        # evaluates to t itself, for every trajectory: never constant
        p = iso_problem(3)
        kp = VariationalProblem(
            p.scale, p.constraint.K_delta, p.constraint.K_nabla, p.bc_a, p.bc_b
        )
        rng = np.random.default_rng(22)
        for _ in range(5):
            y = random_gridfn(rng, p.scale)
            rep = el_residual_2(kp, y)
            np.testing.assert_allclose(rep.residual.values, p.scale.points[:-1],
                                       rtol=1e-12, atol=1e-12)

    def test_zero_multiplier_matches_unconstrained_residual(self):
        p = iso_problem(3)
        rng = np.random.default_rng(11)
        y = random_gridfn(rng, p.scale)
        plain = el_residual_1(p, y)
        iso = iso_residual(p, y, 1.0, 0.0, "el1")
        np.testing.assert_array_equal(iso.residual.values, plain.residual.values)
        assert iso.defect == plain.defect

    def test_both_multipliers_zero_rejected(self):
        p = iso_problem(3)
        y = GridFunction(p.scale, iso_closed_form(3))
        with pytest.raises(ValueError):
            iso_residual(p, y, 0.0, 0.0, "el1")

    def test_constraint_required(self):
        ts = from_points([0, 1, 2])
        p = quad_problem(ts, 0.0, 2.0)
        with pytest.raises(ValueError):
            iso_residual(p, identity_on(ts), 1.0, 0.0, "el1")

    def test_unknown_form_rejected(self):
        p = iso_problem(3)
        y = GridFunction(p.scale, iso_closed_form(3))
        with pytest.raises(ValueError):
            iso_residual(p, y, 1.0, 0.0, "el3")
        with pytest.raises(ValueError):
            natural_bc_reduced(
                VariationalProblem(p.scale, parse("v^2"), parse("1"), None, None),
                y,
                "c",
            )


class TestWeakNorm:
    def test_identical_trajectories(self):
        ts = from_points([0, 1, 2, 3])
        y = identity_on(ts)
        assert weak_norm(y, y) == 0.0

    def test_constant_difference_counts_twice(self):
        rng = np.random.default_rng(12)
        ts = random_scale(rng)
        y1 = random_gridfn(rng, ts)
        y2 = GridFunction(ts, y1.values + 1.75)
        assert weak_norm(y1, y2) == pytest.approx(3.5, rel=1e-14)

    def test_scale_mismatch(self):
        y1 = identity_on(from_points([0, 1, 2]))
        y2 = identity_on(from_points([0, 1, 3]))
        with pytest.raises(ValueError):
            weak_norm(y1, y2)


class TestFirstVariation:
    def test_matches_directional_finite_difference(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = random_quadratic_problem(rng)
            ts = p.scale
            y = random_gridfn(rng, ts)
            ev = rng.uniform(-1, 1, len(ts))
            ev[0] = ev[-1] = 0.0
            eta = GridFunction(ts, ev)
            h = 1e-6
            up = GridFunction(ts, y.values + h * eta.values)
            dn = GridFunction(ts, y.values - h * eta.values)
            fd = (eval_J(p, up) - eval_J(p, dn)) / (2 * h)
            got = first_variation(p, y, eta)
            assert abs(got - fd) <= 1e-5 * (1.0 + abs(fd))

    def test_gradient_assembles_first_variation(self):
        rng = np.random.default_rng(14)
        p = random_quadratic_problem(rng)
        ts = p.scale
        y = random_gridfn(rng, ts)
        _, grad = functional_gradient(ts, p.L_delta, p.L_nabla, y.values)
        for j in range(1, len(ts) - 1):
            ev = np.zeros(len(ts))
            ev[j] = 1.0
            assert first_variation(p, y, GridFunction(ts, ev)) == pytest.approx(
                grad[j], rel=1e-12, abs=1e-12
            )


class TestFirstOrderRecord:
    """Every first-order quantity reduces from the node gradient of one
    first-order record: checked against the f/g assembly of each residual
    (``helpers.reference_first_order``) on random problems."""

    EPS = float(np.finfo(float).eps)

    @staticmethod
    def random_problem(rng, kind, n, bc):
        if kind == "uniform":
            ts = uniform(-1.0, float(rng.uniform(0.5, 3.0)), n)
        elif kind == "hz":
            ts = h_integers(0.0, 0.25 * (n - 1), 0.25)
        elif kind == "qscale":
            ts = q_scale(float(rng.uniform(1.0005, 1.01)), -2, n - 3)
        else:
            ts = random_scale(rng, nmin=n, nmax=n, span=2.0)
        Ld, Ln = helpers.random_integrand(rng), helpers.random_integrand(rng)
        # slopes of at most 2, so no integrand overflows on a fine scale
        y = rng.uniform(-1, 1) + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(-2, 2, n - 1) * np.diff(ts.points))])
        return VariationalProblem(ts, Ld, Ln, *bc), GridFunction(ts, y)

    @pytest.mark.parametrize("kind", ["uniform", "hz", "qscale", "explicit"])
    def test_agrees_with_the_f_g_assembly_to_rounding(self, kind):
        # Each of the two computations of a residual entry is a running sum
        # of at most n terms, each term a few operations on the samples, so
        # each is within gamma_{n+6} * scale of the exact value, gamma_m =
        # m*u/(1 - m*u) and u = eps/2 (Higham, Accuracy and Stability of
        # Numerical Algorithms, 3.1 and 4.2); scale sums the magnitudes of
        # every term, and times max|eta| for the first variation.
        rng = np.random.default_rng(2026)
        ends = [(0.0, 1.0), (None, 1.0), (0.5, None), (None, None)]
        for i in range(12):
            n = 2001 if i == 0 else int(np.exp(rng.uniform(np.log(3), np.log(2001))))
            p, y = self.random_problem(rng, kind, n, ends[i % 4])
            ts = p.scale
            eta = rng.uniform(-1, 1, n)
            res, nbc_a, nbc_b, variation, scale = helpers.reference_first_order(
                ts, p.L_delta, p.L_nabla, y.values, eta)
            m, u = n + 6, self.EPS / 2
            bound = 2.0 * m * u / (1.0 - m * u) * scale
            grad = functional_gradient(ts, p.L_delta, p.L_nabla, y.values)[1]
            r1, r2 = el_residual_1(p, y), el_residual_2(p, y)
            assert np.array_equal(r1.residual.values, r2.residual.values)
            assert np.max(np.abs(r2.residual.values - res)) <= bound
            if p.bc_a is None:
                assert natural_bc_residual_a(p, y) == -grad[0]
                assert abs(natural_bc_residual_a(p, y) - nbc_a) <= bound
            if p.bc_b is None:
                assert natural_bc_residual_b(p, y) == grad[-1]
                assert abs(natural_bc_residual_b(p, y) - nbc_b) <= bound
            got = first_variation(p, y, GridFunction(ts, eta))
            assert got == grad @ eta
            assert abs(got - variation) <= bound * np.max(np.abs(eta))


class TestReductionInvariants:
    def test_forward_reduction_residuals_match(self):
        # normalized backward integrand: the general form equals the
        # forward-only residual assembled independently from calculus parts
        ts = from_points([0, 1, 2, 3, 4])
        p = VariationalProblem(ts, parse("t*v^2 + y*v"), parse("0.25"), 0.0, 4.0)
        rng = np.random.default_rng(15)
        for _ in range(10):
            y = random_gridfn(rng, ts)
            mu = ts.mu_values[:-1]
            tl = ts.points[:-1]
            ysig = y.values[1:]
            dy = np.diff(y.values) / mu
            d3 = ex.eval_arrays(ex.differentiate(p.L_delta, "v"), tl, ysig, dy)
            d2 = ex.eval_arrays(ex.differentiate(p.L_delta, "y"), tl, ysig, dy)
            acum = cumulative_delta(
                GridFunction(ts, np.asarray(d2), domain=range(0, len(ts) - 1)), ts.a
            )
            reduced = np.asarray(d3) - acum.values[:-1]
            general = el_residual_2(p, y)
            np.testing.assert_allclose(general.residual.values, reduced, rtol=1e-12)
            red_defect = float(np.max(np.abs(reduced - reduced.mean())))
            assert abs(general.defect - red_defect) <= 1e-10

    def test_backward_reduction_residuals_match(self):
        ts = from_points([0, 1, 2, 3, 4])
        p = VariationalProblem(ts, parse("0.25"), parse("t*v^2 + y*v"), 0.0, 4.0)
        rng = np.random.default_rng(16)
        for _ in range(10):
            y = random_gridfn(rng, ts)
            nu = ts.nu_values[1:]
            tr = ts.points[1:]
            yrho = y.values[:-1]
            ny = np.diff(y.values) / nu
            d3 = ex.eval_arrays(ex.differentiate(p.L_nabla, "v"), tr, yrho, ny)
            d2 = ex.eval_arrays(ex.differentiate(p.L_nabla, "y"), tr, yrho, ny)
            bcum = cumulative_nabla(
                GridFunction(ts, np.asarray(d2), domain=range(1, len(ts))), ts.a
            )
            reduced = np.asarray(d3) - bcum.values[1:]
            general = el_residual_1(p, y)
            np.testing.assert_allclose(general.residual.values, reduced, rtol=1e-12)
