"""The structured exact-Newton core: exact Hessians, the tridiagonal
LDL^T plus Woodbury solve, convergence at the default tolerance, linear
memory, and no floating-point warnings from a solve."""

import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import dense, random_integrand
from tsvar import expr as ex
from tsvar import solver as so
from tsvar import variational as va
from tsvar.expr import parse
from tsvar.solver import SolverConfig, solve
from tsvar.timescale import from_points, q_scale, uniform
from tsvar.variational import (
    IsoperimetricConstraint,
    VariationalProblem,
    functional_gradient,
    functional_hessian,
)

def random_smooth_problem(rng, bc_a, bc_b, constraint=None):
    n = int(rng.integers(3, 13))
    ts = from_points(np.cumsum(rng.uniform(0.1, 0.6, n)))
    return VariationalProblem(
        ts, random_integrand(rng), random_integrand(rng), bc_a, bc_b, constraint
    )


def fd_hessian_times(grad, z, x, h=1e-5):
    return (grad(z + h * x) - grad(z - h * x)) / (2 * h)


class TestExactHessian:
    def test_matvec_matches_central_differences_of_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            p = random_smooth_problem(rng, 0.0, 1.0)
            y = rng.uniform(-1, 1, len(p.scale))
            x = rng.standard_normal(len(p.scale))
            H = functional_hessian(p.scale, p.L_delta, p.L_nabla, y)
            val, grad = functional_gradient(p.scale, p.L_delta, p.L_nabla, y)
            assert H.J_delta * H.J_nabla == val
            np.testing.assert_array_equal(H.gradient, grad)

            def g(yy):
                return functional_gradient(p.scale, p.L_delta, p.L_nabla, yy)[1]

            fd = fd_hessian_times(g, y, x)
            assert np.max(np.abs(H.matvec(x) - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd)))

    @pytest.mark.parametrize("bc_a, bc_b", [(0.5, -0.5), (None, 1.0), (0.0, None), (None, None)])
    def test_solver_models_match_central_differences(self, bc_a, bc_b):
        # the free-block model of J, of the feasibility merit r^2/2 with
        # r = K - k, and of the KKT merit: the Hessian of the Lagrangian
        # J - lam*K at the point moved onto K = k, with lam held fixed
        rng = np.random.default_rng(12)
        cfg = SolverConfig()
        lagrangians = 0
        for _ in range(12):
            c = IsoperimetricConstraint(random_integrand(rng), random_integrand(rng), 0.3)
            p = random_smooth_problem(rng, bc_a, bc_b, c)
            cp = so._Compiled(p, so._base_trajectory(p))
            z = rng.uniform(-1, 1, cp.hi - cp.lo)
            x = rng.standard_normal(z.size)
            merits = [(z, *so._merit(cp, p, cfg.grad_tol)),
                      (z, *so._merit(cp, p, cfg.grad_tol, feasibility=True))]
            kkt_fun, kkt_model = so._kkt(cp, p, cfg.grad_tol)
            kkt = kkt_fun(z)
            if np.isfinite(kkt.f):
                lam = kkt.data[0]

                def lagrangian(zz, lam=lam):
                    gj, gk = (cp.value_grad(zz, *pair)[1] for pair in
                              ((p.L_delta, p.L_nabla), (c.K_delta, c.K_nabla)))
                    return so._At(0.0, 0.0, zz, gj - lam * gk, ())

                merits.append((kkt.w, lagrangian, lambda _, kkt=kkt: kkt_model(kkt)))
                lagrangians += 1
            for zc, fun, model in merits:
                H = dense(model(fun(zc)))
                fd = fd_hessian_times(lambda zz: fun(zz).g, zc, x)
                assert np.max(np.abs(H @ x - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd)))
        assert lagrangians >= 6

    def test_model_reuses_the_evaluation_bit_for_bit(self):
        # the Hessian built on an evaluation's first-order samples equals a
        # fresh one, and samples only the three second partials per side
        rng = np.random.default_rng(14)
        for _ in range(30):
            p = random_smooth_problem(rng, 0.0, None)
            y = rng.uniform(-1, 1, len(p.scale))
            first = functional_gradient(p.scale, p.L_delta, p.L_nabla, y, factors=True)
            assert first.value == functional_gradient(p.scale, p.L_delta, p.L_nabla, y)[0]
            fresh = functional_hessian(p.scale, p.L_delta, p.L_nabla, y)
            reused = functional_hessian(p.scale, p.L_delta, p.L_nabla, y, first)
            for a, b in zip(fresh, reused):
                np.testing.assert_array_equal(a, b)

    def test_newton_step_samples_once(self, monkeypatch):
        # a Newton model is one run of the pair's second-order kernel on the
        # samples of its evaluation; no integrand program runs again
        p = VariationalProblem(uniform(0, 1, 9), parse("v^2 + sin(y)^2"),
                               parse("exp(0.5*v) + y^2"), 0.0, 1.0)
        cp = so._Compiled(p, so._base_trajectory(p))
        fun, model = so._merit(cp, p, 1e-9)
        at = fun(np.linspace(0.2, 0.8, 7))
        runs, programs = [], []
        real_kernel, real_program = va._kernel, ex.Program.__call__

        def kernel(Ld, Ln, slots):
            run = real_kernel(Ld, Ln, slots)
            return lambda *samples: runs.append(slots) or run(*samples)

        def program(self, t, yy, vv):
            programs.append(self.exprs)
            return real_program(self, t, yy, vv)

        monkeypatch.setattr(va, "_kernel", kernel)
        monkeypatch.setattr(ex.Program, "__call__", program)
        model(at)
        assert runs == [("yy", "yv", "vv")] and programs == []
        runs.clear()
        functional_hessian(p.scale, p.L_delta, p.L_nabla, cp.y)
        assert runs == [("", "y", "v"), ("yy", "yv", "vv")] and programs == []

    def test_partials_are_differentiated_once(self, monkeypatch):
        calls = []
        real = ex.differentiate
        monkeypatch.setattr(ex, "differentiate", lambda e, var: calls.append(var) or real(e, var))
        ts = uniform(0, 1, 9)
        Ld, Ln = parse("v^2 + sin(y)^2"), parse("exp(0.5*v) + y^2")
        y = np.linspace(0.0, 1.0, 9)
        for _ in range(10):
            functional_gradient(ts, Ld, Ln, y)
        assert len(calls) == 4
        for _ in range(10):
            functional_hessian(ts, Ld, Ln, y)
        assert len(calls) == 10


class TestStructuredSolve:
    def test_matches_dense_solve_on_random_spd_systems(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, 6))
            off = rng.uniform(-1, 1, n - 1)
            pad = np.abs(np.concatenate([[0.0], off])) + np.abs(np.concatenate([off, [0.0]]))
            diag = pad + rng.uniform(0.1, 2.0, n)
            U = rng.standard_normal((k, n))
            B = rng.standard_normal((k, k))
            C = B @ B.T
            b = rng.standard_normal(n)
            x = so._structured_solve(diag, off, U, C, b)
            want = np.linalg.solve(dense((diag, off, U, C)), b)
            np.testing.assert_allclose(x, want, rtol=1e-8, atol=1e-10 * np.max(np.abs(want)))

    @pytest.mark.parametrize(
        "diag, off",
        [([1.0, 1.0], [2.0]), ([0.0, 1.0], [0.0]), ([1.0, -1.0, 3.0], [0.0, 0.0]),
         ([float("nan"), 1.0], [0.0])],
    )
    def test_non_positive_pivot_is_reported(self, diag, off):
        # _ldl stops only at a zero pivot and otherwise returns every pivot,
        # NaN included; the solve refuses any pivot that is not positive
        assert so._structured_solve(np.array(diag), np.array(off), np.zeros((0, 2)),
                                    np.zeros((0, 0)), np.ones(len(diag))) is None
        fac = so._ldl(diag, off)
        assert (fac is None) == (diag[0] == 0.0)
        if fac is not None and np.isfinite(diag).all():
            T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            assert np.array_equal(np.sign(sorted(fac[0])), np.sign(np.linalg.eigvalsh(T)))

    def test_pivot_signs_are_the_inertia_of_indefinite_tridiagonals(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            diag, off = rng.uniform(-2, 2, n), rng.uniform(-2, 2, n - 1)
            piv = so._ldl(diag.tolist(), off.tolist())[0]
            ev = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
            assert np.min(np.abs(ev)) > 1e-9  # no eigenvalue near zero in this set
            assert np.count_nonzero(np.array(piv) < 0) == np.count_nonzero(ev < 0)
            x = so._structured_solve(diag, off, np.zeros((0, n)), np.zeros((0, 0)), np.ones(n))
            assert (x is None) == (min(piv) < 0)

    def test_inertia_matches_dense_eigenvalues_of_random_models(self):
        rng = np.random.default_rng(19)
        corrected = 0
        for _ in range(300):
            n, k = int(rng.integers(1, 30)), int(rng.integers(0, 5))
            diag, off = rng.uniform(-2, 2, n), rng.uniform(-1, 1, n - 1)
            if rng.random() < 0.5:  # T positive definite, as at most minima
                diag = np.abs(diag) + 2.0
            U = rng.standard_normal((k, n))
            B = rng.standard_normal((k, k))
            C = B + B.T
            ev = np.linalg.eigvalsh(dense((diag, off, U, C)))
            if np.min(np.abs(ev)) <= 1e-6 * np.max(np.abs(ev)):
                continue
            want = (np.count_nonzero(ev < 0), np.count_nonzero(ev > 0))
            assert so._inertia(diag, off, U, C) == want
            T = np.linalg.eigvalsh(dense((diag, off, U[:0], C[:0, :0])))
            corrected += np.count_nonzero(T < 0) != want[0]
        assert corrected >= 50  # the rank-k term changes the inertia of T
        assert so._inertia(np.array([0.0, 1.0]), np.array([1.0]), np.zeros((0, 2)),
                           np.zeros((0, 0))) is None  # a zero pivot
        assert so._inertia(np.zeros(3), np.zeros(2), np.ones((2, 3)), np.eye(2)) is None
        # singular to rounding: a tiny pivot, and 1 - 100*0.1^2 (-2e-16 in floats)
        assert so._inertia(np.array([1.0, 1e-17]), np.zeros(1), np.zeros((0, 2)),
                           np.zeros((0, 0))) is None
        assert so._inertia(np.ones(1), np.zeros(0), np.full((1, 1), 0.1),
                           np.full((1, 1), -100.0)) is None

    def test_indefinite_model_still_gives_a_descent_direction(self):
        g = np.array([1.0, -2.0, 0.5])
        model = (np.array([1.0, -4.0, 2.0]), np.array([0.5, 0.5]), np.zeros((0, 3)), np.zeros((0, 0)))
        d, gd, shift = so._direction(model, g, 0.0)
        assert 0.0 < shift < np.inf
        assert gd == pytest.approx(float(g @ d)) and gd < 0.0


    def test_bordered_solve_matches_dense_kkt_solve(self):
        # H = T + U^T C U with C the Lagrangian's coupling of rank 4.  Every
        # other system has one more row that subtracts 20 g g^T / |g|^2, so H
        # is indefinite but positive definite on the null space of g^T; in
        # the others the coupling is stronger and H can be indefinite there
        rng = np.random.default_rng(15)
        for i in range(60):
            n = int(rng.integers(3, 30))
            diag = rng.uniform(2.5, 4.0, n)
            off = rng.uniform(-0.5, 0.5, n - 1)
            lam = rng.uniform(-2, 2)
            C = np.kron(np.diag([1.0, -lam]), np.array([[0.0, 1.0], [1.0, 0.0]]))
            U = (0.1 if i % 2 == 0 else 0.5) * rng.standard_normal((4, n))
            g = rng.standard_normal(n)
            if i % 2 == 0:
                U = np.vstack([U, g])
                C = np.block([[C, np.zeros((4, 1))], [np.zeros((1, 4)), -20.0 / (g @ g)]])
            b, c = rng.standard_normal(n), rng.standard_normal()
            H = dense((diag, off, U, C))
            if i % 2 == 0:
                Q, _ = np.linalg.qr(np.column_stack([g, np.eye(n)]))
                reduced = np.linalg.eigvalsh(Q[:, 1:n].T @ H @ Q[:, 1:n])
                assert np.min(np.linalg.eigvalsh(H)) < 0.0 < np.min(reduced)
            K = np.block([[H, g[:, None]], [g[None, :], np.zeros((1, 1))]])
            want = np.linalg.solve(K, np.append(b, -c))[:n]
            x = so._bordered_solve(diag, off, U, C, (g, c), b)
            np.testing.assert_allclose(x, want, rtol=1e-7, atol=1e-9 * np.max(np.abs(want)))

    def test_bordered_solve_reports_a_singular_system(self):
        # a vanishing border, a zero pivot in T, and a singular H
        none = np.zeros((0, 3)), np.zeros((0, 0))
        b = np.ones(3)
        assert so._bordered_solve(np.ones(3), np.zeros(2), *none, (np.zeros(3), 1.0), b) is None
        assert so._bordered_solve(np.array([0.0, 1.0, 1.0]), np.zeros(2), *none,
                                  (np.ones(3), 1.0), b) is None
        assert so._bordered_solve(np.ones(3), np.zeros(2), np.eye(3)[:1], np.array([[-1.0]]),
                                  (np.eye(3)[1], 1.0), b) is None

def family(kind, c):
    return {
        "quad": f"v^2 + {c:.4f}*y^2",
        "sin": "v^2 + sin(y)^2",
        "exp": f"exp({c:.4f}*v) + y^2",
    }[kind]


class TestConvergence:
    @pytest.mark.parametrize(
        "n, scale, delta, nabla, free",
        [
            (10, "uniform", "quad", "quad", False),
            (14, "qscale", "sin", "quad", False),
            (20, "explicit", "exp", "quad", False),
            (39, "uniform", "sin", "sin", True),
            (54, "qscale", "exp", "sin", True),
            (75, "explicit", "quad", "exp", True),
            (105, "uniform", "sin", "exp", True),
            (150, "qscale", "exp", "exp", False),
        ],
    )
    def test_direct_solve_families_reach_the_default_tolerance(self, n, scale, delta, nabla, free):
        rng = np.random.default_rng(n)
        span = rng.uniform(1.0, 2.0)
        if scale == "uniform":
            ts = uniform(0.0, span, n)
        elif scale == "qscale":
            ts = q_scale((1.0 + span) ** (1.0 / (n - 1)), 0, n - 1)
        else:
            ts = from_points(np.cumsum(np.concatenate([[0.0], rng.uniform(0.3, 1.7, n - 1)])) * span / n)
        cd, cn = rng.uniform(0.3, 0.8, 2)
        p = VariationalProblem(ts, parse(family(delta, cd)), parse(family(nabla, cn)),
                               float(rng.uniform(0.5, 1.5)), None if free else float(rng.uniform(-1, 1)))
        cfg = SolverConfig(multistarts=2)
        rep = solve(p, cfg)
        assert cfg.grad_tol == 1e-9
        assert rep.converged and rep.grad_norm <= 1e-9
        assert max(rep.el_defect_1, rep.el_defect_2) <= 1e-8 * (1.0 + abs(rep.J))
        if free:
            assert abs(rep.bc_residual_b) <= 1e-8

    def test_large_scale_solve_has_linear_memory(self):
        # a dense n x n matrix at this size would take 3.2 GB
        n = 20001
        ts = uniform(0.0, 1.0, n)
        p = VariationalProblem(ts, parse("v^2 + y^2"), parse("v^2 + y^2"), 0.0, 1.0)
        tracemalloc.start()
        try:
            rep = solve(p, SolverConfig(multistarts=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak < 64 * 2**20
        assert max(rep.el_defect_1, rep.el_defect_2) <= 1e-8


class TestNoFloatingPointWarnings:
    def test_undefined_hessian_falls_back_to_steepest_descent(self, monkeypatch):
        # d2/dy2 of y^1.5 is undefined at the fixed y(0) = 0, so no Newton
        # model exists anywhere; the solve still ends in a finite report
        p = VariationalProblem(uniform(0.0, 1.0, 5), parse("v^2"), parse("y^1.5 + v^2"), 0.0, 1.0)
        models = []
        real = so._model
        monkeypatch.setattr(so, "_model", lambda *a: models.append(real(*a)) or models[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(p, SolverConfig(multistarts=2))
        assert models and all(m is None for m in models)
        assert np.isfinite(rep.trajectory.values).all()
        assert np.isfinite([rep.J, rep.grad_norm, rep.el_defect_1, rep.el_defect_2]).all()

    @pytest.mark.parametrize(
        "ts, delta, nabla, bc_b",
        [
            (q_scale(1.056415347293, 0, 19), "exp(0.3305*v) + y^2", "v^2 + 1.0825*y^2", 0.511),
            (uniform(0.0, 1.25, 40), "v^2 + 0.5*y^2", "exp(0.7*v) + y^2", None),
        ],
    )
    def test_solve_emits_no_runtime_warning(self, ts, delta, nabla, bc_b):
        # overflowing trial points are rejected steps, never warnings
        p = VariationalProblem(ts, parse(delta), parse(nabla), 0.52, bc_b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(p, SolverConfig(multistarts=2))
        assert rep.converged
