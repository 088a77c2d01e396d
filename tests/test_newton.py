"""The structured exact-Newton core: exact Hessians, the tridiagonal
LDL^T plus Woodbury solve, convergence at the default tolerance, linear
memory, and no floating-point warnings from a solve."""

import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import dense, random_integrand, run_alone
from tsvar import cli
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

def random_smooth_problem(rng, bc_a, bc_b, constraint=None, nmax=12):
    n = int(rng.integers(3, nmax + 1))
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
            kkt = run_alone(kkt_fun(z))
            if np.isfinite(kkt.f):
                lam = kkt.data[0]

                def lagrangian(zz, lam=lam):
                    gj = (yield from cp.value_grad(zz, p.L_delta, p.L_nabla))[1]
                    gk = (yield from cp.value_grad(zz, c.K_delta, c.K_nabla))[1]
                    return so._At(0.0, 0.0, zz, gj - lam * gk, ())

                merits.append((kkt.w, lagrangian, lambda _, kkt=kkt: kkt_model(kkt)))
                lagrangians += 1
            for zc, fun, model in merits:
                H = dense(run_alone(model(run_alone(fun(zc)))))
                fd = fd_hessian_times(lambda zz: run_alone(fun(zz)).g, zc, x)
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
        at = run_alone(fun(np.linspace(0.2, 0.8, 7)))
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
        run_alone(model(at))
        assert runs == [("yy", "yv", "vv")] and programs == []
        runs.clear()
        functional_hessian(p.scale, p.L_delta, p.L_nabla, cp.base)
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
        # _tridiag stops only at a zero pivot and otherwise returns every
        # pivot, NaN included; the solve refuses any pivot that is not positive
        n = len(diag)
        assert so._structured_solve(np.array(diag), np.array(off), np.zeros((0, n)),
                                    np.zeros((0, 0)), np.ones(n)) is None
        fac = so._tridiag(np.array(diag), np.array(off), np.zeros((0, n)))
        assert (fac is None) == (diag[0] == 0.0)
        if fac is not None and np.isfinite(diag).all():
            T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            assert np.array_equal(np.sign(sorted(fac[1])), np.sign(np.linalg.eigvalsh(T)))

    def test_one_factorization_per_solve(self, monkeypatch):
        calls = []
        real = so._tridiag
        monkeypatch.setattr(so, "_tridiag", lambda *args: calls.append(args[2].shape) or real(*args))
        rng = np.random.default_rng(23)
        n = 6
        diag, off = rng.uniform(3.0, 4.0, n), rng.uniform(-1, 1, n - 1)
        U, C = rng.standard_normal((2, n)), np.array([[0.0, 1.0], [1.0, 0.0]])
        g, b = rng.standard_normal(n), rng.standard_normal(n)
        so._structured_solve(diag, off, U, C, b)
        so._bordered_solve(diag, off, U, C, (g, 1.0), b)
        so._inertia(diag, off, U, C)
        # b and the rows of U; b, g and the rows of U; the rows of U
        assert calls == [(3, n), (4, n), (2, n)]

    def test_a_refused_try_solves_no_row(self, monkeypatch):
        # the Levenberg ladder refuses a shift at the first pivot that is not
        # positive, before any right-hand side or row of U is read
        class Rows(np.ndarray):
            def tolist(self):
                read.append(len(self))
                return np.asarray(self).tolist()

        read, tries = [], []
        real = so._tridiag

        def spy(diag, off, B, *definite):
            before = len(read)
            out = real(diag, off, B.view(Rows), *definite)
            tries.append((out is None, sum(read[before:])))
            return out

        monkeypatch.setattr(so, "_tridiag", spy)
        rng = np.random.default_rng(29)
        n = 40
        diag, off = rng.uniform(-2, 2, n), rng.uniform(-1, 1, n - 1)
        U, C = rng.standard_normal((2, n)), np.array([[0.0, 1.0], [1.0, 0.0]])
        d, gd, shift = so._direction((diag, off, U, C), rng.standard_normal(n), 0.0)
        assert gd < 0.0 and 0.0 < shift < np.inf
        assert sum(refused for refused, _ in tries) >= 2 and tries[-1] == (False, 3)
        assert all(rows == 0 for refused, rows in tries if refused)
        # without ``definite`` the same factorization returns every pivot
        assert min(real(diag, off, np.zeros((0, n)))[1]) < 0.0

    def test_pivot_signs_are_the_inertia_of_indefinite_tridiagonals(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            diag, off = rng.uniform(-2, 2, n), rng.uniform(-2, 2, n - 1)
            piv = so._tridiag(diag, off, np.zeros((0, n)))[1]
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
        assert so._inertia(np.array([1.0, 1.0]), np.array([1.0]), np.ones((2, 2)),
                           np.array([[0.0, 1.0], [1.0, 0.0]])) is None  # a zero last pivot
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

    def test_constrained_free_endpoint_residual_on_random_solves(self, monkeypatch):
        # the natural boundary condition of lambda0*J - lambda*K holds at the
        # free endpoints of 50 converged random solves; Newton is capped at
        # 50 steps (a start can crawl), and only converged solves count
        monkeypatch.setattr(so, "_MAX_STEPS", 50)
        rng = np.random.default_rng(2041)
        bcs = [(0.0, None), (None, 1.0), (None, None)]
        converged = 0
        for i in range(300):
            c = IsoperimetricConstraint(random_integrand(rng), random_integrand(rng), 0.3)
            p = random_smooth_problem(rng, *bcs[i % 3], c, nmax=3)
            try:
                rep = so.solve_isoperimetric(p, SolverConfig(multistarts=1, seed=i))
            except (so.InfeasibleConstraintError, ex.DomainViolation):
                continue
            if not rep.converged:
                continue
            for r in (rep.bc_residual_a, rep.bc_residual_b):
                assert r is None or abs(r) <= 1e-8 * (1.0 + abs(rep.J))
            converged += 1
            if converged == 50:
                break
        assert converged == 50

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


def power_merit(k, diag, off, c=None, s=0.0):
    """(fun, model) for ``so._newton`` on f = (w^T A w)^k + c.w + s*sum(cos w),
    A the symmetric tridiagonal matrix (diag, off), by hand: its Hessian is
    2k q^(k-1) A - s*diag(cos w) + k(k-1) q^(k-2) (2Aw)(2Aw)^T, q = w^T A w."""
    c = np.zeros(len(diag)) if c is None else c

    def matvec(w):
        return diag * w + np.concatenate([off * w[1:], [0.0]]) + np.concatenate([[0.0], off * w[:-1]])

    def fun(w):
        Aw = matvec(w)
        q = float(w @ Aw)
        g = 2.0 * k * q ** (k - 1) * Aw + c - s * np.sin(w)
        f = q**k + float(c @ w) + s * float(np.sum(np.cos(w)))
        return so._At(f, float(np.abs(g).max()) / 1e-9, w, g, (q, Aw))
        yield  # a generator, as ``so._newton`` runs it, that needs no kernel run

    def model(at):
        q, Aw = at.data
        scale = 2.0 * k * q ** (k - 1)
        return (scale * diag - s * np.cos(at.w), scale * off, 2.0 * Aw[None, :],
                np.array([[k * (k - 1) * q ** (k - 2)]]))
        yield

    return fun, model


class TestStepExpansion:
    """The step expansion ends with one trial at the vertex of the parabola
    through its last three points.  On a homogeneous f of degree m a Newton
    step goes 1/(m - 1) of the way to 0, and the expansion's three points
    bracket 0 so that the vertex is 0 itself for m = 4 and m = 6."""

    DIAG, OFF = np.array([2.0, 2.5, 3.0, 2.2, 1.8]), np.array([-0.7, 0.4, -0.9, 0.6])
    W0 = np.array([0.3, -0.5, 0.8, 0.1, -0.4])

    def test_quartic_reaches_zero_in_one_step(self):
        w, at, it = run_alone(so._newton(*power_merit(2, self.DIAG, self.OFF), self.W0))
        assert it <= 2 and np.abs(w).max() <= 1e-12

    @pytest.mark.parametrize("k, steps", [(3, 1), (6, 2)])
    def test_vertex_trial_saves_steps(self, monkeypatch, k, steps):
        # k = 6: samples at 4, 8 and 16 times the Newton step bracket the
        # minimum at 7, and the vertex, at 6, is not exact
        it = run_alone(so._newton(*power_merit(k, self.DIAG, self.OFF), self.W0))[2]
        monkeypatch.setattr(so, "_vertex", lambda *a: np.nan)
        without = run_alone(so._newton(*power_merit(k, self.DIAG, self.OFF), self.W0))[2]
        assert it == steps < without

    def test_vertex_not_below_the_last_doubling_is_refused(self, monkeypatch):
        # f = -x + 1000*max(0, x - 3)^2 from 0 with model 1: the step 1 is
        # doubled to 2 and refused at 4; the vertex through 1, 2 and 4 is at
        # about 1.5, above f(2), so the step ends at 2
        def fun(w):
            x = float(w[0])
            f, g = -x + 1000.0 * max(0.0, x - 3.0) ** 2, -1.0 + 2000.0 * max(0.0, x - 3.0)
            return so._At(f, abs(g) / 1e-9, w, np.array([g]), ())
            yield  # no kernel run

        def model(at):
            return np.ones(1), np.zeros(0), np.zeros((0, 1)), np.zeros((0, 0))
            yield

        real, trials = so._vertex, []
        monkeypatch.setattr(so, "_vertex", lambda *a: trials.append(real(*a)) or trials[-1])
        monkeypatch.setattr(so, "_MAX_STEPS", 1)
        w, at, it = run_alone(so._newton(fun, model, np.zeros(1)))
        assert it == 1 and w.tolist() == [2.0] and at.f == -2.0
        assert len(trials) == 1 and 1.0 < trials[0] < 2.0

    def test_accepted_values_never_rise(self, monkeypatch):
        # a model is built at every accepted iterate: their values, and the
        # end's, never rise on random convex and nonconvex merits, beyond
        # the rounding of f, where a smaller gradient also accepts a step
        rng = np.random.default_rng(27)
        real, trials = so._vertex, []
        monkeypatch.setattr(so, "_vertex", lambda *a: trials.append(real(*a)) or trials[-1])
        for _ in range(60):
            diag = rng.uniform(1.0, 3.0, 5)
            off = rng.uniform(-0.45, 0.45, 4) * np.sqrt(diag[1:] * diag[:-1])
            fun, model = power_merit(rng.uniform(1.5, 6.0), diag, off, rng.normal(0.0, 0.3, 5),
                                     rng.choice([0.0, 2.0]))
            values = []
            at = run_alone(so._newton(fun, lambda at: values.append(at.f) or model(at),
                                      rng.uniform(-2.0, 2.0, 5)))[1]
            values.append(at.f)
            assert all(b <= a + 1e-14 * (1.0 + abs(a)) for a, b in zip(values, values[1:]))
        assert len(trials) >= 20, len(trials)

    def test_free_endpoint_takes_one_step_per_start(self, monkeypatch):
        # J = (sum of mu*v^2)^2: its Hessian vanishes at the minimum y = 0,
        # where Newton alone converged linearly, 7-9 steps and 27-35
        # evaluations per start, and stopped about 1e-4 short of 0
        p = cli.parse_problem_file(cli._bundled_path("free_endpoint.problem"))[0]
        runs, real_newton = [], so._newton

        def newton(fun, model, z0):
            evals = []
            out = yield from real_newton(lambda z: evals.append(z) or fun(z), model, z0)
            runs.append((len(evals), out[2]))
            return out

        monkeypatch.setattr(so, "_newton", newton)
        rep = solve(p, SolverConfig(seed=0))
        assert len(runs) == 8 and all(steps <= 2 for _, steps in runs)
        assert sum(evals for evals, _ in runs) <= 45
        assert rep.converged and float(rep.message.rsplit(": ", 1)[1]) < 1e-8


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
