"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s or check captured output).

Criterion 3 is asserted in its strict form (an exact real self-consistency
root on refining uniform grids) and is expected to fail: the underlying
system provably has no real solutions on those grids because the limit
root is degenerate and splits into a complex pair under discretization
(discriminant -(n-2)/(2(n-1)^2) < 0).  The companion test asserts the
attainable limit statement: the least-squares stall point of the same
system recovers the limit values at first order.
"""

import time

import numpy as np

from helpers import random_gridfn, random_quadratic_problem
from tsvar import expr as ex
from tsvar.calculus import GridFunction
from tsvar.cli import load_bundled_manifest, parse_problem_text, _bundled_path
from tsvar.expr import parse
from tsvar.solver import (
    SolverConfig,
    consistency_solve,
    solve,
    solve_auto,
    solve_isoperimetric,
)
from tsvar.timescale import from_points, q_scale, uniform
from tsvar.variational import (
    IsoperimetricConstraint,
    VariationalProblem,
    el_residual_1,
    el_residual_2,
    eval_J,
    eval_J_delta,
    eval_J_nabla,
    first_variation,
    functional_gradient,
    is_K_extremal,
    natural_bc_reduced,
    natural_bc_residual_a,
    natural_bc_residual_b,
)

CFG = SolverConfig(seed=2024)


def _report(criterion, ok, detail=""):
    note = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}{note}")
    assert ok, f"criterion {criterion}{note}"


def rel_ok(a, b, tol=1e-12):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(a) + np.abs(b))))


# ---------------------------------------------------------------------------
# 1. exact identity suite on randomized scales


def test_acceptance_01_identity_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 201))
        pts = np.sort(rng.uniform(-5, 5, n))
        while np.any(np.diff(pts) < 1e-7):
            pts = np.sort(rng.uniform(-5, 5, n))
        ts = from_points(pts)
        f = rng.uniform(-2, 2, n)
        g = rng.uniform(-2, 2, n)
        mu, nu = ts.mu_values, ts.nu_values
        fd = np.diff(f) / mu[:-1]
        gd = np.diff(g) / mu[:-1]
        # shifted-value formulas
        ok &= rel_ok(f[1:], f[:-1] + mu[:-1] * fd)
        ok &= rel_ok(f[:-1], f[1:] - nu[1:] * fd)
        # product rules, both calculi, both shapes
        pd = np.diff(f * g) / mu[:-1]
        ok &= rel_ok(pd, fd * g[1:] + f[:-1] * gd)
        ok &= rel_ok(pd, fd * g[:-1] + f[1:] * gd)
        ok &= rel_ok(pd, fd * g[:-1] + f[1:] * gd)  # backward shape, same quotients
        # integral properties: linearity, scaling, orientation, additivity,
        # positivity, one-interval values
        wdel = mu[:-1]
        wnab = nu[1:]
        alpha = float(rng.uniform(-3, 3))
        for w, vals in ((wdel, f[:-1]), (wnab, f[1:])):
            total = float(np.dot(w, vals))
            gv = g[:-1] if vals is not f[1:] else g[1:]
            ok &= rel_ok(np.dot(w, vals + gv), total + np.dot(w, gv))
            ok &= rel_ok(np.dot(w, alpha * vals), alpha * total)
            c = int(rng.integers(0, n))
            ok &= rel_ok(total, np.dot(w[:c], vals[:c]) + np.dot(w[c:], vals[c:]))
        ok &= float(np.dot(wdel, np.abs(f[:-1]) + 0.1)) > 0
        i = int(rng.integers(0, n - 1))
        ok &= rel_ok(mu[i] * f[i], np.dot(wdel[i : i + 1], f[i : i + 1]))
        ok &= rel_ok(nu[i + 1] * f[i + 1], np.dot(wnab[i : i + 1], f[i + 1 : i + 2]))
        # conversion between the two integrals
        frho = f[np.maximum(np.arange(n) - 1, 0)]
        fsig = f[np.minimum(np.arange(n) + 1, n - 1)]
        ok &= rel_ok(np.dot(wdel, f[:-1]), np.dot(wnab, frho[1:]))
        ok &= rel_ok(np.dot(wnab, f[1:]), np.dot(wdel, fsig[:-1]))
        # derivative conversion: the backward quotient array IS the forward one
        ok &= rel_ok(np.diff(f) / nu[1:], fd)
        # splitting identities
        full_d = float(np.dot(wdel, f[:-1]))
        full_n = float(np.dot(wnab, f[1:]))
        ok &= rel_ok(full_d, np.dot(wdel[:-1], f[:-2]) + (pts[-1] - pts[-2]) * f[-2])
        ok &= rel_ok(full_d, (pts[1] - pts[0]) * f[0] + np.dot(wdel[1:], f[1:-1]))
        ok &= rel_ok(full_n, np.dot(wnab[:-1], f[1:-1]) + (pts[-1] - pts[-2]) * f[-1])
        ok &= rel_ok(full_n, (pts[1] - pts[0]) * f[1] + np.dot(wnab[1:], f[2:]))
        # integration by parts, all four forms
        boundary = f[-1] * g[-1] - f[0] * g[0]
        ok &= rel_ok(np.dot(wdel, fsig[:-1] * gd), boundary - np.dot(wdel, fd * g[:-1]))
        ok &= rel_ok(np.dot(wdel, f[:-1] * gd), boundary - np.dot(wdel, fd * gsig_part(g, n)))
        gn = np.diff(g) / nu[1:]
        fn = np.diff(f) / nu[1:]
        ok &= rel_ok(np.dot(wnab, frho[1:] * gn), boundary - np.dot(wnab, fn * g[1:]))
        ok &= rel_ok(
            np.dot(wnab, f[1:] * gn),
            boundary - np.dot(wnab, fn * g[np.maximum(np.arange(n) - 1, 0)][1:]),
        )
    dt = time.perf_counter() - t0
    _report(1, ok and dt < 10.0, f"200 scales in {dt:.2f}s")


def gsig_part(g, n):
    return g[np.minimum(np.arange(n) + 1, n - 1)][:-1]


# ---------------------------------------------------------------------------
# 2. straight-line extremal of the quadratic double functional


def test_acceptance_02_straight_line_extremal():
    t0 = time.perf_counter()
    ok = True
    details = []
    for ts in (uniform(0, 4, 5), q_scale(2, 0, 4)):
        p = VariationalProblem(ts, parse("v^2"), parse("v^2"), ts.a, ts.b)
        rep = solve(p, CFG)
        err = float(np.max(np.abs(rep.trajectory.values - ts.points)))
        ok &= rep.converged and err <= 1e-7
        ok &= rep.el_defect_1 <= 1e-8 and rep.el_defect_2 <= 1e-8
        details.append(f"node err {err:.1e}")
    dt = time.perf_counter() - t0
    _report(2, ok and dt < 5.0, "; ".join(details) + f"; {dt:.2f}s")


# ---------------------------------------------------------------------------
# 3. product example on refining uniform grids


def _product_problem(n):
    return VariationalProblem(uniform(0, 1, n), parse("t*v"), parse("v^2"), 0.0, 1.0)


def test_acceptance_03_consistency_root_recovery():
    # Strict form: an exact real root within 5/n of the limit pair.  This
    # fails: the discrete system has no real roots on uniform grids (the
    # limit root is degenerate; see module docstring and the ledger).
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (11, 101, 1001):
        roots = consistency_solve(_product_problem(n), CFG)
        hit = None
        for r in roots:
            if abs(r.A - 4.0 / 3.0) + abs(r.B - 1.0 / 3.0) <= 5.0 / n:
                dev = float(np.max(np.abs(r.trajectory.values
                                          - (-r.trajectory.t**2 + 2 * r.trajectory.t))))
                if dev <= 5.0 / n:
                    hit = r
        ok &= hit is not None
        details.append(f"n={n}: {len(roots)} real roots")
    dt = time.perf_counter() - t0
    _report(3, ok and dt < 60.0, "; ".join(details) + f"; {dt:.2f}s")


def test_acceptance_03_continuum_limit_recovery():
    # Attainable form of the same claim: the least-squares stall point of the
    # self-consistency system converges to (4/3, 1/3) at first order and its
    # trajectory to the limit parabola; the residual itself decays like 1/n,
    # vanishing only in the limit.
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (11, 101, 1001):
        ts = np.linspace(0, 1, n)
        mu = np.diff(ts)
        t = ts[:-1]

        def traj(A, B):
            if abs(B) < 1e-12:
                return None
            s1 = float(np.sum(mu / (2 * B)))
            s2 = float(np.sum(mu * A * t / (2 * B)))
            cc = (1.0 + s2) / s1
            return np.concatenate([[0.0], np.cumsum(mu * (cc - A * t) / (2 * B))])

        def resid(x):
            y = traj(*x)
            d = np.diff(y) / mu
            return np.array([np.sum(mu * d * d) - x[0], np.sum(mu * t * d) - x[1]])

        x = np.array([1.3, 0.35])
        lm = 1e-8
        for _ in range(300):
            Fx = resid(x)
            jac = np.zeros((2, 2))
            for j in range(2):
                h = 1e-7 * (1 + abs(x[j]))
                xp = x.copy()
                xp[j] += h
                jac[:, j] = (resid(xp) - Fx) / h
            grad = jac.T @ Fx
            if np.max(np.abs(grad)) < 1e-14:
                break
            step = np.linalg.solve(jac.T @ jac + lm * np.eye(2), -grad)
            if np.linalg.norm(resid(x + step)) <= np.linalg.norm(Fx):
                x = x + step
                lm = max(lm / 3.0, 1e-12)
            else:
                lm *= 10.0
        errab = abs(x[0] - 4.0 / 3.0) + abs(x[1] - 1.0 / 3.0)
        y = traj(*x)
        dev = float(np.max(np.abs(y - (-ts**2 + 2 * ts))))
        gap = float(np.max(np.abs(resid(x))))
        ok &= errab <= 5.0 / n and dev <= 5.0 / n and gap <= 3.0 / n
        details.append(f"n={n}: |dA|+|dB|={errab:.1e} gap={gap:.1e}")
    dt = time.perf_counter() - t0
    _report("3 (limit)", ok and dt < 60.0, "; ".join(details) + f"; {dt:.2f}s")


# ---------------------------------------------------------------------------
# 4. three-point scale: empty consistency set


def test_acceptance_04_three_point_no_real_solutions():
    t0 = time.perf_counter()
    p = VariationalProblem(from_points([0, 0.5, 1]), parse("t*v"), parse("v^2"), 0.0, 1.0)
    first = consistency_solve(p, SolverConfig(seed=77))
    second = consistency_solve(p, SolverConfig(seed=77))
    dt = time.perf_counter() - t0
    _report(4, first == [] and second == [] and dt < 5.0, f"{dt:.2f}s")


# ---------------------------------------------------------------------------
# 5. free right endpoint


def test_acceptance_05_free_endpoint_minimizer():
    p = VariationalProblem(uniform(0, 2, 3), parse("v^2"), parse("v^2"), 0.0, None)
    rep = solve(p, CFG)
    ok = (
        rep.converged
        and float(np.max(np.abs(rep.trajectory.values))) <= 1e-7
        and rep.J <= 1e-14
        and abs(rep.bc_residual_b) <= 1e-8
    )
    _report(5, ok, f"max|y|={np.max(np.abs(rep.trajectory.values)):.1e} J={rep.J:.1e}")


# ---------------------------------------------------------------------------
# 6. isoperimetric example


def _iso_problem(M):
    c = IsoperimetricConstraint(parse("t*v"), parse(f"1/{M}"), 1.0)
    return VariationalProblem(
        uniform(0, M, M + 1), parse("v^2"), parse("v^2 + v"), 0.0, float(M), c
    )


def _lattice_oracle_m3():
    """Exhaustive minimization of the hand-written M=3 objective over a
    2001^2 lattice of interior values, refined twice."""
    lo = np.array([-2.0, -2.0])
    hi = np.array([4.0, 4.0])
    best = None
    for _ in range(3):
        us = np.linspace(lo[0], hi[0], 2001)
        ws = np.linspace(lo[1], hi[1], 2001)
        U, W = np.meshgrid(us, ws, indexing="ij")
        K = 6.0 - U - W
        Q = U**2 + (W - U) ** 2 + (3.0 - W) ** 2
        J = Q * (Q + 3.0)
        h = max(us[1] - us[0], ws[1] - ws[0])
        feas = np.abs(K - 1.0) <= 0.5001 * h
        J = np.where(feas, J, np.inf)
        i, j = np.unravel_index(int(np.argmin(J)), J.shape)
        best = np.array([us[i], ws[j]])
        span = 2.0 * h
        lo, hi = best - span, best + span
    return best


def test_acceptance_06_isoperimetric_example():
    t0 = time.perf_counter()
    ok = True
    details = []
    for M in (2, 3, 4):
        p = _iso_problem(M)
        rep = solve_isoperimetric(p, CFG)
        t = np.arange(M + 1, dtype=float)
        closed = (4 * M**2 - 7 * M - 3 * M * t + 6 * t) * t / (M * (M - 1))
        node_err = float(np.max(np.abs(rep.trajectory.values - closed)))
        # multiplier consistent with the closed-form trajectory: substituting
        # it into the stationarity equation gives -12(A+B)(M-2)/(M(M-1))
        lam_formula = -12.0 * (rep.J_nabla + rep.J_delta) * (M - 2) / (M * (M - 1))
        ok &= rep.converged
        ok &= node_err <= 1e-6
        ok &= rep.constraint_error <= 1e-8
        ok &= abs(rep.lam - lam_formula) <= 1e-6
        ok &= not is_K_extremal(p, rep.trajectory, 1e-6)
        details.append(f"M={M}: node err {node_err:.1e} lam {rep.lam:.6f}")
        if M == 3:
            oracle = _lattice_oracle_m3()
            ok &= float(np.max(np.abs(rep.trajectory.values[1:3] - oracle))) <= 1e-3
            details.append(f"lattice oracle ({oracle[0]:.4f},{oracle[1]:.4f})")
    dt = time.perf_counter() - t0
    _report(6, ok, "; ".join(details) + f"; {dt:.1f}s")


# ---------------------------------------------------------------------------
# 7. reduction to the one-calculus forms


def test_acceptance_07_reductions():
    ok = True
    rng = np.random.default_rng(7)
    ts = from_points([0.0, 1.0, 2.0, 3.0, 4.0])  # dyadic span: exact weights
    Ld = parse("t*v^2 + y*v + y^2")
    Ln = parse("t*v^2 + y*v + y^2")

    # forward reduction: normalized backward integrand
    pd = VariationalProblem(ts, Ld, parse("0.25"), 0.0, 4.0)
    for _ in range(10):
        y = random_gridfn(rng, ts)
        ok &= eval_J(pd, y) == eval_J_delta(pd, y)
        # one-calculus residual assembled from the partials directly
        mu = ts.mu_values[:-1]
        tl, ysig, dy = ts.points[:-1], y.values[1:], np.diff(y.values) / mu
        d3 = np.asarray(ex.eval_arrays(ex.differentiate(Ld, "v"), tl, ysig, dy))
        d2 = np.asarray(ex.eval_arrays(ex.differentiate(Ld, "y"), tl, ysig, dy))
        reduced = d3 - np.concatenate([[0.0], np.cumsum(mu * d2)])[:-1]
        red_defect = float(np.max(np.abs(reduced - reduced.mean())))
        ok &= abs(el_residual_2(pd, y).defect - red_defect) <= 1e-10

    # forward natural boundary conditions
    pa = VariationalProblem(ts, Ld, parse("0.25"), None, 4.0)
    pb = VariationalProblem(ts, Ld, parse("0.25"), 0.0, None)
    for _ in range(10):
        y = random_gridfn(rng, ts)
        ok &= abs(natural_bc_residual_a(pa, y) - natural_bc_reduced(pa, y, "a")) <= 1e-10
        ok &= abs(natural_bc_residual_b(pb, y) - natural_bc_reduced(pb, y, "b")) <= 1e-10
        ok &= (
            natural_bc_reduced(pb, y, "b", "integral")
            == natural_bc_reduced(pb, y, "b", "product")
        )

    # backward mirror
    pn = VariationalProblem(ts, parse("0.25"), Ln, 0.0, 4.0)
    for _ in range(10):
        y = random_gridfn(rng, ts)
        ok &= eval_J(pn, y) == eval_J_nabla(pn, y)
        nu = ts.nu_values[1:]
        tr, yrho, ny = ts.points[1:], y.values[:-1], np.diff(y.values) / nu
        d3 = np.asarray(ex.eval_arrays(ex.differentiate(Ln, "v"), tr, yrho, ny))
        d2 = np.asarray(ex.eval_arrays(ex.differentiate(Ln, "y"), tr, yrho, ny))
        reduced = d3 - np.cumsum(nu * d2)
        red_defect = float(np.max(np.abs(reduced - reduced.mean())))
        ok &= abs(el_residual_1(pn, y).defect - red_defect) <= 1e-10
    pna = VariationalProblem(ts, parse("0.25"), Ln, None, 4.0)
    pnb = VariationalProblem(ts, parse("0.25"), Ln, 0.0, None)
    for _ in range(10):
        y = random_gridfn(rng, ts)
        ok &= abs(natural_bc_residual_a(pna, y) - natural_bc_reduced(pna, y, "a")) <= 1e-10
        ok &= (
            natural_bc_reduced(pna, y, "a", "integral")
            == natural_bc_reduced(pna, y, "a", "product")
        )
        ok &= abs(natural_bc_residual_b(pnb, y) - natural_bc_reduced(pnb, y, "b")) <= 1e-10
    _report(7, ok)


# ---------------------------------------------------------------------------
# 8. gradient and first-variation checks


def test_acceptance_08_gradient_and_first_variation():
    rng = np.random.default_rng(8)
    ok = True
    worst_g = worst_fv = 0.0
    for _ in range(100):
        p = random_quadratic_problem(rng)
        ts = p.scale
        y = random_gridfn(rng, ts).values
        val, grad = functional_gradient(ts, p.L_delta, p.L_nabla, y)
        h = 1e-6
        j = int(rng.integers(0, len(ts)))
        up, dn = y.copy(), y.copy()
        up[j] += h
        dn[j] -= h
        fd = (
            functional_gradient(ts, p.L_delta, p.L_nabla, up)[0]
            - functional_gradient(ts, p.L_delta, p.L_nabla, dn)[0]
        ) / (2 * h)
        gerr = abs(grad[j] - fd) / (1.0 + abs(fd))
        worst_g = max(worst_g, gerr)
        ok &= gerr <= 1e-5
        # pairing against a directional finite difference
        ev = rng.uniform(-1, 1, len(ts))
        ev[0] = ev[-1] = 0.0
        yf = GridFunction(ts, y)
        fv = first_variation(p, yf, GridFunction(ts, ev))
        fd2 = (
            eval_J(p, GridFunction(ts, y + h * ev)) - eval_J(p, GridFunction(ts, y - h * ev))
        ) / (2 * h)
        fverr = abs(fv - fd2) / (1.0 + abs(fd2))
        worst_fv = max(worst_fv, fverr)
        ok &= fverr <= 1e-5
    _report(8, ok, f"worst gradient rel err {worst_g:.1e}; pairing {worst_fv:.1e}")


# ---------------------------------------------------------------------------
# 9. stationarity implies constant residuals (both forms)


def test_acceptance_09_converged_solves_have_constant_residuals():
    ok = True
    details = []
    manifest = load_bundled_manifest()
    for case in manifest["cases"]:
        problem, _ = parse_problem_text(
            _bundled_path(case["problem"]).read_text(encoding="utf-8")
        )
        report = solve_auto(problem, CFG)[0]
        if report is None or not report.converged:
            details.append(f"{case['id']}: no converged extremal")
            continue
        lam_mag = abs(report.lam) if report.lam is not None else 0.0
        bound = 10 * CFG.grad_tol * (1.0 + abs(report.J) + lam_mag)
        ok &= report.el_defect_1 <= bound and report.el_defect_2 <= bound
        details.append(f"{case['id']}: defects {max(report.el_defect_1, report.el_defect_2):.1e}")
    rng = np.random.default_rng(9)
    converged = 0
    attempts = 0
    while converged < 20 and attempts < 60:
        attempts += 1
        p = random_quadratic_problem(rng, coercive=True, nmax=9)
        rep = solve(p, SolverConfig(seed=attempts))
        if not rep.converged:
            continue
        bound = 10 * CFG.grad_tol * (1.0 + abs(rep.J))
        ok &= rep.el_defect_1 <= bound and rep.el_defect_2 <= bound
        converged += 1
    ok &= converged == 20
    _report(9, ok, f"{converged} random converged solves; " + "; ".join(details[:4]))
