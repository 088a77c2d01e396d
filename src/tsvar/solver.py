"""Direct numerical extremization of the discretized product functional.

The free node values (interior nodes plus any free endpoint, always one
contiguous block) are optimized directly by one exact-Newton core.  Each
sample of J = J_delta * J_nabla couples two neighbouring nodes, so the exact
Hessian is Jn*Hd + Jd*Hn + gd gn^T + gn gd^T: a tridiagonal matrix built
from the exact second partials of the integrands
(``variational.functional_hessian``) plus a rank-2 term.  A Newton step is
an LDL^T factorization of the tridiagonal part and a Woodbury correction for
the low-rank part, O(n) time and memory; no n x n array is ever formed.

One globalisation keeps every step a descent step:

- a Levenberg shift tau*I on the tridiagonal part when a pivot is not
  positive or the step is not a descent direction, and the steepest-descent
  direction when no shift helps or the Hessian is undefined;
- Armijo backtracking from the full step; where the predicted decrease is
  below what f resolves in double precision, a smaller gradient also
  accepts the step, so the default grad_tol = 1e-9 is reachable;
- step expansion: a full step that was shifted, or that fell by more than
  the quadratic model predicted, is doubled while the value keeps falling,
  which ends unbounded searches (value below -1e100) quickly and crosses
  the exp(c*v) regime, where a pure Newton step moves v by only about 1/c.

Trial points whose value or gradient is undefined (``DomainViolation``) or
not finite are rejected steps.  Because the product of two integral
functionals is nonconvex, every solve multistarts from seeded random
perturbations of the straight-line interpolant between the boundary values;
a report's ``iterations`` counts the Newton steps of the reported start.

Isoperimetric problems are handled by an augmented Lagrangian around the
same Newton core, with multiplier updates lam <- lam - penalty*(K - k) and
a fallback to the abnormal multiplier pair (0, 1) when the candidate is an
extremal of the constraint functional itself.  Each merit function adds its
own terms to the same structure: for J - lam*r + pen*r^2/2 with r = K - k
they are (pen*r - lam)*HK and pen*gradK gradK^T, so the low rank is at most 5.

For problems whose stationarity equation is affine in the derivative slot
(state-independent integrands), ``consistency_solve`` instead solves the
stationarity equation exactly for a given pair (A, B) of functional values
and then closes the loop A = J_nabla(y), B = J_delta(y) by damped Newton
over a seeded box of starting points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import variational as va
from .calculus import GridFunction

__all__ = [
    "SolverConfig",
    "SolveReport",
    "ConsistencyRoot",
    "InfeasibleConstraintError",
    "solve",
    "solve_isoperimetric",
    "consistency_solve",
    "probe_extremal_type",
    "is_affine_class",
]


class InfeasibleConstraintError(RuntimeError):
    """No trajectory met the constraint within tolerance across multistarts."""


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-9
    constraint_tol: float = 1e-8
    max_iter: int = 10000
    multistarts: int = 8
    seed: int = 0
    penalty_growth: float = 10.0
    ab_box: float = 10.0  # seed box half-width for the (A, B) root search
    consistency_starts: int = 64

    def __post_init__(self):
        for name in (
            "grad_tol",
            "constraint_tol",
            "max_iter",
            "multistarts",
            "penalty_growth",
            "ab_box",
            "consistency_starts",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"solver config field {name} must be positive")


@dataclass(frozen=True)
class SolveReport:
    trajectory: GridFunction
    J_delta: float
    J_nabla: float
    J: float
    el_defect_1: float
    el_defect_2: float
    converged: bool
    iterations: int
    multistart_index: int
    grad_norm: float
    lambda0: float | None = None
    lam: float | None = None
    constraint_error: float | None = None
    bc_residual_a: float | None = None
    bc_residual_b: float | None = None
    extension: bool = False
    message: str = ""


@dataclass(frozen=True)
class ConsistencyRoot:
    A: float
    B: float
    trajectory: GridFunction


# ---------------------------------------------------------------------------
# Structured linear algebra: tridiagonal LDL^T plus a low-rank correction


def _ldl(diag, off):
    """LDL^T factors (pivots, multipliers) of the symmetric tridiagonal
    matrix with main diagonal ``diag`` and off-diagonal ``off`` (sequences
    of Python floats), or None as soon as a pivot is not positive."""
    d = diag[0]
    if not d > 0.0:
        return None
    piv, mult = [d], []
    for a, b in zip(diag[1:], off):
        m = b / d
        d = a - m * b
        if not d > 0.0:
            return None
        mult.append(m)
        piv.append(d)
    return piv, mult


def _ldl_solve(fac, b):
    """Solve L D L^T x = b for one right-hand side (a list of floats)."""
    piv, mult = fac
    y = [b[0]]
    for bi, m in zip(b[1:], mult):
        y.append(bi - m * y[-1])
    x = [y[-1] / piv[-1]]
    for yi, p, m in zip(reversed(y[:-1]), reversed(piv[:-1]), reversed(mult)):
        x.append(yi / p - m * x[-1])
    x.reverse()
    return x


def _structured_solve(diag, off, U, C, b):
    """Solve (T + U^T C U) x = b, T the tridiagonal matrix (diag, off), U a
    k x n array of rows and C a k x k array, by LDL^T of T and the Woodbury
    identity.  Returns None when T has a non-positive pivot or the k x k
    capacitance system is singular."""
    fac = _ldl(diag.tolist(), off.tolist())
    if fac is None:
        return None
    x = np.array(_ldl_solve(fac, b.tolist()))
    if len(U) == 0:
        return x
    Z = np.array([_ldl_solve(fac, u) for u in U.tolist()])
    try:
        w = np.linalg.solve(np.eye(len(U)) + C @ (U @ Z.T), C @ (U @ x))
    except np.linalg.LinAlgError:
        return None
    return x - Z.T @ w


def _model(terms, rank_one=()):
    """Tridiagonal-plus-low-rank form (diag, off, U, C) of the Hessian
    sum(c * H for c, H in terms) + sum(w * u u^T for w, u in rank_one), each
    H a free-block ``va.ProductHessian``; None when an H is missing."""
    if any(H is None for _, H in terms):
        return None
    diag = sum(c * H.diag for c, H in terms)
    off = sum(c * H.off for c, H in terms)
    rows = [u for _, H in terms for u in (H.grad_delta, H.grad_nabla)]
    rows += [u for _, u in rank_one]
    C = np.zeros((len(rows), len(rows)))
    for i, (c, _) in enumerate(terms):
        C[2 * i, 2 * i + 1] = C[2 * i + 1, 2 * i] = c
    for j, (w, _) in enumerate(rank_one, start=2 * len(terms)):
        C[j, j] = w
    return diag, off, np.array(rows), C


# ---------------------------------------------------------------------------
# Exact-Newton core with one globalisation


_SHIFT_TRIES = 16
_MAX_EXPANSION = 2.0**50


def _direction(model, g, shift_prev):
    """Newton direction d = -(H + tau I)^{-1} g on the structured Hessian
    model, with the Levenberg shift tau on its tridiagonal part.

    The shift is kept relative to the size of the model.  It starts from 0,
    or from a tenth of the previous iteration's relative shift, and rises
    tenfold while a pivot is not positive or g.d is not negative.  Returns
    (d, g.d, relative shift); a shift of inf marks the fallback
    d = -g / max|g|, taken when the model is missing or no shift gives a
    descent direction.
    """
    if model is not None:
        diag, off, U, C = model
        scale = float(max(np.max(np.abs(diag)), np.max(np.abs(off), initial=0.0)))
        if scale == 0.0 and len(U):
            scale = float(np.max(np.abs(C)) * np.max(np.abs(U)) ** 2)
        if np.isfinite(scale) and scale > 0.0:
            shift = shift_prev / 10.0 if 1e-11 <= shift_prev < np.inf else 0.0
            for _ in range(_SHIFT_TRIES):
                d = _structured_solve(diag + shift * scale, off, U, C, -g)
                gd = float(g @ d) if d is not None else np.nan
                if np.isfinite(gd) and gd < 0.0:
                    return d, gd, shift
                shift = 10.0 * shift if shift else 1e-12
    gmax = float(np.max(np.abs(g)))
    d = -g / gmax
    return d, -gmax * float(d @ d), np.inf


def _newton(fun, hess, z0, accept_tol, max_iter):
    """Minimize fun from z0 by exact-Newton steps on the structured Hessian.

    ``fun(z)`` returns (value, gradient), or (inf, None) where the objective
    is undefined or not finite; ``hess(z)`` returns the ``_model`` form of
    the Hessian at an accepted iterate, or None.  Steps are globalised by
    Armijo backtracking from alpha = 1, and a full step that may be too
    short is expanded.  Returns (z, f, g, iterations, converged); drives the
    gradient well below ``accept_tol`` when possible and reports convergence
    against it.
    """
    z = np.asarray(z0, dtype=float)
    with np.errstate(all="ignore"):
        f, g = fun(z)
        it = 0
        if not np.isfinite(f):
            return z, f, g, it, False
        target = accept_tol * 1e-3
        if z.size == 0:
            return z, f, g, it, True
        shift = 0.0
        while it < max_iter and np.max(np.abs(g)) > target:
            if f < -1e100:  # objective unbounded below along this start
                break
            d, gd, shift = _direction(hess(z), g, shift)
            # Once the predicted decrease is below what f resolves in double
            # precision, a smaller max|g| also accepts the step: comparing
            # values alone would stall at about |g| ~ 1e-8.
            flat = -gd <= 1e-12 * (1.0 + abs(f))
            gmax = np.max(np.abs(g))
            alpha, accepted = 1.0, False
            while alpha >= 1e-20:
                zn = z + alpha * d
                fn, gn = fun(zn)
                if fn <= f + 1e-4 * alpha * gd or (
                    flat and np.isfinite(fn) and np.max(np.abs(gn)) < gmax
                ):
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break
            # A full step may be too short: when it was shifted, or when it
            # fell by over 1.2 times the -gd/2 that the quadratic model
            # predicts (as in the exp(c*v) regime, where it moves v by 1/c),
            # keep doubling it while the value keeps falling.
            if alpha == 1.0 and (shift > 0.0 or f - fn > -0.6 * gd):
                while fn >= -1e100 and alpha < _MAX_EXPANSION:
                    zt = z + 2.0 * alpha * d
                    ft, gt = fun(zt)
                    if not ft < fn:
                        break
                    alpha, zn, fn, gn = 2.0 * alpha, zt, ft, gt
            stalled = fn >= f - 1e-16 * (1.0 + abs(f)) and float(
                np.max(np.abs(zn - z))
            ) <= 1e-14 * (1.0 + float(np.max(np.abs(z))))
            z, f, g = zn, fn, gn
            it += 1
            if stalled:
                break
    return z, f, g, it, bool(np.max(np.abs(g)) <= accept_tol)


def _finite(val, grad):
    """(val, grad), or (inf, None) when either is not finite: a rejected
    step, like a trial point where an integrand is undefined."""
    if not (np.isfinite(val) and np.isfinite(grad).all()):
        return np.inf, None
    return val, grad


# ---------------------------------------------------------------------------
# Shared plumbing


class _Compiled:
    """A problem compiled once for the solvers: its free nodes, which always
    form one contiguous block [lo, hi), and a work trajectory that carries
    the fixed values.  Every trial point is evaluated through
    ``va.functional_gradient`` and every Newton model through
    ``va.functional_hessian``, with partials differentiated once."""

    def __init__(self, p: va.VariationalProblem, base: np.ndarray):
        n = len(p.scale)
        self.scale = p.scale
        self.lo = 0 if p.bc_a is None else 1
        self.hi = n if p.bc_b is None else n - 1
        self.y = base.copy()

    def trajectory(self, z) -> GridFunction:
        y = self.y.copy()
        y[self.lo : self.hi] = z
        return GridFunction(self.scale, y)

    def _at(self, z) -> np.ndarray:
        self.y[self.lo : self.hi] = z
        return self.y

    def value_grad(self, z, Ld, Ln):
        """Value and free-block gradient of the product functional of
        (Ld, Ln) at z; (inf, None) where it is undefined or not finite."""
        try:
            with np.errstate(all="ignore"):
                val, grad = va.functional_gradient(self.scale, Ld, Ln, self._at(z))
        except ex.DomainViolation:
            return np.inf, None
        return _finite(val, grad[self.lo : self.hi])

    def hessian(self, z, Ld, Ln):
        """``va.ProductHessian`` of (Ld, Ln) restricted to the free block, or
        None where it is undefined or not finite."""
        try:
            with np.errstate(all="ignore"):
                H = va.functional_hessian(self.scale, Ld, Ln, self._at(z))
        except ex.DomainViolation:
            return None
        lo, hi = self.lo, self.hi
        H = H._replace(grad_delta=H.grad_delta[lo:hi], grad_nabla=H.grad_nabla[lo:hi],
                       diag=H.diag[lo:hi], off=H.off[lo : hi - 1])
        if not all(np.isfinite(part).all() for part in H):
            return None
        return H


def _merit(cp: _Compiled, p: va.VariationalProblem, a=1.0, b=0.0, q=0.0):
    """(fun, hess) for ``_newton``: the merit a*J + b*r + q*r^2/2 on the free
    block, with r = K - k.

    Its gradient is a*gradJ + (b + q*r)*gradK and its Hessian
    a*HJ + (b + q*r)*HK + q*gradK gradK^T.  ``solve`` minimizes J alone, the
    augmented Lagrangian takes b = -lambda and q = penalty, and the abnormal
    branch restores feasibility with r^2/2 alone.
    """
    Ld, Ln = p.L_delta, p.L_nabla
    c = p.constraint if (b or q) else None

    def fun(z):
        val, grad = 0.0, 0.0
        if a:
            jval, jgrad = cp.value_grad(z, Ld, Ln)
            if jgrad is None:
                return np.inf, None
            val, grad = a * jval, a * jgrad
        if c is not None:
            kval, kgrad = cp.value_grad(z, c.K_delta, c.K_nabla)
            if kgrad is None:
                return np.inf, None
            r = kval - c.k
            val, grad = val + b * r + 0.5 * q * r * r, grad + (b + q * r) * kgrad
        return _finite(val, grad)

    def hess(z):
        terms = [(a, cp.hessian(z, Ld, Ln))] if a else []
        rank_one = []
        if c is not None:
            HK = cp.hessian(z, c.K_delta, c.K_nabla)
            if HK is None:
                return None
            r = HK.J_delta * HK.J_nabla - c.k
            terms.append((b + q * r, HK))
            rank_one.append((q, HK.gradient))
        return _model(terms, rank_one)

    return fun, hess


def _base_trajectory(p: va.VariationalProblem) -> np.ndarray:
    pts = p.scale.points
    alpha = p.bc_a if p.bc_a is not None else (p.bc_b if p.bc_b is not None else 0.0)
    beta = p.bc_b if p.bc_b is not None else alpha
    y = alpha + (pts - pts[0]) * (beta - alpha) / (pts[-1] - pts[0])
    if p.bc_a is not None:
        y[0] = p.bc_a
    if p.bc_b is not None:
        y[-1] = p.bc_b
    return y


def _perturb_amplitude(p: va.VariationalProblem) -> float:
    alpha = p.bc_a if p.bc_a is not None else 0.0
    beta = p.bc_b if p.bc_b is not None else 0.0
    return 0.5 * (abs(alpha) + abs(beta) + 1.0)


def _starts(p: va.VariationalProblem, cfg: SolverConfig):
    """The compiled problem and its multistarts: the straight-line
    interpolant, then seeded random perturbations of it."""
    rng = np.random.default_rng(cfg.seed)
    cp = _Compiled(p, _base_trajectory(p))
    z = cp.y[cp.lo : cp.hi]
    amp = _perturb_amplitude(p)
    out = [z.copy()]
    for _ in range(cfg.multistarts - 1):
        out.append(z + amp * rng.standard_normal(z.size))
    return cp, out


def _finish_report(
    p: va.VariationalProblem,
    y: GridFunction,
    converged: bool,
    iterations: int,
    index: int,
    grad_norm: float,
    **extra,
) -> SolveReport:
    Jd = va.eval_J_delta(p, y)
    Jn = va.eval_J_nabla(p, y)
    report = SolveReport(
        trajectory=y,
        J_delta=Jd,
        J_nabla=Jn,
        J=Jd * Jn,
        el_defect_1=va.el_residual_1(p, y).defect,
        el_defect_2=va.el_residual_2(p, y).defect,
        converged=converged,
        iterations=iterations,
        multistart_index=index,
        grad_norm=grad_norm,
        bc_residual_a=None if p.bc_a is not None else va.natural_bc_residual_a(p, y),
        bc_residual_b=None if p.bc_b is not None else va.natural_bc_residual_b(p, y),
        **extra,
    )
    return report


def solve(p: va.VariationalProblem, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Find a stationary point of the unconstrained discretized functional.

    Returns the converged multistart with the smallest objective value; when
    no start converges, the best iterate is reported with converged=False.
    """
    if p.constraint is not None:
        raise ValueError("problem is constrained; use solve_isoperimetric")
    cp, starts = _starts(p, cfg)
    fun, hess = _merit(cp, p)
    candidates = []
    for s, z0 in enumerate(starts):
        z, f, g, it, ok = _newton(fun, hess, z0, cfg.grad_tol, cfg.max_iter)
        if np.isfinite(f):
            candidates.append((s, z, f, float(np.max(np.abs(g), initial=0.0)), it, ok))
    if not candidates:
        raise ex.DomainViolation("objective undefined at every multistart")

    converged = [c for c in candidates if c[5]]
    if converged:
        s, z, f, gn, it, _ = min(converged, key=lambda c: (c[2], c[0]))
        ok = True
    else:
        s, z, f, gn, it, ok = min(candidates, key=lambda c: (c[3], c[0]))
    traj = cp.trajectory(z)
    message = "stationary point found" if ok else "did not converge; best iterate"
    if len(converged) > 1:
        # multimodality diagnostic: how far apart the converged starts landed
        spread = max(
            va.weak_norm(traj, cp.trajectory(c[1])) for c in converged if c[0] != s
        )
        message += (
            f"; weak-norm spread across {len(converged)} converged starts: {spread:.3g}"
        )
    return _finish_report(p, traj, ok, it, s, gn, message=message)


# ---------------------------------------------------------------------------
# Isoperimetric solving


def solve_isoperimetric(
    p: va.VariationalProblem, cfg: SolverConfig = SolverConfig()
) -> SolveReport:
    """Augmented-Lagrangian solve of extremize J subject to K(y) = k.

    The normal branch (lambda0 = 1) is attempted first; if the candidate
    turns out to be an extremal of K itself, the abnormal pair (0, 1) is
    reported instead.  For constrained reports el_defect_1/2 hold the
    defects of the multiplier residual at the reported (lambda0, lambda).
    """
    c = va._require_constraint(p)
    cp, starts = _starts(p, cfg)
    Ld, Ln, Kd, Kn = p.L_delta, p.L_nabla, c.K_delta, c.K_nabla
    feas_target = min(cfg.constraint_tol, 1e-10)

    def alm(z0):
        lam, pen = 0.0, 10.0
        z = np.asarray(z0, float)
        total_it = 0
        feas_prev = np.inf
        stagnant = 0
        for _ in range(60):
            merit, merit_hess = _merit(cp, p, 1.0, -lam, pen)
            z, _, _, it, _ = _newton(merit, merit_hess, z, cfg.grad_tol, cfg.max_iter)
            total_it += it
            jval, jgrad = cp.value_grad(z, Ld, Ln)
            kval, kgrad = cp.value_grad(z, Kd, Kn)
            if jgrad is None or kgrad is None:
                return None
            r = kval - c.k
            lam = lam - pen * r
            lag_gn = float(np.max(np.abs(jgrad - lam * kgrad), initial=0.0))
            if abs(r) <= feas_target and lag_gn <= cfg.grad_tol:
                return dict(z=z, lam=lam, J=jval, feas=abs(r), lag_gn=lag_gn,
                            it=total_it, converged=True)
            stagnant = stagnant + 1 if abs(r) >= 0.9 * feas_prev and it == 0 else 0
            if stagnant >= 3:
                break
            # penalty growth stops once feasible: beyond that it only
            # ill-conditions the tangential subproblem
            if pen < 1e8 and abs(r) > feas_target:
                pen *= cfg.penalty_growth
            feas_prev = abs(r)
        return dict(z=z, lam=lam, J=jval, feas=abs(r), lag_gn=lag_gn,
                    it=total_it, converged=False)

    results = []
    for s, z0 in enumerate(starts):
        res = alm(z0)
        if res is not None:
            res["index"] = s
            results.append(res)
    if not results:
        raise ex.DomainViolation("objective undefined at every multistart")
    converged = [r for r in results if r["converged"]]
    if converged:
        best = min(converged, key=lambda r: (r["J"], r["index"]))
    else:
        best = min(results, key=lambda r: (r["feas"], r["lag_gn"], r["index"]))
        if best["feas"] > max(1e-3 * (1.0 + abs(c.k)), 10 * cfg.constraint_tol):
            raise InfeasibleConstraintError(
                f"constraint K(y) = {c.k!r} unmet across multistarts "
                f"(best |K - k| = {best['feas']:.3e})"
            )

    traj = cp.trajectory(best["z"])
    kprob = va._as_constraint_problem(p)
    kres1, kres2 = va.el_residual_1(kprob, traj), va.el_residual_2(kprob, traj)
    abnormal_tol = 1e-6 * (1.0 + abs(kres1.mean) + abs(kres2.mean))
    abnormal = max(kres1.defect, kres2.defect) <= abnormal_tol

    if abnormal:
        if best["feas"] > cfg.constraint_tol:
            # restore feasibility along the abnormal branch: minimize r^2/2
            feas_merit, feas_hess = _merit(cp, p, 0.0, 0.0, 1.0)
            z, _, _, it, _ = _newton(feas_merit, feas_hess, best["z"], cfg.grad_tol, cfg.max_iter)
            feas = abs(cp.value_grad(z, Kd, Kn)[0] - c.k)
            best = dict(best, z=z, it=best["it"] + it, feas=feas)
            traj = cp.trajectory(best["z"])
        lambda0, lam = 0.0, 1.0
        conv = best["feas"] <= cfg.constraint_tol
        message = "abnormal extremal (candidate is an extremal of K)"
    else:
        lambda0, lam = 1.0, best["lam"]
        conv = best["converged"]
        message = "normal extremal" if conv else "did not converge; best iterate"

    iso1 = va.iso_residual(p, traj, lambda0, lam, "el1")
    iso2 = va.iso_residual(p, traj, lambda0, lam, "el2")
    Jd, Jn = va.eval_J_delta(p, traj), va.eval_J_nabla(p, traj)
    return SolveReport(
        trajectory=traj,
        J_delta=Jd,
        J_nabla=Jn,
        J=Jd * Jn,
        el_defect_1=iso1.defect,
        el_defect_2=iso2.defect,
        converged=conv,
        iterations=best["it"],
        multistart_index=best["index"],
        grad_norm=best["lag_gn"],
        lambda0=lambda0,
        lam=lam,
        constraint_error=best["feas"],
        bc_residual_a=None if p.bc_a is not None else va.natural_bc_residual_a(p, traj),
        bc_residual_b=None if p.bc_b is not None else va.natural_bc_residual_b(p, traj),
        extension=(p.bc_a is None or p.bc_b is None),
        message=message,
    )


# ---------------------------------------------------------------------------
# Self-consistency solving for derivative-affine problems


def is_affine_class(p: va.VariationalProblem) -> bool:
    """True when both integrands are state-independent with derivative-affine
    slope, so the stationarity equation is linear in the difference quotient."""
    for L in (p.L_delta, p.L_nabla):
        if not ex.is_zero(ex.differentiate(L, "y")):
            return False
        d3 = ex.differentiate(L, "v")
        if ex.depends_on(d3, "y"):
            return False
        if ex.depends_on(ex.differentiate(d3, "v"), "v"):
            return False
    return True


def _consistency_trajectory(p, A, B, pieces):
    """Solve A*slopeterm + B*slopeterm(sigma) = C for y, with C pinned by the
    right boundary value; returns None when the linear solve degenerates."""
    pd, qd, pn_sig, qn_sig, mu = pieces
    denom = A * qd + B * qn_sig
    scale = abs(A) + abs(B) + 1.0
    if np.min(np.abs(denom)) < 1e-12 * scale:
        return None
    cvec = A * pd + B * pn_sig
    s1 = float(np.sum(mu / denom))
    s2 = float(np.sum(mu * cvec / denom))
    if abs(s1) < 1e-12:
        return None
    C = (p.bc_b - p.bc_a + s2) / s1
    d = (C - cvec) / denom
    y = np.concatenate([[p.bc_a], p.bc_a + np.cumsum(mu * d)])
    return y


def consistency_solve(
    p: va.VariationalProblem, cfg: SolverConfig = SolverConfig()
) -> list[ConsistencyRoot]:
    """All distinct real solutions (A, B) of the self-consistency system

        A = J_nabla(y_{A,B}),   B = J_delta(y_{A,B}),

    where y_{A,B} solves the derivative-affine stationarity equation with the
    problem's boundary values.  Damped Newton from ``consistency_starts``
    seeds in the (A, B) box; roots deduplicated at distance 1e-6 and sorted.
    An empty list means no self-consistent extremal exists.
    """
    if p.constraint is not None:
        raise ValueError("consistency_solve handles unconstrained problems only")
    if p.bc_a is None or p.bc_b is None:
        raise ValueError("consistency_solve needs both endpoint values fixed")
    if not is_affine_class(p):
        raise ValueError(
            "problem is not in the affine class "
            "(state-independent integrands, derivative-affine slopes)"
        )
    ts = p.scale
    mu = ts.mu_values[:-1]
    t_left = ts.points[:-1]
    t_sig = ts.points[1:]
    zeros = np.zeros_like(t_left)
    d3d = ex.differentiate(p.L_delta, "v")
    d3n = ex.differentiate(p.L_nabla, "v")
    pd = np.broadcast_to(ex.eval_arrays(d3d, t_left, zeros, zeros), t_left.shape).astype(float)
    qd = np.broadcast_to(
        ex.eval_arrays(ex.differentiate(d3d, "v"), t_left, zeros, zeros), t_left.shape
    ).astype(float)
    pn_sig = np.broadcast_to(ex.eval_arrays(d3n, t_sig, zeros, zeros), t_sig.shape).astype(float)
    qn_sig = np.broadcast_to(
        ex.eval_arrays(ex.differentiate(d3n, "v"), t_sig, zeros, zeros), t_sig.shape
    ).astype(float)
    pieces = (pd, qd, pn_sig, qn_sig, mu)

    def system(x):
        y = _consistency_trajectory(p, x[0], x[1], pieces)
        if y is None:
            return None
        try:
            dvals = np.diff(y) / mu
            jd = float(np.dot(mu, np.broadcast_to(
                ex.eval_arrays(p.L_delta, t_left, y[1:], dvals), t_left.shape)))
            jn = float(np.dot(ts.nu_values[1:], np.broadcast_to(
                ex.eval_arrays(p.L_nabla, t_sig, y[:-1], dvals), t_sig.shape)))
        except ex.DomainViolation:
            return None
        return np.array([jn - x[0], jd - x[1]]), y

    def newton(x0):
        x = np.asarray(x0, float)
        for _ in range(100):
            out = system(x)
            if out is None:
                return None
            Fx, _ = out
            nrm = float(np.max(np.abs(Fx)))
            if nrm <= 1e-10 * (1.0 + float(np.max(np.abs(x)))):
                return x
            jac = np.zeros((2, 2))
            for j in range(2):
                h = 1e-7 * (1.0 + abs(x[j]))
                xp = x.copy()
                xp[j] += h
                outp = system(xp)
                if outp is None:
                    return None
                jac[:, j] = (outp[0] - Fx) / h
            try:
                step = np.linalg.solve(jac, -Fx)
            except np.linalg.LinAlgError:
                return None
            norm0 = float(np.linalg.norm(Fx))
            lamb, moved = 1.0, False
            while lamb >= 1e-12:
                cand = x + lamb * step
                outc = system(cand)
                if outc is not None and float(np.linalg.norm(outc[0])) < norm0:
                    x, moved = cand, True
                    break
                lamb *= 0.5
            if not moved:
                return None
        return None

    rng = np.random.default_rng(cfg.seed)
    seeds = rng.uniform(-cfg.ab_box, cfg.ab_box, size=(cfg.consistency_starts, 2))
    roots: list[np.ndarray] = []
    for x0 in seeds:
        r = newton(x0)
        if r is None:
            continue
        if any(np.linalg.norm(r - q) <= 1e-6 for q in roots):
            continue
        roots.append(r)
    roots.sort(key=lambda r: (r[0], r[1]))
    out = []
    for r in roots:
        _, y = system(r)
        out.append(ConsistencyRoot(float(r[0]), float(r[1]), GridFunction(ts, y)))
    return out


# ---------------------------------------------------------------------------
# Second-order probing


def probe_extremal_type(
    p: va.VariationalProblem, y: GridFunction, cfg: SolverConfig = SolverConfig()
) -> str:
    """Random-direction second-difference probe at a stationary trajectory.

    Returns one of 'local-min-indication', 'local-max-indication',
    'saddle-indication', 'inconclusive'.  The probe is heuristic: a 0.9
    majority of positive (negative) curvatures indicates a minimum (maximum).
    """
    r1 = va.el_residual_1(p, y)
    r2 = va.el_residual_2(p, y)
    Jval = va.eval_J(p, y)
    stat_tol = 10.0 * cfg.grad_tol * (1.0 + abs(Jval))
    if max(r1.defect, r2.defect) > stat_tol:
        raise ValueError(
            f"trajectory is not stationary (defect {max(r1.defect, r2.defect):.3e})"
        )
    cp = _Compiled(p, y.values)
    z0 = cp.y[cp.lo : cp.hi].copy()
    rng = np.random.default_rng(cfg.seed)
    h = 1e-4
    k = 50
    pos = neg = 0
    for _ in range(k):
        d = rng.standard_normal(z0.size)
        nrm = np.linalg.norm(d)
        if nrm == 0.0:
            continue
        d /= nrm
        fp, _ = cp.value_grad(z0 + h * d, p.L_delta, p.L_nabla)
        fm, _ = cp.value_grad(z0 - h * d, p.L_delta, p.L_nabla)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            continue
        d2 = (fp - 2.0 * Jval + fm) / (h * h)
        floor = 50.0 * np.finfo(float).eps * (abs(Jval) + abs(fp) + abs(fm)) / (h * h)
        if d2 > floor:
            pos += 1
        elif d2 < -floor:
            neg += 1
    if pos >= 0.9 * k:
        return "local-min-indication"
    if neg >= 0.9 * k:
        return "local-max-indication"
    if pos >= 0.1 * k and neg >= 0.1 * k:
        return "saddle-indication"
    return "inconclusive"
