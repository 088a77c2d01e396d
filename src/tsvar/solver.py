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
and then closes the loop A = J_nabla(y), B = J_delta(y).  The trajectory
depends only on the ratio A:B, so the loop reduces to the zeros of one
function of the ray angle, which a fixed grid brackets and bisection and
golden-section search refine for all brackets at once: deterministic, with
no random starts and no finite differences.
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
    "ClosestApproach",
    "InfeasibleConstraintError",
    "solve",
    "solve_isoperimetric",
    "consistency_solve",
    "consistency_scan",
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

    def __post_init__(self):
        for name in (
            "grad_tol",
            "constraint_tol",
            "max_iter",
            "multistarts",
            "penalty_growth",
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


@dataclass(frozen=True)
class ClosestApproach:
    """Where the self-consistency system comes nearest to a solution: the
    ray angle theta of (A, B) = r(sin theta, cos theta), the least-squares
    pair (A, B) on that ray, and ``gap``, the distance from (J_nabla, J_delta)
    of y_{A,B} to (A, B)."""

    theta: float
    A: float
    B: float
    gap: float


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


_THETA_POINTS = 512  # nodes of the scan grid over [0, pi]
_BLOCK_ELEMENTS = 1 << 16  # trajectory samples per block of angles
_GOLDEN_STEPS = 40  # shrinks a grid cell pair (2*pi/511) below 1e-10


def _affine_pieces(p: va.VariationalProblem):
    """Coefficients of the stationarity equation on each interval,
    A*(pd + qd*v) + B*(pn + qn*v) = C: the v-partial of L_delta at the left
    point and of L_nabla at the right point, each affine in the slope v."""
    ts = p.scale
    zeros = np.zeros(len(ts) - 1)

    def affine(L, t):
        d3 = ex.differentiate(L, "v")
        return tuple(
            np.broadcast_to(ex.eval_arrays(e, t, zeros, zeros), t.shape).astype(float)
            for e in (d3, ex.differentiate(d3, "v"))
        )

    return affine(p.L_delta, ts.points[:-1]) + affine(p.L_nabla, ts.points[1:])


def _trajectories(p, pieces, A, B):
    """Rows y_{A,B} and their slopes for 1-D arrays A, B: the stationarity
    equation solved with C pinned by the right boundary value.  The mask is
    False for rows where that linear solve degenerates."""
    pd, qd, pn, qn = pieces
    mu = p.scale.mu_values[:-1]
    A, B = A[:, None], B[:, None]
    with np.errstate(all="ignore"):
        denom = A * qd + B * qn
        cvec = A * pd + B * pn
        s1 = np.sum(mu / denom, axis=1)
        s2 = np.sum(mu * cvec / denom, axis=1)
        C = (p.bc_b - p.bc_a + s2) / s1
        d = (C[:, None] - cvec) / denom
        y = np.empty((len(A), len(mu) + 1))
        y[:, 0] = p.bc_a
        y[:, 1:] = p.bc_a + np.cumsum(mu * d, axis=1)
    ok = (
        (np.min(np.abs(denom), axis=1) >= 1e-12 * (np.abs(A) + np.abs(B) + 1.0)[:, 0])
        & (np.abs(s1) >= 1e-12)
        & np.isfinite(y).all(axis=1)
    )
    return y, d, ok


def _integrals(p, y, d):
    """(J_nabla, J_delta) of each row of y with slopes d; NaN for a row along
    which an integrand is undefined, without losing the other rows."""
    ts = p.scale
    try:
        ld = ex.eval_arrays(p.L_delta, ts.points[:-1], y[:, 1:], d)
        ln = ex.eval_arrays(p.L_nabla, ts.points[1:], y[:, :-1], d)
    except ex.DomainViolation:
        if len(y) == 1:
            return np.full(1, np.nan), np.full(1, np.nan)
        h = len(y) // 2
        (n1, d1), (n2, d2) = _integrals(p, y[:h], d[:h]), _integrals(p, y[h:], d[h:])
        return np.concatenate([n1, n2]), np.concatenate([d1, d2])
    with np.errstate(all="ignore"):
        jn = np.broadcast_to(ln, d.shape) @ ts.nu_values[1:]
        jd = np.broadcast_to(ld, d.shape) @ ts.mu_values[:-1]
    return jn, jd


def _ray_integrals(p, pieces, A, B):
    """(J_nabla, J_delta) of y_{A,B} for 1-D arrays A, B, taken in blocks of
    at most _BLOCK_ELEMENTS samples; NaN where y_{A,B} degenerates or an
    integrand is undefined along it."""
    jn = np.full(A.shape, np.nan)
    jd = np.full(A.shape, np.nan)
    rows = max(1, _BLOCK_ELEMENTS // len(p.scale))
    for i in range(0, A.size, rows):
        y, d, ok = _trajectories(p, pieces, A[i : i + rows], B[i : i + rows])
        k = i + np.flatnonzero(ok)
        jn[k], jd[k] = _integrals(p, y[ok], d[ok])
    return jn, jd


def _on_rays(p, pieces, theta):
    """G(theta) = sin(theta)*J_delta - cos(theta)*J_nabla along y_theta, with
    J_nabla and J_delta."""
    s, c = np.sin(theta), np.cos(theta)
    jn, jd = _ray_integrals(p, pieces, s, c)
    with np.errstate(all="ignore"):
        return s * jd - c * jn, jn, jd


def _golden_min(f, lo, hi):
    """Vectorised golden-section search for a minimum of f on each [lo, hi];
    returns the best abscissae and values."""
    if lo.size == 0:
        return lo, lo
    r = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - r * (hi - lo), lo + r * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_STEPS):
        left = f1 < f2
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        keep_x, keep_f = np.where(left, x1, x2), np.where(left, f1, f2)
        new_x = np.where(left, hi - r * (hi - lo), lo + r * (hi - lo))
        new_f = f(new_x)
        x1, f1 = np.where(left, new_x, keep_x), np.where(left, new_f, keep_f)
        x2, f2 = np.where(left, keep_x, new_x), np.where(left, keep_f, new_f)
    left = f1 < f2
    return np.where(left, x1, x2), np.where(left, f1, f2)


def _bisect(G, a, b, neg_a):
    """Vectorised bisection of a sign change of G on each [a, b] (``neg_a``
    is G(a) <= 0) down to adjacent floating-point numbers, or to 2^-64 of
    the first width near 0; returns the left ends."""
    for _ in range(64):
        mid = 0.5 * (a + b)
        if not np.any((a < mid) & (mid < b)):
            break
        left = (G(mid) <= 0.0) != neg_a
        a, b = np.where(left, a, mid), np.where(left, mid, b)
    return a


def consistency_scan(
    p: va.VariationalProblem,
) -> tuple[list[ConsistencyRoot], ClosestApproach | None]:
    """Every real solution (A, B) of the self-consistency system

        A = J_nabla(y_{A,B}),   B = J_delta(y_{A,B}),

    where y_{A,B} solves the derivative-affine stationarity equation with the
    problem's boundary values, and the closest approach to a solution.

    y_{A,B} depends only on the ratio A:B, so with (A, B) =
    r(sin theta, cos theta), theta in [0, pi), a solution is a zero of
    G(theta) = sin(theta)*J_delta(y_theta) - cos(theta)*J_nabla(y_theta),
    and then (A, B) = (J_nabla, J_delta).  |G(theta)| is the distance from
    (J_nabla, J_delta) to the ray at theta, reached at
    r = sin(theta)*J_nabla + cos(theta)*J_delta.

    G is sampled on a fixed grid of angles, a block at a time.  Every sign
    change is bisected to adjacent floating-point numbers, and every local
    minimum of |G| is refined by golden section: a minimum through which G
    changes sign holds two close roots, both then bisected, and one that
    touches zero is a tangent root.  A refined point is a root only when the
    system residual at the pair (A, B) on its ray is at most
    1e-10*(1 + max(|A|, |B|)) and, for a bisected bracket, |G| there is below
    |G| at the bracket's ends.  The second test rejects a sign change through
    a pole, where y_theta degenerates: (A, B) grows without bound there, and
    the first tolerance grows with it, faster than |G|.  Roots are
    deduplicated at distance 1e-6 and sorted by (A, B).  The closest approach
    is the refined point with the smallest |G| (None if G is undefined at
    every refined point).  No random numbers and no finite differences.
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
    pieces = _affine_pieces(p)

    def G(theta):
        return _on_rays(p, pieces, theta)[0]

    # the grid runs from -h so that the angle 0 has a neighbour on each side;
    # G(theta + pi) = -G(theta), so the pair (-h, 0) repeats (pi - h, pi)
    h = np.pi / (_THETA_POINTS - 1)
    theta = h * np.arange(-1, _THETA_POINTS)
    g = G(theta)
    fin = np.isfinite(g)
    neg = g <= 0.0
    change = fin[:-1] & fin[1:] & (neg[:-1] != neg[1:])
    k = np.arange(1, _THETA_POINTS)
    mag = np.abs(g)
    k = k[
        fin[k - 1] & fin[k] & fin[k + 1] & ~change[k - 1] & ~change[k]
        & (mag[k] <= mag[k - 1]) & (mag[k] <= mag[k + 1])
    ]
    sign = np.where(neg[k], -1.0, 1.0)
    t_min, f_min = _golden_min(lambda t: sign * G(t), theta[k] - h, theta[k] + h)
    split = f_min < 0.0
    j = np.flatnonzero(change[1:]) + 1
    a = np.concatenate([theta[j], theta[k[split]] - h, t_min[split]])
    b = np.concatenate([theta[j + 1], t_min[split], theta[k[split]] + h])
    neg_a = np.concatenate([neg[j], neg[k[split]], ~neg[k[split]]])
    # |G| at the ends of each bracket: bisection of a pole ends above it
    ends = np.concatenate([
        np.maximum(mag[j], mag[j + 1]),
        np.maximum(mag[k[split] - 1], -f_min[split]),
        np.maximum(mag[k[split] + 1], -f_min[split]),
        np.full(np.count_nonzero(~split), np.inf),
    ])
    cand = np.concatenate([_bisect(G, a, b, neg_a), t_min[~split]])
    g, jn, jd = _on_rays(p, pieces, cand)
    keep = np.isfinite(g)
    if not keep.any():
        return [], None
    cand, g, jn, jd, ends = cand[keep], g[keep], jn[keep], jd[keep], ends[keep]
    r = np.sin(cand) * jn + np.cos(cand) * jd
    A, B = r * np.sin(cand), r * np.cos(cand)
    i = int(np.argmin(np.abs(g)))
    closest = ClosestApproach(
        float(np.mod(cand[i], np.pi)), float(A[i]), float(B[i]), float(abs(g[i]))
    )

    jn, jd = _ray_integrals(p, pieces, A, B)
    resid = np.maximum(np.abs(jn - A), np.abs(jd - B))
    ok = (resid <= 1e-10 * (1.0 + np.maximum(np.abs(A), np.abs(B)))) & (np.abs(g) < ends)
    roots: list[int] = []
    for i in np.flatnonzero(ok):
        if all(np.hypot(A[i] - A[q], B[i] - B[q]) > 1e-6 for q in roots):
            roots.append(i)
    roots.sort(key=lambda i: (A[i], B[i]))
    y = _trajectories(p, pieces, A[roots], B[roots])[0]
    return [
        ConsistencyRoot(float(A[i]), float(B[i]), GridFunction(p.scale, row))
        for i, row in zip(roots, y)
    ], closest


def consistency_solve(
    p: va.VariationalProblem, cfg: SolverConfig = SolverConfig()
) -> list[ConsistencyRoot]:
    """All distinct real solutions (A, B) of the self-consistency system,
    sorted by (A, B); an empty list means no self-consistent extremal exists.
    The solutions are found by the deterministic scan of ``consistency_scan``,
    so ``cfg`` has no effect on them."""
    return consistency_scan(p)[0]


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
