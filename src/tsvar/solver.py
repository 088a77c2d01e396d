"""Direct numerical extremization of the discretized product functional.

The free node values (interior nodes plus any free endpoint, always one
contiguous block) are optimized directly by one exact-Newton core.  Each
sample of J = J_delta * J_nabla couples two neighbouring nodes, so the exact
Hessian is Jn*Hd + Jd*Hn + gd gn^T + gn gd^T: a tridiagonal matrix built
from the exact second partials of the integrands
(``variational.functional_hessian``) plus a rank-2 term.  A trial point's
value and gradient are one run of the integrand pair's compiled kernel, and
its Newton model one run of the pair's second-order kernel on the samples
that the evaluation keeps, each with one fault check (see ``variational``).
A Newton step is one call of ``_tridiag``, one LDL^T factorization of the
tridiagonal part that solves the right-hand side and the low-rank rows
together, and a Woodbury correction for the low-rank part, O(n) time and
memory; no n x n array is ever formed.

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
  the exp(c*v) regime, where a pure Newton step moves v by only about 1/c;
  it ends with one parabolic trial through its last three points, which
  reaches the degenerate minimum of a homogeneous quartic, such as J where
  both factors vanish, in one step.

A run that has converged stops at the first step that does not lower its
error, so it does not crawl on at a degenerate stationary point.  Trial
points whose value or gradient is undefined (``DomainViolation``) or not
finite are rejected steps.  Because the product of two integral
functionals is nonconvex, every solve multistarts from seeded smooth random
perturbations of the straight-line interpolant between the boundary values,
drawn a group at a time, as many as fit in _BLOCK_ELEMENTS node values.
One loop, ``_multistart``, runs a method's per-start generator from each
start of a group in lockstep (``_lockstep``): a Newton run yields the
first-order records and Newton models it needs, and each round serves the
largest group of pending requests of one kind and integrand pair, even a
group of one, with one kernel run on their stacked node rows, and sends
each run its row's outcome, which is what the row gets alone, bit for bit
or a DomainViolation, so each start ends exactly where it would alone.
The loop reports the end of lowest rank: the method's key (converged
starts first), then the start's index.  A report's ``iterations`` counts
the Newton steps of the reported start.

Isoperimetric problems are solved by Newton's method on the KKT system
gradJ - lam*gradK = 0, K = k, on the same core.  The Hessian of the
Lagrangian J - lam*K is the same tridiagonal-plus-low-rank form (rank 4),
and the KKT matrix borders it with one row, gradK, so a step is one
factorization plus a small Schur complement.  Trial points are moved back
onto K = k, where the merit is J, so steps head for constrained minima.
Where gradK vanishes the point is an extremal of the constraint functional
itself, and the abnormal multiplier pair (0, 1) is reported.  The same core
minimizes (K - k)^2/2 to reach the constraint from a start far from it.

For problems whose stationarity equation is affine in the derivative slot
(state-independent integrands), ``consistency_solve`` instead solves the
stationarity equation exactly for a given pair (A, B) of functional values
and then closes the loop A = J_nabla(y), B = J_delta(y).  The trajectory
depends only on the ratio A:B.  Where the curvatures of the two integrands
are proportional on every interval (an exact test), the slopes are affine
in the position of that ratio on a line, both functionals are quadratics
in it, and the loop is one cubic, whose real roots are every solution.
Elsewhere the loop reduces to the zeros of one function of the ray angle,
which a fixed grid brackets and multisection refines, all brackets at
once: each call of that function samples every bracket on a grid of
equally spaced points and keeps one or two of its cells; there the roots
are those the grid resolves.  Deterministic, with no random starts and no
finite differences.

``solve_auto`` selects the method by the problem's shape (constrained,
derivative-affine with both endpoints fixed, or otherwise direct), and every
method's ``SolveReport`` comes from one builder, ``_report``, which takes
one first-order record of each integrand pair at the final trajectory (the
reported start's own, from its last iterate, after a Newton solve) and
reduces J_delta, J_nabla, both residual defects and the natural boundary
residuals from its node gradient.

``probe_extremal_type`` classifies a stationary point by the exact inertia
of the Newton model of J on the free block: the signs of the LDL^T pivots
of the tridiagonal part (Sylvester's law of inertia), corrected for the
rank-2 part by a 2 x 2 Schur complement (Haynsworth additivity).  It takes
the model a Newton step uses (``_merit``), built on the first-order record
from which it also checks stationarity, and the same factorization, and no
random numbers or finite differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import variational as va
from .calculus import GridFunction, _split

__all__ = [
    "SolverConfig",
    "SolveReport",
    "ConsistencyRoot",
    "ClosestApproach",
    "InfeasibleConstraintError",
    "solve",
    "solve_isoperimetric",
    "solve_auto",
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
    multistarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.grad_tol < np.inf:
            raise ValueError("solver config field grad_tol must be positive and finite")
        if self.multistarts <= 0:
            raise ValueError("solver config field multistarts must be positive")
        if self.seed < 0:
            raise ValueError("solver config field seed must not be negative")


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


def _tridiag(diag, off, B, definite=False):
    """(X, pivots): T x = b solved for every row b of the 2-D array B, one
    row of X each, by one LDL^T factorization of the symmetric tridiagonal
    matrix T with main diagonal ``diag`` and off-diagonal ``off``, and the
    list of pivots; None at an exact zero pivot, the last one included, and
    with ``definite`` at the first pivot that is not positive, before any
    row of B is solved.  By Sylvester's law of inertia the pivots have the
    signs of T's eigenvalues (Golub & Van Loan, Matrix Computations, 4.3)."""
    diag, off = diag.tolist(), off.tolist()
    d = diag[0]
    piv, mult = [d], []
    for a, b in zip(diag[1:], off):
        if not d > 0.0 and (definite or d == 0.0):
            return None
        m = b / d
        d = a - m * b
        mult.append(m)
        piv.append(d)
    if not d > 0.0 and (definite or d == 0.0):
        return None
    X = []
    for row in B.tolist():
        y = [row[0]]
        for bi, m in zip(row[1:], mult):
            y.append(bi - m * y[-1])
        x = [y[-1] / piv[-1]]
        for yi, p, m in zip(reversed(y[:-1]), reversed(piv[:-1]), reversed(mult)):
            x.append(yi / p - m * x[-1])
        x.reverse()
        X.append(x)
    return np.array(X).reshape(B.shape), piv


def _structured_solve(diag, off, U, C, b):
    """Solve (T + U^T C U) x = b, T the tridiagonal matrix (diag, off), U a
    k x n array of rows and C a k x k array, by ``_tridiag`` and the
    Woodbury identity; b is one right-hand side or an array of them, one
    per row, solved with the rows of U in one call.  Returns None when T has
    a non-positive pivot, which is found before any row is solved, or the
    k x k capacitance system is singular."""
    rhs = np.atleast_2d(b)
    out = _tridiag(diag, off, np.concatenate([rhs, U]), True)
    if out is None:
        return None
    x, Z = out[0][: len(rhs)], out[0][len(rhs) :]
    if len(U):
        try:
            w = np.linalg.solve(np.eye(len(U)) + C @ (U @ Z.T), C @ (U @ x.T))
        except np.linalg.LinAlgError:
            return None
        x = x - w.T @ Z
    return x.reshape(np.shape(b))


def _inertia(diag, off, U, C):
    """(negative, positive) eigenvalue counts of T + U^T C U as in
    ``_structured_solve``, C invertible: the LDL^T pivot signs of T plus
    In(S) - In(-C^-1), S = -C^-1 - U T^-1 U^T (Haynsworth additivity).  None
    when a pivot or an eigenvalue of S is within n*eps of the largest pivot
    or entry of |C^-1| + |U| |T^-1 U^T| (which S is summed from)."""
    out = _tridiag(diag, off, U)
    if out is None:
        return None
    Z, piv, Ci = out[0], np.array(out[1]), np.linalg.inv(C)
    s, c = np.linalg.eigvalsh(-Ci - U @ Z.T), np.linalg.eigvalsh(-Ci)
    scale = np.max(np.abs(Ci) + np.abs(U) @ np.abs(Z).T, initial=0.0)
    tol = len(piv) * _EPS
    if not (np.all(np.abs(piv) > tol * np.max(np.abs(piv))) and np.all(np.abs(s) > tol * scale)):
        return None
    neg = int(np.count_nonzero(piv < 0.0) + np.count_nonzero(s < 0.0) - np.count_nonzero(c < 0.0))
    return neg, len(piv) - neg


def _bordered_solve(diag, off, U, C, border, b):
    """The x of the KKT system H x + g mu = b, g.x = -r, with border = (g, r)
    and H as in ``_structured_solve``: two solves that share one
    factorization, x1 = H^{-1} b and x2 = H^{-1} g, and the scalar Schur
    complement s = g.x2 give mu = (g.x1 + r)/s and x = x1 - mu*x2.  None when
    ``_structured_solve`` fails or s vanishes (as it does with g)."""
    g, r = border
    x = _structured_solve(diag, off, U, C, np.array([b, g]))
    s = float(g @ x[1]) if x is not None else 0.0
    if not abs(s) > 0.0:
        return None
    return x[0] - ((float(g @ x[0]) + r) / s) * x[1]


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
_MAX_STEPS = 10000  # Newton steps per run of the core
_UNBOUNDED = -1e100  # a merit below this is unbounded below along the start
_PROJECTION_STEPS = 8
_FEAS_TOL = 1e-10  # projection target |K - k|, unless K rounds coarser
_ABNORMAL_TOL = 1e-8  # |K - k| accepted at an extremal of K
_EPS = float(np.finfo(float).eps)
_BLOCK_ELEMENTS = 1 << 16  # node values per group of multistarts, samples per block of angles


def _direction(model, g, shift_prev, border=None, f=0.0):
    """Newton direction on the structured Hessian model H of a merit with
    gradient g and value f: d = -(H + tau I)^{-1} g or, with ``border`` =
    (gradK, r), the step of the KKT system [[H + tau I, gradK], [gradK^T, 0]]
    bordered by the constraint row (``_bordered_solve``).

    The Levenberg shift tau on the tridiagonal part is kept relative to the
    size of the model.  It starts from 0, or from a tenth of the previous
    iteration's relative shift, and rises tenfold while a pivot is not
    positive or g.d is not below 0 (with a border, below its rounding size
    1e-12*(1 + |f|), and then counted as 0).  Returns (d, g.d, relative
    shift); a shift of inf marks the fallback d = -g / max|g|, taken when
    the model is missing or no shift gives a descent direction.
    """
    tol = 0.0 if border is None else 1e-12 * (1.0 + abs(f))
    if model is not None:
        diag, off, U, C = model
        scale = float(max(np.abs(diag).max(), np.abs(off).max(initial=0.0)))
        if scale == 0.0 and len(U):
            scale = float(np.abs(C).max() * np.abs(U).max() ** 2)
        if np.isfinite(scale) and scale > 0.0:
            shift = shift_prev / 10.0 if 1e-11 <= shift_prev < np.inf else 0.0
            for _ in range(_SHIFT_TRIES):
                shifted = diag + shift * scale, off, U, C
                if border is None:
                    d = _structured_solve(*shifted, -g)
                else:
                    d = _bordered_solve(*shifted, border, -g)
                gd = float(g @ d) if d is not None else np.nan
                if gd < tol:
                    return d, min(gd, 0.0), shift
                shift = 10.0 * shift if shift else 1e-12
    gmax = float(np.abs(g).max())
    d = -g / gmax
    return d, -gmax * float(d @ d), np.inf


class _At(NamedTuple):
    """An evaluated iterate of a merit: its value f; err, the stationarity
    error scaled so that err <= 1 is converged; the point w, which a merit
    may have moved onto its constraint; the gradient g whose Jacobian the
    merit's model is; the samples the model reuses; and the KKT border
    (gradK, r) of ``_direction``, or None."""

    f: float
    err: float
    w: np.ndarray | None
    g: np.ndarray | None
    data: tuple
    border: tuple | None = None


_UNDEFINED = _At(np.inf, np.inf, None, None, ())


def _vertex(alpha, f_half, f_alpha, f_double):
    """Abscissa of the vertex of the parabola through the values f_half,
    f_alpha and f_double at alpha/2, alpha and 2*alpha; NaN where f_double
    is not finite.  With f_alpha below f_half and not above f_double it lies
    in (3*alpha/4, 3*alpha/2]."""
    a, b = f_half - f_alpha, f_double - f_alpha
    return alpha * (1.0 + (4.0 * a - b) / (8.0 * a + 4.0 * b))


def _newton(fun, model, w0):
    """Minimize a merit from w0 by structured Newton steps: a generator, run
    by ``_lockstep``, that returns (w, at, iterations).

    ``fun(w)`` returns the ``_At`` of w, or ``_UNDEFINED`` where the merit is
    undefined or not finite, and ``model(at)`` the ``_model`` form of its
    Hessian there, for ``_direction``; both are generators that yield the
    kernel runs they need (see ``_Compiled``).  Steps are globalised by Armijo
    backtracking from alpha = 1, and a full step that may be too short is
    expanded: doubled while the value falls and, once a doubling is taken
    and the next one refused, tried once at the vertex of the parabola
    through the last three points, kept if it is lower still.  Iterates
    until err <= 1e-3 when possible, so the error ends well inside the
    tolerance, for at most _MAX_STEPS steps; stops once the value falls
    below _UNBOUNDED, or once a run with err <= 1 takes a step that does
    not lower err, which is not taken.
    """
    w = np.asarray(w0, dtype=float)
    at = yield from fun(w)
    it = 0
    if not np.isfinite(at.f):
        return w, at, it
    w = at.w
    shift = 0.0
    while it < _MAX_STEPS and at.err > 1e-3:
        if at.f < _UNBOUNDED:
            break
        f = at.f
        d, gd, shift = _direction((yield from model(at)), at.g, shift, at.border, f)
        # Once the predicted decrease is below what f resolves in double
        # precision, a smaller error also accepts the step: comparing
        # values alone would stall at about |g| ~ 1e-8.
        flat = -gd <= 1e-12 * (1.0 + abs(f))
        alpha, accepted = 1.0, False
        while alpha >= 1e-20:
            wn = w + alpha * d
            an = yield from fun(wn)
            if an.f <= f + 1e-4 * alpha * gd or (
                flat and np.isfinite(an.f) and an.err < at.err
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
        if alpha == 1.0 and (shift > 0.0 or f - an.f > -0.6 * gd):
            f_half = None  # the value at alpha/2, once a doubling is taken
            while an.f >= _UNBOUNDED and alpha < _MAX_EXPANSION:
                at_t = yield from fun(w + 2.0 * alpha * d)
                if not at_t.f < an.f:
                    # alpha/2, alpha and 2*alpha bracket a minimum along
                    # d: one trial at the vertex of the parabola through
                    # them, exact on a homogeneous quartic, where a
                    # Newton step goes only a third of the way to 0
                    t = np.nan if f_half is None else _vertex(alpha, f_half, an.f, at_t.f)
                    if 0.5 * alpha < t < 2.0 * alpha and t != alpha:
                        at_t = yield from fun(w + t * d)
                        if at_t.f < an.f:
                            alpha, an = t, at_t
                    break
                f_half, alpha, an = an.f, 2.0 * alpha, at_t
        # Converged already and the step did not lower the error: at a
        # degenerate stationary point further steps only crawl.
        if at.err <= 1.0 and an.err >= at.err:
            break
        stalled = an.f >= f - 1e-16 * (1.0 + abs(f)) and float(
            np.abs(an.w - w).max()
        ) <= 1e-14 * (1.0 + float(np.abs(w).max()))
        w, at = an.w, an
        it += 1
        if stalled:
            break
    return w, at, it


def _finite(val, grad):
    """(val, grad), or (inf, None) when either is not finite: a rejected
    step, like a trial point where an integrand is undefined."""
    if not (math.isfinite(val) and np.isfinite(grad).all()):
        return np.inf, None
    return val, grad


# ---------------------------------------------------------------------------
# Shared plumbing


class _Compiled:
    """A problem compiled once for the solvers: its free nodes, which always
    form one contiguous block [lo, hi), and the trajectory ``base``, which
    carries the fixed values and is never written: each trial point is a
    node row of its own (``_at``).  ``value_grad`` and ``hessian`` are steps
    of a Newton run, generators like it: each yields one request, for the
    first-order record of an integrand pair at a node row or for the Newton
    model on the samples of such a record, and is sent its outcome, a
    DomainViolation where it is undefined.  ``_lockstep`` serves it with
    one run of the pair's compiled kernel per round, on the stacked rows of
    every run that asks, with partials differentiated once."""

    def __init__(self, p: va.VariationalProblem, base: np.ndarray):
        n = len(p.scale)
        self.scale = p.scale
        self.lo = 0 if p.bc_a is None else 1
        self.hi = n if p.bc_b is None else n - 1
        self.base = base

    def trajectory(self, z) -> GridFunction:
        return GridFunction(self.scale, self._at(z))

    def _at(self, z) -> np.ndarray:
        y = self.base.copy()
        y[self.lo : self.hi] = z
        return y

    def value_grad(self, z, Ld, Ln):
        """Value, free-block gradient and ``va.ProductGradient`` of the
        product functional of (Ld, Ln) at z; (inf, None, None) where it is
        undefined or not finite."""
        first = yield _gradient, self.scale, Ld, Ln, self._at(z)
        if isinstance(first, ex.DomainViolation):
            return np.inf, None, None
        val, grad = first.value, first.gradient[self.lo : self.hi]
        if not (first.clean and math.isfinite(val)):  # a clean gradient is finite
            val, grad = _finite(val, grad)
        return val, grad, first

    def hessian(self, Ld, Ln, first):
        """``va.ProductHessian`` of (Ld, Ln) restricted to the free block at
        the nodes of ``first``, the ``va.ProductGradient`` of an evaluation,
        whose own samples it reuses; None where it is undefined or not
        finite."""
        H = yield _hessian, self.scale, Ld, Ln, first
        if isinstance(H, ex.DomainViolation):
            return None
        lo, hi = self.lo, self.hi
        H = va.ProductHessian(H.J_delta, H.J_nabla, H.grad_delta[lo:hi], H.grad_nabla[lo:hi],
                              H.diag[lo:hi], H.off[lo : hi - 1])
        if not (math.isfinite(H.J_delta) and math.isfinite(H.J_nabla)
                and np.isfinite(np.concatenate(H[2:])).all()):
            return None
        return H


def _gradient(ts, Ld, Ln, rows):
    """The requests of Newton runs for the first-order records at node rows."""
    return va.functional_gradient(ts, Ld, Ln, rows, factors=True)


def _hessian(ts, Ld, Ln, firsts):
    """The requests of Newton runs for the Newton models at such records."""
    return va.functional_hessian(ts, Ld, Ln, None, firsts)


def _lockstep(runs) -> list:
    """Run the generators ``runs`` side by side and return what each one
    returns, in order.  A run yields a request (kind, scale, Ld, Ln, arg),
    kind ``_gradient`` or ``_hessian``, and is sent the outcome of its arg.
    Each round groups the pending requests of the live runs by kind and
    integrand pair and serves the largest group (the first of equals, of
    one or more) with one call of its kind on their args, one kernel run,
    which gives every row the outcome it gets alone (``va._pair``).  The
    other requests wait, so the runs behind catch up and later groups are
    larger.  Floating-point faults are ignored while the runs run, since a
    value that overflows is a rejected trial point, not a warning; the
    state is set here, so no run holds it across a yield."""
    runs = list(runs)
    ends = [None] * len(runs)
    asks, replies = {}, [(i, None) for i in range(len(runs))]
    with np.errstate(all="ignore"):
        while True:
            for i, reply in replies:
                try:
                    asks[i] = runs[i].send(reply)
                except StopIteration as stop:
                    ends[i] = stop.value
            if not asks:
                break
            groups: dict = {}
            for i, (kind, ts, Ld, Ln, _) in asks.items():
                groups.setdefault((kind, id(ts), id(Ld), id(Ln)), []).append(i)
            rows = max(groups.values(), key=len)
            kind, ts, Ld, Ln, _ = asks[rows[0]]
            replies = list(zip(rows, kind(ts, Ld, Ln, [asks.pop(i)[4] for i in rows])))
    return ends


def _merit(cp: _Compiled, p: va.VariationalProblem, grad_tol: float, feasibility=False):
    """(fun, model), generators for ``_newton``: J on the free block, or with
    ``feasibility`` r^2/2, r = K - k, whose gradient is r*gradK and whose
    Hessian is r*HK + gradK gradK^T.  err scales the largest gradient entry
    by grad_tol.  ``solve`` minimizes J, and ``solve_isoperimetric`` reaches
    the constraint with r^2/2 from a start that it cannot project onto it."""
    c = p.constraint
    pair = (c.K_delta, c.K_nabla) if feasibility else (p.L_delta, p.L_nabla)

    def fun(z):
        val, grad, first = yield from cp.value_grad(z, *pair)
        if grad is not None and feasibility:
            r = val - c.k
            val, grad = _finite(0.5 * r * r, r * grad)
        if grad is None:
            return _UNDEFINED
        return _At(val, float(np.abs(grad).max()) / grad_tol, z, grad, first)

    def model(at):
        H = yield from cp.hessian(*pair, at.data)
        if H is None or not feasibility:
            return _model([(1.0, H)])
        return _model([(H.J_delta * H.J_nabla - c.k, H)], [(1.0, H.gradient)])

    return fun, model


def _rounding(first: va.ProductGradient) -> float:
    """Rounding size of a product functional at the nodes y of its record:
    what it changes by when every node moves by its own rounding, 16 * eps *
    sum |dK/dy_i| |y_i|.  Below it, |K - k| is noise that no projection step
    resolves."""
    return 16.0 * _EPS * float(np.abs(first.gradient) @ np.abs(first.samples[0]))


def _kkt(cp: _Compiled, p: va.VariationalProblem, grad_tol: float):
    """(fun, model), generators for ``_newton``, on the KKT system gradJ - lam*gradK = 0,
    r = K - k = 0, along the constraint.

    ``fun`` moves the free block z onto K = k by Gauss-Newton steps
    z <- z - r*gradK/|gradK|^2 (rejecting z where they fail) and takes the
    least-squares multiplier lam = gradJ.gradK/|gradK|^2 there.  The merit is
    the Lagrangian J - lam*r: J on the constraint, and not lowered by the
    residual the projection leaves, its target |r| <= 1e-10 (_FEAS_TOL) or,
    where K is coarser than that, the rounding size of K at z (``_rounding``).
    err scales max|gradJ - lam*gradK| by grad_tol and |r| by that target.  The
    model is the Hessian of the Lagrangian, HJ - lam*HK, bordered by gradK
    in ``_direction``.  Where gradK vanishes, z is an extremal of K, lam = 0
    and the border is dropped.
    """
    c = p.constraint
    Ld, Ln, Kd, Kn = p.L_delta, p.L_nabla, c.K_delta, c.K_nabla

    def fun(z):
        for i in range(_PROJECTION_STEPS + 1):
            kval, kgrad, kfirst = yield from cp.value_grad(z, Kd, Kn)
            if kgrad is None:
                return _UNDEFINED
            r = kval - c.k
            feas_target = max(_FEAS_TOL, _rounding(kfirst))
            # gradK negligible on the free block against all nodes: an
            # extremal of K, which no projection can move off
            vanished = np.abs(kgrad).max() <= 1e-6 * (1.0 + np.abs(kfirst.gradient).max())
            if abs(r) <= feas_target or vanished or i == _PROJECTION_STEPS:
                break
            z = z - (r / float(kgrad @ kgrad)) * kgrad
        if not (abs(r) <= feas_target or vanished):
            return _UNDEFINED
        jval, jgrad, jfirst = yield from cp.value_grad(z, Ld, Ln)
        if jgrad is None:
            return _UNDEFINED
        lam = 0.0 if vanished else float(jgrad @ kgrad) / float(kgrad @ kgrad)
        gl = jgrad - lam * kgrad
        err = max(float(np.abs(gl).max()) / grad_tol, abs(r) / feas_target)
        return _At(jval - lam * r, err, z, gl, (lam, r, feas_target, jfirst, kfirst),
                   None if vanished else (kgrad, r))

    def model(at):
        lam, _, _, jfirst, kfirst = at.data
        HJ = yield from cp.hessian(Ld, Ln, jfirst)
        HK = yield from cp.hessian(Kd, Kn, kfirst)
        return _model([(1.0, HJ), (-lam, HK)])

    return fun, model


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


_START_MODES = 3


def _starts(cp: _Compiled, p: va.VariationalProblem, cfg: SolverConfig):
    """The multistarts of cp, one at a time: the free block of cp.base, the
    straight-line interpolant, then seeded perturbations of it, amp * sum
    over k = 1..3 of u_k/k^2 * sin(freq_k*s + phase) with u_k uniform on
    [-1, 1] and s = (t - a)/(b - a); freq_k <= k*pi and the phase make each
    mode vanish at the fixed endpoints.  Their slopes are at most
    pi*(1 + 1/2 + 1/3)*amp/(b - a) on any mesh."""
    rng = np.random.default_rng(cfg.seed)
    z = cp.base[cp.lo : cp.hi]
    pts = p.scale.points
    s = (pts[cp.lo : cp.hi] - pts[0]) / (pts[-1] - pts[0])
    k = np.arange(1, _START_MODES + 1)[:, None]
    a_fixed, b_fixed = p.bc_a is not None, p.bc_b is not None
    freq = (k - 1 + 0.5 * (a_fixed + b_fixed)) * np.pi
    modes = np.sin(freq * s + (0.0 if a_fixed else np.pi / 2))
    modes = _perturb_amplitude(p) * modes / k**2
    yield z
    for _ in range(cfg.multistarts - 1):
        yield z + rng.uniform(-1.0, 1.0, _START_MODES) @ modes


def _multistart(p: va.VariationalProblem, cfg: SolverConfig, run):
    """The one multistart loop: ``run(cp, z0)``, a method's per-start
    generator on the compiled problem cp, returns the end (key, z, at, it)
    of its Newton runs from z0, or None where its merit is undefined.  The
    starts are drawn a group at a time, as many as fit in _BLOCK_ELEMENTS
    node values (at least one), and each group runs in ``_lockstep``.  A
    start's rank is its key and then its index; a key that begins with 0
    marks a converged start.  Returns cp, the end of lowest rank as (rank,
    z, at, it) and the free blocks of the converged starts by index (no
    other block)."""
    cp = _Compiled(p, _base_trajectory(p))
    best, converged = None, {}
    starts, group = _starts(cp, p, cfg), max(1, _BLOCK_ELEMENTS // len(p.scale))
    for first in range(0, cfg.multistarts, group):
        ends = _lockstep(run(cp, z0) for z0 in itertools.islice(starts, group))
        for s, end in enumerate(ends, first):
            if end is None:
                continue
            key, z, at, it = end
            if key[0] == 0:
                converged[s] = z
            if best is None or (*key, s) < best[0]:
                best = (*key, s), z, at, it
    if best is None:
        raise ex.DomainViolation("objective undefined at every multistart")
    return cp, best, converged


def _report(p: va.VariationalProblem, y: GridFunction, grad_norm: float | None = None,
            lambda0: float | None = None, lam: float | None = None, records: tuple = (),
            **fields) -> SolveReport:
    """The report of a solve that ended at y, from one first-order record
    (``va.ProductGradient``) of each integrand pair, the solve's own
    ``records`` at y where it has them and otherwise sampled here: the L
    pair, and the K pair for a constrained report, whose defects and natural boundary
    residuals are those of the node gradient lambda0*gradJ - lam*gradK,
    combined as ``va.iso_residual`` combines it.  Both residual forms are
    one array on two domains, the negated running sum of that gradient, so
    el_defect_1 and el_defect_2 are one defect, and the natural boundary
    residuals are its entries -g(a) and g(b).  Without ``grad_norm`` (a
    self-consistent extremal, both endpoints fixed) it is the largest
    interior entry of gradJ.  ``extension`` marks a constrained problem with
    a free endpoint; ``fields`` are the solve's own (converged, iterations,
    ...)."""
    ts, c = p.scale, p.constraint
    L = records[0] if records else va._first(ts, p.L_delta, p.L_nabla, y.values)
    g = L.gradient
    if lambda0 is not None:
        K = records[1] if records else va._first(ts, c.K_delta, c.K_nabla, y.values)
        g = lambda0 * g - lam * K.gradient
    defect = va._stats(va._el_residual(g))[1]
    if grad_norm is None:
        grad_norm = float(np.max(np.abs(L.gradient[1:-1]), initial=0.0))
    return SolveReport(
        trajectory=y, J_delta=L.J_delta, J_nabla=L.J_nabla, J=L.value, el_defect_1=defect,
        el_defect_2=defect, grad_norm=grad_norm, lambda0=lambda0, lam=lam,
        bc_residual_a=None if p.bc_a is not None else float(-g[0]),
        bc_residual_b=None if p.bc_b is not None else float(g[-1]),
        extension=c is not None and (p.bc_a is None or p.bc_b is None), **fields,
    )


def _stopped(f: float, along: str = "") -> str:
    """Message of a start that did not converge and whose merit ended at f."""
    outcome = f"objective unbounded below{along}" if f < _UNBOUNDED else "did not converge"
    return outcome + "; best iterate"


def solve(p: va.VariationalProblem, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Find a stationary point of the unconstrained discretized functional.

    Returns the converged multistart with the smallest objective value; when
    no start converges, the start with the smallest gradient is reported with
    converged=False, as unbounded below if it ended below -1e100.
    """
    if p.constraint is not None:
        raise ValueError("problem is constrained; use solve_isoperimetric")

    def run(cp, z0):
        z, at, it = yield from _newton(*_merit(cp, p, cfg.grad_tol), z0)
        if not np.isfinite(at.f):
            return None
        gn = float(np.abs(at.g).max(initial=0.0))
        return ((0, at.f) if at.err <= 1.0 else (1, gn)), z, at, it

    cp, ((tier, *_, s), z, at, it), converged = _multistart(p, cfg, run)
    traj = cp.trajectory(z)
    message = "stationary point found" if tier == 0 else _stopped(at.f)
    if len(converged) > 1:
        # multimodality diagnostic: how far apart the converged starts landed
        spread = max(va.weak_norm(traj, cp.trajectory(w)) for i, w in converged.items() if i != s)
        message += (
            f"; weak-norm spread across {len(converged)} converged starts: {spread:.3g}"
        )
    gn = float(np.abs(at.g).max(initial=0.0))
    return _report(p, traj, gn, records=(at.data,), converged=tier == 0, iterations=it,
                   multistart_index=s, message=message)


# ---------------------------------------------------------------------------
# Isoperimetric solving


def solve_isoperimetric(
    p: va.VariationalProblem, cfg: SolverConfig = SolverConfig()
) -> SolveReport:
    """Extremize J subject to K(y) = k by Newton's method on the KKT system
    along the constraint (see ``_kkt``), from every multistart.  A start that
    cannot be moved onto K = k directly first minimizes (K - k)^2/2 with the
    same Newton core, and counts as unmet if that ends with |K - k| above
    1e-3*(1 + |k|).

    A start is on the constraint when |K - k| is within its projection
    target (``_kkt``), which grows with |y|, and within the reach
    1e-3*(1 + |k|), or its merit fell below -1e100 within that target.  A
    start on it converges when max|gradJ - lambda*gradK| <= grad_tol, and
    the converged start with the lowest J is reported.  Otherwise the start
    on it with the smallest Lagrangian gradient is reported, as unbounded
    below if it ended below -1e100; with none on it, the start nearest to
    K = k is, and InfeasibleConstraintError is raised if its |K - k|
    exceeds the reach.  Where gradK vanishes on the free block at the
    reported point, it is an extremal of K and admits only the abnormal
    pair (lambda0, lambda) = (0, 1), and InfeasibleConstraintError is
    raised if |K - k| exceeds 1e-8 there.
    Constrained reports hold the defects of the multiplier residual at the
    reported (lambda0, lambda) in el_defect_1/2.
    """
    c = va._require_constraint(p)
    reach = 1e-3 * (1.0 + abs(c.k))  # |K - k| beyond which no start meets K = k

    def run(cp, z0):
        kkt = _kkt(cp, p, cfg.grad_tol)
        z, at, it = yield from _newton(*kkt, z0)
        if not np.isfinite(at.f):
            z, feas_at, it = yield from _newton(*_merit(cp, p, cfg.grad_tol, feasibility=True), z0)
            feas = np.sqrt(2.0 * feas_at.f)
            # A feasibility phase that ends beyond reach stopped at, or near, a
            # nonzero minimum of (K - k)^2/2, where gradK vanishes: KKT Newton
            # from there can only crawl, so the start is recorded as unmet.
            if feas <= reach:
                z, at, kkt_it = yield from _newton(*kkt, z)
                it += kkt_it
            if not np.isfinite(at.f):  # unmet: after the other starts as near to K = k
                return ((2, feas, np.inf), None, None, it) if np.isfinite(feas) else None
        _, r, target, jfirst, _ = at.data
        lag_gn = float(np.abs(at.g).max())
        # on K = k: within the projection target, which grows with |y|
        # (``_rounding``), and within reach, unless the merit fell below the
        # unbounded cut-off, at a |y| where K resolves no finer than that
        if not (abs(r) <= target and (abs(r) <= reach or at.f < _UNBOUNDED)):
            return (2, abs(r), lag_gn), z, at, it
        return ((0, jfirst.value) if at.err <= 1.0 else (1, lag_gn)), z, at, it

    cp, (rank, z, at, it), _ = _multistart(p, cfg, run)
    if rank[0] == 2 and (at is None or rank[1] > reach):  # None: unmet
        raise InfeasibleConstraintError(
            f"constraint K(y) = {c.k!r} unmet across multistarts "
            f"(best |K - k| = {rank[1]:.3e})"
        )
    feas = abs(at.data[1])
    if at.border is None:
        if not feas <= _ABNORMAL_TOL:
            raise InfeasibleConstraintError(
                f"constraint K(y) = {c.k!r} unmet at an extremal of K (|K - k| = {feas:.3e})"
            )
        lambda0, lam, conv = 0.0, 1.0, True
        message = "abnormal extremal (candidate is an extremal of K)"
    else:
        lambda0, lam, conv = 1.0, at.data[0], rank[0] == 0
        message = "normal extremal" if conv else _stopped(at.f, " along K = k")
    return _report(p, cp.trajectory(z), float(np.abs(at.g).max()), lambda0, lam,
                   records=at.data[3:], converged=conv, iterations=it,
                   multistart_index=rank[-1], constraint_error=feas, message=message)


def solve_auto(
    p: va.VariationalProblem, cfg: SolverConfig = SolverConfig()
) -> tuple[SolveReport | None, str, ClosestApproach | None]:
    """Solve p by the method its shape selects: ``solve_isoperimetric`` when
    it has a constraint, the self-consistency scan when it is in the affine
    class with both endpoints fixed, and ``solve`` otherwise.  Returns the
    report (None on an empty consistency set, whose first root is reported
    otherwise), the method ('isoperimetric', 'consistency' or 'direct') and,
    for the self-consistency method, the closest approach to a root."""
    if p.constraint is not None:
        return solve_isoperimetric(p, cfg), "isoperimetric", None
    if p.bc_a is None or p.bc_b is None or not is_affine_class(p):
        return solve(p, cfg), "direct", None
    roots, near = consistency_scan(p)
    if not roots:
        return None, "consistency", near
    root, total = roots[0], f"; {len(roots)} roots total" if len(roots) > 1 else ""
    message = f"self-consistent extremal (A={root.A:.12g} B={root.B:.12g}{total})"
    report = _report(p, root.trajectory, converged=True, iterations=0, multistart_index=0,
                     message=message)
    return report, "consistency", near


# ---------------------------------------------------------------------------
# Self-consistency solving for derivative-affine problems


def is_affine_class(p: va.VariationalProblem) -> bool:
    """True when both integrands are state-independent with derivative-affine
    slope, so the stationarity equation is linear in the difference quotient."""
    return all(
        ex.is_zero(va._d(L, "y")) and not ex.depends_on(va._d(L, "v"), "y")
        and not ex.depends_on(va._d(L, "vv"), "v")
        for L in (p.L_delta, p.L_nabla)
    )


_THETA_POINTS = 512  # nodes of the scan grid over [0, pi]
_LOOKAHEAD_SAMPLES = 1 << 10  # trajectory samples per call of G in a search
_MIN_WIDTH = 1e-10  # a minimum's bracket is refined until narrower than this


def _affine_pieces(p: va.VariationalProblem):
    """Each integrand on each interval as a quadratic in the slope v,
    L = c + p*v + q*v^2/2: (cd, pd, qd) for L_delta at the left point and
    (cn, pn, qn) for L_nabla at the right point, from one sample at v = 0 of
    L and its first and second v-partials (a state-independent integrand
    with a v-affine v-partial is exactly this quadratic).  The stationarity
    equation reads A*(pd + qd*v) + B*(pn + qn*v) = C on each interval.  An
    integrand undefined at a point of the scale raises ``DomainViolation``
    there."""
    ts = p.scale
    zeros = np.zeros(len(ts) - 1)

    def quadratic(L, t):
        return va._sampled(L, ("", "v", "vv"), (t, zeros, zeros))

    return quadratic(p.L_delta, ts.points[:-1]) + quadratic(p.L_nabla, ts.points[1:])


def _trajectories(p, pieces, A, B):
    """Rows y_{A,B} and their slopes for 1-D arrays A, B: the stationarity
    equation solved with C pinned by the right boundary value.  The mask is
    False for rows where that linear solve degenerates."""
    _, pd, qd, _, pn, qn = pieces
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
    which an integrand is undefined, without losing the other rows.  Each
    row is reduced by its own dot product, so its bits do not depend on the
    other rows (a matrix-vector product may block rows differently)."""
    ts = p.scale
    try:
        (ld,) = va._program(p.L_delta, ("",))(ts.points[:-1], y[:, 1:], d)
        (ln,) = va._program(p.L_nabla, ("",))(ts.points[1:], y[:, :-1], d)
    except ex.DomainViolation:
        if len(y) == 1:
            return np.full(1, np.nan), np.full(1, np.nan)
        h = len(y) // 2
        (n1, d1), (n2, d2) = _integrals(p, y[:h], d[:h]), _integrals(p, y[h:], d[h:])
        return np.concatenate([n1, n2]), np.concatenate([d1, d2])
    with np.errstate(all="ignore"):
        jn = np.vecdot(np.broadcast_to(ln, d.shape), ts.nu_values[1:])
        jd = np.vecdot(np.broadcast_to(ld, d.shape), ts.mu_values[:-1])
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


def _multisect(G, lo, hi, least, n, centre=None):
    """One call of G cuts each bracket [lo, hi] into k + 1 equal cells, with
    k = max(least, _LOOKAHEAD_SAMPLES // (brackets*n)) on a scale of n
    points: the (brackets, k + 2) cell ends, lo and hi included, and G at
    the k interior ones.  ``centre``, the abscissae and G values of a sample
    at the centre of each bracket, takes the place of the middle interior
    point when k is odd, and G is not called there again."""
    k = max(least, _LOOKAHEAD_SAMPLES // (lo.size * n))
    x = np.empty((lo.size, k + 2))
    x[:, 0], x[:, -1] = lo, hi
    inner = lo[:, None] + (hi - lo)[:, None] * (np.arange(1, k + 1) / (k + 1))
    x[:, 1:-1] = np.minimum(inner, hi[:, None])  # hi - lo may round up
    if centre is None or k % 2 == 0:
        return x, G(x[:, 1:-1].ravel()).reshape(lo.size, k)
    mid = (k + 1) // 2
    x[:, mid] = centre[0]
    new = np.ones(k + 2, bool)
    new[[0, mid, k + 1]] = False
    g = np.empty((lo.size, k))
    g[:, mid - 1] = centre[1]
    g[:, new[1:-1]] = G(x[:, new].ravel()).reshape(lo.size, k - 1)
    return x, g


def _min_search(G, sign, lo, hi, n):
    """Multisection for a minimum of sign*G on each [lo, hi]: each call of G
    samples at least 3 interior points per bracket and keeps the two cells
    around the smallest value, until the bracket is narrower than
    _MIN_WIDTH; that value is the centre of the kept cells, which the next
    call does not sample again.  Returns the best abscissae and values (NaN
    and inf where sign*G was never defined)."""
    lo, hi = lo.copy(), hi.copy()
    best_x, best_f = np.full(lo.shape, np.nan), np.full(lo.shape, np.inf)
    live, centre = np.arange(lo.size), None
    while live.size:
        x, g = _multisect(G, lo[live], hi[live], 3, n, centre)
        f = sign[live, None] * g
        f[np.isnan(f)] = np.inf
        rows, i = np.arange(live.size), np.argmin(f, axis=1)
        f, better = f[rows, i], f[rows, i] < best_f[live]
        best_x[live[better]], best_f[live[better]] = x[rows, i + 1][better], f[better]
        lo[live], hi[live] = x[rows, i], x[rows, i + 2]
        keep = hi[live] - lo[live] >= _MIN_WIDTH
        live, centre = live[keep], (x[rows, i + 1][keep], g[rows, i][keep])
    return best_x, best_f


def _root_search(G, a, b, neg_a, n):
    """Multisection of a sign change of G on each [a, b] (``neg_a`` is
    G(a) <= 0): each call of G samples at least 1 interior point per bracket
    and keeps the first cell whose right end has the other sign, until a and
    b are adjacent floating-point numbers or 64 bits of the first width are
    resolved.  Returns the left ends."""
    a, b = a.copy(), b.copy()
    cap = (b - a) * 2.0**-64
    live = np.arange(a.size)
    for _ in range(64):  # a call resolves at least one bit
        live = live[(np.nextafter(a[live], b[live]) < b[live]) & (b[live] - a[live] > cap[live])]
        if live.size == 0:
            break
        x, g = _multisect(G, a[live], b[live], 1, n)
        other = np.ones((live.size, g.shape[1] + 1), bool)  # b has the other sign
        other[:, :-1] = (g <= 0.0) != neg_a[live, None]
        rows, i = np.arange(live.size), np.argmax(other, axis=1)
        a[live], b[live] = x[rows, i], x[rows, i + 1]
    return a


def _two_product(x, y):
    """(p, e) with p = fl(x*y) and x*y = p + e exactly (Dekker's product):
    exact for factors that are 0 or of magnitude in _EXACT_RANGE, where no
    split overflows and no partial product underflows."""
    p = x * y
    (xh, xl), (yh, yl) = _split(x), _split(y)
    return p, (((xh * yh - p) + xl * yh) + xh * yl) + xl * yl


_EXACT_RANGE = (2.0**-480, 2.0**480)


def _proportional(qd, qn):
    """(kappa, lam, w) with (qd, qn) = (kappa, lam)*w on every interval and
    no w zero, or None.  w is the side of larger magnitude itself, with
    factor exactly 1, and the other factor is one rounded quotient, so a
    side that is zero everywhere has factor exactly 0.  The test is exact:
    each interval's cross product with a reference interval r, qd*qn[r]
    against qn*qd[r], is compared as an error-free pair (``_two_product``),
    which needs every curvature to be 0 or of magnitude in _EXACT_RANGE;
    outside that range the answer is None."""
    swap = np.max(np.abs(qn)) > np.max(np.abs(qd))
    w, other = (qn, qd) if swap else (qd, qn)
    mag = np.abs(np.concatenate([qd, qn]))
    exact = (mag == 0.0) | ((mag >= _EXACT_RANGE[0]) & (mag <= _EXACT_RANGE[1]))
    if not (np.all(w != 0.0) and np.all(exact)):
        return None
    r = int(np.argmax(np.abs(w)))
    cross = zip(_two_product(other, w[r]), _two_product(w, other[r]))
    if not all(np.array_equal(x, y) for x, y in cross):
        return None
    ratio = other[r] / w[r]
    return (ratio, 1.0, w) if swap else (1.0, ratio, w)


def _side(weights, c, p1, q, alpha, beta):
    """Coefficients (highest first) of the quadratic in tau
    sum(weights*(c + p1*v + q*v^2/2)) at the slopes v = alpha + beta*tau."""
    return np.array([
        np.dot(weights, q * beta * beta) / 2.0,
        np.dot(weights, (p1 + q * alpha) * beta),
        np.dot(weights, c + p1 * alpha + q * alpha * alpha / 2.0),
    ])


def _cubic(p, pieces):
    """The roots and the closest approach of the self-consistency system
    when the curvatures are proportional, from the real roots of a cubic
    and a quartic (see ``consistency_scan``); None outside that class, and
    where the cubic is not finite or vanishes identically."""
    cd, pd, qd, cn, pn, qn = pieces
    ray = _proportional(qd, qn)
    if ray is None:
        return None
    kappa, lam, w = ray
    s = kappa * kappa + lam * lam
    # (a, b) = (A, B)/D on the line kappa*a + lam*b = 1, as polynomials in tau
    a, b = np.array([-lam, kappa / s]), np.array([kappa, lam / s])
    mu, nu = p.scale.mu_values[:-1], p.scale.nu_values[1:]
    with np.errstate(all="ignore"):
        m = mu / w
        sm = np.sum(m)
        # slopes (C/D - a*pd - b*pn)/w with C/D pinned by the right boundary value
        ga, gb = (np.dot(m, pd) / sm - pd) / w, (np.dot(m, pn) / sm - pn) / w
        alpha = (p.bc_b - p.bc_a) / (sm * w) + a[1] * ga + b[1] * gb
        beta = a[0] * ga + b[0] * gb
        jd, jn = _side(mu, cd, pd, qd, alpha, beta), _side(nu, cn, pn, qn, alpha, beta)
        # kappa is exactly 0 where qd is (lam where qn is), so a side without
        # v^2 leaves the leading coefficient of P exactly 0
        P = np.convolve(jn, b) - np.convolve(jd, a)
        Q = np.convolve(a, a) + np.convolve(b, b)
        # |G| = |P|/sqrt(Q): its minimum is at a root of P or of R = P'Q - PQ'/2
        R = np.convolve(P[:-1] * [3.0, 2.0, 1.0], Q) - np.convolve(P, Q[:-1] * [1.0, 0.5])
    if not (np.isfinite(P).all() and np.isfinite(R).all() and P.any()):
        return None
    # a near-double root may come back as a complex pair: its real part is
    # a candidate, and the residual test decides
    tau = np.roots(P).real
    t = np.concatenate([tau, np.roots(R).real])
    theta = np.mod(np.arctan2(np.polyval(a, t), np.polyval(b, t)), np.pi)
    _, _, closest = _ray_pairs(p, pieces, theta)
    return _roots(p, pieces, np.polyval(jn, tau), np.polyval(jd, tau)), closest


def _scan(p, pieces):
    """The roots and the closest approach of the self-consistency system
    from the angle scan (see ``consistency_scan``)."""
    n = len(p.scale)
    seen = []  # every angle G is taken at, and G there

    def G(theta):
        g = _on_rays(p, pieces, theta)[0]
        seen.append((np.array(theta), g))
        return g

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
    t_min, f_min = _min_search(G, sign, theta[k] - h, theta[k] + h, n)
    split = f_min < 0.0
    j = np.flatnonzero(change[1:]) + 1
    a = np.concatenate([theta[j], theta[k[split]] - h, t_min[split]])
    b = np.concatenate([theta[j + 1], t_min[split], theta[k[split]] + h])
    neg_a = np.concatenate([neg[j], neg[k[split]], ~neg[k[split]]])
    # |G| at the ends of each bracket: the search through a pole ends above it
    ends = np.concatenate([
        np.maximum(mag[j], mag[j + 1]),
        np.maximum(mag[k[split] - 1], -f_min[split]),
        np.maximum(mag[k[split] + 1], -f_min[split]),
        np.full(np.count_nonzero(~split), np.inf),
    ])
    cand = np.concatenate([_root_search(G, a, b, neg_a, n), t_min[~split]])
    # a minimum bracket whose samples, its searches' included, change sign
    # more than twice holds more than the one pair of roots refined above:
    # every one of its sign-change cells is refined too
    x, gx = (np.concatenate(z) for z in zip(*seen))
    order = np.argsort(x, kind="stable")
    x, gx = x[order], gx[order]
    cell = np.isfinite(gx[:-1]) & np.isfinite(gx[1:]) & ((gx[:-1] <= 0.0) != (gx[1:] <= 0.0))
    first = np.searchsorted(x, theta[k - 1])
    last = np.searchsorted(x, theta[k + 1], "right") - 1
    crowded = [lo + np.flatnonzero(cell[lo:hi]) for lo, hi in zip(first, last)]
    crowded = [c for c in crowded if c.size > 2]
    if crowded:
        i = np.concatenate(crowded)
        cand = np.concatenate([cand, _root_search(G, x[i], x[i + 1], gx[i] <= 0.0, n)])
        ends = np.concatenate([ends, np.maximum(np.abs(gx[i]), np.abs(gx[i + 1]))])
    g, (A, B), closest = _ray_pairs(p, pieces, cand)
    near = np.abs(g) < ends
    return _roots(p, pieces, A[near], B[near]), closest


def _ray_pairs(p, pieces, theta):
    """G at each angle, the pair (A, B) on its ray nearest (J_nabla, J_delta),
    r(sin theta, cos theta) with r = sin(theta)*J_nabla + cos(theta)*J_delta,
    and the closest approach: the angle (mod pi) with the smallest |G|,
    None if G is undefined at every angle."""
    g, jn, jd = _on_rays(p, pieces, theta)
    sin, cos = np.sin(theta), np.cos(theta)
    r = sin * jn + cos * jd
    A, B = r * sin, r * cos
    fin = np.flatnonzero(np.isfinite(g))
    if fin.size == 0:
        return g, (A, B), None
    i = fin[np.argmin(np.abs(g[fin]))]
    return g, (A, B), ClosestApproach(
        float(np.mod(theta[i], np.pi)), float(A[i]), float(B[i]), float(abs(g[i]))
    )


def _roots(p, pieces, A, B):
    """The candidate pairs (A, B) that solve the system, as ConsistencyRoots:
    the residual max(|J_nabla - A|, |J_delta - B|) at y_{A,B} is at most
    1e-10*(1 + max(|A|, |B|)); deduplicated at distance 1e-6, the first
    candidate kept, and sorted by (A, B)."""
    jn, jd = _ray_integrals(p, pieces, A, B)
    resid = np.maximum(np.abs(jn - A), np.abs(jd - B))
    roots: list[int] = []
    for i in np.flatnonzero(resid <= 1e-10 * (1.0 + np.maximum(np.abs(A), np.abs(B)))):
        if all(np.hypot(A[i] - A[q], B[i] - B[q]) > 1e-6 for q in roots):
            roots.append(i)
    roots.sort(key=lambda i: (A[i], B[i]))
    y = _trajectories(p, pieces, A[roots], B[roots])[0]
    return [
        ConsistencyRoot(float(A[i]), float(B[i]), GridFunction(p.scale, row))
        for i, row in zip(roots, y)
    ]


def consistency_scan(
    p: va.VariationalProblem,
) -> tuple[list[ConsistencyRoot], ClosestApproach | None]:
    """The real solutions (A, B) of the self-consistency system

        A = J_nabla(y_{A,B}),   B = J_delta(y_{A,B}),

    where y_{A,B} solves the derivative-affine stationarity equation with the
    problem's boundary values, and the closest approach to a solution:
    every solution where the curvatures are proportional, and every one the
    angle grid resolves elsewhere.

    y_{A,B} depends only on the ratio A:B, so with (A, B) =
    r(sin theta, cos theta), theta in [0, pi), a solution is a zero of
    G(theta) = sin(theta)*J_delta(y_theta) - cos(theta)*J_nabla(y_theta),
    and then (A, B) = (J_nabla, J_delta).  |G(theta)| is the distance from
    (J_nabla, J_delta) to the ray at theta, reached at
    r = sin(theta)*J_nabla + cos(theta)*J_delta.

    *Proportional curvatures.*  Each integrand is c + p*v + q*v^2/2 on each
    interval.  When (qd, qn) = (kappa, lam)*w on every interval, with no w
    zero (``_proportional``, an exact test), the slope denominators are
    D*w with D = kappa*A + lam*B, and on the line kappa*a + lam*b = 1 of
    (a, b) = (A, B)/D, a = a0 - lam*tau and b = b0 + kappa*tau, each slope
    is affine in tau: with C/D = (Delta + a*sum(mu*pd/w) + b*sum(mu*pn/w))
    / sum(mu/w) and Delta = y(b) - y(a), J_delta and J_nabla are quadratics
    in tau, from the same sample of the integrands as the scan's.  The
    solutions are the real roots of the cubic P = J_nabla*b - J_delta*a, at
    which (A, B) = (J_nabla, J_delta); only the pole ray D = 0 is left out,
    where y_{A,B} degenerates.  A side without v^2 makes the leading
    coefficient exactly 0.  |G| = |P|/sqrt(a^2 + b^2), so its minimum is at
    a root of P or of the quartic P'*(a^2 + b^2) - P*(a*a' + b*b'), and the
    closest approach is the smallest |G| at the angles atan2(a, b) of their
    roots.  Both polynomials are solved as companion-matrix eigenvalues
    (``np.roots``), and the real part of every root is a candidate.

    *Otherwise* (or if that cubic is not finite, or vanishes identically),
    G is sampled on a fixed grid of angles, a block at a time, and the
    brackets it finds are refined by multisection: each further call of G
    samples every open bracket at k equally spaced interior points, k as
    large as _LOOKAHEAD_SAMPLES trajectory samples allow (see _multisect).
    A sign change keeps its first cell that still holds one, down to
    adjacent floating-point numbers or 2^-64 of its first width.  A local
    minimum of |G| keeps the two cells around its smallest sample (at least
    3 per call) until narrower than 1e-10: a minimum through which G
    changes sign holds two close roots, whose sign changes are then
    refined, and one that touches zero is a tangent root.  Where the
    samples of one minimum's bracket, its searches' included, change sign
    more than twice, every sign-change cell among them is refined too.  A
    root between the grid angles that none of these leads to is missed.  A
    refined point is a candidate only when, for a sign change, |G| there is
    below |G| at the bracket's ends, which rejects a sign change through a
    pole, where y_theta degenerates: (A, B) grows without bound there, and
    the residual tolerance grows with it, faster than |G|.  The closest
    approach is the refined point with the smallest |G| (None if G is
    undefined at every refined point).

    Either way a candidate is a root only when the system residual at
    (A, B) is at most 1e-10*(1 + max(|A|, |B|)); roots are deduplicated at
    distance 1e-6 and sorted by (A, B).  No random numbers and no finite
    differences.
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
    out = _cubic(p, pieces)
    return _scan(p, pieces) if out is None else out


def consistency_solve(
    p: va.VariationalProblem, cfg: SolverConfig = SolverConfig()
) -> list[ConsistencyRoot]:
    """The distinct real solutions (A, B) of the self-consistency system,
    sorted by (A, B): all of them where the curvatures are proportional,
    and those the angle grid resolves elsewhere (see ``consistency_scan``).
    An empty list means none was found.  The search is deterministic, so
    ``cfg`` has no effect on it."""
    return consistency_scan(p)[0]


# ---------------------------------------------------------------------------
# Second-order probing


def probe_extremal_type(
    p: va.VariationalProblem, y: GridFunction, cfg: SolverConfig = SolverConfig()
) -> str:
    """Classify a stationary trajectory by the ``_inertia`` of the exact
    Hessian of J on the free block (the model of ``_merit``): positive definite
    is 'local-min-indication', negative definite 'local-max-indication', both
    signs 'saddle-indication', and singular to rounding or undefined
    'inconclusive'.  ``cfg`` supplies only grad_tol, for the stationarity check.
    The defect and J of that check come from the first-order record whose
    samples the Hessian reuses: one first-order and one second-order kernel
    run in all."""
    first = va._record(p, y)
    defect = va._report(p.scale, first.gradient, "el1").defect  # both residual forms share it
    if defect > 10.0 * cfg.grad_tol * (1.0 + abs(first.value)):
        raise ValueError(f"trajectory is not stationary (defect {defect:.3e})")
    cp = _Compiled(p, y.values)
    model = _merit(cp, p, cfg.grad_tol)[1]
    val, grad = _finite(first.value, first.gradient[cp.lo : cp.hi])
    H = None if grad is None else _lockstep([model(_At(val, 0.0, None, grad, first))])[0]
    counts = None if H is None else _inertia(*H)
    if counts is None:
        return "inconclusive"
    if counts[0] == 0:
        return "local-min-indication"
    return "local-max-indication" if counts[1] == 0 else "saddle-indication"
