"""Double-integral variational problems on a finite time scale.

The objective is the product of a forward-difference functional and a
backward-difference functional,

    J(y) = J_delta(y) * J_nabla(y),
    J_delta(y) = sum over [a,b) of mu(t)  * Ld(t, y(sigma(t)), Dy(t)),
    J_nabla(y) = sum over (a,b] of nu(t)  * Ln(t, y(rho(t)),   Ny(t)),

where Dy and Ny are the forward and backward difference quotients.  The
module evaluates the functionals and every first-order residual attached to
them: the two integral Euler-Lagrange forms, the differential one-calculus
forms, natural boundary conditions for free endpoints, and the multiplier
form for an isoperimetric constraint K(y) = k built the same way from a
second pair of integrands.

A stationarity residual is reported together with its "defect": the maximum
absolute deviation from its mean.  The defect is zero exactly when the
residual is constant, which is the first-order condition in integral form.
A residual that overflows raises ``DomainViolation``, as an integrand that
is undefined along the trajectory does.

Every first-order quantity reduces from one record, the ``ProductGradient``
of a first-order kernel run (``_first``).  By summation by parts, both
integral Euler-Lagrange forms are one array, the negated running sum of the
node gradient (``_el_residual``); the natural boundary residuals are
-dJ/dy(a) and dJ/dy(b), and the first variation in a direction eta is the
gradient dotted with eta.  A multiplier residual is the same running sum of
lambda0 * gradJ - lambda * gradK.

The exact gradient and structured Hessian of J, which every solver step
evaluates, come from one compiled kernel per integrand pair and order
(``_kernel``): one straight-line program of the forward and the backward
samples, which share the difference quotient, followed by one assembly of
the sums, the node gradients and the tridiagonal Hessian parts.  A kernel
run has one fault check, a finite quotient and no floating-point fault,
and falls back to the checked program of each integrand otherwise
(``_pair``).  Every kernel run takes a 2-D stack of node rows, one per
solver start or one trajectory, and gives each row, bit for bit, its
outcome alone: its record or its DomainViolation; a stack that faults
runs again by halves.  A gradient keeps its own copy of its samples, from
which the Hessian at the same point takes them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .calculus import GridFunction
from .timescale import TimeScale, interior_range

__all__ = [
    "VariationalProblem",
    "IsoperimetricConstraint",
    "ResidualReport",
    "eval_J_delta",
    "eval_J_nabla",
    "eval_J",
    "eval_K_delta",
    "eval_K_nabla",
    "eval_K",
    "el_residual_1",
    "el_residual_2",
    "el_differential_delta",
    "el_differential_nabla",
    "natural_bc_residual_a",
    "natural_bc_residual_b",
    "natural_bc_reduced",
    "iso_residual",
    "is_K_extremal",
    "weak_norm",
    "first_variation",
    "functional_gradient",
    "functional_hessian",
    "ProductGradient",
    "ProductHessian",
]


@dataclass(frozen=True)
class IsoperimetricConstraint:
    """Constraint K(y) = k with K built like J from its own integrand pair."""

    K_delta: ex.Expression
    K_nabla: ex.Expression
    k: float

    def __post_init__(self):
        if not np.isfinite(self.k):
            raise ValueError("constraint level k must be finite")


@dataclass(frozen=True)
class VariationalProblem:
    """Scale, the two Lagrangians, boundary data and an optional constraint.

    ``bc_a``/``bc_b`` are the prescribed endpoint values; ``None`` marks a
    free endpoint.
    """

    scale: TimeScale
    L_delta: ex.Expression
    L_nabla: ex.Expression
    bc_a: float | None
    bc_b: float | None
    constraint: IsoperimetricConstraint | None = None

    def __post_init__(self):
        for name in ("bc_a", "bc_b"):
            val = getattr(self, name)
            if val is not None and not np.isfinite(val):
                raise ValueError(f"{name} must be finite or None (free)")


@dataclass(frozen=True)
class ResidualReport:
    residual: GridFunction
    defect: float
    mean: float
    form: str  # 'el1' | 'el2' | 'iso1' | 'iso2'


def _check_trajectory(p: VariationalProblem, y: GridFunction):
    if y.scale != p.scale:
        raise ValueError("trajectory lives on a different time scale")
    if not y.is_full():
        raise ValueError("trajectory must be defined at every point, a and b included")


def _samples(ts: TimeScale, yvals: np.ndarray, forward: bool):
    """The forward samples (t, y^sigma, Dy) over the scale minus its maximum
    point, or the backward samples (t, y^rho, Ny) over the scale minus its
    minimum point."""
    if forward:
        return ts.points[:-1], yvals[1:], np.diff(yvals) / ts.mu_values[:-1]
    return ts.points[1:], yvals[:-1], np.diff(yvals) / ts.nu_values[1:]


def _program(e: ex.Expression, slots: tuple) -> ex.Program:
    """The compiled program of the partials of ``e`` named by ``slots`` (see
    ``_d``), kept on ``e`` like the partials themselves."""
    memo = vars(e).setdefault("_programs", {})
    hit = memo.get(slots)
    if hit is None:
        hit = memo[slots] = ex.Program(_d(e, s) for s in slots)
    return hit


def _sampled(e: ex.Expression, slots: tuple, samples: tuple) -> tuple:
    """The partials of ``e`` named by ``slots`` at ``samples``, three arrays of
    one shape, from one run of its program; a ``DomainViolation`` names the t
    of the first non-finite element of the failing node (the first sample for
    a scalar node)."""
    try:
        return _program(e, slots)(*samples)
    except ex.DomainViolation as err:
        ti = float(np.ravel(samples[0])[err.index or 0])
        raise ex.DomainViolation(f"{err.reason} at t={ti!r}", err.offset, err.index) from None


def _d(e: ex.Expression, slots: str) -> ex.Expression:
    """Exact partial of ``e`` in the slots named by ``slots`` ('y', 'v',
    'yy', 'yv', 'vv'; '' is ``e`` itself), differentiated once per integrand.

    The partials are kept in the integrand's own instance dictionary, as
    ``functools.cached_property`` does on frozen dataclasses, so they live
    exactly as long as the integrand; equality and hashing ignore them.
    """
    if not slots:
        return e
    memo = vars(e).setdefault("_partials", {})
    hit = memo.get(slots)
    if hit is None:
        inner = e if len(slots) == 1 else _d(e, slots[:-1])
        hit = memo[slots] = ex.differentiate(inner, slots[-1])
    return hit


def eval_J_delta(p: VariationalProblem, y: GridFunction) -> float:
    _check_trajectory(p, y)
    (vals,) = _sampled(p.L_delta, ("",), _samples(p.scale, y.values, True))
    return float(np.dot(p.scale.mu_values[:-1], vals))


def eval_J_nabla(p: VariationalProblem, y: GridFunction) -> float:
    _check_trajectory(p, y)
    (vals,) = _sampled(p.L_nabla, ("",), _samples(p.scale, y.values, False))
    return float(np.dot(p.scale.nu_values[1:], vals))


def eval_J(p: VariationalProblem, y: GridFunction) -> float:
    return eval_J_delta(p, y) * eval_J_nabla(p, y)


def _require_constraint(p: VariationalProblem) -> IsoperimetricConstraint:
    if p.constraint is None:
        raise ValueError("problem has no isoperimetric constraint")
    return p.constraint


def _as_constraint_problem(p: VariationalProblem) -> VariationalProblem:
    c = _require_constraint(p)
    return VariationalProblem(p.scale, c.K_delta, c.K_nabla, p.bc_a, p.bc_b)


def eval_K_delta(p: VariationalProblem, y: GridFunction) -> float:
    return eval_J_delta(_as_constraint_problem(p), y)


def eval_K_nabla(p: VariationalProblem, y: GridFunction) -> float:
    return eval_J_nabla(_as_constraint_problem(p), y)


def eval_K(p: VariationalProblem, y: GridFunction) -> float:
    return eval_K_delta(p, y) * eval_K_nabla(p, y)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals


def _record(p: VariationalProblem, y: GridFunction) -> ProductGradient:
    """The first-order record of J at the trajectory y, from which every
    first-order quantity reduces: one run of the pair's first-order kernel
    (``_first``)."""
    _check_trajectory(p, y)
    return _first(p.scale, p.L_delta, p.L_nabla, y.values)


def _el_residual(gradient: np.ndarray) -> np.ndarray:
    """Both integral Euler-Lagrange residual forms of the functional whose
    node gradient is ``gradient``, one array over k = 0..N-2.  With
      f(t) = d3 Ld (t) - integral_a^t d2 Ld   on the scale minus its maximum,
      g(t) = d3 Ln (t) - integral_a^t d2 Ln   on the scale minus its minimum,
    summation by parts gives Jn * f(t_k) + Jd * g(t_{k+1}) = -sum_{j<=k}
    dJ/dy_j: the residual is the negated running sum of the gradient."""
    return -np.cumsum(gradient[:-1])


def _stats(vals: np.ndarray) -> tuple[float, float]:
    """Mean and defect (largest absolute deviation from the mean)."""
    mean = float(np.mean(vals))
    return mean, float(np.max(np.abs(vals - mean)))


def _finite(vals, t: np.ndarray, what: str):
    """vals, or DomainViolation naming the t of its first non-finite entry."""
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise ex.DomainViolation(f"{what} not finite at t={float(t[i])!r}", index=i)
    return vals


def _report(ts: TimeScale, gradient: np.ndarray, form: str) -> ResidualReport:
    """The residual report of the functional whose node gradient is
    ``gradient``: 'el1' and 'iso1' on the scale minus its minimum, 'el2' and
    'iso2' minus its maximum."""
    vals = _el_residual(gradient)
    domain = range(1, len(ts)) if form.endswith("1") else range(0, len(ts) - 1)
    _finite(vals, ts.points[domain.start :], f"{form} residual")
    mean, defect = _stats(vals)
    return ResidualReport(GridFunction(ts, vals, domain), defect, mean, form)


def el_residual_1(p: VariationalProblem, y: GridFunction) -> ResidualReport:
    """Integral Euler-Lagrange residual on the scale minus its minimum:

        Jn * (d3 Ld(rho(t)) - int_a^rho(t) d2 Ld)
      + Jd * (d3 Ln(t)      - int_a^t      d2 Ln),

    which is -sum over s < t of dJ/dy(s) (``_el_residual``)."""
    return _report(p.scale, _record(p, y).gradient, "el1")


def el_residual_2(p: VariationalProblem, y: GridFunction) -> ResidualReport:
    """Integral Euler-Lagrange residual on the scale minus its maximum:

        Jd * (d3 Ln(sigma(t)) - int_a^sigma(t) d2 Ln)
      + Jn * (d3 Ld(t)        - int_a^t        d2 Ld),

    which is -sum over s <= t of dJ/dy(s): the array of ``el_residual_1``
    on the other domain."""
    return _report(p.scale, _record(p, y).gradient, "el2")


def _pure_kind(p: VariationalProblem) -> str:
    delta_pure = ex.is_constant(p.L_nabla)
    nabla_pure = ex.is_constant(p.L_delta)
    if delta_pure:
        return "delta"
    if nabla_pure:
        return "nabla"
    return "mixed"


def el_differential_delta(p: VariationalProblem, y: GridFunction) -> GridFunction:
    """Pointwise residual (D d3 Ld)(t) - d2 Ld(t) off the two largest points.

    This is the one-calculus differential form; it is justified only when the
    backward integrand is constant, so a mixed problem triggers a warning.
    """
    _check_trajectory(p, y)
    if _pure_kind(p) == "mixed":
        warnings.warn(
            "differential delta residual applied to a problem whose backward "
            "integrand is not constant",
            stacklevel=2,
        )
    ts = p.scale
    d3, d2 = _sampled(p.L_delta, ("v", "y"), _samples(ts, y.values, True))
    dd3 = np.diff(d3) / ts.mu_values[: len(ts) - 2]
    return GridFunction(ts, dd3 - d2[:-1], range(0, len(ts) - 2))


def el_differential_nabla(p: VariationalProblem, y: GridFunction) -> GridFunction:
    """Pointwise residual (N d3 Ln)(t) - d2 Ln(t) off the two smallest points."""
    _check_trajectory(p, y)
    if _pure_kind(p) == "mixed":
        warnings.warn(
            "differential nabla residual applied to a problem whose forward "
            "integrand is not constant",
            stacklevel=2,
        )
    ts = p.scale
    d3, d2 = _sampled(p.L_nabla, ("v", "y"), _samples(ts, y.values, False))
    nd3 = np.diff(d3) / ts.nu_values[2:]
    return GridFunction(ts, nd3 - d2[1:], range(2, len(ts)))


# ---------------------------------------------------------------------------
# Natural boundary conditions


def natural_bc_residual_a(p: VariationalProblem, y: GridFunction) -> float:
    """Residual that vanishes at an extremal when y(a) is free:

        Jd * (d3 Ln(sigma(a)) - int_a^sigma(a) d2 Ln) + Jn * d3 Ld(a)

    which equals -dJ/dy(a), the first entry of ``el_residual_2``.
    """
    _check_trajectory(p, y)
    if p.bc_a is not None:
        raise ValueError("endpoint a is not free")
    nbc = -_record(p, y).gradient[0]
    return _finite(float(nbc), p.scale.points[:1], "natural boundary residual")


def natural_bc_residual_b(p: VariationalProblem, y: GridFunction) -> float:
    """Residual that vanishes at an extremal when y(b) is free:

        Jn * (d3 Ld(rho(b)) - int_a^rho(b) d2 Ld + int_a^b d2 Ld)
      + Jd * (d3 Ln(b)      - int_a^b      d2 Ln + int_a^b d2 Ln)

    which equals dJ/dy(b), the gradient entry of the free node b.
    """
    _check_trajectory(p, y)
    if p.bc_b is not None:
        raise ValueError("endpoint b is not free")
    nbc = _record(p, y).gradient[-1]
    return _finite(float(nbc), p.scale.points[-1:], "natural boundary residual")


def natural_bc_reduced(
    p: VariationalProblem, y: GridFunction, which: str, variant: str | None = None
) -> float:
    """One-calculus natural boundary residual for a pure problem.

    ``which`` selects the endpoint ('a' or 'b').  For the forward-pure case
    the residual at b exists in an 'integral' and an equivalent 'product'
    variant (d3 Ld(rho(b)) + (b - rho(b)) * d2 Ld(rho(b))); for the
    backward-pure case the same two variants exist at a.  On a finite scale
    the variants agree exactly because the one-interval integral collapses
    to graininess times integrand.
    """
    _check_trajectory(p, y)
    if which not in ("a", "b"):
        raise ValueError("which must be 'a' or 'b'")
    kind = _pure_kind(p)
    if kind == "mixed":
        raise ValueError("reduced natural boundary conditions need a pure problem")
    ts = p.scale
    L = p.L_delta if kind == "delta" else p.L_nabla
    d2, d3 = _sampled(L, ("y", "v"), _samples(ts, y.values, kind == "delta"))
    if kind == "delta":
        if which == "a":
            return float(d3[0])
        if variant == "integral":
            # d3 Ld(rho(b)) + int_rho(b)^b d2 Ld
            return float(d3[-1] + ts.mu_values[len(ts) - 2] * d2[-1])
        # printed product form, identical on a finite scale
        gap = ts.points[-1] - ts.points[-2]
        return float(d3[-1] + gap * d2[-1])
    if which == "b":
        return float(d3[-1])
    if variant == "product":
        # (sigma(a) - a) times the integrand at the first backward sample
        gap = ts.points[1] - ts.points[0]
        return float(d3[0] - gap * d2[0])
    # printed integral form: d3 Ln(sigma(a)) - int_a^sigma(a) d2 Ln
    return float(d3[0] - ts.nu_values[1] * d2[0])


# ---------------------------------------------------------------------------
# Isoperimetric residuals


def iso_residual(
    p: VariationalProblem,
    y: GridFunction,
    lambda0: float,
    lam: float,
    form: str,
) -> ResidualReport:
    """Multiplier residual lambda0 * (J terms) - lambda * (K terms): the
    residual (``_el_residual``) of the node gradient lambda0 * gradJ -
    lambda * gradK, from one first-order record of each integrand pair.

    ``form`` selects which integral Euler-Lagrange shape is used for both
    terms ('el1' on the scale minus its minimum, 'el2' minus its maximum).
    The pair (lambda0, lambda) must not be (0, 0).
    """
    _check_trajectory(p, y)
    _require_constraint(p)
    if lambda0 == 0.0 and lam == 0.0:
        raise ValueError("multipliers lambda0 and lambda must not both be zero")
    if form not in ("el1", "el2"):
        raise ValueError("form must be 'el1' or 'el2'")
    gradJ, gradK = _record(p, y).gradient, _record(_as_constraint_problem(p), y).gradient
    return _report(p.scale, lambda0 * gradJ - lam * gradK, "iso1" if form == "el1" else "iso2")


def is_K_extremal(p: VariationalProblem, y: GridFunction, tol: float) -> bool:
    """True when both residual forms of the constraint functional are constant
    to within ``tol`` (such trajectories admit only abnormal multipliers).
    The two forms are one array on two domains, so they share one defect."""
    return _stats(_el_residual(_record(_as_constraint_problem(p), y).gradient))[1] <= tol


# ---------------------------------------------------------------------------
# Norm, first variation, discrete gradient


def weak_norm(y1: GridFunction, y2: GridFunction) -> float:
    """Distance used for weak local extrema: the sum of the sup norms of the
    shifted differences and of both difference quotients, all taken over the
    interior points."""
    if y1.scale != y2.scale:
        raise ValueError("weak_norm needs two trajectories on the same scale")
    if not (y1.is_full() and y2.is_full()):
        raise ValueError("weak_norm needs full trajectories")
    ts = y1.scale
    d = y1.values - y2.values
    inner = interior_range(ts)
    sl = slice(inner.start, inner.stop)
    dsig = d[np.minimum(np.arange(len(ts)) + 1, len(ts) - 1)]
    drho = d[np.maximum(np.arange(len(ts)) - 1, 0)]
    quot = np.diff(d) / np.diff(ts.points)
    ddelta = quot  # index i holds the forward quotient at t_i
    dnabla = quot  # index i-1 holds the backward quotient at t_i
    return float(
        np.max(np.abs(dsig[sl]))
        + np.max(np.abs(drho[sl]))
        + np.max(np.abs(ddelta[sl]))
        + np.max(np.abs(dnabla[inner.start - 1 : inner.stop - 1]))
    )


def first_variation(p: VariationalProblem, y: GridFunction, eta: GridFunction) -> float:
    """Exact directional derivative of J at y in direction eta:

        Jd * sum nu * (d2 Ln * eta^rho + d3 Ln * N eta)
      + Jn * sum mu * (d2 Ld * eta^sigma + d3 Ld * D eta),

    which is the node gradient of J dotted with eta.
    """
    gradient = _record(p, y).gradient
    _check_trajectory(p, eta)
    return float(gradient @ eta.values)


def _grads(w: np.ndarray, n: int, d2f, d3f, d2b, d3b):
    """Node gradients of the forward and the backward weighted sum over n
    nodes from their samples of d2 and d3, for a stack of rows.

    Sample k couples nodes k and k+1 through w_k * L(t_k, y_s, Q_k) with
    Q_k = (y_{k+1} - y_k) / w_k; the state node s is k+1 in the forward sum
    (w = mu) and k in the backward sum (w = nu).
    """
    gd, gn = np.zeros((len(d2f), n)), np.zeros((len(d2f), n))
    # views of the nodes after and before each sample: adding into them adds
    # into gd and gn
    d_after, d_before, n_before, n_after = gd[:, 1:], gd[:, :-1], gn[:, :-1], gn[:, 1:]
    d_after += w * d2f + d3f
    d_before -= d3f
    n_before += w * d2b - d3b
    n_after += d3b
    return gd, gn


def _tridiagonal(w: np.ndarray, n: int, Jd, Jn, d22f, d23f, d33f, d22b, d23b, d33b):
    """Tridiagonal part (diagonal, off-diagonal) Jn * H_delta + Jd * H_nabla
    of the Hessian of J, from the samples of the second partials d22, d23
    and d33 of both weighted sums of a stack of rows, coupled as in
    ``_grads``; Jd and Jn are columns, one factor per row."""
    cf, cb = d33f / w, d33b / w
    hd, hn = np.zeros((len(cf), n)), np.zeros((len(cf), n))
    d_before, d_after, n_before, n_after = hd[:, :-1], hd[:, 1:], hn[:, :-1], hn[:, 1:]
    d_before += cf
    d_after += cf
    d_after += w * d22f + 2.0 * d23f
    n_before += cb
    n_after += cb
    n_before += w * d22b - 2.0 * d23b
    # Jn * hd + Jd * hn and Jn * off + Jd * off_b in place: at large n, fewer new arrays
    hd *= Jn
    hn *= Jd
    hd += hn
    off, off_b = -d23f - cf, d23b - cb
    off *= Jn
    off_b *= Jd
    off += off_b
    return hd, off


class ProductGradient(NamedTuple):
    """The factors of J = J_delta * J_nabla, their node gradients and the
    node gradient J_nabla * grad_delta + J_delta * grad_nabla of J, and
    ``samples``: the evaluation's own copy of the nodes y and their
    difference quotient q, at which ``functional_hessian`` samples the
    second partials.  q is None unless the compiled kernel ran without a
    floating-point fault (``clean``)."""

    J_delta: float
    J_nabla: float
    grad_delta: np.ndarray
    grad_nabla: np.ndarray
    gradient: np.ndarray
    samples: tuple

    @property
    def value(self) -> float:
        return self.J_delta * self.J_nabla

    @property
    def clean(self) -> bool:
        """True when every array and factor above is known to be finite:
        they were computed with floating-point faults raised, from finite
        samples.  Their product ``value`` may still overflow."""
        return self.samples[1] is not None


_FIRST = ("", "y", "v")  # the partials a gradient is assembled from
_SECOND = ("yy", "yv", "vv")  # and a Hessian


def _kernel(Ld: ex.Expression, Ln: ex.Expression, slots: tuple):
    """The compiled kernel of an integrand pair: one straight-line program
    of the five sample arrays (t[:-1], y[1:], q, t[1:], y[:-1]) that returns
    the partials of Ld named by ``slots`` at the forward samples (t[:-1],
    y[1:], q), then those of Ln at the backward ones (t[1:], y[:-1], q).
    The forward and backward gaps mu[:-1] and nu[1:] are the same array, so
    both sides share the quotient q, and a subtree that reads only q and
    constants is computed once for both.  None when a constant is not
    finite.  Kept on Ld, which keeps Ln alive, so its id is a safe key."""
    memo = vars(Ld).setdefault("_kernels", {})
    hit = memo.get((id(Ln), slots))
    if hit is None:
        exprs = [_d(Ld, s) for s in slots] + [_d(Ln, s) for s in slots]
        inputs = [(0, 1, 2)] * len(slots) + [(3, 4, 2)] * len(slots)
        code, outs, _ = ex._lower(exprs, inputs)
        hit = memo[(id(Ln), slots)] = (Ln, ex._compile(code, outs, 5, shared=True)[0])
    return hit[1]


def _pair(ts: TimeScale, Ld, Ln, slots: tuple, y: np.ndarray, q, assemble):
    """``assemble(w, q, partials)``, w the row of gaps, with the partials of the
    pair named by ``slots`` (ordered as by ``_kernel``) at the 2-D stack of
    node rows y and their difference quotients q, formed here unless they
    are given, and then known to be finite: a list of one outcome per row.
    The q passed on is that stack if the kernel ran clean, else [None].

    The kernel runs, and ``assemble`` with it, with floating-point faults
    raised (``_raised``).  A quotient is finite only when every node is, so
    it is the one input checked.  On a non-finite quotient, a fault or a
    kernel that is None, a stack of several rows gives None, and its caller
    runs it again by halves; one row falls back to the checked programs of
    each integrand (``_sampled``), forward side first, so its outcome, a
    DomainViolation included, is that of sampling the sides one at a time.
    Both runs give bit-identical outputs, and so does a stack, whose
    operations are elementwise and whose sums are each row's own dot
    products."""
    # w a row: then a stack of one needs no broadcasting
    tf, tb, w = ts.points[:-1], ts.points[1:], ts.mu_values[None, :-1]
    run = _kernel(Ld, Ln, slots)
    try:
        out = None if run is None else _raised(run, assemble, tf, tb, y, w, q)
    except FloatingPointError:
        out = None
    if out is not None or len(y) > 1:
        return out
    yf, yb = y[:, 1:], y[:, :-1]
    fq = (yf - yb) / w if q is None else q
    try:  # the scale's points as a row, so every partial has the row's shape
        parts = _sampled(Ld, slots, (tf[None], yf, fq)) + _sampled(Ln, slots, (tb[None], yb, fq))
    except ex.DomainViolation as err:
        return [err]
    return assemble(w, [None], parts)


@np.errstate(over="raise", divide="raise", invalid="raise")  # set per call, cheaper than `with`
def _raised(run, assemble, tf, tb, y, w, q):
    """The compiled path of ``_pair``: None when a quotient, formed here
    unless q is given, is not finite."""
    yf, yb = y[:, 1:], y[:, :-1]
    fq = (yf - yb) / w if q is None else q
    if q is None and not math.isfinite(np.add.reduce(fq, axis=None)):
        return None
    m = len(fq)  # the kernel's inputs share one shape; one row needs no copy
    tf, tb = (tf[None], tb[None]) if m == 1 else (tf[None].repeat(m, 0), tb[None].repeat(m, 0))
    return assemble(w, fq, run(tf, yf, fq, tb, yb))


def _stack(rows) -> np.ndarray:
    """The rows as a 2-D stack; one row is a view of itself, not a copy."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def _one(outcomes: list):
    """The outcome of a stack of one row, raised if it is a DomainViolation."""
    if isinstance(outcomes[0], ex.DomainViolation):
        raise outcomes[0]
    return outcomes[0]


def _first(ts: TimeScale, Ld: ex.Expression, Ln: ex.Expression, yvals) -> list | ProductGradient:
    """The outcome of the pair at each row of the 2-D stack of node rows
    yvals, from one kernel run on its own copy of the stack: the list of
    each row's ``ProductGradient``, or the DomainViolation that it raises
    alone (see ``_pair``).  One row of nodes is a stack of one, whose
    outcome is returned, or raised."""
    y = np.array(yvals, dtype=float)
    one, y = y.ndim == 1, y.reshape(-1, y.shape[-1])

    def assemble(w, q, parts):
        Lf, d2f, d3f, Lb, d2b, d3b = parts
        del parts  # free each sample after its last use: fewer live arrays at large n
        Jd, Jn = np.vecdot(Lf, w), np.vecdot(Lb, w)
        del Lf, Lb
        gd, gn = _grads(w, y.shape[1], d2f, d3f, d2b, d3b)
        del d2f, d3f, d2b, d3b
        g = Jn[:, None] * gd + Jd[:, None] * gn
        return list(map(ProductGradient._make, zip(Jd.tolist(), Jn.tolist(), gd, gn, g, zip(y, q))))

    out = _pair(ts, Ld, Ln, _FIRST, y, None, assemble)
    if out is None:
        h = len(y) // 2
        out = _first(ts, Ld, Ln, y[:h]) + _first(ts, Ld, Ln, y[h:])
    return _one(out) if one else out


def functional_gradient(
    ts: TimeScale, Ld: ex.Expression, Ln: ex.Expression, yvals: np.ndarray, factors=False
):
    """Value and exact gradient of the product functional w.r.t. every node.

    Each node value enters the forward sum through at most two samples (as a
    shifted value and through two difference quotients) and likewise the
    backward sum; the gradient is assembled by accumulating those chain-rule
    contributions.  One run of the pair's compiled kernel samples L, d2 L
    and d3 L of both integrands (see ``_pair``).  With ``factors`` the
    ``ProductGradient`` is returned instead, which ``functional_hessian``
    can reuse.  For a 2-D stack of node rows, the list of each row's
    outcome (see ``_first``): (value, gradient) or with ``factors`` the
    ProductGradient, or its DomainViolation."""
    out = _first(ts, Ld, Ln, yvals)
    if factors or isinstance(out, ProductGradient):
        return out if factors else (out.value, out.gradient)
    return [f if isinstance(f, ex.DomainViolation) else (f.value, f.gradient) for f in out]


class ProductHessian(NamedTuple):
    """Exact Hessian of J = J_delta * J_nabla w.r.t. every node:

        H = T + grad_delta grad_nabla^T + grad_nabla grad_delta^T,

    where T = J_nabla * H_delta + J_delta * H_nabla is tridiagonal, because
    each sample couples two neighbouring nodes, with main diagonal ``diag``
    and first off-diagonal ``off``; grad_delta and grad_nabla are the
    gradients of the two factors.
    """

    J_delta: float
    J_nabla: float
    grad_delta: np.ndarray
    grad_nabla: np.ndarray
    diag: np.ndarray
    off: np.ndarray

    @property
    def gradient(self) -> np.ndarray:
        return self.J_nabla * self.grad_delta + self.J_delta * self.grad_nabla

    def matvec(self, x) -> np.ndarray:
        """H @ x without forming H."""
        x = np.asarray(x, dtype=float)
        out = self.diag * x
        out[:-1] += self.off * x[1:]
        out[1:] += self.off * x[:-1]
        gd, gn = self.grad_delta, self.grad_nabla
        return out + gd * float(gn @ x) + gn * float(gd @ x)


def functional_hessian(
    ts: TimeScale,
    Ld: ex.Expression,
    Ln: ex.Expression,
    yvals: np.ndarray,
    first: ProductGradient | list | None = None,
) -> ProductHessian | list:
    """Exact structured Hessian of the product functional w.r.t. every node,
    assembled from the exact second partials d22, d23 and d33 of both
    integrands, from one run of the pair's second-order kernel (see
    ``ProductHessian`` and ``_pair``).  ``first``, the ``ProductGradient``
    of an evaluation at yvals, saves sampling the integrands and their first
    partials again: its own samples are reused, not taken again from yvals.
    For a list of ``_first``'s outcomes (yvals is then not read), or for a
    2-D stack yvals, one kernel run on the stacked samples gives the list of
    each row's outcome, as ``_first`` does."""
    first = _first(ts, Ld, Ln, yvals) if first is None else first
    firsts = first if isinstance(first, list) else [first]
    records = [f for f in firsts if isinstance(f, ProductGradient)]
    if len(records) < len(firsts):  # a row's DomainViolation is its outcome
        out = iter(functional_hessian(ts, Ld, Ln, None, records) if records else ())
        return [next(out) if isinstance(f, ProductGradient) else f for f in firsts]
    ys, qs = zip(*(f.samples for f in firsts))
    y, q = _stack(ys), None if any(qr is None for qr in qs) else _stack(qs)
    J = np.array([f[:2] for f in firsts])  # the columns J_delta and J_nabla

    def assemble(w, q, parts):
        diag, off = _tridiagonal(w, y.shape[1], J[:, :1], J[:, 1:], *parts)
        return [ProductHessian(*f[:4], d, o) for f, d, o in zip(firsts, diag, off)]

    out = _pair(ts, Ld, Ln, _SECOND, y, q, assemble)
    if out is None:
        h = len(firsts) // 2
        out = functional_hessian(ts, Ld, Ln, None, firsts[:h])
        out += functional_hessian(ts, Ld, Ln, None, firsts[h:])
    return out if isinstance(first, list) else _one(out)
