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
"""

from __future__ import annotations

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


def _on_delta(ts: TimeScale, yvals: np.ndarray):
    """Evaluator of integrands at the forward samples (t, y^sigma, Dy) over
    the scale minus its maximum point."""
    return _sampler(ts.points[:-1], yvals[1:], np.diff(yvals) / ts.mu_values[:-1])


def _on_nabla(ts: TimeScale, yvals: np.ndarray):
    """Evaluator of integrands at the backward samples (t, y^rho, Ny) over
    the scale minus its minimum point."""
    return _sampler(ts.points[1:], yvals[:-1], np.diff(yvals) / ts.nu_values[1:])


def _sampler(t, yy, vv):
    def ev(e: ex.Expression) -> np.ndarray:
        try:
            out = ex.eval_arrays(e, t, yy, vv)
        except ex.DomainViolation as err:
            raise _locate(e, t, yy, vv, err) from None
        if np.ndim(out) == 0:
            return np.full(t.shape, float(out))
        return np.array(out, dtype=float)

    return ev


def _locate(e, t, yy, vv, err):
    # slow path, only on error: find the first node where evaluation fails
    for ti, yi, vi in zip(np.atleast_1d(t), np.atleast_1d(yy), np.atleast_1d(vv)):
        try:
            ex.eval_arrays(e, ti, yi, vi)
        except ex.DomainViolation:
            return ex.DomainViolation(f"{err.reason} at t={float(ti)!r}", err.offset)
    return err


def _d(e: ex.Expression, slots: str) -> ex.Expression:
    """Exact partial of ``e`` in the slots named by ``slots`` ('y', 'v',
    'yy', 'yv', 'vv'), differentiated once per integrand.

    The partials are kept in the integrand's own instance dictionary, as
    ``functools.cached_property`` does on frozen dataclasses, so they live
    exactly as long as the integrand; equality and hashing ignore them.
    """
    memo = vars(e).setdefault("_partials", {})
    hit = memo.get(slots)
    if hit is None:
        inner = e if len(slots) == 1 else _d(e, slots[:-1])
        hit = memo[slots] = ex.differentiate(inner, slots[-1])
    return hit


def eval_J_delta(p: VariationalProblem, y: GridFunction) -> float:
    _check_trajectory(p, y)
    vals = _on_delta(p.scale, y.values)(p.L_delta)
    return float(np.dot(p.scale.mu_values[:-1], vals))


def eval_J_nabla(p: VariationalProblem, y: GridFunction) -> float:
    _check_trajectory(p, y)
    vals = _on_nabla(p.scale, y.values)(p.L_nabla)
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


def _el_parts(ts: TimeScale, Ld, Ln, yvals):
    """Common ingredients of both residual forms for one integrand pair.

    Returns (Jd, Jn, f, g) with
      f(t) = d3 Ld (t) - integral_a^t d2 Ld   on the scale minus its maximum,
      g(t) = d3 Ln (t) - integral_a^t d2 Ln   on the scale minus its minimum,
    all assembled from exact symbolic partials and exact prefix sums.
    """
    mu = ts.mu_values[:-1]
    nu = ts.nu_values[1:]
    on_d, on_n = _on_delta(ts, yvals), _on_nabla(ts, yvals)
    Jd = float(np.dot(mu, on_d(Ld)))
    Jn = float(np.dot(nu, on_n(Ln)))

    d2ld = on_d(_d(Ld, "y"))
    d3ld = on_d(_d(Ld, "v"))
    d2ln = on_n(_d(Ln, "y"))
    d3ln = on_n(_d(Ln, "v"))

    # A(t_j) = sum_{i<j} mu_i d2ld_i, indexed over 0..N-2 (the f domain)
    acum = np.concatenate([[0.0], np.cumsum(mu * d2ld)])  # length N
    # B(t_j) = sum_{1<=i<=j} nu_i d2ln_i, indexed over 1..N-1 (the g domain)
    bcum = np.cumsum(nu * d2ln)  # bcum[j-1] = B(t_j)

    f = d3ld - acum[:-1]
    g = d3ln - bcum
    return Jd, Jn, f, g


def _residual(Jd, Jn, f, g) -> np.ndarray:
    # Jn * f(rho(t)) + Jd * g(t) over the scale minus its minimum point, and
    # equally Jd * g(sigma(t)) + Jn * f(t) over the scale minus its maximum:
    # both forms are this one array, only their domains differ
    return Jn * f + Jd * g


def _report(ts: TimeScale, vals: np.ndarray, domain: range, form: str) -> ResidualReport:
    mean = float(np.mean(vals))
    defect = float(np.max(np.abs(vals - mean)))
    return ResidualReport(GridFunction(ts, vals, domain), defect, mean, form)


def el_residual_1(p: VariationalProblem, y: GridFunction) -> ResidualReport:
    """Integral Euler-Lagrange residual on the scale minus its minimum:

        Jn * (d3 Ld(rho(t)) - int_a^rho(t) d2 Ld)
      + Jd * (d3 Ln(t)      - int_a^t      d2 Ln)
    """
    _check_trajectory(p, y)
    ts = p.scale
    Jd, Jn, f, g = _el_parts(ts, p.L_delta, p.L_nabla, y.values)
    return _report(ts, _residual(Jd, Jn, f, g), range(1, len(ts)), "el1")


def el_residual_2(p: VariationalProblem, y: GridFunction) -> ResidualReport:
    """Integral Euler-Lagrange residual on the scale minus its maximum:

        Jd * (d3 Ln(sigma(t)) - int_a^sigma(t) d2 Ln)
      + Jn * (d3 Ld(t)        - int_a^t        d2 Ld)
    """
    _check_trajectory(p, y)
    ts = p.scale
    Jd, Jn, f, g = _el_parts(ts, p.L_delta, p.L_nabla, y.values)
    return _report(ts, _residual(Jd, Jn, f, g), range(0, len(ts) - 1), "el2")


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
    on = _on_delta(ts, y.values)
    d3, d2 = on(_d(p.L_delta, "v")), on(_d(p.L_delta, "y"))
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
    on = _on_nabla(ts, y.values)
    d3, d2 = on(_d(p.L_nabla, "v")), on(_d(p.L_nabla, "y"))
    nd3 = np.diff(d3) / ts.nu_values[2:]
    return GridFunction(ts, nd3 - d2[1:], range(2, len(ts)))


# ---------------------------------------------------------------------------
# Natural boundary conditions


def natural_bc_residual_a(p: VariationalProblem, y: GridFunction) -> float:
    """Residual that vanishes at an extremal when y(a) is free:

        Jd * (d3 Ln(sigma(a)) - int_a^sigma(a) d2 Ln) + Jn * d3 Ld(a)
    """
    _check_trajectory(p, y)
    if p.bc_a is not None:
        raise ValueError("endpoint a is not free")
    ts = p.scale
    Jd, Jn, f, g = _el_parts(ts, p.L_delta, p.L_nabla, y.values)
    # f(a) = d3 Ld(a) because the running integral vanishes at a;
    # g(sigma(a)) is the first entry of the g array.
    return float(Jn * f[0] + Jd * g[0])


def natural_bc_residual_b(p: VariationalProblem, y: GridFunction) -> float:
    """Residual that vanishes at an extremal when y(b) is free:

        Jn * (d3 Ld(rho(b)) - int_a^rho(b) d2 Ld + int_a^b d2 Ld)
      + Jd * (d3 Ln(b)      - int_a^b      d2 Ln + int_a^b d2 Ln)

    which equals dJ/dy(b), the gradient entry of the free node b.
    """
    _check_trajectory(p, y)
    if p.bc_b is not None:
        raise ValueError("endpoint b is not free")
    ts = p.scale
    mu = ts.mu_values[:-1]
    nu = ts.nu_values[1:]
    Jd, Jn, f, g = _el_parts(ts, p.L_delta, p.L_nabla, y.values)
    d2ld = _on_delta(ts, y.values)(_d(p.L_delta, "y"))
    d2ln = _on_nabla(ts, y.values)(_d(p.L_nabla, "y"))
    a_full = float(np.dot(mu, d2ld))
    b_full = float(np.dot(nu, d2ln))
    return float(Jn * (f[-1] + a_full) + Jd * (g[-1] + b_full))


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
    if kind == "delta":
        on = _on_delta(ts, y.values)
        d2, d3 = on(_d(p.L_delta, "y")), on(_d(p.L_delta, "v"))
        if which == "a":
            return float(d3[0])
        if variant == "integral":
            # d3 Ld(rho(b)) + int_rho(b)^b d2 Ld
            return float(d3[-1] + ts.mu_values[len(ts) - 2] * d2[-1])
        # printed product form, identical on a finite scale
        gap = ts.points[-1] - ts.points[-2]
        return float(d3[-1] + gap * d2[-1])
    on = _on_nabla(ts, y.values)
    d2, d3 = on(_d(p.L_nabla, "y")), on(_d(p.L_nabla, "v"))
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
    """Multiplier residual lambda0 * (J terms) - lambda * (K terms).

    ``form`` selects which integral Euler-Lagrange shape is used for both
    terms ('el1' on the scale minus its minimum, 'el2' minus its maximum).
    The pair (lambda0, lambda) must not be (0, 0).
    """
    _check_trajectory(p, y)
    c = _require_constraint(p)
    if lambda0 == 0.0 and lam == 0.0:
        raise ValueError("multipliers lambda0 and lambda must not both be zero")
    if form not in ("el1", "el2"):
        raise ValueError("form must be 'el1' or 'el2'")
    ts = p.scale
    Jd, Jn, fL, gL = _el_parts(ts, p.L_delta, p.L_nabla, y.values)
    Kd, Kn, fK, gK = _el_parts(ts, c.K_delta, c.K_nabla, y.values)
    vals = lambda0 * _residual(Jd, Jn, fL, gL) - lam * _residual(Kd, Kn, fK, gK)
    if form == "el1":
        return _report(ts, vals, range(1, len(ts)), "iso1")
    return _report(ts, vals, range(0, len(ts) - 1), "iso2")


def is_K_extremal(p: VariationalProblem, y: GridFunction, tol: float) -> bool:
    """True when both residual forms of the constraint functional are constant
    to within ``tol`` (such trajectories admit only abnormal multipliers)."""
    kp = _as_constraint_problem(p)
    return el_residual_1(kp, y).defect <= tol and el_residual_2(kp, y).defect <= tol


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
      + Jn * sum mu * (d2 Ld * eta^sigma + d3 Ld * D eta)
    """
    _check_trajectory(p, y)
    _check_trajectory(p, eta)
    ts = p.scale
    mu = ts.mu_values[:-1]
    nu = ts.nu_values[1:]
    Jd = eval_J_delta(p, y)
    Jn = eval_J_nabla(p, y)
    on_d, on_n = _on_delta(ts, y.values), _on_nabla(ts, y.values)
    d2ld, d3ld = on_d(_d(p.L_delta, "y")), on_d(_d(p.L_delta, "v"))
    d2ln, d3ln = on_n(_d(p.L_nabla, "y")), on_n(_d(p.L_nabla, "v"))
    e = eta.values
    de = np.diff(e)
    delta_part = float(np.dot(mu, d2ld * e[1:]) + np.dot(d3ld, de))
    nabla_part = float(np.dot(nu, d2ln * e[:-1]) + np.dot(d3ln, de))
    return Jd * nabla_part + Jn * delta_part


def _side(e: ex.Expression, ts: TimeScale, yvals: np.ndarray, forward: bool):
    """Value and node gradient of one weighted sum, from the samples of L,
    d2 L and d3 L.

    Sample k couples nodes k and k+1 through w_k * L(t_k, y_s, Q_k) with
    Q_k = (y_{k+1} - y_k) / w_k; the state node s is k+1 in the forward sum
    (w = mu) and k in the backward sum (w = nu).
    """
    n = len(ts)
    on = (_on_delta if forward else _on_nabla)(ts, yvals)
    w = ts.mu_values[:-1] if forward else ts.nu_values[1:]
    J = float(np.dot(w, on(e)))
    d2 = on(_d(e, "y"))
    d3 = on(_d(e, "v"))
    g = np.zeros(n)
    if forward:
        g[1:] += w * d2 + d3
        g[:-1] -= d3
    else:
        g[:-1] += w * d2 - d3
        g[1:] += d3
    return J, g


def _side_hessian(e: ex.Expression, ts: TimeScale, yvals: np.ndarray, forward: bool):
    """Tridiagonal Hessian (diagonal, off-diagonal) of the same weighted sum
    as ``_side``, from the samples of the second partials d22, d23 and d33."""
    on = (_on_delta if forward else _on_nabla)(ts, yvals)
    w = ts.mu_values[:-1] if forward else ts.nu_values[1:]
    d22 = on(_d(e, "yy"))
    d23 = on(_d(e, "yv"))
    c = on(_d(e, "vv")) / w
    diag = np.zeros(len(ts))
    diag[:-1] += c
    diag[1:] += c
    if forward:
        diag[1:] += w * d22 + 2.0 * d23
        off = -d23 - c
    else:
        diag[:-1] += w * d22 - 2.0 * d23
        off = d23 - c
    return diag, off


class ProductGradient(NamedTuple):
    """The factors of J = J_delta * J_nabla and their node gradients."""

    J_delta: float
    J_nabla: float
    grad_delta: np.ndarray
    grad_nabla: np.ndarray

    @property
    def value(self) -> float:
        return self.J_delta * self.J_nabla

    @property
    def gradient(self) -> np.ndarray:
        return self.J_nabla * self.grad_delta + self.J_delta * self.grad_nabla


def _first(ts: TimeScale, Ld: ex.Expression, Ln: ex.Expression, yvals: np.ndarray):
    (Jd, gd), (Jn, gn) = _side(Ld, ts, yvals, True), _side(Ln, ts, yvals, False)
    return ProductGradient(Jd, Jn, gd, gn)


def functional_gradient(
    ts: TimeScale, Ld: ex.Expression, Ln: ex.Expression, yvals: np.ndarray, factors=False
):
    """Value and exact gradient of the product functional w.r.t. every node.

    Each node value enters the forward sum through at most two samples (as a
    shifted value and through two difference quotients) and likewise the
    backward sum; the gradient is assembled by accumulating those chain-rule
    contributions.  With ``factors`` the ``ProductGradient`` is returned
    instead, which ``functional_hessian`` can reuse at the same nodes.
    """
    first = _first(ts, Ld, Ln, yvals)
    return first if factors else (first.value, first.gradient)


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
    first: ProductGradient | None = None,
) -> ProductHessian:
    """Exact structured Hessian of the product functional w.r.t. every node,
    assembled from the exact second partials d22, d23 and d33 of both
    integrands (see ``ProductHessian``).  ``first``, the ``ProductGradient``
    of an evaluation at the same nodes, saves sampling the integrands and
    their first partials again."""
    if first is None:
        first = _first(ts, Ld, Ln, yvals)
    Jd, Jn = first.J_delta, first.J_nabla
    hd, od = _side_hessian(Ld, ts, yvals, True)
    hn, on = _side_hessian(Ln, ts, yvals, False)
    return ProductHessian(*first, Jn * hd + Jd * hn, Jn * od + Jd * on)
