"""Shared generators for randomized tests (all seeded by the caller), the
dense matrix of a solver model, a reference walker for expressions,
one-step reference searches for the consistency scan, the per-side
assembly of the product functional's gradient and Hessian, the f/g
assembly of its first-order residuals, a counter of kernel runs, and a
runner of one solver generator."""

import numpy as np

from tsvar import expr as ex
from tsvar import solver as so
from tsvar import timescale as tsc
from tsvar import variational as va
from tsvar.calculus import GridFunction
from tsvar.variational import VariationalProblem


def random_scale(rng, nmin=3, nmax=40, span=4.0) -> tsc.TimeScale:
    n = int(rng.integers(nmin, nmax + 1))
    pts = np.sort(rng.uniform(-span, span, size=n))
    while np.any(np.diff(pts) < 1e-6):
        pts = np.sort(rng.uniform(-span, span, size=n))
    return tsc.from_points(pts)


def random_gridfn(rng, ts, amp=2.0) -> GridFunction:
    return GridFunction(ts, rng.uniform(-amp, amp, size=len(ts)))


def quadratic_expr(rng, coercive=False) -> ex.Expression:
    """Random quadratic integrand in (t, y, v).

    With coercive=True the integrand is pointwise positive with a definite
    v^2 part, so the product functional has a global minimizer.
    """
    c = rng.uniform(-1.0, 1.0, size=7)
    if coercive:
        parts = [
            f"{0.3 + abs(c[0]):.6f}*v^2",
            f"{abs(c[1]):.6f}*y^2",
            f"{0.1 + abs(c[2]):.6f}",
            f"{0.2 * c[3]:.6f}*v",
        ]
    else:
        parts = [
            f"{c[0]:.6f}*v^2",
            f"{c[1]:.6f}*y^2",
            f"{c[2]:.6f}*t*v",
            f"{c[3]:.6f}*t*y",
            f"{c[4]:.6f}*v",
            f"{c[5]:.6f}*y",
            f"{c[6]:.6f}",
        ]
    return ex.parse(" + ".join(parts).replace("+ -", "- "))


def random_quadratic_problem(rng, coercive=False, nmax=12) -> VariationalProblem:
    ts = random_scale(rng, nmin=3, nmax=nmax, span=2.0)
    return VariationalProblem(
        ts,
        quadratic_expr(rng, coercive),
        quadratic_expr(rng, coercive),
        float(rng.uniform(-1, 1)),
        float(rng.uniform(-1, 1)),
    )


# smooth integrands defined for every real (t, y, v); {} takes a coefficient
SMOOTH_TEMPLATES = (
    "{}*v^2 + y^2 + t*v*y",
    "exp({}*v) + sin(y)*v",
    "sqrt(1 + v^2) + {}*y^2*v^2",
    "cos(y - t*v) + {}*v^3",
    "ln(2 + y^2) * v^2 + {}*y",
    "y*v / (1 + v^2) + {}*t",
)


def random_integrand(rng) -> ex.Expression:
    template = SMOOTH_TEMPLATES[int(rng.integers(len(SMOOTH_TEMPLATES)))]
    return ex.parse(template.format(f"{rng.uniform(0.2, 0.9):.4f}"))


def random_affine_problem(rng, nmin=3, nmax=1001) -> VariationalProblem:
    """A problem in the derivative-affine class, a(t)*v^2 + b(t)*v + c(t) on
    each side (a = 0 in one form of four), on a random scale of
    log-uniformly many points in [nmin, nmax]."""
    n = int(np.exp(rng.uniform(np.log(nmin), np.log(nmax + 1))))
    ts = random_scale(rng, nmin=n, nmax=n, span=2.0)

    def side():
        c = [f"{x:.4f}" for x in rng.uniform(-1.0, 1.0, size=5)]
        forms = (
            f"({c[0]} + {c[1]}*t)*v^2 + {c[2]}*v + {c[3]}*t",
            f"({c[0]} + {c[1]}*t^2)*v^2 + {c[2]}*t*v + {c[4]}",
            f"exp({c[1]}*t)*v^2 + sin({c[2]}*t)*v + {c[3]}",
            f"({c[0]} + {c[1]}*t)*v + {c[2]}*t^2",
        )
        return ex.parse(forms[int(rng.integers(len(forms)))].replace("+ -", "- "))

    return VariationalProblem(
        ts, side(), side(), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
    )


def dense(model):
    """The matrix T + U^T C U of a solver ``_model`` form (diag, off, U, C)."""
    diag, off, U, C = model
    H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return H + U.T @ C @ U if len(U) else H


def walk(e, t, y, v):
    """Evaluate ``e`` over arrays (or scalars) t, y, v by a recursive walk of
    its tree, node by node: an oracle for ``tsvar.expr.eval_arrays`` that
    shares no code with it.  Raises DomainViolation at the first node, in
    evaluation order, with a non-finite element (constants, variables and
    negations are not checked), naming that element's flat index."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return {"t": t, "y": y, "v": v}[e.name]
    if isinstance(e, ex.Neg):
        return -np.asarray(walk(e.arg, t, y, v))
    if isinstance(e, ex.Call):
        arg = np.asarray(walk(e.arg, t, y, v), dtype=float)
        with np.errstate(all="ignore"):
            out = {
                "sin": np.sin,
                "cos": np.cos,
                "exp": np.exp,
                "ln": np.log,
                "sqrt": np.sqrt,
            }[e.fn](arg)
        _check_finite(out, e, e.fn)
        return out
    if isinstance(e, ex.Pow):
        base = np.asarray(walk(e.base, t, y, v), dtype=float)
        with np.errstate(all="ignore"):
            out = np.power(base, e.exponent)
        _check_finite(out, e, "pow")
        return out
    if isinstance(e, ex.BinOp):
        left = np.asarray(walk(e.left, t, y, v), dtype=float)
        right = np.asarray(walk(e.right, t, y, v), dtype=float)
        with np.errstate(all="ignore"):
            if e.op == "+":
                out = left + right
            elif e.op == "-":
                out = left - right
            elif e.op == "*":
                out = left * right
            else:
                out = left / right
        _check_finite(out, e, e.op)
        return out
    raise TypeError(f"not an expression node: {e!r}")


def _check_finite(out, node, opname):
    finite = np.isfinite(out)
    if not finite.all():
        index = None if finite.ndim == 0 else int(np.argmin(finite.ravel()))
        raise ex.DomainViolation(f"domain violation in {opname!r}", node.span, index)


# One-step reference searches for the consistency scan: bisection and
# golden section with one call of G per step, references for its
# multisection.  Same signatures as ``tsvar.solver._root_search`` and
# ``_min_search``; the scale size n is unused.

GOLDEN_STEPS = 40


def golden_min(G, sign, lo, hi, n):
    if lo.size == 0:
        return lo, lo
    r = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - r * (hi - lo), lo + r * (hi - lo)
    f1, f2 = sign * G(x1), sign * G(x2)
    for _ in range(GOLDEN_STEPS):
        left = f1 < f2
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        keep_x, keep_f = np.where(left, x1, x2), np.where(left, f1, f2)
        new_x = np.where(left, hi - r * (hi - lo), lo + r * (hi - lo))
        new_f = sign * G(new_x)
        x1, f1 = np.where(left, new_x, keep_x), np.where(left, new_f, keep_f)
        x2, f2 = np.where(left, keep_x, new_x), np.where(left, keep_f, new_f)
    left = f1 < f2
    return np.where(left, x1, x2), np.where(left, f1, f2)


def bisect(G, a, b, neg_a, n):
    for _ in range(64):
        mid = 0.5 * (a + b)
        if not np.any((a < mid) & (mid < b)):
            break
        left = (G(mid) <= 0.0) != neg_a
        a, b = np.where(left, a, mid), np.where(left, mid, b)
    return a


# The per-side assembly of the product functional, one integrand at a time:
# an oracle for the compiled kernel of a pair (``tsvar.variational._pair``).
# Each side samples its own program of partials (``_sampled``), so a fault
# raises the DomainViolation of the forward side first.


def side_samples(ts, yvals, forward):
    """The forward samples (t, y^sigma, Dy) or the backward ones (t, y^rho, Ny)."""
    if forward:
        return ts.points[:-1], yvals[1:], np.diff(yvals) / ts.mu_values[:-1]
    return ts.points[1:], yvals[:-1], np.diff(yvals) / ts.nu_values[1:]


def side_sum(e, ts, yvals, forward):
    """The weighted sum of e over one side and its samples of d2 e and d3 e."""
    L, d2, d3 = va._sampled(e, ("", "y", "v"), side_samples(ts, yvals, forward))
    w = ts.mu_values[:-1] if forward else ts.nu_values[1:]
    return float(np.dot(w, L)), d2, d3


def side_grad(ts, side, forward):
    """Node gradient of one weighted sum from its ``side_sum``."""
    _, d2, d3 = side
    w = ts.mu_values[:-1] if forward else ts.nu_values[1:]
    g = np.zeros(len(ts))
    if forward:
        g[1:] += w * d2 + d3
        g[:-1] -= d3
    else:
        g[:-1] += w * d2 - d3
        g[1:] += d3
    return g


def side_hessian(e, ts, yvals, forward):
    """Tridiagonal Hessian (diagonal, off-diagonal) of one weighted sum."""
    d22, d23, d33 = va._sampled(e, ("yy", "yv", "vv"), side_samples(ts, yvals, forward))
    w = ts.mu_values[:-1] if forward else ts.nu_values[1:]
    c = d33 / w
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


def pair_gradient(ts, Ld, Ln, yvals):
    """(J_delta, J_nabla, grad_delta, grad_nabla, gradient) of the pair."""
    delta, nabla = side_sum(Ld, ts, yvals, True), side_sum(Ln, ts, yvals, False)
    gd, gn = side_grad(ts, delta, True), side_grad(ts, nabla, False)
    return delta[0], nabla[0], gd, gn, nabla[0] * gd + delta[0] * gn


def pair_hessian(ts, Ld, Ln, yvals):
    """(diag, off) of the tridiagonal part Jn * H_delta + Jd * H_nabla."""
    Jd, Jn = pair_gradient(ts, Ld, Ln, yvals)[:2]
    hd, od = side_hessian(Ld, ts, yvals, True)
    hn, on = side_hessian(Ln, ts, yvals, False)
    return Jn * hd + Jd * hn, Jn * od + Jd * on


# The f/g assembly of every first-order residual, from the per-side samples:
# an oracle for their reduction from the node gradient (``va._el_residual``).


def reference_first_order(ts, Ld, Ln, yvals, eta):
    """(residual, nbc_a, nbc_b, first variation along eta, scale) of the pair
    at yvals, assembled from
      f(t) = d3 Ld (t) - integral_a^t d2 Ld   on the scale minus its maximum,
      g(t) = d3 Ln (t) - integral_a^t d2 Ln   on the scale minus its minimum,
    as residual = Jn * f + Jd * g.  ``scale`` is the sum of the magnitudes
    of every term either assembly adds, Jn's and Jd's included, which bounds
    the rounding error of a running sum of them."""
    Jd, d2ld, d3ld = side_sum(Ld, ts, yvals, True)
    Jn, d2ln, d3ln = side_sum(Ln, ts, yvals, False)
    w = ts.mu_values[:-1]
    acum = np.concatenate([[0.0], np.cumsum(w * d2ld)])  # A(t_j) = sum_{i<j} mu_i d2ld_i
    bcum = np.cumsum(w * d2ln)  # bcum[j-1] = B(t_j) = sum_{1<=i<=j} nu_i d2ln_i
    f = d3ld - acum[:-1]
    g = d3ln - bcum
    residual = Jn * f + Jd * g
    nbc_a = float(Jn * f[0] + Jd * g[0])
    a_full, b_full = float(np.dot(w, d2ld)), float(np.dot(w, d2ln))
    nbc_b = float(Jn * (f[-1] + a_full) + Jd * (g[-1] + b_full))
    de = np.diff(eta)
    delta_part = float(np.dot(w, d2ld * eta[1:]) + np.dot(d3ld, de))
    nabla_part = float(np.dot(w, d2ln * eta[:-1]) + np.dot(d3ln, de))
    variation = Jd * nabla_part + Jn * delta_part
    scale = (abs(Jn) * float(np.sum(np.abs(w * d2ld)) + 2.0 * np.sum(np.abs(d3ld)))
             + abs(Jd) * float(np.sum(np.abs(w * d2ln)) + 2.0 * np.sum(np.abs(d3ln))))
    return residual, nbc_a, nbc_b, variation, scale


def count_evaluations(monkeypatch, fn):
    """fn(), the slots of its kernel runs and its number of ``ex.Program``
    runs (the fallback of a kernel run)."""
    runs, programs = [], []
    real_kernel, real_program = va._kernel, ex.Program.__call__

    def kernel(Ld, Ln, slots):
        run = real_kernel(Ld, Ln, slots)
        return lambda *samples: runs.append(slots) or run(*samples)

    def program(self, t, y, v):
        programs.append(self.exprs)
        return real_program(self, t, y, v)

    monkeypatch.setattr(va, "_kernel", kernel)
    monkeypatch.setattr(ex.Program, "__call__", program)
    out = fn()
    monkeypatch.setattr(va, "_kernel", real_kernel)
    monkeypatch.setattr(ex.Program, "__call__", real_program)
    return out, runs, len(programs)


def run_alone(gen):
    """What a solver generator (a Newton run, a merit's ``fun`` or ``model``,
    or a ``_Compiled`` step) returns, run on its own by ``so._lockstep``,
    which serves each of its requests as a stack of one row."""
    return so._lockstep([gen])[0]
