"""Shared generators for randomized tests (all seeded by the caller)."""

import numpy as np

from tsvar import expr as ex
from tsvar import timescale as tsc
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
