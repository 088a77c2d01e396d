"""The calculus identity suite on adversarial scales: points at magnitudes
from 1e-12 to 5e6 on both sides of 0, so that neighbouring gaps range from
1e-12 to 1e6.  Each identity holds to a few hundred roundings of the
magnitudes of its own terms, whatever the gaps."""

import numpy as np
import pytest

from tsvar import timescale as tsc
from tsvar.calculus import (
    GridFunction,
    delta_derivative,
    delta_integral,
    nabla_derivative,
    nabla_integral,
    shift_rho,
    shift_sigma,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=80)
TOL = 1e-13  # about 450 roundings of the terms' magnitude

MAGNITUDES = [0.0] + [m * 10.0**e for e in range(-12, 7) for m in (1.0, 2.5, 5.0)]
WIDEST = [-1e6, -1e-12, 0.0, 1e-12, 2e-12, 1e6, 5e6]  # gaps 1e-12 next to 1e6


@st.composite
def _cases(draw):
    """A scale with its points drawn from +-MAGNITUDES, and two functions on it."""
    mags = draw(st.lists(st.sampled_from(MAGNITUDES), min_size=3, max_size=24, unique=True))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(mags), max_size=len(mags)))
    pts = np.unique(np.array(mags) * signs)
    hypothesis.assume(pts.size >= 3)
    return _functions(draw, pts)


def _functions(draw, pts):
    values = st.lists(st.floats(-2.0, 2.0), min_size=pts.size, max_size=pts.size)
    ts = tsc.from_points(pts)
    return ts, GridFunction(ts, draw(values)), GridFunction(ts, draw(values))


@st.composite
def _widest(draw):
    return _functions(draw, np.array(WIDEST))


CASES = st.one_of(_widest(), _cases())


def close(lhs, rhs, mag):
    assert np.all(np.abs(np.asarray(lhs) - rhs) <= TOL * np.asarray(mag))


@SETTINGS
@hypothesis.given(CASES)
def test_product_rules(case):
    ts, f, g = case
    fv, gv = f.values, g.values
    fg = GridFunction(ts, fv * gv)
    # the quotient of fg carries the rounding of both products over the gap
    own = (np.abs(fv[1:] * gv[1:]) + np.abs(fv[:-1] * gv[:-1])) / ts.mu_values[:-1]
    pd = delta_derivative(fg).values
    fd, gd = delta_derivative(f).values, delta_derivative(g).values
    fsig, gsig = shift_sigma(f).values[:-1], shift_sigma(g).values[:-1]
    close(pd, fd * gsig + fv[:-1] * gd, own + np.abs(fd * gsig) + np.abs(fv[:-1] * gd))
    close(pd, fd * gv[:-1] + fsig * gd, own + np.abs(fd * gv[:-1]) + np.abs(fsig * gd))
    pn = nabla_derivative(fg).values
    fn, gn = nabla_derivative(f).values, nabla_derivative(g).values
    frho, grho = shift_rho(f).values[1:], shift_rho(g).values[1:]
    close(pn, fn * gv[1:] + frho * gn, own + np.abs(fn * gv[1:]) + np.abs(frho * gn))
    close(pn, fn * grho + fv[1:] * gn, own + np.abs(fn * grho) + np.abs(fv[1:] * gn))
    # backward slope at t is the forward slope at rho(t), exactly
    np.testing.assert_array_equal(fn, fd)


@SETTINGS
@hypothesis.given(CASES, st.floats(-2.0, 2.0), st.integers(0, 23))
def test_integrals(case, alpha, at):
    ts, f, g = case
    a, b, c = ts.a, ts.b, float(ts.points[at % len(ts)])
    for integral, weights in ((delta_integral, ts.mu_values), (nabla_integral, ts.nu_values)):
        mag = float(weights @ (np.abs(f.values) + np.abs(g.values)))
        whole = integral(f, a, b)
        fg = GridFunction(ts, f.values + g.values)
        close(integral(fg, a, b), whole + integral(g, a, b), mag)
        close(integral(GridFunction(ts, alpha * f.values), a, b), alpha * whole, mag)
        assert integral(f, b, a) == -whole
        close(whole, integral(f, a, c) + integral(f, c, b), mag)
    mag = float((ts.mu_values + ts.nu_values) @ np.abs(f.values))
    close(delta_integral(f, a, b), nabla_integral(shift_rho(f), a, b), mag)
    close(nabla_integral(f, a, b), delta_integral(shift_sigma(f), a, b), mag)
    # splitting off the last and the first gap
    rho_b, sig_a = ts.points[-2], ts.points[1]
    fv = f.values
    close(delta_integral(f, a, b), delta_integral(f, a, rho_b) + (b - rho_b) * fv[-2], mag)
    close(delta_integral(f, a, b), (sig_a - a) * fv[0] + delta_integral(f, sig_a, b), mag)
    close(nabla_integral(f, a, b), nabla_integral(f, a, rho_b) + (b - rho_b) * fv[-1], mag)
    close(nabla_integral(f, a, b), (sig_a - a) * fv[1] + nabla_integral(f, sig_a, b), mag)


@SETTINGS
@hypothesis.given(CASES)
def test_integration_by_parts(case):
    ts, f, g = case
    fv, gv = f.values, g.values
    mu, nu = ts.mu_values[:-1], ts.nu_values[1:]
    ends = fv[-1] * gv[-1] - fv[0] * gv[0]
    fd, gd = delta_derivative(f).values, delta_derivative(g).values
    fn, gn = nabla_derivative(f).values, nabla_derivative(g).values
    fsig, gsig = shift_sigma(f).values[:-1], shift_sigma(g).values[:-1]
    frho, grho = shift_rho(f).values[1:], shift_rho(g).values[1:]
    # every sum telescopes: its terms are of the size of f times the steps of g
    df, dg = np.abs(np.diff(fv)), np.abs(np.diff(gv))
    fsum, gsum = np.abs(fv[1:]) + np.abs(fv[:-1]), np.abs(gv[1:]) + np.abs(gv[:-1])
    mag = abs(fv[-1] * gv[-1]) + abs(fv[0] * gv[0]) + fsum @ dg + df @ gsum
    close(mu @ (fsig * gd), ends - mu @ (fd * gv[:-1]), mag)
    close(mu @ (fv[:-1] * gd), ends - mu @ (fd * gsig), mag)
    close(nu @ (frho * gn), ends - nu @ (fn * gv[1:]), mag)
    close(nu @ (fv[1:] * gn), ends - nu @ (fn * grho), mag)
