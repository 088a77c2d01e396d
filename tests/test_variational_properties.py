"""Property tests of the product functional's exact derivatives on generated
problems and scales: the first variation is the gradient paired with the
direction, and the exact Hessian's product matches central differences of
the gradient."""

import numpy as np
import pytest

from helpers import SMOOTH_TEMPLATES
from tsvar import expr as ex
from tsvar import timescale as tsc
from tsvar.calculus import GridFunction
from tsvar.variational import (
    VariationalProblem,
    first_variation,
    functional_gradient,
    functional_hessian,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)

INTEGRANDS = st.builds(lambda template, c: ex.parse(template.format(f"{c:.4f}")),
                       st.sampled_from(SMOOTH_TEMPLATES), st.floats(0.2, 0.9))


@st.composite
def _scales(draw):
    """Uniform, geometric, or random gaps from 0.02 to 1.5, 3 to 12 points."""
    n = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["uniform", "q", "gaps"]))
    if kind == "uniform":
        a = draw(st.floats(-2.0, 2.0))
        return tsc.uniform(a, a + draw(st.floats(0.5, 4.0)), n)
    if kind == "q":
        kmin = draw(st.integers(-4, 2))
        return tsc.q_scale(draw(st.floats(1.05, 1.6)), kmin, kmin + n - 1)
    gaps = draw(st.lists(st.floats(0.02, 1.5), min_size=n - 1, max_size=n - 1))
    return tsc.from_points(draw(st.floats(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(gaps)]))


@st.composite
def _cases(draw):
    """A problem with both ends free, a trajectory y and a direction eta."""
    ts = draw(_scales())
    p = VariationalProblem(ts, draw(INTEGRANDS), draw(INTEGRANDS), None, None)
    nodes = st.lists(st.floats(-1.0, 1.0), min_size=len(ts), max_size=len(ts))
    return p, np.array(draw(nodes)), np.array(draw(nodes))


@SETTINGS
@hypothesis.given(_cases())
def test_first_variation_is_the_gradient_along_the_direction(case):
    p, y, eta = case
    _, grad = functional_gradient(p.scale, p.L_delta, p.L_nabla, y)
    got = first_variation(p, GridFunction(p.scale, y), GridFunction(p.scale, eta))
    want = float(eta @ grad)
    assert abs(got - want) <= 1e-12 * (1.0 + float(np.abs(eta) @ np.abs(grad)))


@SETTINGS
@hypothesis.given(_cases())
def test_hessian_product_matches_central_differences_of_the_gradient(case):
    p, y, x = case
    H = functional_hessian(p.scale, p.L_delta, p.L_nabla, y)

    def grad(yy):
        return functional_gradient(p.scale, p.L_delta, p.L_nabla, yy)[1]

    h = 1e-5
    fd = (grad(y + h * x) - grad(y - h * x)) / (2 * h)
    assert np.max(np.abs(H.matvec(x) - fd)) <= 1e-6 * (1.0 + np.max(np.abs(fd)))
