"""The compiled kernel of an integrand pair (``variational._pair``): value,
node gradients and Hessian parts bit for bit those of the per-side
assembly in ``helpers``, the same DomainViolation on a fault, and samples
that belong to the evaluation, not to the caller's work array."""

import numpy as np
import pytest

import helpers
from helpers import random_integrand
from tsvar import expr as ex
from tsvar import solver as so
from tsvar import timescale as tsc
from tsvar import variational as va
from tsvar.expr import parse
from tsvar.variational import VariationalProblem, functional_gradient, functional_hessian

KINDS = ("uniform", "hz", "qscale", "explicit")


def random_kind_scale(rng, kind):
    n = int(rng.integers(3, 61))
    if kind == "uniform":
        return tsc.uniform(-1.0, float(rng.uniform(0.5, 3.0)), n)
    if kind == "hz":
        return tsc.h_integers(0.0, 0.25 * (n - 1), 0.25)
    if kind == "qscale":
        return tsc.q_scale(float(rng.uniform(1.02, 1.3)), -2, n - 3)
    return helpers.random_scale(rng, nmin=n, nmax=n, span=2.0)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(fn):
    """fn() or the (reason, offset, index) of the DomainViolation it raises."""
    try:
        return fn()
    except ex.DomainViolation as err:
        return (err.reason, err.offset, err.index)


def assert_gradient_is_the_oracle(ts, Ld, Ln, y):
    got = outcome(lambda: functional_gradient(ts, Ld, Ln, y, factors=True))
    want = outcome(lambda: helpers.pair_gradient(ts, Ld, Ln, y))
    if isinstance(want, tuple) and isinstance(want[0], str):
        assert got == want
        return None
    assert isinstance(got, va.ProductGradient)
    assert all(same_bits(a, b) for a, b in zip(got[:5], want))
    return got


def assert_hessian_is_the_oracle(ts, Ld, Ln, y, first):
    got = outcome(lambda: functional_hessian(ts, Ld, Ln, y, first))
    want = outcome(lambda: helpers.pair_hessian(ts, Ld, Ln, y))
    if isinstance(want[0], str):
        assert got == want
        return
    assert all(same_bits(a, b) for a, b in zip(got[4:6], want))
    assert all(same_bits(a, b) for a, b in zip(got[:4], first[:4]))


def test_kernel_is_the_per_side_assembly_on_random_problems():
    rng = np.random.default_rng(1919)
    clean = 0
    for i in range(240):
        ts = random_kind_scale(rng, KINDS[i % 4])
        Ld, Ln = random_integrand(rng), random_integrand(rng)
        if i % 5 == 0:
            Ln = Ld  # one integrand object on both sides shares its partials
        y = rng.uniform(-1.5, 1.5, len(ts))
        first = assert_gradient_is_the_oracle(ts, Ld, Ln, y)
        if first is None:
            continue  # exp(c*v) overflows on a scale with close points
        clean += first.clean
        assert_hessian_is_the_oracle(ts, Ld, Ln, y, first)
        # the free block of every endpoint kind, as the solver evaluates it
        bc_a, bc_b = (None, 0.5, None, 0.5)[i % 4], (None, None, -0.5, -0.5)[i % 4]
        cp = so._Compiled(VariationalProblem(ts, Ld, Ln, bc_a, bc_b), y)
        val, grad, got = cp.value_grad(y[cp.lo : cp.hi], Ld, Ln)
        assert val == first.value and same_bits(grad, first.gradient[cp.lo : cp.hi])
        H = cp.hessian(Ld, Ln, got)
        lo, hi = cp.lo, cp.hi
        want = functional_hessian(ts, Ld, Ln, y)
        assert same_bits(H.diag, want.diag[lo:hi]) and same_bits(H.off, want.off[lo : hi - 1])
    assert clean >= 200  # the compiled kernel, not its checked fallback, ran


# (template, nodes from the scale and random values in [0.1, 1.5]): each
# faults on the side it is put on, in its first or its second partials, or
# overflows in the weighted sums, or meets a node that is not finite
FAULTS = (
    ("ln(y) + {c}*v^2", lambda ts, y, c: np.r_[y[:-2], -0.5, y[-1:]]),
    ("sqrt(v) + y^2", lambda ts, y, c: np.r_[y[:2], y[1] - 0.3, y[3:]]),
    ("1/(y - {c}) + v^2", lambda ts, y, c: np.where(np.arange(y.size) == y.size // 2, c, y)),
    ("y^1.5 + {c}*v^2", lambda ts, y, c: np.r_[y[:-1], 0.0]),
    ("sqrt(y) + v^2", lambda ts, y, c: np.r_[0.0, y[1:]]),
    ("exp({c}*v*800) + y^2", lambda ts, y, c: np.r_[y[:1], y[0] + 3.0, y[2:]]),
    ("{c}*10^307*v^2 + y", lambda ts, y, c: np.sqrt(17.0 / c) * ts.points),
    ("{c}*v^2 + y^2", lambda ts, y, c: np.where(np.arange(y.size) == y.size // 2, np.nan, y)),
    ("{c}*t + y^2", lambda ts, y, c: np.r_[y[:-1], np.inf]),
)


@pytest.mark.parametrize("seed, template, nodes", [(i, *f) for i, f in enumerate(FAULTS)])
def test_a_fault_raises_as_the_per_side_assembly_does(seed, template, nodes):
    rng = np.random.default_rng(3000 + seed)
    raised = unclean = 0
    for i in range(24):
        ts = random_kind_scale(rng, KINDS[i % 4])
        c = float(f"{rng.uniform(0.2, 0.9):.4f}")
        bad = parse(template.format(c=c))
        y = nodes(ts, rng.uniform(0.1, 1.5, len(ts)), c)
        good = random_integrand(rng)
        Ld, Ln = (bad, good) if i % 2 else (good, bad)
        with np.errstate(all="ignore"):  # an overflowing sum is inf, not a warning
            first = assert_gradient_is_the_oracle(ts, Ld, Ln, y)
            raised += first is None
            if first is not None:
                unclean += not first.clean
                assert_hessian_is_the_oracle(ts, Ld, Ln, y, first)
    assert raised or template.startswith(("y^1.5", "{c}*10^307"))
    assert unclean or not template.startswith("{c}*10^307")


def test_nodes_that_are_not_finite_matter_only_where_they_are_read():
    # a pair that reads only t is defined at any nodes, as the per-side
    # programs say; the kernel's quotient check sends it to them
    ts = tsc.uniform(0, 1, 7)
    y = np.array([0.0, np.inf, 1.0, np.nan, 2.0, -np.inf, 4.0])
    first = assert_gradient_is_the_oracle(ts, parse("t"), parse("2*t + 1"), y)
    assert not first.clean and np.isfinite(first.value) and not first.gradient.any()
    assert_hessian_is_the_oracle(ts, parse("t"), parse("2*t + 1"), y, first)


def test_the_model_uses_the_samples_of_its_evaluation():
    # a Newton model is built after the line search has evaluated other trial
    # points in the same work array; it must be the Hessian at its own point
    p = VariationalProblem(tsc.uniform(0, 1, 9), parse("v^2 + sin(y)^2"),
                           parse("exp(0.5*v) + y^2*v"), 0.0, None)
    cp = so._Compiled(p, so._base_trajectory(p))
    z1 = np.linspace(0.2, 0.9, 8)
    first = cp.value_grad(z1, p.L_delta, p.L_nabla)[2]
    for step in (0.5, 0.25, 0.125):
        cp.value_grad(z1 + step, p.L_delta, p.L_nabla)
    H = cp.hessian(p.L_delta, p.L_nabla, first)
    fresh = so._Compiled(p, so._base_trajectory(p))
    want = fresh.hessian(p.L_delta, p.L_nabla, fresh.value_grad(z1, p.L_delta, p.L_nabla)[2])
    for a, b in zip(H, want):
        assert same_bits(a, b)
