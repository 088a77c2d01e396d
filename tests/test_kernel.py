"""The compiled kernel of an integrand pair (``variational._pair``): value,
node gradients and Hessian parts bit for bit those of the per-side
assembly in ``helpers``, the same DomainViolation on a fault, and samples
that belong to the evaluation, not to the caller's work array."""

import numpy as np
import pytest

import helpers
from helpers import random_integrand, run_alone
from tsvar import cli
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
        val, grad, got = run_alone(cp.value_grad(y[cp.lo : cp.hi], Ld, Ln))
        assert val == first.value and same_bits(grad, first.gradient[cp.lo : cp.hi])
        H = run_alone(cp.hessian(Ld, Ln, got))
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
    first = run_alone(cp.value_grad(z1, p.L_delta, p.L_nabla))[2]
    for step in (0.5, 0.25, 0.125):
        run_alone(cp.value_grad(z1 + step, p.L_delta, p.L_nabla))
    H = run_alone(cp.hessian(p.L_delta, p.L_nabla, first))
    fresh = so._Compiled(p, so._base_trajectory(p))
    want = run_alone(fresh.hessian(p.L_delta, p.L_nabla,
                                   run_alone(fresh.value_grad(z1, p.L_delta, p.L_nabla))[2]))
    for a, b in zip(H, want):
        assert same_bits(a, b)


def assert_same_outcome(got, want):
    """Two outcomes of ``va._first`` or ``va.functional_hessian``, bit for
    bit: the same factors and arrays, or the same DomainViolation."""
    if isinstance(want, ex.DomainViolation):
        assert isinstance(got, ex.DomainViolation)
        assert (got.reason, got.offset, got.index) == (want.reason, want.offset, want.index)
        return
    assert type(got) is type(want)
    assert (got.J_delta, got.J_nabla) == (want.J_delta, want.J_nabla)
    assert all(same_bits(a, b) for a, b in zip(got[2:], want[2:]) if not isinstance(a, tuple))
    if isinstance(want, va.ProductGradient):
        assert got.clean == want.clean
        assert all(same_bits(a, b) for a, b in zip(got.samples, want.samples) if b is not None)


def alone(fn):
    """fn(), or the DomainViolation it raises."""
    try:
        return fn()
    except ex.DomainViolation as err:
        return err


# (template, how the faulting row is made from a good one): ln and sqrt of
# a negative number, exp overflowing, and a second partial undefined at 0
STACK_FAULTS = (
    ("ln(y) + {c}*v^2", lambda ts, y: np.r_[y[:-2], -0.5, y[-1:]]),
    ("sqrt(v) + y^2", lambda ts, y: np.r_[y[:1], y[0] - 0.3, y[2:]]),
    ("exp({c}*v*800) + y^2", lambda ts, y: np.r_[y[:1], y[0] + 3.0, y[2:]]),
    ("y^1.5 + {c}*v^2", lambda ts, y: np.r_[y[:-1], 0.0]),
)


def test_a_stack_gives_every_row_its_own_outcome():
    # a stack of 1-8 rows is one kernel run whose rows are bit for bit the
    # one-row calls; a row that faults, first, in the middle or last, or two
    # rows that fault, side by side or at both ends, send the stack through
    # runs by halves, and the other rows do not notice
    rng = np.random.default_rng(2828)
    faulted = 0
    for i in range(160):
        ts = random_kind_scale(rng, KINDS[i % 4])
        template, bad_row = STACK_FAULTS[i % len(STACK_FAULTS)]
        bad = parse(template.format(c=f"{rng.uniform(0.2, 0.9):.4f}"))
        Ld, Ln = random_integrand(rng), random_integrand(rng)
        if i % 3:
            Ld, Ln = (bad, Ln) if i % 2 else (Ld, bad)
        m = int(rng.integers(1, 9))
        Y = rng.uniform(0.1, 1.5, (m, len(ts)))
        if i % 3 and m > 1:
            for at in ((0,), (m // 2,), (m - 1,), (m // 2 - 1, m // 2), (0, m - 1))[(i // 3) % 5]:
                Y[at] = bad_row(ts, Y[at])
        with np.errstate(all="ignore"):  # an overflowing sum is inf, not a warning
            firsts = va._first(ts, Ld, Ln, Y)
            assert len(firsts) == m
            for row, got in zip(Y, firsts):
                assert_same_outcome(got, alone(lambda: va._first(ts, Ld, Ln, row)))
            records = [f for f in firsts if isinstance(f, va.ProductGradient)]
            faulted += len(records) < m
            if not records:
                continue
            hessians = functional_hessian(ts, Ld, Ln, None, records)
            assert len(hessians) == len(records)
            for first, got in zip(records, hessians):
                assert_same_outcome(got, alone(lambda: functional_hessian(ts, Ld, Ln, None, first)))
    assert faulted >= 20


def test_a_stack_at_the_public_boundary_gives_one_outcome_per_row():
    # (value, gradient) without factors, the ProductGradient with them, and
    # the ProductHessian of each row, or the DomainViolation of a row that
    # raises one alone, here ln of a negative node
    ts = tsc.uniform(0, 1, 6)
    Ld, Ln = parse("ln(y) + v^2"), parse("exp(0.5*v) + y^2")
    Y = np.array([np.linspace(0.5, 1.5, 6), [1.0, -0.5, 1.0, 1.0, 1.0, 1.0],
                  np.linspace(1.0, 2.0, 6)])
    pairs = functional_gradient(ts, Ld, Ln, Y)
    firsts = functional_gradient(ts, Ld, Ln, Y, factors=True)
    hessians = functional_hessian(ts, Ld, Ln, Y)
    assert len(pairs) == len(firsts) == len(hessians) == len(Y)
    for row, pair, first, H in zip(Y, pairs, firsts, hessians):
        want = alone(lambda: functional_gradient(ts, Ld, Ln, row, factors=True))
        assert_same_outcome(first, want)
        if isinstance(want, ex.DomainViolation):
            assert_same_outcome(pair, want)
            assert_same_outcome(H, want)
            continue
        assert pair[0] == want.value and same_bits(pair[1], want.gradient)
        assert_same_outcome(H, functional_hessian(ts, Ld, Ln, row))
    assert sum(isinstance(f, ex.DomainViolation) for f in firsts) == 1


def test_every_kernel_run_takes_a_stack_of_node_rows(monkeypatch):
    # below the public entry points a kernel run has one shape: each of its
    # five sample arrays is a 2-D stack of rows, one row for one trajectory
    dims, real = [], va._kernel

    def kernel(Ld, Ln, slots):
        run = real(Ld, Ln, slots)
        return lambda *samples: dims.append([np.ndim(x) for x in samples]) or run(*samples)

    def runs(fn):
        dims.clear()
        assert fn()
        return list(dims)

    monkeypatch.setattr(va, "_kernel", kernel)
    prob, traj = (str(cli._bundled_path(name))
                  for name in ("product_unit.problem", "product_unit_trajectory.csv"))
    p = VariationalProblem(tsc.uniform(0, 4, 5), parse("v^2"), parse("v^2"), 0.0, 4.0)
    y = so.solve(p).trajectory
    stages = {
        "verify": runs(lambda: cli.run_verify_cases(cli.load_bundled_manifest(),
                                                    so.SolverConfig(seed=0))[1]),
        "eval": runs(lambda: cli.main(["eval", "--problem", prob, "--trajectory", traj]) == 0),
        "residual": runs(lambda: cli.main(["residual", "--problem", prob, "--trajectory", traj,
                                           "--form", "el1"]) == 0),
        "probe": runs(lambda: so.probe_extremal_type(p, y) == "local-min-indication"),
    }
    for stage, shapes in stages.items():
        assert all(d == [2] * 5 for d in shapes), stage
    # eval samples each integrand's own program; the others run kernels
    assert stages["verify"] and stages["residual"] and len(stages["probe"]) == 2


def test_a_stack_without_a_compiled_kernel_gives_every_row_its_outcome():
    # a constant that is not finite leaves the pair without a kernel; here
    # it adds exp(-inf) * y = 0, so each row of a stack has its own record
    zero = ex.BinOp("*", ex.Call("exp", ex.Const(-np.inf)), ex.Var("y"))
    Ld, Ln = ex.BinOp("+", parse("v^2 + sin(y)"), zero), parse("exp(0.5*v) + y^2")
    assert va._kernel(Ld, Ln, va._FIRST) is None
    ts = tsc.uniform(0, 1, 7)
    Y = np.random.default_rng(7).uniform(0.1, 1.5, (4, 7))
    firsts = va._first(ts, Ld, Ln, Y)
    hessians = functional_hessian(ts, Ld, Ln, None, firsts)
    assert len(firsts) == len(hessians) == len(Y)
    for row, first, H in zip(Y, firsts, hessians):
        assert_same_outcome(first, va._first(ts, Ld, Ln, row))
        assert_same_outcome(H, functional_hessian(ts, Ld, Ln, row))
