"""Property tests of the expression language on generated trees over t, y, v:
exact partials against sympy, the print/parse round trip, and array
evaluation against scalar evaluation, including where evaluation fails."""

import itertools

import numpy as np
import pytest

from tsvar import expr as ex

hypothesis = pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=75)

CONSTANTS = [0.5, 1.0, 1.5, 2.0, 3.0]
EXPONENTS = [2.0, 3.0, 0.5, 1.5, -0.5, -1.0, -2.0]


LEAVES = st.one_of(st.sampled_from([ex.Var(n) for n in ex.VARIABLES]),
                   st.sampled_from(CONSTANTS).map(ex.Const))
# binary operations twice, so that trees branch
KINDS = ["binop", "binop", "call", "pow", "neg"]


@st.composite
def _trees(draw, depth=3, top=True):
    """A tree of at most depth operations on any path; its root is one."""
    kind = draw(st.sampled_from(KINDS if top else KINDS + ["leaf"])) if depth else "leaf"
    if kind == "leaf":
        return draw(LEAVES)
    sub = _trees(depth - 1, top=False)
    if kind == "binop":
        return ex.BinOp(draw(st.sampled_from("+-*/")), draw(sub), draw(sub))
    if kind == "call":
        return ex.Call(draw(st.sampled_from(ex.FUNCTIONS)), draw(sub))
    if kind == "pow":
        return ex.Pow(draw(sub), draw(st.sampled_from(EXPONENTS)))
    return ex.Neg(draw(sub))


TREES = _trees()
# parsed from their own text, so that every node carries its source offset
PARSED = TREES.map(lambda e: ex.parse(ex.to_text(e)))
VALUES = [-1.5, -0.5, 0.0, 1.0, 1.75]
POINTS = st.lists(st.tuples(*[st.sampled_from(VALUES)] * 3), min_size=1, max_size=6)
GRID = list(itertools.product(VALUES, repeat=3))  # every (t, y, v) over VALUES
SYMBOLS = sp.symbols("t y v")
SLOTS = ("t", "y", "v", "yy", "yv", "vv")  # every partial the solvers sample
SYMPY_FUNCTIONS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "ln": sp.log, "sqrt": sp.sqrt}


def _to_sympy(e):
    if isinstance(e, ex.Const):
        return sp.Rational(e.value)
    if isinstance(e, ex.Var):
        return SYMBOLS[ex.VARIABLES.index(e.name)]
    if isinstance(e, ex.Neg):
        return -_to_sympy(e.arg)
    if isinstance(e, ex.Call):
        return SYMPY_FUNCTIONS[e.fn](_to_sympy(e.arg))
    if isinstance(e, ex.Pow):
        return _to_sympy(e.base) ** sp.Rational(e.exponent)
    a, b = _to_sympy(e.left), _to_sympy(e.right)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[e.op]


def _scalar(e, point):
    """evaluate(e) at point, or None where it raises DomainViolation."""
    try:
        return ex.evaluate(e, ex.Binding(*point))
    except ex.DomainViolation:
        return None


@SETTINGS
@hypothesis.given(TREES, POINTS)
def test_partials_agree_with_sympy(e, points):
    ours, refs = [], []
    for slots in SLOTS:
        d, ref = e, _to_sympy(e)
        for var in slots:
            d = ex.differentiate(d, var)
            ref = sp.diff(ref, SYMBOLS[ex.VARIABLES.index(var)])
        ours.append(d)
        refs.append(ref)
    f = sp.lambdify(SYMBOLS, refs, modules="numpy")
    for point in points:
        with np.errstate(all="ignore"):
            wants = [complex(w) for w in f(*np.array(point))]
        for slots, d, want in zip(SLOTS, ours, wants):
            got = _scalar(d, point)
            if got is None or want.imag != 0.0 or not np.isfinite(want.real):
                continue
            assert abs(got - want.real) <= 1e-9 * (1.0 + abs(want.real)), (ex.to_text(e), slots)


@SETTINGS
@hypothesis.given(TREES, POINTS)
def test_printed_text_evaluates_like_the_tree(e, points):
    back = ex.parse(ex.to_text(e))
    for point in points:
        assert _scalar(back, point) == _scalar(e, point)


@SETTINGS
@hypothesis.given(PARSED, st.permutations(GRID))
def test_arrays_evaluate_like_elements(e, points):
    t, y, v = (np.array(col) for col in zip(*points))
    try:
        out = np.broadcast_to(ex.eval_arrays(e, t, y, v), t.shape)
    except ex.DomainViolation as err:
        # the named element fails on its own at the same node, and is the
        # first to fail there
        first = err.index or 0
        with pytest.raises(ex.DomainViolation) as one:
            ex.evaluate(e, ex.Binding(*points[first]))
        assert (one.value.reason, one.value.offset) == (err.reason, err.offset)
        for point in points[:first]:
            try:
                ex.evaluate(e, ex.Binding(*point))
            except ex.DomainViolation as other:
                assert other.offset != err.offset  # offsets name nodes uniquely
        return
    assert list(out) == [_scalar(e, point) for point in points]
