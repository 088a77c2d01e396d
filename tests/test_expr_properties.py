"""Property tests of the expression language on generated trees over t, y, v:
exact partials against sympy, the print/parse round trip, and array
evaluation against scalar evaluation and against a reference tree walk,
including where evaluation fails."""

import itertools

import numpy as np
import pytest
from helpers import walk

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
    _assert_eval_arrays_is_the_walk(e, t, y, v)
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


def _outcome(f, *args):
    """f(*args), or the (reason, offset, index) of the DomainViolation it raises."""
    try:
        return f(*args)
    except ex.DomainViolation as err:
        return err.reason, err.offset, err.index


def _assert_eval_arrays_is_the_walk(e, t, y, v):
    got, want = _outcome(ex.eval_arrays, e, t, y, v), _outcome(walk, e, t, y, v)
    if isinstance(want, tuple):
        assert got == want
        return
    # bit for bit, a constant filled to the inputs' shape
    want = np.full(got.shape, want) if np.ndim(want) == 0 else np.asarray(want, dtype=float)
    assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


def _partials(e):
    """e and its partials in the slots every sampler reads."""
    out = [e]
    for slots in ("y", "v", "yy", "yv", "vv"):
        d = e
        for var in slots:
            d = ex.differentiate(d, var)
        out.append(d)
    return out


def _walk(exprs, t, y, v):
    """The reference walk of each expression in turn, a constant one filled
    to the inputs' shape, or the DomainViolation of the first to fail."""
    shape = np.broadcast_shapes(np.shape(t), np.shape(y), np.shape(v))
    try:
        outs = [walk(e, t, y, v) for e in exprs]
    except ex.DomainViolation as err:
        return err
    return [np.full(shape, x) if np.ndim(x) == 0 else x for x in outs]


def _assert_program_is_the_walk(exprs, t, y, v):
    want = _walk(exprs, t, y, v)
    if isinstance(want, ex.DomainViolation):
        with pytest.raises(ex.DomainViolation) as got:
            ex.Program(exprs)(t, y, v)
        assert (got.value.reason, got.value.offset, got.value.index) == (
            want.reason, want.offset, want.index)
        return
    got = ex.Program(exprs)(t, y, v)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g, w, strict=True)
    # every output is a fresh array
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations([*got, t, y, v], 2))


@SETTINGS
@hypothesis.given(PARSED, st.permutations(GRID), st.booleans())
def test_program_is_the_walk(e, points, two_d):
    # the 125 grid points as one row, or as 5 rows of 25 with t broadcast
    # across the rows as the consistency scan samples them
    t, y, v = (np.array(col) for col in zip(*points))
    if two_d:
        t, y, v = t[:25], y.reshape(5, 25), v.reshape(5, 25)
    _assert_program_is_the_walk(_partials(e), t, y, v)
    # and at the first point as scalars, which the program runs checked
    _assert_program_is_the_walk(_partials(e), *points[0])


@SETTINGS
@hypothesis.given(PARSED, POINTS, st.sampled_from(range(3)), st.integers(0, 5),
                  st.sampled_from([np.inf, -np.inf, np.nan]))
def test_program_on_non_finite_inputs_is_the_walk(e, points, slot, at, bad):
    cols = [np.array(col) for col in zip(*points)]
    cols[slot][at % len(points)] = bad
    _assert_program_is_the_walk(_partials(e), *cols)


def test_program_keeps_signed_zeros_apart():
    y = np.array([1.0, 2.0])
    plus, minus = ex.Program([ex.parse("y * 0"), ex.BinOp("*", ex.Var("y"), ex.Const(-0.0))])(y, y, y)
    assert not np.signbit(plus).any() and np.signbit(minus).all()
    assert ex._lower([ex.Const(0.0), ex.Const(-0.0)])[1] == (0, 1)


def test_program_outputs_are_fresh():
    # a repeated expression, an input and a constant each get their own array
    y = np.array([0.5, 1.0])
    outs = ex.Program([ex.parse(text) for text in ("sin(y)", "sin(y)", "y", "2", "2")])(y, y, y)
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations([*outs, y], 2))
    np.testing.assert_array_equal(outs[3], [2.0, 2.0])


def _assert_both_are_the_walk(e, *inputs):
    t, y, v = (np.array(x, dtype=float) for x in inputs)  # three distinct arrays
    _assert_eval_arrays_is_the_walk(e, t, y, v)
    _assert_program_is_the_walk([e], t, y, v)


def test_a_non_finite_constant_is_checked_where_it_is_used():
    # a hand-built constant can be non-finite; such a program is not
    # compiled, and its checked run names the node that uses the constant
    y = np.array([1.0, 0.0, -2.0])
    inf = ex.Const(np.inf, span=2)
    times = ex.BinOp("*", ex.Var("y", span=0), inf, span=1)
    assert ex._compile(*ex._lower([times])[:2]) == (None, ())
    with pytest.raises(ex.DomainViolation) as err:
        ex.Program([times])(y, y, y)
    assert (err.value.reason, err.value.offset, err.value.index) == ("domain violation in '*'", 1, 0)
    _assert_both_are_the_walk(times, y, y, y)
    # exp(-inf) is finite, so this one evaluates
    vanishing = ex.BinOp("*", ex.Var("y"), ex.Call("exp", ex.Neg(inf)))
    np.testing.assert_array_equal(ex.Program([vanishing])(y, y, y)[0], [0.0, 0.0, -0.0], strict=True)
    _assert_both_are_the_walk(vanishing, y, y, y)


@pytest.mark.parametrize("text, y, name, offset, index", [
    # both ln(y) lower to one instruction, which names the first of them
    ("v + ln(y) + ln(y)", np.array([1.0, 2.0, -1.0]), "ln", 4, 2),
    ("v + ln(y) + ln(y)", -1.0, "ln", 4, None),
    # 1/0 fails on a 0-d value, before y is read
    ("1/0 + y", np.array([1.0, 2.0]), "/", 1, None),
])
def test_the_first_failing_node_is_named(text, y, name, offset, index):
    e = ex.parse(text)
    t = v = np.ones(np.shape(y))
    for run in (lambda: ex.eval_arrays(e, t, y, v), lambda: ex.Program([e])(t, y, v)):
        with pytest.raises(ex.DomainViolation) as err:
            run()
        assert (err.value.reason, err.value.offset, err.value.index) == (
            f"domain violation in {name!r}", offset, index)
    _assert_both_are_the_walk(e, t, y, v)
