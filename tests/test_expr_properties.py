"""Property tests of the expression language on generated trees over t, y, v:
exact partials against sympy, the print/parse round trip, and array
evaluation, checked and compiled as a kernel runs it, against scalar
evaluation and against a reference tree walk, including where evaluation
fails."""

import itertools

import numpy as np
import pytest
from helpers import walk

from tsvar import expr as ex
from tsvar import timescale as tsc
from tsvar import variational as va

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


KERNEL_SLOTS = ("", "y", "v", "yy", "yv", "vv")  # e and every partial a sampler reads


def _walk(exprs, t, y, v):
    """The reference walk of each expression in turn, a constant one filled
    to the inputs' shape, or the DomainViolation of the first to fail."""
    shape = np.broadcast_shapes(np.shape(t), np.shape(y), np.shape(v))
    try:
        outs = [walk(e, t, y, v) for e in exprs]
    except ex.DomainViolation as err:
        return err
    return [np.full(shape, x) if np.ndim(x) == 0 else x for x in outs]


def _assert_same(got, want):
    """Two outcomes: the same arrays bit for bit, or the same DomainViolation."""
    if isinstance(want, ex.DomainViolation):
        assert isinstance(got, ex.DomainViolation)
        assert (got.reason, got.offset, got.index) == (want.reason, want.offset, want.index)
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        w = np.asarray(w, dtype=float)
        assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes())


def _assert_kernel_is_the_walk(exprs, t, y, v):
    """Both halves of the one compiled form of ``exprs`` at t, y, v are the
    walk: its checked run (``ex._checked``), outputs or DomainViolation; and,
    on arrays of one shape, its compiled code run with faults raised, as a
    kernel runs it.  On finite inputs that code faults exactly where the walk
    fails and otherwise gives the walk's outputs; a kernel never runs it on
    inputs that are not finite, since its quotient check sends them to the
    checked run."""
    want = _walk(exprs, t, y, v)
    code, outs, where = ex._lower(exprs)
    try:
        got = ex._checked(code, outs, where, t, y, v)
    except ex.DomainViolation as err:
        got = err
    _assert_same(got, want)
    ins = [np.asarray(x, dtype=float) for x in (t, y, v)]
    if min(x.ndim for x in ins) == 0 or len({x.shape for x in ins}) > 1:
        return
    run = ex._compile(code, outs)
    if run is None:  # a constant is not finite: a kernel then takes the checked run
        assert not all(np.isfinite(float.fromhex(c)) for op, c, *_ in code if op == "k")
        return
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            compiled = run(*ins)
    except FloatingPointError:
        compiled = None
    if all(np.isfinite(x).all() for x in ins):
        assert (compiled is None) == isinstance(want, ex.DomainViolation)
    if compiled is not None and not isinstance(want, ex.DomainViolation):
        _assert_same(compiled, want)


def _partials(e):
    """e and its partials in the slots every sampler reads."""
    return [va._d(e, s) for s in KERNEL_SLOTS]


@SETTINGS
@hypothesis.given(PARSED, st.permutations(GRID), st.booleans())
def test_program_is_the_walk(e, points, two_d):
    # the 125 grid points as one row, or as a stack of 5 rows of 25 with t
    # repeated across the rows, as the consistency scan samples them
    t, y, v = (np.array(col) for col in zip(*points))
    if two_d:
        t, y, v = np.tile(t[:25], (5, 1)), y.reshape(5, 25), v.reshape(5, 25)
    _assert_kernel_is_the_walk(_partials(e), t, y, v)
    # and at the first point as scalars, which only the checked run takes
    _assert_kernel_is_the_walk(_partials(e), *points[0])


@SETTINGS
@hypothesis.given(PARSED, POINTS, st.sampled_from(range(3)), st.integers(0, 5),
                  st.sampled_from([np.inf, -np.inf, np.nan]))
def test_program_on_non_finite_inputs_is_the_walk(e, points, slot, at, bad):
    cols = [np.array(col) for col in zip(*points)]
    cols[slot][at % len(points)] = bad
    _assert_kernel_is_the_walk(_partials(e), *cols)


@SETTINGS
@hypothesis.given(PARSED, st.lists(st.sampled_from(VALUES), min_size=6, max_size=6),
                  st.integers(0, 5), st.sampled_from([np.inf, -np.inf, np.nan]), st.booleans())
def test_a_stack_through_the_kernel_is_the_walk_row_by_row(e, nodes, at, bad, forward):
    # a one-sided kernel run (``va._pair``) on a stack of a clean row and a
    # row with a node that is not finite: each row gets the walk at its own
    # samples, the faulting one through the checked run, whose violation
    # names the t of its first non-finite element
    ts = tsc.uniform(-1.5, 1.0, 6)
    Y = np.array([nodes, nodes], dtype=float)
    Y[1, at] = bad
    pair = (e, None) if forward else (None, e)
    outs = va._pair(ts, *pair, KERNEL_SLOTS, Y, None, lambda rows, w, q, parts: list(zip(*parts)))
    assert len(outs) == 2
    t = ts.points[:-1] if forward else ts.points[1:]
    for row, got in zip(Y, outs):
        with np.errstate(all="ignore"):
            q = np.diff(row) / ts.mu_values[:-1]
        want = _walk(_partials(e), t, row[1:] if forward else row[:-1], q)
        if isinstance(want, ex.DomainViolation):
            ti = float(t[want.index or 0])
            want = ex.DomainViolation(f"{want.reason} at t={ti!r}", want.offset, want.index)
        _assert_same(got, want)


def test_program_keeps_signed_zeros_apart():
    # y * 0 and y * -0.0 are two instructions, so the pair's two outputs differ in sign
    ts, nodes = tsc.uniform(0, 1, 3), np.array([1.0, 2.0, 3.0])
    plus, minus = ex.parse("y * 0"), ex.BinOp("*", ex.Var("y"), ex.Const(-0.0))
    got_plus, got_minus = va._along(ts, plus, minus, ("",), nodes)
    assert not np.signbit(got_plus).any() and np.signbit(got_minus).all()
    assert ex._lower([ex.Const(0.0), ex.Const(-0.0)])[1] == (0, 1)


def test_program_outputs_have_the_inputs_shape():
    # a repeated expression, an input and a constant each give the value of
    # their output over the stack; outputs may share arrays
    y = np.array([[0.5, 1.0], [1.5, 2.0]])
    exprs = [ex.parse(text) for text in ("sin(y)", "sin(y)", "y", "2", "2")]
    outs = ex._compile(*ex._lower(exprs)[:2])(y, y, y)
    _assert_same(outs, [np.sin(y), np.sin(y), y, np.full((2, 2), 2.0), np.full((2, 2), 2.0)])


def test_a_non_finite_constant_is_checked_where_it_is_used():
    # a hand-built constant can be non-finite; such code is not compiled, a
    # kernel that has it is None, and the checked run names the node that
    # uses the constant
    y = np.array([1.0, 0.0, -2.0])
    inf = ex.Const(np.inf, span=2)
    times = ex.BinOp("*", ex.Var("y", span=0), inf, span=1)
    assert ex._compile(*ex._lower([times])[:2]) is None and va._kernel(times, None, ("",)) is None
    ts, nodes = tsc.uniform(0, 3, 4), np.r_[9.0, y]  # forward samples y[1:] are y
    with pytest.raises(ex.DomainViolation) as err:
        va._along(ts, times, None, ("",), nodes)
    assert (err.value.reason, err.value.offset, err.value.index) == ("domain violation in '*' at t=0.0", 1, 0)
    _assert_both_are_the_walk(times, y, y, y)
    # exp(-inf) is finite, so this one evaluates
    vanishing = ex.BinOp("*", ex.Var("y"), ex.Call("exp", ex.Neg(inf)))
    _assert_same(va._along(ts, vanishing, None, ("",), nodes), [[0.0, 0.0, -0.0]])
    _assert_both_are_the_walk(vanishing, y, y, y)


def _assert_both_are_the_walk(e, *inputs):
    t, y, v = (np.array(x, dtype=float) for x in inputs)  # three distinct arrays
    _assert_eval_arrays_is_the_walk(e, t, y, v)
    _assert_kernel_is_the_walk([e], t, y, v)


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
    with pytest.raises(ex.DomainViolation) as err:
        ex.eval_arrays(e, t, y, v)
    assert (err.value.reason, err.value.offset, err.value.index) == (
        f"domain violation in {name!r}", offset, index)
    _assert_both_are_the_walk(e, t, y, v)
