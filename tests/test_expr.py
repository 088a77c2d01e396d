import numpy as np
import pytest

from tsvar import expr as ex
from tsvar.expr import (
    Binding,
    BinOp,
    Const,
    DomainViolation,
    ExprSyntaxError,
    Neg,
    Pow,
    Var,
    differentiate,
    evaluate,
    parse,
    to_text,
)


class TestParse:
    def test_single_power(self):
        assert parse("v^2") == Pow(Var("v"), 2.0)

    def test_product(self):
        assert parse("t*v") == BinOp("*", Var("t"), Var("v"))

    def test_sum_of_power_and_variable(self):
        assert parse("v^2 + v") == BinOp("+", Pow(Var("v"), 2.0), Var("v"))

    def test_whitespace_insignificant(self):
        assert parse(" v ^2+ v ") == parse("v^2+v")

    def test_left_associative(self):
        assert evaluate(parse("8-2-3"), Binding(0, 0, 0)) == 3
        assert evaluate(parse("8/4/2"), Binding(0, 0, 0)) == 1

    def test_precedence_pow_over_neg(self):
        # -t^2 means -(t^2)
        assert evaluate(parse("-t^2"), Binding(3, 0, 0)) == -9
        assert evaluate(parse("(-t)^2"), Binding(3, 0, 0)) == 9

    def test_precedence_mul_over_add(self):
        assert evaluate(parse("2+3*4"), Binding(0, 0, 0)) == 14

    def test_functions(self):
        assert evaluate(parse("sin(0)"), Binding(0, 0, 0)) == 0
        assert evaluate(parse("exp(0) + ln(1) + sqrt(4) + cos(0)"), Binding(0, 0, 0)) == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("v + w")
        assert err.value.offset == 4

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("v + ")
        assert err.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("v 2")

    def test_exponent_must_be_number(self):
        for text in ("v^t", "v^-t", "v^--2", "v^-"):
            with pytest.raises(ExprSyntaxError):
                parse(text)

    def test_negative_exponent(self):
        assert parse("y^-0.5") == Pow(Var("y"), -0.5)
        assert parse("-y^-2") == Neg(Pow(Var("y"), -2.0))

    def test_printed_derivative_of_a_fractional_power_parses(self):
        d = differentiate(parse("y^0.5"), "y")
        back = parse(to_text(d))
        for y in (0.25, 1.0, 7.5):
            b = Binding(t=0.0, y=y, v=0.0)
            assert evaluate(back, b) == evaluate(d, b) == pytest.approx(0.5 * y**-0.5)

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(v")

    def test_stray_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("v % 2")


class TestEvaluate:
    def test_square(self):
        assert evaluate(parse("v^2"), Binding(t=0, y=0, v=3)) == 9

    def test_linear_in_t_and_v(self):
        assert evaluate(parse("t*v"), Binding(t=2, y=5, v=-1)) == -2

    def test_zero_case(self):
        assert evaluate(parse("v^2+v"), Binding(t=0, y=0, v=0)) == 0

    def test_division_by_zero(self):
        with pytest.raises(DomainViolation):
            evaluate(parse("1/t"), Binding(0, 0, 0))

    def test_log_of_nonpositive(self):
        with pytest.raises(DomainViolation):
            evaluate(parse("ln(t)"), Binding(-1, 0, 0))

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainViolation):
            evaluate(parse("sqrt(y)"), Binding(0, -4, 0))

    def test_violation_carries_node_offset(self):
        with pytest.raises(DomainViolation) as err:
            evaluate(parse("v + ln(t)"), Binding(-1, 0, 0))
        assert err.value.offset == 4

    def test_binding_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Binding(np.inf, 0, 0)

    def test_overflow_reported_as_domain_violation(self):
        with pytest.raises(DomainViolation):
            evaluate(parse("exp(exp(exp(v)))"), Binding(0, 0, 10))

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainViolation):
            evaluate(parse("t^2 / t^2"), Binding(0, 0, 0))


class TestDifferentiate:
    def test_square_slope(self):
        assert differentiate(parse("v^2"), "v") == BinOp("*", Const(2.0), Var("v"))

    def test_bilinear(self):
        assert differentiate(parse("t*v"), "v") == Var("t")

    def test_absent_variable(self):
        assert differentiate(parse("v^2"), "y") == Const(0.0)

    def test_constant_folds_to_zero(self):
        assert differentiate(parse("3.5"), "t") == Const(0.0)
        assert differentiate(parse("sin(2) * 7 - 1/3"), "v") == Const(0.0)

    def test_chain_rule_through_functions(self):
        d = differentiate(parse("sin(t^2)"), "t")
        t = 0.7
        assert evaluate(d, Binding(t, 0, 0)) == pytest.approx(2 * t * np.cos(t * t), rel=1e-12)

    def test_quotient_rule(self):
        d = differentiate(parse("y / (1 + v^2)"), "v")
        b = Binding(0, 2.0, 3.0)
        assert evaluate(d, b) == pytest.approx(-2 * 2.0 * 3.0 / (1 + 9) ** 2, rel=1e-12)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            differentiate(parse("v"), "x")


# ---------------------------------------------------------------------------
# Randomized properties


def _random_expr(rng, depth):
    """Random tree whose evaluation is finite for bindings in [-2, 2]^3."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Const(round(float(rng.uniform(-2, 2)), 3))
        return Var(str(rng.choice(["t", "y", "v"])))
    kind = rng.choice(["add", "sub", "mul", "div", "neg", "pow", "sin", "cos", "exp", "ln", "sqrt"])
    a = _random_expr(rng, depth - 1)
    if kind in ("add", "sub", "mul"):
        return BinOp({"add": "+", "sub": "-", "mul": "*"}[kind], a, _random_expr(rng, depth - 1))
    if kind == "div":
        # positive denominator bounded away from zero
        denom = BinOp("+", Const(round(float(rng.uniform(1, 3)), 3)),
                      Pow(_random_expr(rng, depth - 1), 2.0))
        return BinOp("/", a, denom)
    if kind == "neg":
        return Neg(a)
    if kind == "pow":
        return Pow(a, float(rng.integers(2, 4)))
    if kind in ("sin", "cos"):
        return ex.Call(kind, a)
    if kind == "exp":
        # keep the magnitude tame so finite differences stay accurate
        return ex.Call("exp", BinOp("*", Const(0.05), a))
    # ln, sqrt: strictly positive argument
    return ex.Call(kind, BinOp("+", Const(round(float(rng.uniform(0.5, 2)), 3)),
                               Pow(a, 2.0)))


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 1000:
        e = _random_expr(rng, depth=int(rng.integers(1, 4)))
        var = str(rng.choice(["t", "y", "v"]))
        d = differentiate(e, var)
        vals = {n: float(rng.uniform(-2, 2)) for n in ("t", "y", "v")}
        h = 1e-6
        try:
            up = dict(vals)
            up[var] += h
            dn = dict(vals)
            dn[var] -= h
            fd = (evaluate(e, Binding(**up)) - evaluate(e, Binding(**dn))) / (2 * h)
            sym = evaluate(d, Binding(**vals))
        except DomainViolation:
            continue
        assert abs(sym - fd) <= max(1e-6 * abs(sym), 1e-9), to_text(e)
        checked += 1


def test_print_parse_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(400):
        e = _random_expr(rng, depth=int(rng.integers(1, 4)))
        back = parse(to_text(e))
        for _ in range(5):
            b = Binding(*(float(x) for x in rng.uniform(-2, 2, 3)))
            try:
                want = evaluate(e, b)
            except DomainViolation:
                continue
            assert evaluate(back, b) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_differentiate_of_derivative_still_evaluates():
    rng = np.random.default_rng(99)
    for _ in range(100):
        e = _random_expr(rng, depth=2)
        dd = differentiate(differentiate(e, "v"), "y")
        b = Binding(0.5, -0.5, 1.5)
        try:
            evaluate(dd, b)
        except DomainViolation:
            pass


def test_parser_total_on_junk_input():
    # anything outside the grammar raises the syntax error, never crashes
    rng = np.random.default_rng(314)
    alphabet = list("tyv0123456789.+-*/^() abcw%$#")
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(1, 14))))
        try:
            e = parse(text)
        except ExprSyntaxError:
            continue
        # accepted strings must re-render and re-parse
        parse(to_text(e))


def test_expression_equality_is_structural():
    assert parse("v^2 + v") == parse("v^2 + v")
    assert parse("v + v^2") != parse("v^2 + v")


def test_eval_arrays_vectorizes():
    e = parse("t*v + y^2")
    t = np.array([0.0, 1.0, 2.0])
    y = np.array([1.0, 1.0, 1.0])
    v = np.array([2.0, 2.0, 2.0])
    np.testing.assert_allclose(ex.eval_arrays(e, t, y, v), [1.0, 3.0, 5.0])
