import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orliczforms.errors import ExpressionError
from orliczforms.expressions import (MAX_DEPTH, evaluate, free_variables, parse,
                                     substitute)
from orliczforms.forms import ExprField


def ev(text, **env):
    return evaluate(parse(text), {k: np.asarray(v) for k, v in env.items()})


def test_arithmetic_and_precedence():
    assert ev("1 + 2*3") == pytest.approx(7.0)
    assert ev("(1 + 2)*3") == pytest.approx(9.0)
    assert ev("2^3*4") == pytest.approx(32.0)
    assert ev("-x1^2", x1=3.0) == pytest.approx(-9.0)  # power binds tighter than unary minus
    assert ev("10/4") == pytest.approx(2.5)
    assert ev("2 - 3 - 4") == pytest.approx(-5.0)


def test_functions_and_constants():
    assert ev("sin(pi/2)") == pytest.approx(1.0, abs=1e-15)
    assert ev("cos(0)") == pytest.approx(1.0)
    assert ev("exp(1)") == pytest.approx(np.e)
    assert ev("sqrt(2)^2") == pytest.approx(2.0, rel=1e-15)
    assert ev("abs(-3)") == pytest.approx(3.0)


def test_vectorized_matches_scalar():
    xs = np.linspace(0.0, 1.0, 17)
    ys = np.linspace(-1.0, 2.0, 17)
    batch = ev("sin(pi*x1)*x2 + x1^3", x1=xs, x2=ys)
    singles = [float(ev("sin(pi*x1)*x2 + x1^3", x1=x, x2=y)) for x, y in zip(xs, ys)]
    np.testing.assert_allclose(batch, singles, rtol=1e-15)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.floats(-2.0, 2.0))
def test_polynomial_round_trip(coeffs, x):
    # build sum c_k * x1^k textually and compare against numpy's polyval
    text = " + ".join(f"({c})*x1^{k}" for k, c in enumerate(coeffs))
    want = float(np.polynomial.polynomial.polyval(x, np.array(coeffs, dtype=float)))
    got = float(ev(text, x1=x))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_free_variables():
    assert free_variables(parse("x1*x2 + sin(x3)")) == {"x1", "x2", "x3"}
    assert free_variables(parse("pi + 1")) == set()


def test_substitute_rescales():
    node = substitute(parse("x1^2 + x2"), {"x1": parse("(x1/2)")})
    got = evaluate(node, {"x1": np.array([2.0]), "x2": np.array([3.0])})
    assert got[0] == pytest.approx(4.0)


# str(parse(text)) for every corpus component, the README and test
# expressions, precedence and literal cases, the operator glyphs and
# whitespace: the trees every field, partial and report is computed from
PINNED_TREES = [
    ("(1 + 2)*3", "9.0"),
    ("(x1/2)", "(x1 / 2.0)"),
    ("-x1^2", "(-1.0 * (x1 ^ 2.0))"),
    ("-x2^2 + e", "((-1.0 * (x2 ^ 2.0)) + 2.718281828459045)"),
    ("0", "0.0"),
    ("1 + 2*3", "7.0"),
    ("10/4", "2.5"),
    ("2", "2.0"),
    ("2 - 3 - 4", "-5.0"),
    ("2*(x1 + x2)", "(2.0 * (x1 + x2))"),
    ("2*x1*x2", "((2.0 * x1) * x2)"),
    ("2^3*4", "np.float64(32.0)"),
    ("3*x1^2*x2", "((3.0 * (x1 ^ 2.0)) * x2)"),
    ("3*x1^2*x2 - x2", "(((3.0 * (x1 ^ 2.0)) * x2) - x2)"),
    ("3*x1^2*x2*x3", "(((3.0 * (x1 ^ 2.0)) * x2) * x3)"),
    ("abs(-3)", "abs(-3.0)"),
    ("cos(0)", "cos(0.0)"),
    ("cos(pi*x2)", "cos((3.141592653589793 * x2))"),
    ("exp(1)", "exp(1.0)"),
    ("exp(sin(pi*x1) * cos(x2))", "exp((sin((3.141592653589793 * x1)) * cos(x2)))"),
    ("exp(x1)*x2", "(exp(x1) * x2)"),
    ("log(1 + sqrt(abs(x1 - 0.5) * x2))", "log((1.0 + sqrt((abs((x1 - 0.5)) * x2))))"),
    ("pi", "3.141592653589793"),
    ("pi + 1", "4.141592653589793"),
    ("pi*cos(pi*x1)*x2", "((3.141592653589793 * cos((3.141592653589793 * x1))) * x2)"),
    ("sin(pi*x1)", "sin((3.141592653589793 * x1))"),
    ("sin(pi*x1)*cos(pi*x2)", "(sin((3.141592653589793 * x1)) * cos((3.141592653589793 * x2)))"),
    ("sin(pi*x1)*cos(pi*x2) + x1", "((sin((3.141592653589793 * x1)) * cos((3.141592653589793 * x2))) + x1)"),
    ("sin(pi*x1)*x2", "(sin((3.141592653589793 * x1)) * x2)"),
    ("sin(pi*x1)*x2 + x1^3", "((sin((3.141592653589793 * x1)) * x2) + (x1 ^ 3.0))"),
    ("sin(pi*x2)", "sin((3.141592653589793 * x2))"),
    ("sin(pi*x2) + x1*x2", "(sin((3.141592653589793 * x2)) + (x1 * x2))"),
    ("sin(pi/2)", "sin(1.5707963267948966)"),
    ("sin(x1)*(x2^2 + 1)", "(sin(x1) * ((x2 ^ 2.0) + 1.0))"),
    ("sin(x1*x2)", "sin((x1 * x2))"),
    ("sin(x3)*(x1^2 + 1)", "(sin(x3) * ((x1 ^ 2.0) + 1.0))"),
    ("sqrt(2)^2", "(sqrt(2.0) ^ 2.0)"),
    ("sqrt(t)", "sqrt(t)"),
    ("sqrt(x1)", "sqrt(x1)"),
    ("t^2", "(t ^ 2.0)"),
    ("t^2/(1+t)", "((t ^ 2.0) / (1.0 + t))"),
    ("x1", "x1"),
    ("x1 + x2", "(x1 + x2)"),
    ("x1 - 0.5", "(x1 - 0.5)"),
    ("x1 - 2", "(x1 - 2.0)"),
    ("x1 / x2", "(x1 / x2)"),
    ("x1*cos(pi*x2)", "(x1 * cos((3.141592653589793 * x2)))"),
    ("x1*sin(pi*x2) + x2^2", "((x1 * sin((3.141592653589793 * x2))) + (x2 ^ 2.0))"),
    ("x1*x1 - x1", "((x1 * x1) - x1)"),
    ("x1*x2", "(x1 * x2)"),
    ("x1*x2 + 1", "((x1 * x2) + 1.0)"),
    ("x1*x2 + sin(x3)", "((x1 * x2) + sin(x3))"),
    ("x1^1.5", "(x1 ^ 1.5)"),
    ("x1^2", "(x1 ^ 2.0)"),
    ("x1^2 + x2", "((x1 ^ 2.0) + x2)"),
    ("x1^2 - x2^2", "((x1 ^ 2.0) - (x2 ^ 2.0))"),
    ("x1^2*x2", "((x1 ^ 2.0) * x2)"),
    ("x1^2*x2 + sin(pi*x1) - x2", "((((x1 ^ 2.0) * x2) + sin((3.141592653589793 * x1))) - x2)"),
    ("x1^3", "(x1 ^ 3.0)"),
    ("x1^3 + x2", "((x1 ^ 3.0) + x2)"),
    ("x1^3 + x2*x3", "((x1 ^ 3.0) + (x2 * x3))"),
    ("x1^3 + x2^3 - x1*x2", "(((x1 ^ 3.0) + (x2 ^ 3.0)) - (x1 * x2))"),
    ("x1^3 - x2", "((x1 ^ 3.0) - x2)"),
    ("x1^3*x2", "((x1 ^ 3.0) * x2)"),
    ("x1^3*x3", "((x1 ^ 3.0) * x3)"),
    ("x1^x2", "(x1 ^ x2)"),
    ("x2", "x2"),
    ("x2*exp(x3)", "(x2 * exp(x3))"),
    ("x2*x3", "(x2 * x3)"),
    ("x2^2", "(x2 ^ 2.0)"),
    ("x2^2.5 / (1 + x1)", "((x2 ^ 2.5) / (1.0 + x1))"),
    ("x2^3", "(x2 ^ 3.0)"),
    ("x2^3 + 1", "((x2 ^ 3.0) + 1.0)"),
    ("x2^3 + sin(pi*x1)", "((x2 ^ 3.0) + sin((3.141592653589793 * x1)))"),
    ("x2^3 + x1^2*x2", "((x2 ^ 3.0) + ((x1 ^ 2.0) * x2))"),
    ("x3 + 1", "(x3 + 1.0)"),
    ("x3^3", "(x3 ^ 3.0)"),
    ("2^-1", "np.float64(0.5)"),
    ("2^3^2", "np.float64(512.0)"),
    ("-2^2", "np.float64(-4.0)"),
    ("--x1", "(-1.0 * (-1.0 * x1))"),
    ("+x1", "x1"),
    ("x1^x2^2", "(x1 ^ (x2 ^ 2.0))"),
    ("-x1^-x2", "(-1.0 * (x1 ^ (-1.0 * x2)))"),
    (".5*x1", "(0.5 * x1)"),
    ("1.*x1", "x1"),
    ("1e-3*x1", "(0.001 * x1)"),
    ("2.5E+3*x1", "(2500.0 * x1)"),
    ("sin (x1)", "sin(x1)"),
    ("x1×x2", "(x1 * x2)"),
    ("x1÷x2", "(x1 / x2)"),
    ("x1−x2", "(x1 - x2)"),
    ("x1 +\n  x2", "(x1 + x2)"),
    ("\tx2^3\n", "(x2 ^ 3.0)"),
]


@pytest.mark.parametrize("text, pinned", PINNED_TREES)
def test_parse_matches_pinned_tree(text, pinned):
    assert str(parse(text)) == pinned


@pytest.mark.parametrize("bad", [
    "x1 +", "x1 & x2", "sin()", "((x1)", "1..2", "x1 x2", "",
    "x1**2", "0x1F", "1_0", "1j", "sin + 1", "pi(2)", "sin(x1, x2)", "sin(x=1)",
    "x1 if x2 else 3", "x1 < 2", "1, 2", "x1.real", "ｘ1",
    # Python's parser accepts these: it drops a trailing comma or a comment,
    # it normalises parentheses round a function name and fullwidth letters
    # away, and it reads keyword names as constants and operators
    "sin(x1,)", "x1 # c", "(sin)(x1)", "ｓｉｎ(x1)", "True", "not x1", "x1 + ,",
    # not a string at all
    3, None, b"x1",
])
def test_malformed_input_rejected(bad):
    with pytest.raises(ExpressionError):
        parse(bad)


# each shape nests n levels of Python's parse tree, the quotients n - 1 at even n
NESTED = {
    "minus": lambda n: "-" * (n - 1) + "x1",
    "calls": lambda n: "sin(" * (n - 1) + "x1" + ")" * (n - 1),
    "quotients": lambda n: "1/(x1 + " * ((n - 1) // 2) + "x1" + ")" * ((n - 1) // 2),
    "powers": lambda n: "(" * (n - 1) + "x1" + "^1.01)" * (n - 1),
}


@pytest.mark.parametrize("shape", NESTED)
def test_nesting_at_the_limit_evaluates_differentiates_and_prints(shape):
    node = parse(NESTED[shape](MAX_DEPTH))
    x = np.linspace(0.1, 0.9, 5)
    d = node.diff("x1")
    for tree in (node, d, d.diff("x1")):
        assert np.all(np.isfinite(tree.ev({"x1": x})))
        assert str(tree)


@pytest.mark.parametrize("shape", NESTED)
@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 490, 3000])
def test_nesting_past_the_limit_rejected(shape, depth):
    # 490 unary minuses used to parse and then fail to print; 3000 failed to
    # parse with a RecursionError
    with pytest.raises(ExpressionError):
        parse(NESTED[shape](depth))


def test_unknown_variable_rejected_by_field():
    with pytest.raises(ExpressionError):
        ExprField("x3 + 1", 2)


def test_expr_field_partials():
    f = ExprField("x1^3*x2", 2)
    pts = np.array([[0.5, 2.0], [1.0, 1.0]])
    np.testing.assert_allclose(f.partial(1)(pts), [1.5, 3.0], rtol=1e-14)
    np.testing.assert_allclose(f.partial(2)(pts), [0.125, 1.0], rtol=1e-14)


def test_expr_field_partial_of_functions():
    f = ExprField("sin(pi*x1)", 1)
    pts = np.array([[0.25]])
    assert f.partial(1)(pts)[0] == pytest.approx(np.pi * np.cos(np.pi * 0.25), rel=1e-14)
