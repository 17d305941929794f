import pytest
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from addtheo.errors import ExprSyntaxError
from addtheo.exprparse import parse_fraction, parse_polynomial
from addtheo.poly import MPoly


def test_simple_polynomial():
    p = parse_polynomial("x^2 - 2*x + 1", ("x",))
    x = MPoly.var(("x",), "x")
    assert p == x**2 - 2 * x + 1


def test_fraction_clearing():
    num, den = parse_fraction("(t + 1/t)/2", ("t",))
    t = MPoly.var(("t",), "t")
    # as a fraction: (t^2 + 1) / (2t), up to a common scalar
    assert num * (2 * t) == den * (t**2 + 1)


def test_rational_literals():
    p = parse_polynomial("3/4*x + 1/2", ("x",))
    x = MPoly.var(("x",), "x")
    assert p == MPoly.const(("x",), Q(3, 4)) * x + Q(1, 2)


def test_power_requires_integer():
    with pytest.raises(ExprSyntaxError, match="exponent"):
        parse_fraction("x^y", ("x", "y"))


def test_unknown_symbol_reports_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_fraction("u + w", ("u",))
    assert err.value.column == 5
    assert "allowed: u" in str(err.value)


def test_unbalanced_parens():
    with pytest.raises(ExprSyntaxError):
        parse_fraction("(x + 1", ("x",))


def test_division_by_zero_literal():
    with pytest.raises(ExprSyntaxError, match="division by zero"):
        parse_fraction("x/(1 - 1)", ("x",))


def test_trailing_input_is_reported_with_its_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_fraction("x y", ("x", "y"))
    assert str(err.value) == "line 1, column 3: unexpected trailing input 'y'"


def test_unary_minus_and_precedence():
    p = parse_polynomial("-x^2 + 2*x*-1", ("x",))
    x = MPoly.var(("x",), "x")
    assert p == -(x**2) - 2 * x


def test_denominator_rejected_in_polynomial_context():
    with pytest.raises(ExprSyntaxError, match="polynomial"):
        parse_polynomial("1/x", ("x",))


def test_line_column_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_fraction("x +\n ?", ("x",), line=10)
    assert err.value.line == 11


@pytest.mark.parametrize(
    "text", ["²", "x + ²", "٣*x"], ids=["superscript", "after-operator", "arabic-indic"]
)
def test_only_ascii_digits_are_literals(text):
    # str.isdigit accepts these, and int() would reject "²" with a bare error
    with pytest.raises(ExprSyntaxError, match="unexpected character"):
        parse_fraction(text, ("x",))


@pytest.mark.parametrize(
    "text", ["(" * 400 + "x" + ")" * 400, "-" * 3000 + "x"], ids=["parentheses", "signs"]
)
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse_fraction(text, ("x",))


def test_moderate_nesting_still_parses():
    x = MPoly.var(("x",), "x")
    assert parse_polynomial("(" * 40 + "x" + ")" * 40, ("x",)) == x
    assert parse_polynomial("-" * 40 + "x", ("x",)) == x


OVERSIZED = [
    ("u^70000", 3, "power too large"),
    ("u + 2^2000000", 7, "power too large"),
    ("((2^1000)^1000)^1000", 11, "power too large"),
    # the operator's cross products pass the degree, though no power does
    ("u^60000*u^60000", 8, "operands of '\\*' too large"),
    ("u^60000/(1/u^60000)", 8, "operands of '/' too large"),
    ("1/u^40000 + 1/u^40000", 11, "operands of '\\+' too large"),
    ("u^40000 - 1/u^40000", 9, "operands of '-' too large"),
]


@pytest.mark.parametrize("text,column,message", OVERSIZED,
                         ids=["degree", "coefficient", "nested", "product", "quotient", "sum", "difference"])
def test_oversized_power_is_a_syntax_error_at_the_exponent(text, column, message):
    with pytest.raises(ExprSyntaxError, match=message) as info:
        parse_fraction(text, ("u",))
    assert info.value.column == column


def test_power_within_the_bounds_still_parses():
    u = MPoly.var(("u",), "u")
    assert parse_polynomial("(u+1)^20", ("u",)) == (u + 1) ** 20
    assert parse_polynomial("(u/2 + 1/3)^3 + 0^70000", ("u",)) == (Q(1, 2) * u + Q(1, 3)) ** 3
    assert parse_polynomial("u^65535", ("u",)) == u**65535
    assert parse_polynomial("2^65535", ("u",)).constant_value() == 2**65535
    assert parse_polynomial("u^30000*u^35535 - 1", ("u",)) == u**65535 - 1
    assert parse_fraction("u^60000/u^60000", ("u",)) == (u**60000, u**60000)
    with pytest.raises(ExprSyntaxError, match="power too large"):
        parse_fraction("2^65536", ("u",))  # 65537 bits


@pytest.mark.parametrize("text, message", [
    ("x+", "line 1, column 3: unexpected end of input"),
    ("", "line 1, column 1: unexpected end of input"),
    ("(x", "line 1, column 3: expected ')', found end of input"),
])
def test_end_of_input_is_named(text, message):
    with pytest.raises(ExprSyntaxError) as err:
        parse_polynomial(text, ("x", "y", "z"))
    assert str(err.value) == message


def test_empty_phi_line_names_the_end_of_input():
    from addtheo.funcspec import parse_spec

    with pytest.raises(ExprSyntaxError, match="^line 2, column 1: unexpected end of input$"):
        parse_spec("class: exp\nphi:\n")


@pytest.mark.parametrize("candidate", ["x+", "(x", ""])
def test_end_of_input_in_a_candidate_exits_2(capsys, candidate):
    import addtheo.cli as cli
    from conftest import spec_path

    assert cli.main(["verify", spec_path("cos.spec"), "--g", candidate]) == 2
    err = capsys.readouterr().err
    assert "end of input" in err and "None" not in err


coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)
term_dicts = st.dictionaries(
    st.tuples(*[st.integers(0, 9)] * 3), coefficients, min_size=1, max_size=30
)


@settings(max_examples=80, deadline=2000)
@given(term_dicts)
def test_canonical_text_parses_back(terms):
    # to_text is the form derive prints and verify reads back
    p = MPoly(("x", "y", "z"), terms)
    assert parse_polynomial(p.to_text(), ("x", "y", "z")) == p
