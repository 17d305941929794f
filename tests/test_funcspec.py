import os
import subprocess
import sys

import pytest
from fractions import Fraction as Q
from hypothesis import assume, given, settings, strategies as st

from addtheo.errors import ExprSyntaxError, SpecValidationError
from addtheo.funcspec import FunctionClass, make_spec, order, parse_spec
from addtheo.poly import MPoly

from conftest import SRC, spec_text
from oracles import preimage_count


def test_parse_exp_clears_inner_fraction():
    spec = parse_spec("class: exp\nphi: (t + 1/t)/2\n")
    t = MPoly.var(("t",), "t")
    assert spec.cls is FunctionClass.RATIONAL_OF_EXP
    assert spec.numerator == t**2 + 1
    assert spec.denominator == 2 * t


def test_parse_elliptic_p():
    spec = parse_spec("class: elliptic\ng2: 4\ng3: 0\nphi: p\n")
    assert spec.cls is FunctionClass.ELLIPTIC
    assert spec.numerator == MPoly.var(("p", "q"), "p")
    assert spec.denominator.is_constant()


def test_zero_discriminant_rejected():
    with pytest.raises(SpecValidationError, match="discriminant"):
        parse_spec("class: elliptic\ng2: 0\ng3: 0\nphi: p\n")


def test_constant_phi_rejected():
    with pytest.raises(SpecValidationError, match="constant"):
        parse_spec("class: rational\nphi: 7\n")


@pytest.mark.parametrize("mu", ["0", "0*i", "0/3"])
def test_zero_mu_rejected(mu):
    # t = e^(0*u) = 1 makes every phi(t) a constant function of u
    with pytest.raises(SpecValidationError, match="constant"):
        parse_spec(f"class: exp\nphi: t\nmu: {mu}\n")


def test_wrong_symbol_for_class():
    with pytest.raises(ExprSyntaxError, match="unknown symbol"):
        parse_spec("class: exp\nphi: u + 1\n")


def test_missing_g2_rejected():
    with pytest.raises(SpecValidationError, match="g2"):
        parse_spec("class: elliptic\ng3: 1\nphi: p\n")


@pytest.mark.parametrize("text,error,message", [
    ("class: rational\nphi u\n", ExprSyntaxError, "line 2, column 1: expected 'key: value'"),
    ("class: rational\nphi: u\nphi: u^2\n", ExprSyntaxError,
     "line 3, column 1: duplicate key 'phi'"),
    ("phi: u\n", SpecValidationError, "missing 'class' line"),
    ("class: trig\nphi: u\n", SpecValidationError,
     "unknown class 'trig' (expected rational, exp, or elliptic)"),
    ("class: rational\n", SpecValidationError, "missing 'phi' line"),
    ("class: rational\nphi: u\ng2: 1\n", ExprSyntaxError,
     "line 3, column 1: unexpected key 'g2' for class rational"),
    ("class: exp\nphi: t\nmu: abc\n", ExprSyntaxError, "line 3, column 1: invalid mu value 'abc'"),
    ("class: elliptic\ng2: x\ng3: 0\nphi: p\n", ExprSyntaxError,
     "line 2, column 1: invalid rational for g2: 'x'"),
    ("class: elliptic\ng2: 4\ng3: 0\nphi: 1/(q^2 - 4*p^3 + 4*p)\n", SpecValidationError,
     "denominator vanishes on the curve"),
])
def test_spec_validation_errors(text, error, message):
    # each is a parse error, so the CLI exits 2 with this message
    with pytest.raises(error) as excinfo:
        parse_spec(text)
    assert str(excinfo.value) == message
    assert excinfo.value.code == 2


def test_mu_parsing_and_value():
    spec = parse_spec("class: exp\nphi: t\nmu: i\n")
    assert spec.mu == (Q(0), Q(1))
    assert spec.mu_value == 1j
    spec = parse_spec("class: exp\nphi: t\nmu: 3/2\n")
    assert spec.mu_value == 1.5


def test_curve_reduction_lowers_q_degree():
    from addtheo.funcspec import curve_polynomial
    from addtheo.poly import rem_monic

    spec = parse_spec("class: elliptic\ng2: 4\ng3: 0\nphi: q^2 + q\n")
    assert spec.numerator.degree_in("q") <= 1
    # q^2 was rewritten through the curve: 4p^3 - 4p + q
    p = MPoly.var(("p", "q"), "p")
    q = MPoly.var(("p", "q"), "q")
    assert spec.numerator == 4 * p**3 - 4 * p + q
    # reducing the stored forms again is a no-op
    curve = curve_polynomial(spec.g2, spec.g3)
    assert rem_monic(spec.numerator, curve, "q") == spec.numerator
    assert rem_monic(spec.denominator, curve, "q") == spec.denominator


def test_reuniformization_of_exp_powers():
    spec = parse_spec("class: exp\nphi: (t^2 - 1)/(t^2 + 1)\n")
    t = MPoly.var(("t",), "t")
    assert spec.numerator == t - 1
    assert spec.denominator == t + 1
    assert spec.mu == (Q(2), Q(0))


def test_serialize_roundtrip_bundled():
    for name in (
        "exp-t.spec",
        "cosh.spec",
        "cos.spec",
        "rational-u.spec",
        "mobius.spec",
        "wp-lemniscatic.spec",
        "wp-prime.spec",
        "wp-squared.spec",
    ):
        spec = parse_spec(spec_text(name))
        again = parse_spec(spec.serialize())
        assert again == spec, name


def test_order_examples():
    assert order(parse_spec("class: exp\nphi: t\n")) == 1
    assert order(parse_spec("class: elliptic\ng2: 4\ng3: 0\nphi: p\n")) == 2
    assert order(parse_spec("class: elliptic\ng2: 4\ng3: 0\nphi: q\n")) == 3
    assert order(parse_spec("class: exp\nphi: (t^2+1)/(2*t)\n")) == 2
    assert order(parse_spec("class: elliptic\ng2: 4\ng3: 0\nphi: p^2\n")) == 4
    assert order(parse_spec("class: rational\nphi: (2*u+1)/(u-1)\n")) == 1


def test_order_moebius_invariance():
    # order(phi) = order(1/phi) = order(phi + c)
    cases = [
        "class: rational\nphi: u^2\n",
        "class: exp\nphi: (t^2+1)/(2*t)\n",
        "class: elliptic\ng2: 4\ng3: 1\nphi: p\n",
    ]
    for text in cases:
        spec = parse_spec(text)
        base = order(spec)
        inv = make_spec(spec.cls, spec.denominator, spec.numerator,
                        mu=spec.mu, g2=spec.g2, g3=spec.g3)
        assert order(inv) == base
        shifted = make_spec(
            spec.cls,
            spec.numerator + 3 * spec.denominator,
            spec.denominator,
            mu=spec.mu,
            g2=spec.g2,
            g3=spec.g3,
        )
        assert order(shifted) == base


BUNDLED_NU = {
    "cos.spec": 2,
    "cosh.spec": 2,
    "exp-t.spec": 1,
    "mobius.spec": 1,
    "rational-u.spec": 1,
    "rational-u2.spec": 2,
    "rational-u3.spec": 3,
    "wp-generic.spec": 2,
    "wp-lemniscatic.spec": 2,
    "wp-prime.spec": 3,
    "wp-squared.spec": 4,
}


@pytest.mark.parametrize("name", sorted(BUNDLED_NU))
def test_preimage_count_matches_order(name):
    spec = parse_spec(spec_text(name))
    assert preimage_count(spec) == order(spec) == BUNDLED_NU[name]


# every CLI process pays for what `import addtheo.cli` loads: no runtime
# dependency, no dataclasses (which pulls in inspect, ast, dis and tokenize),
# and json only when a --json report is printed
def _loads_in_a_fresh_process(imported, module) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {imported}; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout in ("True\n", "False\n"), proc.stdout
    return proc.stdout == "True\n"


@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect", "json"])
def test_cli_import_leaves_module_out(module):
    assert not _loads_in_a_fresh_process("addtheo.cli", module)


def test_derive_import_leaves_laws_out():
    # laws builds on derive, never the reverse, and the package imports no module
    assert not _loads_in_a_fresh_process("addtheo.derive", "addtheo.laws")


def test_common_zero_of_numerator_and_denominator_is_not_a_preimage():
    # N = p + q and D = p - 1 both vanish at the curve point (1, -1); phi has
    # simple poles at O and (1, 1) only, so its order is 2
    spec = parse_spec("class: elliptic\ng2: 1\ng3: 2\nphi: (p+q)/(p-1)\n")
    assert preimage_count(spec) == order(spec) == 2


def test_order_is_the_generic_fibre_at_a_critical_value():
    # the oracle's seeded value c0 = 671563/565570 is the critical value of
    # u^2 + c0, whose fibre over c0 is the double root u = 0; a generic fibre
    # still has two points
    spec = parse_spec("class: rational\nphi: u^2 + 671563/565570\n")
    assert preimage_count(spec) == 1
    assert order(spec) == 2


def _poly(coeffs, variables, name):
    x = MPoly.var(variables, name)
    return sum((c * x**i for i, c in enumerate(coeffs)), MPoly.zero(variables))


small_coeffs = st.lists(st.integers(-3, 3), min_size=1, max_size=4)


@st.composite
def small_specs(draw):
    """Specs N/D of each class with N, D of degree at most 3 in the
    uniformizer (elliptic: A(p) + q*B(p) over one of three curves)."""
    cls = draw(st.sampled_from(list(FunctionClass)))
    if cls is FunctionClass.ELLIPTIC:
        g2, g3 = draw(st.sampled_from([(4, 0), (0, 1), (1, 2)]))
        ring = ("p", "q")
        q = MPoly.var(ring, "q")
        num, den = (
            _poly(draw(small_coeffs), ring, "p") + q * _poly(draw(small_coeffs), ring, "p")
            for _ in range(2)
        )
        return cls, num, den, Q(g2), Q(g3)
    ring = ("u",) if cls is FunctionClass.RATIONAL_OF_U else ("t",)
    num, den = (_poly(draw(small_coeffs), ring, ring[0]) for _ in range(2))
    return cls, num, den, None, None


@settings(max_examples=60, deadline=None)
@given(small_specs())
def test_order_matches_the_preimage_count(case):
    cls, num, den, g2, g3 = case
    try:
        spec = make_spec(cls, num, den, g2=g2, g3=g3)
    except SpecValidationError:
        assume(False)
    assert order(spec) == preimage_count(spec)
