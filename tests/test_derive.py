import cmath
import json
import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from addtheo import derive, numeric
from addtheo.derive import (
    _pivot_eliminant,
    base_law,
    derivative_relation,
    eliminate,
    fold_eliminate,
    phi_prime,
    prune,
    reduce_f_to_g,
)
from addtheo.errors import (
    AddTheoError,
    DegenerateEliminationError,
    DegenerateSpecializationError,
    DegreeLawError,
    MonomialOverflowError,
    PruningError,
)
from addtheo.exprparse import parse_polynomial
from addtheo.funcspec import FunctionClass, parse_spec
from addtheo.factor import factor
from addtheo.laws import DegreeReport, degree_report, derive_addition_theorem
from addtheo.numeric import (
    PRIMES,
    EvalConfig,
    bad_prime,
    class_tolerance,
    exact_points,
    graph_point,
    phi_eval,
    relative_residual,
    sample_graph,
    wp_pair,
)
from addtheo.poly import MPoly, divide_exact
from addtheo.resultants import content_and_primitive

from conftest import ROOT, spec_text
from oracles import eager_fold_eliminate, phi_derivative_numeric, sylvester_resultant

CFG = EvalConfig()

COSH = "class: exp\nphi: (t^2+1)/(2*t)\n"
WP_LEM = "class: elliptic\ng2: 4\ng3: 0\nphi: p\n"


def test_base_law_rational_and_exp():
    assert [r.to_text() for r in base_law(FunctionClass.RATIONAL_OF_U)] == ["u3 - u2 - u1"]
    (rel,) = base_law(FunctionClass.RATIONAL_OF_EXP)
    value, _ = rel.evaluate_with_magnitude({"t1": cmath.exp(0.3), "t2": cmath.exp(0.5), "t3": cmath.exp(0.8)})
    assert abs(value) < 1e-12


def test_base_law_elliptic_vanishes_numerically():
    relations = base_law(FunctionClass.ELLIPTIC, Q(4), Q(1))
    rng = random.Random(17)
    checked = 0
    while checked < 50:
        r1 = 0.05 + 0.2 * rng.random()
        r2 = 0.05 + 0.2 * rng.random()
        u = r1 * cmath.exp(2j * cmath.pi * rng.random())
        v = r2 * cmath.exp(2j * cmath.pi * rng.random())
        if not (0.05 <= abs(u + v) <= 0.25):
            continue
        point = {}
        for name, arg in (("1", u), ("2", v), ("3", u + v)):
            point["p" + name], point["q" + name] = wp_pair(Q(4), Q(1), arg)
        for rel in relations:
            assert relative_residual(rel, point) < 1e-9
        checked += 1


def test_eliminate_exp_identity():
    spec = parse_spec("class: exp\nphi: t\n")
    assert eliminate(spec).to_text() == "x*y - z"


def test_eliminate_rational_identity():
    spec = parse_spec("class: rational\nphi: u\n")
    assert eliminate(spec).to_text() == "z - y - x"


def test_eliminate_cosh_divisible_by_law():
    spec = parse_spec(COSH)
    eliminant = eliminate(spec)
    ring = eliminant.variables
    x, y, z = (MPoly.var(ring, n) for n in ("x", "y", "z"))
    g = (x**2 + y**2 + z**2 - 2 * x * y * z - 1).canonicalize()
    assert divide_exact(eliminant, g) is not None


# raw eliminants (before pruning) of bundled specs, as `derive --trace`
# prints them: the resultant of the last symbol's pivot with its cheapest
# partner
RAW_ELIMINANTS = {
    "cosh.spec": (
        "4*x^2*y^2*z^2 - 4*x*y*z^3 - 4*x*y^3*z - 4*x^3*y*z + z^4"
        " + 2*y^2*z^2 + 2*x^2*z^2 + y^4 + 2*x^2*y^2 + x^4 + 4*x*y*z - 2*z^2"
        " - 2*y^2 - 2*x^2 + 1"
    ),
    "mobius.spec": "x*y*z + y*z + x*z - 5*x*y - 8*z + 4*y + 4*x + 4",
    "wp-generic.spec": (
        "y^4*z^2 - 4*x*y^3*z^2 + 6*x^2*y^2*z^2 - 4*x^3*y*z^2 + x^4*z^2"
        " - 2*x*y^4*z + 2*x^2*y^3*z + 2*x^3*y^2*z - 2*x^4*y*z + x^2*y^4"
        " - 2*x^3*y^3 + x^4*y^2 + 2*y^3*z - 2*x*y^2*z - 2*x^2*y*z + 2*x^3*z"
        " + 2*x*y^3 - 4*x^2*y^2 + 2*x^3*y + y^2*z - 2*x*y*z + x^2*z + y^3"
        " - x*y^2 - x^2*y + x^3 + y^2 - 2*x*y + x^2"
    ),
    "wp-squared.spec": (
        "y^8*z^4 - 8*x*y^7*z^4 + 28*x^2*y^6*z^4 - 56*x^3*y^5*z^4"
        " + 70*x^4*y^4*z^4 - 56*x^5*y^3*z^4 + 28*x^6*y^2*z^4 - 8*x^7*y*z^4"
        " + x^8*z^4 - 4*x*y^8*z^3 - 108*x^2*y^7*z^3 + 348*x^3*y^6*z^3"
        " - 236*x^4*y^5*z^3 - 236*x^5*y^4*z^3 + 348*x^6*y^3*z^3"
        " - 108*x^7*y^2*z^3 - 4*x^8*y*z^3 + 6*x^2*y^8*z^2 - 148*x^3*y^7*z^2"
        " + 538*x^4*y^6*z^2 - 792*x^5*y^5*z^2 + 538*x^6*y^4*z^2"
        " - 148*x^7*y^3*z^2 + 6*x^8*y^2*z^2 - 4*x^3*y^8*z + 12*x^4*y^7*z"
        " - 8*x^5*y^6*z - 8*x^6*y^5*z + 12*x^7*y^4*z - 4*x^8*y^3*z"
        " + x^4*y^8 - 4*x^5*y^7 + 6*x^6*y^6 - 4*x^7*y^5 + x^8*y^4"
        " + 112*x*y^7*z^3 - 160*x^2*y^6*z^3 - 368*x^3*y^5*z^3"
        " + 832*x^4*y^4*z^3 - 368*x^5*y^3*z^3 - 160*x^6*y^2*z^3"
        " + 112*x^7*y*z^3 + 288*x^2*y^7*z^2 - 864*x^3*y^6*z^2"
        " + 576*x^4*y^5*z^2 + 576*x^5*y^4*z^2 - 864*x^6*y^3*z^2"
        " + 288*x^7*y^2*z^2 + 112*x^3*y^7*z - 448*x^4*y^6*z + 672*x^5*y^5*z"
        " - 448*x^6*y^4*z + 112*x^7*y^3*z - 4*y^7*z^3 - 108*x*y^6*z^3"
        " + 348*x^2*y^5*z^3 - 236*x^3*y^4*z^3 - 236*x^4*y^3*z^3"
        " + 348*x^5*y^2*z^3 - 108*x^6*y*z^3 - 4*x^7*z^3 - 124*x*y^7*z^2"
        " + 72*x^2*y^6*z^2 + 828*x^3*y^5*z^2 - 1552*x^4*y^4*z^2"
        " + 828*x^5*y^3*z^2 + 72*x^6*y^2*z^2 - 124*x^7*y*z^2"
        " - 124*x^2*y^7*z + 372*x^3*y^6*z - 248*x^4*y^5*z - 248*x^5*y^4*z"
        " + 372*x^6*y^3*z - 124*x^7*y^2*z - 4*x^3*y^7 + 16*x^4*y^6"
        " - 24*x^5*y^5 + 16*x^6*y^4 - 4*x^7*y^3 + 288*x*y^6*z^2"
        " - 864*x^2*y^5*z^2 + 576*x^3*y^4*z^2 + 576*x^4*y^3*z^2"
        " - 864*x^5*y^2*z^2 + 288*x^6*y*z^2 + 288*x^2*y^6*z"
        " - 1152*x^3*y^5*z + 1728*x^4*y^4*z - 1152*x^5*y^3*z"
        " + 288*x^6*y^2*z + 6*y^6*z^2 - 148*x*y^5*z^2 + 538*x^2*y^4*z^2"
        " - 792*x^3*y^3*z^2 + 538*x^4*y^2*z^2 - 148*x^5*y*z^2 + 6*x^6*z^2"
        " - 124*x*y^6*z + 372*x^2*y^5*z - 248*x^3*y^4*z - 248*x^4*y^3*z"
        " + 372*x^5*y^2*z - 124*x^6*y*z + 6*x^2*y^6 - 24*x^3*y^5"
        " + 36*x^4*y^4 - 24*x^5*y^3 + 6*x^6*y^2 + 112*x*y^5*z"
        " - 448*x^2*y^4*z + 672*x^3*y^3*z - 448*x^4*y^2*z + 112*x^5*y*z"
        " - 4*y^5*z + 12*x*y^4*z - 8*x^2*y^3*z - 8*x^3*y^2*z + 12*x^4*y*z"
        " - 4*x^5*z - 4*x*y^5 + 16*x^2*y^4 - 24*x^3*y^3 + 16*x^4*y^2"
        " - 4*x^5*y + y^4 - 4*x*y^3 + 6*x^2*y^2 - 4*x^3*y + x^4"
    ),
}


@pytest.mark.parametrize("name", sorted(RAW_ELIMINANTS))
def test_raw_eliminant_golden(name):
    assert eliminate(parse_spec(spec_text(name))).to_text() == RAW_ELIMINANTS[name]


def _last_step_relations():
    ring = ("x", "y", "s")
    x, y, s = (MPoly.var(ring, n) for n in ring)
    # the pivot's leading coefficient x is not constant, so every partner
    # needs a resultant
    return x, y, s, x * s - 1


def _count_resultants(monkeypatch):
    calls = []
    real = derive.resultant

    def counting(a, b, name):
        calls.append((a, b, name))
        return real(a, b, name)

    monkeypatch.setattr(derive, "resultant", counting)
    return calls, real


def test_last_step_computes_only_the_cheapest_resultant(monkeypatch):
    x, y, s, pivot = _last_step_relations()
    cheap = s**2 - y
    costly = s**3 + s - x * y
    calls, real = _count_resultants(monkeypatch)
    eliminant = fold_eliminate([costly, pivot, cheap], ("s",))
    assert calls == [(cheap, pivot, "s")]
    assert eliminant == real(cheap, pivot, "s").canonicalize()


def test_last_step_degenerate_pair_raises_without_fallback(monkeypatch):
    x, y, s, _ = _last_step_relations()
    pivot = (x * s - 1) * (s - y)  # reducible, leading coefficient x
    shared = (x * s - 1) * (s**2 + y)  # the cheapest partner shares x*s - 1 only
    calls, _ = _count_resultants(monkeypatch)
    with pytest.raises(DegenerateEliminationError, match="common factor eliminating s"):
        fold_eliminate([s**4 - y, pivot, shared], ("s",))
    assert len(calls) == 1


def test_multiple_of_a_pivot_that_is_not_monic_is_skipped(monkeypatch):
    # its resultant with the pivot is zero, yet it adds no constraint: the
    # next partner gives the eliminant
    x, y, s, pivot = _last_step_relations()
    multiple = (x * s - 1) * (s + y)
    assert _pivot_eliminant(multiple, pivot, None, "s") is None
    calls, real = _count_resultants(monkeypatch)
    eliminant = fold_eliminate([s**3 - y, pivot, multiple], ("s",))
    assert [c[0] for c in calls] == [multiple, s**3 - y]
    assert eliminant == real(s**3 - y, pivot, "s").canonicalize()


@pytest.mark.parametrize("name,calls", [("wp-prime", 4), ("wp-squared", 6)])
def test_lazy_step_skips_the_unused_result(monkeypatch, name, calls):
    # the eager fold computed 5 and 7: one result of the step on p2 that the
    # last step never read
    spec = parse_spec(spec_text(f"{name}.spec"))
    counted, _ = _count_resultants(monkeypatch)
    eliminate(spec)
    assert len(counted) == calls


def test_last_resultant_of_wp_prime_reads_the_primitive_partner(monkeypatch):
    # the chord law degenerates on p1 = p2, so the last partner carries the
    # content (y - x)^3 in p1: 60 terms, 25 in its primitive part
    counted, _ = _count_resultants(monkeypatch)
    eliminate(parse_spec(spec_text("wp-prime.spec")))
    partner, _, name = counted[-1]
    assert name == "p1" and len(partner) == 25
    assert content_and_primitive(partner, "p1")[0].is_constant()


@st.composite
def planted_content_pairs(draw):
    """(c, A, B): a non-constant content c(x, y), and A and B of degree 1-4
    in s with coefficients in x, y."""
    ring = ("x", "y", "s")
    nonzero = st.integers(-4, 4).filter(bool)

    def in_s(degree):
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, degree - 1)),
            nonzero, max_size=4,
        ))
        terms[(draw(st.integers(0, 1)), draw(st.integers(0, 1)), degree)] = draw(nonzero)
        return MPoly(ring, terms)

    c = MPoly(ring, draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)), nonzero,
        min_size=1, max_size=3,
    )))
    assume(not c.is_constant())
    return c, in_s(draw(st.integers(1, 4))), in_s(draw(st.integers(1, 4)))


@settings(max_examples=40, deadline=None)
@given(planted_content_pairs())
def test_content_first_last_step_matches_sylvester(case):
    # res(c*A, B) = c^deg(B) * res(A, B): the content is taken out of the
    # partner and its power multiplied back in
    c, partner, pivot = case
    expected = sylvester_resultant(c * partner, pivot, "s")
    assume(not expected.is_zero())
    got = _pivot_eliminant(c * partner, pivot, None, "s", content_first=True)
    assert got == expected.canonicalize()


VALID_BUNDLED = [
    "cos", "cosh", "exp-t", "mobius", "rational-u", "rational-u2", "rational-u3",
    "wp-generic", "wp-lemniscatic", "wp-prime", "wp-squared",
]


@pytest.mark.parametrize("name", VALID_BUNDLED)
def test_lazy_fold_matches_the_eager_fold(monkeypatch, name):
    spec = parse_spec(spec_text(f"{name}.spec"))
    lazy = (eliminate(spec), derivative_relation(spec))
    monkeypatch.setattr(derive, "fold_eliminate", eager_fold_eliminate)
    assert lazy == (eliminate(spec), derivative_relation(spec))


def test_lazy_step_builds_past_a_degenerate_last_pair(monkeypatch):
    ring = ("x", "y", "s", "t")
    x, y, s, t = (MPoly.var(ring, n) for n in ring)
    pivot = x * s - 1
    # eliminating t against the pivot t gives first a multiple of the s pivot
    # x*s - 1, which adds no constraint, then s^2 - y, which does
    shared = t + (x * s - 1) * (s + y)
    cheap = t**2 + s**2 - y
    relations = [cheap, shared, t, pivot]
    calls, real = _count_resultants(monkeypatch)
    eliminant = fold_eliminate(relations, ("t", "s"))
    # the last step ran twice: on the first result alone, then on both
    assert [c[0] for c in calls] == [(x * s - 1) * (s + y), s**2 - y]
    assert eliminant == real(s**2 - y, pivot, "s").canonicalize()
    assert eliminant == eager_fold_eliminate(relations, ("t", "s"))


EXP_T = parse_spec("class: exp\nphi: t\n")
EXP_T_LAW = degree_report(EXP_T)


def test_prune_drops_wrong_branch():
    ring = ("x", "y", "z")
    x, y, z = (MPoly.var(ring, n) for n in ring)
    theorem = prune((z - x * y) * (z + x * y), EXP_T, CFG, EXP_T_LAW)
    assert theorem.G.to_text() == "x*y - z"


def test_prune_rejects_diagonal_factor():
    ring = ("x", "y", "z")
    x, y, z = (MPoly.var(ring, n) for n in ring)
    theorem = prune((z - x * y) * (x - y), EXP_T, CFG, EXP_T_LAW)
    assert theorem.G.to_text() == "x*y - z"


def test_prune_no_survivor():
    ring = ("x", "y", "z")
    x, y, z = (MPoly.var(ring, n) for n in ring)
    with pytest.raises(PruningError, match="no graph component"):
        prune(x + y + z - 1, EXP_T, CFG, EXP_T_LAW)


def test_derive_golden_exp(theorems):
    theorem = theorems("class: exp\nphi: t\n")
    assert theorem.G.to_text() == "x*y - z"
    assert theorem.law.actual == (1, 1, 1)


def test_derive_golden_cosh(theorems):
    theorem = theorems(COSH)
    assert theorem.G.to_text() == "2*x*y*z - z^2 - y^2 - x^2 + 1"
    assert theorem.law.predicted == 2


def test_derive_tanh(theorems):
    theorem = theorems("class: exp\nphi: (t^2-1)/(t^2+1)\n")
    # tanh addition: z(1 + xy) = x + y, one degree in every slot
    ring = theorem.G.variables
    x, y, z = (MPoly.var(ring, n) for n in ("x", "y", "z"))
    assert theorem.G == (x * y * z + z - x - y).canonicalize()
    assert theorem.law.actual == (1, 1, 1)


def test_derive_elliptic_lemniscatic(theorems):
    theorem = theorems(WP_LEM)
    assert theorem.law.actual == (2, 2, 2)
    # the classical symmetric form: (xy + yz + zx + g2/4)^2 = (x+y+z)(4xyz - g3)
    ring = theorem.G.variables
    x, y, z = (MPoly.var(ring, n) for n in ("x", "y", "z"))
    classical = (x * y + y * z + z * x + 1) ** 2 - (x + y + z) * 4 * x * y * z
    assert theorem.G == classical.canonicalize()


def test_derive_symmetric_in_x_y(theorems):
    for text in ("class: exp\nphi: t\n", COSH, WP_LEM):
        g = theorems(text).G
        swapped = g.substitute(
            {"x": MPoly.var(g.variables, "y"), "y": MPoly.var(g.variables, "x")}
        )
        assert swapped.canonicalize() == g


def test_derive_deterministic_across_seeds():
    spec_text = WP_LEM
    a = derive_addition_theorem(
        parse_spec(spec_text), EvalConfig(seed=0, tol=1e-6), verify_samples=100
    )
    b = derive_addition_theorem(
        parse_spec(spec_text), EvalConfig(seed=1, tol=1e-6), verify_samples=400
    )
    assert a.G.to_text() == b.G.to_text()


def test_mu_independence(theorems):
    cosh = theorems(COSH)
    cos = theorems("class: exp\nphi: (t^2+1)/(2*t)\nmu: i\n")
    assert cos.G == cosh.G
    # numeric verification under both evaluations
    for text in (COSH, "class: exp\nphi: (t^2+1)/(2*t)\nmu: i\n"):
        spec = parse_spec(text)
        for s in sample_graph(spec, 50, CFG, salt=0):
            assert relative_residual(cosh.G, {"x": s["x"], "y": s["y"], "z": s["z"]}) < 1e-9


def test_multiplier_closure_on_graph(theorems):
    from addtheo.laws import multiplier_group
    from oracles import alpha_complex

    for text in (
        COSH,
        WP_LEM,
        "class: rational\nphi: u^2\n",
        "class: rational\nphi: u^3\n",
        "class: elliptic\ng2: 4\ng3: 0\nphi: p^2\n",
    ):
        spec = parse_spec(text)
        theorem = theorems(text)
        tol = class_tolerance(spec)
        for descriptor in multiplier_group(spec).multipliers:
            alpha = alpha_complex(descriptor)
            for s in sample_graph(spec, 20, CFG, salt=0):
                point = {
                    "x": phi_eval(spec, alpha * s["u"]),
                    "y": phi_eval(spec, alpha * s["v"]),
                    "z": phi_eval(spec, alpha * (s["u"] + s["v"])),
                }
                assert relative_residual(theorem.G, point) < tol


def test_graph_vanishing_500(theorems):
    theorem = theorems(COSH)
    spec = parse_spec(COSH)
    pts = sample_graph(spec, 500, CFG, salt=99)
    worst = max(
        relative_residual(theorem.G, {"x": s["x"], "y": s["y"], "z": s["z"]}) for s in pts
    )
    assert worst < 1e-9


def test_degree_law_guard_is_enforced(monkeypatch):
    # an artificial mismatch must raise, not warn, and before certification
    spec = parse_spec(WP_LEM)
    theorem = derive_addition_theorem(spec)
    assert theorem.law.predicted == theorem.law.actual[2] == 2
    monkeypatch.setattr(numeric, "sample_graph", None)  # certification would call it
    with pytest.raises(DegreeLawError, match=r"derived degree 2 does not match .* = 4 "
                       r"\(nu=2, lambda0=1\)"):
        prune(eliminate(spec), spec, CFG, DegreeReport(1, 2, 1, 4))


def test_prune_rejects_unequal_degrees_before_certification(monkeypatch):
    # the z-degree meets the law, the x-degree does not match it
    skew = parse_polynomial("x^2*y - z", ("x", "y", "z"))
    monkeypatch.setattr(derive, "graph_factor", lambda *args: skew)
    monkeypatch.setattr(numeric, "sample_graph", None)  # certification would call it
    with pytest.raises(DegreeLawError, match=r"addition theorem degrees differ: \(2, 1, 1\)"):
        prune(skew, EXP_T, CFG, EXP_T_LAW)


def test_records_are_read_only(theorems):
    theorem = theorems(COSH)
    for record, field in ((theorem.spec, "numerator"), (CFG, "tol"), (theorem, "G")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_degree_law_check_fills_in_the_law(theorems):
    spec = parse_spec(COSH)
    law = degree_report(spec)
    checked = prune(eliminate(spec), spec, CFG, law, verify_samples=50)
    assert type(checked) is derive.AdditionTheorem
    assert checked.G == theorems(COSH).G
    assert checked.law == law._replace(actual=(2, 2, 2))
    assert (law.nu, law.lambda0, law.predicted) == (2, 2, 2)
    assert checked.max_residual < CFG.tol
    assert (checked.samples, checked.seed) == (50, 0)


def test_degree_law_is_formed_before_elimination(monkeypatch):
    # u^40000 has a law whose scaling condition overflows the monomial field;
    # derive stops there and never reaches the resultants
    monkeypatch.setattr(derive, "eliminate", None)
    with pytest.raises(MonomialOverflowError, match="monomial field"):
        derive_addition_theorem(parse_spec("class: rational\nphi: u^40000\n"))


def test_reduce_f_examples():
    F = parse_polynomial("Z - X*Y", ("X", "Y", "Z"))
    assert reduce_f_to_g(F, 1, 1).to_text() == "z1*z2 - z3"
    F2 = parse_polynomial("Z - X - Y", ("X", "Y", "Z"))
    assert reduce_f_to_g(F2, 0, 0).to_text() == "z1 + z2 - z3"


def test_reduce_f_degenerate():
    F = parse_polynomial("Z - X*Y", ("X", "Y", "Z"))
    with pytest.raises(DegenerateSpecializationError):
        reduce_f_to_g(F, 0, 1)


def test_derivative_relation_golden():
    assert derivative_relation(parse_spec("class: rational\nphi: u\n")).to_text() == "d - 1"
    assert derivative_relation(parse_spec("class: exp\nphi: t\n")).to_text() == "d - x"
    rel = derivative_relation(parse_spec(WP_LEM))
    assert rel.to_text() == "4*x^3 - d^2 - 4*x"


def test_derivative_relation_finite_difference():
    rng = random.Random(23)
    for text, scale in ((WP_LEM, 1.0), ("class: exp\nphi: t\n", 1.0), ("class: rational\nphi: u^2\n", 1.0)):
        spec = parse_spec(text)
        rel = derivative_relation(spec)
        checked = 0
        while checked < 10:
            r = 0.06 + 0.15 * rng.random()
            u = r * cmath.exp(2j * cmath.pi * rng.random())
            try:
                xval = phi_eval(spec, u)
                dval = phi_derivative_numeric(spec, u)
            except Exception:
                continue
            assert relative_residual(rel, {"x": xval, "d": dval}) < 1e-5
            checked += 1


# G of every valid bundled spec and of the three factor-heavy inline specs,
# as recorded in the benchmark's golden file (read, never written here)
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
GOLDEN_G_SPECS = [
    "cos", "cosh", "exp-t", "mobius", "rational-u", "rational-u2", "rational-u3",
    "wp-generic", "wp-lemniscatic", "wp-prime", "wp-squared",
    "rational: (u^2+1)/(u^2+3)", "exp: (t^3+1)/t", "rational: u^3+u",
]


def _golden_spec_text(name):
    if ":" not in name:
        return spec_text(f"{name}.spec")
    cls, phi = name.split(":", 1)
    return f"class: {cls.strip()}\nphi: {phi.strip()}\n"


@pytest.mark.parametrize("name", GOLDEN_G_SPECS)
def test_derived_g_matches_golden(theorems, name):
    assert theorems(_golden_spec_text(name)).G.to_text() == GOLDEN["derive"][name]


# ----------------------------------------------------------------------
# exact selection mod p (docs/decisions.md section 7)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", GOLDEN_G_SPECS)
def test_golden_g_vanishes_at_exact_graph_points(name, monkeypatch):
    spec = parse_spec(_golden_spec_text(name))
    g = parse_polynomial(GOLDEN["derive"][name], ("x", "y", "z"))
    monkeypatch.setattr(numeric, "EXACT_POINTS", 50)
    prime, points = next(exact_points(spec, CFG, 101, 2, graph_point))
    assert prime == PRIMES[0]
    assert len(set(points)) == 50
    for x, y, z in points:
        assert g.evaluate_mod({"x": x, "y": y, "z": z}, prime) == 0


@pytest.mark.parametrize("name", ["wp-generic", "wp-lemniscatic", "wp-prime", "wp-squared"])
def test_spurious_factors_fail_at_the_selection_points(name):
    # these are the golden specs whose eliminant has a factor besides G
    spec = parse_spec(_golden_spec_text(name))
    g = parse_polynomial(GOLDEN["derive"][name], ("x", "y", "z"))
    prime, points = next(exact_points(spec, CFG, 101, 2, graph_point))
    assert prime == PRIMES[0]
    selection = [dict(zip("xyz", pt)) for pt in points]
    spurious = [f for f, _ in factor(eliminate(spec)) if f != g]
    assert spurious
    for f in spurious:
        assert any(f.evaluate_mod(pt, prime) for pt in selection)


def test_bad_first_prime_falls_back_to_the_next(monkeypatch):
    # phi's denominator is the constant 2^61 - 1, the first prime of the tuple
    spec = parse_spec(f"class: rational\nphi: u^2 + u/{PRIMES[0]}\n")
    assert bad_prime(spec, PRIMES[0]) and not bad_prime(spec, PRIMES[1])
    tried = []
    real = numeric.bad_prime

    def spy(spec, prime):
        bad = real(spec, prime)
        tried.append((prime, bad))
        return bad

    monkeypatch.setattr(numeric, "bad_prime", spy)
    theorem = derive_addition_theorem(spec)
    assert tried == [(PRIMES[0], True), (PRIMES[1], False)]
    assert theorem.law.actual[2] == theorem.law.predicted == 4


@pytest.mark.parametrize("text", [
    "class: rational\nphi: (u^2+3)/(u-1)\n",
    "class: exp\nphi: (t^3+2)/(t^2-5)\n",
    "class: elliptic\ng2: 2\ng3: 1\nphi: q/(p-1)\n",
    "class: elliptic\ng2: 4\ng3: 1\nphi: p^2 + q\n",
])
def test_phi_prime_matches_finite_differences(text):
    # W/D^2 at the uniformizer value of u is d(phi)/du (mu = 1 for exp)
    spec = parse_spec(text)
    w, d2 = phi_prime(spec)
    for u in (0.11 + 0.07j, -0.08 + 0.13j, 0.2 - 0.05j):
        if spec.cls is FunctionClass.ELLIPTIC:
            point = dict(zip("pq", wp_pair(spec.g2, spec.g3, u)))
        else:
            point = {spec.uniformizer[0]: u if spec.cls is FunctionClass.RATIONAL_OF_U else cmath.exp(u)}
        exact = w.evaluate_with_magnitude(point)[0] / d2.evaluate_with_magnitude(point)[0]
        assert abs(exact - phi_derivative_numeric(spec, u)) < 1e-6 * max(1.0, abs(exact))


@pytest.mark.parametrize("text", [
    "class: rational\nphi: (u+1)/(u^2+2)\n",
    "class: exp\nphi: (t^2+1)/(t-3)\n",
    "class: elliptic\ng2: 4\ng3: 0\nphi: q\n",
    "class: elliptic\ng2: 4\ng3: 1\nphi: (p+q)/(p-2)\n",
])
def test_exact_derivative_relation_matches_finite_differences(text):
    # the relation is selected on exact (phi, phi') points mod p; the finite
    # difference of the complex phi is an independent check of it
    spec = parse_spec(text)
    rel = derivative_relation(spec)
    rng = random.Random(29)
    checked = 0
    while checked < 10:
        u = (0.06 + 0.15 * rng.random()) * cmath.exp(2j * cmath.pi * rng.random())
        try:
            xval = phi_eval(spec, u)
            dval = phi_derivative_numeric(spec, u)
        except AddTheoError:
            continue
        assert relative_residual(rel, {"x": xval, "d": dval}) < 1e-5
        checked += 1


def test_graph_factor_tries_the_next_prime_then_reports_ambiguity():
    ring = ("x", "y", "z")
    x, y, z = (MPoly.var(ring, n) for n in ring)
    first, second = x - y, x + y - 2 * z
    eliminant = first * second
    # both factors vanish at (1, 1, 1); only the first at (2, 2, 5)
    tried = []

    def pairs():
        for prime in PRIMES:
            tried.append(prime)
            yield prime, [(1, 1, 1)] if prime == PRIMES[0] else [(1, 1, 1), (2, 2, 5)]

    assert derive.graph_factor(eliminant, ring, pairs(), "test factor") == first.canonicalize()
    assert tried == list(PRIMES[:2])
    with pytest.raises(PruningError, match=r"ambiguous pruning of the test factor: surviving"):
        derive.graph_factor(eliminant, ring, ((p, [(1, 1, 1)]) for p in PRIMES), "test factor")
    with pytest.raises(PruningError, match="^no test factor found$"):
        derive.graph_factor(eliminant, ring, iter(()), "test factor")
