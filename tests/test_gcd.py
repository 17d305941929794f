"""The heuristic gcd of `mgcd` against the subresultant oracle in oracles.py."""

import os
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from addtheo import resultants
from addtheo.laws import derive_addition_theorem
from addtheo.exprparse import parse_polynomial
from addtheo.funcspec import parse_spec
from addtheo.poly import MPoly, divide_exact
from addtheo.resultants import content_and_primitive, mgcd, squarefree

from conftest import ROOT, SPECS
from oracles import content_fold, prs_gcd

RINGS = (("x",), ("x", "y"), ("x", "y", "z"))
FACTOR_HEAVY = (
    "class: rational\nphi: (u^2+1)/(u^2+3)\n",
    "class: exp\nphi: (t^3+1)/t\n",
    "class: rational\nphi: u^3+u\n",
)

# G of rational: (u^2+1)/(u^2+3).  G and dG/dz are coprime, but their
# Kronecker images (x -> t, y -> t^3, z -> t^9) share a factor, so one
# univariate image cannot show it.
G_U2 = (
    "27*x^2*y^2*z^2 - 42*x*y^2*z^2 - 42*x^2*y*z^2 - 42*x^2*y^2*z + 11*y^2*z^2"
    " + 68*x*y*z^2 + 11*x^2*z^2 + 68*x*y^2*z + 68*x^2*y*z + 11*x^2*y^2"
    " - 18*y*z^2 - 18*x*z^2 - 18*y^2*z - 120*x*y*z - 18*x^2*z - 18*x*y^2"
    " - 18*x^2*y + 3*z^2 + 36*y*z + 36*x*z + 3*y^2 + 36*x*y + 3*x^2 - 10*z"
    " - 10*y - 10*x + 3"
)
# the partner of (y - x)^4*(x*y - 1)^4 in the square-free decomposition of
# the wp-squared eliminant; the gcd is (y - x)^4
WP_SQUARED_PARTNER = (
    "-4*x^3*y^8 + 12*x^4*y^7 - 8*x^5*y^6 - 8*x^6*y^5 + 12*x^7*y^4 - 4*x^8*y^3"
    " + 112*x^3*y^7 - 448*x^4*y^6 + 672*x^5*y^5 - 448*x^6*y^4 + 112*x^7*y^3"
    " - 124*x^2*y^7 + 372*x^3*y^6 - 248*x^4*y^5 - 248*x^5*y^4 + 372*x^6*y^3"
    " - 124*x^7*y^2 + 288*x^2*y^6 - 1152*x^3*y^5 + 1728*x^4*y^4 - 1152*x^5*y^3"
    " + 288*x^6*y^2 - 124*x*y^6 + 372*x^2*y^5 - 248*x^3*y^4 - 248*x^4*y^3"
    " + 372*x^5*y^2 - 124*x^6*y + 112*x*y^5 - 448*x^2*y^4 + 672*x^3*y^3"
    " - 448*x^4*y^2 + 112*x^5*y - 4*y^5 + 12*x*y^4 - 8*x^2*y^3 - 8*x^3*y^2"
    " + 12*x^4*y - 4*x^5"
)


def _poly(text):
    return parse_polynomial(text, ("x", "y", "z"))


def kronecker_pairs():
    g = _poly(G_U2)
    x, y, _ = (MPoly.var(g.variables, n) for n in g.variables)
    shared = (y - x) ** 4 * (x * y - 1) ** 4
    return [
        (g, g.derivative("z"), MPoly.const(g.variables, 1)),
        (shared, _poly(WP_SQUARED_PARTNER), ((y - x) ** 4).canonicalize()),
    ]


def polys(ring, max_terms=4, max_exp=3):
    mono = st.tuples(*[st.integers(0, max_exp) for _ in ring])
    coeff = st.builds(Q, st.integers(-9, 9), st.integers(1, 3))
    return st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
        lambda terms: MPoly(ring, terms)
    )


@st.composite
def gcd_inputs(draw):
    ring = draw(st.sampled_from(RINGS))
    a, b = draw(polys(ring)), draw(polys(ring))
    shared = draw(st.booleans())
    g = draw(polys(ring, max_terms=3, max_exp=2)) if shared else MPoly.const(ring, 1)
    return a * g, b * g


@settings(max_examples=80, deadline=None)
@given(gcd_inputs())
def test_mgcd_matches_the_prs_oracle(pair):
    p, q = pair
    if p.is_zero() and q.is_zero():
        return
    g = mgcd(p, q)
    assert g == prs_gcd(p, q)  # both canonical: equal up to a unit
    assert divide_exact(p, g) is not None and divide_exact(q, g) is not None


@st.composite
def planted_contents(draw):
    """A polynomial in x, y, z as a content in x, y times 1-4 coefficients
    of the powers of z; the content may be constant."""
    ring = ("x", "y", "z")
    bivariate = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)),
        st.integers(-5, 5).filter(bool), min_size=1, max_size=3,
    ).map(lambda terms: MPoly(ring, terms))
    z = MPoly.var(ring, "z")
    coeffs = draw(st.lists(bivariate, min_size=1, max_size=4))
    body = sum((c * z**i for i, c in enumerate(coeffs)), MPoly.zero(ring))
    return draw(bivariate) * body


@settings(max_examples=80, deadline=None)
@given(planted_contents())
def test_content_matches_the_left_to_right_fold(p):
    # the sparsest-first trial division must find the gcd the fold finds,
    # also when the sparsest coefficient is not the content
    assert content_and_primitive(p, "z") == content_fold(p, "z")


@pytest.mark.parametrize("case", range(2), ids=["coprime-u2", "wp-squared"])
def test_pairs_that_defeat_kronecker_substitution(case):
    p, q, expected = kronecker_pairs()[case]
    heuristic = resultants._heuristic_gcd(p.canonicalize(), q.canonicalize())
    assert heuristic is not None and heuristic.canonicalize() == expected
    assert mgcd(p, q) == expected == prs_gcd(p, q)


def test_zero_tries_fall_back_to_the_same_gcd(monkeypatch):
    rng = random.Random(6)
    ring = ("x", "y", "z")
    x, y, z = (MPoly.var(ring, n) for n in ring)
    cases = [(p, q) for p, q, _ in kronecker_pairs()]
    cases.append(((x - y) ** 2 * (z + 1), (x - y) * (z + 1) ** 3 * (x + 2)))
    for _ in range(6):
        common = z + rng.randint(-3, 3) * x * y + rng.randint(-3, 3) * x + rng.randint(1, 3)
        cases.append((common * (x * z - rng.randint(1, 4)), common * (y**2 + rng.randint(1, 4))))
    expected = [mgcd(p, q) for p, q in cases]
    sf = [squarefree(p * q) for p, q in cases[:3]]
    monkeypatch.setattr(resultants, "_HEU_TRIES", 0)
    assert [mgcd(p, q) for p, q in cases] == expected
    assert [squarefree(p * q) for p, q in cases[:3]] == sf


def test_no_gcd_falls_back_while_deriving(monkeypatch):
    fallbacks = []
    real = resultants._prs_gcd

    def recording(a, b):
        fallbacks.append((a, b))
        return real(a, b)

    monkeypatch.setattr(resultants, "_prs_gcd", recording)
    texts = [p.read_text(encoding="utf-8") for p in sorted(SPECS.glob("*.spec")) if p.stem != "broken"]
    for text in texts + list(FACTOR_HEAVY):
        derive_addition_theorem(parse_spec(text))
    assert len(texts) == 11
    assert fallbacks == []


# G of rational: (u^4+1)/(u^2+3) (degree 8 in each variable), recorded from
# `addtheo derive` and checked with `addtheo verify` at seeds 1 and 2
# (residuals below 2e-15).  The square-free decomposition of its eliminant
# did not finish in 300 s with the subresultant gcd.
STRESS_G = (
    "27*x^2*y^4*z^8 - 54*x^3*y^3*z^8 + 27*x^4*y^2*z^8 - 108*x^2*y^5*z^7"
    " + 108*x^3*y^4*z^7 + 108*x^4*y^3*z^7 - 108*x^5*y^2*z^7"
    " + 162*x^2*y^6*z^6 - 54*x^3*y^5*z^6 - 216*x^4*y^4*z^6 - 54*x^5*y^3*z^6"
    " + 162*x^6*y^2*z^6 - 108*x^2*y^7*z^5 - 54*x^3*y^6*z^5"
    " + 162*x^4*y^5*z^5 + 162*x^5*y^4*z^5 - 54*x^6*y^3*z^5"
    " - 108*x^7*y^2*z^5 + 27*x^2*y^8*z^4 + 108*x^3*y^7*z^4"
    " - 216*x^4*y^6*z^4 + 162*x^5*y^5*z^4 - 216*x^6*y^4*z^4"
    " + 108*x^7*y^3*z^4 + 27*x^8*y^2*z^4 - 54*x^3*y^8*z^3 + 108*x^4*y^7*z^3"
    " - 54*x^5*y^6*z^3 - 54*x^6*y^5*z^3 + 108*x^7*y^4*z^3 - 54*x^8*y^3*z^3"
    " + 27*x^4*y^8*z^2 - 108*x^5*y^7*z^2 + 162*x^6*y^6*z^2"
    " - 108*x^7*y^5*z^2 + 27*x^8*y^4*z^2 + 426*x*y^4*z^8 - 264*x^2*y^3*z^8"
    " - 264*x^3*y^2*z^8 + 426*x^4*y*z^8 - 1704*x*y^5*z^7 - 60*x^2*y^4*z^7"
    " + 936*x^3*y^3*z^7 - 60*x^4*y^2*z^7 - 1704*x^5*y*z^7 + 2556*x*y^6*z^6"
    " + 324*x^2*y^5*z^6 + 684*x^3*y^4*z^6 + 684*x^4*y^3*z^6"
    " + 324*x^5*y^2*z^6 + 2556*x^6*y*z^6 - 1704*x*y^7*z^5 + 324*x^2*y^6*z^5"
    " - 4008*x^3*y^5*z^5 + 1704*x^4*y^4*z^5 - 4008*x^5*y^3*z^5"
    " + 324*x^6*y^2*z^5 - 1704*x^7*y*z^5 + 426*x*y^8*z^4 - 60*x^2*y^7*z^4"
    " + 684*x^3*y^6*z^4 + 1704*x^4*y^5*z^4 + 1704*x^5*y^4*z^4"
    " + 684*x^6*y^3*z^4 - 60*x^7*y^2*z^4 + 426*x^8*y*z^4 - 264*x^2*y^8*z^3"
    " + 936*x^3*y^7*z^3 + 684*x^4*y^6*z^3 - 4008*x^5*y^5*z^3"
    " + 684*x^6*y^4*z^3 + 936*x^7*y^3*z^3 - 264*x^8*y^2*z^3"
    " - 264*x^3*y^8*z^2 - 60*x^4*y^7*z^2 + 324*x^5*y^6*z^2"
    " + 324*x^6*y^5*z^2 - 60*x^7*y^4*z^2 - 264*x^8*y^3*z^2 + 426*x^4*y^8*z"
    " - 1704*x^5*y^7*z + 2556*x^6*y^6*z - 1704*x^7*y^5*z + 426*x^8*y^4*z"
    " - 145*y^4*z^8 + 9094*x*y^3*z^8 - 6459*x^2*y^2*z^8 + 9094*x^3*y*z^8"
    " - 145*x^4*z^8 + 580*y^5*z^7 - 26992*x*y^4*z^7 - 16356*x^2*y^3*z^7"
    " - 16356*x^3*y^2*z^7 - 26992*x^4*y*z^7 + 580*x^5*z^7 - 870*y^6*z^6"
    " + 17898*x*y^5*z^6 + 43044*x^2*y^4*z^6 + 83706*x^3*y^3*z^6"
    " + 43044*x^4*y^2*z^6 + 17898*x^5*y*z^6 - 870*x^6*z^6 + 580*y^7*z^5"
    " + 17898*x*y^6*z^5 - 60474*x^2*y^5*z^5 - 66022*x^3*y^4*z^5"
    " - 66022*x^4*y^3*z^5 - 60474*x^5*y^2*z^5 + 17898*x^6*y*z^5"
    " + 580*x^7*z^5 - 145*y^8*z^4 - 26992*x*y^7*z^4 + 43044*x^2*y^6*z^4"
    " - 66022*x^3*y^5*z^4 + 185685*x^4*y^4*z^4 - 66022*x^5*y^3*z^4"
    " + 43044*x^6*y^2*z^4 - 26992*x^7*y*z^4 - 145*x^8*z^4 + 9094*x*y^8*z^3"
    " - 16356*x^2*y^7*z^3 + 83706*x^3*y^6*z^3 - 66022*x^4*y^5*z^3"
    " - 66022*x^5*y^4*z^3 + 83706*x^6*y^3*z^3 - 16356*x^7*y^2*z^3"
    " + 9094*x^8*y*z^3 - 6459*x^2*y^8*z^2 - 16356*x^3*y^7*z^2"
    " + 43044*x^4*y^6*z^2 - 60474*x^5*y^5*z^2 + 43044*x^6*y^4*z^2"
    " - 16356*x^7*y^3*z^2 - 6459*x^8*y^2*z^2 + 9094*x^3*y^8*z"
    " - 26992*x^4*y^7*z + 17898*x^5*y^6*z + 17898*x^6*y^5*z"
    " - 26992*x^7*y^4*z + 9094*x^8*y^3*z - 145*x^4*y^8 + 580*x^5*y^7"
    " - 870*x^6*y^6 + 580*x^7*y^5 - 145*x^8*y^4 - 3000*y^3*z^8"
    " + 53058*x*y^2*z^8 + 53058*x^2*y*z^8 - 3000*x^3*z^8 + 9000*y^4*z^7"
    " - 28056*x*y^3*z^7 - 564000*x^2*y^2*z^7 - 28056*x^3*y*z^7"
    " + 9000*x^4*z^7 - 6000*y^5*z^6 - 337836*x*y^4*z^6 + 663408*x^2*y^3*z^6"
    " + 663408*x^3*y^2*z^6 - 337836*x^4*y*z^6 - 6000*x^5*z^6 - 6000*y^6*z^5"
    " + 639444*x*y^5*z^5 - 654972*x^2*y^4*z^5 + 448884*x^3*y^3*z^5"
    " - 654972*x^4*y^2*z^5 + 639444*x^5*y*z^5 - 6000*x^6*z^5 + 9000*y^7*z^4"
    " - 337836*x*y^6*z^4 - 654972*x^2*y^5*z^4 + 37812*x^3*y^4*z^4"
    " + 37812*x^4*y^3*z^4 - 654972*x^5*y^2*z^4 - 337836*x^6*y*z^4"
    " + 9000*x^7*z^4 - 3000*y^8*z^3 - 28056*x*y^7*z^3 + 663408*x^2*y^6*z^3"
    " + 448884*x^3*y^5*z^3 + 37812*x^4*y^4*z^3 + 448884*x^5*y^3*z^3"
    " + 663408*x^6*y^2*z^3 - 28056*x^7*y*z^3 - 3000*x^8*z^3"
    " + 53058*x*y^8*z^2 - 564000*x^2*y^7*z^2 + 663408*x^3*y^6*z^2"
    " - 654972*x^4*y^5*z^2 - 654972*x^5*y^4*z^2 + 663408*x^6*y^3*z^2"
    " - 564000*x^7*y^2*z^2 + 53058*x^8*y*z^2 + 53058*x^2*y^8*z"
    " - 28056*x^3*y^7*z - 337836*x^4*y^6*z + 639444*x^5*y^5*z"
    " - 337836*x^6*y^4*z - 28056*x^7*y^3*z + 53058*x^8*y^2*z - 3000*x^3*y^8"
    " + 9000*x^4*y^7 - 6000*x^5*y^6 - 6000*x^6*y^5 + 9000*x^7*y^4"
    " - 3000*x^8*y^3 - 17370*y^2*z^8 + 17910*x*y*z^8 - 17370*x^2*z^8"
    " + 13600*y^3*z^7 + 859652*x*y^2*z^7 + 859652*x^2*y*z^7 + 13600*x^3*z^7"
    " + 101640*y^4*z^6 - 2441688*x*y^3*z^6 - 7780816*x^2*y^2*z^6"
    " - 2441688*x^3*y*z^6 + 101640*x^4*z^6 - 198060*y^5*z^5"
    " + 1895248*x*y^4*z^5 + 9085076*x^2*y^3*z^5 + 9085076*x^3*y^2*z^5"
    " + 1895248*x^4*y*z^5 - 198060*x^5*z^5 + 101640*y^6*z^4"
    " + 1895248*x*y^5*z^4 - 22956786*x^2*y^4*z^4 + 9378796*x^3*y^3*z^4"
    " - 22956786*x^4*y^2*z^4 + 1895248*x^5*y*z^4 + 101640*x^6*z^4"
    " + 13600*y^7*z^3 - 2441688*x*y^6*z^3 + 9085076*x^2*y^5*z^3"
    " + 9378796*x^3*y^4*z^3 + 9378796*x^4*y^3*z^3 + 9085076*x^5*y^2*z^3"
    " - 2441688*x^6*y*z^3 + 13600*x^7*z^3 - 17370*y^8*z^2"
    " + 859652*x*y^7*z^2 - 7780816*x^2*y^6*z^2 + 9085076*x^3*y^5*z^2"
    " - 22956786*x^4*y^4*z^2 + 9085076*x^5*y^3*z^2 - 7780816*x^6*y^2*z^2"
    " + 859652*x^7*y*z^2 - 17370*x^8*z^2 + 17910*x*y^8*z + 859652*x^2*y^7*z"
    " - 2441688*x^3*y^6*z + 1895248*x^4*y^5*z + 1895248*x^5*y^4*z"
    " - 2441688*x^6*y^3*z + 859652*x^7*y^2*z + 17910*x^8*y*z"
    " - 17370*x^2*y^8 + 13600*x^3*y^7 + 101640*x^4*y^6 - 198060*x^5*y^5"
    " + 101640*x^6*y^4 + 13600*x^7*y^3 - 17370*x^8*y^2 - 16200*y*z^8"
    " - 16200*x*z^8 - 203040*y^2*z^7 + 43080*x*y*z^7 - 203040*x^2*z^7"
    " + 700320*y^3*z^6 + 4211040*x*y^2*z^6 + 4211040*x^2*y*z^6"
    " + 700320*x^3*z^6 - 536040*y^4*z^5 - 10696416*x*y^3*z^5"
    " - 28947744*x^2*y^2*z^5 - 10696416*x^3*y*z^5 - 536040*x^4*z^5"
    " - 536040*y^5*z^4 + 24613932*x*y^4*z^4 - 46596264*x^2*y^3*z^4"
    " - 46596264*x^3*y^2*z^4 + 24613932*x^4*y*z^4 - 536040*x^5*z^4"
    " + 700320*y^6*z^3 - 10696416*x*y^5*z^3 - 46596264*x^2*y^4*z^3"
    " + 199660176*x^3*y^3*z^3 - 46596264*x^4*y^2*z^3 - 10696416*x^5*y*z^3"
    " + 700320*x^6*z^3 - 203040*y^7*z^2 + 4211040*x*y^6*z^2"
    " - 28947744*x^2*y^5*z^2 - 46596264*x^3*y^4*z^2 - 46596264*x^4*y^3*z^2"
    " - 28947744*x^5*y^2*z^2 + 4211040*x^6*y*z^2 - 203040*x^7*z^2"
    " - 16200*y^8*z + 43080*x*y^7*z + 4211040*x^2*y^6*z"
    " - 10696416*x^3*y^5*z + 24613932*x^4*y^4*z - 10696416*x^5*y^3*z"
    " + 4211040*x^6*y^2*z + 43080*x^7*y*z - 16200*x^8*z - 16200*x*y^8"
    " - 203040*x^2*y^7 + 700320*x^3*y^6 - 536040*x^4*y^5 - 536040*x^5*y^4"
    " + 700320*x^6*y^3 - 203040*x^7*y^2 - 16200*x^8*y - 5625*z^8"
    " - 36900*y*z^7 - 36900*x*z^7 - 720230*y^2*z^6 - 2469930*x*y*z^6"
    " - 720230*x^2*z^6 + 2728860*y^3*z^5 + 17035778*x*y^2*z^5"
    " + 17035778*x^2*y*z^5 + 2728860*x^3*z^5 - 5839955*y^4*z^4"
    " + 27963190*x*y^3*z^4 + 5802359*x^2*y^2*z^4 + 27963190*x^3*y*z^4"
    " - 5839955*x^4*z^4 + 2728860*y^5*z^3 + 27963190*x*y^4*z^3"
    " - 288514340*x^2*y^3*z^3 - 288514340*x^3*y^2*z^3 + 27963190*x^4*y*z^3"
    " + 2728860*x^5*z^3 - 720230*y^6*z^2 + 17035778*x*y^5*z^2"
    " + 5802359*x^2*y^4*z^2 - 288514340*x^3*y^3*z^2 + 5802359*x^4*y^2*z^2"
    " + 17035778*x^5*y*z^2 - 720230*x^6*z^2 - 36900*y^7*z - 2469930*x*y^6*z"
    " + 17035778*x^2*y^5*z + 27963190*x^3*y^4*z + 27963190*x^4*y^3*z"
    " + 17035778*x^5*y^2*z - 2469930*x^6*y*z - 36900*x^7*z - 5625*y^8"
    " - 36900*x*y^7 - 720230*x^2*y^6 + 2728860*x^3*y^5 - 5839955*x^4*y^4"
    " + 2728860*x^5*y^3 - 720230*x^6*y^2 - 36900*x^7*y - 5625*x^8"
    " + 51000*z^7 + 397200*y*z^6 + 397200*x*z^6 - 2732640*y^2*z^5"
    " - 5868060*x*y*z^5 - 2732640*x^2*z^5 - 4512960*y^3*z^4"
    " + 16686834*x*y^2*z^4 + 16686834*x^2*y*z^4 - 4512960*x^3*z^4"
    " - 4512960*y^4*z^3 + 116386080*x*y^3*z^3 + 577002732*x^2*y^2*z^3"
    " + 116386080*x^3*y*z^3 - 4512960*x^4*z^3 - 2732640*y^5*z^2"
    " + 16686834*x*y^4*z^2 + 577002732*x^2*y^3*z^2 + 577002732*x^3*y^2*z^2"
    " + 16686834*x^4*y*z^2 - 2732640*x^5*z^2 + 397200*y^6*z"
    " - 5868060*x*y^5*z + 16686834*x^2*y^4*z + 116386080*x^3*y^3*z"
    " + 16686834*x^4*y^2*z - 5868060*x^5*y*z + 397200*x^6*z + 51000*y^7"
    " + 397200*x*y^6 - 2732640*x^2*y^5 - 4512960*x^3*y^4 - 4512960*x^4*y^3"
    " - 2732640*x^5*y^2 + 397200*x^6*y + 51000*x^7 - 98500*z^6"
    " + 477100*y*z^5 + 477100*x*z^5 - 4199850*y^2*z^4 - 27495210*x*y*z^4"
    " - 4199850*x^2*z^4 - 14291120*y^3*z^3 - 278349408*x*y^2*z^3"
    " - 278349408*x^2*y*z^3 - 14291120*x^3*z^3 - 4199850*y^4*z^2"
    " - 278349408*x*y^3*z^2 - 862444986*x^2*y^2*z^2 - 278349408*x^3*y*z^2"
    " - 4199850*x^4*z^2 + 477100*y^5*z - 27495210*x*y^4*z"
    " - 278349408*x^2*y^3*z - 278349408*x^3*y^2*z - 27495210*x^4*y*z"
    " + 477100*x^5*z - 98500*y^6 + 477100*x*y^5 - 4199850*x^2*y^4"
    " - 14291120*x^3*y^3 - 4199850*x^4*y^2 + 477100*x^5*y - 98500*x^6"
    " + 63000*z^5 + 5928000*y*z^4 + 5928000*x*z^4 + 39918480*y^2*z^3"
    " + 144074400*x*y*z^3 + 39918480*x^2*z^3 + 39918480*y^3*z^2"
    " + 380846940*x*y^2*z^2 + 380846940*x^2*y*z^2 + 39918480*x^3*z^2"
    " + 5928000*y^4*z + 144074400*x*y^3*z + 380846940*x^2*y^2*z"
    " + 144074400*x^3*y*z + 5928000*x^4*z + 63000*y^5 + 5928000*x*y^4"
    " + 39918480*x^2*y^3 + 39918480*x^3*y^2 + 5928000*x^4*y + 63000*x^5"
    " - 1270750*z^4 - 21694700*y*z^3 - 21694700*x*z^3 - 52450050*y^2*z^2"
    " - 164422150*x*y*z^2 - 52450050*x^2*z^2 - 21694700*y^3*z"
    " - 164422150*x*y^2*z - 164422150*x^2*y*z - 21694700*x^3*z"
    " - 1270750*y^4 - 21694700*x*y^3 - 52450050*x^2*y^2 - 21694700*x^3*y"
    " - 1270750*x^4 + 3369000*z^3 + 22518000*y*z^2 + 22518000*x*z^2"
    " + 22518000*y^2*z + 65992500*x*y*z + 22518000*x^2*z + 3369000*y^3"
    " + 22518000*x*y^2 + 22518000*x^2*y + 3369000*x^3 - 3092500*z^2"
    " - 8697500*y*z - 8697500*x*z - 3092500*y^2 - 8697500*x*y - 3092500*x^2"
    " + 1125000*z + 1125000*y + 1125000*x - 140625"
)


def test_stress_spec_derives_within_30_seconds(tmp_path):
    spec = tmp_path / "stress.spec"
    spec.write_text("class: rational\nphi: (u^4+1)/(u^2+3)\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "addtheo.cli", "derive", str(spec)],
        capture_output=True, text=True, cwd=str(ROOT), env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == STRESS_G + "\n"
