import math
import random
import types
from datetime import timedelta
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import addtheo.factor as factor_module
from addtheo.errors import AddTheoError
from addtheo.factor import (
    _lift_factors,
    _try_factor_monic,
    factor,
    factor_univariate,
)
from addtheo.poly import MPoly
from addtheo.resultants import mgcd

from oracles import is_irreducible

RING = ("x", "y", "z")


def test_factor_module_is_not_shadowed_by_its_function():
    import addtheo.factor as module

    assert isinstance(module, types.ModuleType)
    assert module.factor is factor


def xyz():
    return (MPoly.var(RING, n) for n in RING)


def uni_factors(coeffs):
    """The factors of the polynomial in x with these coefficients (low to
    high), as sorted coefficient lists."""
    fs = factor_univariate(MPoly.from_coeffs(("x",), "x", coeffs))
    return sorted([int(c.constant_value()) for c in f.coeffs_in("x")] for f in fs)


def test_univariate_basics():
    # x^2 + x - 2 = (x - 1)(x + 2)
    assert uni_factors([Q(-2), Q(1), Q(1)]) == [[-1, 1], [2, 1]]
    # x^2 + 1 stays whole
    assert uni_factors([Q(1), Q(0), Q(1)]) == [[1, 0, 1]]
    # 6x^2 + 7x + 2 = (2x + 1)(3x + 2)
    assert uni_factors([Q(2), Q(7), Q(6)]) == [[1, 2], [2, 3]]


def test_univariate_cyclotomic_split():
    # x^6 - 1 = (x-1)(x+1)(x^2+x+1)(x^2-x+1)
    fs = uni_factors([Q(-1)] + [Q(0)] * 5 + [Q(1)])
    assert fs == [[-1, 1], [1, -1, 1], [1, 1], [1, 1, 1]]


def test_difference_of_squares():
    x, y, z = xyz()
    fs = factor(x**2 - y**2)
    assert sorted(f.to_text() for f, _ in fs) == ["y + x", "y - x"]


def test_two_factor_split():
    x, y, z = xyz()
    fs = factor((z - x * y) * (z + x * y))
    assert sorted(f.to_text() for f, _ in fs) == ["x*y + z", "x*y - z"]


def test_cosine_law_is_irreducible():
    x, y, z = xyz()
    g = x**2 + y**2 + z**2 - 2 * x * y * z - 1
    fs = factor(g)
    assert len(fs) == 1 and fs[0][1] == 1
    assert fs[0][0] == g.canonicalize()
    assert is_irreducible(g)


def test_multiplicities_and_reconstruction():
    x, y, z = xyz()
    p = (2 * x * y * z - z**2 - y**2 - x**2 + 1) * (x - y) ** 3 * (x + y - z) ** 2
    fs = factor(p)
    prod = MPoly.const(RING, 1)
    for f, m in fs:
        prod = prod * f**m
    assert prod.canonicalize() == p.canonicalize()
    assert sorted(m for _, m in fs) == [1, 2, 3]


def test_constant_rejected():
    with pytest.raises(AddTheoError):
        factor(MPoly.const(RING, 5))


def test_random_products_reconstruct():
    rng = random.Random(123)
    x, y, z = MPoly.var(RING, "x"), MPoly.var(RING, "y"), MPoly.var(RING, "z")
    gens = [x + y, x - z, y * z - 1, x * y - z, x + 1, z - 2, x * x - y]
    for trial in range(6):
        parts = rng.sample(gens, rng.randint(2, 3))
        p = MPoly.const(RING, rng.randint(1, 3))
        for part in parts:
            p = p * part ** rng.randint(1, 2)
        fs = factor(p)
        prod = MPoly.const(RING, 1)
        for f, m in fs:
            prod = prod * f**m
        assert prod.canonicalize() == p.canonicalize()
        for f, _ in fs:
            assert is_irreducible(f)


def test_quadrivariate():
    ring = ("x1", "x2", "x3", "x4")
    a, b, c, d = (MPoly.var(ring, n) for n in ring)
    fs = factor((a * b - c * d) * (a * b + c * d - 1))
    assert len(fs) == 2
    prod = MPoly.const(ring, 1)
    for f, m in fs:
        prod = prod * f**m
    assert prod.canonicalize() == ((a * b - c * d) * (a * b + c * d - 1)).canonicalize()


def test_exact_factor_set_with_repeated_factor():
    # the image made monic in the main variable has non-integral
    # coefficients, so the lift works over Q, not Z
    x, y, z = xyz()
    gens = [2 * x - 3 * y + 1, 3 * x**2 + y * z - 2, 5 * x + z**2]
    p = gens[0] * gens[1] ** 2 * gens[2]
    expected = [(g.canonicalize(), m) for g, m in zip(gens, [1, 2, 1])]
    expected.sort(key=lambda fm: fm[0].sort_key())
    assert factor(p) == expected


def test_univariate_false_candidates_rejected():
    # x^4 + 1 splits mod every prime, so every proper candidate must fail
    # the exact division
    assert uni_factors([Q(1), Q(0), Q(0), Q(0), Q(1)]) == [[1, 0, 0, 0, 1]]


X = MPoly.var(("x",), "x")
# pairwise coprime irreducibles in canonical form: linear a*x + b with
# gcd(a, b) = 1 (distinct roots), and quadratics with no rational root
POOL = [a * X + b for a in (1, 2, 3) for b in range(-3, 4) if math.gcd(a, b) == 1]
POOL += [X**2 + k for k in (1, 2, 3, 5)] + [X**2 + X + 1, X**2 - 2, 2 * X**2 + 3]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True),
    st.fractions(-100, 100, max_denominator=100).filter(lambda c: c != 0),
)
def test_univariate_factors_match_the_product(expected, scalar):
    # a quadratic that splits mod the chosen prime makes false candidates,
    # which only the exact division in the recombination rejects
    product = MPoly.const(("x",), scalar)
    for f in expected:
        product = product * f
    assert set(factor_univariate(product)) == set(expected)


def test_lift_recovers_the_true_factors():
    # images at the origin: z^2 + 1 and z; the quadratic one needs a
    # cofactor from a full extended Euclid step
    x, y, z = xyz()
    f1 = z**2 + Q(1, 2) * y * z + x + 1
    f2 = z + Q(3, 2) * x - y
    shifted = f1 * f2
    prec = shifted.others_degree("z")
    assert _lift_factors(shifted, [z**2 + 1, z], "z", prec) == [f1, f2]


class _AlwaysOne:
    """A point stream source whose every random draw is 1."""

    def randint(self, lo, hi):
        return 1


def test_multivariate_recombination_needs_a_pair():
    # at y = 1 the image (x^2 - 1)(x^2 - 4) splits into four linear factors,
    # and each true factor is the product of two of them
    ring = ("y", "x")
    y, x = (MPoly.var(ring, n) for n in ring)
    work = (x**2 - y) * (x**2 - 4 * y)
    found = _try_factor_monic(work, "x", ["y"], _AlwaysOne())
    assert sorted(f.to_text() for f in found) == ["x^2 - 4*y", "x^2 - y"]


class _Scripted:
    """A point stream source that draws the given values in order and no
    more."""

    def __init__(self, values):
        self.values = list(values)

    def randint(self, lo, hi):
        return self.values.pop(0)


def test_irreducible_image_after_a_split_one_needs_no_lift(monkeypatch):
    # the image x^2 - 1 at the origin splits, x^2 - 2 at y = 1 does not, and
    # that proves x^2 - y - 1 irreducible without a lift
    def no_lift(*args):
        raise AssertionError("lifted an irreducible polynomial")

    monkeypatch.setattr(factor_module, "_lift_factors", no_lift)
    ring = ("y", "x")
    y, x = (MPoly.var(ring, n) for n in ring)
    work = x**2 - y - 1
    rng = _Scripted([1])
    assert _try_factor_monic(work, "x", ["y"], rng) == [work]
    assert rng.values == []


def test_lift_runs_once_at_the_image_with_fewest_factors(monkeypatch):
    # the origin's image is not square-free; at y = 1, 2, 3 the images split
    # into 4, 2 and 2 factors, so the one lift runs at y = 2, the earliest of
    # the two with fewest factors, and no fourth point is drawn
    lifts = []

    def recording_lift(shifted, base_factors, main, prec):
        lifts.append(sorted(f.to_text() for f in base_factors))
        return _lift_factors(shifted, base_factors, main, prec)

    monkeypatch.setattr(factor_module, "_lift_factors", recording_lift)
    ring = ("y", "x")
    y, x = (MPoly.var(ring, n) for n in ring)
    work = (x**2 - y) * (x**2 - 4 * y)
    found = _try_factor_monic(work, "x", ["y"], _Scripted([1, 2, 3]))
    assert lifts == [["x^2 - 2", "x^2 - 8"]]
    assert sorted(f.to_text() for f in found) == ["x^2 - 4*y", "x^2 - y"]


def test_irreducible_input_skips_the_undo_substitution(monkeypatch):
    # the leading coefficient y forces a shear; the irreducible image proves
    # the input irreducible, and undoing the shear would only rebuild it
    undone = []
    real = factor_module._shear_to_constant_lc

    def recording(g, main, others, attempt):
        work, undo = real(g, main, others, attempt)
        if work is None:
            return work, undo

        def counted(f):
            undone.append(f)
            return undo(f)

        return work, counted

    monkeypatch.setattr(factor_module, "_shear_to_constant_lc", recording)
    ring = ("y", "x")
    y, x = (MPoly.var(ring, n) for n in ring)
    g = (y * x**2 - y - 1).canonicalize()
    assert factor_module._factor_squarefree(g) == [g]
    assert undone == []


@st.composite
def linear_factors(draw):
    """1-3 distinct canonical polynomials a*v + b in 2-3 variables, with v the
    last variable and a, b coprime in the others: each is primitive and
    linear in v, so irreducible."""
    ring = ("x", "y", "z")[: draw(st.integers(2, 3))]
    others = ring[:-1]
    v = MPoly.var(ring, ring[-1])
    coeff = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(others)).map(lambda e: e + (0,)),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        min_size=1,
        max_size=3,
    ).map(lambda terms: MPoly(ring, terms))
    out = set()
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(coeff), draw(coeff)
        if mgcd(a, b).is_constant():
            out.add((a * v + b).canonicalize())
    assume(out)
    return out


@settings(max_examples=60, deadline=timedelta(seconds=20))
@given(linear_factors(), st.integers(1, 5))
def test_planted_linear_factors_come_back(planted, scalar):
    product = MPoly.const(next(iter(planted)).variables, scalar)
    for f in planted:
        product = product * f
    assert factor(product) == sorted(((f, 1) for f in planted), key=lambda fm: fm[0].sort_key())
