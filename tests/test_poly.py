import cmath
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from addtheo.errors import MonomialOverflowError, ZeroPolynomialError
from addtheo.poly import FIELD_BITS, MPoly, divide_exact, pseudo_rem, rem_monic
from oracles import evaluate_reference, grlex_key, substitute_reference, term_magnitude_reference

V = ("x", "y", "z")


def xyz():
    return MPoly.var(V, "x"), MPoly.var(V, "y"), MPoly.var(V, "z")


def test_canonicalize_sign_and_content():
    x, y, _ = xyz()
    # later-listed variable is greater, so the leading term of -2x + 2y is 2y
    assert (-2 * x + 2 * y).canonicalize().to_text() == "y - x"
    assert (MPoly.const(V, Q(1, 2)) * x**2).canonicalize().to_text() == "x^2"


def test_canonicalize_graded_lex_order():
    x, y, z = xyz()
    p = x**2 + y**2 + z**2 - 2 * x * y * z - 1
    assert p.canonicalize().to_text() == "2*x*y*z - z^2 - y^2 - x^2 + 1"


def test_canonicalize_zero_rejected():
    with pytest.raises(ZeroPolynomialError, match="no canonical form"):
        MPoly.zero(V).canonicalize()


def small_polys(variables=V, max_terms=5, max_exp=3):
    mono = st.tuples(*[st.integers(0, max_exp) for _ in variables])
    coeff = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))
    return st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
        lambda terms: MPoly(variables, terms)
    )


@settings(max_examples=60, deadline=None)
@given(small_polys())
def test_canonicalize_idempotent(p):
    if p.is_zero():
        return
    once = p.canonicalize()
    assert once.canonicalize() == once


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_mul_commutes_and_eval_homomorphism(p, q):
    assert p * q == q * p
    point = {"x": 0.7 + 0.2j, "y": -0.4 + 0.9j, "z": 1.1 - 0.3j}
    lhs = (p * q).evaluate_with_magnitude(point)[0]
    rhs = p.evaluate_with_magnitude(point)[0] * q.evaluate_with_magnitude(point)[0]
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_eval_examples():
    x, y, z = xyz()
    assert (x * y - z).evaluate_with_magnitude({"x": 2, "y": 3, "z": 6})[0] == 0
    assert abs(MPoly.var(("x",), "x").__pow__(2).evaluate_with_magnitude({"x": 1j})[0] + 1) < 1e-15
    g = 2 * x * y * z - z**2 - y**2 - x**2 + 1
    value, _ = g.evaluate_with_magnitude({"x": cmath.cos(0.3), "y": cmath.cos(0.4), "z": cmath.cos(0.7)})
    assert abs(value) < 1e-12


def test_eval_missing_assignment():
    x, y, _ = xyz()
    with pytest.raises(KeyError):
        (x * y).evaluate_with_magnitude({"x": 1.0})


def test_text_form_coefficients():
    x, y, z = xyz()
    p = 2 * x * y * z - z**2 - y**2 - x**2 + 1
    assert p.to_text() == "2*x*y*z - z^2 - y^2 - x^2 + 1"
    assert (x * y - z).to_text() == "x*y - z"
    assert MPoly.const(V, Q(-3)).to_text() == "-3"
    assert (MPoly.const(V, Q(1, 2)) * x).to_text() == "1/2*x"


def test_grlex_key_ordering():
    # exponent tuples over (x, y, z): z beats y beats x at equal degree
    assert grlex_key((0, 0, 2)) > grlex_key((0, 2, 0)) > grlex_key((2, 0, 0))
    assert grlex_key((1, 1, 1)) > grlex_key((0, 0, 2))


def test_divide_exact_roundtrip():
    x, y, z = xyz()
    p = (x + y) * (z - x * y)
    assert divide_exact(p, x + y) == z - x * y
    assert divide_exact(p, z + 1) is None


def test_pseudo_rem_degree_drops():
    x, y, _ = xyz()
    r = pseudo_rem(x**3 + y, x**2 - y, "x")
    assert r.degree_in("x") < 2


def test_rem_monic_substitutes():
    ring = ("p", "q")
    p = MPoly.var(ring, "p")
    q = MPoly.var(ring, "q")
    curve = q**2 - 4 * p**3 + 4 * p
    reduced = rem_monic(q**4, curve, "q")
    assert reduced == (4 * p**3 - 4 * p) ** 2


def test_rem_monic_rejects_a_modulus_that_is_not_monic():
    x, y, _ = xyz()
    for modulus in (2 * x**2 + 1, y * x + 1, MPoly.zero(V)):
        with pytest.raises(ValueError, match="not monic in x"):
            rem_monic(x**3 + y, modulus, "x")


def test_embed_restrict_rename():
    x, y, _ = xyz()
    p = x * y + 1
    big = p.embed(("w", "x", "y", "z"))
    assert big.degree_in("w") == 0
    assert big.restrict(("x", "y")) == MPoly.var(("x", "y"), "x") * MPoly.var(("x", "y"), "y") + 1
    renamed = p.rename({"x": "a"})
    assert renamed.variables == ("a", "y", "z")


def test_substitute_is_simultaneous():
    x, y, z = xyz()
    p = x**2 * y + 3 * y - z
    # a swap, and values that read the other substituted variable
    assert p.substitute({"x": y, "y": x}) == y**2 * x + 3 * x - z
    assert p.substitute({"x": x + y, "y": x}) == (x + y) ** 2 * x + 3 * x - z
    assert p.substitute({"y": Q(1, 2), "z": 2}) == Q(1, 2) * x**2 + Q(3, 2) - 2
    ring = ("w",) + V
    w = MPoly.var(ring, "w")
    assert p.substitute({"z": w * x.embed(ring)}) == (p + z).embed(ring) - w * x.embed(ring)
    with pytest.raises(ValueError, match="missing from target ring"):
        p.substitute({"x": MPoly.var(("x", "y"), "y")})


SUB_VARS = ("a", "b", "c", "d")
rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def substitutions(draw):
    """A polynomial in 1-4 variables and a simultaneous assignment to some of
    them: rationals, affine maps, a permutation of the chosen names, small
    polynomials, over the same ring or one with an extra variable."""
    names = SUB_VARS[: draw(st.integers(1, 4))]
    p = draw(small_polys(names, max_terms=6))
    target = names + ("e",) if draw(st.booleans()) else names
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    perm = dict(zip(chosen, draw(st.permutations(chosen))))
    assignment = {}
    for name in chosen:
        kind = draw(st.sampled_from(["rational", "affine", "permutation", "polynomial"]))
        if kind == "rational":
            assignment[name] = draw(rationals)
        elif kind == "affine":
            var = MPoly.var(target, draw(st.sampled_from(target)))
            assignment[name] = draw(rationals) * var + draw(rationals)
        elif kind == "permutation":
            assignment[name] = MPoly.var(target, perm[name])
        else:
            assignment[name] = draw(small_polys(target, max_terms=3, max_exp=2))
    return p, assignment


@settings(max_examples=150, deadline=None)
@given(substitutions())
def test_substitute_matches_the_term_by_term_reference(case):
    p, assignment = case
    assert p.substitute(assignment) == substitute_reference(p, assignment)


numbers = st.one_of(st.integers(-40, 40), rationals)


@st.composite
def number_substitutions(draw):
    """A sparse polynomial in 1-4 variables with exponents up to 3000 and
    integer or rational values, zero and negative ones included, for 1-3 of
    its variables."""
    names = SUB_VARS[: draw(st.integers(1, 4))]
    p = draw(small_polys(names, max_terms=5, max_exp=3000))
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    return p, {name: draw(numbers) for name in chosen}


@st.composite
def mixed_substitutions(draw):
    """Numbers for some variables and polynomials for others, where each
    polynomial value reads a variable that also gets a number, in a drawn
    order."""
    names = SUB_VARS[: draw(st.integers(2, 4))]
    p = draw(small_polys(names, max_terms=6))
    numbered = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names) - 1, unique=True))
    rest = [name for name in names if name not in numbered]
    assignment = {name: draw(numbers) for name in numbered}
    for name in draw(st.lists(st.sampled_from(rest), min_size=1, unique=True)):
        reads = MPoly.var(names, draw(st.sampled_from(numbered)))
        assignment[name] = reads + draw(small_polys(names, max_terms=3, max_exp=2))
    return p, dict(draw(st.permutations(list(assignment.items()))))


@settings(max_examples=60, deadline=None)
@given(st.one_of(number_substitutions(), mixed_substitutions()))
def test_substitute_numbers_match_the_reference(case):
    # sparse exponents far above 1000: only the powers that occur are built;
    # a polynomial value keeps the variables that get numbers as themselves
    p, assignment = case
    assert p.substitute(assignment) == substitute_reference(p, assignment)


# ----------------------------------------------------------------------
# kernel properties: every operation agrees with exact Fraction evaluation
# ----------------------------------------------------------------------

points = st.fixed_dictionaries({v: rationals for v in V})
term_dicts = st.dictionaries(
    st.tuples(*[st.integers(0, 3) for _ in V]), rationals, min_size=1, max_size=5
)


def exact(terms, point):
    """Exact value of a {exponent tuple: coefficient} dict at a point."""
    total = Q(0)
    for mono, c in terms.items():
        term = Q(c)
        for v, e in zip(V, mono):
            term *= point[v] ** e
        total += term
    return total


def ev(p, point):
    return exact(dict(p.items()), point)


@settings(max_examples=60, deadline=None)
@given(term_dicts)
def test_items_round_trip(terms):
    expected = {m: Q(c) for m, c in terms.items() if c}
    p = MPoly(V, terms)
    assert dict(p.items()) == expected
    assert len(p) == len(expected)


@settings(max_examples=60, deadline=None)
@given(term_dicts, term_dicts, points, st.integers(0, 3))
def test_ring_operations_match_exact_values(tp, tq, point, n):
    p, q = MPoly(V, tp), MPoly(V, tq)
    a, b = exact(tp, point), exact(tq, point)
    assert ev(p + q, point) == a + b
    assert ev(p - q, point) == a - b
    assert ev(p * q, point) == a * b
    assert ev(p**n, point) == a**n
    assert ev(Q(2, 3) * p - 1, point) == Q(2, 3) * a - 1


@settings(max_examples=60, deadline=None)
@given(term_dicts, points, st.sampled_from(V))
def test_derivative_matches_exact_values(tp, point, name):
    i = V.index(name)
    formal = {}
    for mono, c in tp.items():
        if mono[i]:
            dm = mono[:i] + (mono[i] - 1,) + mono[i + 1 :]
            formal[dm] = formal.get(dm, 0) + Q(c) * mono[i]
    assert ev(MPoly(V, tp).derivative(name), point) == exact(formal, point)


@settings(max_examples=60, deadline=None)
@given(term_dicts, term_dicts, points)
def test_divide_exact_matches_exact_values(tp, tq, point):
    p, q = MPoly(V, tp), MPoly(V, tq)
    if q.is_zero():
        return
    quot = divide_exact(p * q, q)
    assert quot == p
    assert ev(quot, point) * ev(q, point) == ev(p * q, point)
    if not q.is_constant():
        # p*q + 1 is a multiple of q only when q divides 1
        assert divide_exact(p * q + 1, q) is None


def test_divide_exact_rejects_an_inexact_leading_coefficient():
    x, y, _ = xyz()
    # every monomial divides, but 3*y^2 over 2*y leaves a rational quotient
    # term that does not cancel the x*y term: (3y^2 + xy)/(2y + x) is no
    # polynomial
    assert divide_exact(3 * y**2 + x * y, 2 * y + x) is None
    assert divide_exact(3 * y**2 + x * y, MPoly.const(V, 2)) == Q(3, 2) * y**2 + Q(1, 2) * x * y


@settings(max_examples=60, deadline=None)
@given(term_dicts, term_dicts, points, st.sampled_from(V))
def test_pseudo_rem_matches_exact_values(tp, tq, point, name):
    p, q = MPoly(V, tp), MPoly(V, tq)
    dq = q.degree_in(name)
    if dq < 1:
        return
    r = pseudo_rem(p, q, name)
    assert r.degree_in(name) < dq
    if p.degree_in(name) < dq:
        assert r == p
        return
    scale = q.coeffs_in(name)[-1] ** (p.degree_in(name) - dq + 1)
    quot = divide_exact(scale * p - r, q)
    assert quot is not None
    assert ev(scale, point) * ev(p, point) - ev(r, point) == ev(q, point) * ev(quot, point)


@settings(max_examples=60, deadline=None)
@given(term_dicts, st.lists(rationals, min_size=1, max_size=3), points, st.sampled_from(V))
def test_rem_monic_matches_exact_values(tp, lower, point, name):
    p = MPoly(V, tp)
    modulus = MPoly.from_coeffs(V, name, lower + [1])
    r = rem_monic(p, modulus, name)
    assert r.degree_in(name) < len(lower)
    quot = divide_exact(p - r, modulus)
    assert quot is not None
    assert ev(p, point) - ev(r, point) == ev(modulus, point) * ev(quot, point)


@settings(max_examples=60, deadline=None)
@given(term_dicts, points, st.sampled_from(V))
def test_coeffs_in_from_coeffs_match_exact_values(tp, point, name):
    p = MPoly(V, tp)
    coeffs = p.coeffs_in(name)
    assert all(not c.uses(name) for c in coeffs)
    assert sum(ev(c, point) * point[name] ** k for k, c in enumerate(coeffs)) == ev(p, point)
    assert MPoly.from_coeffs(V, name, coeffs) == p


# to_text() and sort_key() of these polynomials are recorded literals; they
# fix the printed form and the tie-break order of every derivation
FIXED = [
    ({(0, 0, 0): Q(1)}, "1", (0, 1, (((0, 0, 0), 1, 1),))),
    ({(0, 0, 0): Q(-3, 4)}, "-3/4", (0, 1, (((0, 0, 0), -3, 4),))),
    (
        {(2, 0, 0): Q(1, 2), (0, 1, 1): Q(-3), (0, 0, 0): Q(7, 3)},
        "-3*y*z + 1/2*x^2 + 7/3",
        (2, 3, (((0, 0, 0), 7, 3), ((2, 0, 0), 1, 2), ((0, 1, 1), -3, 1))),
    ),
    (
        {(1, 1, 1): 2, (0, 0, 2): -1, (0, 2, 0): -1, (2, 0, 0): -1, (0, 0, 0): 1},
        "2*x*y*z - z^2 - y^2 - x^2 + 1",
        (3, 5, (((0, 0, 0), 1, 1), ((2, 0, 0), -1, 1), ((0, 2, 0), -1, 1),
                ((0, 0, 2), -1, 1), ((1, 1, 1), 2, 1))),
    ),
    (
        {(3, 0, 1): Q(-5, 6), (1, 2, 0): Q(5, 4), (0, 0, 4): Q(10, 4)},
        "5/2*z^4 - 5/6*x^3*z + 5/4*x*y^2",
        (4, 3, (((1, 2, 0), 5, 4), ((3, 0, 1), -5, 6), ((0, 0, 4), 5, 2))),
    ),
    ({(1, 0, 0): 1, (0, 0, 1): -1}, "-z + x", (1, 2, (((1, 0, 0), 1, 1), ((0, 0, 1), -1, 1)))),
]


@pytest.mark.parametrize("terms,text,key", FIXED)
def test_text_and_sort_key_literals(terms, text, key):
    p = MPoly(V, terms)
    assert p.to_text() == text
    assert p.sort_key() == key


def test_equal_polynomials_share_one_representation():
    x, y, _ = xyz()
    half = MPoly.const(V, Q(1, 2))
    assert (half * x) * 2 == x
    assert hash((half * x) * 2) == hash(x)
    assert (half * x + half * y) - half * y == half * x


def test_degree_overflow_raises_typed_error():
    x = MPoly.var(V, "x")
    half = x ** (2 ** (FIELD_BITS - 1))
    assert half.total_degree() == 2 ** (FIELD_BITS - 1)
    with pytest.raises(MonomialOverflowError):
        half * half
    with pytest.raises(MonomialOverflowError):
        MPoly(V, {(2**FIELD_BITS, 0, 0): 1})


complex_points = st.fixed_dictionaries(
    {v: st.complex_numbers(min_magnitude=0.05, max_magnitude=4, allow_nan=False) for v in V}
)


@settings(max_examples=60, deadline=None)
@given(term_dicts, st.lists(complex_points, min_size=1, max_size=4))
def test_float_evaluation_is_bit_identical_to_the_term_loop(terms, pts):
    # one polynomial, several points: the evaluation plan is built once and
    # reused, and every value must equal the term-by-term loop exactly
    p = MPoly(V, terms)
    for pt in pts:
        value, magnitude = p.evaluate_with_magnitude(pt)
        assert value == evaluate_reference(p, pt)
        assert magnitude == term_magnitude_reference(p, pt)


def test_coefficients_past_the_float_range():
    # 10^400 has no float: the exact evaluation never reads the float
    # columns, and in the float one its term has an infinite magnitude
    x, y, z = xyz()
    p = 10**400 * x * y - z + MPoly.const(V, Q(3, 7))
    prime = 2**61 - 1
    point = {"x": 5, "y": 11, "z": 2}
    expected = (10**400 * 55 - 2) * 7 + 3
    assert p.evaluate_mod(point, prime) == expected * pow(7, -1, prime) % prime
    for q in (p, -p):
        assert q.evaluate_with_magnitude({"x": 1.0, "y": 1.0, "z": 1.0})[1] == cmath.inf
