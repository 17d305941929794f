import random
from fractions import Fraction as Q

import pytest

from addtheo.errors import AddTheoError, ZeroPolynomialError
from addtheo.poly import MPoly
from addtheo.resultants import (
    mgcd,
    resultant,
    squarefree,
    squarefree_part,
)
from oracles import sylvester_resultant


def test_resultant_linear_elimination():
    ring = ("s", "x", "y", "w", "t")
    s, x, y, w, t = (MPoly.var(ring, n) for n in ring)
    assert resultant(s - x * y, s - w * t, "s") == x * y - w * t


def test_resultant_substitution_case():
    ring = ("u", "x")
    u, x = (MPoly.var(ring, n) for n in ring)
    assert resultant(u**2 - x, u - 2, "u") == 4 - x


def test_resultant_vs_sylvester_example():
    ring = ("y", "x")
    y, x = (MPoly.var(ring, n) for n in ring)
    p = y**2 - x
    q = y**2 - 2 * x
    expected = sylvester_resultant(p, q, "y")
    assert resultant(p, q, "y") == expected
    assert expected == MPoly.var(ring, "x") ** 2


def test_resultant_degree_zero_rejected():
    ring = ("u", "x")
    u, x = (MPoly.var(ring, n) for n in ring)
    with pytest.raises(AddTheoError, match="positive degree"):
        resultant(x + 1, u - 1, "u")


def _random_poly(rng, ring, var, max_deg, max_other=2):
    terms = {}
    idx = ring.index(var)
    deg = rng.randint(1, max_deg)
    for _ in range(rng.randint(2, 5)):
        mono = [rng.randint(0, max_other) for _ in ring]
        mono[idx] = rng.randint(0, deg)
        terms[tuple(mono)] = Q(rng.randint(-5, 5))
    mono = [0] * len(ring)
    mono[idx] = deg
    terms[tuple(mono)] = Q(rng.randint(1, 5))
    return MPoly(ring, terms)


def test_resultant_matches_sylvester_randomized():
    rng = random.Random(20260808)
    ring = ("v", "a", "b")
    for _ in range(30):
        p = _random_poly(rng, ring, "v", 4)
        q = _random_poly(rng, ring, "v", 4)
        assert resultant(p, q, "v") == sylvester_resultant(p, q, "v")


def test_resultant_with_shared_monomial_and_rational_content():
    # both inputs carry a monomial in the other variables and a rational
    # content; the remainder sequence runs on them as they are
    ring = ("v", "a", "b")
    v, a, b = (MPoly.var(ring, n) for n in ring)
    p = Q(3, 2) * a**2 * b * (v**2 + a * v - b)
    q = 6 * a * b**3 * (v**3 - b * v + 2 * a)
    for f, g in ((p, q), (q, p), (p, Q(1, 4) * a * (v - a))):
        assert resultant(f, g, "v") == sylvester_resultant(f, g, "v")


def test_resultant_swap_sign():
    rng = random.Random(7)
    ring = ("v", "a")
    for _ in range(15):
        p = _random_poly(rng, ring, "v", 3)
        q = _random_poly(rng, ring, "v", 3)
        r1 = resultant(p, q, "v")
        r2 = resultant(q, p, "v")
        sign = (-1) ** (p.degree_in("v") * q.degree_in("v"))
        assert r1 == r2 * sign


def test_resultant_multiplicative():
    rng = random.Random(99)
    ring = ("v", "a")
    for _ in range(10):
        p = _random_poly(rng, ring, "v", 2)
        q = _random_poly(rng, ring, "v", 2)
        r = _random_poly(rng, ring, "v", 3)
        lhs = resultant(p * q, r, "v")
        rhs = resultant(p, r, "v") * resultant(q, r, "v")
        assert lhs == rhs


def test_gcd_examples():
    ring = ("x", "y", "z")
    x, y, z = (MPoly.var(ring, n) for n in ring)
    assert mgcd(x**2 - y**2, x - y) == (x - y).canonicalize()
    assert mgcd(x**2 - 1, MPoly.zero(ring)) == (x**2 - 1).canonicalize()
    assert mgcd((x + y) ** 2 * z, (x + y) * z**2) == ((x + y) * z).canonicalize()
    assert mgcd(x + 1, y + 1).is_constant()


def test_gcd_both_zero_rejected():
    ring = ("x",)
    with pytest.raises(ZeroPolynomialError):
        mgcd(MPoly.zero(ring), MPoly.zero(ring))


def test_gcd_random_products_share_factor():
    from addtheo.poly import divide_exact

    rng = random.Random(4)
    ring = ("v", "a")
    for _ in range(8):
        common = _random_poly(rng, ring, "v", 2)
        p = common * _random_poly(rng, ring, "v", 2)
        q = common * _random_poly(rng, ring, "v", 2)
        g = mgcd(p, q)
        # the planted common factor divides the gcd, and the gcd divides both
        assert divide_exact(g, common) is not None
        assert divide_exact(p, g) is not None
        assert divide_exact(q, g) is not None


def test_squarefree_examples():
    ring = ("x", "y", "z")
    x, y, z = (MPoly.var(ring, n) for n in ring)
    dec = squarefree((x - y) ** 2 * (x + y))
    assert sorted((f.to_text(), m) for f, m in dec) == [("y + x", 1), ("y - x", 2)]
    dec = squarefree(x * y)
    assert [(f, m) for f, m in dec] == [((x * y).canonicalize(), 1)]
    dec = squarefree((z - x * y) ** 2)
    assert dec == [((x * y - z).canonicalize(), 2)]


def test_squarefree_constant_rejected():
    ring = ("x",)
    with pytest.raises(AddTheoError, match="non-constant"):
        squarefree(MPoly.const(ring, 3))


def test_squarefree_part_product():
    ring = ("x", "y", "z")
    x, y, z = (MPoly.var(ring, n) for n in ring)
    p = (x - y) ** 3 * (z + 1) ** 2 * (x + y + z)
    part = squarefree_part(p)
    expected = ((x - y) * (z + 1) * (x + y + z)).canonicalize()
    assert part == expected
