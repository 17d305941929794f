"""Resultants, multivariate gcd, and square-free decomposition.

The resultant uses the subresultant polynomial remainder sequence, which
keeps every intermediate division exact over the polynomial ring and controls
coefficient growth.  The gcd is the heuristic integer gcd GCDHEU at nested
integer points: one int gcd of two values, expanded back into a candidate
that exact division certifies (docs/decisions.md section 5).  When no try
certifies, the gcd falls back to the same remainder sequence.
"""

from __future__ import annotations

import random
from math import gcd

from .errors import AddTheoError, ZeroPolynomialError
from .poly import MPoly, divide_exact, pseudo_rem


def resultant(p: MPoly, q: MPoly, name: str) -> MPoly:
    """Resultant of p and q with respect to the named variable.

    Both arguments must have positive degree in the variable.  The result is a
    polynomial in the remaining variables that vanishes whenever p and q share
    a root in the eliminated one.
    """
    dp = p.degree_in(name)
    dq = q.degree_in(name)
    if dp < 1 or dq < 1:
        raise AddTheoError(
            f"resultant needs positive degree in {name} "
            f"(got {max(dp, 0)} and {max(dq, 0)})"
        )
    sign = 1
    if dp < dq:
        p, q = q, p
        sign = -1 if dp * dq % 2 else 1
    S, T, h, parity = _subresultant_prs(p, q, name)
    if T.is_zero():
        return T
    out = divide_exact(T ** S.degree_in(name), h ** (S.degree_in(name) - 1))
    if out is None:
        raise AddTheoError("inexact division in subresultant sequence")
    return out * (sign * parity)


def _subresultant_prs(A: MPoly, B: MPoly, name: str):
    """The subresultant remainder sequence of A and B in name (Brown 1978;
    deg A >= deg B >= 1), run to its end.

    Returns (S, T, h, parity): S is the last element of positive degree and T
    the next one, either zero (S then divides the previous element, and its
    primitive part is the gcd) or of degree 0 (A and B are coprime); h is
    the last subresultant scale factor and parity the sign (-1)^(sum of
    dA*dB over the steps) that the resultant carries."""
    g = h = MPoly.const(A.variables, 1)
    parity = 1
    while True:
        dA, dB = A.degree_in(name), B.degree_in(name)
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            parity = -parity
        R = pseudo_rem(A, B, name)
        if R.is_zero():
            return B, R, h, parity
        A = B
        B = divide_exact(R, g * h**delta)
        if B is None:
            raise AddTheoError("inexact division in subresultant sequence")
        g = A.coeffs_in(name)[-1]
        if delta > 0:
            h = divide_exact(g**delta, h ** (delta - 1))
            if h is None:
                raise AddTheoError("inexact division in subresultant sequence")
        if B.degree_in(name) <= 0:
            return A, B, h, parity


# ----------------------------------------------------------------------
# gcd
# ----------------------------------------------------------------------


def mgcd(p: MPoly, q: MPoly) -> MPoly:
    """Canonical greatest common divisor over the rationals."""
    if p.is_zero() and q.is_zero():
        raise ZeroPolynomialError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.canonicalize()
    if q.is_zero():
        return p.canonicalize()
    p._check_same_ring(q)
    if p.is_constant() or q.is_constant():
        return MPoly.const(p.variables, 1)
    a, b = p.canonicalize(), q.canonicalize()
    g = _heuristic_gcd(a, b)
    if g is None:
        g = _prs_gcd(a, b)
    return g.canonicalize()


_HEU_TRIES = 6
_HEU_SEED = 0xC66


def _heuristic_gcd(a: MPoly, b: MPoly):
    """Gcd of two integral primitive polynomials by GCDHEU at nested integer
    points, or None when no try is certified (docs/decisions.md section 5).

    The used variables are substituted one at a time; each point is at least
    2*B + 2, where B is the largest coefficient of either image so far.  The
    integer gcd of the two values is expanded back into a candidate by
    symmetric digits, and its primitive part is the gcd when it divides both
    inputs."""
    names = [v for v in a.variables if a.uses(v) or b.uses(v)]
    limits = {v: min(a.degree_in(v), b.degree_in(v)) for v in names}
    rng = random.Random(_HEU_SEED)
    for attempt in range(_HEU_TRIES):
        fa, fb, points = a, b, []
        for v in names:
            base = 2 * int(max(fa.max_norm(), fb.max_norm())) + 2
            # each try grows the points by Char, Geddes & Gonnet's step
            xi = base * 73794**attempt // 27011**attempt + rng.randrange(base)
            fa, fb = fa.substitute({v: xi}), fb.substitute({v: xi})
            points.append(xi)
        gamma = gcd(int(fa.constant_value()), int(fb.constant_value()))
        cand = _from_digits(gamma, names, points, limits, a.variables)
        if cand is None:
            continue
        h = cand.canonicalize()
        if h.is_constant():
            return h
        if divide_exact(a, h) is not None and divide_exact(b, h) is not None:
            return h
    return None


def _from_digits(value, names, points, limits, variables):
    """The polynomial whose nested symmetric digits are value, the last
    variable first, or None when a degree would exceed its limit."""
    if not names:
        return MPoly.const(variables, value)
    name, xi = names[-1], points[-1]
    digits = []
    while value:
        if len(digits) > limits[name]:
            return None
        value, d = divmod(value, xi)
        if 2 * d > xi:
            d -= xi
            value += 1
        digits.append(d)
    coeffs = []
    for d in digits:
        c = _from_digits(d, names[:-1], points[:-1], limits, variables)
        if c is None:
            return None
        coeffs.append(c)
    return MPoly.from_coeffs(variables, name, coeffs)


def _prs_gcd(p: MPoly, q: MPoly) -> MPoly:
    """The fallback of mgcd: contents in the main variable by recursion, and
    the subresultant remainder sequence on the primitive parts."""
    name = max(p.used_variables()[-1], q.used_variables()[-1], key=p.variables.index)
    cont_p, pp_p = content_and_primitive(p, name)
    cont_q, pp_q = content_and_primitive(q, name)
    cont = mgcd(cont_p, cont_q)
    a, b = pp_p, pp_q
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    if b.degree_in(name) == 0:
        return cont
    S, T, _, _ = _subresultant_prs(a, b, name)
    return cont if T else cont * content_and_primitive(S, name)[1]


def content_and_primitive(p: MPoly, name: str):
    """Content (gcd of the coefficients in the variable) and primitive part.

    The coefficients are read sparsest first: each further one is divided
    by the content so far, and mgcd runs only when that division fails
    (docs/decisions.md section 5)."""
    if p.is_zero():
        raise ZeroPolynomialError("content of zero polynomial")
    coeffs = sorted((c for c in p.coeffs_in(name) if not c.is_zero()), key=len)
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_constant():
            break
        if divide_exact(c, cont) is None:
            cont = mgcd(cont, c)
    if cont.is_constant():
        return MPoly.const(p.variables, 1), p
    cont = cont.canonicalize()
    # cont divides every coefficient, so the division is exact
    return cont, divide_exact(p, cont)


# ----------------------------------------------------------------------
# square-free decomposition
# ----------------------------------------------------------------------


def squarefree(p: MPoly):
    """Square-free decomposition: list of (factor, multiplicity).

    The product of factor^multiplicity equals p up to a rational scalar; the
    factors are pairwise coprime, square-free, canonical, and grouped so that
    each multiplicity appears at most once.
    """
    if p.is_zero() or p.is_constant():
        raise AddTheoError("square-free decomposition needs a non-constant input")
    name = p.used_variables()[-1]
    cont, pp = content_and_primitive(p, name)
    parts = [] if cont.is_constant() else squarefree(cont)
    parts.extend(_yun(pp.canonicalize(), name))
    grouped = {}
    for f, m in parts:
        grouped[m] = grouped[m] * f if m in grouped else f
    return [(grouped[m].canonicalize(), m) for m in sorted(grouped)]


def _yun(f: MPoly, name: str):
    df = f.derivative(name)
    g = mgcd(f, df)
    if g.is_constant():
        return [(f.canonicalize(), 1)]
    c = divide_exact(f, g)
    d = divide_exact(df, g) - c.derivative(name)
    out = []
    i = 1
    while not c.is_constant():
        a = mgcd(c, d)
        if not a.is_constant():
            out.append((a, i))
        c = divide_exact(c, a)
        d = divide_exact(d, a) - c.derivative(name)
        i += 1
    return out


def squarefree_part(p: MPoly) -> MPoly:
    """Product of the distinct square-free factors, canonical."""
    acc = MPoly.const(p.variables, 1)
    for factor, _ in squarefree(p):
        acc = acc * factor
    return acc.canonicalize()
