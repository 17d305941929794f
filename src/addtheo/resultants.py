"""Resultants, multivariate gcd, and square-free decomposition.

The resultant and the gcd both use the subresultant polynomial remainder
sequence, which keeps every intermediate division exact over the polynomial
ring and controls coefficient growth.  A Sylvester-determinant evaluation
(fraction-free Bareiss elimination) is provided as an independent cross-check
for small degrees.  The gcd first tries to certify coprimality from exact
univariate images at random rational points, which settles the common case
without any remainder sequence at all.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import AddTheoError, ZeroPolynomialError
from .poly import MPoly, divide_exact, pseudo_rem
from .unipoly import q_gcd, q_trim

Q = Fraction


def _strip_trivial(p: MPoly, name: str):
    """Pull out the rational content and any common monomial in the other
    variables.  Returns (rational, monomial exponent tuple, stripped poly)."""
    idx = p.variables.index(name)
    mins = [min(col) for col in zip(*(m for m, _ in p.items()))]
    mins[idx] = 0
    mono = MPoly(p.variables, {tuple(mins): 1})
    return p.content(), tuple(mins), divide_exact(p.primitive(), mono)


def _mono_pow(variables, mono, k) -> MPoly:
    return MPoly(variables, {tuple(e * k for e in mono): 1})


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
    ra, ma, A = _strip_trivial(p, name)
    rb, mb, B = _strip_trivial(q, name)
    core = _subresultant_res(A, B, name)
    scale = ra**dq * rb**dp
    out = core * scale
    if any(ma) or any(mb):
        out = out * _mono_pow(p.variables, ma, dq) * _mono_pow(p.variables, mb, dp)
    return out


def _subresultant_res(A: MPoly, B: MPoly, name: str) -> MPoly:
    variables = A.variables
    one = MPoly.const(variables, 1)
    dA = A.degree_in(name)
    dB = B.degree_in(name)
    sign = 1
    if dA < dB:
        A, B, dA, dB = B, A, dB, dA
        if (dA * dB) % 2 == 1:
            sign = -sign
    g = one
    h = one
    while True:
        dA = A.degree_in(name)
        dB = B.degree_in(name)
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            sign = -sign
        R = pseudo_rem(A, B, name)
        if R.is_zero():
            return MPoly.zero(variables)
        A = B
        denom = g * h**delta
        B = divide_exact(R, denom)
        if B is None:
            raise AddTheoError("inexact division in subresultant sequence")
        g = A.coeffs_in(name)[-1]
        if delta > 0:
            h = divide_exact(g**delta, h ** (delta - 1))
            if h is None:
                raise AddTheoError("inexact division in subresultant sequence")
        if B.degree_in(name) <= 0:
            break
    dA = A.degree_in(name)
    lcB = B  # degree 0 in the variable
    num = lcB**dA
    if dA >= 1:
        final = divide_exact(num, h ** (dA - 1))
        if final is None:
            raise AddTheoError("inexact division in subresultant sequence")
    else:
        final = num
    return final * sign


def sylvester_matrix(p: MPoly, q: MPoly, name: str):
    """Sylvester matrix of p, q in the named variable (entries are MPoly)."""
    dp = p.degree_in(name)
    dq = q.degree_in(name)
    if dp < 1 or dq < 1:
        raise AddTheoError("sylvester matrix needs positive degrees")
    zero = MPoly.zero(p.variables)
    pc = p.coeffs_in(name)[::-1]
    qc = q.coeffs_in(name)[::-1]
    n = dp + dq
    rows = []
    for i in range(dq):
        rows.append([zero] * i + pc + [zero] * (n - dp - 1 - i))
    for i in range(dp):
        rows.append([zero] * i + qc + [zero] * (n - dq - 1 - i))
    return rows


def bareiss_det(matrix):
    """Fraction-free determinant of a square matrix of MPoly entries."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    variables = m[0][0].variables
    one = MPoly.const(variables, 1)
    sign = 1
    prev = one
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if not m[r][k].is_zero()), None)
        if pivot_row is None:
            return MPoly.zero(variables)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                quotient = divide_exact(num, prev)
                if quotient is None:
                    raise AddTheoError("inexact division in Bareiss elimination")
                m[i][j] = quotient
            m[i][k] = MPoly.zero(variables)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_resultant(p: MPoly, q: MPoly, name: str) -> MPoly:
    """Resultant evaluated as the Sylvester determinant (cross-check oracle)."""
    return bareiss_det(sylvester_matrix(p, q, name))


# ----------------------------------------------------------------------
# gcd
# ----------------------------------------------------------------------


def _main_variable(p: MPoly, q: MPoly):
    """Greatest variable occurring in either polynomial, or None."""
    for i in range(len(p.variables) - 1, -1, -1):
        name = p.variables[i]
        if p.uses(name) or q.uses(name):
            return name
    return None


def _uni_image(p: MPoly, point, name):
    """Exact univariate image of p with the other variables at the point."""
    idx = p.variables.index(name)
    out = [Q(0)] * (p.degree_in(name) + 1)
    for mono, coeff in p.items():
        val = coeff
        for i, e in enumerate(mono):
            if e and i != idx:
                val *= point[p.variables[i]] ** e
        out[mono[idx]] += val
    return q_trim(out)


def _certified_coprime(a: MPoly, b: MPoly, name: str) -> bool:
    """True when exact degree-preserving univariate images are coprime,
    which certifies that the primitive parts share no factor."""
    other = [
        v for v in a.variables if v != name and (a.uses(v) or b.uses(v))
    ]
    if not other:
        return False
    rng = random.Random(0xA1FA)
    for _ in range(4):
        point = {v: Q(rng.randint(-9, 9)) for v in other}
        ia = _uni_image(a, point, name)
        ib = _uni_image(b, point, name)
        if len(ia) - 1 != a.degree_in(name) or len(ib) - 1 != b.degree_in(name):
            continue
        if len(q_gcd(ia, ib)) == 1:
            return True
    return False


def _prs_gcd_primitive(a: MPoly, b: MPoly, name: str) -> MPoly:
    """Gcd of two polynomials primitive in the main variable, via the
    subresultant remainder sequence (deg a >= deg b >= 1 on entry)."""
    variables = a.variables
    one = MPoly.const(variables, 1)
    g = h = one
    while True:
        delta = a.degree_in(name) - b.degree_in(name)
        r = pseudo_rem(a, b, name)
        if r.is_zero():
            _, out = content_and_primitive(b, name)
            return out
        if r.degree_in(name) == 0:
            return one
        a = b
        b = divide_exact(r, g * h**delta)
        if b is None:
            raise AddTheoError("inexact division in gcd remainder sequence")
        g = a.coeffs_in(name)[-1]
        if delta > 0:
            h = divide_exact(g**delta, h ** (delta - 1))
            if h is None:
                raise AddTheoError("inexact division in gcd remainder sequence")


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
    name = _main_variable(p, q)
    cont_p, pp_p = content_and_primitive(p, name)
    cont_q, pp_q = content_and_primitive(q, name)
    cont = mgcd(cont_p, cont_q)
    a, b = pp_p, pp_q
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    if b.degree_in(name) == 0 or _certified_coprime(a, b, name):
        g = MPoly.const(p.variables, 1)
    else:
        g = _prs_gcd_primitive(a, b, name)
    return (cont * g).canonicalize()


def content_and_primitive(p: MPoly, name: str):
    """Content (gcd of the coefficients in the variable) and primitive part."""
    if p.is_zero():
        raise ZeroPolynomialError("content of zero polynomial")
    coeffs = [c for c in p.coeffs_in(name) if not c.is_zero()]
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_constant():
            break
        cont = mgcd(cont, c)
    cont = cont.canonicalize() if not cont.is_constant() else MPoly.const(p.variables, 1)
    pp = divide_exact(p, cont)
    if pp is None:
        raise AddTheoError("content division failed")
    return cont, pp


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
    name = _main_variable(p, p)
    cont, pp = content_and_primitive(p, name)
    parts = [] if cont.is_constant() else squarefree(cont)
    parts.extend(_yun(pp.primitive(), name))
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
