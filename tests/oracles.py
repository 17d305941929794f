"""Independent oracles that the tests check the package against.

None of this is used by the package itself: the Sylvester determinant is the
resultant cross-check, the subresultant remainder sequence with its own
content recursion is the gcd oracle, the left-to-right mgcd fold over the
coefficients is the reference for resultants.content_and_primitive, the
term-by-term float evaluation is the reference for
MPoly.evaluate_with_magnitude, the grlex sort key and the finite difference
of phi are the references for the term order and for derivatives, the term-by-term
product of powers is the reference for MPoly.substitute, the eager fold,
which eliminates every symbol from every relation, is the reference for
derive.fold_eliminate, and the exact count of the preimages of a seeded
value is the reference for funcspec.order.  The last three are test
predicates over the package's results: the complex value of a root-of-unity
descriptor, irreducibility by factoring, and rational expressibility by the
degree of G in z.
"""

import cmath
import random
from fractions import Fraction

from addtheo.derive import _monic, _pivot_eliminant, _pivot_key
from addtheo.errors import AddTheoError, DegenerateEliminationError
from addtheo.factor import factor
from addtheo.funcspec import FunctionClass, curve_polynomial
from addtheo.laws import derive_addition_theorem
from addtheo.numeric import phi_eval
from addtheo.poly import MPoly, divide_exact, pseudo_rem
from addtheo.resultants import mgcd, resultant, squarefree_part


def grlex_key(mono):
    """Sort key implementing graded lex with the later variable greater."""
    return (sum(mono), mono[::-1])


def phi_derivative_numeric(spec, u: complex, h: float = 1e-5) -> complex:
    """Central finite difference, for independent derivative checks."""
    return (phi_eval(spec, u + h) - phi_eval(spec, u - h)) / (2 * h)


def evaluate_reference(p: MPoly, point) -> complex:
    """The value of MPoly.evaluate_with_magnitude term by term: descending
    grlex order, each coefficient as a correctly rounded float, powers
    multiplied in variable order."""
    total = 0j
    for mono, c in sorted(p.items(), key=lambda t: grlex_key(t[0]), reverse=True):
        val = complex(c.numerator / c.denominator)
        for v, e in zip(p.variables, mono):
            if e:
                val *= complex(point[v]) ** e
        total += val
    return total


def term_magnitude_reference(p: MPoly, point) -> float:
    """The magnitude of MPoly.evaluate_with_magnitude term by term, from the
    reduced coefficients."""
    best = 0.0
    for mono, c in p.items():
        val = abs(float(c.numerator) / float(c.denominator))
        for v, e in zip(p.variables, mono):
            if e:
                val *= abs(complex(point[v])) ** e
        best = max(best, val)
    return best


def substitute_reference(p: MPoly, assignment) -> MPoly:
    """MPoly.substitute term by term: each term expanded as its coefficient
    times a product of powers of the values, all values read at once."""
    target = None
    for v in assignment.values():
        if isinstance(v, MPoly):
            target = v.variables
            break
    if target is None:
        target = p.variables
    values = {}
    for name, val in assignment.items():
        values[name] = val if isinstance(val, MPoly) else MPoly.const(target, val)
    for v in p.variables:
        if v not in values:
            values[v] = MPoly.var(target, v)
    total = MPoly.zero(target)
    for mono, c in p.items():
        prod = MPoly.const(target, c)
        for v, e in zip(p.variables, mono):
            if e:
                prod = prod * values[v] ** e
        total = total + prod
    return total


def eager_fold_eliminate(relations, elim_order) -> MPoly:
    """derive.fold_eliminate with every symbol but the last eliminated from
    every relation before the last step, which keeps the cheapest pair's
    result and raises on a degenerate one."""
    *steps, last = elim_order
    rels = list(relations)
    for sym in steps:
        involved = [r for r in rels if r.uses(sym)]
        rest = [r for r in rels if not r.uses(sym)]
        if not involved:
            continue
        pivot = min(involved, key=_pivot_key(sym))
        monic_pivot = _monic(pivot, sym)
        new = []
        for r in involved:
            if r is pivot:
                continue
            res = _pivot_eliminant(r, pivot, monic_pivot, sym)
            if res is not None:
                new.append(res)
        rels = list(dict.fromkeys(rest + new))
    rels = sorted((r for r in rels if not r.is_constant()), key=_pivot_key(last))
    if rels and not rels[0].uses(last):
        return rels[0]
    if len(rels) > 1:
        pivot, monic_pivot = rels[0], _monic(rels[0], last)
        for r in rels[1:]:
            res = _pivot_eliminant(r, pivot, monic_pivot, last)
            if res is not None:
                return res
    raise DegenerateEliminationError("elimination consumed every relation")


def preimage_count(spec, seed=20260808) -> int:
    """Exact count of the distinct preimages of a seeded random rational c0.

    On the curve, a common zero of N and D is a root of N - c*D for every c
    but no preimage (phi is 0/0 there), so its p-coordinate is divided out
    through the gcd with the resultant at a second seeded value c1.  At a
    critical value c0 of phi the count falls below the order.
    """
    rng = random.Random(seed)
    c0, c1 = (Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(2))
    a = spec.numerator - c0 * spec.denominator
    if spec.cls is FunctionClass.ELLIPTIC:
        if a.degree_in("q") <= 0:
            # each root p0 carries the two curve points (p0, +-q0)
            return 2 * _distinct_roots(a, "p")
        curve = curve_polynomial(spec.g2, spec.g3)
        a = resultant(a, curve, "q")
        if a.is_constant():
            return 0
        roots = squarefree_part(a)
        shared = mgcd(roots, resultant(spec.numerator - c1 * spec.denominator, curve, "q"))
        return roots.degree_in("p") - shared.degree_in("p")
    return _distinct_roots(a, spec.uniformizer[0])


def _distinct_roots(p: MPoly, name: str) -> int:
    return 0 if p.is_constant() else squarefree_part(p).degree_in(name)


# ----------------------------------------------------------------------
# resultant oracle
# ----------------------------------------------------------------------


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
# gcd oracle
# ----------------------------------------------------------------------


def prs_gcd(p: MPoly, q: MPoly) -> MPoly:
    """Canonical gcd over the rationals by content recursion in the main
    variable and the subresultant remainder sequence, without mgcd."""
    if p.is_zero():
        return q.canonicalize()
    if q.is_zero():
        return p.canonicalize()
    if p.is_constant() or q.is_constant():
        return MPoly.const(p.variables, 1)
    name = next(v for v in reversed(p.variables) if p.uses(v) or q.uses(v))
    cont_p, a = _content_and_primitive(p, name)
    cont_q, b = _content_and_primitive(q, name)
    cont = prs_gcd(cont_p, cont_q)
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    if b.degree_in(name) == 0:
        return cont
    return (cont * _prs_gcd_primitive(a, b, name)).canonicalize()


def content_fold(p: MPoly, name: str):
    """resultants.content_and_primitive by an mgcd fold over the nonzero
    coefficients in the variable, lowest power first."""
    coeffs = [c for c in p.coeffs_in(name) if not c.is_zero()]
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_constant():
            break
        cont = mgcd(cont, c)
    cont = cont.canonicalize() if not cont.is_constant() else MPoly.const(p.variables, 1)
    return cont, divide_exact(p, cont)


def _content_and_primitive(p: MPoly, name: str):
    cont = MPoly.zero(p.variables)
    for c in p.coeffs_in(name):
        if not c.is_zero():
            cont = prs_gcd(cont, c)
    return cont, divide_exact(p, cont)


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
            _, out = _content_and_primitive(b, name)
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


def alpha_complex(descriptor) -> complex:
    """exp(2*pi*i*j/k) for the root-of-unity descriptor (k, j)."""
    k, j = descriptor
    return cmath.exp(2j * cmath.pi * j / k)


def is_irreducible(p: MPoly) -> bool:
    fs = factor(p)
    return len(fs) == 1 and fs[0][1] == 1


def check_rational_expressibility(spec) -> bool:
    """True iff phi(u+v) is a rational function of phi(u), phi(v) alone,
    i.e. the derived theorem is linear in the sum slot; its degree law
    nu^2/lambda0 = 1 forces nu = 1."""
    return derive_addition_theorem(spec).law.actual[2] == 1
