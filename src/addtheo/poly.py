"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial over a fixed, ordered tuple of variable names is a dict from
packed monomials to nonzero ``int`` coefficients plus one positive ``int``
common denominator ``den``, kept normalised so that ``gcd(den, all
coefficients) == 1``: every integral polynomial has ``den == 1``, and equal
polynomials have equal dicts.

A monomial packs into one int of ``FIELD_BITS``-bit fields: the total degree
in the top field, then the exponent of the last variable down to that of the
first in the lowest.  The term order everywhere is graded lexicographic with
the later-listed variable greater (total degree first, ties broken by the
exponent of the last variable, then the second to last, and so on), which is
plain int order on packed monomials; the monomial of a product is the sum of
the two ints.  No exponent exceeds the total degree, so a product is safe when
its total degree stays below ``2**FIELD_BITS``; one that would not raises
``MonomialOverflowError`` instead of carrying into the next field.
``docs/decisions.md`` §4 gives the layout and the exact-division argument.

Outside this module a polynomial is read through ``items()``, which yields
``(exponent tuple, Fraction)`` pairs, and ``len()``.  Canonical form means
integer coefficients with content one and a positive leading coefficient.
Values are immutable once built; every operation returns a new polynomial.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, inf, lcm

from .errors import MonomialOverflowError, ZeroPolynomialError

Q = Fraction

FIELD_BITS = 16
_MASK = (1 << FIELD_BITS) - 1
_DEGREE_LIMIT = 1 << FIELD_BITS


def _check_degree(degree):
    if degree >= _DEGREE_LIMIT:
        raise MonomialOverflowError(
            f"total degree {degree} does not fit a {FIELD_BITS}-bit monomial field"
        )


def _pack(mono) -> int:
    key = sum(mono)
    _check_degree(key)
    for e in reversed(mono):
        key = (key << FIELD_BITS) | e
    return key


def _unpack(key, n):
    return tuple((key >> s) & _MASK for s in range(0, n * FIELD_BITS, FIELD_BITS))


def _var_key(n, i) -> int:
    """Packed monomial of the i-th of n variables."""
    return (1 << (n * FIELD_BITS)) | (1 << (i * FIELD_BITS))


def _ratio(value):
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"coefficient must be rational, got {type(value).__name__}")


def _normalise(terms, den):
    """Divide packed terms over den by gcd(den, coefficients)."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
    return terms, den


def _guard_product(n, a, b):
    """Raise unless the product of two nonempty packed term dicts fits."""
    top = n * FIELD_BITS
    _check_degree((max(a) >> top) + (max(b) >> top))


class MPoly:
    __slots__ = ("variables", "terms", "den", "_plan")

    def __init__(self, variables, terms=None):
        """Build from a dict {exponent tuple: int or Fraction}."""
        self.variables = tuple(variables)
        n = len(self.variables)
        given = []
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != n:
                raise ValueError("exponent tuple does not match variables")
            if any(e < 0 for e in mono):
                raise ValueError("negative exponent")
            given.append((_pack(mono), _ratio(coeff)))
        den = lcm(*(d for _, (_, d) in given))
        packed = {}
        for key, (num, d) in given:
            packed[key] = packed.get(key, 0) + num * (den // d)
        self.terms, self.den = _normalise({m: c for m, c in packed.items() if c}, den)

    @classmethod
    def _new(cls, variables, terms, den=1) -> "MPoly":
        """Wrap packed terms over den, dividing out gcd(den, coefficients)."""
        p = object.__new__(cls)
        p.variables = variables
        p.terms, p.den = _normalise(terms, den)
        return p

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MPoly":
        return cls._new(tuple(variables), {})

    @classmethod
    def const(cls, variables, value) -> "MPoly":
        num, den = _ratio(value)
        return cls._new(tuple(variables), {0: num} if num else {}, den if num else 1)

    @classmethod
    def var(cls, variables, name) -> "MPoly":
        variables = tuple(variables)
        return cls._new(variables, {_var_key(len(variables), variables.index(name)): 1})

    # ------------------------------------------------------------------
    # predicates and views
    # ------------------------------------------------------------------

    def _shift(self, name) -> int:
        return self.variables.index(name) * FIELD_BITS

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def is_one(self) -> bool:
        return self.den == 1 and self.terms == {0: 1}

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Q(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Q(self.terms[0], self.den)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(self.terms) >> (len(self.variables) * FIELD_BITS)

    def degree_in(self, name) -> int:
        if not self.terms:
            return -1
        s = self._shift(name)
        return max((m >> s) & _MASK for m in self.terms)

    def others_degree(self, name) -> int:
        """Largest total degree in the variables other than `name`."""
        if not self.terms:
            return -1
        top, s = len(self.variables) * FIELD_BITS, self._shift(name)
        return max((m >> top) - ((m >> s) & _MASK) for m in self.terms)

    def uses(self, name) -> bool:
        s = self._shift(name)
        return any((m >> s) & _MASK for m in self.terms)

    def used_variables(self):
        occurring = 0
        for m in self.terms:
            occurring |= m
        return tuple(
            v for i, v in enumerate(self.variables)
            if (occurring >> (i * FIELD_BITS)) & _MASK
        )

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        return Q(self.terms[max(self.terms)], self.den)

    def items(self):
        """The terms as (exponent tuple, Fraction coefficient) pairs."""
        n, den = len(self.variables), self.den
        for m, c in self.terms.items():
            yield _unpack(m, n), Q(c, den)

    def __len__(self):
        return len(self.terms)

    def sort_key(self):
        """Deterministic total-order key on polynomials (for tie breaks)."""
        n, den = len(self.variables), self.den
        out = []
        for m in sorted(self.terms):
            c = self.terms[m]
            g = gcd(c, den)
            out.append((_unpack(m, n), c // g, den // g))
        return (self.total_degree(), len(self.terms), tuple(out))

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.variables == other.variables
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, self.den, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if self.is_zero():
            return "MPoly<0>"
        return f"MPoly<{self.to_text()}>"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _check_same_ring(self, other):
        if self.variables != other.variables:
            raise ValueError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def _combine(self, other, sign):
        """self + sign*other for sign in (1, -1)."""
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.variables, other)
        self._check_same_ring(other)
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, sign * (den // other.den)
        res = dict(self.terms) if ka == 1 else {m: c * ka for m, c in self.terms.items()}
        get = res.get
        for m, c in other.terms.items():
            s = get(m, 0) + c * kb
            if s:
                res[m] = s
            else:
                del res[m]
        return MPoly._new(self.variables, res, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._new(self.variables, {m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = _ratio(other)
            if not num:
                return MPoly.zero(self.variables)
            terms = self.terms if num == 1 else {m: k * num for m, k in self.terms.items()}
            return MPoly._new(self.variables, terms, self.den * den)
        self._check_same_ring(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return MPoly.zero(self.variables)
        if len(a) < len(b):
            a, b = b, a
        _guard_product(len(self.variables), a, b)
        b = list(b.items())
        res = {}
        get = res.get
        for m1, c1 in a.items():
            for m2, c2 in b:
                m = m1 + m2
                res[m] = get(m, 0) + c1 * c2
        return MPoly._new(
            self.variables, {m: c for m, c in res.items() if c}, self.den * other.den
        )

    __rmul__ = __mul__

    def mul_trunc(self, other, name, bound) -> "MPoly":
        """Product with the terms whose others_degree(name) exceeds bound
        dropped; the Hensel lift in `factor` works modulo that degree."""
        self._check_same_ring(other)
        top, s = len(self.variables) * FIELD_BITS, self._shift(name)

        def low(terms):
            out = [(m, c, (m >> top) - ((m >> s) & _MASK)) for m, c in terms.items()]
            return sorted((t for t in out if t[2] <= bound), key=lambda t: t[2])

        a, b = low(self.terms), low(other.terms)
        if not a or not b:
            return MPoly.zero(self.variables)
        _guard_product(len(self.variables), self.terms, other.terms)
        res = {}
        get = res.get
        for m1, c1, d1 in a:
            room = bound - d1
            for m2, c2, d2 in b:
                if d2 > room:
                    break
                m = m1 + m2
                res[m] = get(m, 0) + c1 * c2
        return MPoly._new(
            self.variables, {m: c for m, c in res.items() if c}, self.den * other.den
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1:
            # a monomial: n times the packed key multiplies every field by n
            ((m, c),) = self.terms.items()
            _check_degree((m >> (len(self.variables) * FIELD_BITS)) * n)
            return MPoly._new(self.variables, {m * n: c**n}, self.den**n)
        result = MPoly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, name) -> "MPoly":
        s = self._shift(name)
        step = _var_key(len(self.variables), self.variables.index(name))
        res = {}
        for m, c in self.terms.items():
            e = (m >> s) & _MASK
            if e:
                res[m - step] = c * e
        return MPoly._new(self.variables, res, self.den)

    # ------------------------------------------------------------------
    # canonical form and printing
    # ------------------------------------------------------------------

    def canonicalize(self) -> "MPoly":
        """Scale to integer coefficients, content 1, positive leading term."""
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no canonical form")
        g = gcd(*self.terms.values())
        if self.terms[max(self.terms)] < 0:
            g = -g
        if g == 1 and self.den == 1:
            return self
        return MPoly._new(self.variables, {m: c // g for m, c in self.terms.items()})

    def content(self) -> Fraction:
        """Positive rational c with self/c integer, content 1."""
        if not self.terms:
            return Q(0)
        return Q(gcd(*self.terms.values()), self.den)

    def max_norm(self) -> Fraction:
        """Largest absolute value of a coefficient."""
        if not self.terms:
            return Q(0)
        return Q(max(map(abs, self.terms.values())), self.den)

    def to_text(self) -> str:
        """Render in the canonical text form.

        Terms descend in graded lex order; within a monomial the variables are
        listed in ascending name order, `*` separated, `^` for exponents >= 2.
        """
        if not self.terms:
            return "0"
        fields = sorted((v, i * FIELD_BITS) for i, v in enumerate(self.variables))
        parts = []
        for mono in sorted(self.terms, reverse=True):
            coeff = self.terms[mono]
            body = []
            for v, s in fields:
                e = (mono >> s) & _MASK
                if e == 1:
                    body.append(v)
                elif e >= 2:
                    body.append(f"{v}^{e}")
            mag = abs(coeff)
            g = gcd(mag, self.den)
            num, den = mag // g, self.den // g
            if num != 1 or den != 1 or not body:
                body.insert(0, str(num) if den == 1 else f"{num}/{den}")
            term = "*".join(body)
            if not parts:
                parts.append(term if coeff > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # structural transforms
    # ------------------------------------------------------------------

    def _remap(self, variables) -> "MPoly":
        """The same terms over another variable tuple, moving each field by
        name; variables missing from the target must not occur."""
        if variables == self.variables:
            return self
        top, new_top = len(self.variables) * FIELD_BITS, len(variables) * FIELD_BITS
        moves = [
            (i * FIELD_BITS, variables.index(v) * FIELD_BITS)
            for i, v in enumerate(self.variables)
            if v in variables
        ]
        res = {}
        for m, c in self.terms.items():
            key = (m >> top) << new_top
            for src, dst in moves:
                key |= ((m >> src) & _MASK) << dst
            res[key] = c
        return MPoly._new(variables, res, self.den)

    def embed(self, variables) -> "MPoly":
        """Re-express over a larger (or reordered) variable tuple, by name."""
        variables = tuple(variables)
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"variable {v} missing from target ring")
        return self._remap(variables)

    def restrict(self, variables) -> "MPoly":
        """Drop unused variables; error if a dropped variable occurs."""
        variables = tuple(variables)
        used = self.used_variables()
        for v in self.variables:
            if v not in variables and v in used:
                raise ValueError(f"variable {v} still occurs")
        return self._remap(variables)

    def rename(self, mapping) -> "MPoly":
        return MPoly._new(
            tuple(mapping.get(v, v) for v in self.variables), self.terms, self.den
        )

    def substitute(self, assignment) -> "MPoly":
        """Substitute polynomials (or rationals) for variables, by name, all
        at once: a value may use any variable, a substituted one included.

        Unlisted variables stay themselves.  The result lives in the ring of
        the first substituted polynomial if any, else in self's ring; all
        polynomial values must share one ring that contains the untouched
        variables.  Rational values go first, one variable per pass over the
        terms; polynomial values then go by Horner's rule in each substituted
        variable that occurs, the untouched variables moving into the result
        ring by name.
        """
        target = next(
            (v.variables for v in assignment.values() if isinstance(v, MPoly)), self.variables
        )
        for v in self.variables:
            if v not in assignment and v not in target:
                raise ValueError(f"variable {v} missing from target ring")
        poly, steps = self, []
        for v, val in assignment.items():
            if isinstance(val, MPoly):
                steps.append((v, val))
            elif v in self.variables:
                poly = poly._substitute_number(v, *_ratio(val))
        used = poly.used_variables() if steps else ()
        return poly._horner([(v, val) for v, val in steps if v in used], target)

    def _substitute_number(self, name, num, den) -> "MPoly":
        """self at name = num/den, in the same ring, over self.den * den^top:
        num is raised only to the exponents e that occur, each from the last,
        times den^(top - e)."""
        s = self._shift(name)
        exps = sorted({(m >> s) & _MASK for m in self.terms}) or [0]
        top = exps[-1]
        if not top:
            return self
        powers, prev, power = {}, 0, 1
        for e in exps:
            power *= num ** (e - prev)
            powers[e], prev = power * den ** (top - e), e
        step = _var_key(len(self.variables), self.variables.index(name))
        res = {}
        get = res.get
        for m, c in self.terms.items():
            e = (m >> s) & _MASK
            k = m - e * step
            res[k] = get(k, 0) + c * powers[e]
        return MPoly._new(
            self.variables, {m: c for m, c in res.items() if c}, self.den * den**top
        )

    def _horner(self, steps, target) -> "MPoly":
        """self with each (name, value) of steps substituted, in target."""
        if not steps:
            return self._remap(target)
        (name, value), inner = steps[0], steps[1:]
        acc = MPoly.zero(target)
        for c in reversed(self.coeffs_in(name)):
            acc = acc * value
            if c.terms:
                acc = acc + c._horner(inner, target)
        return acc

    # ------------------------------------------------------------------
    # univariate views
    # ------------------------------------------------------------------

    def coeffs_in(self, name):
        """Coefficients of powers of `name`, low to high, as MPoly values."""
        deg = self.degree_in(name)
        if deg < 0:
            return []
        s = self._shift(name)
        step = _var_key(len(self.variables), self.variables.index(name))
        buckets = [{} for _ in range(deg + 1)]
        for m, c in self.terms.items():
            e = (m >> s) & _MASK
            buckets[e][m - e * step] = c
        return [MPoly._new(self.variables, b, self.den) for b in buckets]

    @classmethod
    def from_coeffs(cls, variables, name, coeffs) -> "MPoly":
        variables = tuple(variables)
        n, idx = len(variables), variables.index(name)
        s, step = idx * FIELD_BITS, _var_key(n, idx)
        polys = [
            c if isinstance(c, MPoly) else cls.const(variables, c) for c in coeffs
        ]
        den = lcm(*(p.den for p in polys))
        res = {}
        for e, p in enumerate(polys):
            if not p.terms:
                continue
            _check_degree((max(p.terms) >> (n * FIELD_BITS)) + e)
            k, offset = den // p.den, e * step
            for m, c in p.terms.items():
                if (m >> s) & _MASK:
                    raise ValueError("coefficient already involves the main variable")
                res[m + offset] = c * k
        return cls._new(variables, res, den)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _evaluation_plan(self):
        """The terms in descending order, unpacked once per polynomial.

        Returns (powers, rows): powers lists the distinct (variable index,
        exponent) pairs, and each row is (int coefficient over den, complex
        coefficient, coefficient magnitude, indices into powers in variable
        order).
        """
        try:
            return self._plan
        except AttributeError:
            pass
        n, den = len(self.variables), self.den
        slots = {}
        rows = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            g = gcd(c, den)
            fields = []
            for i in range(n):
                e = (m >> (i * FIELD_BITS)) & _MASK
                if e:
                    fields.append(slots.setdefault((i, e), len(slots)))
            # int / int is correctly rounded, as float(Fraction) is; past the
            # float range a column reads inf, signed as c (den > 0)
            try:
                val = c / den
            except OverflowError:
                val = inf if c > 0 else -inf
            try:
                mag = abs(float(c // g) / float(den // g))
            except OverflowError:
                mag = abs(val)
            rows.append((c, complex(val), mag, fields))
        self._plan = (list(slots), rows)
        return self._plan

    def evaluate_with_magnitude(self, point):
        """(value at a complex point, largest absolute single-term
        contribution), from one walk of the terms in descending order; the
        magnitude turns residuals into relative ones.  A variable missing from
        the point raises KeyError."""
        powers, rows = self._evaluation_plan()
        names = self.variables
        pw, pa = [], []
        for i, e in powers:
            a = complex(point[names[i]])
            pw.append(a**e)
            pa.append(abs(a) ** e)
        total, best = 0j, 0.0
        for _, val, mag, fields in rows:
            for k in fields:
                val *= pw[k]
                mag *= pa[k]
            total += val
            if mag > best:
                best = mag
        return total, best

    def evaluate_mod(self, point, prime) -> int:
        """Evaluate at a point of int values modulo a prime that does not
        divide den; zero means that self vanishes there mod prime."""
        powers, rows = self._evaluation_plan()
        names = self.variables
        pw = [pow(point[names[i]], e, prime) for i, e in powers]
        total = 0
        for c, _, _, fields in rows:
            for k in fields:
                c = c * pw[k] % prime
            total += c
        return total * pow(self.den, -1, prime) % prime


# ----------------------------------------------------------------------
# division helpers
# ----------------------------------------------------------------------


def divide_exact(p: MPoly, q: MPoly):
    """Return p/q when the division is exact, else None.

    Write p = P/dp and q = cq*Qt/dq with P, Qt integral and Qt primitive.  By
    Gauss's lemma Qt divides P in Q[vars] only if the quotient is integral,
    so each step of dividing P by Qt is an exact integer divmod, and a
    nonzero remainder (or a monomial that does not divide) means q does not
    divide p.  Then p/q = (P/Qt) * dq/(dp*cq).
    """
    p._check_same_ring(q)
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return MPoly.zero(p.variables)
    cq = gcd(*q.terms.values())
    qt = q.terms if cq == 1 else {m: c // cq for m, c in q.terms.items()}
    qlm = max(qt)
    qlc = qt[qlm]
    # offsets of the other terms from the leading monomial: the product
    # monomial (lm - qlm) + m2 is lm + (m2 - qlm), one int add
    rest = [(m - qlm, c) for m, c in qt.items() if m != qlm]
    needs = [
        (s, (qlm >> s) & _MASK)
        for s in range(0, len(p.variables) * FIELD_BITS, FIELD_BITS)
        if (qlm >> s) & _MASK
    ]
    rem = dict(p.terms)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        lm = -heapq.heappop(heap)
        c = rem.pop(lm, None)
        if c is None:
            continue  # cancelled, or a repeated heap entry
        if any((lm >> s) & _MASK < e for s, e in needs):
            return None
        k, r = divmod(c, qlc)
        if r:
            return None
        quot[lm - qlm] = k
        for offset, c2 in rest:
            m = lm + offset
            s = rem.get(m)
            if s is None:
                rem[m] = -k * c2
                heapq.heappush(heap, -m)
            else:
                s -= k * c2
                if s:
                    rem[m] = s
                else:
                    del rem[m]
    if q.den != 1:
        quot = {m: c * q.den for m, c in quot.items()}
    return MPoly._new(p.variables, quot, p.den * cq)


def pseudo_rem(p: MPoly, q: MPoly, name: str) -> MPoly:
    """Pseudo-remainder of p by q in the named variable.

    Computes lc(q)^(deg p - deg q + 1) * p  mod q without fractions; for q
    monic in the variable that is the plain remainder.
    """
    dp = p.degree_in(name)
    dq = q.degree_in(name)
    if dq < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    if dp < dq:
        return p
    qc = q.coeffs_in(name)
    lq = qc[-1]
    monic = lq.is_one()
    rem = p.coeffs_in(name)
    for k in range(dp, dq - 1, -1):
        # the top coefficient cancels exactly: lq*top - top*lq
        top = rem.pop()
        if not monic:
            rem = [c * lq for c in rem]
        if not top.is_zero():
            for j in range(dq):
                rem[k - dq + j] = rem[k - dq + j] - top * qc[j]
    while rem and rem[-1].is_zero():
        rem.pop()
    if not rem:
        return MPoly.zero(p.variables)
    return MPoly.from_coeffs(p.variables, name, rem)


def rem_monic(p: MPoly, modulus: MPoly, name: str) -> MPoly:
    """Remainder of p modulo a polynomial monic in the named variable."""
    if modulus.coeffs_in(name)[-1:] != [MPoly.const(modulus.variables, 1)]:
        raise ValueError(f"modulus is not monic in {name}")
    return pseudo_rem(p, modulus, name)
