"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a map from exponent tuples to nonzero Fractions over a fixed,
ordered tuple of variable names.  The term order everywhere is graded
lexicographic with the later-listed variable greater: terms are compared by
total degree first, ties broken by the exponent of the last variable, then the
second to last, and so on.  Canonical form means integer coefficients with
content one and a positive leading coefficient under that order.

Values are immutable once built; every operation returns a new polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .errors import ZeroPolynomialError

Q = Fraction


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be rational, got {type(c).__name__}")


def grlex_key(mono):
    """Sort key implementing graded lex with the later variable greater."""
    return (sum(mono), mono[::-1])


class MPoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None, _clean=True):
        self.variables = tuple(variables)
        if terms is None:
            self.terms = {}
        elif _clean:
            nvars = len(self.variables)
            clean = {}
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != nvars:
                    raise ValueError("exponent tuple does not match variables")
                if any(e < 0 for e in mono):
                    raise ValueError("negative exponent")
                coeff = _as_fraction(coeff)
                if coeff:
                    clean[mono] = clean.get(mono, Q(0)) + coeff
                    if not clean[mono]:
                        del clean[mono]
            self.terms = clean
        else:
            self.terms = terms

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MPoly":
        return cls(variables, {}, _clean=False)

    @classmethod
    def const(cls, variables, value) -> "MPoly":
        value = _as_fraction(value)
        variables = tuple(variables)
        if not value:
            return cls.zero(variables)
        mono = (0,) * len(variables)
        return cls(variables, {mono: value}, _clean=False)

    @classmethod
    def var(cls, variables, name) -> "MPoly":
        variables = tuple(variables)
        idx = variables.index(name)
        mono = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {mono: Q(1)}, _clean=False)

    # ------------------------------------------------------------------
    # predicates and views
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Q(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, name) -> int:
        if not self.terms:
            return -1
        idx = self.variables.index(name)
        return max(m[idx] for m in self.terms)

    def uses(self, name) -> bool:
        idx = self.variables.index(name)
        return any(m[idx] for m in self.terms)

    def used_variables(self):
        used = [False] * len(self.variables)
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.variables, used) if u)

    def leading_monomial(self):
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def sort_key(self):
        """Deterministic total-order key on polynomials (for tie breaks)."""
        items = sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))
        return (
            self.total_degree(),
            len(self.terms),
            tuple((m, c.numerator, c.denominator) for m, c in items),
        )

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.variables, other)
        self._check_same_ring(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m)
            if s is None:
                res[m] = c
            else:
                s = s + c
                if s:
                    res[m] = s
                else:
                    del res[m]
        return MPoly(self.variables, res, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(
            self.variables, {m: -c for m, c in self.terms.items()}, _clean=False
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return MPoly.zero(self.variables)
            return MPoly(
                self.variables,
                {m: k * c for m, k in self.terms.items()},
                _clean=False,
            )
        self._check_same_ring(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        res = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                s = res.get(m)
                if s is None:
                    res[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        res[m] = s
                    else:
                        del res[m]
        return MPoly(self.variables, res, _clean=False)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, name) -> "MPoly":
        idx = self.variables.index(name)
        res = {}
        for m, c in self.terms.items():
            e = m[idx]
            if e:
                mm = m[:idx] + (e - 1,) + m[idx + 1 :]
                nc = c * e
                s = res.get(mm)
                res[mm] = nc if s is None else s + nc
                if not res[mm]:
                    del res[mm]
        return MPoly(self.variables, res, _clean=False)

    # ------------------------------------------------------------------
    # canonical form and printing
    # ------------------------------------------------------------------

    def canonicalize(self) -> "MPoly":
        """Scale to integer coefficients, content 1, positive leading term."""
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no canonical form")
        scale = 1 / self.content()
        if self.terms[self.leading_monomial()] < 0:
            scale = -scale
        return MPoly(
            self.variables,
            {m: c * scale for m, c in self.terms.items()},
            _clean=False,
        )

    def content(self) -> Fraction:
        """Positive rational c with self/c integer, content 1."""
        if not self.terms:
            return Q(0)
        den_lcm = 1
        for c in self.terms.values():
            den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
        num_gcd = 0
        for c in self.terms.values():
            num_gcd = _int_gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
        return Q(num_gcd, den_lcm)

    def primitive(self) -> "MPoly":
        """self divided by its rational content (sign left untouched)."""
        c = self.content()
        if not c:
            return self
        inv = 1 / c
        return MPoly(
            self.variables,
            {m: k * inv for m, k in self.terms.items()},
            _clean=False,
        )

    def to_text(self) -> str:
        """Render in the canonical text form.

        Terms descend in graded lex order; within a monomial the variables are
        listed in ascending name order, `*` separated, `^` for exponents >= 2.
        """
        if not self.terms:
            return "0"
        name_order = sorted(range(len(self.variables)), key=lambda i: self.variables[i])
        parts = []
        for mono in sorted(self.terms, key=grlex_key, reverse=True):
            coeff = self.terms[mono]
            body = []
            for i in name_order:
                e = mono[i]
                if e == 1:
                    body.append(self.variables[i])
                elif e >= 2:
                    body.append(f"{self.variables[i]}^{e}")
            mag = abs(coeff)
            if mag != 1 or not body:
                c = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
                body.insert(0, c)
            term = "*".join(body)
            if not parts:
                parts.append(term if coeff > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # structural transforms
    # ------------------------------------------------------------------

    def embed(self, variables) -> "MPoly":
        """Re-express over a larger (or reordered) variable tuple, by name."""
        variables = tuple(variables)
        pos = {v: i for i, v in enumerate(variables)}
        mapping = []
        for v in self.variables:
            if v not in pos:
                raise ValueError(f"variable {v} missing from target ring")
            mapping.append(pos[v])
        res = {}
        n = len(variables)
        for m, c in self.terms.items():
            mm = [0] * n
            for src, e in enumerate(m):
                if e:
                    mm[mapping[src]] = e
            res[tuple(mm)] = c
        return MPoly(variables, res, _clean=False)

    def restrict(self, variables) -> "MPoly":
        """Drop unused variables; error if a dropped variable occurs."""
        variables = tuple(variables)
        keep = []
        for i, v in enumerate(self.variables):
            if v in variables:
                keep.append(i)
            elif any(m[i] for m in self.terms):
                raise ValueError(f"variable {v} still occurs")
        reordered = MPoly(variables, {}, _clean=False)
        res = {}
        pos = {v: j for j, v in enumerate(variables)}
        for m, c in self.terms.items():
            mm = [0] * len(variables)
            for i in keep:
                if m[i]:
                    mm[pos[self.variables[i]]] = m[i]
            res[tuple(mm)] = c
        reordered.terms.update(res)
        return reordered

    def rename(self, mapping) -> "MPoly":
        return MPoly(
            tuple(mapping.get(v, v) for v in self.variables),
            dict(self.terms),
            _clean=False,
        )

    def substitute(self, assignment) -> "MPoly":
        """Substitute polynomials (or rationals) for variables, by name.

        Unlisted variables stay themselves.  The result lives in the ring of
        the first substituted polynomial if any, else in self's ring; all
        polynomial values must share one ring that contains the untouched
        variables.
        """
        target = None
        for v in assignment.values():
            if isinstance(v, MPoly):
                target = v.variables
                break
        if target is None:
            target = self.variables
        values = {}
        for name, val in assignment.items():
            values[name] = val if isinstance(val, MPoly) else MPoly.const(target, val)
        base = {}
        for v in self.variables:
            if v not in values:
                values[v] = MPoly.var(target, v)
        result = MPoly.zero(target)
        pow_cache = {}
        for m, c in self.terms.items():
            term = MPoly.const(target, c)
            for i, e in enumerate(m):
                if e:
                    key = (self.variables[i], e)
                    if key not in pow_cache:
                        pow_cache[key] = values[self.variables[i]] ** e
                    term = term * pow_cache[key]
            result = result + term
        return result

    # ------------------------------------------------------------------
    # univariate views
    # ------------------------------------------------------------------

    def coeffs_in(self, name):
        """Coefficients of powers of `name`, low to high, as MPoly values."""
        idx = self.variables.index(name)
        deg = self.degree_in(name)
        if deg < 0:
            return []
        buckets = [dict() for _ in range(deg + 1)]
        for m, c in self.terms.items():
            e = m[idx]
            mm = m[:idx] + (0,) + m[idx + 1 :]
            buckets[e][mm] = c
        return [MPoly(self.variables, b, _clean=False) for b in buckets]

    @classmethod
    def from_coeffs(cls, variables, name, coeffs) -> "MPoly":
        variables = tuple(variables)
        idx = variables.index(name)
        res = {}
        for e, coeff in enumerate(coeffs):
            if isinstance(coeff, (int, Fraction)):
                coeff = cls.const(variables, coeff)
            for m, c in coeff.terms.items():
                if m[idx]:
                    raise ValueError("coefficient already involves the main variable")
                mm = m[:idx] + (e,) + m[idx + 1 :]
                res[mm] = c
        return cls(variables, res, _clean=False)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, point) -> complex:
        """Evaluate at a complex point, summing in descending term order."""
        for i, v in enumerate(self.variables):
            if v not in point and any(m[i] for m in self.terms):
                raise KeyError(f"no value assigned to variable {v}")
        powers = {}
        total = 0j
        for m in sorted(self.terms, key=grlex_key, reverse=True):
            val = complex(self.terms[m])
            for i, e in enumerate(m):
                if e:
                    key = (i, e)
                    if key not in powers:
                        powers[key] = complex(point[self.variables[i]]) ** e
                    val *= powers[key]
            total += val
        return total

    def term_magnitude(self, point) -> float:
        """Largest absolute single-term contribution at the point.

        Used to turn raw residuals into relative ones.
        """
        best = 0.0
        powers = {}
        for m, c in self.terms.items():
            val = abs(float(c.numerator) / float(c.denominator))
            for i, e in enumerate(m):
                if e:
                    key = (i, e)
                    if key not in powers:
                        powers[key] = abs(complex(point[self.variables[i]])) ** e
                    val *= powers[key]
            if val > best:
                best = val
        return best


# ----------------------------------------------------------------------
# division helpers
# ----------------------------------------------------------------------


def divide_exact(p: MPoly, q: MPoly):
    """Return p/q when the division is exact, else None."""
    p._check_same_ring(q)
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return MPoly.zero(p.variables)
    qlm = q.leading_monomial()
    qlc = q.terms[qlm]
    quot = {}
    rem = dict(p.terms)
    while rem:
        lm = max(rem, key=grlex_key)
        diff = tuple(a - b for a, b in zip(lm, qlm))
        if any(d < 0 for d in diff):
            return None
        c = rem[lm] / qlc
        quot[diff] = c
        for m2, c2 in q.terms.items():
            m = tuple(a + b for a, b in zip(diff, m2))
            s = rem.get(m, None)
            val = c * c2
            if s is None:
                rem[m] = -val
            else:
                s = s - val
                if s:
                    rem[m] = s
                else:
                    del rem[m]
    return MPoly(p.variables, quot)


def pseudo_rem(p: MPoly, q: MPoly, name: str) -> MPoly:
    """Pseudo-remainder of p by q in the named variable.

    Computes lc(q)^(deg p - deg q + 1) * p  mod q without fractions.
    """
    dp = p.degree_in(name)
    dq = q.degree_in(name)
    if dq < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    if dp < dq:
        return p
    qc = q.coeffs_in(name)
    lq = qc[-1]
    rem = p.coeffs_in(name)
    steps = dp - dq + 1
    for k in range(dp, dq - 1, -1):
        top = rem[k]
        rem = [c * lq for c in rem]
        steps -= 1
        if not top.is_zero():
            for j in range(dq + 1):
                rem[k - dq + j] = rem[k - dq + j] - top * qc[j]
        rem.pop()
    if steps > 0:
        scale = lq**steps
        rem = [c * scale for c in rem]
    while rem and rem[-1].is_zero():
        rem.pop()
    if not rem:
        return MPoly.zero(p.variables)
    return MPoly.from_coeffs(p.variables, name, rem)


def rem_monic(p: MPoly, modulus: MPoly, name: str) -> MPoly:
    """Remainder of p modulo a polynomial monic in the named variable."""
    d = modulus.degree_in(name)
    mc = modulus.coeffs_in(name)
    if mc[-1].is_constant() and mc[-1].constant_value() == 1:
        pass
    else:
        raise ValueError(f"modulus is not monic in {name}")
    rem = p.coeffs_in(name)
    while len(rem) > d:
        top = rem.pop()
        k = len(rem) - d
        if top.is_zero():
            continue
        for j in range(d):
            rem[k + j] = rem[k + j] - top * mc[j]
    while rem and rem[-1].is_zero():
        rem.pop()
    if not rem:
        return MPoly.zero(p.variables)
    return MPoly.from_coeffs(p.variables, name, rem)
