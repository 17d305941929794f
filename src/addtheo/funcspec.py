"""Function descriptions: parsing, canonicalization, and the order nu.

A spec file is line oriented UTF-8 with `#` comments:

    class: rational | exp | elliptic
    phi: <expression>
    mu: <a>/<b> | i | <a>/<b>*i      (exp only, optional, nonzero, numeric use only)
    g2: <rat>                        (elliptic only, required)
    g3: <rat>                        (elliptic only, required)

The uniformizer symbol is `u` for the rational class, `t` for the exponential
class, and the pair `p`, `q` for the elliptic class, where q^2 = 4p^3 - g2*p - g3.

Exponential specs whose numerator and denominator are both polynomials in t^k
for some k > 1 are rewritten in the coarser uniformizer t^k (with mu scaled by
k), so that the order nu is intrinsic to the function and not to the chosen
parametrization.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ExprSyntaxError, SpecValidationError
from .exprparse import parse_fraction
from .poly import MPoly, divide_exact, rem_monic
from .resultants import content_and_primitive, mgcd, resultant

Q = Fraction


class FunctionClass(enum.Enum):
    RATIONAL_OF_U = "rational"
    RATIONAL_OF_EXP = "exp"
    ELLIPTIC = "elliptic"


_UNIFORMIZER = {
    FunctionClass.RATIONAL_OF_U: ("u",),
    FunctionClass.RATIONAL_OF_EXP: ("t",),
    FunctionClass.ELLIPTIC: ("p", "q"),
}


def curve_polynomial(g2: Fraction, g3: Fraction) -> MPoly:
    """q^2 - (4p^3 - g2*p - g3) over the ring (p, q)."""
    p, q = (MPoly.var(("p", "q"), name) for name in "pq")
    return q**2 - 4 * p**3 + g2 * p + g3


class FuncSpec(NamedTuple):
    cls: FunctionClass
    numerator: MPoly
    denominator: MPoly
    mu: tuple = (Q(1), Q(0))  # exact (real, imag), numeric use only
    g2: Fraction | None = None
    g3: Fraction | None = None

    @property
    def mu_value(self) -> complex:
        return complex(self.mu[0]) + 1j * complex(self.mu[1])

    @property
    def uniformizer(self):
        return _UNIFORMIZER[self.cls]

    def serialize(self) -> str:
        lines = [f"class: {self.cls.value}"]
        num = self.numerator.to_text()
        if self.denominator.is_one():
            lines.append(f"phi: {num}")
        else:
            lines.append(f"phi: ({num})/({self.denominator.to_text()})")
        if self.cls is FunctionClass.RATIONAL_OF_EXP and self.mu != (Q(1), Q(0)):
            lines.append(f"mu: {_format_mu(self.mu)}")
        if self.cls is FunctionClass.ELLIPTIC:
            lines.append(f"g2: {_format_rat(self.g2)}")
            lines.append(f"g3: {_format_rat(self.g3)}")
        return "\n".join(lines) + "\n"


def _format_rat(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def _format_mu(mu) -> str:
    re, im = mu
    if im == 0:
        return _format_rat(re)
    if re != 0:
        raise SpecValidationError("mu must be rational or purely imaginary")
    if im == 1:
        return "i"
    return f"{_format_rat(im)}*i"


def _parse_mu(text, line):
    text = text.strip()
    try:
        if text == "i":
            return (Q(0), Q(1))
        if text.endswith("*i"):
            return (Q(0), Q(text[:-2].strip()))
        return (Q(text), Q(0))
    except (ValueError, ZeroDivisionError):
        raise ExprSyntaxError(f"invalid mu value {text!r}", line, 1)


def _parse_rat(text, line, key):
    try:
        return Q(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ExprSyntaxError(f"invalid rational for {key}: {text!r}", line, 1)


def parse_spec(text: str) -> FuncSpec:
    """Parse and validate a spec file (see module docstring for the format)."""
    fields = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise ExprSyntaxError("expected 'key: value'", lineno, 1)
        key, value = line.split(":", 1)
        key = key.strip()
        if key in fields:
            raise ExprSyntaxError(f"duplicate key {key!r}", lineno, 1)
        fields[key] = value.strip()
        lines[key] = lineno
    if "class" not in fields:
        raise SpecValidationError("missing 'class' line")
    cls_tag = fields.pop("class")
    try:
        cls = FunctionClass(cls_tag)
    except ValueError:
        raise SpecValidationError(
            f"unknown class {cls_tag!r} (expected rational, exp, or elliptic)"
        )
    if "phi" not in fields:
        raise SpecValidationError("missing 'phi' line")
    phi_text = fields.pop("phi")
    phi_line = lines["phi"]

    mu = (Q(1), Q(0))
    g2 = g3 = None
    if cls is FunctionClass.RATIONAL_OF_EXP:
        if "mu" in fields:
            mu = _parse_mu(fields.pop("mu"), lines["mu"])
    if cls is FunctionClass.ELLIPTIC:
        for key in ("g2", "g3"):
            if key not in fields:
                raise SpecValidationError(f"elliptic spec requires {key}")
        g2 = _parse_rat(fields.pop("g2"), lines["g2"], "g2")
        g3 = _parse_rat(fields.pop("g3"), lines["g3"], "g3")
    if fields:
        key = next(iter(fields))
        raise ExprSyntaxError(f"unexpected key {key!r} for class {cls.value}", lines[key], 1)

    variables = _UNIFORMIZER[cls]
    num, den = parse_fraction(phi_text, variables, line=phi_line)
    return make_spec(cls, num, den, mu=mu, g2=g2, g3=g3)


def make_spec(cls, num, den, mu=(Q(1), Q(0)), g2=None, g3=None) -> FuncSpec:
    """Validate and canonicalize a function description."""
    if den.is_zero():
        raise SpecValidationError("zero denominator")
    if cls is FunctionClass.ELLIPTIC:
        if g2 is None or g3 is None:
            raise SpecValidationError("elliptic spec requires g2 and g3")
        if g2**3 - 27 * g3**2 == 0:
            raise SpecValidationError("zero discriminant: g2^3 - 27*g3^2 = 0")
        curve = curve_polynomial(g2, g3)
        num = rem_monic(num, curve, "q")
        den = rem_monic(den, curve, "q")
        if den.is_zero():
            raise SpecValidationError("denominator vanishes on the curve")
    num, den = _cancel(num, den)
    if cls is FunctionClass.RATIONAL_OF_EXP:
        if not any(mu):
            raise SpecValidationError("mu = 0 makes phi a constant function (t = e^(0*u) = 1)")
        num, den, mu = _minimal_uniformizer(num, den, mu)
    if num.is_constant() and den.is_constant():
        raise SpecValidationError("phi is a constant function")
    return FuncSpec(cls, num, den, mu=mu, g2=g2, g3=g3)


def _cancel(num: MPoly, den: MPoly):
    """Cancel the gcd and scale to integer coefficients, joint content 1,
    positive leading denominator."""
    if num.is_zero():
        raise SpecValidationError("phi is identically zero (constant)")
    g = mgcd(num, den)
    if not g.is_constant():
        num = divide_exact(num, g)
        den = divide_exact(den, g)
    cn, cd = num.content(), den.content()
    joint = Q(math.gcd(cn.numerator * cd.denominator, cd.numerator * cn.denominator),
              cn.denominator * cd.denominator)
    scale = 1 / joint
    if den.leading_coefficient() < 0:
        scale = -scale
    return num * scale, den * scale


def _minimal_uniformizer(num: MPoly, den: MPoly, mu):
    """Rewrite t^k as t when every exponent is a multiple of k > 1."""
    exps = set()
    for poly in (num, den):
        for mono, _ in poly.items():
            exps.add(mono[0])
    k = 0
    for e in exps:
        k = math.gcd(k, e)
    if k <= 1:
        return num, den, mu
    def shrink(p):
        return MPoly(p.variables, {(m[0] // k,): c for m, c in p.items()})
    return shrink(num), shrink(den), (mu[0] * k, mu[1] * k)


# ----------------------------------------------------------------------
# order
# ----------------------------------------------------------------------


def order(spec: FuncSpec) -> int:
    """The order nu: how many incongruent arguments map to a generic value.

    For the coprime N/D that make_spec leaves: max(deg N, deg D) (rational and
    exp classes), or the p-degree of Res_q(N - c*D, curve) without its content
    in c (elliptic class); docs/decisions.md section 10.
    """
    if spec.cls is FunctionClass.ELLIPTIC:
        return _elliptic_order(spec)
    return max(spec.numerator.total_degree(), spec.denominator.total_degree())


def _elliptic_order(spec: FuncSpec) -> int:
    ring = ("p", "q", "c")
    c = MPoly.var(ring, "c")
    num = spec.numerator.embed(ring)
    den = spec.denominator.embed(ring)
    a = num - c * den
    if a.degree_in("q") <= 0:
        res = a * a
    else:
        curve = curve_polynomial(spec.g2, spec.g3).embed(ring)
        res = resultant(a, curve, "q")
    # discard content independent of the generic value symbol
    _, res = content_and_primitive(res, "c")
    return res.degree_in("p")
