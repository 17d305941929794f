"""Symmetry groups, degree predictions, the K-relation, and comparisons.

Multipliers are the constants a with phi(a*u) = phi(u); their count is
lambda0.  The full substitution group adds the u' = a*u + b with b != 0 to
them.  Both searches are exact:

* rational and elliptic classes: the multipliers are the roots of the
  reflexive scaling condition phi(s^w . x) = phi(x), weights w = 1 on u or
  (2, 3) on (p, q), whose square-free gcd over Q[s] is s^lambda0 - 1.  A
  nontrivial finite group of maps a*u + b on a rational phi fixes one point
  u0, the centroid of any finite fiber, so lambda is the multiplier count of
  phi(u + u0);
* exponential class: a = -1 acts by t -> c/t, and phi(c/t) = phi(t) holds
  for some c != 0 exactly when the t-coefficients of the condition's
  numerator share a root c != 0; c = 1 is the multiplier test;
* elliptic translations: half-period translations act through the chord law
  with the root e of 4T^3 - g2 T - g3 carried symbolically via its minimal
  polynomial, for each root of unity that preserves the period lattice.

Degree predictions follow m*nu^2/lambda0 for the addition theorem and
m*nu^3/lambda for the four-variable K-relation (docs/decisions.md, section 2).
derive_addition_theorem, the one derivation pipeline (the CLI's derive runs
it too), forms the first law before derive eliminates, and the theorem it
returns carries that law.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple

from . import derive, factor, numeric
from .errors import AddTheoError, DegreeLawError, PruningError
from .funcspec import FuncSpec, FunctionClass, curve_polynomial, order
from .poly import MPoly, divide_exact, rem_monic
from .resultants import mgcd, resultant, squarefree_part


# ----------------------------------------------------------------------
# root-of-unity descriptors: (order k, index j) stands for exp(2*pi*i*j/k)
# ----------------------------------------------------------------------


def _unity_group(g: int):
    """All g-th roots of unity as (order, primitive index) descriptors."""
    out = []
    for m in range(g):
        d = math.gcd(m, g)
        out.append((g // d, m // d))
    return tuple(sorted(set(out)))


@lru_cache(maxsize=32)
def _cyclotomic(n: int) -> MPoly:
    """The n-th cyclotomic polynomial, in the one variable w."""
    poly = MPoly.var(("w",), "w") ** n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = divide_exact(poly, _cyclotomic(d))
    return poly


def _cyclotomic_mpoly(n: int, ring, name) -> MPoly:
    return _cyclotomic(n).rename({"w": name}).embed(ring)


class SymmetryReport(NamedTuple):
    multipliers: tuple
    lambda0: int
    group_alphas: tuple | None = None
    lam: int | None = None
    beta_search: str | None = None


class KRelation(NamedTuple):
    K: MPoly
    degrees: tuple
    lam: int
    max_residual: float
    samples: int
    seed: int


class SameTheoremResult(NamedTuple):
    same: bool
    alpha: complex | None = None
    warning: str | None = None


# ----------------------------------------------------------------------
# multipliers (lambda0)
# ----------------------------------------------------------------------


def _exp_inversion_condition(spec: FuncSpec, other: FuncSpec | None = None) -> MPoly:
    """The numerator of phi(c/t) - psi(t) over Q[t, c], where psi is other's
    phi (default: phi itself): phi(c/t) = psi(t) exactly where it vanishes
    identically in t."""
    ring = ("t", "c")
    other = other or spec

    def twisted(poly):  # t^deg * poly(c/t)
        deg = poly.total_degree()
        return MPoly(ring, {(deg - m[0], m[0]): coeff for m, coeff in poly.items()})

    num, den = other.numerator.embed(ring), other.denominator.embed(ring)
    shift = spec.denominator.total_degree() - spec.numerator.total_degree()
    lhs = num * twisted(spec.denominator)
    rhs = twisted(spec.numerator) * den
    t = MPoly.var(ring, "t")
    if shift >= 0:
        rhs = rhs * t**shift
    else:
        lhs = lhs * t**-shift
    return lhs - rhs


def multiplier_group(spec: FuncSpec) -> SymmetryReport:
    """All constants a with phi(a*u) = phi(u), found exactly; lambda0 is
    their count."""
    if spec.cls is FunctionClass.RATIONAL_OF_EXP:
        if _exp_inversion_condition(spec).substitute({"c": 1}).is_zero():
            return SymmetryReport(multipliers=((1, 0), (2, 1)), lambda0=2)
        return SymmetryReport(multipliers=((1, 0),), lambda0=1)
    # the reflexive scaling condition: its roots are the multiplier group
    # itself, so the square-free gcd is s^lambda0 - 1 (docs/decisions.md
    # section 9)
    weights = (2, 3) if spec.cls is FunctionClass.ELLIPTIC else (1,)
    k, _ = _scaling_condition(spec, spec, weights)
    return SymmetryReport(multipliers=_unity_group(k), lambda0=k)


def predicted_degree(m: int, nu: int, lambda0: int) -> int:
    """The degree law m*nu^2/lambda0; lambda0 must divide nu."""
    if nu % lambda0 != 0:
        raise DegreeLawError(
            f"lambda0 = {lambda0} does not divide nu = {nu}; "
            "the degree law m*nu*(nu/lambda0) needs an integer ratio"
        )
    return m * nu * (nu // lambda0)


def predicted_k_degree(m: int, nu: int, lam: int) -> int:
    """The K-relation degree law m*nu^3/lambda; lambda must divide nu."""
    if nu % lam != 0:
        raise DegreeLawError(
            f"lambda = {lam} does not divide nu = {nu}; "
            "the degree law m*nu^2*(nu/lambda) needs an integer ratio"
        )
    return m * nu * nu * (nu // lam)


# ----------------------------------------------------------------------
# full substitution group (lambda)
# ----------------------------------------------------------------------


def _half_period_minimal_polys(g2: Fraction, g3: Fraction):
    """Irreducible monic minimal polynomials over ("e",) of the roots of
    e^3 - (g2/4) e - (g3/4) (the half-period p-coordinates)."""
    e = MPoly.var(("e",), "e")
    cubic = e**3 - g2 / 4 * e - g3 / 4
    return [f * (1 / f.leading_coefficient()) for f in factor.factor_univariate(cubic)]


def _elliptic_substitution_invariant(spec: FuncSpec, k: int, j: int, minpoly) -> bool:
    """Exact test of phi(a*u + b) = phi(u) for a = exp(2*pi*i*j/k) and b a
    half-period whose p-coordinate e has the given minimal polynomial.  The
    scalars a^-2, a^-3 are powers of a symbol w reduced modulo the k-th
    cyclotomic polynomial; e is reduced modulo its minimal polynomial;
    q-powers are reduced modulo the curve."""
    ring = ("p", "q", "e", "w")
    g2, g3 = spec.g2, spec.g3
    num = spec.numerator.embed(ring)
    den = spec.denominator.embed(ring)
    p = MPoly.var(ring, "p")
    q = MPoly.var(ring, "q")
    e = MPoly.var(ring, "e")
    w = MPoly.var(ring, "w")
    sp = w ** ((-2 * j) % k) if k > 2 else MPoly.const(ring, 1)
    sq = w ** ((-3 * j) % k) if k > 2 else MPoly.const(ring, 1 if k == 1 else -1)
    P = sp * p
    Qv = sq * q

    def reduce_all(poly):
        poly = rem_monic(poly, curve_polynomial(g2, g3).embed(ring), "q")
        poly = rem_monic(poly, minpoly.embed(ring), "e")
        if k > 2:
            poly = rem_monic(poly, _cyclotomic_mpoly(k, ring, "w"), "w")
        return poly

    shift = 3 * e**2 - MPoly.const(ring, g2 / 4)
    a1 = e * P + 2 * e**2 - MPoly.const(ring, g2 / 4)  # p'' numerator
    a2 = -Qv * shift  # q'' numerator
    base = P - e  # p'' denominator; q'' uses its square
    L = max(m[0] + 2 * m[1] for poly in (spec.numerator, spec.denominator) for m, _ in poly.items())

    def hat(src):  # base^L * src(a1/base, a2/base^2)
        weighted = MPoly(("p", "q", "h"), {(a, b, L - a - 2 * b): c for (a, b), c in src.items()})
        return reduce_all(weighted.substitute({"p": a1, "q": a2, "h": base}))

    condition = reduce_all(hat(spec.numerator) * den - num * hat(spec.denominator))
    return condition.is_zero()


def _fiber_centroid(spec: FuncSpec) -> Fraction:
    """The mean of the roots of whichever of phi's numerator and denominator
    has degree nu: a finite fiber of phi, so every substitution fixing phi
    fixes this point."""
    num, den = spec.numerator, spec.denominator
    coeffs = (num if num.total_degree() >= den.total_degree() else den).coeffs_in("u")
    nu = len(coeffs) - 1
    return -coeffs[nu - 1].constant_value() / (nu * coeffs[nu].constant_value())


def full_substitution_group(spec: FuncSpec) -> SymmetryReport:
    """The multipliers (the substitutions u' = a*u + b with b = 0) joined by
    the a of every substitution with b != 0 that fixes phi."""
    base = multiplier_group(spec)
    if spec.cls is FunctionClass.RATIONAL_OF_U:
        # the finite group fixes one rational point u0 (docs/decisions.md
        # section 8), so it is the multiplier group of phi(u + u0)
        shift = {"u": MPoly.var(("u",), "u") + _fiber_centroid(spec)}
        num, den = (poly.substitute(shift) for poly in (spec.numerator, spec.denominator))
        shifted = multiplier_group(spec._replace(numerator=num, denominator=den))
        return base._replace(
            group_alphas=shifted.multipliers, lam=shifted.lambda0,
            beta_search="none (translation-free class)",
        )
    if spec.cls is FunctionClass.RATIONAL_OF_EXP:
        # phi(c/t) = phi(t) for some c != 0 when the t-coefficients of the
        # condition share a root other than 0: their gcd c^k*h has a
        # nonconstant h, that is, more than one term
        coeffs = (co for co in _exp_inversion_condition(spec).coeffs_in("t") if co)
        inverted = len(reduce(mgcd, coeffs)) > 1
        return base._replace(
            group_alphas=((1, 0), (2, 1)) if inverted else ((1, 0),),
            lam=2 if inverted else 1,
            beta_search="roots of unity of order dividing the exponent gcd",
        )
    minpolys = _half_period_minimal_polys(spec.g2, spec.g3)
    alphas = set(base.multipliers)
    # the roots of unity that preserve the period lattice
    for k, j in _unity_group(4 if spec.g3 == 0 else 6 if spec.g2 == 0 else 2):
        if (k, j) not in alphas and any(
            _elliptic_substitution_invariant(spec, k, j, mp) for mp in minpolys
        ):
            alphas.add((k, j))
    alphas = tuple(sorted(alphas))
    lam = max(k for k, _ in alphas)
    if lam % base.lambda0 != 0:
        raise AddTheoError(
            f"substitution search returned lambda = {lam} not divisible by "
            f"lambda0 = {base.lambda0}"
        )
    return base._replace(group_alphas=alphas, lam=lam, beta_search="2-division")


# ----------------------------------------------------------------------
# degree law and the derived theorem
# ----------------------------------------------------------------------


class DegreeReport(NamedTuple):
    m: int
    nu: int
    lambda0: int
    predicted: int
    actual: tuple | None = None  # a derived G's degrees in x, y, z


def degree_report(spec: FuncSpec) -> DegreeReport:
    """The law m*nu^2/lambda0 of spec."""
    nu = order(spec)
    lam0 = multiplier_group(spec).lambda0
    return DegreeReport(m=1, nu=nu, lambda0=lam0, predicted=predicted_degree(1, nu, lam0))


def derive_addition_theorem(spec: FuncSpec, cfg: numeric.EvalConfig | None = None,
                            verify_samples: int = 200, trace=None) -> derive.AdditionTheorem:
    """Form the degree law, then derive, prune, degree-check and verify the
    addition theorem; theorem.law holds the law with G's degrees.  trace, when
    given, is called with the raw eliminant before it is pruned."""
    if cfg is None:
        cfg = numeric.EvalConfig(tol=numeric.class_tolerance(spec))
    law = degree_report(spec)
    raw = derive.eliminate(spec)
    if trace is not None:
        trace(raw)
    return derive.prune(raw, spec, cfg, law, verify_samples)


# ----------------------------------------------------------------------
# K-relation
# ----------------------------------------------------------------------


def k_points_mod(spec: FuncSpec, cfg: numeric.EvalConfig, salt: int, prime: int):
    """Exact quadruples phi(a), phi(b), phi(c), phi(a + b - c) mod prime, or
    None when prime is bad for spec."""

    def point(f, a, b, c):
        return tuple(f.phi(v) for v in (a, b, c, f.add(f.add(a, b), f.neg(c))))

    return numeric.sample_mod(spec, cfg, salt, 3, point, prime)


def k_relation(
    theorem: derive.AdditionTheorem,
    cfg: numeric.EvalConfig,
    verify_samples: int = 200,
) -> KRelation:
    """The origin-independent relation among phi(u), phi(v), phi(w), phi(t)
    under u + v = w + t, for the function theorem.spec.

    Its per-variable degrees must agree and equal m*nu^3/lambda; otherwise
    DegreeLawError is raised before the relation is certified."""
    spec = theorem.spec
    ring = ("x4", "x3", "x2", "x1", "s")
    g12 = theorem.G.rename({"x": "x1", "y": "x2", "z": "s"}).embed(ring)
    g34 = theorem.G.rename({"x": "x3", "y": "x4", "z": "s"}).embed(ring)
    eliminant = resultant(g12, g34, "s")
    if eliminant.is_zero():
        raise PruningError("K eliminant vanished identically")
    eliminant = eliminant.restrict(("x4", "x3", "x2", "x1"))

    def point(u, v, w):
        """u, v, w and x1..x4 = phi(u), phi(v), phi(w), phi(t) with u + v = w + t."""
        t = u + v - w
        if not numeric.in_window(t):
            return None
        vals = [numeric.phi_eval(spec, arg) for arg in (u, v, w, t)]
        keys = ("u", "v", "w", "x1", "x2", "x3", "x4")
        return dict(zip(keys, (u, v, w, *vals))) if numeric.guarded(*vals) else None

    K = derive.graph_factor(
        eliminant, ("x1", "x2", "x3", "x4"),
        lambda prime: k_points_mod(spec, cfg, 301, prime), "K-relation factor",
    )
    degrees = tuple(K.degree_in(n) for n in ("x1", "x2", "x3", "x4"))
    if len(set(degrees)) != 1:
        raise DegreeLawError(f"K degrees differ across variables: {degrees}")
    lam = full_substitution_group(spec).lam
    expected = predicted_k_degree(1, theorem.law.nu, lam)
    if any(d != expected for d in degrees):
        raise DegreeLawError(
            f"K degrees {degrees} do not match m*nu^3/lambda = {expected} "
            f"(nu={theorem.law.nu}, lambda={lam}); the selected relation has "
            f"{len(K)} terms"
        )
    samples = numeric.sample(verify_samples, cfg, 303, 3, point)
    return KRelation(
        K=K,
        degrees=degrees,
        lam=lam,
        max_residual=numeric.certify(K, samples, cfg.tol)[0],
        samples=verify_samples,
        seed=cfg.seed,
    )


# ----------------------------------------------------------------------
# same addition theorem
# ----------------------------------------------------------------------


def _principal_root(k: int, c: Fraction) -> complex:
    """The root of alpha^k = c with the least argument in [0, 2*pi); a root
    on an axis gets an exact 0.0 part."""
    r = float(abs(c)) ** (1 / k)
    if c > 0:
        return complex(r, 0.0)
    if k <= 2:  # argument pi/k: -r or r*i
        return complex(0.0, r) if k == 2 else complex(-r, 0.0)
    return r * cmath.exp(1j * cmath.pi / k)


def _scaling_condition(spec_a: FuncSpec, spec_b: FuncSpec, weights) -> tuple | None:
    """(k, c) with phi_a(s^w . x) = phi_b(x) exactly for the roots of s^k = c,
    where x are the class variables with weights w; None when no s works.

    The roots form a coset of phi_a's multiplier group, so the square-free
    gcd of the conditions is a binomial (docs/decisions.md section 9)."""
    names = spec_a.uniformizer
    ring = ("s",) + names
    s = MPoly.var(ring, "s")
    scale = {n: s**w * MPoly.var(ring, n) for n, w in zip(names, weights)}
    na, da = (p.embed(ring).substitute(scale) for p in (spec_a.numerator, spec_a.denominator))
    nb, db = (p.embed(ring) for p in (spec_b.numerator, spec_b.denominator))
    conditions = [na * db - nb * da]
    if spec_a.cls is FunctionClass.ELLIPTIC:
        # curve a rescaled by s must be curve b, and phi_a must match on it
        curve = curve_polynomial(spec_b.g2, spec_b.g3).embed(ring)
        conditions = [rem_monic(conditions[0], curve, "q"),
                      spec_b.g2 * s**4 - spec_a.g2, spec_b.g3 * s**6 - spec_a.g3]
    for n in names:
        conditions = [c for poly in conditions for c in poly.coeffs_in(n)]
    g = reduce(mgcd, [c for c in conditions if c])
    if g.is_constant():
        return None
    coeffs = squarefree_part(g).coeffs_in("s")
    k = len(coeffs) - 1
    if not coeffs[0] or any(coeffs[1:k]):
        raise AddTheoError(f"scaling condition {g.to_text()} is not a binomial s^k - c")
    return k, -coeffs[0].constant_value() / coeffs[k].constant_value()


def _exact_alpha(spec_a: FuncSpec, spec_b: FuncSpec) -> complex | None:
    """An alpha with phi_a(alpha*u) = phi_b(u), or None when there is none."""
    if spec_a.cls is FunctionClass.RATIONAL_OF_EXP:
        # minimal uniformizers force t_a(alpha*u) = t_b(u)^r with r = +-1
        if spec_a.numerator * spec_b.denominator == spec_b.numerator * spec_a.denominator:
            r = 1
        elif _exp_inversion_condition(spec_a, spec_b).substitute({"c": 1}).is_zero():
            r = -1
        else:
            return None
        (a, b), (c, d) = spec_b.mu, spec_a.mu  # alpha = r*mu_b/mu_a
        n = r / (c * c + d * d)
        return complex(n * (a * c + b * d), n * (b * c - a * d))
    elliptic = spec_a.cls is FunctionClass.ELLIPTIC
    solved = _scaling_condition(spec_a, spec_b, (2, 3) if elliptic else (1,))
    if solved is None:
        return None
    k, c = solved
    return _principal_root(k, 1 / c if elliptic else c)  # elliptic solves s = 1/alpha


def same_theorem(spec_a: FuncSpec, spec_b: FuncSpec, cfg: numeric.EvalConfig,
                 verify_samples: int = 200) -> SameTheoremResult:
    """Decide whether two functions satisfy the same canonical theorem and,
    if so, solve exactly for a constant alpha with phi_a(alpha*u) = phi_b(u).
    Each G is certified on verify_samples complex points."""
    if spec_a.cls is not spec_b.cls:
        return SameTheoremResult(same=False)
    g_a, g_b = (derive_addition_theorem(s, cfg, verify_samples).G for s in (spec_a, spec_b))
    if g_a != g_b:
        return SameTheoremResult(same=False)
    alpha = _exact_alpha(spec_a, spec_b)
    if alpha is None:
        return SameTheoremResult(
            same=True,
            warning="the theorems agree, but the exact condition "
            "phi_a(alpha*u) = phi_b(u) has no root alpha",
        )
    return SameTheoremResult(same=True, alpha=alpha)
