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
* exponential class: a = -1 acts by t -> c/t, and phi(c/t) = phi(t) is the
  scaling condition between phi(1/t) and phi, whose one root is s = 1/c;
  c = 1 is the multiplier test;
* elliptic translations: for each minimal polynomial m(e) of the half-period
  p-coordinates, phi(u + b) is built once over (p, q, e) by the chord law,
  and phi(a*u + b) = phi(u) is the scaling condition between it and phi,
  solved like the multipliers; its roots s = 1/a are a coset s^k = +-1.

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
from functools import reduce
from typing import NamedTuple

from . import derive, factor, numeric
from .errors import AddTheoError, DegreeLawError
from .funcspec import FuncSpec, FunctionClass, curve_polynomial, order
from .poly import MPoly, rem_monic
from .resultants import mgcd, resultant, squarefree_part


def _unity_group(g: int):
    """All g-th roots of unity as (order, primitive index) descriptors:
    (k, j) stands for exp(2*pi*i*j/k)."""
    out = []
    for m in range(g):
        d = math.gcd(m, g)
        out.append((g // d, m // d))
    return tuple(sorted(set(out)))


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


def multiplier_group(spec: FuncSpec) -> SymmetryReport:
    """All constants a with phi(a*u) = phi(u), found exactly; lambda0 is
    their count."""
    if spec.cls is FunctionClass.RATIONAL_OF_EXP:
        # a = -1 is t -> 1/t, the only multiplier besides 1
        k = 2 if _inversion(spec, spec) == 1 else 1
    else:
        # the reflexive scaling condition: its roots are the multiplier group
        # itself, so the square-free gcd is s^lambda0 - 1 (docs/decisions.md
        # section 9)
        k, _ = _scaling_condition(spec, spec)
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


def _half_period_translate(spec: FuncSpec, minpoly) -> FuncSpec:
    """phi(u + b) over (p, q, e) for a half-period b whose p-coordinate e has
    the given minimal polynomial: the chord law with wp'(b) = 0, q reduced
    modulo the curve and e modulo the minimal polynomial."""
    ring = ("p", "q", "e")
    p, q, e = (MPoly.var(ring, n) for n in ring)
    a1 = e * p + 2 * e**2 - spec.g2 / 4  # p'' numerator
    a2 = -q * (3 * e**2 - spec.g2 / 4)  # q'' numerator
    base = p - e  # p'' denominator; q'' uses its square
    L = max(m[0] + 2 * m[1] for poly in (spec.numerator, spec.denominator) for m, _ in poly.items())
    curve, minpoly = curve_polynomial(spec.g2, spec.g3).embed(ring), minpoly.embed(ring)

    def hat(src):  # base^L * src(a1/base, a2/base^2)
        weighted = MPoly(("p", "q", "h"), {(a, b, L - a - 2 * b): c for (a, b), c in src.items()})
        translated = weighted.substitute({"p": a1, "q": a2, "h": base})
        return rem_monic(rem_monic(translated, curve, "q"), minpoly, "e")

    return spec._replace(numerator=hat(spec.numerator), denominator=hat(spec.denominator))


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
        # a = -1 with b != 0 is t -> c/t
        lam = 2 if _inversion(spec, spec) is not None else 1
        return base._replace(
            group_alphas=_unity_group(lam), lam=lam,
            beta_search="roots of unity of order dividing the exponent gcd",
        )
    # phi(a*u + b) = phi(u) is the scaling condition between phi(u + b) and
    # phi; its roots s = 1/a are a coset s^k = c with c = +-1, which joins
    # mu_k to the group when c = 1 and mu_2k when c = -1 (docs/decisions.md
    # section 9)
    alphas = set(base.multipliers)
    for minpoly in _half_period_minimal_polys(spec.g2, spec.g3):
        solved = _scaling_condition(_half_period_translate(spec, minpoly), spec)
        if solved is not None:
            k, c = solved
            alphas.update(_unity_group(k if c == 1 else 2 * k))
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


def k_point(f: numeric.Residues, a, b, c):
    """The exact K point phi(a), phi(b), phi(c), phi(a + b - c) mod p."""
    return tuple(f.phi(v) for v in (a, b, c, f.add(f.add(a, b), f.neg(c))))


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
    # nonzero: a common factor of the two would lie in s alone, and the
    # irreducible G, of equal positive degrees, has none
    eliminant = resultant(g12, g34, "s").restrict(("x4", "x3", "x2", "x1"))

    def point(u, v, w):
        """u, v, w and x1..x4 = phi(u), phi(v), phi(w), phi(t) with u + v = w + t."""
        t = u + v - w
        if not numeric.in_window(t):
            return None
        vals = [numeric.phi_eval(spec, arg) for arg in (u, v, w, t)]
        keys = ("u", "v", "w", "x1", "x2", "x3", "x4")
        return dict(zip(keys, (u, v, w, *vals))) if numeric.guarded(*vals) else None

    pairs = numeric.exact_points(spec, cfg, 301, 3, k_point)
    K = derive.graph_factor(eliminant, ("x1", "x2", "x3", "x4"), pairs, "K-relation factor")
    degrees = tuple(K.degree_in(n) for n in ("x1", "x2", "x3", "x4"))
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


def _scaling_condition(spec_a: FuncSpec, spec_b: FuncSpec) -> tuple | None:
    """(k, c) with phi_a(s^w . x) = phi_b(x) exactly for the roots of s^k = c,
    where x are the class variables with weights w = 1 on u or (2, 3) on
    (p, q); None when no s works.  phi_a may also carry a half-period's e,
    reduced below the degree of its minimal polynomial m; the condition is
    split in e too, so it holds at every root of m.

    The roots form a coset of phi_a's multiplier group, so the square-free
    gcd of the conditions is a binomial (docs/decisions.md section 9)."""
    ring = ("s",) + spec_a.numerator.variables
    s = MPoly.var(ring, "s")
    weights = (2, 3) if spec_a.cls is FunctionClass.ELLIPTIC else (1,)
    scale = {n: s**w * MPoly.var(ring, n) for n, w in zip(spec_a.uniformizer, weights)}
    na, da = (p.embed(ring).substitute(scale) for p in (spec_a.numerator, spec_a.denominator))
    nb, db = (p.embed(ring) for p in (spec_b.numerator, spec_b.denominator))
    conditions = [na * db - nb * da]
    if spec_a.cls is FunctionClass.ELLIPTIC:
        # curve a rescaled by s must be curve b, and phi_a must match on it
        curve = curve_polynomial(spec_b.g2, spec_b.g3).embed(ring)
        conditions = [rem_monic(conditions[0], curve, "q"),
                      spec_b.g2 * s**4 - spec_a.g2, spec_b.g3 * s**6 - spec_a.g3]
    for n in ring[1:]:
        conditions = [c for poly in conditions for c in poly.coeffs_in(n)]
    g = reduce(mgcd, [c for c in conditions if c])
    if g.is_constant():
        return None
    coeffs = squarefree_part(g).coeffs_in("s")
    k = len(coeffs) - 1
    if not coeffs[0] or any(coeffs[1:k]):
        raise AddTheoError(f"scaling condition {g.to_text()} is not a binomial s^k - c")
    return k, -coeffs[0].constant_value() / coeffs[k].constant_value()


def _inversion(spec_a: FuncSpec, spec_b: FuncSpec) -> Fraction | None:
    """The c with phi_a(c/t) = phi_b(t) for exp specs, or None: the root
    s = 1/c of the scaling condition between phi_a(1/t) and phi_b.  Its roots
    are a coset of the multipliers t -> zeta*t of phi_a(1/t), and only
    zeta = 1 fixes a coprime N/D of exponent gcd 1, so there is one root."""
    nu = order(spec_a)

    def reverse(poly):  # t^nu * poly(1/t)
        return MPoly(("t",), {(nu - m[0],): co for m, co in poly.items()})

    flipped = spec_a._replace(numerator=reverse(spec_a.numerator),
                              denominator=reverse(spec_a.denominator))
    solved = _scaling_condition(flipped, spec_b)
    return None if solved is None else 1 / solved[1]


def _exact_alpha(spec_a: FuncSpec, spec_b: FuncSpec) -> complex | None:
    """An alpha with phi_a(alpha*u) = phi_b(u), or None when there is none."""
    if spec_a.cls is FunctionClass.RATIONAL_OF_EXP:
        # minimal uniformizers force t_a(alpha*u) = t_b(u)^r with r = +-1
        if spec_a.numerator * spec_b.denominator == spec_b.numerator * spec_a.denominator:
            r = 1
        elif _inversion(spec_a, spec_b) == 1:
            r = -1
        else:
            return None
        (a, b), (c, d) = spec_b.mu, spec_a.mu  # alpha = r*mu_b/mu_a
        n = r / (c * c + d * d)
        return complex(n * (a * c + b * d), n * (b * c - a * d))
    elliptic = spec_a.cls is FunctionClass.ELLIPTIC
    solved = _scaling_condition(spec_a, spec_b)
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
