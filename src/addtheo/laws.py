"""Symmetry groups, degree predictions, the K-relation, and comparisons.

Multipliers are the constants a with phi(a*u) = phi(u); their count is
lambda0.  The full substitution group extends the search to u' = a*u + b.
Both searches are exact:

* rational class: a is a root of unity whose order divides the gcd of all
  exponent differences across numerator and denominator (coprime numerator
  and denominator force termwise proportionality, so invariance is an exact
  congruence condition on exponents);
* exponential class: a = -1 acts by t -> c/t; candidate constants c are roots
  of unity of order dividing the exponent-difference gcd, handled symbolically
  through their cyclotomic minimal polynomials;
* elliptic class: scalings act on (p, q) with weights (2, 3), so invariance
  under a lattice-allowed root of unity is a congruence condition on monomial
  weights; half-period translations act through the chord law with the root e
  of 4T^3 - g2 T - g3 carried symbolically via its minimal polynomial.

Degree predictions follow m*nu^2/lambda0 for the addition theorem and
m*nu^3/lambda for the four-variable K-relation (docs/decisions.md, section 2).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .derive import AdditionTheorem, certify, derive_addition_theorem, graph_factor
from .errors import AddTheoError, DegreeLawError, PruningError, SamplingError
from .factor import factor_univariate_q
from .funcspec import FuncSpec, FunctionClass, curve_polynomial, order
from .numeric import (
    EXACT_POINTS,
    EvalConfig,
    class_tolerance,
    guarded,
    in_window,
    phi_eval,
    sample,
    sample_mod,
)
from .poly import MPoly, divide_exact, rem_monic
from .resultants import resultant

Q = Fraction


# ----------------------------------------------------------------------
# root-of-unity descriptors: (order k, index j) stands for exp(2*pi*i*j/k)
# ----------------------------------------------------------------------


def alpha_complex(descriptor) -> complex:
    k, j = descriptor
    return cmath.exp(2j * cmath.pi * j / k)


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

    def to_json_dict(self):
        return {
            "multipliers": [list(a) for a in self.multipliers],
            "lambda0": self.lambda0,
            "group_alphas": None
            if self.group_alphas is None
            else [list(a) for a in self.group_alphas],
            "lambda": self.lam,
            "beta_search": self.beta_search,
        }


class DegreeReport(NamedTuple):
    m: int
    nu: int
    lambda0: int
    predicted: int
    actual: tuple | None = None

    def to_json_dict(self):
        return {
            "m": self.m,
            "nu": self.nu,
            "lambda0": self.lambda0,
            "predicted": self.predicted,
            "actual": None if self.actual is None else list(self.actual),
        }


class KRelation(NamedTuple):
    K: MPoly
    degrees: tuple
    lam: int
    max_residual: float
    samples: int
    seed: int

    def to_json_dict(self):
        return {
            "K": self.K.to_text(),
            "degrees": list(self.degrees),
            "lambda": self.lam,
            "max_residual": self.max_residual,
            "samples": self.samples,
            "seed": self.seed,
        }


class SameTheoremResult(NamedTuple):
    same: bool
    alpha: complex | None = None
    residual: float | None = None
    warning: str | None = None

    def to_json_dict(self):
        return {
            "same": self.same,
            "alpha": None
            if self.alpha is None
            else [self.alpha.real, self.alpha.imag],
            "residual": self.residual,
            "warning": self.warning,
        }


# ----------------------------------------------------------------------
# multipliers (lambda0)
# ----------------------------------------------------------------------


def _exponent_diff_gcd(spec: FuncSpec) -> int:
    exps = []
    for poly in (spec.numerator, spec.denominator):
        exps.extend(m[0] for m, _ in poly.items())
    base = exps[0]
    g = 0
    for e in exps[1:]:
        g = math.gcd(g, e - base)
    return g if g > 0 else 1


def _exp_inversion_invariant(num: MPoly, den: MPoly) -> bool:
    """Exact test of phi(1/t) = phi(t) for a reduced fraction over Q[t]."""
    ring = num.variables
    t = MPoly.var(ring, "t")
    dn, dd = num.total_degree(), den.total_degree()
    rev_n = MPoly(ring, {(dn - m[0],): c for m, c in num.items()})
    rev_d = MPoly(ring, {(dd - m[0],): c for m, c in den.items()})
    lhs = num * rev_d
    rhs = rev_n * den
    if dd >= dn:
        rhs = rhs * t ** (dd - dn)
    else:
        lhs = lhs * t ** (dn - dd)
    return lhs == rhs


def _elliptic_weight_gcd(spec: FuncSpec) -> int:
    weights = []
    for poly in (spec.numerator, spec.denominator):
        for m, _ in poly.items():
            weights.append(2 * m[0] + 3 * m[1])
    base = weights[0]
    g = 0
    for w in weights[1:]:
        g = math.gcd(g, w - base)
    return g  # 0 means every candidate order divides


def _elliptic_allowed_orders(spec: FuncSpec):
    orders = [1, 2]
    if spec.g3 == 0:
        orders.append(4)
    if spec.g2 == 0:
        orders.extend([3, 6])
    return orders


_PRIMITIVE = {1: [0], 2: [1], 3: [1, 2], 4: [1, 3], 6: [1, 5]}


def multiplier_group(spec: FuncSpec) -> SymmetryReport:
    """All constants a with phi(a*u) = phi(u), found exactly; lambda0 is
    their count."""
    if spec.cls is FunctionClass.RATIONAL_OF_U:
        g = _exponent_diff_gcd(spec)
        return SymmetryReport(multipliers=_unity_group(g), lambda0=g)
    if spec.cls is FunctionClass.RATIONAL_OF_EXP:
        if _exp_inversion_invariant(spec.numerator, spec.denominator):
            return SymmetryReport(multipliers=((1, 0), (2, 1)), lambda0=2)
        return SymmetryReport(multipliers=((1, 0),), lambda0=1)
    d = _elliptic_weight_gcd(spec)
    mults = []
    for k in _elliptic_allowed_orders(spec):
        if d % k == 0:
            mults.extend((k, j) for j in _PRIMITIVE[k])
    mults = tuple(sorted(mults))
    lam0 = len(mults)
    if lam0 not in (1, 2, 3, 4, 6):
        raise AddTheoError(f"lambda0 = {lam0} outside the doubly periodic set")
    return SymmetryReport(multipliers=mults, lambda0=lam0)


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


def _exp_twisted_inversion(spec: FuncSpec, c_order: int) -> bool:
    """Exact test of phi(c/t) = phi(t) for c a primitive c_order-th root of
    unity, carried symbolically modulo its cyclotomic polynomial."""
    ring = ("t", "c")
    num = spec.numerator.embed(ring)
    den = spec.denominator.embed(ring)
    t = MPoly.var(ring, "t")
    c = MPoly.var(ring, "c")
    dn = num.degree_in("t")
    dd = den.degree_in("t")
    tw_n = MPoly.zero(ring)
    for m, coeff in spec.numerator.items():
        tw_n = tw_n + coeff * c ** m[0] * t ** (dn - m[0])
    tw_d = MPoly.zero(ring)
    for m, coeff in spec.denominator.items():
        tw_d = tw_d + coeff * c ** m[0] * t ** (dd - m[0])
    lhs = num * tw_d
    rhs = tw_n * den
    if dd >= dn:
        rhs = rhs * t ** (dd - dn)
    else:
        lhs = lhs * t ** (dn - dd)
    condition = lhs - rhs
    condition = rem_monic(condition, _cyclotomic_mpoly(c_order, ring, "c"), "c")
    return condition.is_zero()


def _half_period_minimal_polys(g2: Fraction, g3: Fraction):
    """Irreducible monic minimal polynomials of the roots of
    T^3 - (g2/4) T - (g3/4) (the half-period p-coordinates)."""
    cubic = [-g3 / 4, -g2 / 4, Q(0), Q(1)]
    out = []
    for f in factor_univariate_q(cubic):
        lead = Q(f[-1])
        out.append([Q(c) / lead for c in f])
    return out


def _elliptic_substitution_invariant(spec: FuncSpec, k: int, j: int, minpoly) -> bool:
    """Exact test of phi(a*u + b) = phi(u) for a = exp(2*pi*i*j/k) and b a
    half-period whose p-coordinate e has the given minimal polynomial (None
    tests b = 0).  The scalars a^-2, a^-3 are powers of a symbol w reduced
    modulo the k-th cyclotomic polynomial; e is reduced modulo its minimal
    polynomial; q-powers are reduced modulo the curve."""
    if minpoly is None and k in (1, 2):
        # rational scalars, plain weight test
        d = _elliptic_weight_gcd(spec)
        return d % k == 0
    ring = ("p", "q", "e", "w")
    g2, g3 = spec.g2, spec.g3
    num = spec.numerator.embed(ring)
    den = spec.denominator.embed(ring)
    p = MPoly.var(ring, "p")
    q = MPoly.var(ring, "q")
    w = MPoly.var(ring, "w")
    sp = w ** ((-2 * j) % k) if k > 2 else MPoly.const(ring, 1 if k == 1 else 1)
    sq = w ** ((-3 * j) % k) if k > 2 else MPoly.const(ring, 1 if k == 1 else -1)
    P = sp * p
    Qv = sq * q

    def reduce_all(poly):
        poly = rem_monic(poly, curve_polynomial(g2, g3).embed(ring), "q")
        if minpoly is not None:
            mp = MPoly.from_coeffs(ring, "e", list(minpoly))
            poly = rem_monic(poly, mp, "e")
        if k > 2:
            poly = rem_monic(poly, _cyclotomic_mpoly(k, ring, "w"), "w")
        return poly

    if minpoly is None:
        num_hat = num.substitute({"p": P, "q": Qv})
        den_hat = den.substitute({"p": P, "q": Qv})
    else:
        e = MPoly.var(ring, "e")
        shift = 3 * e**2 - MPoly.const(ring, g2 / 4)
        a1 = e * P + 2 * e**2 - MPoly.const(ring, g2 / 4)  # p'' numerator
        a2 = -Qv * shift  # q'' numerator
        base = P - e  # p'' denominator; q'' uses its square
        exps = set()
        for poly in (spec.numerator, spec.denominator):
            for m, _ in poly.items():
                exps.add(m[0] + 2 * m[1])
        L = max(exps)

        def hat(src):
            acc = MPoly.zero(ring)
            for m, coeff in src.items():
                a, b = m[0], m[1]
                term = coeff * a1**a * a2**b * base ** (L - a - 2 * b)
                acc = acc + term
            return reduce_all(acc)

        num_hat = hat(spec.numerator)
        den_hat = hat(spec.denominator)
    condition = reduce_all(num_hat * den - num * den_hat)
    return condition.is_zero()


def full_substitution_group(spec: FuncSpec) -> SymmetryReport:
    """Extend the multiplier search to substitutions u' = a*u + b."""
    base = multiplier_group(spec)
    if spec.cls is FunctionClass.RATIONAL_OF_U:
        # a nonconstant rational function admits no translation symmetry
        return base._replace(
            group_alphas=base.multipliers,
            lam=max(k for k, _ in base.multipliers),
            beta_search="none (translation-free class)",
        )
    if spec.cls is FunctionClass.RATIONAL_OF_EXP:
        g = _exponent_diff_gcd(spec)
        inverted = any(
            _exp_twisted_inversion(spec, korder)
            for korder in sorted({d for d in range(1, g + 1) if g % d == 0})
        )
        alphas = ((1, 0), (2, 1)) if inverted else ((1, 0),)
        lam = 2 if inverted else 1
        return base._replace(
            group_alphas=alphas,
            lam=lam,
            beta_search="roots of unity of order dividing the exponent gcd",
        )
    minpolys = [None] + _half_period_minimal_polys(spec.g2, spec.g3)
    alphas = []
    for k in _elliptic_allowed_orders(spec):
        for j in _PRIMITIVE[k]:
            if any(
                _elliptic_substitution_invariant(spec, k, j, mp) for mp in minpolys
            ):
                alphas.append((k, j))
    alphas = tuple(sorted(alphas))
    lam = max(k for k, _ in alphas)
    if lam % base.lambda0 != 0:
        raise AddTheoError(
            f"substitution search returned lambda = {lam} not divisible by "
            f"lambda0 = {base.lambda0}"
        )
    return base._replace(group_alphas=alphas, lam=lam, beta_search="2-division")


# ----------------------------------------------------------------------
# degree report
# ----------------------------------------------------------------------


def degree_report(spec: FuncSpec, theorem: AdditionTheorem | None = None) -> DegreeReport:
    nu = order(spec).nu
    lam0 = multiplier_group(spec).lambda0
    predicted = predicted_degree(1, nu, lam0)
    actual = None
    if theorem is not None:
        actual = (theorem.deg_x, theorem.deg_y, theorem.deg_z)
    return DegreeReport(m=1, nu=nu, lambda0=lam0, predicted=predicted, actual=actual)


# ----------------------------------------------------------------------
# K-relation
# ----------------------------------------------------------------------


def k_points_mod(spec: FuncSpec, cfg: EvalConfig, salt: int, prime: int, n: int = EXACT_POINTS):
    """Exact quadruples phi(a), phi(b), phi(c), phi(a + b - c) mod prime, or
    None when prime is bad for spec."""

    def point(f, a, b, c):
        return tuple(f.phi(v) for v in (a, b, c, f.add(f.add(a, b), f.neg(c))))

    return sample_mod(spec, cfg, salt, 3, point, prime, n)


def k_relation(
    theorem: AdditionTheorem,
    spec: FuncSpec,
    cfg: EvalConfig | None = None,
    verify_samples: int = 200,
) -> KRelation:
    """The origin-independent relation among phi(u), phi(v), phi(w), phi(t)
    under u + v = w + t.

    Its per-variable degrees must agree and equal m*nu^3/lambda; otherwise
    DegreeLawError is raised before the relation is certified."""
    if cfg is None:
        cfg = EvalConfig(tol=class_tolerance(spec))
    ring = ("x4", "x3", "x2", "x1", "s")
    g12 = theorem.G.rename({"x": "x1", "y": "x2", "z": "s"}).embed(ring)
    g34 = theorem.G.rename({"x": "x3", "y": "x4", "z": "s"}).embed(ring)
    eliminant = resultant(g12, g34, "s")
    if eliminant.is_zero():
        raise PruningError("K eliminant vanished identically")
    eliminant = eliminant.restrict(("x4", "x3", "x2", "x1"))

    def point(u, v, w):
        """Quadruples phi(u), phi(v), phi(w), phi(t) with u + v = w + t."""
        t = u + v - w
        if not in_window(t, cfg):
            return None
        vals = [phi_eval(spec, arg, cfg) for arg in (u, v, w, t)]
        return dict(zip(("x1", "x2", "x3", "x4"), vals)) if guarded(cfg, *vals) else None

    K = graph_factor(
        eliminant, ("x1", "x2", "x3", "x4"),
        lambda prime: k_points_mod(spec, cfg, 301, prime), "K-relation factor",
    )
    degrees = tuple(K.degree_in(n) for n in ("x1", "x2", "x3", "x4"))
    if len(set(degrees)) != 1:
        raise DegreeLawError(f"K degrees differ across variables: {degrees}")
    lam = full_substitution_group(spec).lam
    nu = theorem.nu if theorem.nu is not None else order(spec).nu
    expected = predicted_k_degree(1, nu, lam)
    if any(d != expected for d in degrees):
        raise DegreeLawError(
            f"K degrees {degrees} do not match m*nu^3/lambda = {expected} "
            f"(nu={nu}, lambda={lam}); the selected relation has "
            f"{len(K)} terms"
        )
    max_res = certify(K, sample(verify_samples, cfg, 303, 3, point), cfg.tol, "K")
    return KRelation(
        K=K,
        degrees=degrees,
        lam=lam,
        max_residual=max_res,
        samples=verify_samples,
        seed=cfg.seed,
    )


# ----------------------------------------------------------------------
# same addition theorem
# ----------------------------------------------------------------------


def _alpha_residual(spec_a, spec_b, alpha, cfg, n=20):
    lo, hi = cfg.sample_radius
    mag = abs(alpha)
    if not (lo / hi <= mag <= hi / lo):
        return None
    r_lo = lo / min(1.0, mag)
    r_hi = hi / max(1.0, mag)
    if r_lo >= r_hi:
        return None

    def point(u):
        fa = phi_eval(spec_a, alpha * u, cfg)
        fb = phi_eval(spec_b, u, cfg)
        return abs(fa - fb) if guarded(cfg, fa, fb) else None

    try:
        return max(sample(n, cfg, 401, 1, point, radius=(r_lo, r_hi)))
    except SamplingError:
        return None


def _local_order_and_coeff(spec, cfg, eps=0.06):
    """Estimate phi(u) ~ c*u^m near zero (m may be negative or zero)."""
    f1 = phi_eval(spec, eps, cfg)
    f2 = phi_eval(spec, 2 * eps, cfg)
    if abs(f1) < 1e-12 and abs(f2) < 1e-12:
        return None
    ratio = f2 / f1
    m = round((cmath.log(ratio) / math.log(2)).real)
    if m == 0:
        # subtract the constant term and look at the next order
        a0 = 2 * f1 - f2
        g1 = f1 - a0
        g2v = f2 - a0
        if abs(g1) < 1e-12 or abs(g2v) < 1e-12:
            return (0, a0)
        m2 = round((cmath.log(g2v / g1) / math.log(2)).real)
        c = g1 / eps**m2
        return (m2, c, a0)
    c = f1 / eps**m
    return (m, c)


def _alpha_seeds(spec_a, spec_b, cfg):
    seeds = [1 + 0j]
    try:
        la = _local_order_and_coeff(spec_a, cfg)
        lb = _local_order_and_coeff(spec_b, cfg)
    except AddTheoError:
        la = lb = None
    if la is not None and lb is not None and len(la) == len(lb):
        if len(la) == 3:
            m, ca, _ = la
            _, cb, _ = lb
        else:
            m, ca = la
            _, cb = lb
        if m != 0 and abs(ca) > 1e-12:
            base = (cb / ca) ** (1.0 / m)
            for rot in range(abs(m)):
                seeds.append(base * cmath.exp(2j * cmath.pi * rot / m))
    seeds.extend([2 + 0j, 0.5 + 0j, -1 + 0j, 1j, -1j, 2j, -0.5j])
    return seeds


def _polish_alpha(spec_a, spec_b, alpha0, cfg):
    """Secant refinement of phi_a(alpha*u0) = phi_b(u0)."""
    lo, hi = cfg.sample_radius
    mag = max(abs(alpha0), 1e-6)
    r = min(hi / max(1.0, mag) * 0.9, (lo + hi) / 2)
    if r < lo:
        return None
    u0 = r * cmath.exp(0.37j)

    def f(a):
        return phi_eval(spec_a, a * u0, cfg) - phi_eval(spec_b, u0, cfg)

    a0, a1 = alpha0, alpha0 * (1 + 1e-6) + 1e-9
    try:
        f0, f1 = f(a0), f(a1)
        for _ in range(60):
            if abs(f1 - f0) < 1e-300:
                break
            a2 = a1 - f1 * (a1 - a0) / (f1 - f0)
            if not (lo / hi <= abs(a2) <= hi / lo):
                return None
            a0, f0 = a1, f1
            a1 = a2
            f1 = f(a1)
            if abs(f1) < 1e-13:
                break
        return a1
    except AddTheoError:
        return None


def same_theorem(spec_a: FuncSpec, spec_b: FuncSpec, cfg: EvalConfig | None = None) -> SameTheoremResult:
    """Decide whether two functions satisfy the same canonical theorem and,
    if so, estimate the constant a with phi_a(a*u) = phi_b(u)."""
    if spec_a.cls is not spec_b.cls:
        return SameTheoremResult(same=False)
    if cfg is None:
        cfg = EvalConfig(tol=class_tolerance(spec_a))
    ta = derive_addition_theorem(spec_a, cfg)
    tb = derive_addition_theorem(spec_b, cfg)
    if ta.G != tb.G:
        return SameTheoremResult(same=False)
    best = None
    for seed_alpha in _alpha_seeds(spec_a, spec_b, cfg):
        alpha = _polish_alpha(spec_a, spec_b, seed_alpha, cfg)
        if alpha is None:
            continue
        residual = _alpha_residual(spec_a, spec_b, alpha, cfg)
        if residual is not None and residual < 1e-7:
            if best is None or residual < best[1]:
                best = (alpha, residual)
    if best is None:
        return SameTheoremResult(
            same=True,
            warning="the theorem guarantees a multiplier exists, but the "
            "numeric search did not converge",
        )
    return SameTheoremResult(same=True, alpha=best[0], residual=best[1])


def check_rational_expressibility(spec: FuncSpec, cfg: EvalConfig | None = None) -> bool:
    """True iff phi(u+v) is a rational function of phi(u), phi(v) alone,
    i.e. the derived theorem is linear in the sum slot (which forces
    m = nu = 1)."""
    theorem = derive_addition_theorem(spec, cfg)
    expressible = theorem.deg_z == 1
    if expressible and theorem.nu != 1:
        raise AddTheoError(
            f"degree 1 theorem with nu = {theorem.nu}: internal inconsistency"
        )
    return expressible
