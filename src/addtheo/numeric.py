"""Complex evaluation of the supported function classes and graph sampling.

The Weierstrass function is evaluated through its Laurent expansion around the
origin,

    wp(u) = 1/u^2 + sum_{k>=2} c_k u^(2k-2),
    c_2 = g2/20,  c_3 = g3/28,
    c_k = 3 / ((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_{k-m}   for k >= 4,

truncated at SERIES_TERMS terms, with wp and wp' summed in one pass.  Sampling
is restricted to a radius window where the truncation error is far below the
identity tolerances, so no period computation is ever needed.
All randomness is derived from an explicit seed, per sample index, so runs are
reproducible and could be parallelized without changing results.

The same sampler draws exact points mod a prime (`Residues`, `sample_mod`):
there the uniformizer is an element of Z/p or a point of the curve over Z/p,
u + v is the group law, and phi is evaluated exactly.  Factor selection uses
these points.  Complex samples, dicts of values by name, only certify: one
routine, `certify`, gives the largest relative residual of a derived G, its K
or a user's candidate and fails it at `tol` (docs/decisions.md sections 1
and 7).
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import AddTheoError, SamplingError, VerificationError
from .funcspec import FuncSpec, FunctionClass

Q = Fraction


# The sampling method is part of the output contract (docs/decisions.md
# section 1): every max_residual in a --json report depends on the first three.
# Each is read at call time.
SERIES_TERMS = 30
SAMPLE_RADIUS = (0.05, 0.25)
POLE_GUARD = 1e6
# exact points per prime; a wrong factor vanishes at one with probability about deg/p
EXACT_POINTS = 8


class _EvalFields(NamedTuple):
    tol: float = 1e-9
    seed: int = 0


class EvalConfig(_EvalFields):
    """The certification tolerance and the seed, range-checked on
    construction (`_replace` skips the check)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0 < self.tol < 1):
            raise AddTheoError("tol must lie in (0, 1)")
        return self


@lru_cache(maxsize=64)
def _wp_table(g2, g3, terms: int):
    """(c_k, (2k-2)*c_k) as complex pairs for k = 2 .. terms, from the exact
    Laurent coefficients."""
    g2, g3 = Q(g2), Q(g3)
    c = {2: g2 / 20, 3: g3 / 28}
    for k in range(4, terms + 1):
        acc = Q(0)
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = acc * Q(3, (2 * k + 1) * (k - 3))
    table = []
    for k in range(2, terms + 1):
        ck = complex(c[k])
        table.append((ck, (2 * k - 2) * ck))
    return tuple(table)


def _check_range(u: complex):
    if u == 0:
        raise AddTheoError("wp pole at u = 0")
    lo, hi = SAMPLE_RADIUS
    r = abs(u)
    if r < lo * 0.5 or r > hi * 1.0000001:
        raise AddTheoError(
            f"|u| = {r:.4g} outside the evaluation range [{lo}, {hi}]"
        )


def wp_pair(g2, g3, u: complex):
    """(wp(u), wp'(u)) for invariants (g2, g3) from one pass over the
    truncated Laurent series and its termwise derivative."""
    _check_range(u)
    u2 = u * u
    wp = 1 / u2
    dwp = -2 / (u * u * u)
    upow, dpow = u2, u
    for c, dc in _wp_table(g2, g3, SERIES_TERMS):
        wp += c * upow
        upow *= u2
        dwp += dc * dpow
        dpow *= u2
    return wp, dwp


def phi_eval(spec: FuncSpec, u: complex) -> complex:
    """Evaluate phi at u; raises near poles so callers can resample."""
    if spec.cls is FunctionClass.RATIONAL_OF_U:
        point = {"u": u}
    elif spec.cls is FunctionClass.RATIONAL_OF_EXP:
        point = {"t": cmath.exp(spec.mu_value * u)}
    else:
        pval, qval = wp_pair(spec.g2, spec.g3, u)
        point = {"p": pval, "q": qval}
    den = spec.denominator.evaluate_with_magnitude(point)[0]
    if abs(den) < 1e-12:
        raise AddTheoError("phi evaluated too close to a pole")
    return spec.numerator.evaluate_with_magnitude(point)[0] / den


def _draw(rng, lo: float, hi: float) -> complex:
    r = lo + (hi - lo) * rng.random()
    theta = 2 * cmath.pi * rng.random()
    return r * cmath.exp(1j * theta)


def in_window(s: complex) -> bool:
    """True when |s| lies in the sampling radius window."""
    lo, hi = SAMPLE_RADIUS
    return lo <= abs(s) <= hi


def guarded(*values) -> bool:
    """The pole-guard test: True when every value stays within the guard."""
    return all(abs(v) <= POLE_GUARD for v in values)


def sample(n: int, cfg: EvalConfig, salt: int, arity: int, point, draw=None):
    """Draw n deterministic points, each built as point(*draws) from `arity`
    arguments.  An argument is draw(rng) when draw is given, else a complex
    number in the radius window SAMPLE_RADIUS.

    Index i draws from its own stream seeded by (seed, salt, i), so the list
    does not depend on evaluation order.  draw or point rejects a draw by
    raising AddTheoError, or point by returning None (a window or pole-guard
    rejection), and the index then draws again from its stream; more than
    100*n + 1000 draws in all raise SamplingError naming the last rejection.
    """
    if n < 1:
        raise AddTheoError("sample count must be positive")
    if draw is None:
        lo, hi = SAMPLE_RADIUS

        def draw(rng):
            # _draw is looked up per call, so perfbench's tracer sees each one
            return _draw(rng, lo, hi)

    out = []
    budget = 100 * n + 1000
    for i in range(n):
        rng = random.Random(f"{cfg.seed}:{salt}:{i}")
        while True:
            budget -= 1
            if budget < 0:
                raise SamplingError(last)
            try:
                pt = point(*[draw(rng) for _ in range(arity)])
            except AddTheoError as err:
                last = f"every draw was rejected, the last by: {err}"
                continue
            if pt is not None:
                out.append(pt)
                break
            last = "spec has dense poles in sampling window"
    return out


def sample_graph(spec: FuncSpec, n: int, cfg: EvalConfig, salt: int):
    """Draw n deterministic samples, dicts of u, v and x, y, z = phi(u),
    phi(v), phi(u+v).

    Draws whose sum leaves the radius window, whose arguments nearly
    coincide, or that land near poles are rejected.
    """

    def point(u, v):
        s = u + v
        if not in_window(s) or abs(u - v) < 1e-3:
            return None
        x, y, z = (phi_eval(spec, arg) for arg in (u, v, s))
        return {"u": u, "v": v, "x": x, "y": y, "z": z} if guarded(x, y, z) else None

    return sample(n, cfg, salt, 2, point)


def relative_residual(poly, point) -> float:
    """|poly(point)| scaled by the largest single-term contribution; inf when
    float overflow leaves no ratio (inf/inf), so certification fails."""
    value, scale = poly.evaluate_with_magnitude(point)
    res = abs(value) / max(scale, 1e-300)
    return res if res == res else cmath.inf


def fmt_complex(z: complex) -> str:
    """z to six significant digits, a part below 5e-7 left out."""
    re, im = z.real, z.imag
    if abs(im) < 5e-7:
        return f"{re:.6g}"
    if abs(re) < 5e-7:
        return f"{im:.6g}i"
    sign = "+" if im >= 0 else "-"
    return f"{re:.6g}{sign}{abs(im):.6g}i"


def certify(g, samples, tol: float):
    """(largest relative residual of g, the first sample reaching it) over
    samples, dicts of values by name; VerificationError unless the residual
    stays below tol, naming that sample's drawn u, v and, for K, w."""
    max_res, worst = -1.0, None
    for s in samples:
        res = relative_residual(g, s)
        if res > max_res:
            max_res, worst = res, s
    if max_res >= tol:
        at = " ".join(f"{k}={fmt_complex(worst[k])}" for k in ("u", "v", "w") if k in worst)
        raise VerificationError(f"max_residual={max_res:.3e} exceeds tol={tol:.1e} at {at}")
    return max_res, worst


def class_tolerance(spec: FuncSpec, override=None) -> float:
    """Default identity tolerance: 1e-9 in general, 1e-6 for the high-degree
    elliptic eliminants.  An explicit override wins."""
    if override is not None:
        return override
    return 1e-6 if spec.cls is FunctionClass.ELLIPTIC else 1e-9


# ----------------------------------------------------------------------
# exact points mod p (docs/decisions.md section 7)
# ----------------------------------------------------------------------

# Mersenne primes, tried in this order; each is 3 mod 4, so a square root
# mod p is one pow
PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


def bad_prime(spec: FuncSpec, prime: int) -> bool:
    """True when phi, g2 or g3 has no reduction mod prime: the prime divides
    a coefficient denominator, every coefficient of phi's numerator or
    denominator, or the discriminant g2^3 - 27*g3^2."""
    values = [spec.numerator.content(), spec.denominator.content()]
    if spec.cls is FunctionClass.ELLIPTIC:
        g2, g3 = Q(spec.g2), Q(spec.g3)
        values += [Q(1, g2.denominator), Q(1, g3.denominator), g2**3 - 27 * g3**2]
    return any(v.numerator % prime == 0 or v.denominator % prime == 0 for v in values)


class Residues:
    """phi's class over Z/p: uniformizer draws, the group law, and values of
    phi or of any ratio of polynomials in the uniformizer.

    A uniformizer value is u (rational class), t != 0 (exp class; u + v
    becomes t1*t2), or a point (p, q) of q^2 = 4p^3 - g2*p - g3 (elliptic
    class; u + v is the chord law in the sign convention of derive.base_law).
    A value that does not exist mod p (a pole of phi, a chord through equal
    p-coordinates, a p-coordinate with no curve point over it) raises
    AddTheoError, so that sample draws again.
    """

    def __init__(self, spec: FuncSpec, prime: int):
        self.spec, self.mod = spec, prime
        if spec.cls is FunctionClass.ELLIPTIC:
            self.g2, self.g3 = (
                Q(g).numerator * pow(Q(g).denominator, -1, prime) % prime
                for g in (spec.g2, spec.g3)
            )

    def draw(self, rng):
        mod, cls = self.mod, self.spec.cls
        if cls is FunctionClass.RATIONAL_OF_U:
            return rng.randrange(mod)
        if cls is FunctionClass.RATIONAL_OF_EXP:
            return rng.randrange(1, mod)
        p = rng.randrange(mod)
        rhs = (4 * p * p * p - self.g2 * p - self.g3) % mod
        q = pow(rhs, (mod + 1) // 4, mod)
        if q * q % mod != rhs:
            raise AddTheoError("no curve point over this p-coordinate")
        return p, (-q % mod if rng.random() < 0.5 else q)

    def add(self, a, b):
        mod, cls = self.mod, self.spec.cls
        if cls is FunctionClass.RATIONAL_OF_U:
            return (a + b) % mod
        if cls is FunctionClass.RATIONAL_OF_EXP:
            return a * b % mod
        (p1, q1), (p2, q2) = a, b
        if p1 == p2:
            raise AddTheoError("chord through equal p-coordinates")
        lam = (q2 - q1) * pow(p2 - p1, -1, mod) % mod
        p3 = (lam * lam * pow(4, -1, mod) - p1 - p2) % mod
        return p3, -(q1 + lam * (p3 - p1)) % mod

    def neg(self, a):
        cls = self.spec.cls
        if cls is FunctionClass.RATIONAL_OF_U:
            return -a % self.mod
        if cls is FunctionClass.RATIONAL_OF_EXP:
            return pow(a, -1, self.mod)
        return a[0], -a[1] % self.mod

    def ratio(self, num, den, a) -> int:
        """num(a)/den(a) mod p for polynomials over the uniformizer ring; a
        zero denominator is a pole and raises AddTheoError."""
        mod, names = self.mod, self.spec.uniformizer
        point = dict(zip(names, a)) if len(names) == 2 else {names[0]: a}
        d = den.evaluate_mod(point, mod)
        if not d:
            raise AddTheoError("pole of phi mod p")
        return num.evaluate_mod(point, mod) * pow(d, -1, mod) % mod

    def phi(self, a) -> int:
        return self.ratio(self.spec.numerator, self.spec.denominator, a)


def sample_mod(spec: FuncSpec, cfg: EvalConfig, salt: int, arity: int, point, prime: int):
    """EXACT_POINTS exact points mod prime, each point(residues, *values) from
    `arity` uniformizer values drawn through sample's per-index streams; None
    when prime is bad for spec."""
    if bad_prime(spec, prime):
        return None
    field = Residues(spec, prime)
    return sample(EXACT_POINTS, cfg, salt, arity, lambda *v: point(field, *v), draw=field.draw)


def graph_points_mod(spec: FuncSpec, cfg: EvalConfig, salt: int, prime: int):
    """Exact graph points (phi(a), phi(b), phi(a + b)) mod prime, or None."""

    def point(f, a, b):
        return f.phi(a), f.phi(b), f.phi(f.add(a, b))

    return sample_mod(spec, cfg, salt, 2, point, prime)
