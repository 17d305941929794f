"""Complex evaluation of the supported function classes and graph sampling.

The Weierstrass function is evaluated through its Laurent expansion around the
origin,

    wp(u) = 1/u^2 + sum_{k>=2} c_k u^(2k-2),
    c_2 = g2/20,  c_3 = g3/28,
    c_k = 3 / ((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_{k-m}   for k >= 4,

truncated at a configurable number of terms.  Sampling is restricted to a
radius window where the truncation error is far below the identity tolerances,
so no period computation is ever needed.  All randomness is derived from an
explicit seed, per sample index, so runs are reproducible and could be
parallelized without changing results.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import AddTheoError, SamplingError
from .funcspec import FuncSpec, FunctionClass

Q = Fraction


class _EvalFields(NamedTuple):
    series_terms: int = 30
    tol: float = 1e-9
    seed: int = 0
    sample_radius: tuple = (0.05, 0.25)
    pole_guard: float = 1e6


class EvalConfig(_EvalFields):
    """The evaluation settings, range-checked on construction (`_replace`
    skips the checks)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.series_terms < 10:
            raise AddTheoError("series_terms must be at least 10")
        if not (0 < self.tol < 1):
            raise AddTheoError("tol must lie in (0, 1)")
        lo, hi = self.sample_radius
        if not (0 < lo < hi <= 0.5):
            raise AddTheoError("sample_radius must satisfy 0 < lo < hi <= 0.5")
        return self


class GraphSample(NamedTuple):
    u: complex
    v: complex
    x: complex
    y: complex
    z: complex


@lru_cache(maxsize=64)
def _wp_coefficients(g2: Fraction, g3: Fraction, terms: int):
    """Exact Laurent coefficients c_2 .. c_terms."""
    c = {2: g2 / 20, 3: g3 / 28}
    for k in range(4, terms + 1):
        acc = Q(0)
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = acc * Q(3, (2 * k + 1) * (k - 3))
    return tuple(complex(c[k]) for k in range(2, terms + 1))


def _check_range(u: complex, cfg: EvalConfig):
    if u == 0:
        raise AddTheoError("wp pole at u = 0")
    lo, hi = cfg.sample_radius
    r = abs(u)
    if r < lo * 0.5 or r > hi * 1.0000001:
        raise AddTheoError(
            f"|u| = {r:.4g} outside the configured evaluation range [{lo}, {hi}]"
        )


def wp_eval(g2, g3, u: complex, cfg: EvalConfig) -> complex:
    """Weierstrass wp(u) for invariants (g2, g3), truncated Laurent series."""
    _check_range(u, cfg)
    coeffs = _wp_coefficients(Q(g2), Q(g3), cfg.series_terms)
    u2 = u * u
    total = 1 / u2
    upow = u2
    for c in coeffs:
        total += c * upow
        upow *= u2
    return total


def wp_prime_eval(g2, g3, u: complex, cfg: EvalConfig) -> complex:
    """Termwise derivative of the wp series."""
    _check_range(u, cfg)
    coeffs = _wp_coefficients(Q(g2), Q(g3), cfg.series_terms)
    total = -2 / (u * u * u)
    upow = u
    for k, c in enumerate(coeffs, start=2):
        total += (2 * k - 2) * c * upow
        upow *= u * u
    return total


def phi_eval(spec: FuncSpec, u: complex, cfg: EvalConfig) -> complex:
    """Evaluate phi at u; raises near poles so callers can resample."""
    if spec.cls is FunctionClass.RATIONAL_OF_U:
        point = {"u": u}
    elif spec.cls is FunctionClass.RATIONAL_OF_EXP:
        point = {"t": cmath.exp(spec.mu_value * u)}
    else:
        point = {
            "p": wp_eval(spec.g2, spec.g3, u, cfg),
            "q": wp_prime_eval(spec.g2, spec.g3, u, cfg),
        }
    den = spec.denominator.evaluate(point)
    if abs(den) < 1e-12:
        raise AddTheoError("phi evaluated too close to a pole")
    return spec.numerator.evaluate(point) / den


def _draw(rng, lo: float, hi: float) -> complex:
    r = lo + (hi - lo) * rng.random()
    theta = 2 * cmath.pi * rng.random()
    return r * cmath.exp(1j * theta)


def in_window(s: complex, cfg: EvalConfig) -> bool:
    """True when |s| lies in the configured sampling radius window."""
    lo, hi = cfg.sample_radius
    return lo <= abs(s) <= hi


def guarded(cfg: EvalConfig, *values) -> bool:
    """The pole-guard test: True when every value stays within the guard."""
    return all(abs(v) <= cfg.pole_guard for v in values)


def sample(n: int, cfg: EvalConfig, salt: int, arity: int, point, radius=None):
    """Draw n deterministic points, each built as point(*draws) from `arity`
    complex arguments drawn in the radius window (cfg.sample_radius unless
    `radius` is given).

    Index i draws from its own stream seeded by (seed, salt, i), so the list
    does not depend on evaluation order.  point rejects a draw by returning
    None or raising AddTheoError, and the index then draws again from its
    stream; more than 100*n + 1000 draws in all raise SamplingError.
    """
    if n < 1:
        raise AddTheoError("sample count must be positive")
    lo, hi = radius or cfg.sample_radius
    out = []
    budget = 100 * n + 1000
    for i in range(n):
        rng = random.Random(f"{cfg.seed}:{salt}:{i}")
        while True:
            budget -= 1
            if budget < 0:
                raise SamplingError("spec has dense poles in sampling window")
            draws = [_draw(rng, lo, hi) for _ in range(arity)]
            try:
                pt = point(*draws)
            except AddTheoError:
                continue
            if pt is not None:
                out.append(pt)
                break
    return out


def sample_graph(spec: FuncSpec, n: int, cfg: EvalConfig, salt: int = 0):
    """Draw n deterministic samples (u, v, phi(u), phi(v), phi(u+v)).

    Draws whose sum leaves the radius window, whose arguments nearly
    coincide, or that land near poles are rejected.
    """

    def point(u, v):
        s = u + v
        if not in_window(s, cfg) or abs(u - v) < 1e-3:
            return None
        x, y, z = (phi_eval(spec, arg, cfg) for arg in (u, v, s))
        return GraphSample(u=u, v=v, x=x, y=y, z=z) if guarded(cfg, x, y, z) else None

    return sample(n, cfg, salt, 2, point)


def relative_residual(poly, point) -> float:
    """|poly(point)| scaled by the largest single-term contribution."""
    value = abs(poly.evaluate(point))
    scale = poly.term_magnitude(point)
    return value / max(scale, 1e-300)


def class_tolerance(spec: FuncSpec, override=None) -> float:
    """Default identity tolerance: 1e-9 in general, 1e-6 for the high-degree
    elliptic eliminants.  An explicit override wins."""
    if override is not None:
        return override
    return 1e-6 if spec.cls is FunctionClass.ELLIPTIC else 1e-9
