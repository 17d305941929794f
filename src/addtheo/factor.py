"""Polynomial factorization over the rationals.

Univariate polynomials go through the classical route: reduce modulo a good
prime, split with distinct-degree and equal-degree factorization, lift the
modular factors with linear Hensel steps past the Mignotte bound, and
recombine subsets with trial division.  Every boundary speaks MPoly; dense
`int` lists live only inside, for arithmetic mod p and the p-adic lift.

Multivariate polynomials are factored as univariate in the greatest variable:
specialize the remaining variables at up to three points that keep the image
square-free and factor each image.  An irreducible image proves the input
irreducible; otherwise lift the factors of the image with the fewest, as
truncated power series in the shifted variables, and recombine (Wang's choice
of point).  A generic linear substitution first forces the leading
coefficient in the main variable to be constant, so the lifted factors stay
monic.  Both routes share one recombination, and `divide_exact` certifies
every candidate factor before it is accepted.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .errors import AddTheoError
from .poly import MPoly, divide_exact, rem_monic
from .resultants import mgcd, squarefree

Q = Fraction

_FACTOR_SEED = 0x5EED
_IMAGES = 3  # square-free images compared before a lift (Wang's EEZ configs)


# ----------------------------------------------------------------------
# dense arithmetic over Z, and mod a prime (lists low -> high, ints in [0, p))
# ----------------------------------------------------------------------


def _p_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _z_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _z_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] -= x
    return out


def _p_mul(a, b, p):
    return _p_trim([v % p for v in _z_mul(a, b)])


def _p_sub(a, b, p):
    return _p_trim([v % p for v in _z_sub(a, b)])


def _p_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [(x * inv) % p for x in a]


def _p_divmod(a, b, p):
    a = a[:]
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = (a[-1] * inv) % p
        k = len(a) - len(b)
        q[k] = c
        if c:
            for j in range(len(b)):
                a[k + j] = (a[k + j] - c * b[j]) % p
        a.pop()
        _p_trim(a)
    return _p_trim(q), _p_trim(a)


def _p_rem(a, b, p):
    return _p_divmod(a, b, p)[1]


def _p_gcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        a, b = b, _p_rem(a, b, p)
    return _p_monic(a, p)


def _p_powmod(base, exp, mod, p):
    result = [1]
    base = _p_rem(base, mod, p)
    while exp:
        if exp & 1:
            result = _p_rem(_p_mul(result, base, p), mod, p)
        base = _p_rem(_p_mul(base, base, p), mod, p)
        exp >>= 1
    return result


def _p_deriv(a, p):
    return _p_trim([(i * c) % p for i, c in enumerate(a)][1:])


# ----------------------------------------------------------------------
# factorization mod p
# ----------------------------------------------------------------------


def _distinct_degree(f, p):
    """Split monic square-free f mod p into (product, degree) pieces."""
    out = []
    h = [0, 1]
    x = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _p_powmod(h, p, f, p)
        g = _p_gcd(_p_sub(h, x, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f, _ = _p_divmod(f, g, p)
            h = _p_rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    exponent = (p**d - 1) // 2
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _p_trim(a)
        if len(a) <= 1:
            continue
        g = _p_gcd(a, f, p)
        if 1 < len(g) < len(f):
            left, right = g, _p_divmod(f, g, p)[0]
        else:
            t = _p_powmod(a, exponent, f, p)
            t = _p_sub(t, [1], p)
            g = _p_gcd(t, f, p)
            if not (1 < len(g) < len(f)):
                continue
            left, right = g, _p_divmod(f, g, p)[0]
        return _equal_degree(left, d, p, rng) + _equal_degree(right, d, p, rng)


def _factor_mod_p(f, p):
    """Monic square-free f mod p -> list of monic irreducible factors."""
    rng = random.Random(f"{_FACTOR_SEED}:{p}:{len(f)}")
    out = []
    for part, d in _distinct_degree(f, p):
        out.extend(_equal_degree(part, d, p, rng))
    out.sort()
    return out


# ----------------------------------------------------------------------
# univariate factorization over Q
# ----------------------------------------------------------------------


def _choose_prime(f):
    """The least odd prime p < 50000 that keeps f square-free mod p.  p does
    not divide lc(f), so reducing f mod p keeps its degree."""
    for p in range(3, 50000, 2):
        if f[-1] % p == 0 or any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
            continue
        fp = _p_trim([c % p for c in f])
        if len(_p_gcd(fp, _p_deriv(fp, p), p)) == 1:
            return p
    raise AddTheoError("no suitable prime found for factorization")


def _hensel_lift(f, factors, p, bound):
    """Lift f = lc * prod(factors) from mod p to mod p^k >= bound (linear)."""
    lc = f[-1]
    k = 1
    modulus = p
    while modulus < bound:
        k += 1
        modulus *= p
    # Bezout data mod p: sigma_i = (prod_{j != i} g_j)^{-1} mod (g_i, p)
    sigmas = []
    for i, gi in enumerate(factors):
        others = [1]
        for j, gj in enumerate(factors):
            if j != i:
                others = _p_rem(_p_mul(others, gj, p), gi, p)
        g, s = _pp_gcdext(others, gi, p)
        if len(g) != 1:
            raise AddTheoError("modular factors are not coprime")
        inv_g = pow(g[0], p - 2, p)
        sigmas.append(_p_rem([(c * inv_g) % p for c in s], gi, p))
    lc_inv = pow(lc % p, p - 2, p)
    lifted = [g[:] for g in factors]
    current = p
    for _ in range(k - 1):
        nxt = current * p
        prod = [lc % nxt]
        for g in lifted:
            prod = [v % nxt for v in _z_mul(prod, g)]
        err = _z_sub(f, prod)
        err = [(c % nxt) for c in err]
        # center first so the division by the current modulus is exact
        if any(_center(c, nxt) % current for c in err):
            raise AddTheoError("hensel lift lost divisibility")
        e_over = _p_trim([(_center(c, nxt) // current) % p for c in err])
        for i, gi in enumerate(lifted):
            gi_p = _p_trim([c % p for c in gi])
            delta = _p_rem(_p_mul(_p_mul(e_over, [lc_inv], p), sigmas[i], p), gi_p, p)
            for j, dc in enumerate(delta):
                dc = _center(dc, p)
                gi[j] = (gi[j] + current * dc) % nxt
        current = nxt
    return lifted, current


def _pp_gcdext(a, b, p):
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    while r1:
        quo, rem = _p_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _p_sub(s0, _p_mul(quo, s1, p), p)
    return r0, s0


def _center(c, m):
    c %= m
    if c > m // 2:
        c -= m
    return c


def factor_univariate(f: MPoly):
    """Canonical irreducible factors of a square-free polynomial in one
    variable; the rational scalar is dropped."""
    f = f.canonicalize()
    (name,) = f.used_variables()
    coeffs = [int(c.constant_value()) for c in f.coeffs_in(name)]
    n = len(coeffs) - 1
    if n == 1:
        return [f]
    p = _choose_prime(coeffs)
    modular = _factor_mod_p(_p_monic(_p_trim([c % p for c in coeffs]), p), p)
    if len(modular) == 1:
        return [f]
    height = max(abs(c) for c in coeffs)
    mignotte = math.isqrt(n + 1) + 1
    bound = 2 * mignotte * (2**n) * height * abs(coeffs[-1]) + 1
    lifted, modulus = _hensel_lift(coeffs, modular, p, bound)

    def candidate(rest, factors):
        # lc(rest) times the lifted factors in symmetric residues: the prime
        # does not divide that lc and the factors are monic, so the
        # candidate keeps their degree
        cand = [rest.leading_coefficient().numerator % modulus]
        for g in factors:
            cand = [v % modulus for v in _z_mul(cand, g)]
        cand = [_center(c, modulus) for c in cand]
        return MPoly.from_coeffs(f.variables, name, cand).canonicalize()

    return _recombine(f, lifted, candidate)


def _recombine(remaining, lifted, candidate):
    """Split remaining into the true factors that the lifted factors combine
    to, trying subsets smallest first (Zassenhaus).

    candidate(remaining, factors) builds the product of a subset, and its
    exact division into remaining certifies each factor kept.  No subset
    takes more than half of the factors left, so what remains at the end is
    the last factor."""
    out = []
    idxs = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(idxs):
        for subset in itertools.combinations(idxs, size):
            cand = candidate(remaining, [lifted[i] for i in subset])
            quo = divide_exact(remaining, cand)
            if quo is not None:
                out.append(cand)
                remaining = quo
                idxs = [i for i in idxs if i not in subset]
                break
        else:
            size += 1
    return out + [remaining]


# ----------------------------------------------------------------------
# multivariate factorization
# ----------------------------------------------------------------------


def _point_candidates(names, rng):
    """Deterministic stream of small, diverse specialization points."""
    yield {n: Q(0) for n in names}
    i = 0
    while True:
        span = 3 + i // 12
        yield {n: Q(rng.randint(-span, span)) for n in names}
        i += 1


def factor(p: MPoly):
    """Complete factorization into canonical irreducibles over Q.

    Returns a list of (irreducible, multiplicity); the rational scalar is
    dropped, so the product of the factors equals canonicalize(p).
    """
    if p.is_zero() or p.is_constant():
        raise AddTheoError("factorization needs a non-constant input")
    out = []
    for sf, mult in squarefree(p):
        for irr in _factor_squarefree(sf):
            out.append((irr, mult))
    # the square-free parts are pairwise coprime, so no factor repeats
    # (docs/decisions.md section 4)
    out.sort(key=lambda fm: fm[0].sort_key())
    return out


def _factor_squarefree(g: MPoly):
    g = g.canonicalize()
    occ = g.used_variables()
    if not occ:
        raise AddTheoError("constant slipped into factorization")
    if len(occ) == 1:
        return factor_univariate(g)
    main = occ[-1]
    others = occ[:-1]
    rng = random.Random(f"{_FACTOR_SEED}:multivar:{len(g)}")

    for attempt in range(24):
        work, undo_shear = _shear_to_constant_lc(g, main, others, attempt)
        if work is None:
            continue
        found = _try_factor_monic(work, main, others, rng)
        if found is None:
            continue
        if len(found) == 1:
            return [g]  # proved irreducible: undoing the shear rebuilds g
        result = []
        for f in found:
            f = undo_shear(f)
            result.append(f.canonicalize())
        prod = MPoly.const(g.variables, 1)
        for f in result:
            prod = prod * f
        if prod.canonicalize() == g:
            result.sort(key=lambda q: q.sort_key())
            return result
    raise AddTheoError("multivariate factorization did not converge")


def _shear_to_constant_lc(g: MPoly, main, others, attempt):
    """Substitute w -> w + r*main until the main leading coefficient is
    constant; returns the substituted polynomial and the inverse map."""
    lc = g.coeffs_in(main)[-1]
    if lc.is_constant():
        return g, lambda f: f
    rng = random.Random(f"shear:{attempt}")
    shears = {w: rng.randint(1, 3 + attempt) for w in others}
    main_var = MPoly.var(g.variables, main)
    fwd = {w: MPoly.var(g.variables, w) + shears[w] * main_var for w in others}
    work = g.substitute(fwd)
    if not work.coeffs_in(main)[-1].is_constant():
        return None, None
    back = {w: MPoly.var(g.variables, w) - shears[w] * main_var for w in others}

    def undo(f):
        return f.substitute(back)

    return work, undo


def _try_factor_monic(work: MPoly, main, others, rng):
    """Factor a polynomial whose main-variable leading coefficient is
    constant.  Returns non-constant factors of `work`, or None to retry.
    An irreducible image among the first _IMAGES square-free ones proves
    `work` irreducible; else one lift runs at the image with the fewest
    factors, the earliest on ties (docs/decisions.md section 4)."""
    lc = work.coeffs_in(main)[-1].constant_value()
    monic = work * (1 / lc)
    one = MPoly.const(work.variables, 1)
    images = []
    for point in itertools.islice(_point_candidates(others, rng), 60):
        image = monic.substitute({w: point[w] for w in others})
        if not mgcd(image, image.derivative(main)).is_constant():
            continue  # the image is not square-free
        base_factors = factor_univariate(image)
        if len(base_factors) == 1:
            return [work]
        images.append((point, base_factors))
        if len(images) == _IMAGES:
            break
    if not images:
        return None
    point, base_factors = min(images, key=lambda img: len(img[1]))
    shift = {w: MPoly.var(work.variables, w) + point[w] for w in others}
    unshift = {w: MPoly.var(work.variables, w) - point[w] for w in others}
    shifted = monic.substitute(shift)
    prec = shifted.others_degree(main)
    lifted = _lift_factors(shifted, base_factors, main, prec)

    def candidate(rest, factors):
        cand = one
        for f in factors:
            cand = cand.mul_trunc(f, main, prec)
        return cand

    combos = _recombine(shifted, lifted, candidate)
    return [f.substitute(unshift) for f in combos]


def _lift_factors(shifted: MPoly, base_factors, main, prec):
    """Hensel lift univariate factors, made monic, to truncated series factors.

    Lower levels of the product already agree with `shifted`, so the
    truncated difference is exactly the error at `level`.  Multiplying by
    sigma_i and reducing mod the monic g_i act coefficient by coefficient on
    the other variables, so one remainder per factor lifts a whole level.
    """
    one = MPoly.const(shifted.variables, 1)
    monics = [f * (1 / f.leading_coefficient()) for f in base_factors]
    sigmas = []
    for i, gi in enumerate(monics):
        others_prod = one
        for j, gj in enumerate(monics):
            if j != i:
                others_prod = rem_monic(others_prod * gj, gi, main)
        sigmas.append(_inverse_mod(others_prod, gi, main))
    lifted = list(monics)
    for level in range(1, prec + 1):
        prod = one
        for f in lifted:
            prod = prod.mul_trunc(f, main, level)
        err = shifted.mul_trunc(one, main, level) - prod
        for i, gi in enumerate(monics):
            lifted[i] = lifted[i] + rem_monic(err * sigmas[i], gi, main)
    return lifted


def _inverse_mod(a: MPoly, m: MPoly, main):
    """s with s*a = 1 mod m, for m monic and univariate in main, by extended
    Euclid; a and m are coprime (docs/decisions.md section 4)."""
    r0, r1 = m, a
    s0, s1 = MPoly.zero(m.variables), MPoly.const(m.variables, 1)
    while not r1.is_zero():
        inv = 1 / r1.leading_coefficient()
        r1, s1 = r1 * inv, s1 * inv
        rem = rem_monic(r0, r1, main)
        quo = divide_exact(r0 - rem, r1)
        r0, r1, s0, s1 = r1, rem, s1, s0 - quo * s1
    return s0
