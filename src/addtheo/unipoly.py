"""Dense univariate polynomial helpers over Fraction (lists, low to high)."""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def q_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def q_mul(a, b):
    if not a or not b:
        return []
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return q_trim(out)


def q_add(a, b):
    out = [Q(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return q_trim(out)


def q_scale(a, c):
    return q_trim([x * c for x in a])


def q_divmod(a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = a[:]
    quo = [Q(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv
        k = len(a) - len(b)
        quo[k] = c
        for j in range(len(b)):
            a[k + j] -= c * b[j]
        a.pop()
        q_trim(a)
    return q_trim(quo), q_trim(a)


def q_rem(a, b):
    return q_divmod(a, b)[1]


def q_gcdext(a, b):
    """Extended Euclid: (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a[:], b[:]
    s0, s1 = [Q(1)], []
    t0, t1 = [], [Q(1)]
    while r1:
        quo, rem = q_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, q_add(s0, q_scale(q_mul(quo, s1), Q(-1)))
        t0, t1 = t1, q_add(t0, q_scale(q_mul(quo, t1), Q(-1)))
    if r0:
        inv = 1 / r0[-1]
        r0 = q_scale(r0, inv)
        s0 = q_scale(s0, inv)
        t0 = q_scale(t0, inv)
    return r0, s0, t0
