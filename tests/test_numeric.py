import cmath
import random
from fractions import Fraction as Q

import pytest

from addtheo import numeric
from addtheo.derive import base_law
from addtheo.errors import AddTheoError, SamplingError, VerificationError
from addtheo.funcspec import parse_spec
from addtheo.laws import k_relation
from addtheo.numeric import (
    PRIMES,
    EvalConfig,
    Residues,
    certify,
    class_tolerance,
    phi_eval,
    relative_residual,
    sample,
    sample_graph,
    wp_pair,
)
from conftest import spec_text
from oracles import phi_derivative_numeric

CFG = EvalConfig()


def _window_points(n, seed=3):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        r = 0.05 + 0.2 * rng.random()
        pts.append(r * cmath.exp(2j * cmath.pi * rng.random()))
    return pts


def test_wp_leading_terms_hand_oracle():
    # 1/u^2 + (g2/20) u^2 + (g3/28) u^4 for small u
    val = wp_pair(Q(4), Q(0), 0.1)[0]
    assert abs(val - (100 + 0.2 * 0.01)) < 1e-6


def test_wp_pole_normalization(monkeypatch):
    # |u^2 wp(u) - 1| = |c2 u^4 + ...| = g2/20 * 1e-8 at |u| = 0.01
    u = 0.01
    monkeypatch.setattr(numeric, "SAMPLE_RADIUS", (0.005, 0.25))
    assert abs(u * u * wp_pair(Q(1), Q(1), u)[0] - 1) < 1e-9


def test_wp_parity():
    for u in _window_points(10):
        assert abs(wp_pair(Q(4), Q(1), -u)[0] - wp_pair(Q(4), Q(1), u)[0]) < 1e-10
        assert abs(wp_pair(Q(4), Q(1), -u)[1] + wp_pair(Q(4), Q(1), u)[1]) < 1e-10


@pytest.mark.parametrize("g2,g3", [(Q(4), Q(0)), (Q(4), Q(1))])
def test_wp_differential_equation(g2, g3):
    for u in _window_points(100, seed=5):
        p, dp = wp_pair(g2, g3, u)
        lhs = dp * dp
        rhs = 4 * p**3 - complex(g2) * p - complex(g3)
        assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-9


@pytest.mark.parametrize("g2,g3", [(Q(4), Q(0)), (Q(4), Q(1))])
def test_wp_homogeneity(g2, g3, monkeypatch):
    # wp(s*u; s^-4 g2, s^-6 g3) = s^-2 wp(u; g2, g3) with s = 2
    s = 2
    monkeypatch.setattr(numeric, "SAMPLE_RADIUS", (0.01, 0.25))
    for u in _window_points(12, seed=9):
        u = u / 2
        lhs = wp_pair(g2 / s**4, g3 / s**6, s * u)[0]
        rhs = wp_pair(g2, g3, u)[0] / s**2
        assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-9


def test_wp_series_self_consistency(monkeypatch):
    points = _window_points(10, seed=13)
    short = [wp_pair(Q(4), Q(16), u)[0] for u in points]
    monkeypatch.setattr(numeric, "SERIES_TERMS", 60)
    for u, a in zip(points, short):
        b = wp_pair(Q(4), Q(16), u)[0]
        assert abs(a - b) / abs(b) < 1e-12


def test_wp_pole_and_range_errors():
    with pytest.raises(AddTheoError, match="pole"):
        wp_pair(Q(4), Q(0), 0)
    with pytest.raises(AddTheoError, match="range"):
        wp_pair(Q(4), Q(0), 0.8)


def test_phi_eval_examples():
    cosh_spec = parse_spec("class: exp\nphi: (t^2+1)/(2*t)\n")
    assert abs(phi_eval(cosh_spec, 0.0) - 1.0) < 1e-12
    cos_spec = parse_spec("class: exp\nphi: (t^2+1)/(2*t)\nmu: i\n")
    assert abs(phi_eval(cos_spec, 0.7) - cmath.cos(0.7)) < 1e-12
    sq = parse_spec("class: rational\nphi: u^2\n")
    assert phi_eval(sq, 3 + 0j) == 9


def test_phi_eval_near_pole_raises():
    inv = parse_spec("class: rational\nphi: (u+1)/u\n")
    with pytest.raises(AddTheoError, match="pole"):
        phi_eval(inv, 0.0)


def test_sample_graph_deterministic_and_lawful():
    spec = parse_spec("class: exp\nphi: t\n")
    a = sample_graph(spec, 20, CFG, salt=0)
    b = sample_graph(spec, 20, CFG, salt=0)
    assert a == b
    for s in a:
        assert abs(s["z"] - s["x"] * s["y"]) < 1e-12
        assert 0.05 <= abs(s["u"] + s["v"]) <= 0.25
    c = sample_graph(spec, 20, EvalConfig(seed=1), salt=0)
    assert c != a


def test_elliptic_samples_respect_guard():
    spec = parse_spec("class: elliptic\ng2: 4\ng3: 1\nphi: p\n")
    for s in sample_graph(spec, 30, CFG, salt=0):
        assert max(abs(s["x"]), abs(s["y"]), abs(s["z"])) <= numeric.POLE_GUARD


@pytest.mark.parametrize("sampler", ["sample_graph", "k_relation", "exact_draws"])
def test_rejecting_every_draw_raises_sampling_error(sampler, theorems, monkeypatch):
    exp_t = "class: exp\nphi: t\n"
    spec = parse_spec(exp_t)
    theorem = theorems(exp_t)
    monkeypatch.setattr(numeric, "POLE_GUARD", 1e-30)  # every complex value is a pole
    # phi's denominator is 2^61 - 1, so every exact point mod that prime is a
    # pole (selection skips this prime as bad; the sampler does not)
    poles = Residues(parse_spec(f"class: rational\nphi: u^2 + u/{PRIMES[0]}\n"), PRIMES[0])
    calls = {
        "sample_graph": lambda: sample_graph(spec, 20, CFG, salt=0),
        "k_relation": lambda: k_relation(theorem, CFG),
        "exact_draws": lambda: sample(20, CFG, 201, 1, poles.phi, draw=poles.draw),
    }
    with pytest.raises(SamplingError):
        calls[sampler]()


def test_exhausted_sampler_names_the_last_rejection():
    poles = Residues(parse_spec(f"class: rational\nphi: u^2 + u/{PRIMES[0]}\n"), PRIMES[0])
    with pytest.raises(SamplingError, match="the last by: pole of phi mod p"):
        sample(5, CFG, 201, 1, poles.phi, draw=poles.draw)
    # window and pole-guard rejections keep the complex wording
    with pytest.raises(SamplingError, match="^spec has dense poles in sampling window$"):
        sample(5, CFG, 0, 1, lambda u: None)


def test_relative_residual_scales():
    from addtheo.poly import MPoly

    ring = ("x", "y", "z")
    x, y, z = (MPoly.var(ring, n) for n in ring)
    g = x * y - z
    assert relative_residual(g, {"x": 2.0, "y": 3.0, "z": 6.0}) == 0.0
    assert relative_residual(g, {"x": 2.0, "y": 3.0, "z": 5.0}) == pytest.approx(1 / 6)


def test_residual_lost_to_float_overflow_is_infinite():
    from addtheo.poly import MPoly

    ring = ("x", "y", "z")
    x, y, z = (MPoly.var(ring, n) for n in ring)
    # x*y overflows in its value and in its magnitude, whose ratio is NaN
    point = {"u": 0.1, "v": 0.2, "x": 1e200, "y": 1e200, "z": 1.0}
    assert relative_residual(x * y - z, point) == float("inf")
    failure = r"^max_residual=inf exceeds tol=1\.0e-09 at u=0\.1 v=0\.2$"
    with pytest.raises(VerificationError, match=failure):
        certify(x * y - z, [point], 1e-9)


def test_certify_keeps_the_worst_sample():
    from addtheo.poly import MPoly

    ring = ("x", "y", "z")
    x, y, z = (MPoly.var(ring, n) for n in ring)
    # residuals 1/12, 1/6 and 0: the worst sample is neither the first nor the last
    samples = [
        {"u": 0.2, "v": 0.1, "x": 2.0, "y": 3.0, "z": 5.5},
        {"u": 0.1j, "v": 0.3 - 0.2j, "x": 2.0, "y": 3.0, "z": 5.0},
        {"u": 0.1, "v": 0.2, "x": 2.0, "y": 3.0, "z": 6.0},
    ]
    assert certify(x * y - z, samples, 0.5) == (1 / 6, samples[1])
    with pytest.raises(VerificationError) as failed:
        certify(x * y - z, samples, 0.1)
    assert str(failed.value) == "max_residual=1.667e-01 exceeds tol=1.0e-01 at u=0.1i v=0.3-0.2i"


def test_certify_names_w_for_a_k_sample():
    from addtheo.poly import MPoly

    ring = ("x1", "x2", "x3", "x4")
    x1, x2, x3, x4 = (MPoly.var(ring, n) for n in ring)
    k_sample = {"u": 0.1, "v": -0.2j, "w": 0.15 + 0.05j, "x1": 1.0, "x2": 2.0, "x3": 1.0, "x4": 1.0}
    with pytest.raises(VerificationError, match=r"^max_residual=5\.000e-01 exceeds tol=1\.0e-09 "
                       r"at u=0\.1 v=-0\.2i w=0\.15\+0\.05i$"):
        certify(x1 + x2 - x3 - x4, [k_sample], 1e-9)


def test_class_tolerance_defaults():
    assert class_tolerance(parse_spec("class: exp\nphi: t\n")) == 1e-9
    assert class_tolerance(parse_spec("class: elliptic\ng2: 4\ng3: 0\nphi: p\n")) == 1e-6
    assert class_tolerance(parse_spec("class: exp\nphi: t\n"), 1e-3) == 1e-3


def test_finite_difference_derivative():
    spec = parse_spec("class: exp\nphi: t\n")
    u = 0.1 + 0.05j
    exact = phi_eval(spec, u)  # derivative of e^u is itself
    fd = phi_derivative_numeric(spec, u)
    assert abs(fd - exact) < 1e-8


def test_config_validation():
    # the series, the window and the pole guard are module constants
    assert EvalConfig._fields == ("tol", "seed")
    with pytest.raises(AddTheoError):
        EvalConfig(tol=2.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"tol": 0.0}, r"tol must lie in \(0, 1\)"),
], ids=["tol"])
def test_config_range_checks_name_the_setting(kwargs, message):
    with pytest.raises(AddTheoError, match=message):
        EvalConfig(**kwargs)


@pytest.mark.parametrize("name", ["wp-generic", "wp-lemniscatic", "wp-prime", "wp-squared"])
def test_exact_elliptic_points_obey_the_curve_and_the_base_law(name):
    spec = parse_spec(spec_text(f"{name}.spec"))
    prime = PRIMES[0]
    field = Residues(spec, prime)
    g2, g3 = (Q(g).numerator * pow(Q(g).denominator, -1, prime) for g in (spec.g2, spec.g3))
    relations = base_law(spec.cls, spec.g2, spec.g3)

    def point(a, b):
        return a, b, field.add(a, b)

    for a, b, c in sample(50, CFG, 0, 2, point, draw=field.draw):
        for p, q in (a, b, c, field.neg(c)):
            assert (q * q - (4 * p**3 - g2 * p - g3)) % prime == 0
        # (p3, q3) = P1 + P2 satisfies the chord relations in their sign convention
        values = dict(zip(relations[0].variables, a + b + c))
        assert all(r.evaluate_mod(values, prime) == 0 for r in relations)


def test_exact_point_streams_are_pinned():
    # literal values: a change to the per-index streams, a salt or the order
    # of a point's arguments changes them
    from addtheo.laws import k_point
    from addtheo.numeric import exact_points, graph_point

    cos, cosh = (parse_spec(spec_text(f"{n}.spec")) for n in ("cos", "cosh"))
    prime, points = next(exact_points(cos, CFG, 101, 2, graph_point))
    assert prime == PRIMES[0]
    assert points[0] == (418844907178116187, 548117315376388407, 928839268299428174)
    prime, points = next(exact_points(cosh, CFG, 301, 3, k_point))
    assert prime == PRIMES[0]
    assert points[0] == (2116181389232745520, 1684290471308555415, 609986254240169929,
                         1674846118240183382)
