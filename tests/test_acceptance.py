"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion table is
repeated in the terminal summary.  Criterion 7's elliptic clause checks the
K-relation against its degree law nu^3/lambda.  The stated nu^2/lambda cannot
hold: the irreducible relation on u+v = w+t samples has per-variable degree
nu^3/lambda (see docs/decisions.md, section 2, for the argument and the
measured table).
"""

import cmath
import json
import random
import time
from fractions import Fraction as Q

import pytest

from conftest import SPECS, spec_path, spec_text
from test_cli import run_cli, run_process
from oracles import (
    alpha_complex,
    check_rational_expressibility,
    is_irreducible,
    phi_derivative_numeric,
)

from addtheo.exprparse import parse_polynomial
from addtheo.funcspec import parse_spec, order
from addtheo.laws import (
    full_substitution_group,
    k_relation,
    multiplier_group,
    predicted_degree,
    same_theorem,
)
from addtheo import numeric
from addtheo.numeric import (
    EvalConfig,
    phi_eval,
    relative_residual,
    sample_graph,
    wp_pair,
)
from addtheo.derive import derivative_relation
from addtheo.poly import MPoly

RESULTS = []
_MODULE_STARTED = time.monotonic()

CFG = EvalConfig()

BUNDLED = sorted(p.name for p in SPECS.glob("*.spec") if p.name != "broken.spec")


def record(ok: bool, label: str):
    RESULTS.append(f"{'PASS' if ok else 'FAIL'}  {label}")
    print(RESULTS[-1])


def bundle_theorem(theorems, name):
    return theorems(spec_text(name))


def test_criterion_01_exponential_law():
    started = time.monotonic()  # a fresh process: its wall time is the criterion
    proc = run_process("derive", spec_path("exp-t.spec"))
    elapsed = time.monotonic() - started
    ok = proc.stdout == "x*y - z\n" and elapsed < 1.0
    assert proc.stdout == "x*y - z\n"
    report = json.loads(run_cli("derive", spec_path("exp-t.spec"), "--json").stdout)
    assert report["result"]["theorem"]["degrees"] == [1, 1, 1]
    assert report["result"]["theorem"]["predicted_degree"] == predicted_degree(1, 1, 1) == 1
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    record(ok, "criterion 01: exponential law, exact output and degree 1, < 1 s")


def test_criterion_02_cosh_cos_law():
    started = time.monotonic()  # a fresh process: its wall time is the criterion
    proc = run_process("derive", spec_path("cosh.spec"))
    elapsed = time.monotonic() - started
    golden = "2*x*y*z - z^2 - y^2 - x^2 + 1"
    assert proc.stdout == golden + "\n"
    spec = parse_spec(spec_text("cosh.spec"))
    assert order(spec) == 2
    assert multiplier_group(spec).lambda0 == 2
    assert predicted_degree(1, 2, 2) == 2
    # mu-independence: the same G verifies for cosh (mu = 1) and cos (mu = i)
    run_cli("verify", spec_path("cosh.spec"), "--g", golden, "--tol", "1e-9")
    run_cli("verify", spec_path("cos.spec"), "--g", golden, "--tol", "1e-9")
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    record(True, "criterion 02: cosh/cos law, exact output, mu-independent at 1e-9, < 5 s")


def _elliptic_criterion(theorems, name, label):
    started = time.monotonic()
    theorem = bundle_theorem(theorems, name)
    elapsed = time.monotonic() - started
    assert theorem.law.actual == (2, 2, 2)
    assert theorem.law.predicted == 2
    assert is_irreducible(theorem.G)
    g = theorem.G
    swapped = g.substitute(
        {"x": MPoly.var(g.variables, "y"), "y": MPoly.var(g.variables, "x")}
    ).canonicalize()
    assert swapped == g
    assert theorem.samples == 200
    assert theorem.max_residual < 1e-6
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    record(True, label)


def test_criterion_03_elliptic_lemniscatic(theorems):
    _elliptic_criterion(
        theorems,
        "wp-lemniscatic.spec",
        "criterion 03: lemniscatic wp law, degrees (2,2,2), residual < 1e-6, < 60 s",
    )


def test_criterion_04_elliptic_generic(theorems):
    _elliptic_criterion(
        theorems,
        "wp-generic.spec",
        "criterion 04: generic wp law, degrees (2,2,2), residual < 1e-6, < 60 s",
    )


def test_criterion_05_symmetry_table():
    table = [
        ("class: elliptic\ng2: 4\ng3: 0\nphi: p\n", 2),
        ("class: elliptic\ng2: 4\ng3: 0\nphi: q\n", 1),
        ("class: elliptic\ng2: 4\ng3: 0\nphi: p^2\n", 4),
        ("class: exp\nphi: t\n", 1),
        ("class: exp\nphi: (t^2+1)/(2*t)\n", 2),
        ("class: rational\nphi: u^2\n", 2),
        ("class: rational\nphi: u^3\n", 3),
    ]
    rng = random.Random(55)
    for text, expected in table:
        spec = parse_spec(text)
        report = multiplier_group(spec)
        assert report.lambda0 == expected, text
        if spec.cls.value == "exp":
            assert report.lambda0 in (1, 2)
        if spec.cls.value == "elliptic":
            assert report.lambda0 in (1, 2, 3, 4, 6)
        for descriptor in report.multipliers:
            alpha = alpha_complex(descriptor)
            checked = 0
            while checked < 20:
                r = 0.05 + 0.2 * rng.random()
                u = r * cmath.exp(2j * cmath.pi * rng.random())
                try:
                    a = phi_eval(spec, alpha * u)
                    b = phi_eval(spec, u)
                except Exception:
                    continue
                if max(abs(a), abs(b)) > 1e5:
                    continue
                assert abs(a - b) < 1e-9 * max(1.0, abs(b)), (text, descriptor)
                checked += 1
    record(True, "criterion 05: lambda0 table exact and numerically confirmed")


def test_criterion_06_degree_law_regression(theorems):
    rows = []
    for name in BUNDLED:
        spec = parse_spec(spec_text(name))
        theorem = bundle_theorem(theorems, name)
        nu = order(spec)
        lam0 = multiplier_group(spec).lambda0
        predicted = predicted_degree(1, nu, lam0)
        rows.append((name, nu, lam0, predicted, theorem.law.actual))
    bad = [r for r in rows if r[4] != (r[3], r[3], r[3])]
    assert not bad, f"degree-law mismatches: {bad}"
    record(
        True,
        f"criterion 06: degree law m*nu^2/lambda0 holds for all {len(rows)} bundled specs",
    )


def test_criterion_07a_k_relation_exp_rational(theorems):
    proc = run_cli("krel", spec_path("exp-t.spec"))
    assert proc.stdout.splitlines()[0] == "x1*x2 - x3*x4"
    proc = run_cli("krel", spec_path("rational-u.spec"))
    assert proc.stdout.splitlines()[0] == "x1 + x2 - x3 - x4"
    record(True, "criterion 07a: K-relation exact for exp t and rational u")


def test_criterion_07b_k_relation_elliptic(theorems):
    # Stated: the lemniscatic K-relation at its degree law, lambda = 2,
    # residual < 1e-6 on 200 constrained samples, < 120 s.  The law is
    # nu^3/lambda = 4 per variable, not the stated nu^2/lambda = 2: the lambda
    # maps u -> a*u + b fixing phi act on the nu^3 preimage triples behind
    # phi(w + t - v) without changing it (see docs/decisions.md, section 2).
    # K is irreducible and vanishes on the constrained points, so every
    # relation vanishing there is a multiple of K; none has degrees (2,2,2,2).
    started = time.monotonic()
    text = spec_text("wp-lemniscatic.spec")
    spec = parse_spec(text)
    theorem = theorems(text)
    rel = k_relation(theorem, EvalConfig(tol=1e-6))
    elapsed = time.monotonic() - started
    nu = order(spec)
    lam = full_substitution_group(spec).lam
    assert rel.lam == lam
    assert rel.degrees == (nu**3 // lam,) * 4 == (4, 4, 4, 4)
    assert is_irreducible(rel.K)
    assert rel.samples == 200
    assert rel.max_residual < 1e-6
    assert elapsed < 120.0
    record(True, "criterion 07b: elliptic K degrees (4,4,4,4) = nu^3/lambda, irreducible")


def test_criterion_08_reduction(tmp_path):
    f = tmp_path / "f.txt"
    f.write_text("Z - X*Y\n")
    proc = run_cli("reduce-f", str(f), "--x0", "1", "--y0", "1")
    assert proc.stdout == "z1*z2 - z3\n"
    run_cli("reduce-f", str(f), "--x0", "0", "--y0", "1", expect_code=3)
    record(True, "criterion 08: reduction of F with degenerate base point detected")


def test_criterion_09_uniqueness_as_reproducibility():
    a = run_cli(
        "derive", spec_path("wp-lemniscatic.spec"), "--seed", "0", "--samples", "100"
    )
    b = run_cli(
        "derive", spec_path("wp-lemniscatic.spec"), "--seed", "1", "--samples", "400"
    )
    assert a.stdout == b.stdout
    record(True, "criterion 09: derivation byte-identical across seeds and sample counts")


def test_criterion_10_same_theorem(theorems):
    a = parse_spec("class: exp\nphi: t\n")
    b = parse_spec("class: exp\nphi: t^2\n")
    verdict = same_theorem(a, b, CFG)
    assert verdict.same
    assert 1.999999 <= abs(verdict.alpha) <= 2.000001
    assert abs(verdict.alpha.imag) < 1e-6

    c = parse_spec("class: exp\nphi: t + 1\n")
    verdict = same_theorem(a, c, CFG)
    assert not verdict.same
    stated = parse_polynomial("x*y - x - y - z + 2", ("x", "y", "z")).canonicalize()
    assert theorems("class: exp\nphi: t + 1\n").G == stated

    lem = spec_text("wp-lemniscatic.spec")
    spec = parse_spec(lem)
    g = theorems(lem).G
    for s in sample_graph(spec, 50, CFG, salt=1010):
        point = {
            "x": phi_eval(spec, -s["u"]),
            "y": phi_eval(spec, -s["v"]),
            "z": phi_eval(spec, -(s["u"] + s["v"])),
        }
        assert relative_residual(g, point) < 1e-9
    record(True, "criterion 10: same-theorem verdicts, alpha ~ 2, negated-argument closure")


def test_criterion_11_derivative_relations():
    assert derivative_relation(parse_spec(spec_text("wp-lemniscatic.spec"))).to_text() == "4*x^3 - d^2 - 4*x"
    assert derivative_relation(parse_spec("class: exp\nphi: t\n")).to_text() == "d - x"
    assert derivative_relation(parse_spec("class: rational\nphi: u\n")).to_text() == "d - 1"
    rng = random.Random(77)
    for text in (spec_text("wp-lemniscatic.spec"), "class: exp\nphi: t\n", "class: rational\nphi: u\n"):
        spec = parse_spec(text)
        rel = derivative_relation(spec)
        checked = 0
        while checked < 10:
            r = 0.06 + 0.15 * rng.random()
            u = r * cmath.exp(2j * cmath.pi * rng.random())
            try:
                xval = phi_eval(spec, u)
                dval = phi_derivative_numeric(spec, u)
            except Exception:
                continue
            assert relative_residual(rel, {"x": xval, "d": dval}) < 1e-5
            checked += 1
    record(True, "criterion 11: derivative relations exact and confirmed by finite differences")


def test_criterion_12_numeric_kernel(monkeypatch):
    rng = random.Random(99)
    monkeypatch.setattr(numeric, "SAMPLE_RADIUS", (0.01, 0.25))
    for g2, g3 in ((Q(4), Q(0)), (Q(4), Q(1))):
        for _ in range(60):
            r = 0.05 + 0.2 * rng.random()
            u = r * cmath.exp(2j * cmath.pi * rng.random())
            p, dp = wp_pair(g2, g3, u)
            residual = abs(dp * dp - (4 * p**3 - complex(g2) * p - complex(g3)))
            assert residual / max(1.0, abs(dp * dp)) < 1e-9
            # homogeneity with s = 2
            lhs = wp_pair(g2 / 16, g3 / 64, u)[0]
            rhs = wp_pair(g2, g3, u / 2)[0] / 4
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-9
    record(True, "criterion 12: wp differential equation and homogeneity below 1e-9")


def test_criterion_13_rational_expressibility(theorems):
    expected_true = {"exp-t.spec", "rational-u.spec", "mobius.spec"}
    got_true = set()
    for name in BUNDLED:
        spec = parse_spec(spec_text(name))
        theorem = bundle_theorem(theorems, name)
        expressible = theorem.law.actual[2] == 1
        assert expressible == check_rational_expressibility(parse_spec(spec_text(name)))
        if expressible:
            got_true.add(name)
    assert got_true == expected_true
    record(True, "criterion 13: rationally expressible exactly for the nu = 1 specs")


def test_criterion_14_wall_clock():
    elapsed = time.monotonic() - _MODULE_STARTED
    assert elapsed < 300.0, f"acceptance module took {elapsed:.0f}s"
    record(True, f"criterion 14: acceptance wall-clock {elapsed:.0f}s < 300s")
