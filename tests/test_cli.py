import argparse
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ROOT, SRC, spec_path

SCHEMA = json.loads(
    (SRC / "addtheo" / "schema" / "report.schema.json").read_text(encoding="utf-8")
)
GOLDEN_G = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))["derive"]
# the bundled specs; the other golden keys are inline specs such as "exp: t^2"
BUNDLED_G = sorted(name for name in GOLDEN_G if ":" not in name)


def run_cli(*args, expect_code=0):
    """cli.main(args) in this process, its exit code and output returned as
    from a fresh process: for tests whose subject is a command's stdout,
    stderr or exit code.  No assertion reads numeric's lru_cache of the
    series table, which is pure, so it is not cleared."""
    import addtheo.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    proc = subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())
    assert proc.returncode == expect_code, (
        f"exit {proc.returncode} != {expect_code}\nstdout: {proc.stdout}\n"
        f"stderr: {proc.stderr}"
    )
    return proc


def run_process(*args, expect_code=0, timeout=300, entry=("-m", "addtheo.cli")):
    """A fresh Python process, for tests whose subject is the process: its
    entry and exit, the modules it runs, its hash seed, its wall time, or a
    timeout that guards against a hang."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *entry, *args],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env=env,
        timeout=timeout,
    )
    assert proc.returncode == expect_code, (
        f"exit {proc.returncode} != {expect_code}\nstdout: {proc.stdout}\n"
        f"stderr: {proc.stderr}"
    )
    return proc


def validate_report(stdout: str) -> dict:
    jsonschema = pytest.importorskip("jsonschema")
    report = json.loads(stdout)
    jsonschema.validate(report, SCHEMA)
    return report


def test_derive_exp_golden():
    proc = run_cli("derive", spec_path("exp-t.spec"))
    assert proc.stdout == "x*y - z\n"


def test_derive_cosh_golden():
    proc = run_cli("derive", spec_path("cosh.spec"))
    assert proc.stdout == "2*x*y*z - z^2 - y^2 - x^2 + 1\n"


def test_krel_of_sin_certifies_with_lambda_2(tmp_path):
    # sin(u) = phi(t) with t = exp(i*u) is fixed by u -> pi - u, which is
    # t -> -1/t; with lambda = 2 the K degree law nu^3/lambda reads 4
    spec = tmp_path / "sin.spec"
    spec.write_text("class: exp\nphi: (t^2 - 1)/(2*t)\nmu: i\n", encoding="utf-8")
    proc = run_cli("krel", str(spec))
    assert proc.stdout.splitlines()[-1] == "degrees=4,4,4,4 lambda=2"


def test_derive_trace_eliminates_once(monkeypatch, capsys):
    import addtheo.cli as cli
    from addtheo import derive

    calls = []
    real = derive.eliminate

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(derive, "eliminate", counting)
    assert cli.main(["derive", spec_path("cosh.spec"), "--trace"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == "2*x*y*z - z^2 - y^2 - x^2 + 1\n"


def test_derive_trace_comes_before_a_failed_degree_law(tmp_path, capsys):
    # phi is invariant under a half-period translation, which the law does
    # not count yet (ROADMAP item 7): the eliminant is printed, then pruning
    # fails the law
    import addtheo.cli as cli

    spec = tmp_path / "isogeny.spec"
    spec.write_text("class: elliptic\ng2: -8/3\ng3: 28/27\n"
                    "phi: ((p-1/3)^2 + (p-1/3) + 1)/(p-1/3)\n", encoding="utf-8")
    assert cli.main(["derive", str(spec), "--trace"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    trace = err.index("trace (non-contractual): eliminant = ")
    assert trace < err.index("error: derived degree 2 does not match the degree law")


def test_derive_trace_stderr_and_identical_stdout():
    plain = run_cli("derive", spec_path("cosh.spec"))
    traced = run_cli("derive", spec_path("cosh.spec"), "--trace")
    assert traced.stdout == plain.stdout
    assert "trace (non-contractual): eliminant = 4*x^2*y^2*z^2 - " in traced.stderr
    assert "trace" not in plain.stderr


def test_derive_broken_spec_exit_2():
    proc = run_cli("derive", spec_path("broken.spec"), expect_code=2)
    assert "discriminant" in proc.stderr


def test_derive_json_schema_and_content():
    proc = run_cli("derive", spec_path("exp-t.spec"), "--json")
    report = validate_report(proc.stdout)
    assert report["status"] == "ok"
    assert report["result"]["theorem"]["G"] == "x*y - z"
    assert report["result"]["theorem"]["degrees"] == [1, 1, 1]


def test_derive_stdout_deterministic():
    # two processes, so two hash seeds: no output may follow set or dict order
    a = run_process("derive", spec_path("cosh.spec"), "--json")
    b = run_process("derive", spec_path("cosh.spec"), "--json")
    assert a.stdout == b.stdout


def test_verify_ok_and_fail():
    proc = run_cli("verify", spec_path("exp-t.spec"), "--g", "x*y - z")
    assert proc.stdout.startswith("ok max_residual=")
    proc = run_cli("verify", spec_path("exp-t.spec"), "--g", "x + y - z", expect_code=1)
    assert "exceeds tol" in proc.stderr


@pytest.mark.parametrize("spec, candidate", [
    ("cos", "2*x*y*z - z^2 - y^2 - x^2 + 1 + x/1000000000000"),
    ("wp-generic", GOLDEN_G["wp-generic"] + " + x/10000000000"),
])
def test_verify_rejects_a_candidate_that_only_nearly_vanishes(spec, candidate):
    # the float residual of each is below the class tolerance; exact
    # vanishing mod p decides, and the message names the prime and the point
    proc = run_cli("verify", spec_path(f"{spec}.spec"), "--g", candidate, expect_code=1)
    assert proc.stdout == ""
    assert "error: G does not vanish on the graph mod 2305843009213693951 at (x, y, z) = (" in proc.stderr


def test_verify_fails_a_candidate_whose_residual_overflows(capsys):
    # a multiple of G whose float values overflow has no finite residual:
    # the certification must fail it with a message, not raise
    import addtheo.cli as cli

    g = f"(10^300*x^50 + 1)*({GOLDEN_G['wp-generic']})"
    assert cli.main(["verify", spec_path("wp-generic.spec"), "--g", g]) == 1
    assert capsys.readouterr().err.startswith("error: max_residual=inf exceeds tol=1.0e-06 at u=")


def test_coefficients_past_the_float_range_fail_with_a_message(tmp_path):
    # 10^400 has no float: its column reads inf, so verify reports an
    # infinite residual, and every complex value of the derived G exceeds the
    # pole guard, which is a degeneracy; neither ends in a traceback
    proc = run_cli("verify", spec_path("cos.spec"), "--g", "10^400*x*y*z - z^2 - y^2 - x^2 + 1",
                   expect_code=1)
    assert proc.stderr.startswith("error: max_residual=inf exceeds tol=1.0e-09 at u=")
    spec = tmp_path / "large.spec"
    spec.write_text("class: rational\nphi: u^2 + 10^200*u\n", encoding="utf-8")
    proc = run_cli("derive", str(spec), expect_code=3)
    assert proc.stderr.startswith("error: spec has dense poles in sampling window\n")


def _verify_code(spec, candidate):
    import addtheo.cli as cli

    return cli.main(["verify", spec_path(f"{spec}.spec"), "--g", candidate])


@pytest.mark.xfail(strict=True, reason="the exact verdict uses a fixed prime, so a multiple "
                   "of G mod that prime passes it (ROADMAP item 8)")
def test_verify_rejects_a_multiple_of_g_mod_the_prime():
    # 10^30*G + (2^61 - 1)*x is 10^30*G mod 2^61 - 1, and its residual is
    # about 1.2e-12, below the class tolerance
    g = "1000000000000000000000000000000*(2*x*y*z - z^2 - y^2 - x^2 + 1)"
    assert _verify_code("cos", f"{g} + 2305843009213693951*x") == 1


small_rational = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@settings(max_examples=25, deadline=timedelta(seconds=5))
@given(name=st.sampled_from(BUNDLED_G), c=small_rational, k=small_rational,
       i=st.integers(0, 3), j=st.integers(0, 3))
def test_verify_accepts_exactly_the_multiples_of_g(name, c, k, i, j):
    g = GOLDEN_G[name]
    assert _verify_code(name, f"{g} + ({c})*x^{i}*y^{j}") == 1
    assert _verify_code(name, f"({k})*({g})") == 0
    assert _verify_code(name, f"({g})*(x - y)") == 0


def test_verify_needs_a_prime_that_reduces_the_spec(tmp_path, capsys):
    # every prime tried divides phi's denominator, so vanishing cannot be
    # decided exactly, and a candidate that is right is not accepted either
    import addtheo.cli as cli
    from addtheo.numeric import PRIMES

    spec = tmp_path / "all-bad.spec"
    spec.write_text(f"class: rational\nphi: u/{math.prod(PRIMES)}\n", encoding="utf-8")
    assert cli.main(["verify", str(spec), "--g", "z - y - x"]) == 1
    assert "error: no prime tried reduces the spec" in capsys.readouterr().err


def test_verify_g_from_file(tmp_path):
    g_file = tmp_path / "g.txt"
    g_file.write_text("x*y - z\n")
    run_cli("verify", spec_path("exp-t.spec"), "--g", str(g_file))


def test_degrees_line(tmp_path):
    proc = run_cli("degrees", spec_path("wp-lemniscatic.spec"))
    assert proc.stdout == "m=1 nu=2 lambda0=2 predicted=2\n"
    proc = run_cli("degrees", spec_path("exp-t.spec"), "--derive")
    assert proc.stdout == "m=1 nu=1 lambda0=1 predicted=1 actual=1,1,1\n"
    # q^2 = 4p^3 - 4p: on the way a partner is a multiple of a pivot whose
    # leading coefficient is not constant; it is skipped, not degenerate
    spec = tmp_path / "q2.spec"
    spec.write_text("class: elliptic\ng2: 4\ng3: 0\nphi: q^2\n", encoding="utf-8")
    proc = run_cli("degrees", str(spec), "--derive")
    assert proc.stdout == "m=1 nu=6 lambda0=2 predicted=18 actual=18,18,18\n"


@pytest.mark.parametrize("phi, mu, shown", [
    ("t", "1/2*i", "class: exp\nphi: t\nmu: 1/2*i\n"),
    ("t^2", "3", "class: exp\nphi: t\nmu: 6\n"),
], ids=["imaginary-mu", "power-of-t"])
def test_derive_report_shows_the_normalized_mu(tmp_path, phi, mu, shown):
    spec = tmp_path / "exp.spec"
    spec.write_text(f"class: exp\nphi: {phi}\nmu: {mu}\n", encoding="utf-8")
    report = validate_report(run_cli("derive", str(spec), "--json").stdout)
    assert report["result"]["theorem"]["spec"] == shown


def test_symmetry_lines(tmp_path):
    proc = run_cli("symmetry", spec_path("wp-prime.spec"))
    assert "lambda0=1" in proc.stdout
    spec = tmp_path / "zeta3.spec"
    spec.write_text("class: elliptic\ng2: 0\ng3: 1\nphi: q\n", encoding="utf-8")
    assert run_cli("symmetry", str(spec)).stdout == (
        "multipliers=1,zeta3,zeta3^2 lambda0=3 group=1,zeta3,zeta3^2 lambda=3 "
        "beta_search=2-division\n"
    )
    proc = run_cli("symmetry", spec_path("wp-squared.spec"))
    assert "multipliers=1,-1,i,-i" in proc.stdout
    assert "lambda0=4" in proc.stdout
    proc = run_cli("symmetry", spec_path("exp-t.spec"), "--json")
    report = validate_report(proc.stdout)
    assert report["result"]["symmetry"]["lambda0"] == 1


def test_symmetry_half_period_coset_of_minus_one(tmp_path):
    # phi = q/p + 2/3 has only the multiplier 1, but u -> -u + b fixes it for
    # the half-period b with wp(b) = 0: the translate's scaling condition is
    # s = -1, the coset k = 1, c = -1, so the group is mu_2
    spec = tmp_path / "coset.spec"
    spec.write_text("class: elliptic\ng2: 4\ng3: 0\nphi: (3*q + 2*p)/(3*p)\n", encoding="utf-8")
    assert run_cli("symmetry", str(spec)).stdout == (
        "multipliers=1 lambda0=1 group=1,-1 lambda=2 beta_search=2-division\n"
    )


def test_degenerate_elimination_message_counts_terms(tmp_path):
    # N and D share the curve point (0, 0); the message gives the two
    # relations' sizes, not their whole text
    spec = tmp_path / "coset.spec"
    spec.write_text("class: elliptic\ng2: 4\ng3: 0\nphi: (3*q + 2*p)/(3*p)\n", encoding="utf-8")
    report = validate_report(run_cli("derive", str(spec), "--json", expect_code=3).stdout)
    assert report["status"] == "degenerate"
    assert "eliminating p2" in report["message"]
    assert len(report["message"]) < 200


def test_krel_exp_and_rational():
    proc = run_cli("krel", spec_path("exp-t.spec"))
    assert proc.stdout.splitlines()[0] == "x1*x2 - x3*x4"
    assert "degrees=1,1,1,1 lambda=1" in proc.stdout
    proc = run_cli("krel", spec_path("rational-u.spec"))
    assert proc.stdout.splitlines()[0] == "x1 + x2 - x3 - x4"


def test_krel_order_two_meets_degree_law():
    # nu = 2, lambda = 2: the K-relation has degree nu^3/lambda = 4 per variable
    proc = run_cli("krel", spec_path("cosh.spec"))
    assert proc.stdout.splitlines()[1] == "degrees=4,4,4,4 lambda=2"
    proc = run_cli("krel", spec_path("cosh.spec"), "--json")
    report = validate_report(proc.stdout)
    assert report["status"] == "ok"
    assert report["result"]["k_relation"]["degrees"] == [4, 4, 4, 4]


def test_reduce_f(tmp_path):
    f = tmp_path / "f.txt"
    f.write_text("Z - X*Y\n")
    proc = run_cli("reduce-f", str(f), "--x0", "1", "--y0", "1")
    assert proc.stdout == "z1*z2 - z3\n"
    run_cli("reduce-f", str(f), "--x0", "0", "--y0", "1", expect_code=3)
    f2 = tmp_path / "f2.txt"
    f2.write_text("Z - X - Y\n")
    proc = run_cli("reduce-f", str(f2), "--x0", "0", "--y0", "0")
    assert proc.stdout == "z1 + z2 - z3\n"


def test_same_command(tmp_path):
    t2 = tmp_path / "exp-t2.spec"
    t2.write_text("class: exp\nphi: t^2\n")
    proc = run_cli("same", spec_path("exp-t.spec"), str(t2))
    assert proc.stdout.startswith("same=true alpha=2")
    proc = run_cli("same", spec_path("exp-t.spec"), spec_path("cosh.spec"))
    assert proc.stdout == "same=false\n"
    proc = run_cli("same", spec_path("cos.spec"), spec_path("cosh.spec"))
    assert proc.stdout == "same=true alpha=-1i\n"
    proc = run_cli("same", spec_path("cosh.spec"), spec_path("cosh.spec"), "--json")
    report = validate_report(proc.stdout)
    assert report["result"]["same_theorem"]["same"] is True


@pytest.mark.parametrize(
    "phi_a,phi_b,line",
    [
        ("rational: u", "rational: 10*u", "same=true alpha=10"),
        ("rational: 10*u", "rational: u", "same=true alpha=0.1"),
        ("exp: t", "exp: t^10", "same=true alpha=10"),
    ],
)
def test_same_alpha_outside_the_sampling_window(tmp_path, phi_a, phi_b, line):
    paths = []
    for i, text in enumerate((phi_a, phi_b)):
        cls, phi = text.split(": ")
        path = tmp_path / f"{i}.spec"
        path.write_text(f"class: {cls}\nphi: {phi}\n")
        paths.append(str(path))
    assert run_cli("same", *paths).stdout == line + "\n"


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("class: exp\nphi: t +\n")
    proc = run_cli("derive", str(bad), expect_code=2)
    assert "error:" in proc.stderr


@pytest.mark.parametrize("phi", [
    pytest.param("²", id="superscript-digit"),
    pytest.param("(" * 400 + "u" + ")" * 400, id="deep-parentheses"),
    pytest.param("-" * 3000 + "u", id="deep-signs"),
    pytest.param("u^70000", id="power-degree"),
    pytest.param("u + 2^2000000", id="power-coefficient"),
    pytest.param("((2^1000)^1000)^1000", id="nested-powers"),
    pytest.param("u + " + "7" * 5000, id="long-literal"),
    pytest.param("u^60000*u^60000", id="product-degree"),
    pytest.param("u^60000/(1/u^60000)", id="quotient-degree"),
    pytest.param("1/u^40000 + 1/u^40000", id="sum-degree"),
])
def test_hostile_expression_is_a_parse_error(tmp_path, phi):
    bad = tmp_path / "bad.spec"
    bad.write_text(f"class: rational\nphi: {phi}\n", encoding="utf-8")
    start = time.monotonic()
    proc = run_cli("derive", str(bad), "--json", expect_code=2)
    assert time.monotonic() - start < 1.0
    assert validate_report(proc.stdout)["status"] == "parse-error"
    assert "Traceback" not in proc.stderr


def test_monomial_overflow_is_a_parse_error(tmp_path):
    # u^40000 parses, but the exact scaling condition of symmetry doubles its
    # degree past the 16-bit monomial field: the input is too large
    big = tmp_path / "big.spec"
    big.write_text("class: rational\nphi: u^40000\n", encoding="utf-8")
    proc = run_cli("symmetry", str(big), "--json", expect_code=2)
    report = validate_report(proc.stdout)
    assert report["status"] == "parse-error"
    assert "monomial field" in report["message"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["derive", "degrees"])
def test_spec_at_a_critical_value_of_the_old_preimage_count(tmp_path, command):
    # 671563/565570 is the value whose preimages the order once counted as a
    # cross-check; for this phi it is a critical value with one preimage
    spec = tmp_path / "critical.spec"
    spec.write_text("class: rational\nphi: u^2 + 671563/565570\n", encoding="utf-8")
    result = validate_report(run_cli(command, str(spec), "--json").stdout)["result"]
    if command == "derive":
        assert result["theorem"]["degrees"] == [2, 2, 2]
    else:
        assert (result["degrees"]["nu"], result["degrees"]["predicted"]) == (2, 2)


@pytest.mark.parametrize("command", ["derive", "degrees"])
@pytest.mark.parametrize("power", [40000, 65535])
def test_oversized_law_stops_before_elimination(tmp_path, command, power):
    # the scaling condition of the degree law passes the monomial field, and
    # derive forms the law before it eliminates
    big = tmp_path / "big.spec"
    big.write_text(f"class: rational\nphi: u^{power}\n", encoding="utf-8")
    proc = run_process(command, str(big), "--json", expect_code=2, timeout=60)
    report = validate_report(proc.stdout)
    assert report["status"] == "parse-error"
    assert "monomial field" in report["message"]


def test_verify_g_with_superscript_digit_is_a_parse_error():
    proc = run_cli("verify", spec_path("cos.spec"), "--g", "²", "--json", expect_code=2)
    assert validate_report(proc.stdout)["status"] == "parse-error"


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_spec_exit_2(tmp_path, kind):
    path = {
        "missing": tmp_path / "nonexist.spec",
        "directory": tmp_path,
        "not-utf8": tmp_path / "bytes.spec",
    }[kind]
    if kind == "not-utf8":
        path.write_bytes(bytes(range(128, 228)))
    proc = run_cli("derive", str(path), expect_code=2)
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors and str(path) in errors[0]
    proc = run_cli("derive", str(path), "--json", expect_code=2)
    report = validate_report(proc.stdout)
    assert report["status"] == "parse-error"
    assert str(path) in report["message"]


def test_reduce_f_missing_file_exit_2(tmp_path):
    missing = tmp_path / "nonexist.txt"
    proc = run_cli("reduce-f", str(missing), "--x0", "1", "--y0", "1", expect_code=2)
    assert proc.stderr.startswith(f"error: cannot read {missing}")


def test_json_error_report_validates(tmp_path):
    proc = run_cli("derive", spec_path("broken.spec"), "--json", expect_code=2)
    report = validate_report(proc.stdout)
    assert report["status"] == "parse-error"
    assert "discriminant" in report["message"]


# the status and exit code the errors.py docstring gives each error class
ERROR_STATUS = {
    "AddTheoError": ("verification-failed", 1),
    "ZeroPolynomialError": ("verification-failed", 1),
    "ExprSyntaxError": ("parse-error", 2),
    "SpecValidationError": ("parse-error", 2),
    "MonomialOverflowError": ("parse-error", 2),
    "DegenerateEliminationError": ("degenerate", 3),
    "DegenerateSpecializationError": ("degenerate", 3),
    "SamplingError": ("degenerate", 3),
    "PruningError": ("verification-failed", 1),
    "VerificationError": ("verification-failed", 1),
    "DegreeLawError": ("verification-failed", 1),
}


def test_status_table_names_every_error_class():
    from addtheo import errors

    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.AddTheoError)}
    assert classes == set(ERROR_STATUS)


@pytest.mark.parametrize("name", ERROR_STATUS)
def test_each_error_class_exits_with_its_status(monkeypatch, capsys, name):
    import addtheo.cli as cli
    from addtheo import errors

    def raising(args):
        raise getattr(errors, name)("raised by the handler")

    monkeypatch.setitem(cli._COMMANDS, "derive", (raising, *cli._COMMANDS["derive"][1:]))
    status, code = ERROR_STATUS[name]
    assert cli.main(["derive", spec_path("cos.spec"), "--json"]) == code
    report = validate_report(capsys.readouterr().out)
    assert (report["status"], report["message"]) == (status, "raised by the handler")
    assert "result" not in report


def test_timing_on_stderr_only():
    proc = run_cli("derive", spec_path("exp-t.spec"))
    assert "elapsed_ms" not in proc.stdout
    assert "elapsed_ms=" in proc.stderr


def test_main_leaves_the_collector_unfrozen(capsys):
    # in-process callers run many commands in one process and rely on
    # collection between them; only the process entry run() freezes
    import gc

    import addtheo.cli as cli

    before = gc.get_freeze_count()
    assert cli.main(["derive", spec_path("cos.spec")]) == 0
    assert cli.main(["derive", spec_path("broken.spec"), "--json"]) == 2
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "argv, code",
    [
        (["derive", spec_path("cos.spec")], 0),
        (["verify", spec_path("exp-t.spec"), "--g", "x + y - z"], 1),
        (["derive", spec_path("broken.spec"), "--json"], 2),
        (["reduce-f", "F", "--x0", "0", "--y0", "1"], 3),
    ],
)
def test_run_exits_as_the_module_does(tmp_path, argv, code):
    f = tmp_path / "f.txt"
    f.write_text("Z - X*Y\n")
    argv = [str(f) if arg == "F" else arg for arg in argv]
    module = run_process(*argv, expect_code=code)
    entry = run_process(*argv, expect_code=code, entry=("-c", "from addtheo.cli import run; run()"))
    assert entry.stdout == module.stdout

    def untimed(stderr):
        return [line for line in stderr.splitlines() if not line.startswith("elapsed_ms=")]

    assert untimed(entry.stderr) == untimed(module.stderr)


# cli defers four modules (docs/decisions.md section 6): each is in
# sys.modules from the start, and a plain module once its code has run
DEFERRED = ("numeric", "factor", "derive", "laws")
RAN_DEFERRED = (
    "import sys, types\n"
    "import addtheo.cli as cli\n"
    "if sys.argv[1:]:\n"
    "    cli.main(sys.argv[1:])\n"
    "print(*[name for name in " + repr(DEFERRED) + "\n"
    "        if type(sys.modules['addtheo.' + name]) is types.ModuleType])\n"
)


@pytest.mark.parametrize("argv, ran", [
    ((), ()),
    (("derive", spec_path("broken.spec")), ()),
    (("verify", spec_path("cos.spec"), "--g", GOLDEN_G["cos"]), ("numeric",)),
    (("symmetry", spec_path("cos.spec")), ("laws",)),
    (("symmetry", spec_path("wp-prime.spec")), ("factor", "laws")),
    (("degrees", spec_path("cos.spec")), ("laws",)),
    (("reduce-f", "F", "--x0", "1", "--y0", "1"), ("derive",)),
    (("derive", spec_path("cos.spec")), DEFERRED),
], ids=["import", "derive-broken", "verify-cos", "symmetry-cos", "symmetry-wp-prime",
        "degrees-cos", "reduce-f", "derive-cos"])
def test_each_command_runs_only_the_modules_it_uses(tmp_path, argv, ran):
    f = tmp_path / "f.txt"
    f.write_text("Z - X*Y\n")
    argv = [str(f) if a == "F" else a for a in argv]
    proc = run_process(*argv, entry=("-c", RAN_DEFERRED))
    assert proc.stdout.splitlines()[-1].split() == list(ran)


def test_cli_keeps_a_deferred_module_imported_before_it(monkeypatch):
    # a library user or a test that imported derive first, then cli, sees one
    # module object, not a second, lazy one
    import importlib

    import addtheo
    from addtheo import derive

    # a second import of cli; both entries get the first one back afterwards
    monkeypatch.delitem(sys.modules, "addtheo.cli", raising=False)
    monkeypatch.setattr(addtheo, "cli", None, raising=False)
    cli = importlib.import_module("addtheo.cli")
    assert cli.derive is derive is sys.modules["addtheo.derive"]


def test_option_values_that_start_with_a_minus_sign(tmp_path, capsys):
    # argparse reads "--x0 -5/2" as two options; the README's "--x0=-5/2"
    # form passes the value
    import addtheo.cli as cli

    f = tmp_path / "f.txt"
    f.write_text("Z - X*Y\n")
    assert cli.main(["reduce-f", str(f), "--x0=-5/2", "--y0", "1"]) == 0
    assert capsys.readouterr().out == "2*z1*z2 + 5*z3\n"
    g = "--g=-(2*x*y*z - z^2 - y^2 - x^2 + 1)"
    assert cli.main(["verify", spec_path("cos.spec"), g]) == 0
    assert capsys.readouterr().out.startswith("ok max_residual=")


def test_verify_g_file_not_utf8_exit_2(tmp_path):
    g_file = tmp_path / "g.bin"
    g_file.write_bytes(bytes(range(128, 228)))
    proc = run_cli("verify", spec_path("cos.spec"), "--g", str(g_file), expect_code=2)
    assert proc.stderr.startswith(f"error: cannot read {g_file}")
    proc = run_cli("verify", spec_path("cos.spec"), "--g", str(g_file), "--json", expect_code=2)
    report = validate_report(proc.stdout)
    assert report["status"] == "parse-error"
    assert str(g_file) in report["message"]


@pytest.mark.parametrize("mu", ["0", "0*i"])
def test_zero_mu_exits_2(tmp_path, mu):
    spec = tmp_path / "mu0.spec"
    spec.write_text(f"class: exp\nphi: t\nmu: {mu}\n", encoding="utf-8")
    proc = run_cli("derive", str(spec), "--json", expect_code=2)
    report = validate_report(proc.stdout)
    assert report["status"] == "parse-error"
    assert report["message"].startswith("mu = 0")


@pytest.mark.parametrize("candidate", ["0", "x - x"])
def test_verify_zero_candidate_exits_2_before_sampling(monkeypatch, capsys, candidate):
    import addtheo.cli as cli
    from addtheo import numeric

    def never(*args, **kwargs):
        raise AssertionError("sampled a zero candidate")

    monkeypatch.setattr(numeric, "sample_graph", never)
    assert cli.main(["verify", spec_path("cos.spec"), "--g", candidate]) == 2
    assert "error: the candidate G is the zero polynomial" in capsys.readouterr().err


@pytest.mark.parametrize("args, option", [
    (("reduce-f", "F", "--x0", "abc", "--y0", "1"), "--x0"),
    (("reduce-f", "F", "--x0", "1", "--y0", "1/0"), "--y0"),
    (("derive", "cos", "--samples", "0"), "--samples"),
    (("derive", "cos", "--samples", "-3"), "--samples"),
    (("krel", "cos", "--samples", "-3"), "--samples"),
    (("verify", "cos", "--g", "x", "--tol", "0"), "--tol"),
    (("derive", "cos", "--tol", "1.5"), "--tol"),
], ids=["x0-text", "y0-zero-denominator", "samples-0", "samples-negative",
        "krel-samples-negative", "tol-0", "tol-above-1"])
def test_bad_option_values_exit_2_before_computing(tmp_path, args, option):
    f = tmp_path / "f.txt"
    f.write_text("Z - X*Y\n")
    argv = [str(f) if a == "F" else spec_path("cos.spec") if a == "cos" else a for a in args]
    proc = run_cli(*argv, "--json", expect_code=2)
    report = validate_report(proc.stdout)
    assert report["status"] == "parse-error"
    assert report["message"].startswith(option)
    assert "result" not in report


def test_bad_sample_count_stops_before_elimination(monkeypatch, capsys):
    import addtheo.cli as cli
    from addtheo import derive

    def never(spec):
        raise AssertionError("eliminated before the options were checked")

    monkeypatch.setattr(derive, "eliminate", never)
    assert cli.main(["derive", spec_path("cos.spec"), "--samples", "-3"]) == 2
    assert "error: --samples must be positive" in capsys.readouterr().err


# max_residual in --json is computed on the complex certification points and
# is an output contract (docs/decisions.md section 1): these exact reprs at
# seed 0 fail if any change to sampling or evaluation moves a bit
MAX_RESIDUAL_REPRS = [
    (("derive", "cos"), "theorem", "3.320793718163463e-16"),
    (("derive", "exp-t"), "theorem", "5.843405001871635e-16"),
    (("derive", "wp-prime"), "theorem", "9.211938382485828e-16"),
    (("krel", "wp-generic"), "k_relation", "1.6273562967363023e-15"),
    (("verify", "wp-squared"), None, "1.5156110519284296e-15"),
]


@pytest.mark.parametrize("command, key, expected", MAX_RESIDUAL_REPRS,
                         ids=[" ".join(c) for c, _, _ in MAX_RESIDUAL_REPRS])
def test_max_residual_is_bit_identical(capsys, command, key, expected):
    import addtheo.cli as cli

    verb, name = command
    argv = [verb, spec_path(f"{name}.spec"), "--json", "--seed", "0"]
    if verb == "verify":
        golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
        argv += ["--g", golden["derive"][name]]
    assert cli.main(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert repr((result[key] if key else result)["max_residual"]) == expected


# the one certification message (numeric.certify) at seed 0: the largest
# residual, the tolerance and the drawn arguments of the sample reaching it;
# cosh's G passes at 5e-16 and its K does not
CERTIFY_FAILURES = [
    (("derive", "cos", "--tol", "1e-30"), "max_residual=3.321e-16 exceeds tol=1.0e-30 "
     "at u=-0.0503622+0.0692565i v=-0.141702-0.204065i"),
    (("krel", "cosh", "--tol", "5e-16"), "max_residual=6.187e-16 exceeds tol=5.0e-16 "
     "at u=0.235788-0.059542i v=0.0104099-0.090076i w=0.0535992-0.00522589i"),
    (("verify", "cos", "--tol", "1e-30", "--g", GOLDEN_G["cos"]), "max_residual=4.433e-16 "
     "exceeds tol=1.0e-30 at u=0.0181333-0.0517197i v=-0.0835898-0.0482861i"),
]


@pytest.mark.parametrize("command, message", CERTIFY_FAILURES,
                         ids=[" ".join(c[:2]) for c, _ in CERTIFY_FAILURES])
def test_certification_failure_names_the_worst_sample(capsys, command, message):
    import addtheo.cli as cli

    verb, name, *rest = command
    assert cli.main([verb, spec_path(f"{name}.spec"), *rest, "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == "error: " + message


# the whole --json result of each report kind at seed 0, floats as printed:
# a change to a record or to the JSON rule must keep every byte
RESULT_PINS = [
    (("derive", "wp-generic"), {"theorem": {
        "G": "y^2*z^2 - 2*x*y*z^2 + x^2*z^2 - 2*x*y^2*z - 2*x^2*y*z + x^2*y^2"
             " + 2*y*z + 2*x*z + 2*x*y + z + y + x + 1",
        "class": "elliptic", "degrees": [2, 2, 2], "lambda0": 2,
        "max_residual": 9.857059451651346e-16, "nu": 2, "predicted_degree": 2,
        "samples": 200, "seed": 0, "spec": "class: elliptic\nphi: p\ng2: 4\ng3: 1\n",
    }}),
    (("degrees", "cos", "--derive"), {"degrees": {
        "actual": [2, 2, 2], "lambda0": 2, "m": 1, "nu": 2, "predicted": 2,
    }}),
    (("degrees", "wp-squared"), {"degrees": {
        "actual": None, "lambda0": 4, "m": 1, "nu": 4, "predicted": 4,
    }}),
    (("symmetry", "wp-squared"), {"symmetry": {
        "beta_search": "2-division", "group_alphas": [[1, 0], [2, 1], [4, 1], [4, 3]],
        "lambda": 4, "lambda0": 4, "multipliers": [[1, 0], [2, 1], [4, 1], [4, 3]],
    }}),
    (("krel", "cosh"), {
        "k_relation": {
            "K": "4*x1^3*x2*x3*x4 - 4*x1^2*x2^2*x3^2 - 4*x1^2*x2^2*x4^2"
                 " - 4*x1^2*x3^2*x4^2 + 4*x1*x2^3*x3*x4 + 4*x1*x2*x3^3*x4"
                 " + 4*x1*x2*x3*x4^3 - 4*x2^2*x3^2*x4^2 - x1^4 + 2*x1^2*x2^2"
                 " + 2*x1^2*x3^2 + 2*x1^2*x4^2 - 8*x1*x2*x3*x4 - x2^4"
                 " + 2*x2^2*x3^2 + 2*x2^2*x4^2 - x3^4 + 2*x3^2*x4^2 - x4^4",
            "degrees": [4, 4, 4, 4], "lambda": 2, "max_residual": 6.186840139471051e-16,
            "samples": 200, "seed": 0,
        },
        "theorem": {
            "G": "2*x*y*z - z^2 - y^2 - x^2 + 1", "class": "exp", "degrees": [2, 2, 2],
            "lambda0": 2, "max_residual": 3.2918765759232863e-16, "nu": 2,
            "predicted_degree": 2, "samples": 200, "seed": 0,
            "spec": "class: exp\nphi: (t^2 + 1)/(2*t)\n",
        },
    }),
    (("same", "cos", "cosh"), {"same_theorem": {
        "alpha": [0.0, -1.0], "same": True, "warning": None,
    }}),
]


@pytest.mark.parametrize("command, expected", RESULT_PINS,
                         ids=[" ".join(c) for c, _ in RESULT_PINS])
def test_json_result_is_pinned(capsys, command, expected):
    import addtheo.cli as cli

    verb, *rest = command
    argv = [verb] + [spec_path(f"{a}.spec") if not a.startswith("--") else a for a in rest]
    assert cli.main(argv + ["--json", "--seed", "0"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    # compared as text, so 1 and 1.0 differ
    assert json.dumps(result, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_same_draws_the_requested_samples(monkeypatch, capsys):
    import addtheo.cli as cli
    from addtheo import numeric

    draws = []
    real = numeric.sample_graph

    def counting(spec, n, *args, **kwargs):
        draws.append(n)
        return real(spec, n, *args, **kwargs)

    monkeypatch.setattr(numeric, "sample_graph", counting)
    argv = ["same", spec_path("cos.spec"), spec_path("cosh.spec"), "--samples", "3", "--json"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["samples"] == 3 and report["result"]["same_theorem"]["same"] is True
    assert draws == [3, 3]  # one certification of each G


# the grammar of each subcommand: its usage line at 80 columns, and the
# namespace of one command line, which carries every default
GRAMMAR_PINS = {
    "derive": (
        ["S"],
        "usage: addtheo derive [-h] [--trace] [--json] [--seed SEED] [--tol TOL]\n"
        "                      [--samples SAMPLES]\n"
        "                      spec\n",
        {"spec": "S", "trace": False},
    ),
    "verify": (
        ["S", "--g", "G"],
        "usage: addtheo verify [-h] --g G [--json] [--seed SEED] [--tol TOL]\n"
        "                      [--samples SAMPLES]\n"
        "                      spec\n",
        {"spec": "S", "g": "G"},
    ),
    "degrees": (
        ["S"],
        "usage: addtheo degrees [-h] [--derive] [--json] [--seed SEED] [--tol TOL]\n"
        "                       [--samples SAMPLES]\n"
        "                       spec\n",
        {"spec": "S", "derive": False},
    ),
    "symmetry": (
        ["S"],
        "usage: addtheo symmetry [-h] [--json] [--seed SEED] [--tol TOL]\n"
        "                        [--samples SAMPLES]\n"
        "                        spec\n",
        {"spec": "S"},
    ),
    "krel": (
        ["S"],
        "usage: addtheo krel [-h] [--json] [--seed SEED] [--tol TOL]\n"
        "                    [--samples SAMPLES]\n"
        "                    spec\n",
        {"spec": "S"},
    ),
    "reduce-f": (
        ["F", "--x0", "1/2", "--y0", "3"],
        "usage: addtheo reduce-f [-h] --x0 X0 --y0 Y0 [--json] [--seed SEED]\n"
        "                        [--tol TOL] [--samples SAMPLES]\n"
        "                        f\n",
        {"f": "F", "x0": "1/2", "y0": "3"},
    ),
    "same": (
        ["A", "B"],
        "usage: addtheo same [-h] [--json] [--seed SEED] [--tol TOL]\n"
        "                    [--samples SAMPLES]\n"
        "                    spec_a spec_b\n",
        {"spec_a": "A", "spec_b": "B"},
    ),
}


@pytest.mark.parametrize("command", GRAMMAR_PINS)
def test_subcommand_grammar_is_pinned(monkeypatch, command):
    import addtheo.cli as cli

    monkeypatch.setenv("COLUMNS", "80")
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(GRAMMAR_PINS)
    argv, usage, fields = GRAMMAR_PINS[command]
    assert subparsers.choices[command].format_usage() == usage
    common = {"json": False, "seed": 0, "tol": None, "samples": 200}
    assert vars(parser.parse_args([command, *argv])) == {"command": command, **fields, **common}
