"""Command line interface.

Subcommands: derive, verify, degrees, symmetry, krel, reduce-f, same.
Text mode prints one canonical polynomial text line per polynomial so shell
pipelines can diff outputs; --json prints the full run report.  Exit codes:
0 ok, 1 verification or pruning failure, 2 parse or validation error (an
unreadable input file, an option value out of range and an input whose
degrees overflow the monomial field included), 3 degeneracy.  Fixed seed
and inputs give byte-identical stdout; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
import time
from fractions import Fraction

from .errors import AddTheoError, SpecValidationError, VerificationError
from .exprparse import parse_polynomial
from .funcspec import FuncSpec, parse_spec
from .poly import MPoly


def _defer(*names):
    """Put each named submodule in sys.modules, and on the package, with a
    lazy loader: its code is compiled and run on the first attribute read,
    so a command runs only the modules it uses (docs/decisions.md section
    6).  A module imported already is kept, so each name has one module."""
    package = sys.modules[__package__]
    for name in names:
        fullname = f"{__package__}.{name}"
        if fullname in sys.modules:
            continue
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        # bound on the package, `from . import name` takes it from there;
        # the import system would read __spec__ and so run the module
        setattr(package, name, module)


_defer("numeric", "factor", "derive", "laws")
from . import derive, laws, numeric


def _read_input(path) -> str:
    """The text of an input file; an unreadable one is a validation error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SpecValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise SpecValidationError(f"cannot read {path}: not UTF-8 text") from None


def _rational(text, option) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SpecValidationError(f"{option} must be a rational, got {text!r}") from None


def _check_options(args):
    """Reject option values that no command accepts, before any computation."""
    if args.samples < 1:
        raise SpecValidationError(f"--samples must be positive, got {args.samples}")
    if args.tol is not None and not 0 < args.tol < 1:
        raise SpecValidationError(f"--tol must lie in (0, 1), got {args.tol}")
    for flag, options in _COMMANDS[args.command][2]:
        if options.get("rational"):
            setattr(args, flag[2:], _rational(getattr(args, flag[2:]), flag))


def _load_spec(path) -> FuncSpec:
    return parse_spec(_read_input(path))


def _config(spec, args) -> numeric.EvalConfig:
    return numeric.EvalConfig(tol=numeric.class_tolerance(spec, args.tol), seed=args.seed)


def _alpha_name(descriptor) -> str:
    k, j = descriptor
    if k == 1:
        return "1"
    if k == 2:
        return "-1"
    if k == 4:
        return "i" if j == 1 else "-i"
    return f"zeta{k}^{j}" if j != 1 else f"zeta{k}"


def _json(value):
    """A record as JSON data: fields by name, with lam written as "lambda";
    polynomials as text, complex numbers as [re, im], tuples as lists."""
    if hasattr(value, "_asdict"):
        return {"lambda" if k == "lam" else k: _json(v) for k, v in value._asdict().items()}
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if isinstance(value, MPoly):
        return value.to_text()
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _theorem_json(theorem):
    law = theorem.law
    return {
        "class": theorem.spec.cls.value,
        "spec": theorem.spec.serialize(),
        "G": theorem.G.to_text(),
        "degrees": list(law.actual),
        "nu": law.nu,
        "lambda0": law.lambda0,
        "predicted_degree": law.predicted,
        "max_residual": theorem.max_residual,
        "samples": theorem.samples,
        "seed": theorem.seed,
    }


def _trace_eliminant(raw):
    print(f"trace (non-contractual): eliminant = {raw.to_text()}", file=sys.stderr)


def cmd_derive(args):
    spec = _load_spec(args.spec)
    trace = _trace_eliminant if args.trace else None
    theorem = laws.derive_addition_theorem(spec, _config(spec, args), args.samples, trace)
    return [theorem.G.to_text()], {"theorem": _theorem_json(theorem)}


def cmd_verify(args):
    spec = _load_spec(args.spec)
    cfg = _config(spec, args)
    text = args.g
    try:
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read().strip()
    except OSError:
        pass  # not a file: inline text
    except UnicodeDecodeError:
        raise SpecValidationError(f"cannot read {text}: not UTF-8 text") from None
    g = parse_polynomial(text, ("x", "y", "z"))
    if g.is_zero():
        raise SpecValidationError("the candidate G is the zero polynomial, which vanishes everywhere")
    g = g.canonicalize()
    samples = numeric.sample_graph(spec, args.samples, cfg, salt=7)
    max_res, worst = numeric.certify(g, samples, cfg.tol)
    # the verdict: exact vanishing at the points of the first good prime
    # (docs/decisions.md section 7); g is canonical, so it has no denominator
    for prime, points in numeric.exact_points(spec, cfg, 8, 2, numeric.graph_point):
        break
    else:
        raise VerificationError("no prime tried reduces the spec, so G cannot be checked exactly")
    for x, y, z in points:
        if g.evaluate_mod({"x": x, "y": y, "z": z}, prime):
            raise VerificationError(
                f"G does not vanish on the graph mod {prime} at (x, y, z) = ({x}, {y}, {z})"
            )
    result = {
        "G": g.to_text(),
        "max_residual": max_res,
        "tol": cfg.tol,
        "ok": True,
        "worst_sample": {"u": _json(worst["u"]), "v": _json(worst["v"])},
    }
    return [f"ok max_residual={max_res:.3e}"], result


def cmd_degrees(args):
    spec = _load_spec(args.spec)
    if args.derive:
        report = laws.derive_addition_theorem(spec, _config(spec, args), verify_samples=args.samples).law
    else:
        report = laws.degree_report(spec)
    line = (
        f"m={report.m} nu={report.nu} lambda0={report.lambda0} "
        f"predicted={report.predicted}"
    )
    if report.actual is not None:
        line += " actual=" + ",".join(str(d) for d in report.actual)
    return [line], {"degrees": _json(report)}


def cmd_symmetry(args):
    spec = _load_spec(args.spec)
    report = laws.full_substitution_group(spec)
    mults = ",".join(_alpha_name(a) for a in report.multipliers)
    group = ",".join(_alpha_name(a) for a in report.group_alphas)
    line = (
        f"multipliers={mults} lambda0={report.lambda0} "
        f"group={group} lambda={report.lam} beta_search={report.beta_search}"
    )
    return [line], {"symmetry": _json(report)}


def cmd_krel(args):
    spec = _load_spec(args.spec)
    cfg = _config(spec, args)
    theorem = laws.derive_addition_theorem(spec, cfg, verify_samples=args.samples)
    rel = laws.k_relation(theorem, cfg, verify_samples=args.samples)
    lines = [
        rel.K.to_text(),
        "degrees=" + ",".join(str(d) for d in rel.degrees) + f" lambda={rel.lam}",
    ]
    return lines, {"k_relation": _json(rel), "theorem": _theorem_json(theorem)}


def cmd_reduce_f(args):
    F = parse_polynomial(_read_input(args.f).strip(), ("X", "Y", "Z"))
    rel = derive.reduce_f_to_g(F, args.x0, args.y0)
    return [rel.to_text()], {"relation": rel.to_text()}


def cmd_same(args):
    spec_a = _load_spec(args.spec_a)
    spec_b = _load_spec(args.spec_b)
    cfg = _config(spec_a, args)
    verdict = laws.same_theorem(spec_a, spec_b, cfg, verify_samples=args.samples)
    if not verdict.same:
        line = "same=false"
    elif verdict.alpha is None:
        line = "same=true alpha=unresolved"
    else:
        line = f"same=true alpha={numeric.fmt_complex(verdict.alpha)}"
    return [line], {"same_theorem": _json(verdict)}


# Each subcommand once: its handler, its help, and its positionals and
# options in usage order; the _COMMON options follow them.  An option marked
# "rational" is converted by _check_options, so a bad value gets a report
# like any other invalid input rather than an argparse usage error.
_COMMON = (
    ("--json", dict(action="store_true", help="print a JSON run report")),
    ("--seed", dict(type=int, default=0, help="sampling seed (default 0)")),
    ("--tol", dict(type=float, default=None,
                   help="identity tolerance (default 1e-9; 1e-6 for elliptic specs)")),
    ("--samples", dict(type=int, default=200, help="verification sample count (default 200)")),
)
_COMMANDS = {
    "derive": (cmd_derive, "derive the canonical addition theorem", (
        ("spec", {}),
        ("--trace", dict(action="store_true", help="dump the raw eliminant to stderr")),
    )),
    "verify": (cmd_verify, "check a candidate theorem against samples", (
        ("spec", {}),
        ("--g", dict(required=True, help="polynomial in x, y, z (inline or a file path)")),
    )),
    "degrees": (cmd_degrees, "order, multiplier count, and degree prediction", (
        ("spec", {}),
        ("--derive", dict(action="store_true", help="also derive and report actual degrees")),
    )),
    "symmetry": (cmd_symmetry, "multipliers and the substitution group", (("spec", {}),)),
    "krel": (cmd_krel, "derive the four-variable K-relation", (("spec", {}),)),
    "reduce-f": (cmd_reduce_f, "reduce a mixed relation F to a chi-relation", (
        ("f", dict(help="file containing a polynomial in X, Y, Z")),
        ("--x0", dict(required=True, help="base value phi(a), a rational", rational=True)),
        ("--y0", dict(required=True, help="base value psi(b), a rational", rational=True)),
    )),
    "same": (cmd_same, "decide whether two specs share one theorem",
             (("spec_a", {}), ("spec_b", {}))),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="addtheo",
        description="derive and verify algebraic addition theorems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments + _COMMON:
            p.add_argument(flag, **{k: v for k, v in options.items() if k != "rational"})
    return parser


def _report(args, status, result=None, message=None):
    report = {
        "command": args.command,
        "specs": [
            getattr(args, name)
            for name, _ in _COMMANDS[args.command][2]
            if not name.startswith("-")
        ],
        "seed": args.seed,
        "tol": args.tol,
        "samples": args.samples,
        "status": status,
    }
    if result is not None:
        report["result"] = result
    if message is not None:
        report["message"] = message
    return report


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        _check_options(args)
        lines, result = _COMMANDS[args.command][0](args)
        status, code, message = "ok", 0, None
    except AddTheoError as exc:
        lines, result = None, None
        status, code, message = exc.status, exc.code, str(exc)
    elapsed_ms = int(1000 * (time.monotonic() - started))
    if args.json:
        import json  # only a report needs it; see docs/decisions.md section 6

        print(json.dumps(_report(args, status, result, message), sort_keys=True, indent=2))
    else:
        if lines:
            for line in lines:
                print(line)
        if message is not None:
            print(f"error: {message}", file=sys.stderr)
    print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    return code


def run():
    """The process entry: main, then an exit whose collections have nothing
    to traverse.  gc.freeze moves every tracked object into the permanent
    generation, which finalization does not collect, so the OS takes the
    memory back instead (docs/decisions.md section 6).  main itself freezes
    nothing, because in-process callers rely on collection between calls."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
