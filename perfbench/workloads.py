"""Workload op lists, their expected outcomes, and the output checker.

An op is one `addtheo` command line.  Its expected outcome is an exit code
plus either the exact stdout recorded in golden.json (derive, symmetry, same,
and krel for order-1 specs), a stdout prefix (verify, whose printed residual
depends on the seed), or nothing further (krel for specs of order nu > 1,
which have no golden text).  Derived text does not depend on --seed, so one
golden file serves every seed.

Ops listed under "known_defects" in golden.json are expected to succeed but
did not at the commit that defined this benchmark (ROADMAP item 4: `krel`
exits 1 for every spec with nu > 1).  They still count as failed; they are
the only failures that leave a run `correct`.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

BUNDLED = (
    "broken", "cos", "cosh", "exp-t", "mobius", "rational-u", "rational-u2",
    "rational-u3", "wp-generic", "wp-lemniscatic", "wp-prime", "wp-squared",
)
# broken.spec has a zero discriminant: every command rejects it with exit 2
INVALID = {"broken": 2}
# krel derives first; wp-prime's derive alone is ~20 s and its krel did not
# finish in 150 s, wp-squared's krel not in 320 s (see baseline.json)
KREL_SKIP = ("wp-prime", "wp-squared")
SAME_PAIRS = (("cos", "cosh"), ("exp-t", "cosh"), ("wp-generic", "wp-lemniscatic"))
# specs outside the corpus whose elimination is trivial and whose time goes
# to square-free decomposition and factorization
FACTOR_HEAVY = ("rational: (u^2+1)/(u^2+3)", "exp: (t^3+1)/t", "rational: u^3+u")
WORKLOADS = ("corpus-cli", "elim-elliptic", "factor-heavy")


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    code: int = 0
    stdout: str | None = None
    prefix: str | None = None
    known_defect: bool = False


def load_golden(path=GOLDEN_PATH) -> dict:
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


def inline_spec_text(inline: str) -> str:
    cls, phi = inline.split(":", 1)
    return f"class: {cls.strip()}\nphi: {phi.strip()}\n"


def _spec(root, name) -> str:
    return str(pathlib.Path(root) / "specs" / f"{name}.spec")


def _derive(root, golden, name):
    if name in INVALID:
        return Op(f"derive {name}", ("derive", _spec(root, name)), INVALID[name])
    return Op(
        f"derive {name}", ("derive", _spec(root, name)),
        stdout=golden["derive"][name] + "\n",
    )


def _verify(root, workdir, golden, name):
    if name in INVALID:
        return Op(f"verify {name}", ("verify", _spec(root, name), "--g", "x"), INVALID[name])
    g_file = pathlib.Path(workdir) / f"G-{name}.txt"
    g_file.write_text(golden["derive"][name] + "\n", encoding="utf-8")
    return Op(
        f"verify {name}", ("verify", _spec(root, name), "--g", str(g_file)),
        prefix="ok max_residual=",
    )


def _symmetry(root, golden, name):
    argv = ("symmetry", _spec(root, name))
    if name in INVALID:
        return Op(f"symmetry {name}", argv, INVALID[name])
    return Op(f"symmetry {name}", argv, stdout=golden["symmetry"][name] + "\n")


def _krel(root, golden, name):
    op_name = f"krel {name}"
    argv = ("krel", _spec(root, name))
    if name in INVALID:
        return Op(op_name, argv, INVALID[name])
    if name in golden["krel"]:
        return Op(op_name, argv, stdout=golden["krel"][name] + "\n")
    return Op(op_name, argv, known_defect=op_name in golden["known_defects"])


def _same(root, golden, a, b):
    key = f"{a} {b}"
    return Op(
        f"same {key}", ("same", _spec(root, a), _spec(root, b)),
        stdout=golden["same"][key] + "\n",
    )


def _derive_inline(workdir, golden, index, inline):
    path = pathlib.Path(workdir) / f"inline-{index}.spec"
    path.write_text(inline_spec_text(inline), encoding="utf-8")
    return Op(f"derive {inline}", ("derive", str(path)), stdout=golden["derive"][inline] + "\n")


def build_ops(workload: str, root, workdir, golden: dict):
    """The op list of one workload; writes the files its ops read to workdir."""
    if workload == "corpus-cli":
        ops = [_derive(root, golden, s) for s in BUNDLED if s != "wp-prime"]
        ops += [_verify(root, workdir, golden, s) for s in BUNDLED]
        ops += [_symmetry(root, golden, s) for s in BUNDLED]
        ops += [_krel(root, golden, s) for s in BUNDLED if s not in KREL_SKIP]
        ops += [_same(root, golden, a, b) for a, b in SAME_PAIRS]
        return ops
    if workload == "elim-elliptic":
        return [_derive(root, golden, s) for s in ("wp-prime", "wp-squared")]
    if workload == "factor-heavy":
        return [_derive_inline(workdir, golden, i, s) for i, s in enumerate(FACTOR_HEAVY)]
    raise ValueError(f"unknown workload {workload!r}")


def check(op: Op, code, stdout: str) -> bool:
    """True when the op exited as expected and printed the expected text.

    A timed-out op has code None and never matches.
    """
    if code != op.code:
        return False
    if op.stdout is not None and stdout != op.stdout:
        return False
    if op.prefix is not None and not stdout.startswith(op.prefix):
        return False
    return True


@dataclass
class Tally:
    """Outcome counts over every op a run attempted."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0  # failures outside the known defects

    def add(self, op: Op, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not op.known_defect:
                self.unexpected += 1

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.unexpected == 0


def selftest() -> None:
    """Show that the checker rejects a wrong G and a wrong exit code.

    Raises AssertionError when a wrong outcome would go unnoticed.
    """
    g = "x*y - z"
    derive = Op("derive exp-t", ("derive",), stdout=g + "\n")
    verify = Op("verify exp-t", ("verify",), prefix="ok max_residual=")
    broken = Op("derive broken", ("derive",), code=2)
    right = [(derive, 0, g + "\n"), (verify, 0, "ok max_residual=1.0e-16\n"), (broken, 2, "")]
    wrong_g = [(derive, 0, "x*y + z\n")]
    wrong_code = [(derive, 1, g + "\n"), (verify, 1, ""), (broken, 3, ""), (derive, None, "")]
    for cases, expect_failures in ((right, False), (wrong_g, True), (wrong_code, True)):
        tally = Tally()
        for op, code, out in cases:
            tally.add(op, check(op, code, out))
        if (tally.failed_ratio > 0) != expect_failures or tally.correct == expect_failures:
            raise AssertionError(f"checker self-test failed on {cases!r}")
    defect = Op("krel cos", ("krel",), known_defect=True)
    tally = Tally()
    tally.add(defect, check(defect, 1, ""))
    if not (tally.failed_ratio > 0 and tally.correct):
        raise AssertionError("checker self-test failed on a known defect")


if __name__ == "__main__":
    selftest()
    print("checker self-test ok")
