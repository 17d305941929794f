"""Record golden.json: the CLI's stdout for every checked op.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_golden.py

Each derived G is cross-checked with `addtheo verify` at two seeds before it
is recorded.  krel ops that fail are recorded as known defects with their
exit code and error line.  Takes about a minute, most of it wp-prime.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import workloads as W

ROOT = W.HERE.parent


def cli(*argv, seed=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "addtheo.cli", *map(str, argv), "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def checked(code, out, err, what):
    if code != 0:
        raise SystemExit(f"{what} exited {code}: {err.strip()}")
    return out.rstrip("\n")


def main():
    golden = {"derive": {}, "symmetry": {}, "krel": {}, "same": {}, "known_defects": {}}
    specs = {name: ROOT / "specs" / f"{name}.spec" for name in W.BUNDLED if name not in W.INVALID}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for i, inline in enumerate(W.FACTOR_HEAVY):
            path = pathlib.Path(tmp) / f"inline-{i}.spec"
            path.write_text(W.inline_spec_text(inline), encoding="utf-8")
            specs[inline] = path
        for name, path in specs.items():
            g = checked(*cli("derive", path), f"derive {name}")
            for seed in (0, 1):
                out = checked(*cli("verify", path, "--g", g, seed=seed), f"verify {name}")
                if not out.startswith("ok "):
                    raise SystemExit(f"verify {name} printed {out!r}")
            golden["derive"][name] = g
            print(f"derive {name}: {len(g)} chars, verified", file=sys.stderr)
    for name in W.BUNDLED:
        if name in W.INVALID:
            continue
        golden["symmetry"][name] = checked(*cli("symmetry", specs[name]), f"symmetry {name}")
        if name in W.KREL_SKIP:
            continue
        code, out, err = cli("krel", specs[name])
        if code == 0:
            golden["krel"][name] = out.rstrip("\n")
        else:
            error = [line for line in err.splitlines() if line.startswith("error:")]
            golden["known_defects"][f"krel {name}"] = f"exit {code}; " + " ".join(error)
    for a, b in W.SAME_PAIRS:
        golden["same"][f"{a} {b}"] = checked(*cli("same", specs[a], specs[b]), f"same {a} {b}")
    W.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {W.GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
