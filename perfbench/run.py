"""Benchmark of the addtheo CLI on three workloads.

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  With --trace 0 every op runs as a fresh
`python -m addtheo.cli` process, one at a time in a closed loop, because that
is how addtheo is used.  Passes over the workload's op list repeat for
--seconds (see `passes`).  The seed is passed to every op as --seed and
fixes the op order of each pass.  Every op's exit code and stdout are
checked against golden.json (see workloads.py).

The speed of a shared machine drifts by tens of percent over minutes, and
every timing drifts with it.  So the benchmark also runs yardstick.py, a
fixed stdlib-only program, as a fresh process between ops (YARDSTICKS per
pass) and after each set-up.  Reported times are wall times divided by the
run's speed factor: the median yardstick time over REF_YARDSTICK_S, its
median on the machine where the benchmark was defined.  The summary lines
print the raw times and the factor as well.

With --trace 1 the same passes run in this process through addtheo.cli.main,
alternating an untraced pass with a traced one (see tracing.py), and the
per-layer metrics of the traced passes are reported.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import pathlib
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import tracing
import workloads as W

ROOT = W.HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 7
YARDSTICKS = 20
REF_YARDSTICK_S = 0.12
# a run must end within 180 s; no op may run past this many seconds from start
RUN_CAP_S = 170.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import addtheo.cli; "
    "print(time.perf_counter() - t)"
)
_ELAPSED = re.compile(r"^elapsed_ms=(\d+)$", re.MULTILINE)


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_yardstick(env) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(W.HERE / "yardstick.py")], capture_output=True,
        cwd=ROOT, env=env, timeout=60, check=True,
    )
    return time.perf_counter() - start


def setup(workload, workdir, env):
    """Prepare the workload SETUP_REPS times, each with one cold import.

    Returns the op list and, per repetition, the set-up wall time, the
    import time the fresh interpreter measured itself, and a yardstick time.
    """
    setup_times, import_times, yardsticks = [], [], []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        repdir = workdir / f"setup-{rep}"
        repdir.mkdir()
        ops = W.build_ops(workload, ROOT, repdir, W.load_golden())
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=60, check=True,
        )
        setup_times.append(time.perf_counter() - start)
        import_times.append(float(probe.stdout))
        yardsticks.append(run_yardstick(env))
    return ops, setup_times, import_times, yardsticks


def remaining(started) -> float:
    return max(1.0, RUN_CAP_S - (time.perf_counter() - started))


def run_subprocess(op, seed, env, started):
    """One op as a fresh CLI process: (wall seconds, exit code or None, stdout)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "addtheo.cli", *op.argv, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=remaining(started),
        )
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = None, ""
    return time.perf_counter() - start, code, out


def passes(ops, seed, seconds, run_pass):
    """Call run_pass(order, index) over seeded shuffles of ops.

    A further pass starts only when, taking as long as the one before, it
    would end within `seconds`, so a run's length does not depend on how
    fast the program is; there is always at least one pass.
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    count = 0
    last = 0.0
    while count == 0 or time.perf_counter() - start + last <= seconds:
        order = list(ops)
        rng.shuffle(order)
        begin = time.perf_counter()
        run_pass(order, count)
        last = time.perf_counter() - begin
        count += 1


def measure_cli(ops, seed, seconds, tally, started, env):
    """Pass times (the sum of their ops' times), op times and yardstick times."""
    pass_times, op_times, yardsticks = [], [], []
    gaps = len(ops) + 1

    def gauge(gap):
        # YARDSTICKS spread evenly over the gaps before, between and after
        # the ops, so that they bracket a long op
        for _ in range((gap + 1) * YARDSTICKS // gaps - gap * YARDSTICKS // gaps):
            yardsticks.append(run_yardstick(env))

    def run_pass(order, index):
        total = 0.0
        for i, op in enumerate(order):
            gauge(i)
            wall, code, out = run_subprocess(op, seed, env, started)
            tally.add(op, W.check(op, code, out))
            op_times.append(wall)
            total += wall
        gauge(len(order))
        pass_times.append(total)

    passes(ops, seed, seconds, run_pass)
    return pass_times, op_times, yardsticks


def _clear_caches(modules):
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def run_inprocess(cli, op, seed, tracer):
    """One op through addtheo.cli.main in this process, as a fresh process
    would see it: caches cleared and garbage collected before the clock starts.

    Returns (wall seconds, exit code, stdout, the CLI's own elapsed seconds).
    """
    argv = [*op.argv, "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(tracing.ROOT_SPAN, "cli", None, cli.main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an escaped exception exits 1 from the command line
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    elapsed = _ELAPSED.search(err.getvalue())
    return wall, code, out.getvalue(), int(elapsed.group(1)) / 1000 if elapsed else 0.0


def measure_traced(ops, seed, seconds, tally):
    """Alternate untraced and traced in-process passes; per-layer metrics."""
    sys.path.insert(0, str(SRC))
    import addtheo.cli as cli

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "addtheo"]
    tracer = tracing.Tracer()
    traced, untraced = [], []

    def run_pass(order, with_tracer):
        wall = command = 0.0
        for op in order:
            _clear_caches(modules)
            gc.collect()
            op_wall, code, out, op_command = run_inprocess(cli, op, seed, with_tracer)
            tally.add(op, W.check(op, code, out))
            wall += op_wall
            command += op_command
        return wall, command

    def run_pair(order, index):
        # alternate which side goes first, so drift within the process
        # does not always land on the traced side
        for is_traced in ((False, True) if index % 2 == 0 else (True, False)):
            if not is_traced:
                untraced.append(run_pass(order, None)[0])
                continue
            tracer.install(modules)
            try:
                _, command = run_pass(order, tracer)
            finally:
                tracer.uninstall()
            metrics = tracing.aggregate(tracer.take())
            metrics["cli.command_s"] = command
            traced.append(metrics)

    passes(ops, seed, seconds, run_pair)
    metrics = tracing.median_metrics(traced)
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - metrics["trace.untraced_pass_s"]
    return metrics, len(traced)


def unit_of(name: str) -> str:
    if name.startswith("share."):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_degree"):
        return "degree"
    if name.endswith("_s") or name.startswith("op_s."):
        return "s"
    return "count"


def tail_percentile(values):
    """The highest percentile with ten samples beyond it, or None."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return 100 * (n - 10) // n, ordered[n - 11]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "addtheo" / "cli.py").is_file() or not (ROOT / "specs").is_dir():
        print(f"error: no addtheo sources under {ROOT}", file=sys.stderr)
        return 2
    W.selftest()
    tally = W.Tally()
    env = child_env()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = pathlib.Path(tmp)
        ops, setup_times, import_times, setup_yardsticks = setup(args.workload, workdir, env)
        if args.trace:
            metrics, traced_passes = measure_traced(ops, args.seed, args.seconds, tally)
            metrics["cli.import_s"] = statistics.median(import_times)
            print(f"{args.workload}: {traced_passes} traced passes of {len(ops)} ops, in process")
        else:
            pass_times, op_times, yardsticks = measure_cli(
                ops, args.seed, args.seconds, tally, started, env)
            raw = {
                "pass_s": statistics.median(pass_times),
                "op_s.p50": statistics.median(op_times),
                "setup_s": statistics.median(setup_times),
            }
            speed = statistics.median(yardsticks) / REF_YARDSTICK_S
            setup_speed = statistics.median(setup_yardsticks) / REF_YARDSTICK_S
            metrics = {
                "pass_s": raw["pass_s"] / speed,
                "op_s.p50": raw["op_s.p50"] / speed,
                "setup_s": raw["setup_s"] / setup_speed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            }
            print(f"{args.workload}: {len(pass_times)} passes of {len(ops)} ops, "
                  f"{len(op_times)} ops timed; speed factor {speed:.4f} "
                  f"({len(yardsticks)} yardsticks), set-up {setup_speed:.4f}")
            for name, value in raw.items():
                print(f"  raw {name} = {value:.6g} s")
            tail = tail_percentile(op_times)
            if tail is not None:
                print(f"  raw op_s.p{tail[0]} = {tail[1]:.4f} s (n={len(op_times)}, 10 beyond)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    print(f"  failed_ratio = {tally.failed_ratio:.4f} ({tally.failed} of {tally.attempted} ops; "
          f"{tally.unexpected} outside the known defects)")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
