"""koopgen benchmark: one workload, run as a closed loop for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; koopgen is imported from ``src/``.  The loop
runs identical operations back to back for ``--seconds`` seconds, times
each from outside the program and checks its outputs.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics from spans (see README.md).
"""

import os
import sys

# Fixed BLAS threading, set before numpy loads OpenBLAS.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402, F401  (loaded before set-up timing starts)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"
# Set-ups per run besides the measuring process's own, each in a fresh
# interpreter.  They are spread over the run, between operations, so that
# setup_s samples the machine over the same stretch as wall_s_p50.
SETUP_CHILDREN = 4


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _set_up(args, scratch, tracer=None):
    """Import koopgen and build the workload's inputs; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    if tracer is not None:
        tracer.install()
    try:
        cls = workloads.WORKLOADS.get(args.workload)
        if cls is None:
            raise SystemExit(f"error: unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        workload = cls(scratch) if cls is workloads.CliDesk else cls(args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload, time.perf_counter() - start


def _child_setup_seconds(args) -> float:
    """Set-up time measured in a fresh interpreter, as the first one was."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "koopgen" / "__init__.py").is_file():
        print(f"error: no koopgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    scratch = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch) -> int:
    tracer = None
    if args.trace and not args.setup_only:
        import tracing

        tracer = tracing.Tracer()
    workload, setup = _set_up(args, scratch, tracer)
    if args.setup_only:
        print(repr(setup))
        return 0

    setups = [setup]
    children_due = [
        args.seconds * (k + 1) / (SETUP_CHILDREN + 1) for k in range(SETUP_CHILDREN)
    ] if tracer is None else []
    untraced, traced = [], []
    failed = 0
    measured = 0.0  # seconds spent in operations and their checks
    op = 0
    # With tracing, operations alternate untraced / traced; the loop ends
    # after a traced one.
    while measured < args.seconds or (tracer is not None and op % 2 == 1):
        tracing_op = tracer is not None and op % 2 == 1
        if tracing_op:
            tracer.install()
            root = tracer.begin_operation(op)
        start = time.perf_counter()
        try:
            outputs = workload.operation()
            problems = None
        except Exception:
            problems = [traceback.format_exc()]
        elapsed = time.perf_counter() - start
        if tracing_op:
            tracer.close(root)
            tracer.uninstall()
        if problems is None:
            try:
                problems = workload.check(outputs)
            except Exception:  # output too malformed to check is wrong
                problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"operation {op} failed: {'; '.join(problems)}", file=sys.stderr)
        else:  # only operations that passed their checks are timed
            (traced if tracing_op else untraced).append(elapsed)
        op += 1
        measured += time.perf_counter() - start
        while children_due and measured >= children_due[0]:
            children_due.pop(0)
            setups.append(_child_setup_seconds(args))
    setups += [_child_setup_seconds(args) for _ in children_due]
    if not untraced or (tracer is not None and not traced):
        print(f"error: no timed operation passed its checks ({failed} of {op} failed)",
              file=sys.stderr)
        return 1

    print(f"{args.workload}: operation seconds {[round(d, 4) for d in untraced]}",
          file=sys.stderr)
    if tracer is None:
        print(f"{args.workload}: set-up seconds {[round(s, 4) for s in setups]}",
              file=sys.stderr)
        metrics = {
            "wall_s_p50": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"
        }
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(
            OUT_DIR / f"trace-{args.workload}-{args.seed}.json",
            workload=args.workload, seed=args.seed,
        )
    result = {"correct": failed == 0, "attempted": op, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
