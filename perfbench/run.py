"""sbmx benchmark: seeded sweeps through the public API, one workload per call.

    python3 perfbench/run.py --workload cert-n300 --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics (trials_per_s, trial_p50_ms,
setup_s, peak_rss_mb); with --trace 1 the per-layer metrics of a traced run.
Set-up is measured in three fresh processes and reported as their median; the
last of them goes on to the measured passes. Lines before the last one give
provenance and a readable summary; the last line is the JSON result. The
benchmark sets no BLAS or thread variables: it measures the program's defaults.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUPS = 3
# a run must end within 180 s; leave room to stop the children
DEADLINE_S = 170.0
MIN_SPAN_COVERAGE = 0.9

END_TO_END_UNITS = {"trials_per_s": "1/s", "trial_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", "edges_per_graph", "partitions_per_call")):
        return "count"
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    return "ratio"


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """readline from the child, killing it if the deadline passes first."""
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        return proc.stdout.readline()
    finally:
        timer.cancel()


def spawn(args: argparse.Namespace, setup_only: bool, deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a child; return its set-up time (spawn to READY) and the process."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--setup-only"] * setup_only + ["--smoke"] * args.smoke
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = read_line(proc, deadline)
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child did not finish set-up (exit {proc.returncode})")
    return setup, proc


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for the child and return the rest of its output; kill it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("child ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}")
    return out


def run_children(args: argparse.Namespace) -> tuple[list[float], dict]:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(SETUPS - 1 if not args.trace else 0):
        setup, proc = spawn(args, True, deadline)
        finish(proc, deadline)
        setups.append(setup)
    setup, proc = spawn(args, False, deadline)
    setups.append(setup)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise RuntimeError("measured child printed no result")
    return setups, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one-cell passes, for the self-tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sbmx" / "__init__.py").is_file():
        print(f"sbmx sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, res = run_children(args)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"provenance": res["provenance"]}))
    for problem in res["problems"]:
        print(f"problem: {problem}")
    if args.trace:
        layers = res["per_layer"]
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
        coverage_ok = layers["trace.span_coverage"] >= MIN_SPAN_COVERAGE
        if not coverage_ok:
            print(f"problem: spans cover {layers['trace.span_coverage']:.3f} of the traced wall")
    else:
        values = {
            "trials_per_s": res["trials_per_s"],
            "trial_p50_ms": res["trial_p50_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        coverage_ok = True
    failed_frac = res["failed"] / res["attempted"]
    print(f"{args.workload} seed={args.seed}: {res['passes']} passes, "
          f"{res['trials_timed']} timed trials, setups {[round(s, 3) for s in setups]}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} ratio ({res['failed']}/{res['attempted']})")
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["problems"] and coverage_ok,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
