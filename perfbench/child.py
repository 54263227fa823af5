"""One fresh benchmark process: set up, measure passes, return raw results.

run.py starts this script, takes the time from spawn to the READY line as
set-up time, and reads one JSON line of results at the end. After each pass,
off the clock, the outputs are checked in a separate checker process
(checks.serve), so neither the reference work nor its memory is measured.

    python3 perfbench/child.py --workload cert-n300 --seed 1 --seconds 12 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sbmx  # noqa: E402
import sbmx.harness  # noqa: E402
import sbmx.tails  # noqa: E402
from sbmx.model import SbmParams  # noqa: E402

import checks  # noqa: E402
from probe import SPAN_NAMES, Probe, Tracer  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS, Workload  # noqa: E402

# a run stops starting passes at this index; the warm-up uses it as its seed
MAX_PASSES = 999


def pass_seed(seed: int, index: int) -> int:
    return seed * 16_000 + index * 16


def warm_up(w: Workload, seed: int) -> None:
    """One trial of the workload's first kind: fills the program's caches."""
    base = pass_seed(seed, MAX_PASSES)
    if w.sweeps:
        sweep = w.sweeps[0]
        alpha, beta = sweep.cells[0]
        sbmx.harness.run_trial(sweep.method, SbmParams(w.n, alpha, beta), base, 0, **w.options)
        if w.ml_bounds:
            sbmx.tails.ml_failure_upper_bound(w.n, alpha, beta)
    else:
        method, alpha, beta = w.points[0]
        sbmx.harness.run_trial(method, SbmParams(w.n, alpha, beta), base, 0, **w.options)


def run_pass(w: Workload, base: int, tracer: Tracer | None) -> dict:
    """Run one pass; returns its wall time and what the checks need."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    out = {"sweeps": [], "bounds": [], "raised": [], "failed_trials": 0}
    start = time.perf_counter()
    for i, sweep in enumerate(w.sweeps):
        args = (sweep.method, w.n, sweep.alphas, sweep.betas, sweep.trials, base + i)
        try:
            with span("harness.phase_diagram"):
                points = sbmx.harness.phase_diagram(*args, workers=1, **w.options)
            out["sweeps"].append((args, points))
        except Exception as exc:  # a raising sweep is a failed operation, not a crash
            out["raised"].append(f"phase_diagram{args[:5]}: {exc!r}")
            out["failed_trials"] += len(sweep.cells) * sweep.trials
        if w.ml_bounds:
            for alpha, beta in sweep.cells:
                with span("tails.ml_failure_upper_bound"):
                    out["bounds"].append(sbmx.tails.ml_failure_upper_bound(w.n, alpha, beta))
    for j, (method, alpha, beta) in enumerate(w.points):
        try:
            sbmx.harness.run_trial(method, SbmParams(w.n, alpha, beta), base, j, **w.options)
        except Exception as exc:
            out["raised"].append(f"run_trial({method}, {alpha}, {beta}): {exc!r}")
            out["failed_trials"] += 1
    out["seconds"] = time.perf_counter() - start
    return out


@contextmanager
def checker_process():
    """Start the checker (checks.serve); yield the connection; stop and reap it."""
    ctx = multiprocessing.get_context("spawn")
    conn, child_end = ctx.Pipe()
    # not a daemon: the pool check starts worker processes from it; it exits
    # by itself when this process's end of the pipe closes
    proc = ctx.Process(target=checks.serve, args=(child_end, str(ROOT / "src")))
    proc.start()
    child_end.close()
    try:
        if not conn.poll(120) or conn.recv() != "ready":
            raise RuntimeError("checker process did not start")
        yield conn
        conn.send(None)
        proc.join(60)
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join()


def peak_rss_mib() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def robust_pass_s(slots: list[list[float]]) -> float:
    """Time of one pass with every slot at its median over the passes.

    `slots[p]` holds pass p's trial times in call order and, last, the rest
    of its wall time (harness and bound calls between trials). A burst of
    load on the shared host slows a few trials of some passes; taking each
    slot's median before summing keeps such bursts out of the figure, where
    a median over whole passes lets them in.
    """
    return sum(statistics.median(column) for column in zip(*slots))


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    slots, trial_s, walls = [], [], {False: 0.0, True: 0.0}
    traced_facts, problems = [], []
    attempted = failed = 0
    measured = 0.0
    peak = 0.0
    with checker_process() as conn:
        for index in range(MAX_PASSES):
            base = pass_seed(seed, index)
            modes = ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,)
            for traced in modes:
                gc.collect()
                with Probe(tracer if traced else None) as probe:
                    result = run_pass(w, base, tracer if traced else None)
                trials = probe.take_trials()
                times = [t["seconds"] for t in trials]
                walls[traced] += result["seconds"]
                expected = w.trials_per_pass - result["failed_trials"]
                if not traced:
                    peak = max(peak, peak_rss_mib())
                    measured += result["seconds"]
                    trial_s.extend(times)
                    if len(times) == w.trials_per_pass:
                        slots.append(times + [result["seconds"] - sum(times)])
                # checks, off the clock
                attempted += w.trials_per_pass + len(result["bounds"])
                failed += result["failed_trials"]
                problems.extend(result["raised"])
                for bound in result["bounds"]:
                    bad = checks.check_bound(bound)
                    failed += bool(bad)
                    problems.extend(bad)
                if len(trials) != expected:
                    failed += abs(expected - len(trials))
                    problems.append(f"captured {len(trials)} trials, expected {expected}")
                for trial in trials:
                    # one trial per message keeps the pickled copy small
                    conn.send(("trial", trial))
                    bad, facts = conn.recv()
                    failed += bool(bad)
                    problems.extend(f"{trial['method']} {trial['params']}: {p}" for p in bad)
                    if traced:
                        traced_facts.append((trial["method"], facts))
                if w.pool_check and index == 0 and traced == modes[0]:
                    # the worker-count determinism promise, on the first pass
                    for args, points in result["sweeps"]:
                        conn.send(("sweep", args, points))
                        bad = conn.recv()
                        failed += len(points) * args[4] if bad else 0
                        problems.extend(bad)
            if measured >= seconds:
                break
    if not slots:
        problems.append("no complete pass was timed")
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "passes": len(slots),
        "trials_per_s": w.trials_per_pass / robust_pass_s(slots) if slots else 0.0,
        "trial_p50_ms": 1000.0 * statistics.median(trial_s) if trial_s else 0.0,
        "trials_timed": len(trial_s),
        "peak_rss_mb": peak,
    }
    if trace:
        result["per_layer"] = per_layer(tracer, traced_facts, walls)
    return result


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(tracer: Tracer, facts: list, walls: dict) -> dict:
    """Span and outcome metrics of the traced passes (0 where a layer did not run)."""
    traced_wall = walls[True]
    out = {}
    for name in SPAN_NAMES:
        own = tracer.self_s.get(name, [])
        out[f"{name}.calls"] = len(own)
        out[f"{name}.self_ms"] = 1000.0 * statistics.median(own) if own else 0.0
        out[f"{name}.share"] = sum(own) / traced_wall

    def of(method, key):
        return [f[key] for m, f in facts if m == method and key in f]

    ml_work = sum(f["partitions"] * f["edges"] for m, f in facts if m == "ml" and "partitions" in f)
    ml_time = tracer.total_self_s("mlexact.ml_bisection")
    out.update(
        {
            "model.edges_per_graph": _mean(f["edges"] for _, f in facts if "edges" in f),
            "sdp.certified_frac": _mean(of("certificate", "certified")),
            "sdp.solve_exact_frac": _mean(of("sdp", "exact")),
            "sdp.solve_unconverged_frac": _mean(of("sdp", "unconverged")),
            "twophase.oracle_agreement_mean": _mean(of("two-phase", "oracle_agreement")),
            "twophase.success_frac": _mean(of("two-phase", "success")),
            "mlexact.partitions_per_call": _mean(of("ml", "partitions")),
            "mlexact.unique_frac": _mean(of("ml", "unique")),
            "mlexact.mask_edge_updates_per_s": ml_work / ml_time if ml_time else 0.0,
            "trace.overhead_frac": traced_wall / walls[False] - 1.0,
            "trace.span_coverage": sum(map(tracer.total_self_s, SPAN_NAMES)) / traced_wall,
        }
    )
    return out


def blas_threads() -> dict:
    """Thread counts the loaded OpenBLAS libraries use by default."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def provenance(w: Workload, seed: int) -> dict:
    import platform
    import subprocess

    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    env_keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "sbmx_version": sbmx.__version__,
        "sbmx_source": str(Path(sbmx.__file__).resolve().parent.relative_to(ROOT)),
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in env_keys if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "workload": asdict(w),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    warm_up(w, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(w, args.seed, args.seconds, bool(args.trace))
    result["provenance"] = provenance(w, args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
