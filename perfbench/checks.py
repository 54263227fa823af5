"""Output checks against references that do not use the module under test.

Each check takes one captured trial (see probe.py) and returns a list of
problems; an empty list means the output passed. The checks also return the
facts the traced run reports (reference verdicts, convergence), so that all
dense reference work runs here, off the clock and in a process of its own:
``serve`` is the loop of that checker process.
"""

from __future__ import annotations

import math

import numpy as np

# certificate_check's tolerance factors, scaled by ||M||_F
PSD_TOL = 1e-8
GAP_TOL = 1e-6
# a reference eigenvalue this close (times ||M||_F) to a tolerance is a tie
# that the program's iterative solver may resolve either way
TIE_MARGIN = 5e-9


def balanced_pm1(labels, n: int) -> bool:
    arr = np.asarray(labels)
    return arr.shape == (n,) and bool(np.isin(arr, (-1, 1)).all()) and int(arr.sum()) == 0


def same_partition(x, truth) -> bool:
    a = np.asarray(x, dtype=np.int64)
    t = np.asarray(truth, dtype=np.int64)
    return a.shape == t.shape and (np.array_equal(a, t) or np.array_equal(a, -t))


def cut(edges: np.ndarray, labels) -> int:
    arr = np.asarray(labels)
    return int(np.count_nonzero(arr[edges[:, 0]] != arr[edges[:, 1]]))


def dense_certificate(n: int, edges: np.ndarray, truth) -> dict:
    """Certificate M = 2(D_within - D_cross - A) + 11^T, built densely from edges."""
    t = np.asarray(truth, dtype=np.int64)
    u, v = edges[:, 0], edges[:, 1]
    same = t[u] == t[v]
    within = np.bincount(u[same], minlength=n) + np.bincount(v[same], minlength=n)
    cross = np.bincount(u[~same], minlength=n) + np.bincount(v[~same], minlength=n)
    m = np.ones((n, n), dtype=np.int64)
    m[u, v] -= 2
    m[v, u] -= 2
    m[np.diag_indices(n)] += 2 * (within - cross)
    residual = int(np.abs(m @ t).max())
    mf = m.astype(np.float64)
    fro = float(np.linalg.norm(mf))
    lam = np.linalg.eigvalsh(mf)
    lam_min, lam_2 = float(lam[0]), float(lam[1])
    tie = (
        abs(lam_2 - GAP_TOL * fro) <= TIE_MARGIN * fro
        or abs(lam_min + PSD_TOL * fro) <= TIE_MARGIN * fro
    )
    certified = residual == 0 and lam_min >= -PSD_TOL * fro and lam_2 > GAP_TOL * fro
    return {"residual": residual, "certified": certified, "tie": tie}


def check_certificate(trial: dict) -> tuple[list[str], dict]:
    ref = dense_certificate(trial["n"], trial["edges"], trial["truth"])
    report, record = trial["report"], trial["record"]
    problems = []
    if ref["residual"] != 0:
        problems.append(f"reference M t has residual {ref['residual']}, expected 0")
    if report.g_residual != 0:
        problems.append(f"reported residual {report.g_residual}, expected 0")
    if not ref["tie"] and report.certified != ref["certified"]:
        problems.append(f"certified={report.certified}, reference says {ref['certified']}")
    if record.success != report.certified:
        problems.append("trial success differs from the certificate verdict")
    return problems, {"certified": bool(report.certified)}


def projected_gradient_ratio(n: int, edges: np.ndarray, factor: np.ndarray) -> float:
    """||2(BF - diag(F BF^T) F)||_F / ||B||_F for the signed adjacency B."""
    b = -np.ones((n, n))
    b[edges[:, 0], edges[:, 1]] = 1.0
    b[edges[:, 1], edges[:, 0]] = 1.0
    np.fill_diagonal(b, 0.0)
    g = b @ factor
    grad = 2.0 * (g - np.sum(factor * g, axis=1, keepdims=True) * factor)
    return float(np.linalg.norm(grad) / np.linalg.norm(b))


def check_sdp(trial: dict, grad_tol: float) -> tuple[list[str], dict]:
    n, truth, record = trial["n"], trial["truth"], trial["record"]
    solution = trial["solution"]
    problems = []
    if not balanced_pm1(solution.rounded, n):
        problems.append("rounded labels are not a balanced +-1 labeling")
    exact = same_partition(solution.rounded, truth)
    if record.success != exact:
        problems.append("trial success differs from the rounded labels")
    ref = dense_certificate(n, trial["edges"], truth)
    if ref["certified"] and not ref["tie"] and not exact:
        problems.append("the reference certifies the truth but the solver missed it")
    ratio = projected_gradient_ratio(n, trial["edges"], solution.factor)
    return problems, {"exact": exact, "unconverged": ratio > grad_tol}


def check_two_phase(trial: dict) -> tuple[list[str], dict]:
    n, truth, record = trial["n"], trial["truth"], trial["record"]
    problems = []
    if not balanced_pm1(trial["partial"], n):
        problems.append("oracle output is not a balanced +-1 labeling")
    if not balanced_pm1(trial["labels"], n):
        problems.append("two-phase output is not a balanced +-1 labeling")
    success = same_partition(trial["labels"], truth)
    if record.success != success:
        problems.append("trial success differs from the output labels")
    matches = int(np.count_nonzero(np.asarray(trial["partial"]) == np.asarray(truth)))
    return problems, {"oracle_agreement": max(matches, n - matches) / n, "success": success}


def check_ml(trial: dict) -> tuple[list[str], dict]:
    n, edges, truth, record = trial["n"], trial["edges"], trial["truth"], trial["record"]
    res = trial["ml"]
    problems = []
    if not balanced_pm1(res.best, n):
        return ["ML output is not a balanced +-1 labeling"], {}
    best_cut, truth_cut = cut(edges, res.best), cut(edges, truth)
    if best_cut != res.min_cut:
        problems.append(f"cut of the returned bisection is {best_cut}, reported {res.min_cut}")
    if res.min_cut > truth_cut:
        problems.append(f"reported min cut {res.min_cut} exceeds the truth's cut {truth_cut}")
    if record.success != (res.unique and same_partition(res.best, truth)):
        problems.append("trial success differs from uniqueness and agreement")
    return problems, {"unique": bool(res.unique), "partitions": math.comb(n - 1, n // 2 - 1)}


def check_bound(value: float) -> list[str]:
    if not (math.isfinite(value) and value >= 0.0):
        return [f"ml_failure_upper_bound returned {value!r}"]
    return []


def check_trial(trial: dict, grad_tol: float) -> tuple[list[str], dict]:
    """Dispatch on the trial's method; a missing capture is a problem too."""
    checker = {
        "certificate": check_certificate,
        "sdp": lambda t: check_sdp(t, grad_tol),
        "two-phase": check_two_phase,
        "ml": check_ml,
    }[trial["method"]]
    try:
        problems, facts = checker(trial)
    except KeyError as exc:
        return [f"output {exc} was not captured"], {}
    except Exception as exc:  # a check that cannot run fails its trial
        return [f"check raised {exc!r}"], {}
    facts["edges"] = int(trial["edges"].shape[0])
    return problems, facts


def serve(conn, src_dir: str) -> None:
    """Checker process: answer requests one at a time until sent None.

    A request is ("trial", trial) or ("sweep", args, points); the second
    re-runs a one-worker phase sweep on two workers and compares success
    counts.
    """
    import sys

    sys.path.insert(0, src_dir)
    from sbmx.harness import phase_diagram
    from sbmx.sdp import SdpConfig

    grad_tol = SdpConfig().grad_tol
    conn.send("ready")
    while (request := conn.recv()) is not None:
        if request[0] == "trial":
            conn.send(check_trial(request[1], grad_tol))
        else:
            _, args, points = request
            pooled = phase_diagram(*args, workers=2)
            got = [(p.alpha, p.beta, p.successes) for p in pooled]
            want = [(p.alpha, p.beta, p.successes) for p in points]
            conn.send([] if got == want else [f"workers=2 gave {got}, workers=1 gave {want}"])
