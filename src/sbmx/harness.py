"""Experiment orchestration: seeded trials, phase diagrams, boundary curves.

Every trial derives its own seed from (base_seed, grid index, trial index)
through a fixed avalanche mix, so a sweep produces identical output whether
it runs on one worker or many.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .mlexact import ml_bisection
from .model import Graph, SbmParams, agreement, generate_sbm, require_labeling
from .sdp import SdpConfig, certificate_check, sdp_solve, signed_adjacency
from .seeding import derive_seed
from .twophase import (
    CheatingOracle,
    DegenerateOracleError,
    SpectralOracle,
    SplitConfig,
    local_improvement,
    partial_recovery,
    split_graph,
)

__all__ = [
    "METHODS",
    "Recovery",
    "TrialRecord",
    "PhasePoint",
    "CurvePoint",
    "recover",
    "run_trial",
    "phase_diagram",
    "boundary_curves",
    "format_phase_csv",
    "format_curves_csv",
]

METHODS = ("ml", "sdp", "certificate", "two-phase")


@dataclass(frozen=True)
class TrialRecord:
    """One seeded trial: what ran, whether it recovered, and diagnostics.

    `sbmx recover` emits the same record for a graph read from a file, with
    alpha and beta None (a file does not say them), and success None when no
    truth is given.
    """

    method: str
    n: int
    alpha: float | None
    beta: float | None
    seed: int
    success: bool | None
    agreement: float | None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "n": self.n,
            "alpha": self.alpha,
            "beta": self.beta,
            "seed": self.seed,
            "success": self.success,
            "agreement": self.agreement,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class PhasePoint:
    alpha: float
    beta: float
    trials: int
    successes: int

    def __post_init__(self) -> None:
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in [0, trials]")

    @property
    def rate(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class CurvePoint:
    beta: float
    alpha_red: float
    alpha_green: float


@dataclass(frozen=True)
class Recovery:
    """One method's output on one graph.

    labels is None for the certificate (it outputs no labeling) and for a
    two-phase trial whose oracle met a degenerate G1; success and agreement
    are None without a planted truth, and agreement is None whenever labels
    is.
    """

    labels: np.ndarray | None
    success: bool | None
    agreement: float | None
    diagnostics: dict


def recover(
    method: str,
    graph: Graph,
    truth=None,
    seed: int = 0,
    *,
    split_c: float = SplitConfig.c,
    oracle: str = "spectral",
    oracle_delta: float = 0.1,
) -> Recovery:
    """Run one recovery method on a graph; the one dispatch every entry point uses.

    Sub-seeds: the SDP's restarts use derive_seed(seed, 1), the two-phase
    split derive_seed(seed, 2) and the cheating oracle derive_seed(seed, 3),
    so `run_trial` and `sbmx recover` on the same graph and seed agree
    exactly. The certificate method evaluates the dual certificate on the
    planted truth without solving anything (certificate success implies that
    the relaxation's optimum is the truth, but is not necessary for it).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if truth is not None:
        truth = require_labeling(truth, graph.n)

    if method == "certificate":
        if truth is None:
            raise ValueError("the certificate method needs the planted truth labels")
        rep = certificate_check(graph, truth)
        return Recovery(None, rep.certified, None, rep.to_dict())

    unique = True  # ML recovers only when its optimum is unique
    if method == "ml":
        res = ml_bisection(graph)
        labels, unique = res.best, res.unique
        diag = {"min_cut": res.min_cut, "optima_count": res.optima_count, "unique": res.unique}
    elif method == "sdp":
        sol = sdp_solve(signed_adjacency(graph), SdpConfig(seed=derive_seed(seed, 1)))
        labels = sol.rounded
        diag = {"objective": sol.objective, "rounds_used": sol.rounds_used}
    else:  # two-phase
        if oracle == "cheating":
            orc = CheatingOracle(corruption=oracle_delta, seed=derive_seed(seed, 3))
        elif oracle == "spectral":
            orc = SpectralOracle()
        else:
            raise ValueError(f"unknown oracle {oracle!r}")
        g1, g2 = split_graph(graph, SplitConfig(c=split_c, seed=derive_seed(seed, 2)))
        diag = {"g1_edges": g1.m, "g2_edges": g2.m}
        try:
            part = partial_recovery(g1, orc, truth)
        except DegenerateOracleError as exc:
            # no signal in G1: the trial fails, it does not end the sweep
            diag["oracle_failure"] = str(exc)
            return Recovery(None, None if truth is None else False, None, diag)
        labels = local_improvement(g2, part)
        diag["oracle_agreement"] = None if truth is None else agreement(part, truth)
        diag["flips_applied"] = int(np.count_nonzero(labels != part))

    if truth is None:
        return Recovery(labels, None, None, diag)
    agr = agreement(labels, truth)
    return Recovery(labels, bool(unique and agr == 1.0), agr, diag)


def run_trial(
    method: str,
    params: SbmParams,
    base_seed: int,
    trial_index: int,
    *,
    split_c: float = SplitConfig.c,
    oracle: str = "spectral",
    oracle_delta: float = 0.1,
) -> TrialRecord:
    """Generate a planted instance from the derived trial seed and `recover` on it."""
    seed = derive_seed(base_seed, trial_index)
    g, truth = generate_sbm(params, seed)
    out = recover(
        method, g, truth, seed, split_c=split_c, oracle=oracle, oracle_delta=oracle_delta
    )
    return TrialRecord(
        method=method,
        n=params.n,
        alpha=params.alpha,
        beta=params.beta,
        seed=seed,
        success=out.success,
        agreement=out.agreement,
        diagnostics=out.diagnostics,
    )


def _phase_cell(args) -> tuple[int, int]:
    (method, n, alpha, beta, trials, base_seed, grid_index, opts) = args
    params = SbmParams(n, alpha, beta)
    successes = 0
    for t in range(trials):
        rec = run_trial(
            method, params, derive_seed(base_seed, grid_index), t, **opts
        )
        successes += rec.success
    return grid_index, successes


def phase_diagram(
    method: str,
    n: int,
    alpha_grid: Sequence[float],
    beta_grid: Sequence[float],
    trials: int,
    base_seed: int,
    *,
    workers: int = 1,
    **options,
) -> list[PhasePoint]:
    """Success-rate sweep over an (alpha, beta) grid, row-major in alpha.

    Deterministic for fixed (base_seed, grids): trial seeds depend only on
    the flat grid index and trial index, never on scheduling.
    """
    alphas = [float(a) for a in alpha_grid]
    betas = [float(b) for b in beta_grid]
    if not alphas or not betas:
        raise ValueError("grids must be nonempty")
    cells = []
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            grid_index = i * len(betas) + j
            cells.append((method, n, alpha, beta, trials, base_seed, grid_index, options))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_phase_cell, cells, chunksize=4))
    else:
        results = dict(map(_phase_cell, cells))
    points = []
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            grid_index = i * len(betas) + j
            points.append(
                PhasePoint(alpha=alpha, beta=beta, trials=trials, successes=results[grid_index])
            )
    return points


def _larger_root(b_coef: float, c_coef: float) -> float:
    # larger root of alpha^2 + b_coef*alpha + c_coef = 0
    disc = b_coef * b_coef - 4.0 * c_coef
    if disc < 0:
        return math.nan
    return (-b_coef + math.sqrt(disc)) / 2.0


def boundary_curves(beta_values: Sequence[float]) -> list[CurvePoint]:
    """Per-beta recovery-side alpha roots of the two threshold curves.

    Red: (alpha-beta)^2 = 4(alpha+beta) - 4, the optimal boundary.
    Green: (alpha-beta)^2 = 8(alpha+beta) + (8/3)(alpha-beta), the
    certificate guarantee. Roots are closed-form; a root at or below beta is
    reported as NaN (no recovery-side branch).
    """
    points = []
    for beta in beta_values:
        b = float(beta)
        if b < 0:
            raise ValueError("beta must be nonnegative")
        red = _larger_root(-(2.0 * b + 4.0), b * b - 4.0 * b + 4.0)
        green = _larger_root(-(2.0 * b + 32.0 / 3.0), b * b - 16.0 * b / 3.0)
        if not math.isnan(red) and red <= b:
            red = math.nan
        if not math.isnan(green) and green <= b:
            green = math.nan
        points.append(CurvePoint(beta=b, alpha_red=red, alpha_green=green))
    return points


def format_phase_csv(points: Sequence[PhasePoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha", "beta", "trials", "successes", "rate"])
    for pt in points:
        writer.writerow([pt.alpha, pt.beta, pt.trials, pt.successes, pt.rate])
    return buf.getvalue()


def format_curves_csv(points: Sequence[CurvePoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["beta", "alpha_red", "alpha_green"])
    for pt in points:
        writer.writerow([pt.beta, pt.alpha_red, pt.alpha_green])
    return buf.getvalue()
