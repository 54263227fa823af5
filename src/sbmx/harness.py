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
from .model import SbmParams, agreement, generate_sbm
from .sdp import SdpConfig, certificate_check, sdp_solve, signed_adjacency
from .seeding import derive_seed
from .twophase import (
    CheatingOracle,
    SpectralOracle,
    SplitConfig,
    partial_recovery,
    split_graph,
    local_improvement,
)

__all__ = [
    "METHODS",
    "TrialRecord",
    "PhasePoint",
    "CurvePoint",
    "run_trial",
    "phase_diagram",
    "boundary_curves",
    "format_phase_csv",
    "format_curves_csv",
]

METHODS = ("ml", "sdp", "certificate", "two-phase")


@dataclass(frozen=True)
class TrialRecord:
    """One seeded trial: what ran, whether it recovered, and diagnostics."""

    method: str
    n: int
    alpha: float
    beta: float
    seed: int
    success: bool
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


def run_trial(
    method: str,
    params: SbmParams,
    base_seed: int,
    trial_index: int,
    *,
    split_c: float = SplitConfig.c,
    oracle: str = "spectral",
    oracle_delta: float = 0.1,
    sdp_config: SdpConfig | None = None,
    rounds: int = 1,
) -> TrialRecord:
    """Generate a planted instance from the derived trial seed and run a method.

    The certificate method evaluates the dual certificate on the planted
    truth without solving anything (certificate success implies that the
    relaxation's optimum is the truth, but is not necessary for it); it
    produces no labeling, so its agreement is None.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    seed = derive_seed(base_seed, trial_index)
    g, truth = generate_sbm(params, seed)

    if method == "ml":
        res = ml_bisection(g)
        agr = agreement(res.best, truth)
        success = res.unique and agr == 1.0
        diag = {
            "min_cut": res.min_cut,
            "optima_count": res.optima_count,
            "unique": res.unique,
        }
    elif method == "sdp":
        cfg = sdp_config or SdpConfig(seed=derive_seed(seed, 1))
        sol = sdp_solve(signed_adjacency(g), cfg)
        agr = agreement(sol.rounded, truth)
        success = agr == 1.0
        diag = {"objective": sol.objective, "rounds_used": sol.rounds_used}
    elif method == "certificate":
        rep = certificate_check(g, truth)
        success = rep.certified
        agr = None
        diag = rep.to_dict()
    else:  # two-phase
        cfg = SplitConfig(c=split_c, seed=derive_seed(seed, 2))
        if oracle == "cheating":
            orc = CheatingOracle(corruption=oracle_delta, seed=derive_seed(seed, 3))
        elif oracle == "spectral":
            orc = SpectralOracle()
        else:
            raise ValueError(f"unknown oracle {oracle!r}")
        g1, g2 = split_graph(g, cfg)
        part = partial_recovery(g1, orc, truth)
        labels = part
        for _ in range(rounds):
            labels = local_improvement(g2, labels)
        agr = agreement(labels, truth)
        success = agr == 1.0
        diag = {
            "g1_edges": g1.m,
            "g2_edges": g2.m,
            "oracle_agreement": agreement(part, truth),
            "flips_applied": int(np.count_nonzero(labels != part)),
        }
    return TrialRecord(
        method=method,
        n=params.n,
        alpha=params.alpha,
        beta=params.beta,
        seed=seed,
        success=bool(success),
        agreement=agr,
        diagnostics=diag,
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
