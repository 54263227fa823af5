"""Semidefinite relaxation of min-bisection and its dual certificate.

The relaxation maximizes Tr(B X) over correlation matrices X (unit diagonal,
PSD), where B is the signed adjacency: +1 on edges, -1 on non-edges, zero
diagonal. For a planted balanced labeling t, the matrix

    M = 2 * L + ones(n, n),      L = D_within - D_cross - A,

annihilates t exactly; when M is PSD with a strictly positive second-smallest
eigenvalue, t t^T is the unique optimum of the relaxation, so checking M's
bottom spectrum certifies exact recovery without solving anything.

The solver itself is a low-rank factorized ascent (unit-norm rows, projected
gradient with backtracking), which needs no external SDP solver at the sizes
used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from scipy.linalg import eigh

from .model import Graph, SbmParams, degree_split, require_labeling
from .seeding import derive_seed

if TYPE_CHECKING:
    from scipy.sparse import csr_array

__all__ = [
    "ConvergenceError",
    "CertificateReport",
    "SdpConfig",
    "SdpSolution",
    "EigResult",
    "adjacency_matrix",
    "signed_adjacency",
    "sbm_laplacian",
    "certificate_matrix",
    "certificate_check",
    "expected_certificate_matrix",
    "smallest_eigenvalues",
    "sdp_solve",
    "round_solution",
]


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance within its cap."""


@dataclass(frozen=True)
class CertificateReport:
    """Bottom spectrum of the certificate matrix and the resulting verdict."""

    lambda_min: float
    lambda_2: float
    g_residual: float
    certified: bool

    def to_dict(self) -> dict:
        return {
            "lambda_min": self.lambda_min,
            "lambda_2": self.lambda_2,
            "g_residual": self.g_residual,
            "certified": self.certified,
        }


@dataclass(frozen=True)
class SdpConfig:
    rank: int | None = None
    restarts: int = 5
    max_iter: int = 5000
    grad_tol: float = 1e-6
    seed: int = 0


@dataclass
class SdpSolution:
    """Low-rank feasible point: factor has unit-norm rows, X = F F^T."""

    factor: np.ndarray
    objective: float
    rounded: np.ndarray
    rounds_used: int


class EigResult(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


def adjacency_matrix(g: Graph, dtype=np.int64) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=dtype)
    if g.m:
        u, v = g.edges[:, 0], g.edges[:, 1]
        a[u, v] = 1
        a[v, u] = 1
    return a


def signed_adjacency(g: Graph) -> np.ndarray:
    """+1 on edges, -1 on non-edges, zero diagonal."""
    a = adjacency_matrix(g, dtype=np.float64)
    b = 2.0 * a - 1.0
    np.fill_diagonal(b, 0.0)
    return b


def sbm_laplacian(g: Graph, truth) -> np.ndarray:
    """D_within - D_cross - A, in exact integer arithmetic; annihilates truth."""
    arr = require_labeling(truth, g.n)
    if int(arr.sum()) != 0:
        raise ValueError("the planted labeling must be balanced")
    within, cross = degree_split(g, arr)
    lap = -adjacency_matrix(g, dtype=np.int64)
    np.fill_diagonal(lap, within - cross)
    return lap


def certificate_matrix(g: Graph, truth) -> np.ndarray:
    """2 * laplacian + all-ones, integer exact.

    This is Y - B for the diagonal dual witness Y = 2(D_within - D_cross) + I,
    which matches Tr(B t t^T) by construction.
    """
    return 2 * sbm_laplacian(g, truth) + np.ones((g.n, g.n), dtype=np.int64)


# ARPACK finds k eigenvalues only for k < n; certificate_check falls back to
# dense eigh on smaller graphs
_EIGSH_K = 2
# seed of ARPACK's fixed start vector, so a verdict is a pure function of
# (graph, truth)
_START_SEED = 7


def certificate_check(
    g: Graph,
    truth,
    *,
    psd_tol_factor: float = 1e-8,
    gap_tol_factor: float = 1e-6,
) -> CertificateReport:
    """Decide whether the planted labeling is certifiably the unique optimum.

    certified requires lambda_min >= -tol_psd, lambda_2 > tol_gap, and a
    vanishing residual ||M t||_inf, with tolerances scaled by ||M||_F to the
    eigensolver's accuracy floor.

    M is never formed: degrees, the residual and ||M||_F come from the edge
    list in O(m), and the bottom spectrum from ARPACK on the operator
    M + ||M||_F t t^T / n, whose shift lifts the known kernel vector t above
    the rest of the spectrum (docs/decisions.md derives lambda_min and
    lambda_2 from its two smallest eigenvalues).
    """
    # imported on first use: only the certificate needs scipy.sparse, and
    # loading it adds about 30 ms and 3 MiB to every process
    from scipy.sparse import csr_array

    arr = require_labeling(truth, g.n)
    if int(arr.sum()) != 0:
        raise ValueError("the planted labeling must be balanced")
    n = g.n
    t = arr.astype(np.int64)
    within, cross = degree_split(g, arr)
    diag = 2 * (within - cross)
    # the graph's own CSR index is A's sparsity pattern
    adj = csr_array((np.ones(g._nbrs.size, dtype=np.int64), g._nbrs, g._indptr), shape=(n, n))
    # M t = 2(D_w - D_c) t - 2 A t, as 1^T t = 0; in exact integers
    residual = float(np.max(np.abs(diag * t - 2 * (adj @ t))))
    # off-diagonal entries of M are +/-1, diagonal entries 2(w_i - c_i) + 1
    fro = math.sqrt(n * (n - 1) + int(np.sum((diag + 1) ** 2)))
    if n <= _EIGSH_K:
        vals = smallest_eigenvalues(certificate_matrix(g, arr), _EIGSH_K).values
        lam_min, lam_2 = float(vals[0]), float(vals[1])
    else:
        mu_1, mu_2 = _shifted_bottom_pair(diag, 2 * adj, t, fro)
        lam_min = min(0.0, mu_1)
        lam_2 = mu_1 if mu_1 >= 0.0 else min(0.0, mu_2)
    tol_psd = psd_tol_factor * fro
    tol_gap = gap_tol_factor * fro
    certified = (lam_min >= -tol_psd) and (lam_2 > tol_gap) and (residual <= tol_psd)
    return CertificateReport(
        lambda_min=lam_min, lambda_2=lam_2, g_residual=residual, certified=certified
    )


def _shifted_bottom_pair(
    diag: np.ndarray, two_adj: csr_array, t: np.ndarray, fro: float
) -> tuple[float, float]:
    """Two smallest eigenvalues of 2(D_w - D_c) - 2A + 11^T + fro * t t^T / n."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = diag.shape[0]
    diag = diag.astype(np.float64)
    two_adj = two_adj.astype(np.float64)
    t_hat = t / math.sqrt(n)

    def matvec(x: np.ndarray) -> np.ndarray:
        return diag * x - two_adj @ x + x.sum() + (fro * (t_hat @ x)) * t_hat

    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.Generator(np.random.PCG64(_START_SEED)).standard_normal(n)
    try:
        vals = eigsh(op, k=_EIGSH_K, which="SA", tol=0, v0=v0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge on the certificate: {exc}") from exc
    mu_1, mu_2 = np.sort(vals)
    return float(mu_1), float(mu_2)


def expected_certificate_matrix(params: SbmParams) -> np.ndarray:
    """Entrywise expectation of the certificate matrix for sorted communities.

    Block structure: diagonal d = (alpha-beta)log n - 2 alpha log(n)/n + 1,
    within-block off-diagonal a = 1 - 2 alpha log(n)/n, cross-block
    b = 1 - 2 beta log(n)/n. Spectrum: n - 2 beta log n (on the all-ones
    vector), 0 (on the labeling), and (alpha-beta) log n with multiplicity
    n - 2.
    """
    n = params.n
    log_n = math.log(n)
    a = 1.0 - 2.0 * params.alpha * log_n / n
    b = 1.0 - 2.0 * params.beta * log_n / n
    d = (params.alpha - params.beta) * log_n - 2.0 * params.alpha * log_n / n + 1.0
    half = n // 2
    mat = np.full((n, n), b)
    mat[:half, :half] = a
    mat[half:, half:] = a
    np.fill_diagonal(mat, d)
    return mat


def smallest_eigenvalues(mat: np.ndarray, k: int, tol: float = 1e-9) -> EigResult:
    """k smallest eigenvalues (with multiplicity) of a dense symmetric matrix.

    LAPACK eigh restricted to the bottom k indices. Each returned eigenpair
    satisfies ||M v - lambda v||_2 <= tol * ||M||_F; a pair that does not
    raises ConvergenceError rather than returning junk.
    """
    mat = np.asarray(mat, dtype=np.float64)
    n = mat.shape[0]
    if mat.ndim != 2 or mat.shape[1] != n:
        raise ValueError("matrix must be square")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(mat).max())):
        raise ValueError("matrix must be symmetric")
    values, vectors = eigh(mat, subset_by_index=[0, k - 1])
    residuals = np.linalg.norm(mat @ vectors - vectors * values, axis=0)
    tol_abs = tol * float(np.linalg.norm(mat))
    if np.any(residuals > tol_abs):
        raise ConvergenceError(
            f"eigenpair residual {residuals.max():.3e} above tolerance {tol_abs:.3e}"
        )
    return EigResult(values, vectors, residuals)


def _row_normalize(f: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(f, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return f / norms


def _ascend(b: np.ndarray, f: np.ndarray, config: SdpConfig, fro: float) -> tuple[np.ndarray, float]:
    """Projected gradient ascent with backtracking; objective never decreases."""
    obj = float(np.sum(f * (b @ f)))
    step = 1.0 / max(fro, 1e-12)
    iters_left = config.max_iter
    while iters_left > 0:
        g_mat = b @ f
        row_dots = np.sum(f * g_mat, axis=1, keepdims=True)
        grad = 2.0 * (g_mat - row_dots * f)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= config.grad_tol * fro:
            # stationary; a row anti-aligned with its field marks a flip saddle,
            # and flipping the worst one is a strict ascent
            worst = int(np.argmin(row_dots[:, 0]))
            if row_dots[worst, 0] >= -1e-12 * max(fro, 1.0):
                break
            f = f.copy()
            f[worst] = -f[worst]
            new_obj = float(np.sum(f * (b @ f)))
            if new_obj < obj - 1e-9 * max(1.0, abs(obj)):
                raise ConvergenceError(f"objective decreased from {obj} to {new_obj} on a flip")
            obj = new_obj
            iters_left -= 1
            continue
        accepted = False
        while step >= 1e-18:
            trial = _row_normalize(f + step * grad)
            trial_obj = float(np.sum(trial * (b @ trial)))
            if trial_obj >= obj + 5e-5 * step * grad_norm**2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        if trial_obj < obj - 1e-9 * max(1.0, abs(obj)):
            raise ConvergenceError(f"objective decreased from {obj} to {trial_obj} on a step")
        f, obj = trial, trial_obj
        step *= 1.25
        iters_left -= 1
    return f, obj


def sdp_solve(b: np.ndarray, config: SdpConfig | None = None) -> SdpSolution:
    """Low-rank ascent for max Tr(B X), X_ii = 1, X PSD.

    Factor rank max(2, ceil(sqrt(2n))) puts the problem in the regime where
    the factorized landscape has no spurious local optima. Restarts run from
    seed-derived starts and merge by best objective, ties to the lowest
    restart index. Optimality is only ever certified via certificate_check.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if b.ndim != 2 or b.shape[1] != n:
        raise ValueError("B must be square")
    if not np.allclose(b, b.T):
        raise ValueError("B must be symmetric")
    if np.any(np.diagonal(b) != 0.0):
        raise ValueError("B must have a zero diagonal")
    config = config or SdpConfig()
    rank = config.rank or max(2, math.ceil(math.sqrt(2 * n)))
    fro = float(np.linalg.norm(b))
    best_obj = -np.inf
    best_f = None
    for restart in range(config.restarts):
        rng = np.random.Generator(np.random.PCG64(derive_seed(config.seed, restart)))
        f0 = _row_normalize(rng.standard_normal((n, rank)))
        f, obj = _ascend(b, f0, config, fro)
        if obj > best_obj:
            best_obj, best_f = obj, f
    rounded = round_solution(
        SdpSolution(factor=best_f, objective=best_obj, rounded=None, rounds_used=config.restarts)
    )
    return SdpSolution(
        factor=best_f, objective=best_obj, rounded=rounded, rounds_used=config.restarts
    )


def round_solution(sol) -> np.ndarray:
    """Balanced sign rounding of the leading eigenvector of X.

    Accepts an SdpSolution (leading direction computed from the factor) or a
    dense X. If the sign vector is unbalanced, the excess side's entries with
    the smallest absolute coordinate are flipped, ties broken by vertex index.
    """
    if isinstance(sol, SdpSolution):
        f = np.asarray(sol.factor, dtype=np.float64)
        gram = f.T @ f
        vals, vecs = np.linalg.eigh(gram)
        lead = f @ vecs[:, -1]
    else:
        x = np.asarray(sol, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError("X must be square")
        vals, vecs = np.linalg.eigh(x)
        # scale by the eigenvalue so a PSD-zero matrix reads as degenerate
        lead = vecs[:, -1] * math.sqrt(max(float(vals[-1]), 0.0))
    norm = float(np.linalg.norm(lead))
    if norm < 1e-12:
        raise ConvergenceError("degenerate leading eigenvector in rounding")
    lead = lead / norm
    n = lead.shape[0]
    if n % 2 != 0:
        raise ValueError("rounding needs an even number of vertices")
    signs = np.where(lead >= 0.0, 1, -1).astype(np.int8)
    excess = int(signs.sum())
    if excess == 0:
        return signs
    side = 1 if excess > 0 else -1
    flips = abs(excess) // 2
    candidates = np.flatnonzero(signs == side)
    order = candidates[np.lexsort((candidates, np.abs(lead[candidates])))]
    signs[order[:flips]] = -side
    return signs
