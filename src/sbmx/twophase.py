"""Two-phase recovery: edge splitting, a partial-recovery oracle, local flips.

The pipeline, composed by `harness.recover`, splits the observed graph into
G1 (a sparse sample handed to a partial-recovery oracle) and G2 (everything
else), then applies one simultaneous round of degree-majority flips using G2
only. Two oracles are provided: a spectral stand-in for a real
partial-recovery algorithm, and a cheating oracle that corrupts the planted
truth by an exact fraction, which isolates the local-improvement step from
partial-recovery quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import Graph, balance_repair, degree_split, require_labeling
from .sdp import ConvergenceError

__all__ = [
    "DegenerateOracleError",
    "SplitConfig",
    "SpectralOracle",
    "CheatingOracle",
    "PartialOracle",
    "pair_membership",
    "split_graph",
    "partial_recovery",
    "local_improvement",
]


class DegenerateOracleError(ValueError):
    """G1 carries no spectral signal: it is empty, no edge joins two kept
    vertices, or the leading direction is zero.

    A property of the sampled graph, not of the caller's input: a trial that
    meets it fails, where other ValueErrors reject the configuration.
    """


@dataclass(frozen=True)
class SplitConfig:
    """Edge-splitting constant and seed; pair selection probability is c/log(n).

    The constant c is fixed while n grows, so c/log(n) -> 0; at a given n it
    must satisfy c <= log(n). The default 1.0 is valid at every n the model
    admits (n >= 4, log 4 = 1.386).
    """

    c: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.c < 0:
            raise ValueError("splitting constant must be nonnegative")

    def probability(self, n: int) -> float:
        p = self.c / math.log(n)
        if p > 1.0:
            raise ValueError(
                f"splitting probability c/log(n) = {p:.4f} exceeds 1 at n={n}; "
                f"choose c <= log(n) = {math.log(n):.4f}"
            )
        return p


@dataclass(frozen=True)
class SpectralOracle:
    """Partial recovery via the leading eigenvector of the centered adjacency.

    High-degree vertices (above 10x the average) are optionally trimmed
    before the eigencomputation and assigned afterwards by the sign of their
    neighbor majority.
    """

    trim: bool = True


@dataclass(frozen=True)
class CheatingOracle:
    """Test oracle: the truth with exactly floor(corruption*n/2) flips per side."""

    corruption: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.corruption < 0.5:
            raise ValueError("corruption must lie in [0, 0.5)")


PartialOracle = Union[SpectralOracle, CheatingOracle]


def pair_membership(n: int, cfg: SplitConfig) -> np.ndarray:
    """Bernoulli(c/log n) indicator per vertex pair, lexicographic order.

    Drawn from cfg.seed alone, so membership is independent of any observed
    graph by construction.
    """
    prob = cfg.probability(n)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    return rng.random(n * (n - 1) // 2) < prob


def _pair_index(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # position of pair (u, v), u < v, in lexicographic enumeration
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def split_graph(g: Graph, cfg: SplitConfig) -> tuple[Graph, Graph]:
    """Split edges into (G1, G2): G1 keeps edges whose pair was selected."""
    member = pair_membership(g.n, cfg)
    if g.m == 0:
        return Graph(g.n, np.empty((0, 2), dtype=np.int64)), Graph(
            g.n, np.empty((0, 2), dtype=np.int64)
        )
    idx = _pair_index(g.n, g.edges[:, 0], g.edges[:, 1])
    in_g1 = member[idx]
    return Graph(g.n, g.edges[in_g1]), Graph(g.n, g.edges[~in_g1])


# seed of ARPACK's fixed start vector, so the oracle's labels are a pure
# function of G1 and do not depend on call order
_START_SEED = 7


def _leading_direction(g1: Graph, kept: np.ndarray) -> np.ndarray:
    """Top eigenvector of the centred adjacency A - (2m/k^2) 11^T on kept vertices.

    A is the k x k adjacency of the m edges that join two kept vertices; the
    rank-one centring term is applied as a shifted sum, so no k x k array is
    formed.
    """
    # imported on first use, as in sdp.certificate_check: processes that
    # never run the spectral oracle do not pay for loading scipy.sparse
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    k = kept.size
    pos = -np.ones(g1.n, dtype=np.int64)
    pos[kept] = np.arange(k)
    pu, pv = pos[g1.edges[:, 0]], pos[g1.edges[:, 1]]
    both = (pu >= 0) & (pv >= 0)
    m_sub = int(np.count_nonzero(both))
    if m_sub == 0:
        # the centred operator is zero: every direction is an eigenvector
        raise DegenerateOracleError(
            "degenerate spectral direction: no edge joins two kept vertices"
        )
    rows = np.concatenate((pu[both], pv[both]))
    cols = np.concatenate((pv[both], pu[both]))
    adj = csr_array((np.ones(rows.size), (rows, cols)), shape=(k, k))
    shift = 2.0 * m_sub / k**2

    def matvec(x: np.ndarray) -> np.ndarray:
        return adj @ x - shift * x.sum()

    op = LinearOperator((k, k), matvec=matvec, dtype=np.float64)
    v0 = np.random.Generator(np.random.PCG64(_START_SEED)).standard_normal(k)
    try:
        _, vecs = eigsh(op, k=1, which="LA", tol=0, v0=v0)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge in the spectral oracle: {exc}") from exc
    return vecs[:, 0]


def partial_recovery(g1: Graph, oracle: PartialOracle, truth=None) -> np.ndarray:
    """Run the configured partial-recovery oracle on G1; output is balanced."""
    n = g1.n
    if isinstance(oracle, CheatingOracle):
        if truth is None:
            raise ValueError("the cheating oracle needs the planted truth")
        arr = require_labeling(truth, n)
        flips = int(oracle.corruption * (n // 2))
        out = arr.copy()
        rng = np.random.Generator(np.random.PCG64(oracle.seed))
        for side in (1, -1):
            members = np.flatnonzero(arr == side)
            chosen = rng.choice(members, size=flips, replace=False)
            out[chosen] = -side
        return out
    if isinstance(oracle, SpectralOracle):
        if g1.m == 0:
            raise DegenerateOracleError("spectral oracle needs a nonempty graph")
        keep = np.ones(n, dtype=bool)
        if oracle.trim:
            deg = g1.degrees()
            keep = deg <= 10.0 * (2.0 * g1.m / n)
            if not keep.any():
                keep = np.ones(n, dtype=bool)
        kept = np.flatnonzero(keep)
        lead = _leading_direction(g1, kept)
        if np.linalg.norm(lead) == 0.0:
            raise DegenerateOracleError("degenerate spectral direction")
        score = np.zeros(n)
        score[kept] = lead
        signs = np.where(score >= 0, 1, -1).astype(np.int8)
        # trimmed vertices follow their neighbor majority among kept labels
        for v in np.flatnonzero(~keep):
            nbrs = g1.neighbors(v)
            vote = int(signs[nbrs[keep[nbrs]]].sum())
            signs[v] = 1 if vote >= 0 else -1
        confidence = np.abs(score)
        return balance_repair(signs, confidence)
    raise TypeError(f"unknown oracle {oracle!r}")


def local_improvement(g2: Graph, labels) -> np.ndarray:
    """One simultaneous round of degree-majority flips against G2.

    Every node is marked iff it has strictly more G2 edges to the opposite
    community than to its own, judged against the input labels. All marks are
    applied only when both sides mark the same number of nodes; otherwise
    the labels are returned unchanged.
    """
    arr = require_labeling(labels, g2.n)
    if int(arr.sum()) != 0:
        raise ValueError("local improvement requires balanced labels")
    own, cross = degree_split(g2, arr)
    marked = cross > own
    out = arr.copy()
    if np.count_nonzero(marked & (arr == 1)) == np.count_nonzero(marked & (arr == -1)):
        out[marked] = -out[marked]
    return out
