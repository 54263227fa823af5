"""Core model: planted-bisection graphs, balanced labelings, partition metrics.

A graph is an immutable set of undirected edges on vertices 0..n-1, stored
both as a sorted edge list and as a per-vertex neighbor index so that
neighborhood scans are O(degree). Labelings are plain numpy vectors with
entries +1/-1; a labeling is balanced when its entries sum to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "SbmParams",
    "Graph",
    "generate_sbm",
    "agreement",
    "is_balanced",
    "require_labeling",
    "count_edges_between",
    "degree_split",
    "cut_size",
    "write_graph",
    "parse_graph",
    "write_labeling",
    "parse_labeling",
]


@dataclass(frozen=True)
class SbmParams:
    """Planted-bisection parameters (n, alpha, beta).

    Edge probabilities are p = alpha*log(n)/n within communities and
    q = beta*log(n)/n across. Construction fails if either exceeds 1;
    clamping would silently change the model.
    """

    n: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 4, got {self.n}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        scale = math.log(self.n) / self.n
        if self.alpha * scale > 1.0:
            raise ValueError(
                f"within-community probability p = {self.alpha * scale:.6g} exceeds 1 "
                f"(alpha*log(n) > n)"
            )
        if self.beta * scale > 1.0:
            raise ValueError(
                f"cross-community probability q = {self.beta * scale:.6g} exceeds 1 "
                f"(beta*log(n) > n)"
            )

    @property
    def p(self) -> float:
        return self.alpha * math.log(self.n) / self.n

    @property
    def q(self) -> float:
        return self.beta * math.log(self.n) / self.n


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_indptr", "_nbrs")

    def __init__(self, n: int, edges: np.ndarray):
        if not isinstance(n, (int, np.integer)) or n <= 0:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            u, v = edges[:, 0], edges[:, 1]
            if np.any(u < 0) or np.any(v >= n):
                raise ValueError("edge endpoint out of range")
            if np.any(u >= v):
                raise ValueError("edges must satisfy u < v (no self-loops)")
            order = np.lexsort((v, u))
            edges = edges[order]
            if np.any((np.diff(edges[:, 0]) == 0) & (np.diff(edges[:, 1]) == 0)):
                raise ValueError("duplicate edge")
        self.n = int(n)
        edges.setflags(write=False)
        self.edges = edges
        # CSR-style neighbor index over both endpoint directions, each
        # vertex's neighbors in ascending order
        src = np.concatenate((edges[:, 0], edges[:, 1]))
        dst = np.concatenate((edges[:, 1], edges[:, 0]))
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
        nbrs = dst[np.lexsort((dst, src))]
        indptr.setflags(write=False)
        nbrs.setflags(write=False)
        self._indptr = indptr
        self._nbrs = nbrs

    @property
    def m(self) -> int:
        """Edge count."""
        return self.edges.shape[0]

    def neighbors(self, v: int) -> np.ndarray:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self._nbrs[self._indptr[v] : self._indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def require_labeling(labels, n: int | None = None) -> np.ndarray:
    """Validate and return a +/-1 labeling as an int8 array."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError("labeling must be one-dimensional")
    if not np.all(np.isin(arr, (-1, 1))):
        raise ValueError("labeling entries must be +1 or -1")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"labeling length {arr.shape[0]} does not match n={n}")
    return arr.astype(np.int8)


def is_balanced(labels) -> bool:
    arr = require_labeling(labels)
    return int(arr.sum()) == 0


@lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    # lexicographic (u, v) with u < v; cached because the harness regenerates
    # many graphs at the same n
    iu, ju = np.triu_indices(n, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def generate_sbm(params: SbmParams, seed: int) -> tuple[Graph, np.ndarray]:
    """Sample a graph and its planted balanced labeling.

    The labeling is a seeded permutation of a fixed half +1 / half -1 vector.
    Edges are then drawn with one uniform variate per vertex pair, iterating
    pairs in lexicographic order, so the output is a pure function of
    (params, seed) regardless of parallelism.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    half = params.n // 2
    base = np.concatenate(
        [np.ones(half, dtype=np.int8), -np.ones(half, dtype=np.int8)]
    )
    labels = rng.permutation(base)
    iu, ju = _pair_indices(params.n)
    draws = rng.random(iu.shape[0])
    same = labels[iu] == labels[ju]
    threshold = np.where(same, params.p, params.q)
    keep = draws < threshold
    edges = np.column_stack((iu[keep], ju[keep]))
    return Graph(params.n, edges), labels


def agreement(x, y) -> float:
    """Fraction of matching labels, maximized over the global flip.

    Equals 1 exactly when the two labelings describe the same partition.
    """
    a = require_labeling(x)
    b = require_labeling(y)
    if a.shape[0] != b.shape[0]:
        raise ValueError("labelings have different lengths")
    matches = int(np.count_nonzero(a == b))
    n = a.shape[0]
    return max(matches, n - matches) / n


def _vertex_mask(g: Graph, vertices: Iterable[int]) -> np.ndarray:
    mask = np.zeros(g.n, dtype=bool)
    for v in vertices:
        vi = int(v)
        if not 0 <= vi < g.n:
            raise ValueError(f"vertex {vi} out of range for n={g.n}")
        mask[vi] = True
    return mask


def count_edges_between(g: Graph, S: Iterable[int], T: Iterable[int]) -> int:
    """Number of edges with one endpoint in S and the other in T.

    An edge inside the overlap of S and T counts once.
    """
    s_mask = _vertex_mask(g, S)
    t_mask = _vertex_mask(g, T)
    if g.m == 0:
        return 0
    u, v = g.edges[:, 0], g.edges[:, 1]
    hit = (s_mask[u] & t_mask[v]) | (t_mask[u] & s_mask[v])
    return int(np.count_nonzero(hit))


def degree_split(g: Graph, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex (within, cross) neighbor counts under a +/-1 labeling."""
    u, v = g.edges[:, 0], g.edges[:, 1]
    same = labels[u] == labels[v]
    within = np.bincount(np.concatenate((u[same], v[same])), minlength=g.n)
    cross = np.bincount(np.concatenate((u[~same], v[~same])), minlength=g.n)
    return within, cross


def cut_size(g: Graph, labels) -> int:
    """Edges crossing a balanced bisection."""
    arr = require_labeling(labels, g.n)
    if int(arr.sum()) != 0:
        raise ValueError("cut_size requires a balanced labeling")
    if g.m == 0:
        return 0
    u, v = g.edges[:, 0], g.edges[:, 1]
    return int(np.count_nonzero(arr[u] != arr[v]))


def write_graph(g: Graph) -> str:
    """Serialize to the text format: header 'n m', then sorted 'u v' lines."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse the text format produced by write_graph; strict validation."""
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty graph text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"malformed header {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"malformed header {lines[0]!r}") from exc
    if n <= 0 or m < 0:
        raise ValueError(f"invalid header values n={n}, m={m}")
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges but found {len(lines) - 1} lines")
    edges = np.empty((m, 2), dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"malformed edge line {line!r}") from exc
        if u == v:
            raise ValueError(f"self-loop {u} {v}")
        if u > v:
            raise ValueError(f"edge {u} {v} not in u < v form")
        edges[i] = (u, v)
    return Graph(n, edges)


def write_labeling(labels) -> str:
    arr = require_labeling(labels)
    return "\n".join("+1" if x == 1 else "-1" for x in arr) + "\n"


def parse_labeling(text: str) -> np.ndarray:
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    values = []
    for line in lines:
        token = line.strip()
        if token == "+1":
            values.append(1)
        elif token == "-1":
            values.append(-1)
        else:
            raise ValueError(f"invalid labeling line {line!r}: expected '+1' or '-1'")
    if not values:
        raise ValueError("empty labeling text")
    return np.array(values, dtype=np.int8)
