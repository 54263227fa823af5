"""Exhaustive min-bisection at small n, plus the per-node failure events.

The enumerator fixes vertex 0 on the +1 side, which quotients out the global
flip and makes uniqueness well defined. Bisections are encoded as bitmasks so
the cut sizes for all C(n-1, n/2-1) balanced partitions are accumulated with
one vectorized pass per edge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .model import (
    Graph,
    SbmParams,
    agreement,
    count_edges_between,
    degree_split,
    generate_sbm,
    require_labeling,
)
from .seeding import derive_seed
from .tails import margin_schedule

__all__ = [
    "MlResult",
    "EventRates",
    "ml_bisection",
    "node_majority_failure",
    "subset_degrees_bounded",
    "cross_margin_event",
    "estimate_event_probabilities",
]

ML_MAX_N = 24


@dataclass(frozen=True)
class MlResult:
    """Outcome of exhaustive min-bisection.

    best is a minimizer (ties broken toward the lexicographically smallest
    +1 side containing vertex 0); unique means exactly one optimal partition
    up to the global flip.
    """

    best: np.ndarray
    min_cut: int
    unique: bool
    optima_count: int


@lru_cache(maxsize=4)
def _balanced_masks(n: int) -> np.ndarray:
    # all +1 sides containing vertex 0, as bitmasks in lexicographic order
    masks = [
        1 | sum(1 << v for v in combo)
        for combo in itertools.combinations(range(1, n), n // 2 - 1)
    ]
    arr = np.array(masks, dtype=np.uint32)
    arr.setflags(write=False)
    return arr


def ml_bisection(g: Graph) -> MlResult:
    """Exhaustive minimum bisection over all balanced partitions up to flip."""
    n = g.n
    if n % 2 != 0:
        raise ValueError("min-bisection needs an even vertex count")
    if n > ML_MAX_N:
        raise ValueError(f"n={n} exceeds the enumeration budget (n <= {ML_MAX_N})")
    masks = _balanced_masks(n)
    cuts = np.zeros(masks.shape[0], dtype=np.int32)
    for u, v in g.edges:
        cuts += (((masks >> int(u)) ^ (masks >> int(v))) & 1).astype(np.int32)
    min_cut = int(cuts.min())
    optima = int(np.count_nonzero(cuts == min_cut))
    best_mask = int(masks[int(np.argmax(cuts == min_cut))])
    labels = np.array(
        [1 if (best_mask >> v) & 1 else -1 for v in range(n)], dtype=np.int8
    )
    return MlResult(best=labels, min_cut=min_cut, unique=optima == 1, optima_count=optima)


def node_majority_failure(g: Graph, truth, i: int) -> bool:
    """True iff vertex i has strictly more neighbors across than within."""
    arr = require_labeling(truth, g.n)
    nbrs = g.neighbors(i)
    if nbrs.size == 0:
        return False
    own = int(np.count_nonzero(arr[nbrs] == arr[i]))
    return (nbrs.size - own) > own


def subset_degrees_bounded(g: Graph, subset: Iterable[int], margin: int) -> bool:
    """True iff every member of the subset has fewer than margin neighbors inside it."""
    members = sorted(int(v) for v in subset)
    mask = np.zeros(g.n, dtype=bool)
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask[v] = True
    for v in members:
        if int(np.count_nonzero(mask[g.neighbors(v)])) >= margin:
            return False
    return True


def cross_margin_event(g: Graph, truth, subset: Iterable[int], j: int, margin: int) -> bool:
    """True iff edges(j, own side minus subset) + margin <= edges(j, other side).

    The subset must contain j and lie inside the +1 side of the truth.
    """
    arr = require_labeling(truth, g.n)
    members = {int(v) for v in subset}
    if j not in members:
        raise ValueError("j must belong to the subset")
    plus_side = {int(v) for v in np.flatnonzero(arr == 1)}
    minus_side = set(range(g.n)) - plus_side
    own_rest = plus_side - members
    e_own = count_edges_between(g, [j], own_rest)
    e_cross = count_edges_between(g, [j], minus_side)
    return e_own + margin <= e_cross


@dataclass(frozen=True)
class EventRates:
    """Empirical rates of the failure events over seeded trials."""

    trials: int
    ml_failure_rate: float | None
    majority_failure_rate: float
    sparse_subset_rate: float
    margin_event_rate: float
    implication_violations: int
    subset_size: int
    margin: int
    schedule_fallback: bool


def estimate_event_probabilities(
    params: SbmParams, trials: int, seed: int
) -> EventRates:
    """Monte Carlo rates for the failure events on fresh planted graphs.

    Per trial, the monitored subset is the lowest-indexed slice of the +1
    community (any fixed choice is exchangeable). For n below the asymptotic
    schedule's domain, a desk-scale fallback (quarter-size subset, margin 2)
    is used and flagged. Exhaustive min-bisection is only attempted within
    its enumeration budget.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    n = params.n
    if n >= 16:
        sched = margin_schedule(n)
        subset_size, margin, fallback = sched.subset_size, sched.margin, False
    else:
        subset_size, margin, fallback = math.ceil(n / 4), 2, True
    run_ml = n <= ML_MAX_N

    ml_fail = 0
    majority = 0
    sparse = 0
    margin_ev = 0
    violations = 0
    for t in range(trials):
        g, truth = generate_sbm(params, derive_seed(seed, t))
        plus = np.flatnonzero(truth == 1)
        subset = [int(v) for v in plus[:subset_size]]

        # node_majority_failure on every + vertex, from one degree count
        within, cross = degree_split(g, truth)
        f_a = bool(np.any(cross[plus] > within[plus]))
        delta_ok = subset_degrees_bounded(g, subset, margin)
        f_h = any(cross_margin_event(g, truth, subset, j, margin) for j in subset)
        majority += f_a
        sparse += delta_ok
        margin_ev += f_h
        if delta_ok and f_h and not f_a:
            violations += 1
        if run_ml:
            res = ml_bisection(g)
            if not (res.unique and agreement(res.best, truth) == 1.0):
                ml_fail += 1

    return EventRates(
        trials=trials,
        ml_failure_rate=(ml_fail / trials) if run_ml else None,
        majority_failure_rate=majority / trials,
        sparse_subset_rate=sparse / trials,
        margin_event_rate=margin_ev / trials,
        implication_violations=violations,
        subset_size=subset_size,
        margin=margin,
        schedule_fallback=fallback,
    )
