import itertools
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from sbmx.mlexact import (
    ML_MAX_N,
    MlResult,
    cross_margin_event,
    estimate_event_probabilities,
    ml_bisection,
    node_majority_failure,
    subset_degrees_bounded,
)
from sbmx.model import Graph, SbmParams, agreement, cut_size, degree_split, generate_sbm
from sbmx.seeding import derive_seed

TRIANGLE = Graph(4, [(0, 1), (0, 2), (1, 2)])
K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
PATH4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


@lru_cache(maxsize=2)
def _reference_masks(n):
    # all +1 sides containing vertex 0, as bitmasks in lexicographic order
    masks = [
        1 | sum(1 << v for v in combo)
        for combo in itertools.combinations(range(1, n), n // 2 - 1)
    ]
    return np.array(masks, dtype=np.uint32)


def reference_ml_bisection(g):
    """Reference for the bit-plane kernel: the per-edge uint32 bitmask loop."""
    n = g.n
    masks = _reference_masks(n)
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


def assert_same_result(got, want):
    assert got.best.dtype == want.best.dtype
    assert np.array_equal(got.best, want.best)
    assert type(got.min_cut) is int and got.min_cut == want.min_cut
    assert got.unique == want.unique
    assert type(got.optima_count) is int and got.optima_count == want.optima_count


class TestMlBisection:
    def test_zero_cut_unique(self):
        res = ml_bisection(Graph(4, [(0, 1), (2, 3)]))
        assert res.min_cut == 0
        assert res.unique
        assert np.array_equal(res.best, [1, 1, -1, -1])

    def test_k4_all_tie(self):
        res = ml_bisection(K4)
        assert res.min_cut == 4
        assert not res.unique
        assert res.optima_count == 3

    def test_path(self):
        res = ml_bisection(PATH4)
        assert res.min_cut == 1
        assert res.unique
        assert np.array_equal(res.best, [1, 1, -1, -1])

    def test_rejects_odd_and_oversize(self):
        with pytest.raises(ValueError):
            ml_bisection(Graph(3, [(0, 1)]))
        with pytest.raises(ValueError):
            ml_bisection(Graph(26, [(0, 1)]))

    def test_min_cut_is_consistent(self):
        g, _ = generate_sbm(SbmParams(12, 2, 1), 5)
        res = ml_bisection(g)
        assert res.min_cut == cut_size(g, res.best)

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_matches_naive_oracle(self, n, naive_ml):
        for seed in range(12):
            g, _ = generate_sbm(SbmParams(n, 2.5, 1), seed)
            res = ml_bisection(g)
            labels, cut, optima = naive_ml(g)
            assert res.min_cut == cut
            assert res.optima_count == optima
            assert agreement(res.best, labels) == 1.0


class TestBitPlaneKernel:
    @pytest.mark.parametrize("n", range(4, 23, 2))
    def test_matches_reference(self, n):
        # alpha up to the largest feasible value n / log n at this n
        top = n / math.log(n)
        graphs = [
            Graph(n, np.empty((0, 2))),
            Graph(n, list(itertools.combinations(range(n), 2))),
            generate_sbm(SbmParams(n, 0.5 * top, 0.5 * top), 1)[0],
        ]
        for seed in range(3):
            for a, b in ((0.9, 0.1), (0.6, 0.3), (0.3, 0.0)):
                graphs.append(generate_sbm(SbmParams(n, a * top, b * top), seed)[0])
        for g in graphs:
            assert_same_result(ml_bisection(g), reference_ml_bisection(g))

    @pytest.mark.parametrize("alpha", [3, 4, 5, 6, 7])
    def test_matches_reference_on_bench_cells(self, alpha):
        for beta in (0.5, 1.0, 2.0):
            g, _ = generate_sbm(SbmParams(22, alpha, beta), derive_seed(30, alpha))
            assert_same_result(ml_bisection(g), reference_ml_bisection(g))

    def test_uint8_cuts_cannot_wrap(self):
        # the kernel accumulates cuts in uint8; a bisection of n vertices
        # cuts at most (n/2)^2 edges, so raising ML_MAX_N to 32 or more needs
        # a wider accumulator
        assert (ML_MAX_N // 2) ** 2 <= np.iinfo(np.uint8).max

    def test_k24_closed_form(self):
        # the densest graph within the budget, m = 276 > 255 edges: every
        # bisection of K24 cuts 12 * 12 = 144 of them, so all comb(23, 11)
        # sides tie and the first in lexicographic order is {0, ..., 11}
        k24 = Graph(24, list(itertools.combinations(range(24), 2)))
        res = ml_bisection(k24)
        assert k24.m == 276
        assert res.min_cut == 144
        assert res.optima_count == math.comb(23, 11) == 1352078
        assert not res.unique
        assert res.best.dtype == np.int8
        assert np.array_equal(res.best, [1] * 12 + [-1] * 12)

    def test_call_memory_with_warm_cache(self):
        g, _ = generate_sbm(SbmParams(22, 7, 2), 5)
        ml_bisection(g)  # fills the partition cache
        tracemalloc.start()
        try:
            ml_bisection(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestNodeMajorityFailure:
    def test_isolated_vertex_is_fine(self):
        g = Graph(4, [(1, 2)])
        truth = np.array([1, 1, -1, -1], dtype=np.int8)
        assert not node_majority_failure(g, truth, 0)

    def test_two_cross_one_within(self):
        g = Graph(6, [(0, 1), (0, 3), (0, 4)])
        truth = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
        assert node_majority_failure(g, truth, 0)

    def test_tie_is_not_failure(self):
        g = Graph(6, [(0, 1), (0, 3)])
        truth = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
        assert not node_majority_failure(g, truth, 0)


class TestSubsetEvents:
    def test_empty_subset_vacuous(self):
        assert subset_degrees_bounded(K4, [], 1)

    def test_triangle_margins(self):
        assert not subset_degrees_bounded(TRIANGLE, [0, 1, 2], 2)
        assert subset_degrees_bounded(TRIANGLE, [0, 1, 2], 3)

    def test_margin_event_examples(self):
        truth = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
        isolated = Graph(6, np.empty((0, 2)))
        assert not cross_margin_event(isolated, truth, [0], 0, 1)
        # three cross edges, none to the rest of the own side, margin 3: boundary holds
        g3 = Graph(6, [(0, 3), (0, 4), (0, 5)])
        assert cross_margin_event(g3, truth, [0], 0, 3)
        # one extra own-side edge breaks it
        g4 = Graph(6, [(0, 1), (0, 3), (0, 4), (0, 5)])
        assert not cross_margin_event(g4, truth, [0], 0, 3)
        # unless that neighbor is inside the monitored subset
        assert cross_margin_event(g4, truth, [0, 1], 0, 3)

    def test_margin_event_requires_membership(self):
        truth = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
        with pytest.raises(ValueError):
            cross_margin_event(TRIANGLE, np.array([1, 1, 1, -1, -1, -1], dtype=np.int8), [1], 0, 1)
        del truth


class TestTwoSidedFailureForcesTie:
    def test_constructed_swap_does_not_increase_cut(self):
        # one majority-failing vertex on each side: swapping them cannot
        # increase the cut, so the planted partition is not the unique optimum
        truth = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
        g = Graph(
            6,
            [
                (0, 3), (0, 4),   # vertex 0 (+1 side): two cross, zero within
                (1, 3), (1, 2),
                (2, 5),           # vertex 5 (-1 side): edge up, none within
                (0, 5),
            ],
        )
        assert node_majority_failure(g, truth, 0)
        assert node_majority_failure(g, truth, 5)
        swapped = truth.copy()
        swapped[0], swapped[5] = -1, 1
        assert cut_size(g, swapped) <= cut_size(g, truth)
        res = ml_bisection(g)
        assert not (res.unique and agreement(res.best, truth) == 1.0)


class TestEventProbabilities:
    @pytest.mark.parametrize(
        "n, alpha, beta, seed", [(16, 1, 0.5, 2), (40, 2, 0.5, 5), (40, 3, 0.5, 5), (100, 2.5, 0.5, 7)]
    )
    def test_majority_event_matches_per_node_loop(self, n, alpha, beta, seed):
        # the event comes from one degree_split per graph; per vertex it must
        # equal node_majority_failure, and its rate the per-node loop over the
        # + side, on the same seeded graphs (sparse enough to hold isolated
        # vertices)
        params = SbmParams(n, alpha, beta)
        trials = 30
        rates = estimate_event_probabilities(params, trials=trials, seed=seed)
        failures = isolated = 0
        for t in range(trials):
            g, truth = generate_sbm(params, derive_seed(seed, t))
            within, cross = degree_split(g, truth)
            per_node = [node_majority_failure(g, truth, i) for i in range(n)]
            assert np.array_equal(cross > within, per_node)
            isolated += int(np.count_nonzero(g.degrees() == 0))
            failures += any(per_node[i] for i in np.flatnonzero(truth == 1))
        assert isolated > 0
        assert rates.majority_failure_rate == failures / trials

    def test_implication_never_violated(self):
        rates = estimate_event_probabilities(SbmParams(16, 4, 1), trials=150, seed=7)
        assert rates.implication_violations == 0
        assert rates.trials == 150
        assert not rates.schedule_fallback

    def test_equal_rates_majority_failure_is_common(self):
        rates = estimate_event_probabilities(SbmParams(16, 4, 4), trials=200, seed=11)
        assert rates.majority_failure_rate > 0.5
        assert rates.ml_failure_rate > 0.5

    def test_zero_cross_rate_no_majority_failures(self):
        # beta = 0: a node has no cross edges, and 0 > own is impossible
        rates = estimate_event_probabilities(SbmParams(16, 5, 0), trials=100, seed=3)
        assert rates.majority_failure_rate == 0.0

    def test_desk_scale_fallback_flagged(self):
        rates = estimate_event_probabilities(SbmParams(8, 2, 1), trials=20, seed=1)
        assert rates.schedule_fallback
        assert rates.subset_size == 2
        assert rates.margin == 2

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            estimate_event_probabilities(SbmParams(16, 4, 1), trials=0, seed=0)


class TestEmpiricalMonotonicity:
    @pytest.mark.slow
    def test_ml_success_monotone_in_alpha(self):
        # spec names alpha in {2,4,8,16} at n=16, but alpha > n/log(n) = 5.77
        # makes p > 1; use the feasible ladder instead, with 2-sigma slack
        trials = 200
        rates = []
        for alpha in (2, 3, 4, 5):
            succ = 0
            for t in range(trials):
                g, truth = generate_sbm(SbmParams(16, alpha, 1), derive_seed(17, t))
                res = ml_bisection(g)
                succ += res.unique and agreement(res.best, truth) == 1.0
            rates.append(succ / trials)
        noise = 2 * math.sqrt(0.25 / trials)
        assert all(b >= a - noise for a, b in zip(rates, rates[1:])), rates
