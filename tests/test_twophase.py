import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmx.harness import recover
from sbmx.mlexact import node_majority_failure
from sbmx.model import Graph, SbmParams, agreement, balance_repair, generate_sbm, is_balanced
from sbmx.sdp import ConvergenceError
from sbmx.seeding import derive_seed
from sbmx.twophase import (
    CheatingOracle,
    DegenerateOracleError,
    SpectralOracle,
    SplitConfig,
    local_improvement,
    pair_membership,
    partial_recovery,
    split_graph,
)


def dense_spectral_reference(g1: Graph, trim: bool) -> np.ndarray:
    """The spectral oracle on a dense n x n centred adjacency and a full eigh.

    Independent reference for the matrix-free oracle: same trimming, neighbour
    vote and balance repair, but the eigenvector comes from LAPACK.
    """
    n = g1.n
    keep = np.ones(n, dtype=bool)
    if trim:
        keep = g1.degrees() <= 10.0 * (2.0 * g1.m / n)
    kept = np.flatnonzero(keep)
    pos = -np.ones(n, dtype=np.int64)
    pos[kept] = np.arange(kept.size)
    adj = np.zeros((kept.size, kept.size))
    pu, pv = pos[g1.edges[:, 0]], pos[g1.edges[:, 1]]
    both = (pu >= 0) & (pv >= 0)
    adj[pu[both], pv[both]] = 1.0
    adj[pv[both], pu[both]] = 1.0
    centered = adj - (adj.sum() / kept.size**2)
    _, vecs = np.linalg.eigh(centered)
    score = np.zeros(n)
    score[kept] = vecs[:, -1]
    signs = np.where(score >= 0, 1, -1).astype(np.int8)
    for v in np.flatnonzero(~keep):
        nbrs = g1.neighbors(v)
        signs[v] = 1 if int(signs[nbrs[keep[nbrs]]].sum()) >= 0 else -1
    return balance_repair(signs, np.abs(score))


def sbm_g1(n: int, alpha: float, beta: float, seed: int) -> Graph:
    g, _ = generate_sbm(SbmParams(n, alpha, beta), derive_seed(41, seed))
    g1, _ = split_graph(g, SplitConfig(c=1.0, seed=derive_seed(seed, 2)))
    return g1


def with_hubs(g: Graph, hubs: int) -> Graph:
    """g plus edges from vertices 0..hubs-1 to every second other vertex."""
    extra = [(h, v) for h in range(hubs) for v in range(hubs, g.n, 2)]
    edges = {tuple(e) for e in g.edges.tolist()} | set(extra)
    return Graph(g.n, sorted(edges))


def same_up_to_sign(x: np.ndarray, y: np.ndarray) -> bool:
    return np.array_equal(x, y) or np.array_equal(x, -y)


def two_cliques(k: int) -> Graph:
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, v) for u in range(k, 2 * k) for v in range(u + 1, 2 * k)]
    return Graph(2 * k, edges)


class TestSplit:
    def test_zero_constant_puts_everything_in_g2(self):
        g, _ = generate_sbm(SbmParams(50, 3, 1), 4)
        g1, g2 = split_graph(g, SplitConfig(c=0.0, seed=1))
        assert g1.m == 0
        assert g2 == g

    def test_full_constant_puts_everything_in_g1(self):
        g, _ = generate_sbm(SbmParams(50, 3, 1), 4)
        g1, g2 = split_graph(g, SplitConfig(c=math.log(50), seed=1))
        assert g1 == g
        assert g2.m == 0

    def test_probability_above_one_rejected(self):
        g, _ = generate_sbm(SbmParams(50, 3, 1), 4)
        with pytest.raises(ValueError):
            split_graph(g, SplitConfig(c=8.0, seed=1))  # 8 > log(50)

    @given(st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_edges_partition_exactly(self, seed):
        g, _ = generate_sbm(SbmParams(40, 3, 1), seed)
        g1, g2 = split_graph(g, SplitConfig(c=1.5, seed=seed))
        assert g1.m + g2.m == g.m
        merged = np.vstack([g1.edges, g2.edges])
        merged = merged[np.lexsort((merged[:, 1], merged[:, 0]))]
        assert np.array_equal(merged, g.edges)

    def test_membership_independent_of_graph(self):
        cfg = SplitConfig(c=2.0, seed=77)
        assert np.array_equal(pair_membership(30, cfg), pair_membership(30, cfg))

    @pytest.mark.slow
    def test_h1_degree_bound(self):
        # spec quotes this invariant at C=8, n=300 where the split probability
        # would be 1.4; run at a valid constant, same claimed bound 2Cn/log(n)
        n, c = 300, 2.0
        bound = 2 * c * n / math.log(n)
        hits = 0
        for seed in range(100):
            member = pair_membership(n, SplitConfig(c=c, seed=seed))
            iu, ju = np.triu_indices(n, k=1)
            deg = np.zeros(n, dtype=np.int64)
            np.add.at(deg, iu[member], 1)
            np.add.at(deg, ju[member], 1)
            hits += deg.max() <= bound
        assert hits >= 99


class TestCheatingOracle:
    def test_zero_corruption_returns_truth(self):
        g, truth = generate_sbm(SbmParams(20, 3, 1), 0)
        out = partial_recovery(g, CheatingOracle(corruption=0.0, seed=5), truth)
        assert np.array_equal(out, truth)

    def test_exact_corruption_fraction(self):
        g, truth = generate_sbm(SbmParams(20, 3, 1), 0)
        out = partial_recovery(g, CheatingOracle(corruption=0.1, seed=5), truth)
        assert agreement(out, truth) == pytest.approx(0.9)
        assert is_balanced(out)

    def test_requires_truth(self):
        g, _ = generate_sbm(SbmParams(20, 3, 1), 0)
        with pytest.raises(ValueError):
            partial_recovery(g, CheatingOracle(corruption=0.1, seed=5))

    def test_corruption_domain(self):
        with pytest.raises(ValueError):
            CheatingOracle(corruption=0.5)


class TestSpectralOracle:
    def test_two_disjoint_cliques(self):
        g = two_cliques(10)
        truth = np.concatenate([np.ones(10, dtype=np.int8), -np.ones(10, dtype=np.int8)])
        out = partial_recovery(g, SpectralOracle(), truth=None)
        assert agreement(out, truth) == 1.0

    def test_empty_graph_rejected(self):
        with pytest.raises(DegenerateOracleError):
            partial_recovery(Graph(10, np.empty((0, 2))), SpectralOracle())

    def test_output_balanced_on_sbm(self):
        g, truth = generate_sbm(SbmParams(60, 6, 0.5), 3)
        out = partial_recovery(g, SpectralOracle(), truth=None)
        assert is_balanced(out)
        assert agreement(out, truth) > 0.9

    def test_trim_flag_both_work(self):
        g, truth = generate_sbm(SbmParams(60, 6, 0.5), 9)
        for trim in (True, False):
            out = partial_recovery(g, SpectralOracle(trim=trim))
            assert is_balanced(out)


class TestSpectralOracleDifferential:
    """The matrix-free oracle against the dense eigh reference.

    An eigenvector's sign is arbitrary, and the two solvers pick theirs
    independently, so labels are compared up to a global flip.
    """

    @pytest.mark.parametrize("trim", [True, False])
    @pytest.mark.parametrize(
        "n, alpha, beta, seed",
        [
            (60, 12, 4, 0),
            (60, 8, 2, 1),
            (300, 20, 2, 2),
            (300, 8, 2, 3),
            (1000, 30, 4, 4),
            (1000, 12, 4, 5),
            (2000, 20, 2, 6),
            (2000, 8, 2, 7),
        ],
    )
    def test_matches_dense_on_sbm_g1(self, n, alpha, beta, seed, trim):
        g1 = sbm_g1(n, alpha, beta, seed)
        out = partial_recovery(g1, SpectralOracle(trim=trim))
        assert same_up_to_sign(out, dense_spectral_reference(g1, trim))

    @pytest.mark.parametrize("n, hubs", [(300, 2), (1000, 3)])
    def test_matches_dense_with_trimmed_hubs(self, n, hubs):
        g1 = with_hubs(sbm_g1(n, 20, 2, n), hubs)
        deg = g1.degrees()
        assert np.count_nonzero(deg > 10.0 * (2.0 * g1.m / n)) == hubs
        for trim in (True, False):
            out = partial_recovery(g1, SpectralOracle(trim=trim))
            assert same_up_to_sign(out, dense_spectral_reference(g1, trim))

    def test_peak_memory_below_half_a_dense_matrix(self):
        n = 2000
        g1 = sbm_g1(n, 20, 2, 0)
        partial_recovery(g1, SpectralOracle())  # load scipy.sparse off the count
        tracemalloc.start()
        try:
            partial_recovery(g1, SpectralOracle())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 2, f"peak {peak / 2**20:.1f} MiB"


class TestSpectralOracleTiny:
    """Kept sets at ARPACK's limits: one eigenpair needs at least 2 vertices.

    Trimming drops only vertices of degree above 10x the average, which is
    fewer than n/10 of them (and none below n = 20), so the smallest kept sets
    come from small n; what trimming can shrink to almost nothing is the
    kept subgraph's edge set.
    """

    def test_single_edge_n2(self):
        g = Graph(2, [(0, 1)])
        out = partial_recovery(g, SpectralOracle())
        assert is_balanced(out)

    def test_two_edges_n4(self):
        g = Graph(4, [(0, 1), (2, 3)])
        truth = np.array([1, 1, -1, -1], dtype=np.int8)
        for trim in (True, False):
            out = partial_recovery(g, SpectralOracle(trim=trim))
            assert agreement(out, truth) == 1.0
            assert same_up_to_sign(out, dense_spectral_reference(g, trim))

    def test_path_n6(self):
        g = Graph(6, [(i, i + 1) for i in range(5)])
        out = partial_recovery(g, SpectralOracle())
        assert same_up_to_sign(out, dense_spectral_reference(g, True))

    def test_trimmed_star_leaves_one_edge(self):
        # the centre of a 20-leaf star is trimmed; one edge joins two leaves
        g = Graph(22, [(0, v) for v in range(1, 21)] + [(1, 2)])
        out = partial_recovery(g, SpectralOracle())
        assert is_balanced(out)
        assert out[1] == out[2]

    def test_trimmed_star_without_kept_edges_rejected(self):
        g = Graph(22, [(0, v) for v in range(1, 21)])
        with pytest.raises(DegenerateOracleError, match="degenerate spectral direction"):
            partial_recovery(g, SpectralOracle())
        assert is_balanced(partial_recovery(g, SpectralOracle(trim=False)))

    def test_nonconvergence_raises_convergence_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        with pytest.raises(ConvergenceError, match="ARPACK"):
            partial_recovery(two_cliques(10), SpectralOracle())


class TestLocalImprovement:
    def test_marked_pair_flipped(self):
        # vertex 0 (+): 3 cross vs 1 own; vertex 5 (-): 2 cross vs 0 own;
        # every other vertex is tied or majority-own, so exactly one mark
        # per side and both get flipped
        labels = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
        g = Graph(6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (3, 4)])
        out = local_improvement(g, labels)
        expected = labels.copy()
        expected[0], expected[5] = -1, 1
        assert np.array_equal(out, expected)
        assert is_balanced(out)

    def test_tie_not_flipped(self):
        labels = np.array([1, 1, -1, -1], dtype=np.int8)
        g = Graph(4, [(0, 1), (0, 2)])  # vertex 0: 1 own, 1 cross
        out = local_improvement(g, labels)
        assert np.array_equal(out, labels)

    def test_unequal_marks_keep_labels(self):
        # two marks on the + side, none on the - side
        labels = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
        g = Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5)])
        out = local_improvement(g, labels)
        assert np.array_equal(out, labels)

    def test_unbalanced_subset_option(self):
        # marks: vertices 0 and 1 on the + side (margins 2 and 1), vertex 4
        # on the - side; a balanced subset of the marks (0 and 4) exists, but
        # the flip is all-or-nothing, so the labels stay as they are
        labels = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
        g = Graph(6, [(0, 3), (0, 4), (1, 4), (3, 5)])
        out = local_improvement(g, labels)
        assert np.array_equal(out, labels)
        assert is_balanced(out)

    def test_rejects_unbalanced_labels(self):
        g = Graph(4, [(0, 1)])
        with pytest.raises(ValueError):
            local_improvement(g, np.array([1, 1, 1, -1], dtype=np.int8))

    @given(st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_flip_equivariance_and_balance(self, seed):
        g, truth = generate_sbm(SbmParams(20, 3, 1), seed)
        rng = np.random.default_rng(seed)
        labels = truth.copy()
        # corrupt one node per side to get a balanced non-truth labeling
        plus = np.flatnonzero(labels == 1)
        minus = np.flatnonzero(labels == -1)
        labels[rng.choice(plus)] = -1
        labels[rng.choice(minus)] = 1
        out = local_improvement(g, labels)
        assert is_balanced(out)
        flipped = local_improvement(g, -labels)
        assert np.array_equal(flipped, -out)


class TestPipeline:
    def test_clean_oracle_and_no_split_preserves_good_truth(self):
        # with corruption 0 and everything in G2, the flip rule marks nothing
        # whenever no vertex majority-fails in g
        for seed in range(10):
            g, truth = generate_sbm(SbmParams(30, 5, 0.5), derive_seed(3, seed))
            if any(node_majority_failure(g, truth, i) for i in range(g.n)):
                continue
            out = recover(
                "two-phase", g, truth, seed, split_c=0.0, oracle="cheating", oracle_delta=0.0
            )
            assert np.array_equal(out.labels, truth)

    def test_cheating_pipeline_recovers_above_threshold(self):
        # companion to the acceptance gate: same (n, alpha, beta, deltaC) but
        # a valid splitting constant (the quoted C=8 gives probability 1.4)
        params = SbmParams(300, 10, 1)
        successes = 0
        for t in range(20):
            seed = derive_seed(2025, t)
            g, truth = generate_sbm(params, seed)
            out = recover(
                "two-phase", g, truth, seed, split_c=1.0, oracle="cheating", oracle_delta=0.1
            )
            successes += out.success
        assert successes >= 17

    def test_no_signal_never_recovers(self):
        params = SbmParams(300, 4, 4)
        exact = 0
        agreements = []
        for t in range(10):
            seed = derive_seed(99, t)
            g, truth = generate_sbm(params, seed)
            out = recover(
                "two-phase", g, truth, seed, split_c=1.0, oracle="cheating", oracle_delta=0.1
            )
            agreements.append(out.agreement)
            exact += out.agreement == 1.0
        assert exact == 0
        assert np.mean(agreements) < 0.95

    @pytest.mark.slow
    def test_agreement_monotone_in_corruption(self):
        # spec quotes C=8 at n=300 (split probability 1.4); run at a valid
        # constant with the same corruption ladder
        params = SbmParams(300, 10, 1)
        means = []
        for delta in (0.0, 0.05, 0.1, 0.2):
            vals = []
            for t in range(30):
                seed = derive_seed(31, t)
                g, truth = generate_sbm(params, seed)
                out = recover(
                    "two-phase", g, truth, seed, split_c=1.5, oracle="cheating", oracle_delta=delta
                )
                vals.append(out.agreement)
            means.append(float(np.mean(vals)))
        noise = 0.02
        assert all(a >= b - noise for a, b in zip(means, means[1:])), means
