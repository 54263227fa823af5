import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmx.model import (
    Graph,
    SbmParams,
    agreement,
    count_edges_between,
    cut_size,
    degree_split,
    generate_sbm,
    is_balanced,
    parse_graph,
    parse_labeling,
    write_graph,
    write_labeling,
)

PATH4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
TWO_EDGES = Graph(4, [(0, 1), (2, 3)])


class TestSbmParams:
    def test_p_q_derivation(self):
        params = SbmParams(300, 6, 0.1)
        assert params.p == pytest.approx(6 * math.log(300) / 300)
        assert params.q == pytest.approx(0.1 * math.log(300) / 300)

    def test_rejects_odd_or_small_n(self):
        with pytest.raises(ValueError):
            SbmParams(5, 1, 1)
        with pytest.raises(ValueError):
            SbmParams(2, 1, 1)

    def test_rejects_probability_above_one(self):
        # alpha*log(n) > n must be a hard error, not a clamp
        with pytest.raises(ValueError):
            SbmParams(16, 8, 1)
        with pytest.raises(ValueError):
            SbmParams(16, 1, 8)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            SbmParams(16, -1, 1)


class TestGenerate:
    def test_zero_rates_give_empty_graph(self):
        g, labels = generate_sbm(SbmParams(4, 0, 0), seed=123)
        assert g.m == 0
        assert is_balanced(labels)

    def test_unit_rates_give_complete_graph(self):
        # alpha = beta = n/log(n) makes p = q = 1
        a = 4 / math.log(4)
        g, _ = generate_sbm(SbmParams(4, a, a), seed=5)
        assert g.m == 6

    def test_deterministic_in_params_and_seed(self):
        params = SbmParams(100, 5, 1)
        g1, l1 = generate_sbm(params, 99)
        g2, l2 = generate_sbm(params, 99)
        assert g1 == g2
        assert np.array_equal(l1, l2)
        assert write_graph(g1) == write_graph(g2)

    def test_different_seeds_differ(self):
        params = SbmParams(100, 5, 1)
        g1, _ = generate_sbm(params, 1)
        g2, _ = generate_sbm(params, 2)
        assert g1 != g2

    def test_labeling_always_balanced(self):
        params = SbmParams(50, 3, 1)
        for seed in range(20):
            _, labels = generate_sbm(params, seed)
            assert is_balanced(labels)

    @pytest.mark.slow
    def test_within_edge_count_matches_binomial_mean(self):
        # Monte Carlo against the binomial mean: 2*C(150,2)*p within-pairs
        params = SbmParams(300, 6, 0.1)
        trials = 10_000
        pairs_within = 2 * math.comb(150, 2)
        mean = pairs_within * params.p
        var = pairs_within * params.p * (1 - params.p)
        counts = np.empty(trials)
        for t in range(trials):
            g, labels = generate_sbm(params, t)
            u, v = g.edges[:, 0], g.edges[:, 1]
            counts[t] = np.count_nonzero(labels[u] == labels[v])
        se = math.sqrt(var / trials)
        assert abs(counts.mean() - mean) < 3 * se


class TestAgreement:
    def test_identity_and_flip(self):
        x = np.array([1, 1, -1, -1], dtype=np.int8)
        assert agreement(x, x) == 1.0
        assert agreement(x, -x) == 1.0

    def test_half_match(self):
        x = np.array([1, 1, -1, -1], dtype=np.int8)
        y = np.array([1, -1, 1, -1], dtype=np.int8)
        assert agreement(x, y) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            agreement([1, -1], [1, -1, 1, -1])

    @given(st.integers(0, 2**16), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_flip_invariant(self, s1, s2):
        rng1 = np.random.default_rng(s1)
        n = 8
        x = rng1.choice([-1, 1], size=n).astype(np.int8)
        y = np.random.default_rng(s2).choice([-1, 1], size=n).astype(np.int8)
        a = agreement(x, y)
        assert a == agreement(y, x) == agreement(-x, y) == agreement(x, -y)


class TestCounting:
    def test_empty_set(self):
        assert count_edges_between(PATH4, [], [0, 1, 2, 3]) == 0

    def test_path_cut(self):
        assert count_edges_between(PATH4, [0, 1], [2, 3]) == 1

    def test_k4_cut(self):
        assert count_edges_between(K4, [0, 1], [2, 3]) == 4

    def test_overlap_counts_once(self):
        assert count_edges_between(K4, [0, 1, 2], [1, 2, 3]) == 6

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            count_edges_between(PATH4, [0, 9], [1])

    def test_cut_size_examples(self):
        x = np.array([1, 1, -1, -1], dtype=np.int8)
        assert cut_size(TWO_EDGES, x) == 0
        assert cut_size(K4, x) == 4
        assert cut_size(PATH4, x) == 1

    def test_cut_size_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            cut_size(PATH4, np.array([1, 1, 1, -1], dtype=np.int8))

    @given(st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_edge_partition_identity(self, seed):
        g, labels = generate_sbm(SbmParams(20, 2, 1), seed)
        plus = np.flatnonzero(labels == 1)
        minus = np.flatnonzero(labels == -1)
        cross = count_edges_between(g, plus, minus)
        within_plus = count_edges_between(g, plus, plus)
        within_minus = count_edges_between(g, minus, minus)
        assert cross + within_plus + within_minus == g.m
        assert cross == cut_size(g, labels) == cut_size(g, -labels)

    @given(st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_degree_split_matches_loop(self, seed):
        g, labels = generate_sbm(SbmParams(20, 4, 2), seed)
        within = np.zeros(g.n, dtype=np.int64)
        cross = np.zeros(g.n, dtype=np.int64)
        for u, v in g.edges:
            side = within if labels[u] == labels[v] else cross
            side[u] += 1
            side[v] += 1
        got_within, got_cross = degree_split(g, labels)
        assert np.array_equal(got_within, within)
        assert np.array_equal(got_cross, cross)

    def test_degree_split_empty_graph(self):
        within, cross = degree_split(Graph(4, np.empty((0, 2))), np.array([1, -1, 1, -1]))
        assert within.tolist() == [0, 0, 0, 0] and cross.tolist() == [0, 0, 0, 0]


class TestSerialization:
    def test_empty_graph_roundtrip(self):
        g = Graph(4, np.empty((0, 2)))
        text = write_graph(g)
        assert text == "4 0\n"
        assert parse_graph(text) == g

    def test_two_edge_format(self):
        assert write_graph(TWO_EDGES) == "4 2\n0 1\n2 3\n"
        assert parse_graph("4 2\n0 1\n2 3\n") == TWO_EDGES

    @pytest.mark.parametrize(
        "text",
        [
            "4 1\n3 3\n",  # self-loop
            "4 2\n0 1\n0 1\n",  # duplicate
            "4 1\n0 4\n",  # out of range
            "4\n",  # malformed header
            "4 2\n0 1\n",  # edge count mismatch
            "4 1\nx y\n",  # non-numeric
            "4 1\n1 0\n",  # not u < v
            "",
        ],
    )
    def test_parse_rejects_invalid(self, text):
        with pytest.raises(ValueError):
            parse_graph(text)

    @given(st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random(self, seed):
        g, labels = generate_sbm(SbmParams(30, 3, 1), seed)
        assert parse_graph(write_graph(g)) == g
        assert np.array_equal(parse_labeling(write_labeling(labels)), labels)

    def test_labeling_format(self):
        labels = np.array([1, -1], dtype=np.int8)
        assert write_labeling(labels) == "+1\n-1\n"
        with pytest.raises(ValueError):
            parse_labeling("+1\n0\n")


def _loop_csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference neighbor index: one pass over the sorted edges, per edge."""
    deg = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    nbrs = np.empty(int(indptr[-1]), dtype=np.int64)
    cursor = indptr[:-1].copy()
    for u, v in edges:
        nbrs[cursor[u]] = v
        cursor[u] += 1
        nbrs[cursor[v]] = u
        cursor[v] += 1
    return indptr, nbrs


@st.composite
def _edge_sets(draw):
    n = draw(st.integers(1, 30))
    iu, ju = np.triu_indices(n, k=1)
    keep = np.array(draw(st.lists(st.booleans(), min_size=iu.size, max_size=iu.size)), dtype=bool)
    edges = np.column_stack((iu[keep], ju[keep]))
    order = draw(st.permutations(range(edges.shape[0])))
    return n, edges[list(order)].reshape(-1, 2)


class TestGraphStructure:
    @given(_edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_csr_matches_loop_reference(self, case):
        n, edges = case
        g = Graph(n, edges)
        indptr, nbrs = _loop_csr(n, g.edges)
        assert g._indptr.dtype == indptr.dtype and g._nbrs.dtype == nbrs.dtype
        assert g._indptr.tobytes() == indptr.tobytes()
        assert g._nbrs.tobytes() == nbrs.tobytes()

    def test_csr_matches_loop_reference_on_sbm(self):
        for seed in range(3):
            g, _ = generate_sbm(SbmParams(300, 20, 2), seed)
            indptr, nbrs = _loop_csr(g.n, g.edges)
            assert g._indptr.tobytes() == indptr.tobytes()
            assert g._nbrs.tobytes() == nbrs.tobytes()

    def test_neighbors_sorted_consistent(self):
        g = Graph(5, [(0, 2), (0, 1), (2, 4)])
        assert sorted(g.neighbors(2).tolist()) == [0, 4]
        assert g.neighbors(3).size == 0
        assert g.degrees().tolist() == [2, 1, 2, 0, 1]

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (0, 1)])

    def test_edges_are_immutable(self):
        with pytest.raises(ValueError):
            K4.edges[0, 0] = 9
