import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmx.model import Graph, SbmParams, agreement, generate_sbm
from sbmx.sdp import (
    ConvergenceError,
    SdpConfig,
    certificate_check,
    certificate_matrix,
    expected_certificate_matrix,
    round_solution,
    sbm_laplacian,
    sdp_solve,
    signed_adjacency,
    smallest_eigenvalues,
)
from sbmx.seeding import derive_seed

TWO_CLIQUES = Graph(4, [(0, 1), (2, 3)])
K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
TRUTH4 = np.array([1, 1, -1, -1], dtype=np.int8)


class TestSignedAdjacency:
    def test_empty_two(self):
        b = signed_adjacency(Graph(2, np.empty((0, 2))))
        assert np.array_equal(b, [[0, -1], [-1, 0]])

    def test_single_edge(self):
        b = signed_adjacency(Graph(2, [(0, 1)]))
        assert np.array_equal(b, [[0, 1], [1, 0]])

    def test_quadratic_form_value(self):
        b = signed_adjacency(TWO_CLIQUES)
        assert TRUTH4 @ b @ TRUTH4 == pytest.approx(12.0)


class TestLaplacian:
    @given(st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_annihilates_truth_exactly(self, seed):
        g, truth = generate_sbm(SbmParams(20, 3, 1), seed)
        lap = sbm_laplacian(g, truth)
        assert lap.dtype == np.int64
        assert np.array_equal(lap @ truth.astype(np.int64), np.zeros(20, dtype=np.int64))

    def test_empty_graph_zero(self):
        lap = sbm_laplacian(Graph(4, np.empty((0, 2))), TRUTH4)
        assert not lap.any()

    def test_disjoint_cliques_block_structure(self):
        lap = sbm_laplacian(TWO_CLIQUES, TRUTH4)
        block = np.array([[1, -1], [-1, 1]])
        assert np.array_equal(lap[:2, :2], block)
        assert np.array_equal(lap[2:, 2:], block)
        assert not lap[:2, 2:].any()

    def test_trace_identity(self):
        # Tr(B t t^T) = Tr(2(D+ - D-) + I), exact in integers
        for seed in range(10):
            g, truth = generate_sbm(SbmParams(16, 4, 1), seed)
            b = signed_adjacency(g)
            lhs = float(truth @ b @ truth)
            lap = sbm_laplacian(g, truth)
            rhs = float(2 * np.trace(np.diag(np.diag(lap))) + g.n)
            assert lhs == rhs


class TestCertificate:
    def test_two_cliques_certified(self):
        rep = certificate_check(TWO_CLIQUES, TRUTH4)
        assert rep.certified
        assert rep.lambda_2 == pytest.approx(4.0, abs=1e-8)
        assert rep.lambda_min == pytest.approx(0.0, abs=1e-8)
        assert rep.g_residual == 0.0
        vals = np.linalg.eigvalsh(certificate_matrix(TWO_CLIQUES, TRUTH4).astype(float))
        assert vals == pytest.approx([0, 4, 4, 4], abs=1e-8)

    def test_k4_not_certified(self):
        rep = certificate_check(K4, TRUTH4)
        assert not rep.certified
        assert rep.lambda_min == pytest.approx(-4.0, abs=1e-8)

    def test_empty_graph_gap_fails(self):
        rep = certificate_check(Graph(4, np.empty((0, 2))), TRUTH4)
        assert not rep.certified
        assert rep.lambda_min >= -1e-8
        assert rep.lambda_2 == pytest.approx(0.0, abs=1e-8)

    def test_residual_always_zero(self):
        for seed in range(5):
            g, truth = generate_sbm(SbmParams(30, 3, 1), seed)
            assert certificate_check(g, truth).g_residual == 0.0

    def test_unbalanced_truth_rejected(self):
        with pytest.raises(ValueError):
            certificate_check(K4, np.array([1, 1, 1, -1], dtype=np.int8))


def _two_cliques(n: int) -> Graph:
    half = n // 2
    iu, ju = np.triu_indices(n, k=1)
    same = (iu < half) == (ju < half)
    return Graph(n, np.column_stack((iu[same], ju[same])))


def _complete(n: int) -> Graph:
    return Graph(n, np.column_stack(np.triu_indices(n, k=1)))


def _sorted_truth(n: int) -> np.ndarray:
    return np.repeat(np.array([1, -1], dtype=np.int8), n // 2)


def _certificate_cases():
    # n = 2 is below the size at which ARPACK can return two eigenvalues
    for n in (2, 4, 40):
        truth = _sorted_truth(n)
        yield f"empty-{n}", Graph(n, np.empty((0, 2))), truth
        yield f"cliques-{n}", _two_cliques(n), truth
        yield f"complete-{n}", _complete(n), truth
    for n, a, b, seeds in [
        (40, 5, 5, range(3)),  # alpha = beta: no signal
        (300, 6, 6, range(2)),
        (300, 4, 1, range(3)),  # below the threshold, f = 0.5
        (300, 12, 5, range(3)),  # below, f = 0.75
        (300, 10, 2, range(3)),  # above, f = 1.53
        (300, 20, 2, range(3)),  # above, f = 4.68
    ]:
        for seed in seeds:
            g, truth = generate_sbm(SbmParams(n, a, b), derive_seed(2718, seed))
            yield f"sbm-{n}-{a}-{b}-{seed}", g, truth


CERT_CASES = list(_certificate_cases())


class TestCertificateMatchesDense:
    """certificate_check against a dense eigvalsh of the formed matrix."""

    @pytest.mark.parametrize(
        "g,truth", [c[1:] for c in CERT_CASES], ids=[c[0] for c in CERT_CASES]
    )
    def test_verdict_and_spectrum(self, g, truth):
        mat = certificate_matrix(g, truth).astype(np.float64)
        vals = np.linalg.eigvalsh(mat)
        fro = float(np.linalg.norm(mat))
        rep = certificate_check(g, truth)
        assert rep.g_residual == 0.0
        assert rep.certified == (vals[0] >= -1e-8 * fro and vals[1] > 1e-6 * fro)
        assert abs(rep.lambda_min - vals[0]) <= 1e-9 * fro
        assert abs(rep.lambda_2 - vals[1]) <= 1e-9 * fro

    def test_certified_outcomes_both_occur(self):
        verdicts = {certificate_check(g, t).certified for _, g, t in CERT_CASES}
        assert verdicts == {True, False}

    def test_no_dense_matrix_above_fallback(self):
        g, truth = generate_sbm(SbmParams(2000, 20, 2), 1)
        tracemalloc.start()
        try:
            certificate_check(g, truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense n x n matrix of 8-byte entries would be 32 MB
        assert peak < g.n * g.n * 8 / 2


class TestExpectedCertificate:
    def test_closed_form_spectrum(self):
        params = SbmParams(100, 5, 1)
        vals = np.sort(np.linalg.eigvalsh(expected_certificate_matrix(params)))
        log_n = math.log(100)
        assert vals[0] == pytest.approx(0.0, abs=1e-8)
        assert vals[-1] == pytest.approx(100 - 2 * log_n, abs=1e-8)
        assert vals[-1] == pytest.approx(90.78966, abs=1e-4)
        middle = vals[1:-1]
        assert np.allclose(middle, (5 - 1) * log_n, atol=1e-8)
        assert middle[0] == pytest.approx(18.42068, abs=1e-4)

    def test_eigenvectors(self):
        params = SbmParams(20, 5, 1)
        mat = expected_certificate_matrix(params)
        ones = np.ones(20)
        truth = np.concatenate([np.ones(10), -np.ones(10)])
        assert np.allclose(mat @ ones, (20 - 2 * math.log(20)) * ones)
        assert np.allclose(mat @ truth, 0.0)

    def test_equal_rates_kill_the_gap(self):
        params = SbmParams(20, 3, 3)
        vals = np.sort(np.linalg.eigvalsh(expected_certificate_matrix(params)))
        assert abs(vals[1]) < 1e-8

    @pytest.mark.slow
    def test_matches_monte_carlo_mean(self):
        # entrywise expectation of the certificate matrix over fresh samples
        params = SbmParams(20, 4, 1)
        trials = 10_000
        acc = np.zeros((20, 20))
        truth = np.concatenate([np.ones(10, dtype=np.int8), -np.ones(10, dtype=np.int8)])
        for t in range(trials):
            rng = np.random.Generator(np.random.PCG64(derive_seed(5150, t)))
            iu, ju = np.triu_indices(20, k=1)
            same = truth[iu] == truth[ju]
            keep = rng.random(iu.size) < np.where(same, params.p, params.q)
            g = Graph(20, np.column_stack((iu[keep], ju[keep])))
            acc += certificate_matrix(g, truth)
        mean = acc / trials
        expected = expected_certificate_matrix(params)
        # per-entry standard error: entries are affine in Bernoulli draws
        # (diagonal entries sum ~n of them); bound all by the diagonal scale
        worst_se = math.sqrt(4 * 19 * 0.25 / trials)
        assert np.max(np.abs(mean - expected)) < 4 * worst_se


class TestSmallestEigenvalues:
    def test_identity_multiplicity(self):
        res = smallest_eigenvalues(np.eye(6), 2)
        assert res.values == pytest.approx([1.0, 1.0])

    def test_diagonal(self):
        res = smallest_eigenvalues(np.diag([-3.0, 0.0, 5.0]), 2)
        assert res.values == pytest.approx([-3.0, 0.0], abs=1e-9)

    def test_expected_certificate_spectrum(self):
        params = SbmParams(20, 5, 1)
        mat = expected_certificate_matrix(params)
        res = smallest_eigenvalues(mat, 3)
        expected = [0.0, 4 * math.log(20), 4 * math.log(20)]
        assert res.values == pytest.approx(expected, abs=1e-7)

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 40))
        a = a + a.T
        res = smallest_eigenvalues(a, 3, tol=1e-9)
        fro = np.linalg.norm(a)
        for val, vec, r in zip(res.values, res.vectors.T, res.residuals):
            assert np.linalg.norm(a @ vec - val * vec) <= 1e-9 * fro
            assert r <= 1e-9 * fro

    @given(st.integers(0, 2**16), st.integers(4, 50))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = a + a.T
        k = min(3, n)
        got = smallest_eigenvalues(a, k).values
        want = np.sort(np.linalg.eigvalsh(a))[:k]
        assert got == pytest.approx(want, abs=1e-7 * max(1.0, np.linalg.norm(a)))

    def test_degenerate_repeated_bottom(self):
        # double zero at the bottom must be reported twice, not skipped
        mat = np.diag([0.0, 0.0, 5.0, 7.0])
        res = smallest_eigenvalues(mat, 3)
        assert res.values == pytest.approx([0.0, 0.0, 5.0], abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            smallest_eigenvalues(np.ones((3, 2)), 1)
        with pytest.raises(ValueError):
            smallest_eigenvalues(np.eye(3), 4)
        with pytest.raises(ValueError):
            smallest_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


class TestSolver:
    def test_two_cliques_exact(self):
        sol = sdp_solve(signed_adjacency(TWO_CLIQUES))
        assert sol.objective == pytest.approx(12.0, rel=1e-6)
        assert agreement(sol.rounded, TRUTH4) == 1.0
        assert sol.rounds_used == 5

    def test_factor_rows_unit_norm(self):
        g, _ = generate_sbm(SbmParams(30, 4, 1), 2)
        sol = sdp_solve(signed_adjacency(g))
        norms = np.linalg.norm(sol.factor, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_objective_nonnegative(self):
        # the identity is feasible with objective zero; ascent must match it
        for seed in range(4):
            g, _ = generate_sbm(SbmParams(20, 2, 2), seed)
            sol = sdp_solve(signed_adjacency(g), SdpConfig(seed=seed))
            assert sol.objective >= -1e-9

    def test_deterministic(self):
        g, _ = generate_sbm(SbmParams(24, 4, 1), 9)
        s1 = sdp_solve(signed_adjacency(g), SdpConfig(seed=4))
        s2 = sdp_solve(signed_adjacency(g), SdpConfig(seed=4))
        assert s1.objective == s2.objective
        assert np.array_equal(s1.rounded, s2.rounded)

    def test_certified_instances_recovered(self):
        for seed in range(8):
            g, truth = generate_sbm(SbmParams(40, 8, 0.5), derive_seed(12, seed))
            if certificate_check(g, truth).certified:
                sol = sdp_solve(signed_adjacency(g), SdpConfig(seed=seed))
                assert agreement(sol.rounded, truth) == 1.0

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            sdp_solve(np.eye(4))


class TestRounding:
    def test_exact_outer_product(self):
        x = np.outer(TRUTH4, TRUTH4).astype(float)
        assert agreement(round_solution(x), TRUTH4) == 1.0

    def test_perturbed_outer_product(self):
        rng = np.random.default_rng(8)
        noise = rng.standard_normal((4, 4))
        noise = 0.01 * (noise + noise.T)
        w, v = np.linalg.eigh(np.outer(TRUTH4, TRUTH4) + noise)
        x = v @ np.diag(np.clip(w, 0.0, None)) @ v.T
        assert agreement(round_solution(x), TRUTH4) == 1.0

    def test_unbalanced_leader_flips_smallest(self):
        # 4 positive entries out of 6: one flip, at the smallest coordinate
        # (asserted up to the eigensolver's arbitrary global sign)
        u = np.array([0.9, 0.8, 0.3, 0.2, -0.9, -0.8])
        rounded = round_solution(np.outer(u, u))
        assert rounded.sum() == 0
        assert agreement(rounded, np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)) == 1.0

    def test_two_flips_with_index_tiebreak(self):
        # 5 positive entries out of 6: two flips; |0.2| ties break by index
        u = np.array([0.9, 0.5, 0.2, 0.2, 0.1, -0.9])
        rounded = round_solution(np.outer(u, u))
        assert rounded.sum() == 0
        assert agreement(rounded, np.array([1, 1, -1, 1, -1, -1], dtype=np.int8)) == 1.0

    def test_single_flip_case(self):
        u = np.array([0.9, 0.5, 0.4, -0.9])
        rounded = round_solution(np.outer(u, u))
        assert rounded.sum() == 0
        assert np.array_equal(rounded, [1, 1, -1, -1])

    def test_degenerate_zero_matrix(self):
        with pytest.raises(ConvergenceError):
            round_solution(np.zeros((4, 4)))
