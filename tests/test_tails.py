import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmx.tails import (
    ExponentInputs,
    chernoff_multiplicative_upper,
    diff_binomial_tail,
    dominant_tilt,
    log_dominant_term,
    log_dominant_term_max,
    margin_schedule,
    mislabel_exponent,
    ml_failure_upper_bound,
    node_margin_tail,
    recovery_threshold,
    tail_exponent,
    tilt_objective,
)


def brute_tail(mz, mw, p, q, s):
    """Independent oracle: direct sum over the joint pmf."""
    total = 0.0
    for z in range(mz + 1):
        pz = comb(mz, z) * q**z * (1 - q) ** (mz - z)
        for w in range(mw + 1):
            if z - w >= s:
                total += pz * comb(mw, w) * p**w * (1 - p) ** (mw - w)
    return total


class TestThreshold:
    def test_nine_one(self):
        v = recovery_threshold(9, 1)
        assert v.f_value == pytest.approx(2.0)
        assert v.recoverable and v.connectivity_ok and v.equivalent_form_ok

    def test_equal_rates_never_recoverable(self):
        for a in (0.5, 1, 4, 100):
            v = recovery_threshold(a, a)
            assert v.f_value == pytest.approx(0.0)
            assert not v.recoverable

    def test_five_one(self):
        v = recovery_threshold(5, 1)
        assert v.f_value == pytest.approx(3 - math.sqrt(5))
        assert not v.recoverable

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            recovery_threshold(-1, 0)

    @given(st.floats(0.01, 50), st.floats(0.01, 50))
    @settings(max_examples=200, deadline=None)
    def test_quadratic_form_agrees(self, alpha, beta):
        if abs(alpha - beta) < 1e-6:
            return
        v = recovery_threshold(alpha, beta)
        assert v.recoverable == v.equivalent_form_ok


class TestDiffBinomialTail:
    def test_half_half(self):
        # 4 equiprobable outcomes, 3 of them satisfy Z - W >= 0
        assert diff_binomial_tail(1, 1, 0.5, 0.5, 0).probability == pytest.approx(0.75)

    def test_impossible_threshold(self):
        res = diff_binomial_tail(5, 5, 0.3, 0.2, 6)
        assert res.probability == 0.0
        assert res.log_probability == -np.inf

    def test_two_two_example(self):
        # enumerate: 0.32*0.81 + 0.04*0.99
        res = diff_binomial_tail(2, 2, 0.1, 0.2, 1)
        assert res.probability == pytest.approx(0.2988, abs=1e-12)

    def test_full_support_sums_to_one(self):
        res = diff_binomial_tail(7, 9, 0.37, 0.81, -9)
        assert res.probability == 1.0
        assert res.log_probability == 0.0
        assert res.truncation_error_bound == 0.0

    @given(
        st.integers(0, 12),
        st.integers(0, 12),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(-14, 14),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, mz, mw, p, q, s):
        got = diff_binomial_tail(mz, mw, p, q, s).probability
        assert got == pytest.approx(brute_tail(mz, mw, p, q, s), abs=1e-12)

    def test_non_integer_threshold_ceiled(self):
        exact = diff_binomial_tail(6, 6, 0.3, 0.2, 2)
        assert diff_binomial_tail(6, 6, 0.3, 0.2, 1.2).probability == exact.probability

    def test_monotone_in_s_p_q(self):
        base = [diff_binomial_tail(30, 30, 0.2, 0.1, s).probability for s in range(-5, 8)]
        assert all(a >= b for a, b in zip(base, base[1:]))
        in_p = [diff_binomial_tail(30, 30, p, 0.1, 1).probability for p in np.linspace(0.05, 0.9, 12)]
        assert all(a >= b - 1e-15 for a, b in zip(in_p, in_p[1:]))
        in_q = [diff_binomial_tail(30, 30, 0.4, q, 1).probability for q in np.linspace(0.05, 0.9, 12)]
        assert all(a <= b + 1e-15 for a, b in zip(in_q, in_q[1:]))

    def test_truncated_agrees_with_full(self):
        # force truncation via the limit knob and compare on the same inputs
        cases = [(900, 800, 0.02, 0.01, 2), (500, 700, 0.3, 0.25, -4), (1000, 1000, 0.004, 0.002, 0)]
        for mz, mw, p, q, s in cases:
            full = diff_binomial_tail(mz, mw, p, q, s, full_limit=2000)
            trunc = diff_binomial_tail(mz, mw, p, q, s, full_limit=10)
            assert full.method == "full-convolution"
            assert trunc.method == "truncated-convolution"
            assert abs(full.probability - trunc.probability) <= max(
                trunc.truncation_error_bound, 1e-13 * full.probability
            )

    def test_truncation_error_reported(self):
        res = diff_binomial_tail(5000, 5000, 0.01, 0.005, 3)
        assert res.method == "truncated-convolution"
        assert 0 < res.truncation_error_bound < 1e-14

    @pytest.mark.slow
    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(2024)
        samples = 1_000_000
        z = rng.binomial(50, 0.05, samples)
        w = rng.binomial(50, 0.1, samples)
        for s in (0, 1, 2):
            exact = diff_binomial_tail(50, 50, 0.1, 0.05, s).probability
            hits = np.count_nonzero(z - w >= s)
            rate = hits / samples
            se = math.sqrt(max(rate * (1 - rate), 1e-12) / samples)
            assert abs(exact - rate) <= 4 * se


class TestSchedule:
    def test_requires_sixteen(self):
        with pytest.raises(ValueError):
            margin_schedule(14)

    def test_small_n_values(self):
        sched = margin_schedule(16)
        assert sched.margin == 3
        # literal floor(n/log^3 n) is 0 here; clamped to keep the event meaningful
        assert sched.subset_size == 1

    def test_large_n_floor(self):
        sched = margin_schedule(10_000)
        assert sched.subset_size == int(10_000 // math.log(10_000) ** 3)
        assert sched.margin == math.ceil(math.log(10_000) / math.log(math.log(10_000)))


class TestNodeMarginTail:
    def test_dropping_summands_increases_tail(self):
        n, alpha, beta = 64, 3, 1
        sched = margin_schedule(n)
        p = alpha * math.log(n) / n
        q = beta * math.log(n) / n
        full = diff_binomial_tail(n // 2, n // 2, p, q, sched.margin).probability
        assert node_margin_tail(n, alpha, beta).probability >= full

    def test_frozen_oracle_small(self):
        # brute-force joint sum with mZ=8, mW=7, s=3
        assert node_margin_tail(16, 4, 1).probability == pytest.approx(
            3.9479065726278386e-4, rel=1e-10
        )

    def test_frozen_oracle_n100(self):
        # brute-force joint sum with mZ=50, mW=49, s=4
        assert node_margin_tail(100, 5, 1).probability == pytest.approx(
            3.849999147523426e-5, rel=1e-10
        )


class TestExponents:
    def test_tilt_closed_forms(self):
        assert dominant_tilt(4, 1, 0) == pytest.approx(2.0)
        assert dominant_tilt(4, 1, 3) == pytest.approx(1.0)

    @given(st.floats(0.05, 40), st.floats(0.05, 40), st.floats(-1.5, 6))
    @settings(max_examples=100, deadline=None)
    def test_tilt_stationarity_identity(self, alpha, beta, eps):
        t = dominant_tilt(alpha, beta, eps)
        assert t * (t + eps) == pytest.approx(alpha * beta, rel=1e-12, abs=1e-12)

    def test_exponent_trivial_values(self):
        assert tail_exponent(3, 3, 0) == pytest.approx(0.0)
        assert tail_exponent(9, 1, 0) == pytest.approx(4.0)

    def test_exponent_equals_objective_at_tilt(self):
        g = tail_exponent(4, 1, 0.5)
        h = tilt_objective(4, 1, dominant_tilt(4, 1, 0.5), 0.5)
        assert g == pytest.approx(h, abs=1e-10)

    @given(st.floats(0.1, 30), st.floats(0.1, 30), st.floats(-0.9, 4))
    @settings(max_examples=100, deadline=None)
    def test_exponent_objective_agreement_random(self, alpha, beta, eps):
        tau = dominant_tilt(alpha, beta, eps)
        g = tail_exponent(alpha, beta, eps)
        h = tilt_objective(alpha, beta, tau, eps)
        assert g == pytest.approx(h, rel=1e-10, abs=1e-10)

    @given(st.floats(0.2, 20), st.floats(0.2, 20), st.floats(0.0, 3))
    @settings(max_examples=60, deadline=None)
    def test_objective_stationary_at_tilt(self, alpha, beta, eps):
        tau = dominant_tilt(alpha, beta, eps)
        step = 1e-6 * max(tau, 1.0)
        up = tilt_objective(alpha, beta, tau + step, eps)
        down = tilt_objective(alpha, beta, tau - step, eps)
        deriv = (up - down) / (2 * step)
        assert abs(deriv) < 1e-6 * max(1.0, abs(tail_exponent(alpha, beta, eps)))


class TestDominantTerm:
    def test_zero_count_reduces_to_failure_mass(self):
        m, n = 50, 100
        p = 4 * math.log(n) / n
        q = 1 * math.log(n) / n
        got = log_dominant_term(ExponentInputs(alpha=4, beta=1, epsilon=0, tau=0.0, m=m, n=n))
        assert got == pytest.approx(m * (math.log1p(-p) + math.log1p(-q)), rel=1e-12)

    def test_frozen_small_case(self):
        # direct gamma-ratio product at m=8, n=16, tau=1, eps=0
        got = log_dominant_term(ExponentInputs(alpha=4, beta=1, epsilon=0, tau=1.0, m=8, n=16))
        assert got == pytest.approx(-6.729909193690889, rel=1e-12)

    def test_rejects_count_above_m(self):
        with pytest.raises(ValueError):
            log_dominant_term(ExponentInputs(alpha=4, beta=1, epsilon=0, tau=50.0, m=8, n=16))

    def test_objective_is_minimized_at_tilt(self):
        # The limiting objective is exactly stationary at the closed-form tilt.
        # The finite-size term itself peaks slightly off tau* (its Stirling
        # correction shifts the argmax), which is what the refinement grid in
        # log_dominant_term_max absorbs; see test_max_dominates_neighbor_tilts.
        center = dominant_tilt(4, 1, 0)
        at = {tau: tilt_objective(4, 1, tau, 0) for tau in (center - 0.1, center, center + 0.1)}
        assert at[center] <= at[center - 0.1]
        assert at[center] <= at[center + 0.1]

    def test_max_dominates_neighbor_tilts(self):
        best = log_dominant_term_max(5000, 10_000, 4, 1, 0)
        for tau in (dominant_tilt(4, 1, 0) - 0.1, dominant_tilt(4, 1, 0) + 0.1):
            val = log_dominant_term(ExponentInputs(alpha=4, beta=1, epsilon=0, tau=tau, m=5000, n=10_000))
            assert best >= val

    def test_max_bounds_integer_grid(self):
        # exhaustive max over integer counts at m=8, n=16 (frozen oracle)
        integer_best = -5.165679704030184
        got = log_dominant_term_max(8, 16, 4, 1, 0)
        assert got >= integer_best
        assert got == pytest.approx(-5.159238575231043, rel=1e-10)

    def test_one_sided_sandwich_and_monotone_approach(self):
        # The rigorous direction: -log T* >= (m/n) log(n) * g - o(.), and the
        # normalized ratio decreases toward g as n grows. The two-sided
        # 15 percent window does not hold at these sizes: the measured ratios
        # are 1.881, 1.743, 1.645 at n = 1e4, 1e5, 1e6 (the Stirling prefactor
        # of the binomials is still comparable to (m/n) log n here).
        g = tail_exponent(4, 1, 0)
        ratios = []
        for n in (10_000, 100_000, 1_000_000):
            m = n // 2
            val = -log_dominant_term_max(m, n, 4, 1, 0) / ((m / n) * math.log(n))
            ratios.append(val)
        for ratio in ratios:
            assert ratio >= 0.85 * g
        assert ratios[0] > ratios[1] > ratios[2] > g


class TestMlFailureBound:
    def test_frozen_small_case(self):
        # independent double-loop oracle
        assert ml_failure_upper_bound(16, 4, 1) == pytest.approx(
            0.24380661824187533, rel=1e-10
        )

    def test_zero_cross_rate_gives_zero_bound(self):
        # p = 1 exactly and beta = 0: cross edges can never outnumber within
        n = 16
        alpha = n / math.log(n)
        assert ml_failure_upper_bound(n, alpha, 0) == 0.0

    def test_monotone_in_alpha(self):
        # spec quotes alpha=6 at n=16, but 6*log(16) > 16 makes p > 1; use
        # feasible alphas instead, the bound decreases in alpha
        b3 = ml_failure_upper_bound(16, 3, 1)
        b4 = ml_failure_upper_bound(16, 4, 1)
        b5 = ml_failure_upper_bound(16, 5, 1)
        assert b5 <= b4 <= b3

    def test_rejects_infeasible_alpha(self):
        with pytest.raises(ValueError):
            ml_failure_upper_bound(16, 8, 1)


class TestScalarBounds:
    def test_chernoff_at_one(self):
        assert chernoff_multiplicative_upper(3.7, 1.0) == pytest.approx(1.0)

    def test_chernoff_at_e(self):
        assert chernoff_multiplicative_upper(1.0, math.e) == pytest.approx(math.exp(-1))

    def test_chernoff_at_two(self):
        assert chernoff_multiplicative_upper(1.0, 2.0) == pytest.approx(math.e / 4)

    def test_chernoff_rejects_t_below_one(self):
        with pytest.raises(ValueError):
            chernoff_multiplicative_upper(1.0, 0.5)


class TestMislabelExponent:
    def test_continuity_to_twice_threshold(self):
        # Convergence is 1/sqrt(log(1/delta))-slow: at delta=1e-6 the value is
        # still 18 percent below the limit, so the 5 percent window is only
        # reached far smaller. Check monotone approach plus the window where
        # it genuinely holds.
        target = tail_exponent(4, 1, 0)
        ladder = [mislabel_exponent(4, 1, dc) for dc in (1e-6, 1e-30, 1e-90, 1e-250)]
        assert all(a < b < target for a, b in zip(ladder, ladder[1:]))
        assert abs(ladder[-1] - target) / target < 0.05

    def test_frozen_value(self):
        # gamma then the closed-form exponent, composed independently
        assert mislabel_exponent(4, 1, 0.1) == pytest.approx(0.5973739219594698, rel=1e-12)

    def test_negative_argument_lowers_exponent(self):
        assert mislabel_exponent(4, 1, 0.1) < tail_exponent(4, 1, 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            mislabel_exponent(4, 1, 0.0)
        with pytest.raises(ValueError):
            mislabel_exponent(4, 1, 1.0)
