import json
import math

import numpy as np
import pytest

from sbmx.harness import (
    CurvePoint,
    PhasePoint,
    boundary_curves,
    format_curves_csv,
    format_phase_csv,
    phase_diagram,
    run_trial,
)
from sbmx.model import SbmParams
from sbmx.seeding import derive_seed, mix64
from sbmx.tails import recovery_threshold


class TestSeeding:
    def test_mix_is_stable(self):
        # frozen splitmix64 finalizer values; a silent change here would
        # invalidate every recorded experiment
        assert mix64(0) == 0
        assert mix64(1) == 6238072747940578789
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0, 1) != derive_seed(42, 1, 0)

    def test_derivation_deterministic(self):
        assert derive_seed(7, 3, 5) == derive_seed(7, 3, 5)


class TestRunTrial:
    def test_records_identical(self):
        params = SbmParams(16, 4, 1)
        r1 = run_trial("ml", params, 5, 3)
        r2 = run_trial("ml", params, 5, 3)
        assert r1 == r2

    def test_ml_trial_fields(self):
        rec = run_trial("ml", SbmParams(16, 4, 1), 11, 0)
        assert rec.method == "ml"
        assert set(rec.diagnostics) == {"min_cut", "optima_count", "unique"}
        assert rec.success == (rec.agreement == 1.0 and rec.diagnostics["unique"])

    def test_certificate_high_signal(self):
        params = SbmParams(300, 30, 1)
        succ = sum(run_trial("certificate", params, 99, t).success for t in range(20))
        assert succ >= 19

    def test_certificate_no_signal(self):
        params = SbmParams(300, 4, 4)
        succ = sum(run_trial("certificate", params, 99, t).success for t in range(20))
        assert succ == 0

    def test_certificate_agreement_is_null(self):
        # the certificate produces no labeling, so there is nothing to agree
        for params in (SbmParams(300, 30, 1), SbmParams(300, 4, 4)):
            rec = run_trial("certificate", params, 99, 0)
            assert rec.agreement is None
            assert json.loads(json.dumps(rec.to_dict()))["agreement"] is None

    def test_two_phase_trial(self):
        rec = run_trial(
            "two-phase",
            SbmParams(100, 8, 1),
            3,
            0,
            split_c=1.0,
            oracle="cheating",
            oracle_delta=0.1,
        )
        assert rec.diagnostics["g1_edges"] + rec.diagnostics["g2_edges"] > 0
        assert rec.diagnostics["oracle_agreement"] == pytest.approx(0.9)

    def test_two_phase_default_split_valid_at_desk_scale(self):
        # the default splitting constant must satisfy c <= log(n) at n = 300
        rec = run_trial("two-phase", SbmParams(300, 10, 1), 3, 0)
        assert rec.method == "two-phase"
        assert 0 < rec.diagnostics["g1_edges"] < rec.diagnostics["g2_edges"]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_trial("guess", SbmParams(16, 4, 1), 0, 0)


class TestPhaseDiagram:
    def test_deterministic_across_workers(self):
        kwargs = dict(trials=4, base_seed=21)
        seq = phase_diagram("certificate", 64, [4, 8], [0, 1], workers=1, **kwargs)
        par = phase_diagram("certificate", 64, [4, 8], [0, 1], workers=2, **kwargs)
        assert seq == par

    def test_row_major_order(self):
        pts = phase_diagram("certificate", 64, [4, 8], [0, 1], trials=2, base_seed=1)
        assert [(p.alpha, p.beta) for p in pts] == [(4, 0), (4, 1), (8, 0), (8, 1)]

    def test_rate_monotone_in_alpha(self):
        pts = phase_diagram("certificate", 100, [2, 8, 16], [1], trials=10, base_seed=5)
        rates = [p.rate for p in pts]
        noise = 2 * math.sqrt(0.25 / 10)
        assert all(b >= a - noise for a, b in zip(rates, rates[1:]))

    def test_certificate_rate_below_solver_rate(self):
        # certificate success is sufficient for the relaxation to recover,
        # not necessary
        for alpha in (6, 10):
            cert = phase_diagram("certificate", 60, [alpha], [1], trials=10, base_seed=3)[0]
            sdp = phase_diagram("sdp", 60, [alpha], [1], trials=10, base_seed=3)[0]
            noise = 2 * math.sqrt(0.25 / 10)
            assert cert.rate <= sdp.rate + noise

    def test_phase_point_validation(self):
        with pytest.raises(ValueError):
            PhasePoint(alpha=1, beta=1, trials=5, successes=7)


class TestCurves:
    def test_red_at_beta_one(self):
        pt = boundary_curves([1.0])[0]
        assert pt.alpha_red == pytest.approx(3 + 2 * math.sqrt(2))

    def test_green_at_beta_one_exactly_thirteen(self):
        pt = boundary_curves([1.0])[0]
        assert pt.alpha_green == pytest.approx(13.0)
        # check the curve equation itself: (13-1)^2 = 8*14 + (8/3)*12
        assert (13 - 1) ** 2 == pytest.approx(8 * 14 + (8 / 3) * 12)

    def test_red_consistent_with_threshold_flag(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            beta = float(rng.uniform(0, 10))
            alpha = float(rng.uniform(beta + 1e-6, 50))
            red = boundary_curves([beta])[0].alpha_red
            verdict = recovery_threshold(alpha, beta)
            if alpha > red + 1e-9:
                assert verdict.recoverable
            elif alpha < red - 1e-9:
                assert not verdict.recoverable

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            boundary_curves([-1.0])


class TestCsv:
    def test_phase_csv_columns(self):
        pts = [PhasePoint(alpha=2.0, beta=1.0, trials=4, successes=2)]
        text = format_phase_csv(pts)
        lines = text.strip().split("\n")
        assert lines[0] == "alpha,beta,trials,successes,rate"
        assert lines[1] == "2.0,1.0,4,2,0.5"

    def test_curves_csv_columns(self):
        text = format_curves_csv([CurvePoint(beta=1.0, alpha_red=5.8, alpha_green=13.0)])
        lines = text.strip().split("\n")
        assert lines[0] == "beta,alpha_red,alpha_green"
        assert lines[1] == "1.0,5.8,13.0"
