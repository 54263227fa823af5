import json
import math

import numpy as np
import pytest

import sbmx.harness
from sbmx.cli import main
from sbmx.harness import run_trial
from sbmx.model import SbmParams, parse_graph, parse_labeling


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_writes_files_and_summary(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        lpath = tmp_path / "l.txt"
        code, out, _ = run_cli(
            capsys,
            "gen", "--n", "16", "--alpha", "4", "--beta", "1", "--seed", "7",
            "--graph-out", str(gpath), "--labels-out", str(lpath),
        )
        assert code == 0
        summary = json.loads(out)
        g = parse_graph(gpath.read_text())
        labels = parse_labeling(lpath.read_text())
        assert g.n == 16 and summary["edges"] == g.m
        assert labels.sum() == 0

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "gen", "--n", "16", "--alpha", "8", "--beta", "1", "--seed", "7",
            "--graph-out", str(tmp_path / "g"), "--labels-out", str(tmp_path / "l"),
        )
        assert code == 2
        assert "exceeds 1" in err


@pytest.fixture
def planted_files(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    lpath = tmp_path / "l.txt"
    main([
        "gen", "--n", "20", "--alpha", "5", "--beta", "0.5", "--seed", "3",
        "--graph-out", str(gpath), "--labels-out", str(lpath),
    ])
    capsys.readouterr()
    return gpath, lpath


class TestRecover:
    @pytest.mark.parametrize("method", ["ml", "sdp", "certificate"])
    def test_methods_emit_trial_record(self, planted_files, capsys, method):
        gpath, lpath = planted_files
        code, out, _ = run_cli(
            capsys,
            "recover", "--method", method, "--graph", str(gpath), "--labels", str(lpath),
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == method
        assert rec["n"] == 20
        assert isinstance(rec["success"], bool)

    def test_two_phase_cheating(self, planted_files, capsys):
        gpath, lpath = planted_files
        code, out, _ = run_cli(
            capsys,
            "recover", "--method", "two-phase", "--graph", str(gpath),
            "--labels", str(lpath), "--split-c", "1.0",
            "--oracle", "cheating", "--delta", "0.1", "--seed", "5",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["agreement"] is not None
        assert len(rec["labeling"]) == 20

    def test_two_phase_default_split_at_n300(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        lpath = tmp_path / "l.txt"
        main([
            "gen", "--n", "300", "--alpha", "10", "--beta", "1", "--seed", "3",
            "--graph-out", str(gpath), "--labels-out", str(lpath),
        ])
        capsys.readouterr()
        code, out, err = run_cli(
            capsys,
            "recover", "--method", "two-phase", "--graph", str(gpath), "--labels", str(lpath),
        )
        assert code == 0, err
        rec = json.loads(out)
        assert rec["agreement"] is not None
        assert len(rec["labeling"]) == 300

    def test_without_labels_agreement_is_null(self, planted_files, capsys):
        gpath, _ = planted_files
        code, out, _ = run_cli(capsys, "recover", "--method", "ml", "--graph", str(gpath))
        assert code == 0
        rec = json.loads(out)
        assert rec["agreement"] is None and rec["success"] is None

    def test_certificate_agreement_is_null(self, planted_files, capsys):
        gpath, lpath = planted_files
        code, out, _ = run_cli(
            capsys,
            "recover", "--method", "certificate", "--graph", str(gpath), "--labels", str(lpath),
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["agreement"] is None
        assert isinstance(rec["success"], bool)

    def test_spectral_nonconvergence_exit_3(self, planted_files, capsys, monkeypatch):
        import scipy.sparse.linalg
        from scipy.sparse.linalg import ArpackNoConvergence

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        gpath, lpath = planted_files
        code, _, err = run_cli(
            capsys,
            "recover", "--method", "two-phase", "--graph", str(gpath),
            "--labels", str(lpath), "--split-c", "2.0",
        )
        assert code == 3
        assert "ARPACK" in err

    def test_two_phase_split_above_log_n_exit_2(self, planted_files, capsys):
        # c = 4 > log(20): a configuration error, not a failed trial
        gpath, lpath = planted_files
        code, _, err = run_cli(
            capsys,
            "recover", "--method", "two-phase", "--graph", str(gpath),
            "--labels", str(lpath), "--split-c", "4",
        )
        assert code == 2
        assert "exceeds 1" in err

    def test_two_phase_empty_graph_fails_without_labeling(self, tmp_path, capsys):
        gpath, lpath = tmp_path / "g.txt", tmp_path / "l.txt"
        main([
            "gen", "--n", "20", "--alpha", "0", "--beta", "0", "--seed", "1",
            "--graph-out", str(gpath), "--labels-out", str(lpath),
        ])
        capsys.readouterr()
        code, out, err = run_cli(
            capsys,
            "recover", "--method", "two-phase", "--graph", str(gpath), "--labels", str(lpath),
        )
        assert code == 0, err
        rec = json.loads(out)
        assert rec["success"] is False and rec["agreement"] is None
        assert "labeling" not in rec
        assert "nonempty" in rec["diagnostics"]["oracle_failure"]

    def test_certificate_needs_labels(self, planted_files, capsys):
        gpath, _ = planted_files
        code, _, err = run_cli(capsys, "recover", "--method", "certificate", "--graph", str(gpath))
        assert code == 2
        assert "labels" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "recover", "--method", "ml", "--graph", "/nonexistent")
        assert code == 2


class TestReplay:
    """`sbmx gen` then `sbmx recover` at a trial's seed reproduce `run_trial`."""

    @pytest.mark.parametrize(
        "method, params, kwargs, options",
        [
            ("ml", SbmParams(16, 4, 1), {}, []),
            ("sdp", SbmParams(60, 12, 1), {}, []),
            ("certificate", SbmParams(60, 12, 1), {}, []),
            ("two-phase", SbmParams(300, 20, 2), {"oracle": "spectral"}, ["--oracle", "spectral"]),
            (
                "two-phase",
                SbmParams(300, 10, 1),
                {"oracle": "cheating", "oracle_delta": 0.1},
                ["--oracle", "cheating", "--delta", "0.1"],
            ),
        ],
        ids=["ml", "sdp", "certificate", "two-phase-spectral", "two-phase-cheating"],
    )
    def test_recover_replays_trial(self, tmp_path, capsys, method, params, kwargs, options):
        rec = json.loads(json.dumps(run_trial(method, params, 77, 4, **kwargs).to_dict()))
        gpath, lpath = tmp_path / "g.txt", tmp_path / "l.txt"
        main([
            "gen", "--n", str(params.n), "--alpha", str(params.alpha), "--beta", str(params.beta),
            "--seed", str(rec["seed"]), "--graph-out", str(gpath), "--labels-out", str(lpath),
        ])
        capsys.readouterr()
        code, out, err = run_cli(
            capsys,
            "recover", "--method", method, "--graph", str(gpath), "--labels", str(lpath),
            "--seed", str(rec["seed"]), *options,
        )
        assert code == 0, err
        replay = json.loads(out)
        for key in ("success", "agreement", "diagnostics"):
            assert replay[key] == rec[key], key

    def test_recover_runs_the_harness_path_once(self, planted_files, capsys, monkeypatch):
        calls = {"split_graph": 0, "sdp_solve": 0}

        def counting(name):
            original = getattr(sbmx.harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(sbmx.harness, name, counting(name))
        gpath, lpath = planted_files
        for method in ("two-phase", "sdp"):
            code, _, err = run_cli(
                capsys, "recover", "--method", method, "--graph", str(gpath), "--labels", str(lpath)
            )
            assert code == 0, err
        assert calls == {"split_graph": 1, "sdp_solve": 1}


class TestTail:
    def test_exact_tail_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "tail", "--mz", "2", "--mw", "2", "--p", "0.1", "--q", "0.2", "--s", "1"
        )
        assert code == 0
        res = json.loads(out)
        assert res["probability"] == pytest.approx(0.2988)
        assert res["method"] == "full-convolution"

    def test_exponent_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tail", "--exponent", "--alpha", "4", "--beta", "1", "--eps", "0",
            "--m", "5000", "--n", "10000",
        )
        assert code == 0
        res = json.loads(out)
        assert res["tail_exponent"] == pytest.approx(1.0)
        assert res["dominant_tilt"] == pytest.approx(2.0)
        assert res["validated_regime"] is True

    def test_missing_args_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "tail", "--mz", "2")
        assert code == 2


class TestThresholdCmd:
    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--alpha", "9", "--beta", "1")
        assert code == 0
        res = json.loads(out)
        assert res["f_value"] == pytest.approx(2.0)
        assert res["recoverable"] is True


class TestEventsCmd:
    def test_rates_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "events", "--n", "16", "--alpha", "4", "--beta", "1",
            "--trials", "50", "--seed", "2",
        )
        assert code == 0
        res = json.loads(out)
        assert res["trials"] == 50
        assert res["implication_violations"] == 0
        assert 0.0 <= res["majority_failure_rate"] <= 1.0
        assert res["schedule_fallback"] is False


class TestSweeps:
    def test_phase_csv(self, tmp_path, capsys):
        out_path = tmp_path / "phase.csv"
        code, out, _ = run_cli(
            capsys,
            "phase", "--method", "certificate", "--n", "64",
            "--alpha", "4:8:4", "--beta", "0:1:1",
            "--trials", "2", "--seed", "9", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "alpha,beta,trials,successes,rate"
        assert len(lines) == 5  # 2 alphas x 2 betas

    def test_two_phase_no_signal_cell_counts_as_failures(self, tmp_path, capsys):
        # alpha = beta = 0 leaves G1 empty: those trials fail, the sweep goes on
        out_path = tmp_path / "p.csv"
        code, _, err = run_cli(
            capsys,
            "phase", "--method", "two-phase", "--n", "20",
            "--alpha", "0:4:2", "--beta", "0:0:1",
            "--trials", "5", "--seed", "1", "--out", str(out_path),
        )
        assert code == 0, err
        rows = out_path.read_text().strip().split("\n")[1:]
        assert len(rows) == 3
        assert rows[0] == "0.0,0.0,5,0,0.0"

    def test_curves_csv(self, tmp_path, capsys):
        out_path = tmp_path / "curves.csv"
        code, _, _ = run_cli(capsys, "curves", "--beta", "0:10:1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "beta,alpha_red,alpha_green"
        assert len(lines) == 12
        beta1 = lines[2].split(",")
        assert float(beta1[1]) == pytest.approx(3 + 2 * math.sqrt(2))
        assert float(beta1[2]) == pytest.approx(13.0)

    def test_bad_range_exit_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "curves", "--beta", "0:10", "--out", str(tmp_path / "c.csv")
        )
        assert code == 2
