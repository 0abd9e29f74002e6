"""Command-line harness: artifacts, determinism, usage errors."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import qnn.cli
from qnn.cli import main
from qnn.network import to_json


def run(tmp_path, *argv):
    out = tmp_path / "runs"
    code = main([*argv, "--out-dir", str(out)])
    run_dirs = sorted(out.iterdir())
    return code, run_dirs[-1] if run_dirs else None


def exit_code(argv):
    """main's return value, or the code of the SystemExit a bad flag raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_report(run_dir: Path) -> dict:
    return json.loads((run_dir / "report.json").read_text())


class TestPoly:
    def test_cubic_factors_and_error(self, tmp_path):
        code, run_dir = run(tmp_path, "poly", "--coeffs", "-1", "1", "-1", "1")
        assert code == 0
        report = read_report(run_dir)
        m = report["metrics"]
        assert m["linear_factors"] == 1
        assert m["quadratic_factors"] == 1
        assert m["max_rel_error"] < 1e-8
        assert m["depth"] <= 2
        assert (run_dir / "factored_form.json").exists()

    def test_degree_zero_is_usage_error(self, tmp_path, capsys):
        """A constant, also one written with a trailing zero, is refused with
        the usage message before any run directory is made."""
        out = tmp_path / "runs"
        for coeffs in (["5"], ["1", "0"]):
            assert exit_code(["poly", "--coeffs", *coeffs, "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: qnn poly ")
            assert "degree 0" in err
            assert not out.exists()

    def test_overflowing_values_are_usage_error(self, tmp_path, capsys):
        """Coefficients whose |p| on the sampled [-2, 2] may pass the float64
        range are refused with the usage message, before any warning or run
        directory; a bound just inside the range runs and exits 0."""
        out = tmp_path / "runs"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for coeffs in (["1", "1e308", "1e308"], ["1e308", "1e308"],
                           ["0", "0", "0", "3e307"]):
                assert exit_code(["poly", "--coeffs", *coeffs, "--out-dir", str(out)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("usage: qnn poly ")
                assert "--coeffs: |p| on [-2, 2] may exceed the float64 range" in err
                assert not out.exists()
            code, run_dir = run(tmp_path, "poly", "--coeffs", "1e308", "3e307")
        assert code == 0
        assert np.isfinite(read_report(run_dir)["metrics"]["max_rel_error"])

    def test_double_root_refusal_names_no_residual(self, tmp_path, capsys):
        """(x + 0.9)^2 is refused before any residual is computed, so the
        message names the discriminant and no NaN residual."""
        code, run_dir = run(tmp_path, "poly", "--coeffs", "0.81", "1.8", "1")
        assert (code, run_dir) == (1, None)
        err = capsys.readouterr().err
        assert "discriminant" in err
        assert "residual" not in err
        assert re.search(r"\bnan\b", err) is None

    def test_report_echoes_config(self, tmp_path):
        code, run_dir = run(tmp_path, "poly", "--coeffs", "1", "2", "1", "--seed", "3")
        assert code == 0
        cfg = read_report(run_dir)["config"]
        assert cfg["coeffs"] == [1.0, 2.0, 1.0]
        assert cfg["seed"] == 3
        assert sorted(cfg) == ["coeffs", "command", "out_dir", "pair_real_roots", "points",
                               "seed"]


class TestRadialDeep:
    def test_partition_and_l1_trend(self, tmp_path):
        code, run_dir = run(tmp_path, "radial-deep", "--grid-n", "801")
        assert code == 0
        partition = (run_dir / "partition.csv").read_text()
        assert f"{np.sqrt(200.0 / 3.0):.12g}" in partition
        assert f"{np.sqrt(400.0 / 3.0):.12g}" in partition
        m = read_report(run_dir)["metrics"]
        steps = [m[f"l1_vs_step_delta_{d:g}"] for d in (0.4, 0.2, 0.1, 0.05)]
        assert all(b <= a for a, b in zip(steps, steps[1:]))
        assert m["module_layers"] == 9
        assert m["outside_support_value"] == 0.0
        # |target - network| has ramp kinks, so the trapezoid gap at this
        # coarse grid is O(h^2), not the smooth-integrand 1e-6
        assert m["oracle_quadrature_gap"] < 0.01

    def test_curve_artifact_shape(self, tmp_path):
        code, run_dir = run(tmp_path, "radial-deep", "--grid-n", "101",
                            "--deltas", "0.1")
        assert code == 0
        lines = (run_dir / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "t,target,network"
        assert len(lines) == 102


class TestRings:
    def test_same_seed_runs_are_identical(self, tmp_path):
        args = ("rings", "--seed", "7", "--iterations", "150", "--restarts", "2",
                "--conv-widths", "2", "--grid-n", "11")
        code1, dir1 = run(tmp_path, *args)
        code2, dir2 = run(tmp_path, *args)
        assert code1 == code2 == 0
        for name in ("accuracy.csv", "boundary.csv"):
            assert (dir1 / name).read_text() == (dir2 / name).read_text()

    def test_diverged_restart_is_passed_over(self, tmp_path, monkeypatch):
        """When the quadratic model's winning restart diverges, its row reads
        an inf loss, another restart is picked and the run still succeeds."""
        argv = ("rings", "--iterations", "150", "--restarts", "3", "--conv-widths", "1",
                "--grid-n", "5")
        code, clean = run(tmp_path / "clean", *argv)
        assert code == 0
        best = (clean / "quadratic_net.json").read_text()
        train_restarts = qnn.cli.train_restarts

        def winner_diverges(net, data, cfg):
            nets, history, final = train_restarts(net, data, cfg)
            for i, trained in enumerate(nets):
                if to_json(trained) == best:
                    nets[i], final[i] = None, np.inf
            return nets, history, final

        monkeypatch.setattr(qnn.cli, "train_restarts", winner_diverges)
        code, patched = run(tmp_path / "patched", *argv)
        assert code == 0
        rows = (patched / "accuracy.csv").read_text().splitlines()
        clean_rows = (clean / "accuracy.csv").read_text().splitlines()
        changed = [i for i, (a, b) in enumerate(zip(rows, clean_rows)) if a != b]
        assert len(rows) == len(clean_rows) == 7 and len(changed) == 1
        model, _, accuracy, loss = rows[changed[0]].split(",")
        assert (model, accuracy, loss) == ("quadratic-1", "nan", "inf")
        assert (patched / "quadratic_net.json").read_text() != best

    def test_svg_artifact(self, tmp_path):
        code, run_dir = run(
            tmp_path, "rings", "--iterations", "100", "--restarts", "1",
            "--conv-widths", "1", "--grid-n", "5", "--svg",
        )
        assert code == 0
        svg = (run_dir / "rings.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg


class TestBernstein:
    def test_linear_target_is_exact_everywhere(self, tmp_path):
        code, run_dir = run(tmp_path, "bernstein", "--target", "identity",
                            "--n-sweep", "2,8,32", "--net-n", "8")
        assert code == 0
        m = read_report(run_dir)["metrics"]
        for n in (2, 8, 32):
            assert m[f"sup_error_n{n}"] < 1e-12
        assert m["net_vs_coeffs_max_rel"] < 1e-8

    def test_square_target_matches_closed_form(self, tmp_path):
        code, run_dir = run(tmp_path, "bernstein", "--target", "square",
                            "--n-sweep", "10", "--net-n", "10", "--grid-n", "501")
        assert code == 0
        m = read_report(run_dir)["metrics"]
        # sup |x(1-x)/10| = 1/40 on [0, 1]
        assert m["sup_error_n10"] == pytest.approx(0.025, abs=1e-12)
        assert m["net_vs_direct_sup"] < 1e-10
        coeffs = json.loads((run_dir / "coefficients.json").read_text())["coeffs"]
        np.testing.assert_allclose(coeffs, [0.0, 0.1, 0.9], atol=1e-13)

    def test_kinked_target_monotone_sweep(self, tmp_path):
        code, run_dir = run(tmp_path, "bernstein", "--target", "absmid",
                            "--n-sweep", "4,8,16", "--net-n", "4")
        assert code == 0
        m = read_report(run_dir)["metrics"]
        sups = [m["sup_error_n4"], m["sup_error_n8"], m["sup_error_n16"]]
        assert sups[0] >= sups[1] >= sups[2]

    def test_coefficients_beyond_float64_refused(self, tmp_path, monkeypatch, capsys):
        """Samples of +-1e307 expand at n=4 past float64: a usage error, exit
        2 and no run directory, not an OverflowError traceback."""
        monkeypatch.setitem(qnn.cli._BERNSTEIN_TARGETS, "square",
                            lambda x: 1e307 if round(4 * x) % 2 == 0 else -1e307)
        out = tmp_path / "runs"
        assert exit_code(["bernstein", "--target", "square", "--n-sweep", "4",
                          "--grid-n", "51", "--net-n", "4", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qnn bernstein ")
        assert "n=4" in err
        assert not out.exists()


class TestWidthSweep:
    def test_zero_width_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["width-sweep", "--widths", "0"])
        assert exc.value.code == 2

    def test_deterministic_csv(self, tmp_path):
        args = ("width-sweep", "--widths", "2", "--dims", "2", "--seeds", "1",
                "--iterations", "30", "--samples", "40", "--restarts", "1")
        code1, dir1 = run(tmp_path, *args)
        code2, dir2 = run(tmp_path, *args)
        assert code1 == code2 == 0
        assert (dir1 / "width_mse.csv").read_text() == (dir2 / "width_mse.csv").read_text()

    def test_width_eight_wins_metric(self, tmp_path):
        """quad_wins_w8_d<dim> counts the seeds where the quadratic net's MSE
        at width 8 is below the conventional one's."""
        code, run_dir = run(tmp_path, "width-sweep", "--widths", "8", "--dims", "2",
                            "--seeds", "3", "--iterations", "200", "--samples", "20",
                            "--learning-rate", "0.2", "--restarts", "1")
        assert code == 0
        rows = [line.split(",") for line in
                (run_dir / "width_mse.csv").read_text().splitlines()[1:]]
        mse = {(seed, kind): float(value) for _, seed, kind, _, value in rows}
        wins = sum(mse[seed, "quadratic"] < mse[seed, "conventional"] for seed in "012")
        assert 0 < wins < 3  # here the count is not a constant
        assert read_report(run_dir)["metrics"] == {"quad_wins_w8_d2": wins}


class TestFactorTrain:
    def test_reduced_run_emits_artifacts(self, tmp_path):
        code, run_dir = run(
            tmp_path, "factor-train", "--iterations", "60", "--restarts", "2",
            "--samples", "40",
        )
        assert code == 0
        m = read_report(run_dir)["metrics"]
        assert np.isfinite(m["mean_abs_error"])
        lines = (run_dir / "loss_history.csv").read_text().strip().splitlines()
        assert len(lines) == 61
        factors = (run_dir / "learned_factors.csv").read_text().strip().splitlines()
        assert len(factors) == 4

    def test_all_restarts_diverging_fails(self, tmp_path):
        code, _ = run(
            tmp_path, "factor-train", "--learning-rate", "1e9",
            "--restarts", "2", "--iterations", "30", "--init-scale", "5.0",
        )
        assert code == 1


# Small but complete runs of every command, each writing all its artifacts.
LIFECYCLE_ARGV = {
    "rings": ["rings", "--iterations", "40", "--restarts", "2", "--conv-widths", "1",
              "--grid-n", "5", "--svg"],
    "radial-deep": ["radial-deep", "--grid-n", "101", "--deltas", "0.3,0.1", "--svg"],
    "poly": ["poly", "--coeffs", "-1", "1", "-1", "1", "--points", "50"],
    "factor-train": ["factor-train", "--iterations", "20", "--restarts", "2",
                     "--samples", "20", "--svg"],
    "bernstein": ["bernstein", "--n-sweep", "4,8", "--net-n", "4", "--grid-n", "51"],
    "width-sweep": ["width-sweep", "--widths", "2", "--dims", "2", "--seeds", "1",
                    "--iterations", "10", "--samples", "20", "--restarts", "1"],
}


class TestRunLifecycle:
    @pytest.mark.parametrize("argv", LIFECYCLE_ARGV.values(), ids=list(LIFECYCLE_ARGV))
    def test_repeat_run_is_identical_and_lists_its_artifacts(self, argv, tmp_path):
        code1, dir1 = run(tmp_path / "first", *argv)
        code2, dir2 = run(tmp_path / "second", *argv)
        assert code1 == code2 == 0
        names = sorted(p.name for p in dir1.iterdir())
        assert names == sorted(p.name for p in dir2.iterdir())
        for name in names:
            if name != "report.json":
                assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes(), name
        report = read_report(dir1)
        assert report["experiment"] == argv[0]
        written = [str(dir1 / name) for name in names if name != "report.json"]
        assert sorted(report["artifacts"]) == written

    @pytest.mark.parametrize("argv, expected, message", [
        (["poly", "--coeffs", "5"], 2, "usage: qnn poly "),
        (["poly", "--coeffs", "0.81", "1.8", "1"], 1, "error: factorization failed: "),
        (["bernstein", "--n-sweep", "4", "--grid-n", "51", "--net-n", "30"], 1,
         "error: factorization failed: "),
        (["factor-train", "--learning-rate", "1e9", "--restarts", "2",
          "--iterations", "30", "--init-scale", "5.0"], 1, "error: all 2 restarts diverged"),
        (["rings", "--learning-rate", "1e12", "--iterations", "20", "--restarts", "1",
          "--conv-widths", "1"], 1, "error: all 1 restarts diverged"),
        (["width-sweep", "--learning-rate", "1e12", "--iterations", "20", "--restarts", "1",
          "--widths", "2", "--dims", "2", "--seeds", "1", "--samples", "20"], 1,
         "error: all 1 restarts diverged"),
    ], ids=["degree-zero-poly", "double-root-poly", "bernstein-refused",
            "factor-train-diverged", "rings-diverged", "width-sweep-diverged"])
    def test_early_exit_leaves_no_run_directory(self, argv, expected, message, tmp_path,
                                                capsys):
        out = tmp_path / "runs"
        assert exit_code([*argv, "--out-dir", str(out)]) == expected
        assert capsys.readouterr().err.startswith(message)
        assert list(out.glob("*")) == []

    def test_raising_command_leaves_no_run_directory(self, tmp_path, monkeypatch):
        def cmd_fails(args, report):
            report.artifact("partial.csv").write_text("n\n")
            raise OverflowError("boom")

        monkeypatch.setattr(qnn.cli, "cmd_poly", cmd_fails)
        out = tmp_path / "runs"
        with pytest.raises(OverflowError, match="boom"):
            main(["poly", "--coeffs", "1", "1", "--out-dir", str(out)])
        assert list(out.iterdir()) == []

    def test_non_finite_metric_exits_one_keeping_the_report(self, tmp_path, monkeypatch,
                                                            capsys):
        def cmd_nan(args, report):
            report.metrics["max_rel_error"] = float("nan")

        monkeypatch.setattr(qnn.cli, "cmd_poly", cmd_nan)
        code, run_dir = run(tmp_path, "poly", "--coeffs", "1", "1")
        assert code == 1
        assert capsys.readouterr().err == "error: non-finite metric in report\n"
        assert np.isnan(read_report(run_dir)["metrics"]["max_rel_error"])


class TestOutputDirectory:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNN_OUT_DIR", str(tmp_path / "from-env"))
        code = main(["poly", "--coeffs", "1", "1"])
        assert code == 0
        assert any((tmp_path / "from-env").iterdir())


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["poly"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["rings", "factor-train", "width-sweep"])
    def test_removed_parallel_restarts_flag_refused(self, command, tmp_path):
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main([command, "--parallel-restarts", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_removed_input_dim_flag_refused(self, tmp_path):
        """radial-deep reads its profile along x = (t, 0), the same curve at
        any input width, so it takes no --input-dim."""
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main(["radial-deep", "--input-dim", "5", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rings", "factor-train", "width-sweep"])
    @pytest.mark.parametrize("flag", ["--restarts", "--iterations"])
    @pytest.mark.parametrize("value", ["0", "-1", "2.5"])
    def test_counts_must_be_positive_integers(self, command, flag, value, tmp_path, capsys):
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["rings", "--r-inner", "3"],
        ["factor-train", "--lo", "1", "--hi", "0"],
    ])
    def test_cross_flag_error_shows_command_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"usage: qnn {argv[0]} " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["width-sweep", "--samples", "0"],
        ["width-sweep", "--dims", "0"],
        ["width-sweep", "--dims", "2,0"],
        ["width-sweep", "--seeds", "0"],
        ["rings", "--n-per-class", "0"],
        ["rings", "--grid-n", "0"],
        ["factor-train", "--samples", "1"],
        ["poly", "--coeffs", "1", "1", "--points", "0"],
        ["bernstein", "--n-sweep", "4,0"],
        ["radial-deep", "--grid-n", "1"],
        ["bernstein", "--grid-n", "0"],
        ["bernstein", "--net-n", "0"],
        ["width-sweep", "--annuli", "-1"],
        ["rings", "--seed", "-1"],
        ["factor-train", "--seed", "-1"],
        ["width-sweep", "--seed", "-1"],
        ["poly", "--coeffs", "1", "1", "--seed", "-1"],
        ["rings", "--noise", "-1"],
        ["rings", "--r-inner", "0"],
        ["rings", "--r-inner", "3"],
        ["rings", "--r-outer", "inf"],
        ["rings", "--learning-rate", "-0.1"],
        ["factor-train", "--learning-rate", "0"],
        ["factor-train", "--learning-rate", "nan"],
        ["factor-train", "--init-scale", "-1"],
        ["factor-train", "--lo", "1", "--hi", "0"],
        ["factor-train", "--lo", "0", "--hi", "0"],
        ["factor-train", "--hi", "inf"],
        ["radial-deep", "--deltas", "0.7"],
        ["radial-deep", "--deltas", "0.2,0"],
        ["radial-deep", "--deltas", "0.5"],
        ["radial-deep", "--deltas", ""],
        ["poly", "--coeffs", "1", "nan"],
        ["width-sweep", "--radius", "0"],
        ["width-sweep", "--learning-rate", "inf"],
        ["poly", "--coeffs", "1", "1", "--svg"],
        ["bernstein", "--svg"],
        ["width-sweep", "--svg"],
        ["radial-deep", "--deltas", "1e-20"],
        ["radial-deep", "--deltas", "0.1,1e-16"],
        ["bernstein", "--n-sweep", "1030"],
        ["bernstein", "--n-sweep", "4,100000000000000000000"],
        ["poly", "--coeffs", "1", "1e308", "1e308"],
    ])
    def test_count_flags_checked_at_parse_time(self, argv, tmp_path, capsys):
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()
