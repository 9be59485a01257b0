"""End-to-end tests of the command line interface (in-process)."""

import math
from dataclasses import fields
from pathlib import Path

import pytest

from klpriv import cli, estimator
from klpriv.accountant import KLConstant, gradient_norm_constant_B, kl_bound_linearized
from klpriv.cli import RunConfig, load_config_file, main
from klpriv.data import save_csv, synth_sphere
from klpriv.network import NetArch, init_betas
from klpriv.numerics import RngStream


GOLDEN = Path(__file__).resolve().parent / "golden"


def _read_table(path):
    """Parse an output file into (header dict, column names, row lists)."""
    header, columns, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line.lstrip("# ").partition("=")
            header[key] = val
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


def _metric_map(rows):
    """(scheme, metric) -> float value for bound/lazy style tables."""
    out = {}
    for row in rows:
        if len(row) == 3:
            out[(row[0], row[1])] = float(row[2])
        else:
            out[row[0]] = float(row[1])
    return out


class TestBound:
    def test_reference_values(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["bound", "--scheme", "lecun", "--d", "10", "--width", "100",
                   "--depth", "3", "--outputs", "1", "--time", "1.0", "--n", "100",
                   "--sigma2", "0.01", "--out", str(out)])
        assert rc == 0
        header, columns, rows = _read_table(out)
        assert columns == ["scheme", "metric", "value"]
        vals = _metric_map(rows)
        assert vals[("lecun", "B")] == pytest.approx(52.5, rel=1e-12)
        assert vals[("lecun", "table_B")] == pytest.approx(52.5, rel=1e-12)
        assert vals[("lecun", "kl_bound_linearized")] == pytest.approx(1.05, rel=1e-12)
        assert vals[("lecun", "dp_delta")] == pytest.approx(math.sqrt(1.05 / 2.0), rel=1e-12)
        assert header["klpriv-version"]
        assert header["scheme"] == "lecun"
        assert header["time"] == "1.0"

    def test_zero_horizon(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["bound", "--scheme", "he", "--time", "0", "--n", "10",
                   "--out", str(out)])
        assert rc == 0
        vals = _metric_map(_read_table(out)[2])
        assert vals[("he", "kl_bound_linearized")] == 0.0
        assert vals[("he", "dp_delta")] == 0.0

    def test_all_schemes(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["bound", "--scheme", "all", "--n", "16", "--out", str(out)])
        assert rc == 0
        schemes = {row[0] for row in _read_table(out)[2]}
        assert schemes == {"lecun", "he", "ntk", "xavier"}

    def test_stdout_when_no_out(self, capsys):
        rc = main(["bound", "--scheme", "ntk", "--n", "8"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "kl_bound_linearized" in text
        assert text.startswith("# klpriv-version=")

    def test_moment_rows_with_x_sqnorm(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["bound", "--scheme", "he", "--d", "10", "--width", "100",
                   "--depth", "3", "--n", "16", "--x-sqnorm", "10.0",
                   "--out", str(out)])
        assert rc == 0
        vals = _metric_map(_read_table(out)[2])
        # at ||x||^2 = d the gradient moment equals B
        assert vals[("he", "expected_grad_norm_init")] == pytest.approx(
            vals[("he", "B")], rel=1e-12)
        assert vals[("he", "expected_output_sqnorm_init")] > 0

    def test_drift_rows_with_smoothness(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["bound", "--scheme", "lecun", "--n", "32", "--time", "0.5",
                   "--beta-smooth", "0.1", "--out", str(out)])
        assert rc == 0
        vals = _metric_map(_read_table(out)[2])
        for metric in ("kl_bound_dnn", "dnn_integral", "dnn_term_init_difference",
                       "dnn_term_fluctuation", "dnn_term_non_smoothness",
                       "dnn_exponential_regime"):
            assert ("lecun", metric) in vals
        assert vals[("lecun", "dnn_exponential_regime")] == 0.0
        assert vals[("lecun", "kl_bound_dnn")] >= vals[("lecun", "dnn_term_init_difference")] / (2 * 0.01)

    def test_invalid_arch_exits_2(self, capsys):
        assert main(["bound", "--depth", "1", "--n", "8"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_data_requires_n(self, capsys, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,label\n1.0,1\n2.0,-1\n")
        assert main(["bound", "--data", f"csv:{p}"]) == 2


_FAST_ESTIMATE = ["--data", "synth:6", "--width", "6", "--depth", "2",
                  "--d", "4", "--steps", "4", "--runs", "2", "--eta", "0.05",
                  "--sigma2", "0.02"]


class TestEstimate:
    def test_zero_steps_single_row(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["estimate", "--data", "synth:6", "--width", "6", "--depth", "2",
                   "--d", "4", "--steps", "0", "--runs", "1", "--out", str(out)])
        assert rc == 0
        _, columns, rows = _read_table(out)
        assert columns == ["epochs", "kl_means", "kl_stds", "diverged"]
        assert len(rows) == 1
        assert rows[0] == ["0", "0.0", "0.0", "0"]

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "e.csv"
        argv = ["estimate", *_FAST_ESTIMATE, "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_embedded_config_reproduces_file(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["estimate", *_FAST_ESTIMATE, "--out", str(out)]) == 0
        original = out.read_bytes()
        # the output file itself is a valid --config
        assert main(["estimate", "--config", str(out)]) == 0
        assert out.read_bytes() == original
        # so is the stripped header on its own
        cfg_file = tmp_path / "run.cfg"
        cfg_lines = [line.lstrip("# ") for line in original.decode().splitlines()
                     if line.startswith("#")]
        cfg_file.write_text("\n".join(cfg_lines) + "\n")
        out.unlink()
        assert main(["estimate", "--config", str(cfg_file)]) == 0
        assert out.read_bytes() == original

    def test_neighbor_detail_file(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["estimate", *_FAST_ESTIMATE, "--out", str(out)]) == 0
        _, columns, rows = _read_table(str(out) + ".neighbors.csv")
        assert columns == ["run", "neighbor", "kl_final"]
        assert len(rows) == 2 * 6        # runs x remove-one neighbors

    def test_kl_overflow_is_not_divergence(self, tmp_path):
        # eta / (2 * 1e-320) overflows: every KL is inf, yet no run diverged
        out = tmp_path / "e.csv"
        assert main(["estimate", *_FAST_ESTIMATE, "--sigma2", "1e-320", "--out", str(out)]) == 0
        _, _, rows = _read_table(out)
        assert [r[3] for r in rows] == ["0"] * 5
        assert [r[1] for r in rows[1:]] == ["inf"] * 4

    def test_exact_constant_halves_kl_exactly(self, tmp_path):
        # the constant scales each step's charge, not the trajectory
        paper, exact = tmp_path / "p.csv", tmp_path / "x.csv"
        assert main(["estimate", *_FAST_ESTIMATE, "--out", str(paper)]) == 0
        assert main(["estimate", *_FAST_ESTIMATE, "--kl-constant", "exact",
                     "--out", str(exact)]) == 0
        rows, halved = _read_table(paper)[2], _read_table(exact)[2]
        assert [(r[0], r[3]) for r in halved] == [(r[0], r[3]) for r in rows]
        for row, hrow in zip(rows, halved):
            assert [float(v) for v in hrow[1:3]] == [float(v) / 2.0 for v in row[1:3]]
        rows = _read_table(str(paper) + ".neighbors.csv")[2]
        halved = _read_table(str(exact) + ".neighbors.csv")[2]
        assert [r[:2] for r in halved] == [r[:2] for r in rows]
        assert [float(r[2]) for r in halved] == [float(r[2]) / 2.0 for r in rows]

    def test_config_key_of_no_flag_is_ignored(self, tmp_path):
        # older artifacts set replay_sigma2, which no command takes any more
        cfg, out = tmp_path / "c.cfg", tmp_path / "e.csv"
        cfg.write_text("replay_sigma2=0.04\n")
        assert main(["estimate", "--config", str(cfg), *_FAST_ESTIMATE, "--out", str(out)]) == 0
        assert _read_table(out)[0]["replay_sigma2"] == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "e.csv",
                                                              "e.csv.neighbors.csv"]

    def test_divergence_exit_code(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["estimate", "--data", "synth:4", "--width", "8", "--depth", "2",
                   "--d", "4", "--steps", "3", "--runs", "1", "--eta", "1e8",
                   "--sigma2", "0.01", "--out", str(out)])
        assert rc == 3
        _, _, rows = _read_table(out)
        assert rows[-1][3] == "1"
        assert rows[-1][1] == "inf"

    def test_linearized_training_path(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["estimate", *_FAST_ESTIMATE, "--linearize", "--out", str(out)])
        assert rc == 0
        _, _, rows = _read_table(out)
        assert float(rows[-1][1]) > 0.0

    def test_all_schemes_rejected(self):
        assert main(["estimate", *_FAST_ESTIMATE, "--scheme", "all"]) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["feature", "label"])
    def test_non_finite_csv_cell_exits_2(self, tmp_path, capsys, cell, column):
        rows = [["0.5", "1.0", "1"], ["1.0", "-0.5", "-1"], ["2.0", "0.5", "1"],
                ["-1.0", "1.5", "-1"], ["0.5", "-2.0", "1"]]
        rows[2][0 if column == "feature" else 2] = cell
        p = tmp_path / "f.csv"
        p.write_text("x0,x1,label\n" + "".join(",".join(r) + "\n" for r in rows))
        out = tmp_path / "e.csv"
        rc = main(["estimate", "--data", f"csv:{p}", "--d", "2", "--width", "4",
                   "--depth", "2", "--steps", "3", "--runs", "1", "--out", str(out)])
        assert rc == 2
        assert "non-finite cell in row 4" in capsys.readouterr().err
        assert not out.exists()

    def test_label_width_error_names_both_widths(self, tmp_path, capsys):
        # three label values load as 3-class one-hot rows; --outputs stays 1
        p = tmp_path / "c.csv"
        p.write_text("x0,x1,label\n" + "".join(f"{k % 4 - 1.5},{k % 3 + 0.5},{k % 3}\n"
                                               for k in range(12)))
        out = tmp_path / "e.csv"
        rc = main(["estimate", "--data", f"csv:{p}", "--d", "2", "--width", "4",
                   "--depth", "2", "--steps", "1", "--runs", "1", "--out", str(out)])
        assert rc == 2
        assert ("error: label width does not match the architecture: the labels have "
                "3 columns, the network 1 outputs") in capsys.readouterr().err
        assert not out.exists()

    def test_add_neighbor_uses_pool(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["estimate", *_FAST_ESTIMATE, "--neighbor", "add",
                   "--pool-size", "3", "--out", str(out)])
        assert rc == 0
        _, _, rows = _read_table(str(out) + ".neighbors.csv")
        assert len(rows) == 2 * 3


    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    def test_capped_neighbor_set_is_reported(self, tmp_path, capsys, command):
        # 6 records x 3 pool records: a cap of 10 keeps 10 of the 18 pairs
        argv = [command, "--data", "synth:6", "--d", "4", "--scheme", "he",
                "--steps", "1", "--runs", "1", "--neighbor", "replace", "--pool-size", "3",
                "--seed", "5"]
        argv += (["--width", "6", "--depth", "2"] if command == "estimate"
                 else ["--metric", "empirical", "--widths", "6,8", "--depths", "2"])
        capped = [line for line in self._stderr_lines(capsys, [*argv, "--cap", "10"], tmp_path)
                  if "replace-one pairs" in line]
        cells = [6] if command == "estimate" else [6, 8]
        assert capped == [f"[{command}] scheme=he width={m} depth=2: kept 10 of 18 "
                          f"replace-one pairs (cap 10, cap seed 5)" for m in cells]
        uncapped = self._stderr_lines(capsys, [*argv, "--cap", "18"], tmp_path)
        assert not any("replace-one pairs" in line for line in uncapped)

    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    def test_each_run_that_left_is_reported(self, tmp_path, capsys, command):
        # the golden estimate-diverged-mixed and sweep-diverged cases: in the
        # first, run 0 completes 5 of 8 steps and run 1 only 2; in the second,
        # both runs of the width-32 cell complete 3 of 5 steps
        common = ["--data", "synth:6", "--d", "4", "--runs", "2", "--record-every", "2"]
        if command == "estimate":
            argv = ["estimate", *common, "--width", "6", "--depth", "4", "--steps", "8",
                    "--eta", "1e3", "--sigma2", "1"]
            cell, left = "scheme=lecun width=6 depth=4", [(0, 6), (1, 3)]
        else:
            argv = ["sweep", *common, "--metric", "both", "--scheme", "he", "--widths", "4,32",
                    "--depths", "3", "--steps", "5", "--eta", "100", "--sigma2", "1"]
            cell, left = "scheme=he width=32 depth=3", [(0, 4), (1, 4)]
        lines = self._stderr_lines(capsys, argv, tmp_path, exit_code=3)
        assert [line for line in lines if " left at step " in line] == [
            f"[{command}] {cell}: run {r} left at step {k} (gradient norm above the threshold)"
            for r, k in left]

    @staticmethod
    def _stderr_lines(capsys, argv, tmp_path, exit_code=0):
        assert main([*argv, "--out", str(tmp_path / "e.csv")]) == exit_code
        return capsys.readouterr().err.splitlines()

class TestMcVerify:
    def test_small_reference_passes(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = main(["mc-verify", "--scheme", "all", "--d", "4", "--width", "8",
                   "--depth", "2", "--samples", "300", "--mc-n", "8",
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().err
        assert "[mc-verify]" in printed and "FAIL" not in printed
        _, columns, rows = _read_table(out)
        assert columns == ["scheme", "check", "mean", "stderr", "samples",
                           "reference", "z", "violation"]
        assert len(rows) == 4 * 3
        assert all(row[7] == "0" for row in rows)
        zs = [abs(float(row[6])) for row in rows if row[1] != "linearized_grad_diff"]
        assert max(zs) <= 4.0

    def test_stdout_round_trips_through_config(self, tmp_path, capsys):
        argv = ["mc-verify", "--scheme", "he", "--d", "4", "--width", "8",
                "--depth", "2", "--samples", "50", "--mc-n", "8"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert first.startswith("# klpriv-version=")
        cfg = tmp_path / "m.csv"
        cfg.write_text(first)
        assert main(["mc-verify", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == first

    def test_multi_output_drops_grad_diff_check(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["mc-verify", "--scheme", "ntk", "--d", "4", "--width", "8",
                   "--depth", "2", "--outputs", "3", "--samples", "200",
                   "--out", str(out)])
        assert rc == 0
        _, _, rows = _read_table(out)
        assert {row[1] for row in rows} == {"grad_norm_init", "output_sqnorm_init"}

    def test_largest_seed(self, tmp_path):
        # the second record is drawn at seed + 1, which wraps to 0 here
        out = tmp_path / "m.csv"
        assert main(["mc-verify", "--seed", str(2**64 - 1), "--scheme", "he", "--d", "4",
                     "--width", "4", "--depth", "2", "--samples", "2", "--out", str(out)]) == 0
        assert [row[1] for row in _read_table(out)[2]] == [
            "grad_norm_init", "output_sqnorm_init", "linearized_grad_diff"]

    @pytest.mark.parametrize("seed, second", [(7, 8), (2**64 - 1, 0)])
    def test_second_record_seed(self, monkeypatch, capsys, seed, second):
        # every seed below the largest keeps the second record it drew before
        seeds, draw = [], cli._sphere_input

        def recording(d, s):
            seeds.append(s)
            return draw(d, s)

        monkeypatch.setattr("klpriv.cli._sphere_input", recording)
        assert main(["mc-verify", "--seed", str(seed), "--scheme", "he", "--d", "4",
                     "--width", "4", "--depth", "2", "--samples", "2"]) == 0
        capsys.readouterr()
        assert seeds == [seed, second]

    @pytest.mark.parametrize("outputs", [1, 3])
    def test_forked_checks_write_the_in_process_bytes(self, tmp_path, capfd, cpus, forks,
                                                       outputs):
        argv = ["mc-verify", "--scheme", "all", "--d", "4", "--width", "6", "--depth", "3",
                "--outputs", str(outputs), "--samples", "30", "--seed", "5"]
        outs, out = [], tmp_path / "m.csv"
        for count in (1, 2):
            cpus(count)
            assert main([*argv, "--out", str(out)]) == 0
            outs.append((out.read_bytes(), capfd.readouterr()))
        assert len(forks) == 1
        (here, printed), (forked, forked_printed) = outs
        assert forked == here
        assert forked_printed == printed
        lines = printed.err.splitlines()
        assert len(lines) == 4 * (3 if outputs == 1 else 2)
        assert all(line.startswith("[mc-verify] ") for line in lines)

    def test_check_error_in_a_worker_exits_2(self, monkeypatch, capsys, cpus, forks):
        cpus(2)

        def failing(*args):
            raise ValueError("output check failed")

        # the second check of the list runs in the worker
        monkeypatch.setattr(cli, "mc_output_sqnorm", failing)
        assert main(["mc-verify", "--scheme", "he", "--d", "4", "--width", "4",
                     "--depth", "2", "--samples", "2"]) == 2
        assert capsys.readouterr().err == "error: output check failed\n"
        assert len(forks) == 1


class TestLazy:
    def test_interpolator_report(self, tmp_path):
        out = tmp_path / "l.csv"
        rc = main(["lazy", "--data", "synth:8", "--d", "16", "--width", "32",
                   "--depth", "2", "--steps", "0", "--ridge", "0",
                   "--out", str(out)])
        assert rc == 0
        vals = _metric_map(_read_table(out)[2])
        assert vals["rank_M0"] == 8
        assert vals["lambda_min"] > 0
        assert vals["R"] > 0
        assert vals["achieved_loss"] == pytest.approx(math.log(1 + 1 / 64), rel=1e-9)
        assert vals["loss_target"] == pytest.approx(1 / 64)
        assert vals["below_target"] == 1
        assert vals["alpha_gap"] == vals["achieved_loss"]
        assert vals["ridge_used"] == 0.0

    def test_training_rows(self, tmp_path):
        out = tmp_path / "l.csv"
        rc = main(["lazy", "--data", "synth:8", "--d", "16", "--width", "32",
                   "--depth", "2", "--steps", "50", "--eta", "0.05",
                   "--sigma2", "1e-4", "--ridge", "0", "--out", str(out)])
        assert rc == 0
        vals = _metric_map(_read_table(out)[2])
        for key in ("averaged_iterate_loss", "excess_vs_interpolator", "risk_bound"):
            assert key in vals and math.isfinite(vals[key])
        assert vals["risk_bound"] > 0

    def test_multi_output_rejected(self):
        assert main(["lazy", "--data", "synth:8", "--outputs", "2"]) == 2

    @pytest.mark.parametrize("config", ["", "neighbor=add\npool_size=3\n"])
    def test_csv_trains_on_every_record(self, tmp_path, config):
        # lazy has no neighbors: no notion or pool size holds records out
        path, cfg, out = tmp_path / "d.csv", tmp_path / "c.cfg", tmp_path / "l.csv"
        save_csv(synth_sphere(6, 3, RngStream(2)), path)
        cfg.write_text(config)
        assert main(["lazy", "--config", str(cfg), "--data", f"csv:{path}", "--width", "16",
                     "--depth", "2", "--steps", "0", "--out", str(out)]) == 0
        header, _, rows = _read_table(out)
        assert _metric_map(rows)["loss_target"] == 1 / 6 ** 2
        # keys of fields lazy does not take are ignored; the header lists them at their defaults
        assert (header["neighbor"], header["pool_size"]) == ("remove", "8")

    # lazy builds the data's features; estimate builds the data's and the pool's
    @pytest.mark.parametrize("argv, builder, builds", [
        (["lazy", "--ridge", "0"], cli, 1),
        (["estimate", "--linearize", "--runs", "2", "--neighbor", "add", "--pool-size", "3"],
         estimator, 2),
    ], ids=["lazy", "estimate-linearize"])
    def test_training_keeps_the_expansion_point(self, tmp_path, monkeypatch, argv, builder,
                                                builds):
        drawn, built = [], []

        def sample_init(*args):
            W0 = cli_sample_init(*args)
            drawn.append((W0, W0.flat.copy()))
            return W0

        def build_features(W0, X):
            features = real_build_features(W0, X)
            built.append((features, features.W0.flat.copy()))
            return features

        cli_sample_init, real_build_features = cli.sample_init, builder.build_features
        monkeypatch.setattr(cli, "sample_init", sample_init)
        monkeypatch.setattr(builder, "build_features", build_features)
        rc = main([*argv, "--data", "synth:8", "--d", "6", "--width", "8", "--depth", "2",
                   "--steps", "5", "--eta", "0.05", "--sigma2", "1e-3",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        assert len(drawn) == 1 and len(built) == builds
        W0, before = drawn[0]
        assert W0.flat.tobytes() == before.tobytes()
        for features, at_build in built:
            assert features.W0.flat.tobytes() == at_build.tobytes() == before.tobytes()


class TestSweep:
    def test_grid_of_one_single_row(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--scheme", "lecun", "--widths", "8", "--depths", "2",
                   "--steps", "0", "--d", "4", "--n", "8", "--out", str(out)])
        assert rc == 0
        _, columns, rows = _read_table(out)
        assert columns == ["scheme", "width", "depth", "epoch", "metric", "value"]
        assert rows == [["lecun", "8", "2", "0", "kl_bound", "0.0"]]

    def test_analytic_bound_decreases_with_depth_lecun(self, tmp_path):
        # at m = d the constant scales like L / 2^(L-1), falling from L = 2 on
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--scheme", "lecun", "--d", "8", "--widths", "8",
                   "--depths", "2,3,4", "--steps", "10", "--record-every", "10",
                   "--n", "16", "--out", str(out)])
        assert rc == 0
        _, _, rows = _read_table(out)
        finals = {int(r[2]): float(r[5]) for r in rows if r[3] == "10"}
        assert finals[2] > finals[3] > finals[4]

    def test_bound_increases_with_width_all_schemes(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--scheme", "all", "--d", "8", "--widths", "8,32",
                   "--depths", "3", "--steps", "10", "--record-every", "10",
                   "--n", "16", "--out", str(out)])
        assert rc == 0
        _, _, rows = _read_table(out)
        for scheme in ("lecun", "he", "ntk", "xavier"):
            by_width = {int(r[1]): float(r[5])
                        for r in rows if r[0] == scheme and r[3] == "10"}
            assert by_width[8] < by_width[32]

    def test_empirical_metric(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--metric", "empirical", "--scheme", "he",
                   "--widths", "6", "--depths", "2", "--d", "4",
                   "--data", "synth:6", "--steps", "3", "--runs", "2",
                   "--eta", "0.05", "--sigma2", "0.02", "--out", str(out)])
        assert rc == 0
        _, _, rows = _read_table(out)
        metrics = {r[4] for r in rows}
        assert metrics == {"kl_mean", "kl_std"}
        finals = [float(r[5]) for r in rows if r[4] == "kl_mean" and r[3] == "3"]
        assert finals and finals[0] > 0

    @pytest.mark.parametrize("argv, message", [
        (["--metric", "empirical", "--data", "synth:1", "--widths", "6,8"],
         "remove-one needs at least two records"),
        (["--metric", "both", "--data", f"csv:{GOLDEN / 'multiclass.csv'}",
          "--neighbor", "replace", "--pool-size", "3", "--widths", "4"],
         "label width does not match the architecture: the labels have 3 columns, "
         "the network 1 outputs"),
    ], ids=["remove-one-of-one-record", "three-classes-one-output"])
    def test_setup_error_exits_2_and_writes_nothing(self, tmp_path, capsys, argv, message):
        # every cell fails alike: the sweep exits as estimate does, with no table
        out = tmp_path / "s.csv"
        rc = main(["sweep", *argv, "--depths", "2", "--steps", "1", "--runs", "1",
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("widths, depths, bad", [
        ("0", "1,3", "got width 0"),
        ("8,-2", "2", "got width -2"),
        ("8", "3,1", "got depth 1"),
    ])
    @pytest.mark.parametrize("metric", ["analytic", "empirical"])
    def test_bad_grid_exits_before_any_cell(self, tmp_path, capsys, widths, depths, bad,
                                            metric):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--metric", metric, "--widths", widths, "--depths", depths,
                   "--d", "4", "--data", "synth:8", "--steps", "1", "--runs", "1",
                   "--out", str(out)])
        assert rc == 2
        assert bad in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _bounds(path, d, n, steps):
        """The kl_bound rows of a one-cell lecun sweep at width 8, depth 2, and
        the bound they should hold for a d-dimensional problem of n records."""
        _, _, rows = _read_table(path)
        got = [float(r[5]) for r in rows if r[4] == "kl_bound"]
        arch = NetArch.uniform(d, 8, 2, 1)
        B = gradient_norm_constant_B(arch, init_betas("lecun", arch))
        want = [kl_bound_linearized(B, 0.01 * k, n, 0.01, KLConstant.PAPER) if k else 0.0
                for k in range(steps + 1)]
        return got, want

    def test_analytic_rows_bound_the_synthetic_data_trained_on(self, tmp_path, capsys):
        argv = ["sweep", "--metric", "both", "--data", "synth:32", "--widths", "8",
                "--depths", "2", "--steps", "1", "--runs", "1"]
        # a bound for 100 records would read below the estimate on 32
        assert main([*argv, "--n", "100"]) == 2
        captured = capsys.readouterr()
        assert "error: --n 100 differs from the 32 records the sweep trains on" in captured.err
        assert captured.out == ""
        for extra in ([], ["--n", "32"]):
            out = tmp_path / "s.csv"
            assert main([*argv, *extra, "--out", str(out)]) == 0
            got, want = self._bounds(out, 16, 32, 1)
            assert got == want

    @pytest.mark.parametrize("command", ["estimate", "lazy", "sweep"])
    def test_header_records_the_d_of_the_csv_trained_on(self, tmp_path, command):
        # 5 features under --d 16: the header says d=5, and a rerun from it
        # writes the same bytes
        path = tmp_path / "five.csv"
        save_csv(synth_sphere(12, 5, RngStream(3)), path)
        argv = {"estimate": ["--width", "4", "--depth", "2", "--runs", "1"],
                "lazy": ["--width", "16", "--depth", "2"],
                "sweep": ["--metric", "empirical", "--widths", "4", "--depths", "2",
                          "--runs", "1"]}[command]
        out = tmp_path / "o.csv"
        assert main([command, "--data", f"csv:{path}", "--d", "16", "--steps", "2", *argv,
                     "--out", str(out)]) == 0
        header, _, _ = _read_table(out)
        assert header["d"] == "5"
        original = out.read_bytes()
        assert main([command, "--config", str(out)]) == 0
        assert out.read_bytes() == original

    @pytest.mark.parametrize("neighbor, n", [("remove", 12), ("replace", 9)])
    def test_analytic_rows_bound_the_csv_data_trained_on(self, tmp_path, neighbor, n):
        # 5 features under the default --d 16; replace-one holds out a pool of 3
        path = tmp_path / "five.csv"
        save_csv(synth_sphere(12, 5, RngStream(3)), path)
        argv = ["sweep", "--metric", "both", "--data", f"csv:{path}", "--widths", "8",
                "--depths", "2", "--steps", "2", "--runs", "1", "--neighbor", neighbor,
                "--pool-size", "3"]
        for extra in ([], ["--n", str(n)]):
            out = tmp_path / "s.csv"
            assert main([*argv, *extra, "--out", str(out)]) == 0
            got, want = self._bounds(out, 5, n, 2)
            assert got == want
        assert main([*argv, "--n", "12" if n != 12 else "9"]) == 2

    def test_bad_grid_exits_2(self):
        assert main(["sweep", "--widths", "a,b", "--n", "8"]) == 2


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("eta=0.5\nsteps=0\nn=8\nscheme=ntk\n")
        out = tmp_path / "b.csv"
        rc = main(["bound", "--config", str(cfg), "--eta", "0.25",
                   "--out", str(out)])
        assert rc == 0
        header, _, rows = _read_table(out)
        assert header["eta"] == "0.25"
        assert header["steps"] == "0"
        assert rows[0][0] == "ntk"

    def test_hyphen_keys_accepted(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("record-every=2\npool-size=4\n")
        loaded = load_config_file(str(cfg))
        assert loaded == {"record_every": 2, "pool_size": 4}

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\n\nwidth=32\nklpriv_version=9.9\ncommand=bound\n")
        assert load_config_file(str(cfg)) == {"width": 32}

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("not_a_field=3\n")
        assert main(["bound", "--config", str(cfg), "--n", "8"]) == 2

    def test_malformed_line_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("width 32\n")
        assert main(["bound", "--config", str(cfg), "--n", "8"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["bound", "--config", str(tmp_path / "nope.cfg"), "--n", "8"]) == 2

    def test_empty_value_only_for_optional_fields(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("out=\nridge=\n")
        assert load_config_file(str(cfg)) == {"out": None, "ridge": None}
        cfg.write_text("steps=\n")
        assert main(["estimate", "--config", str(cfg)]) == 2
        assert "'steps'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, kind", [("steps=abc", "int"), ("eta=fast", "float"),
                                            ("linearize=yes", "bool")])
    def test_bad_value_names_key_and_value(self, tmp_path, capsys, line, kind):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        key, _, raw = line.partition("=")
        with pytest.raises(ValueError, match=f"bad {kind} for '{key}': '{raw}'"):
            load_config_file(str(cfg))
        assert main(["estimate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and f"'{raw}'" in err


# every float flag, with a command that takes it
FLOAT_FLAGS = [("estimate", "eta"), ("bound", "sigma2"), ("bound", "time"),
               ("bound", "x-sqnorm"), ("bound", "beta-smooth"), ("bound", "c-grad"),
               ("bound", "e-delta0"), ("bound", "e-grad0"), ("lazy", "ridge")]


class TestRunConfig:
    def test_header_is_sorted_and_complete(self):
        cfg = RunConfig(command="bound")
        items = cfg.header_items()
        keys = [k for k, _ in items]
        assert keys == sorted(keys)
        assert dict(items)["linearize"] == "0"
        assert dict(items)["out"] == ""

    def test_horizon_prefers_time(self):
        assert RunConfig(time=2.5, eta=0.1, steps=100).horizon == 2.5
        assert RunConfig(eta=0.1, steps=100).horizon == pytest.approx(10.0)

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig(scheme="bogus").validate()
        with pytest.raises(ValueError):
            RunConfig(eta=0.0).validate()
        with pytest.raises(ValueError):
            RunConfig(neighbor="swap").validate()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
    def test_non_finite_float_flag_exits_2(self, capsys, command, flag, value):
        argv = [command, f"--{flag}={value}", "--data", "synth:4", "--steps", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"--{flag} must be finite" in captured.err
        assert captured.out == ""

    def test_float_flags_all_covered(self):
        floats = {f.name.replace("_", "-") for f in fields(RunConfig)
                  if cli._FIELD_TYPES.get(f.name) is float and f.metadata.get("commands")}
        assert floats == {flag for _, flag in FLOAT_FLAGS}

    def test_runs_stay_below_the_data_streams(self):
        RunConfig(runs=(1 << 20) - 1).validate()
        with pytest.raises(ValueError, match="runs"):
            RunConfig(runs=1 << 20).validate()
        assert main(["estimate", "--steps", "0", "--runs", str(1 << 20)]) == 2

    @pytest.mark.parametrize("spec", ["synth:abc", "synth:", "synth", "sinth:4", "synth:1.5"])
    @pytest.mark.parametrize("command", ["bound", "sweep", "estimate", "lazy"])
    def test_bad_data_spec_is_named_by_every_command(self, capsys, command, spec):
        assert main([command, "--data", spec, "--steps", "0"]) == 2
        captured = capsys.readouterr()
        assert f"error: bad data spec {spec!r}; expected synth:<n> or csv:<path>" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["bound", "sweep", "estimate", "lazy"])
    def test_empty_synthetic_data_exits_2(self, capsys, command):
        assert main([command, "--data", "synth:0", "--steps", "0"]) == 2
        assert "synthetic dataset size must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--steps", "-1"], "steps must be >= 0, runs >= 1, samples >= 2"),
        (["estimate", "--runs", "0"], "steps must be >= 0, runs >= 1, samples >= 2"),
        (["mc-verify", "--samples", "1"], "steps must be >= 0, runs >= 1, samples >= 2"),
        (["estimate", "--pool-size", "0"], "pool-size, cap and record-every must be positive"),
        (["estimate", "--cap", "0"], "pool-size, cap and record-every must be positive"),
        (["estimate", "--record-every", "0"],
         "pool-size, cap and record-every must be positive"),
        (["estimate", "--outputs", "2", "--data", "synth:8"],
         "synthetic data is binary; multi-output runs need csv data"),
        (["sweep", "--widths", ","], "need at least one width and one depth"),
        (["sweep", "--n", "0", "--widths", "16"], "--n must be at least 1, got 0"),
        (["bound", "--n", "-3"], "--n must be at least 1, got -3"),
        (["mc-verify", "--mc-n", "0"], "--mc-n must be at least 1, got 0"),
    ], ids=["negative-steps", "no-runs", "one-sample", "no-pool", "no-cap", "no-record",
            "multi-output-synth", "no-widths", "sweep-no-records", "bound-negative-records",
            "mc-verify-no-records"])
    def test_bad_value_exits_2_with_its_message(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    def test_csv_without_room_for_the_pool_exits_2(self, capsys, tmp_path):
        # three rows cannot hold out a pool of three and keep any records
        p = tmp_path / "d.csv"
        save_csv(synth_sphere(3, 4, RngStream(1)), p)
        argv = ["estimate", "--data", f"csv:{p}", "--neighbor", "add", "--pool-size", "3",
                "--steps", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: dataset too small to hold out a candidate pool" in captured.err
        assert captured.out == ""


# the fields each command does not read, which are therefore not its flags
UNREAD_FLAGS = [
    *(("bound", flag) for flag in ("seed", "runs", "neighbor", "pool-size", "record-every",
                                   "cap", "label-column")),
    ("estimate", "replay-sigma2"),
    *(("mc-verify", flag) for flag in ("eta", "steps", "sigma2", "runs", "neighbor",
                                       "kl-constant", "data", "pool-size", "record-every",
                                       "cap", "label-column")),
    *(("lazy", flag) for flag in ("runs", "kl-constant", "record-every", "cap", "neighbor",
                                  "pool-size")),
    # not abbreviations of --widths and --depths either
    *(("sweep", flag) for flag in ("width", "depth")),
]


class TestFlagsPerCommand:
    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_flag_of_an_unread_field_exits_2(self, capsys, command, flag):
        assert main([command, f"--{flag}", "1"]) == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: --{flag} 1" in captured.err
        assert captured.out == ""

    def test_every_accepted_flag_is_read(self, tmp_path, monkeypatch, cpus):
        """Each command reads every flag it accepts, outside ``validate`` and
        ``header_items``, on invocations that reach its conditional reads."""
        # the spy records reads in this process only: keep every map in it
        cpus(1)
        path = tmp_path / "d.csv"
        save_csv(synth_sphere(12, 3, RngStream(3)), path)
        csv, small = f"csv:{path}", ["--steps", "1", "--runs", "1", "--width", "4"]
        invocations = {
            "bound": [["--data", "synth:8"],
                      ["--n", "8", "--time", "1", "--x-sqnorm", "3", "--beta-smooth", "0.1",
                       "--c-grad", "1", "--rank-mt", "2", "--e-delta0", "1", "--e-grad0", "1"]],
            "estimate": [["--data", csv, "--linearize", *small],
                         ["--data", "synth:6", "--neighbor", "replace", "--pool-size", "2",
                          *small]],
            "mc-verify": [["--samples", "2"]],
            "lazy": [["--data", csv, "--steps", "2"], ["--data", "synth:6", "--steps", "0"]],
            "sweep": [["--data", csv, "--metric", "both", "--neighbor", "replace",
                       "--pool-size", "3", "--widths", "4", "--depths", "2", "--steps", "1",
                       "--runs", "1"], ["--n", "8"]],
        }
        names = {f.name for f in fields(RunConfig)} - {"command"}
        built, reads = [], []

        class Recording(RunConfig):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                built.append(self)

            def __getattribute__(self, name):
                if name in names:
                    reads.append((self, name))
                return super().__getattribute__(name)

            def validate(self):
                mark = len(reads)
                super().validate()
                del reads[mark:]

            def header_items(self):
                mark = len(reads)
                items = super().header_items()
                del reads[mark:]
                return items

        monkeypatch.setattr(cli, "RunConfig", Recording)
        for command, argvs in invocations.items():
            read = set()
            for argv in argvs:
                built.clear()
                reads.clear()
                assert main([command, *argv, "--out", str(tmp_path / "o.csv")]) == 0
                root = vars(built[0])
                # a sweep cell copies the command's config but for its scheme,
                # width and depth: reading a copied value reads the flag
                read |= {name for cfg, name in reads if vars(cfg)[name] == root[name]}
            accepted = set(vars(cli.build_parser().parse_args([command]))) - {"command", "config"}
            assert accepted <= read, (command, sorted(accepted - read))


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_unknown_command_fails(self):
        assert main(["frobnicate"]) != 0
