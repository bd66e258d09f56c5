"""Configuration, experiment drivers, CSV emission, and the CLI."""

import math
import os

import numpy as np
import pytest

from dimer_nm import cli
from dimer_nm.errors import ConfigError
from dimer_nm.harness import (
    RunConfig,
    count_envelope_maxima,
    load_config,
    parse_config,
    render_csv,
    render_meta,
    resolve_f_values,
    run_convergence,
    run_eq8check,
    run_experiment,
    run_nmm_sweep,
    run_steady_sweep,
    run_trace,
    serialize_config,
    write_outputs,
)


def csv_rows(text: str):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig(experiment="nmm", f_min=0.0035, f_max=3.6554,
                        n_points=7, eps=0.02, horizon=120.0, n_fock=4,
                        f_list="", out="runs/fig2")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_default(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_comments_and_blank_lines(self):
        text = """
        # full-line comment
        experiment = steady

        f_list = 0.1, 1  # trailing comment
        n_fock = 2
        """
        cfg = parse_config(text)
        assert cfg.experiment == "steady"
        assert cfg.f_list == "0.1, 1"
        assert cfg.n_fock == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = steady\nfrequency = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("n_fock = banana\n")
        with pytest.raises(ConfigError):
            parse_config("experiment = silly\n")

    def test_base_overlay(self):
        base = parse_config("experiment = steady\nn_fock = 4\n")
        cfg = parse_config("t_end = 7.5\n", base=base)
        assert cfg.experiment == "steady"
        assert cfg.n_fock == 4
        assert cfg.t_end == 7.5

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = eq8check\nf_list = 0.1\n")
        cfg = load_config(str(path))
        assert cfg.experiment == "eq8check"

    def test_load_from_file_over_base(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("f_list = 0.1\n")
        cfg = load_config(str(path), base=RunConfig(experiment="steady", n_fock=4))
        assert (cfg.experiment, cfg.n_fock, cfg.f_list) == ("steady", 4, "0.1")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.cfg"))

    def test_removed_workers_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("workers = 2\n")


class TestFValues:
    def test_explicit_list_sorted(self):
        cfg = RunConfig(f_list="1, 0.01, 0.1")
        assert resolve_f_values(cfg) == [0.01, 0.1, 1.0]

    def test_log_grid_endpoints(self):
        cfg = RunConfig(f_list="", f_min=0.0035, f_max=3.6554, n_points=15)
        fs = resolve_f_values(cfg)
        assert len(fs) == 15
        assert fs[0] == pytest.approx(0.0035)
        assert fs[-1] == pytest.approx(3.6554)
        ratios = [fs[i + 1] / fs[i] for i in range(14)]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_linear_grid(self):
        cfg = RunConfig(f_list="", f_min=1.0, f_max=2.0, n_points=3,
                        log_spaced=False)
        assert resolve_f_values(cfg) == pytest.approx([1.0, 1.5, 2.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            resolve_f_values(RunConfig(f_list="0.1, -1"))
        with pytest.raises(ConfigError):
            resolve_f_values(RunConfig(f_list="", f_min=0.0, f_max=1.0))


class TestCsvFormat:
    def test_twelve_significant_digits(self):
        text = render_csv(["a"], [[0.1]])
        assert text == "a\n1.00000000000e-01\n"

    def test_special_values(self):
        text = render_csv(["a", "b", "c", "d"], [[float("nan"), 3, True, "tag"]])
        assert text.splitlines()[1] == "nan,3,true,tag"

    def test_newline_discipline(self):
        text = render_csv(["x"], [[1.0], [2.0]])
        assert "\r" not in text
        assert text.endswith("\n")
        assert text.count("\n") == 3

    def test_meta_contents(self):
        cfg = RunConfig(experiment="steady")
        meta = render_meta(cfg, {"gamma_eff": 0.1})
        assert meta.startswith("# resolved configuration\n")
        assert "experiment=steady" in meta
        assert "gamma_eff=" in meta
        assert "version=" in meta


class TestTraceRuns:
    def test_population_trace_layout(self):
        cfg = RunConfig(experiment="evolve", f_list="100, 0.01", t_end=0.5)
        csv_text, meta = run_trace(cfg, "inversion")
        header, rows = csv_rows(csv_text)
        assert header == ["t", "inversion_f=0.01", "inversion_f=100"]
        first = [float(v) for v in rows[0]]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.0, abs=1e-12)
        assert first[2] == pytest.approx(1.0, abs=1e-12)
        assert "\nobservable=inversion\n" in meta

    def test_shared_time_grid_across_f(self):
        cfg = RunConfig(experiment="evolve", f_list="0.1, 2", t_end=0.3)
        csv_text, _ = run_trace(cfg, "inversion")
        _, rows = csv_rows(csv_text)
        times = [float(r[0]) for r in rows]
        assert times == pytest.approx([0.01 * k for k in range(len(times))])

    def test_entanglement_trace_starts_separable(self):
        cfg = RunConfig(experiment="evolve", f_list="0.1", t_end=0.2)
        csv_text, _ = run_trace(cfg, "logneg")
        header, rows = csv_rows(csv_text)
        assert header == ["t", "logneg_f=0.1"]
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-12)

    def test_byte_reproducible(self):
        cfg = RunConfig(experiment="evolve", f_list="0.1", t_end=0.2)
        a = run_trace(cfg, "inversion")
        b = run_trace(cfg, "inversion")
        assert a == b

    def test_unknown_observable_rejected(self):
        with pytest.raises(ConfigError):
            run_trace(RunConfig(), "purity")


class TestSteadySweep:
    def test_columns_and_reference_values(self):
        cfg = RunConfig(experiment="steady", f_list="0.1")
        csv_text, _ = run_steady_sweep(cfg)
        header, rows = csv_rows(csv_text)
        assert header == ["f", "rho_dd_nullspace", "rho_dd_eq8", "logneg_ss",
                          "singlet_overlap_ss", "logneg_markov_baseline"]
        row = dict(zip(header, (float(v) for v in rows[0])))
        assert row["f"] == 0.1
        assert row["logneg_ss"] == pytest.approx(0.717880403892, abs=1e-9)
        assert row["rho_dd_eq8"] == pytest.approx(20.4 / 24.8, abs=1e-12)
        assert row["logneg_markov_baseline"] <= 1e-6
        assert row["rho_dd_nullspace"] == row["singlet_overlap_ss"]

    def test_rows_sorted_by_f(self):
        cfg = RunConfig(experiment="steady", f_list="1, 0.1", n_fock=2)
        csv_text, _ = run_steady_sweep(cfg)
        _, rows = csv_rows(csv_text)
        fs = [float(r[0]) for r in rows]
        assert fs == sorted(fs)


class TestEq8Check:
    def test_forces_two_level_modes(self):
        cfg = RunConfig(experiment="eq8check", f_list="0.1", n_fock=5)
        csv_text, meta = run_eq8check(cfg)
        header, rows = csv_rows(csv_text)
        assert header == ["f", "rho_dd_nullspace", "rho_dd_eq8",
                          "abs_error", "rel_error"]
        row = dict(zip(header, (float(v) for v in rows[0])))
        assert row["rel_error"] <= 1e-9
        assert row["rho_dd_eq8"] == pytest.approx(20.4 / 24.8, abs=1e-12)
        assert "n_fock_forced=2" in meta


class TestNmmSweep:
    def test_columns_and_ranges(self, capsys):
        cfg = RunConfig(experiment="nmm", f_list="0.1", eps=0.05, horizon=5.0)
        csv_text, _ = run_nmm_sweep(cfg)
        header, rows = csv_rows(csv_text)
        assert header == ["f", "D_NM", "I", "eps", "horizon",
                          "skipped_times_count"]
        row = dict(zip(header, (float(v) for v in rows[0])))
        assert 0.0 <= row["D_NM"] < 1.0
        assert row["eps"] == pytest.approx(0.05)
        assert row["skipped_times_count"] == 0
        # 5/J is far below the relaxation horizon, so a note is emitted
        assert "horizon" in capsys.readouterr().err


class TestConvergence:
    def test_refinement_blocks(self):
        cfg = RunConfig(experiment="convergence", f_list="0.1", t_end=2.0,
                        fock_list="3,4")
        csv_text, _ = run_convergence(cfg)
        header, rows = csv_rows(csv_text)
        assert header == ["block", "n_fock", "dt", "final_logneg",
                          "max_mode_excitation", "delta_final_logneg"]
        assert [r[0] for r in rows] == ["fock", "fock", "dt", "dt"]
        assert rows[0][5] == "nan" and rows[2][5] == "nan"
        for r in rows:
            assert math.isfinite(float(r[3]))
            assert 0.0 <= float(r[4]) <= 0.1
        fock_delta = abs(float(rows[1][5]))
        dt_delta = abs(float(rows[3][5]))
        assert fock_delta < 1e-3
        assert dt_delta < 1e-6


class TestStiffTraces:
    def test_stiff_linewidth_takes_finer_steps(self):
        # kappa = 2000 at f = 1 damps the modes at rate 4000, a hundred
        # times the reference rate: at the base step RK4 is unstable, so
        # the run has to take dynamics.suggest_dt's finer steps
        cfg = parse_config("experiment=evolve\nkappa1=2000\nkappa2=2000\n"
                           "g1=10\ng2=10\nf_list=1\nt_end=1\n")
        outputs = run_experiment(cfg)
        assert sorted(outputs) == ["evolve_inversion.csv", "evolve_logneg.csv"]
        for name, (csv_text, _) in outputs.items():
            _, rows = csv_rows(csv_text)
            assert len(rows) == 101
            values = np.array([float(r[1]) for r in rows])
            assert np.all(np.isfinite(values))
            lo = -1.0 if "inversion" in name else 0.0
            assert np.all((lo <= values) & (values <= 1.0))


class TestExperimentOutputs:
    def test_evolve_writes_both_observables(self, tmp_path):
        cfg = RunConfig(experiment="evolve", f_list="0.1", t_end=0.2,
                        out=str(tmp_path / "base"))
        written = write_outputs(run_experiment(cfg))
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["base_inversion.csv", "base_logneg.csv"]
        for path in written:
            assert os.path.exists(path)
            assert os.path.exists(path + ".meta")

    def test_sweep_unions_columns(self):
        cfg = RunConfig(experiment="sweep", f_list="0.1", eps=0.05,
                        horizon=5.0, n_fock=2)
        outputs = run_experiment(cfg)
        (csv_text, _), = outputs.values()
        header, _ = csv_rows(csv_text)
        assert header[0] == "f"
        assert "logneg_ss" in header
        assert "D_NM" in header


class TestEnvelopeCounting:
    def test_damped_oscillation_single_maximum(self):
        t = np.linspace(0.0, 50.0, 2001)
        count, _ = count_envelope_maxima(t, np.exp(-0.1 * t) * np.cos(5.0 * t))
        assert count == 1

    def test_beating_counted(self):
        t = np.linspace(0.0, 50.0, 2001)
        count, locs = count_envelope_maxima(t, np.cos(0.2 * t) * np.cos(5.0 * t))
        assert count >= 2
        assert locs == sorted(locs)

    def test_monotone_decay_scores_zero(self):
        t = np.linspace(0.0, 10.0, 101)
        count, locs = count_envelope_maxima(t, np.exp(-t))
        assert count == 0
        assert locs == []


class TestCli:
    def test_presets_parse(self):
        for name in cli.PRESETS:
            cfg = parse_config(cli.preset_text(name))
            assert cfg.experiment in ("evolve", "nmm", "eq8check")

    def test_flag_overrides(self):
        args = cli.build_parser().parse_args(["fig1", "--f", "0.5", "--fock", "4"])
        cfg = cli.config_from_args(args)
        assert cfg.experiment == "evolve"
        assert cfg.f_list == "0.5"
        assert cfg.n_fock == 4

    def test_config_file_layering(self, tmp_path):
        path = tmp_path / "override.cfg"
        path.write_text("t_end = 0.4\n")
        args = cli.build_parser().parse_args(
            ["steady", "--config", str(path), "--f", "0.1"]
        )
        cfg = cli.config_from_args(args)
        assert cfg.experiment == "steady"
        assert cfg.t_end == 0.4

    def test_successful_run(self, tmp_path, capsys):
        code = cli.main(["eq8check", "--f", "0.1",
                         "--out", str(tmp_path / "eq8run")])
        assert code == 0
        out = capsys.readouterr().out
        assert str(tmp_path / "eq8run.csv") in out
        assert os.path.exists(tmp_path / "eq8run.csv")

    def test_unknown_experiment_exits_two(self, capsys):
        assert cli.main(["teleport"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exits_two(self, capsys):
        assert cli.main(["steady", "--config", "/no/such/file.cfg"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        code = cli.main(["evolve", "--f", "1", "--dt", "0.1", "--tmax", "5",
                         "--out", str(tmp_path / "blowup")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
