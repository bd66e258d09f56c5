"""Configuration, experiment drivers, CSV emission, and the CLI."""

import dataclasses
import importlib.util
import math
import os

import numpy as np
import pytest

from dimer_nm import cli, harness
from dimer_nm.dynamics import suggest_dt, trace_stack
from dimer_nm.errors import ConfigError
from dimer_nm.model import ModelParams
from dimer_nm.harness import (
    HORIZON_WARN_FACTOR,
    RunConfig,
    gamma_eff_of,
    load_config,
    parse_config,
    render_csv,
    render_meta,
    resolve_f_values,
    run_convergence,
    run_experiment,
    run_f_sweep,
    serialize_config,
    write_outputs,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def stack_calls(monkeypatch):
    """Per trace_stack call the harness makes, the (model, trajectory) of
    each run of its stack."""
    calls = []

    def spy(models, *args, **kwargs):
        trajs = trace_stack(models, *args, **kwargs)
        calls.append(list(zip(models, trajs)))
        return trajs

    monkeypatch.setattr(harness, "trace_stack", spy)
    return calls


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

    def test_frozen_behind_its_gate(self):
        # a run only ever sees a config that RunConfig's checks passed
        cfg = RunConfig()
        for key in harness._FIELD_TYPES:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, key, getattr(cfg, key))

    def test_model_params_keys_are_inherited(self):
        # each physics key is declared once, in ModelParams, at f = 1
        own = set(RunConfig.__annotations__)
        physics = [f.name for f in dataclasses.fields(ModelParams)]
        assert issubclass(RunConfig, ModelParams) and own.isdisjoint(physics)
        assert list(harness._FIELD_TYPES)[:len(physics)] == physics
        assert len(harness._FIELD_TYPES) == 23
        assert harness.base_params(RunConfig(g2=2.0)) == ModelParams(g2=2.0)

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

    @pytest.mark.parametrize("text, message", [
        ("experiment = nmm\ng1 = 0\n", "horizon must be set when gamma_eff = 0"),
        ("experiment = sweep\ng1 = 0\n", "horizon must be set when gamma_eff = 0"),
        ("experiment = eq8check\ng2 = 2\n", "eq8check requires symmetric parameters"),
        ("experiment = eq8check\nmodel = full\n", "eq8check runs the symmetric model only"),
        ("experiment = eq8check\nmodel = global\n", "eq8check runs the symmetric model only"),
        ("experiment = eq8check\nn_th = 0.2\n",
         "eq8check requires symmetric parameters at zero temperature"),
    ], ids=["nmm-uncoupled", "sweep-uncoupled", "eq8check-unequal", "eq8check-full",
            "eq8check-global", "eq8check-warm"])
    def test_experiment_its_parameters_do_not_fit(self, text, message):
        # decided before any f runs: sweep's steady-state group would
        # otherwise fail first, on the uncoupled baseline's steady state
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(text)

    def test_experiments_their_parameters_fit(self):
        assert parse_config("experiment = sweep\ng1 = 0\nhorizon = 5\n").g1 == 0.0
        assert parse_config("experiment = steady\ng2 = 2\n").g2 == 2.0
        assert parse_config("experiment = eq8check\nmodel = symmetric\n").model == "symmetric"
        assert parse_config("experiment = steady\nn_th = 0.2\n").n_th == 0.2


HUGE = "1" + "0" * 400  # an int no float holds

# key, values RunConfig rejects, the CLI flag that sets the key (None:
# it has none, so the value comes in through --config)
OUT_OF_RANGE = [
    ("store_every", ("0", "-3", HUGE), None),
    ("n_points", ("0", "1000001", HUGE), None),
    ("n_fock", ("1", "0", HUGE, "1" + "0" * 300), "--fock"),
    ("t_end", ("-5", "0", "nan"), "--tmax"),
    ("eps", ("-0.01", "0"), "--eps"),
    ("horizon", ("-1", "nan"), "--horizon"),
    ("n_th", ("-1", "nan"), None),
    ("J", ("0", "-1", "nan"), None),
    ("g1", ("nan", "inf", "-inf"), None),
    ("kappa1", ("0", "-5", "nan"), None),
    ("kappa2", ("-1", "nan"), None),
    ("observable", ("foo",), "--observable"),
]


class TestConfigRanges:
    """Out-of-range values are ConfigError (CLI exit 2) however they arrive."""

    @pytest.mark.parametrize("key, bad, flag", OUT_OF_RANGE, ids=[k for k, _, _ in OUT_OF_RANGE])
    def test_parse_config_rejects(self, key, bad, flag):
        for raw in bad:
            with pytest.raises(ConfigError, match=f"^{key} must be"):
                parse_config(f"experiment = nmm\n{key} = {raw}\n")

    @pytest.mark.parametrize("key, bad, flag", OUT_OF_RANGE, ids=[k for k, _, _ in OUT_OF_RANGE])
    def test_cli_exits_two(self, key, bad, flag, tmp_path, capsys):
        out = str(tmp_path / "run")
        for raw in bad:
            if flag is None:
                path = tmp_path / "bad.cfg"
                path.write_text(f"{key} = {raw}\n")
                argv = ["evolve", "--config", str(path), "--out", out]
            else:
                argv = ["evolve", f"{flag}={raw}", "--out", out]
            assert cli.main(argv) == 2
            assert f"configuration error: {key} must be" in capsys.readouterr().err
        assert not os.path.exists(out + "_inversion.csv")

    def test_bounds_themselves_accepted(self):
        cfg = parse_config("store_every = 1\nn_points = 1\nn_fock = 2\n"
                           "horizon = 0\nt_end = 1e-9\neps = 1e-9\n"
                           "n_th = 0\nkappa2 = 0\n")
        assert (cfg.store_every, cfg.n_points, cfg.n_fock) == (1, 1, 2)

    # dynamics alone picks every step: no config key or flag sets it
    def test_removed_step_key_exits_two(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="^line 2: unknown key 'dt'"):
            parse_config("experiment = nmm\ndt = 0.01\n")
        path = tmp_path / "step.cfg"
        path.write_text("dt = 0.01\n")
        out = str(tmp_path / "run")
        assert cli.main(["evolve", "--config", str(path), "--out", out]) == 2
        assert "configuration error: line 1: unknown key 'dt'" in capsys.readouterr().err
        assert not os.path.exists(out + "_inversion.csv")

    # the f range is always log-spaced; any other grid is an f_list
    def test_removed_spacing_key_exits_two(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="^line 1: unknown key 'log_spaced'"):
            parse_config("log_spaced = true\n")
        path = tmp_path / "spaced.cfg"
        path.write_text("log_spaced = false\n")
        out = str(tmp_path / "run")
        assert cli.main(["nmm", "--config", str(path), "--out", out]) == 2
        assert "configuration error: line 1: unknown key 'log_spaced'" in capsys.readouterr().err
        assert not os.path.exists(out + ".csv")

    def test_removed_step_flag_exits_two(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        with pytest.raises(SystemExit) as exc:
            cli.main(["evolve", "--dt", "0.01", "--out", out])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dt" in capsys.readouterr().err
        assert not os.path.exists(out + "_inversion.csv")

    @pytest.mark.parametrize("experiment", ["nmm", "sweep"])
    def test_oversized_memory_grid_exits_two(self, experiment, tmp_path, capsys):
        # a quotient horizon / eps that overflows, then a finite one over the cap
        out = str(tmp_path / "run")
        for horizon, eps in (("1e300", "1e-10"), ("200", "1e-5")):
            argv = [experiment, "--f", "0.1", "--horizon", horizon, "--eps", eps, "--out", out]
            assert cli.main(argv) == 2
            assert "configuration error: horizon / eps" in capsys.readouterr().err
        assert not os.path.exists(out + ".csv")
        # the default horizon, 20 / gamma_eff = 200, counts too
        with pytest.raises(ConfigError, match="grid points"):
            parse_config(f"experiment = {experiment}\neps = 1e-7\n")

    @pytest.mark.parametrize("experiment", ["evolve", "convergence"])
    def test_oversized_trace_grid_exits_two(self, experiment, tmp_path, capsys):
        # t_end / (store_every * BASE_DT) = 1e9 / 0.01 would store 1e11 states
        out = str(tmp_path / "run")
        assert cli.main([experiment, "--f", "0.1", "--tmax", "1e9", "--out", out]) == 2
        assert ("configuration error: t_end / (store_every * BASE_DT): 1e+11 steps would "
                "take more than 1000000 grid points") in capsys.readouterr().err
        assert not os.listdir(tmp_path)
        with pytest.raises(ConfigError, match="grid points"):
            parse_config(f"experiment = {experiment}\nt_end = 20000\nstore_every = 1\n")

    def test_full_model_without_second_linewidth_runs(self, tmp_path):
        path = tmp_path / "lossless.cfg"
        path.write_text("model = full\nkappa2 = 0\nn_fock = 2\n")
        assert cli.main(["steady", "--f", "0.1", "--config", str(path),
                         "--out", str(tmp_path / "lossless")]) == 0

    def test_every_benchmark_config_parses(self):
        # the benchmark layers its overrides on a preset, or on nothing
        spec = importlib.util.spec_from_file_location(
            "workloads", os.path.join(REPO, "perfbench", "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name, experiments in workloads.WORKLOADS.items():
            for seed in (0, 1, 2):
                f_values = workloads.f_values(name, seed)
                for exp in experiments:
                    text = cli.preset_text(exp.preset) if exp.preset else ""
                    cfg = parse_config(text + "\n" + exp.overrides(f_values[exp.label]))
                    assert cfg.experiment == exp.kind


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

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            resolve_f_values(RunConfig(f_list="0.1, -1"))
        with pytest.raises(ConfigError):
            resolve_f_values(RunConfig(f_list="", f_min=0.0, f_max=1.0))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigError, match="finite and positive"):
            resolve_f_values(RunConfig(f_list=f"0.1, {bad}"))
        for key, f_min, f_max in (("f_min", bad, "1"), ("f_max", "0.1", bad)):
            with pytest.raises(ConfigError, match=f"^{key} must be finite"):
                parse_config(f"f_min = {f_min}\nf_max = {f_max}\n")
            cfg = RunConfig(f_list="")
            # past RunConfig's own check, which freezes the config
            object.__setattr__(cfg, "f_min", float(f_min))
            object.__setattr__(cfg, "f_max", float(f_max))
            with pytest.raises(ConfigError, match="finite and positive"):
                resolve_f_values(cfg)

    @pytest.mark.parametrize("experiment", ["steady", "nmm", "sweep", "eq8check", "convergence"])
    def test_repeated_f_exits_two_before_any_run(self, experiment, tmp_path, capsys,
                                                 monkeypatch):
        # a repeated f would be computed twice and written as two rows
        def no_run(*args, **kwargs):
            raise AssertionError("a run started for a repeated f")

        for name in ("steady_state", "nm_sweep", "_trace_runs"):
            monkeypatch.setattr(harness, name, no_run)
        path = tmp_path / "dup.cfg"
        path.write_text("f_list = 0.1,0.1\n")
        out = str(tmp_path / "run")
        assert cli.main([experiment, "--config", str(path), "--out", out]) == 2
        assert "configuration error: f value 0.1 is repeated" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["dup.cfg"]

    def test_f_list_checked_when_the_config_is_built(self):
        # every f-list error is parse_config's, before any run is set up
        for text, message in (("f_list = abc", "^bad f list 'abc'"),
                              ("f_list = ,", "^empty f list$"),
                              ("f_list = 0.1, 0", "^all f values must be finite and positive"),
                              ("f_min = 0", "^all f values must be finite and positive"),
                              ("experiment = steady\nf_list = 0.1,0.1",
                               "^f value 0.1 is repeated$"),
                              ("experiment = evolve\nf_list = 0.1,0.1000001",
                               "^two f values share the column label f=0.1$")):
            with pytest.raises(ConfigError, match=message):
                parse_config(text)

    def test_repeated_f_of_a_range_rejected(self):
        with pytest.raises(ConfigError, match="f value 0.5 is repeated"):
            resolve_f_values(RunConfig(experiment="steady", f_list="", f_min=0.5, f_max=0.5,
                                       n_points=3))
        assert resolve_f_values(RunConfig(experiment="steady", f_list="", f_min=0.5, f_max=0.5,
                                          n_points=1)) == [0.5]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [["eq8check"], ["nmm", "--horizon", "2", "--eps", "0.1"]],
                             ids=["eq8check", "nmm"])
    def test_non_finite_f_exits_two(self, bad, argv, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cli.main(argv + ["--f", bad, "--out", out]) == 2
        assert "configuration error: all f values must be finite" in capsys.readouterr().err
        assert not os.path.exists(out + ".csv")


class TestCsvFormat:
    def test_twelve_significant_digits(self):
        text = render_csv(["a"], [[0.1]])
        assert text == "a\n1.00000000000e-01\n"

    def test_special_values(self):
        text = render_csv(["a", "b", "c"], [[float("nan"), 3, "tag"]])
        assert text.splitlines()[1] == "nan,3,tag"

    def test_cell_bytes(self):
        # the bytes every cell kind renders to, in a list row and an ndarray row
        cells = [math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float64(-0.0),
                 np.float64(math.nan), np.float32(0.1), 3, np.int64(-7), 10 ** 20, "tag"]
        text = render_csv([f"c{k}" for k in range(len(cells))], [cells])
        assert text.splitlines()[1] == (
            "nan,inf,-inf,-0.00000000000e+00,4.94065645841e-324,-0.00000000000e+00,"
            "nan,1.00000001490e-01,3,-7,100000000000000000000,tag")
        table = np.array([[math.nan, -math.inf], [5e-324, -0.0]])
        assert render_csv(["a", "b"], table) == (
            "a,b\nnan,-inf\n4.94065645841e-324,-0.00000000000e+00\n")

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


def trace_csv(cfg, observable):
    """(csv, meta) of one evolve observable, through run_experiment."""
    (out,) = run_experiment(dataclasses.replace(cfg, observable=observable)).values()
    return out


class TestTraceRuns:
    def test_population_trace_layout(self):
        cfg = RunConfig(experiment="evolve", f_list="100, 0.01", t_end=0.5)
        csv_text, meta = trace_csv(cfg, "inversion")
        header, rows = csv_rows(csv_text)
        assert header == ["t", "inversion_f=0.01", "inversion_f=100"]
        first = [float(v) for v in rows[0]]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.0, abs=1e-12)
        assert first[2] == pytest.approx(1.0, abs=1e-12)
        assert "\nobservable=inversion\n" in meta

    def test_shared_time_grid_across_f(self):
        cfg = RunConfig(experiment="evolve", f_list="0.1, 2", t_end=0.3)
        csv_text, _ = trace_csv(cfg, "inversion")
        _, rows = csv_rows(csv_text)
        times = [float(r[0]) for r in rows]
        assert times == pytest.approx([0.01 * k for k in range(len(times))])

    def test_entanglement_trace_starts_separable(self):
        cfg = RunConfig(experiment="evolve", f_list="0.1", t_end=0.2)
        csv_text, _ = trace_csv(cfg, "logneg")
        header, rows = csv_rows(csv_text)
        assert header == ["t", "logneg_f=0.1"]
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-12)

    def test_byte_reproducible(self):
        cfg = RunConfig(experiment="evolve", f_list="0.1", t_end=0.2)
        a = trace_csv(cfg, "inversion")
        b = trace_csv(cfg, "inversion")
        assert a == b

    def test_unknown_observable_rejected(self):
        with pytest.raises(ConfigError):
            trace_csv(RunConfig(), "purity")
        with pytest.raises(ConfigError):
            run_experiment(RunConfig(observable="purity"))

    def test_both_observables_integrate_each_f_once(self, stack_calls):
        cfg = RunConfig(experiment="evolve", f_list="0.1, 2", t_end=0.3)
        outputs = run_experiment(cfg)
        # one stack of one run per f
        assert [len(call) for call in stack_calls] == [2]
        # a one-observable run records that observable as its configured one
        alone = {}
        for o in ("inversion", "logneg"):
            csv_text, meta = trace_csv(cfg, o)
            alone[f"evolve_{o}.csv"] = (
                csv_text, meta.replace(f"\nobservable={o}\n", "\nobservable=both\n", 1))
        assert outputs == alone

    def test_f_values_that_print_alike_rejected_before_any_run(self, stack_calls):
        # one CSV column per f, headed by f to 6 significant digits
        with pytest.raises(ConfigError, match=r"column label f=0\.1$"):
            RunConfig(experiment="evolve", f_list="0.1, 0.1000001, 0.1", t_end=0.3)
        assert stack_calls == []
        apart = run_experiment(RunConfig(experiment="evolve", f_list="0.1, 0.100001", t_end=0.3))
        header = csv_rows(apart["evolve_inversion.csv"][0])[0]
        assert header == ["t", "inversion_f=0.1", "inversion_f=0.100001"]

    def test_long_trace_stays_on_the_store_grid(self, tmp_path):
        # 33330 storage intervals of 886 steps at f = 88.58667904100822:
        # the step count's quotient rounds 4e-9 above a whole number, and
        # an extra step used to give that f a one-step tail past the grid
        path = tmp_path / "long.cfg"
        path.write_text("t_end = 333.3\nstore_every = 10\nf_list = 1,88.58667904100822\n")
        out = str(tmp_path / "long")
        assert cli.main(["evolve", "--observable", "inversion", "--config", str(path),
                         "--out", out]) == 0
        with open(out + "_inversion.csv") as fh:
            _, rows = csv_rows(fh.read())
        times = np.array([float(r[0]) for r in rows])
        assert times.shape == (33331,) and times[-1] == 333.3
        assert np.max(np.abs(times - 0.01 * np.arange(33331))) <= 1e-9

    def test_memory_ladder_trace_stores_on_one_grid(self):
        # f = 100 steps each storage interval of 1.0 in 100 000 steps of
        # 1e-5 and f = 0.01 in 1000 of 1e-3, so the stored times of the two
        # runs differ by rounding (1.8e-12 at t = 20 000)
        cfg = RunConfig(experiment="evolve", f_list="0.01,100", t_end=20000.0,
                        store_every=1000)
        csv_text, _ = trace_csv(cfg, "inversion")
        _, rows = csv_rows(csv_text)
        times = np.array([float(r[0]) for r in rows])
        assert np.array_equal(times, 1.0 * np.arange(20001))

    def test_short_trace_stores_two_intervals(self):
        # a t_end within one storage interval still gets the grid's floor of
        # two steps
        for t_end in (0.004, 0.01):
            csv_text, meta = trace_csv(RunConfig(experiment="evolve", f_list="0.1",
                                                 t_end=t_end), "inversion")
            _, rows = csv_rows(csv_text)
            assert [float(r[0]) for r in rows] == [0.0, 0.01, 0.02]
            assert "\nt_end_effective=2.00000000000e-02\n" in meta

    @pytest.mark.parametrize("f", [1.4, 100.0])
    @pytest.mark.parametrize("store_every", [1, 3])
    def test_no_step_longer_than_suggest_dt(self, stack_calls, f, store_every):
        # at f = 1.4 suggest_dt is 1e-3 / 1.4, so a storage interval of
        # one or three base steps is not a whole number of steps
        cfg = RunConfig(experiment="evolve", f_list=str(f), t_end=0.05,
                        store_every=store_every)
        trace_csv(cfg, "inversion")
        ((model, traj),), = stack_calls
        assert traj.diagnostics["dt"] <= suggest_dt(model) * (1 + 1e-12)


class TestSteadySweep:
    def test_columns_and_reference_values(self):
        cfg = RunConfig(experiment="steady", f_list="0.1")
        csv_text, _ = run_f_sweep(cfg)
        header, rows = csv_rows(csv_text)
        assert header == ["f", "rho_dd_nullspace", "rho_dd_eq8", "logneg_ss",
                          "singlet_overlap_ss", "logneg_markov_baseline"]
        row = dict(zip(header, (float(v) for v in rows[0])))
        assert row["f"] == 0.1
        assert row["logneg_ss"] == pytest.approx(0.717880403892, abs=1e-9)
        assert row["rho_dd_eq8"] == pytest.approx(20.4 / 24.8, abs=1e-12)
        assert row["logneg_markov_baseline"] <= 1e-6
        assert row["rho_dd_nullspace"] == row["singlet_overlap_ss"]

    def test_warm_row_has_no_closed_form(self):
        # the closed form holds at zero temperature only; the other cells
        # are the steady state at n_th = 0.2
        csv_text, _ = run_f_sweep(RunConfig(experiment="steady", f_list="0.1", n_th=0.2))
        assert csv_text.splitlines()[1].split(",") == [
            "1.00000000000e-01", "7.09915541503e-01", "nan", "5.05719302826e-01",
            "7.09915541503e-01", "0.00000000000e+00"]

    def test_rows_sorted_by_f(self):
        cfg = RunConfig(experiment="steady", f_list="1, 0.1", n_fock=2)
        csv_text, _ = run_f_sweep(cfg)
        _, rows = csv_rows(csv_text)
        fs = [float(r[0]) for r in rows]
        assert fs == sorted(fs)


class TestEq8Check:
    def test_forces_two_level_modes(self):
        cfg = RunConfig(experiment="eq8check", f_list="0.1", n_fock=5)
        csv_text, meta = run_f_sweep(cfg)
        header, rows = csv_rows(csv_text)
        assert header == ["f", "rho_dd_nullspace", "rho_dd_eq8",
                          "abs_error", "rel_error"]
        row = dict(zip(header, (float(v) for v in rows[0])))
        assert row["rel_error"] <= 1e-9
        assert row["rho_dd_eq8"] == pytest.approx(20.4 / 24.8, abs=1e-12)
        assert "n_fock_forced=2" in meta


class TestNmmSweep:
    def test_columns_and_ranges(self, caplog):
        cfg = RunConfig(experiment="nmm", f_list="0.1", eps=0.05, horizon=5.0)
        csv_text, _ = run_f_sweep(cfg)
        header, rows = csv_rows(csv_text)
        assert header == ["f", "D_NM", "I", "eps", "horizon",
                          "skipped_times_count"]
        row = dict(zip(header, (float(v) for v in rows[0])))
        assert 0.0 <= row["D_NM"] < 1.0
        assert row["eps"] == pytest.approx(0.05)
        assert row["skipped_times_count"] == 0
        # 5/J is far below the relaxation horizon, so a note is emitted
        assert "horizon" in caplog.text

    def test_horizon_warning(self, caplog):
        # the note marks exactly an effective horizon shorter than
        # HORIZON_WARN_FACTOR relaxation times 1 / gamma_eff (50 at the
        # default gamma_eff = 0.1); gamma_eff = 0 has no relaxation time
        for horizon, couplings, short in [(10.0, {}, True), (49.9, {}, True),
                                          (50.1, {}, False), (10.0, {"g1": 10.0, "g2": 10.0}, False),
                                          (5.0, {"g1": 0.0}, False)]:
            cfg = RunConfig(experiment="nmm", f_list="0.1", eps=0.05, horizon=horizon,
                            **couplings)
            caplog.clear()
            _, rows = csv_rows(run_f_sweep(cfg)[0])
            gamma = gamma_eff_of(cfg)
            effective = float(rows[0][4])
            assert short == (gamma > 0 and effective < HORIZON_WARN_FACTOR / gamma)
            assert ("effective horizon" in caplog.text) == short


class TestConvergence:
    def test_refinement_blocks(self):
        cfg = RunConfig(experiment="convergence", f_list="0.1", t_end=2.0)
        csv_text, _ = run_convergence(cfg)
        header, rows = csv_rows(csv_text)
        assert header == ["block", "n_fock", "dt", "final_logneg",
                          "max_mode_excitation", "delta_final_logneg"]
        assert [r[:3] for r in rows] == [["fock", "3", "1.00000000000e-03"],
                                         ["fock", "4", "1.00000000000e-03"],
                                         ["dt", "3", "1.00000000000e-03"],
                                         ["dt", "3", "5.00000000000e-04"]]
        assert rows[0][5] == "nan" and rows[2][5] == "nan"
        for r in rows:
            assert math.isfinite(float(r[3]))
            assert 0.0 <= float(r[4]) <= 0.1
        fock_delta = abs(float(rows[1][5]))
        dt_delta = abs(float(rows[3][5]))
        assert fock_delta < 1e-3
        assert dt_delta < 1e-6

    def test_refined_cutoff_past_the_dimension_cap_exits_two(self, tmp_path, capsys):
        # the fock block also builds n_fock + 1: d = 130 for the symmetric
        # model at 65 and 162 for the full one at 9, both past the cap, 128
        for kind, n_fock in (("auto", 64), ("full", 8)):
            with pytest.raises(ConfigError, match="^n_fock must be small enough"):
                parse_config(f"experiment = convergence\nmodel = {kind}\nn_fock = {n_fock}\n")
            parse_config(f"experiment = steady\nmodel = {kind}\nn_fock = {n_fock}\n")
        RunConfig(experiment="convergence", n_fock=63)
        RunConfig(experiment="convergence", model="full", n_fock=7)
        out = str(tmp_path / "run")
        assert cli.main(["convergence", "--fock", "64", "--out", out]) == 2
        assert "configuration error: n_fock must be small enough" in capsys.readouterr().err
        assert not os.path.exists(out + ".csv")

    def test_removed_cutoff_list_key_exits_two(self, tmp_path, capsys):
        # the fock block refines n_fock by one; no key lists its cutoffs
        with pytest.raises(ConfigError, match="^line 2: unknown key 'fock_list'"):
            parse_config("experiment = convergence\nfock_list = 3,4\n")
        path = tmp_path / "wide.cfg"
        path.write_text("fock_list = 3,4\n")
        out = str(tmp_path / "run")
        assert cli.main(["convergence", "--config", str(path), "--out", out]) == 2
        assert "configuration error: line 1: unknown key 'fock_list'" in capsys.readouterr().err
        assert not os.path.exists(out + ".csv")

    def test_each_distinct_run_integrates_once(self, stack_calls):
        # the fock row at n_fock = 3 and the first dt row are one run; the
        # two n_fock = 3 runs are one stack and the n_fock = 4 run another
        cfg = RunConfig(experiment="convergence", f_list="0.1", t_end=1.0)
        csv_text, _ = run_convergence(cfg)
        assert [[(m.dims, traj.diagnostics["dt"]) for m, traj in call]
                for call in stack_calls] == [[((2, 3), 1e-3), ((2, 3), 5e-4)], [((2, 4), 1e-3)]]
        _, rows = csv_rows(csv_text)
        assert rows[0][3:5] == rows[2][3:5]


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

    def test_sweep_joins_steady_and_nmm(self):
        # byte for byte the column join of the two experiments' CSVs, and
        # the union of their derived .meta keys
        cfg = RunConfig(f_list="0.1, 1", eps=0.05, horizon=5.0, n_fock=2)
        out = {e: run_f_sweep(dataclasses.replace(cfg, experiment=e))
               for e in ("steady", "nmm", "sweep")}
        joined = [a + "," + b.split(",", 1)[1] for a, b in
                  zip(out["steady"][0].splitlines(), out["nmm"][0].splitlines())]
        assert out["sweep"][0] == "\n".join(joined) + "\n"

        def derived(meta):
            lines = meta.splitlines()
            return dict(line.split("=", 1) for line in lines[lines.index("# derived") + 1:])

        steady, nmm, sweep = (derived(out[e][1]) for e in ("steady", "nmm", "sweep"))
        assert sweep == {**steady, **nmm, "experiment": "sweep"}
        assert set(sweep) == set(steady) | set(nmm)

    def test_sweep_unions_columns(self):
        cfg = RunConfig(experiment="sweep", f_list="0.1", eps=0.05,
                        horizon=5.0, n_fock=2)
        outputs = run_experiment(cfg)
        (csv_text, _), = outputs.values()
        header, _ = csv_rows(csv_text)
        assert header[0] == "f"
        assert "logneg_ss" in header
        assert "D_NM" in header


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

    def test_every_flag_sets_its_key(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--f", "0.1", "--fock", "2", "--tmax", "1", "--eps", "0.05",
             "--horizon", "2", "--observable", "inversion", "--model", "symmetric",
             "--out", "flags"])
        cfg = cli.config_from_args(args)
        assert cfg == RunConfig(experiment="sweep", f_list="0.1", n_fock=2, t_end=1.0,
                                eps=0.05, horizon=2.0, observable="inversion",
                                model="symmetric", out="flags")

    def test_config_file_layering(self, tmp_path):
        path = tmp_path / "override.cfg"
        path.write_text("t_end = 0.4\n")
        args = cli.build_parser().parse_args(
            ["steady", "--config", str(path), "--f", "0.1"]
        )
        cfg = cli.config_from_args(args)
        assert cfg.experiment == "steady"
        assert cfg.t_end == 0.4

    def test_flags_override_the_file_before_it_is_checked(self, tmp_path):
        path = tmp_path / "layered.cfg"
        path.write_text("model = symmetric\ng2 = 2\nn_fock = 1\n")
        args = cli.build_parser().parse_args(
            ["steady", "--config", str(path), "--model", "full", "--fock", "2"])
        cfg = cli.config_from_args(args)
        assert (cfg.model, cfg.g2, cfg.n_fock) == ("full", 2.0, 2)

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

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        (tmp_path / "afile").touch()
        out = str(tmp_path / "afile" / "x")
        assert cli.main(["eq8check", "--f", "0.1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dimer-nm: configuration error: cannot write {out}.csv: ")
        assert err.count("\n") == 1

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        # with the modes uncoupled the steady state is not unique
        path = tmp_path / "uncoupled.cfg"
        path.write_text("g1 = 0\ng2 = 0\n")
        code = cli.main(["steady", "--f", "0.1", "--config", str(path),
                         "--out", str(tmp_path / "uncoupled")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_bath_past_float_range_exits_two_or_three(self, tmp_path, capsys):
        # a config whose f = 1 model overflows is refused when it is built,
        # exit 2; one whose larger f does only when that f is built, exit 3
        for line, code, message in (
                ("n_th = 1e307", 2, "configuration error: jump rate inf is not finite"),
                ("n_th = 1e304\nf_list = 1,1000", 3, "numerical failure: jump rate inf")):
            path = tmp_path / "hot.cfg"
            path.write_text(line + "\n")
            out = str(tmp_path / "hot")
            assert cli.main(["evolve", "--model", "full", "--fock", "6", "--tmax", "0.5",
                             "--config", str(path), "--out", out]) == code
            assert f"dimer-nm: {message}" in capsys.readouterr().err
            assert not os.path.exists(out + "_inversion.csv")

    @pytest.mark.parametrize("model, line, message", [
        ("symmetric", "g2 = 2", "symmetric model requires identical sites and modes"),
        ("global", "Omega2 = 3", "global-mode model has a single mode"),
    ])
    def test_model_kind_its_parameters_do_not_fit_exits_two(self, model, line, message,
                                                             tmp_path, capsys):
        path = tmp_path / "mismatch.cfg"
        path.write_text(line + "\n")
        out = str(tmp_path / "mismatch")
        assert cli.main(["steady", "--f", "0.1", "--model", model,
                         "--config", str(path), "--out", out]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not os.path.exists(out + ".csv")

    @pytest.mark.parametrize("experiment", ["nmm", "sweep"])
    def test_default_horizon_without_coupling_exits_two(self, experiment, tmp_path, capsys):
        # g1 = 0 makes gamma_eff = 0, so 20 / gamma_eff is no horizon
        path = tmp_path / "uncoupled.cfg"
        path.write_text("g1 = 0\n")
        out = str(tmp_path / "uncoupled")
        assert cli.main([experiment, "--f", "0.1", "--config", str(path), "--out", out]) == 2
        assert "configuration error: horizon must be set" in capsys.readouterr().err
        assert not os.path.exists(out + ".csv")

    def test_eq8check_with_unequal_sites_exits_two(self, tmp_path, capsys):
        path = tmp_path / "unequal.cfg"
        path.write_text("g2 = 2\n")
        out = str(tmp_path / "unequal")
        assert cli.main(["eq8check", "--f", "0.1", "--config", str(path), "--out", out]) == 2
        assert "configuration error: eq8check requires symmetric" in capsys.readouterr().err
        assert not os.path.exists(out + ".csv")

    def test_set_horizon_without_coupling_runs(self, tmp_path):
        path = tmp_path / "uncoupled.cfg"
        path.write_text("g1 = 0\n")
        assert cli.main(["nmm", "--f", "0.1", "--eps", "0.05", "--horizon", "5",
                         "--config", str(path), "--out", str(tmp_path / "uncoupled")]) == 0
        with open(tmp_path / "uncoupled.csv") as fh:
            assert fh.read().splitlines()[1].split(",")[4] == "5.00000000000e+00"

    def test_sweep_notes_reach_stderr_as_bare_lines(self, tmp_path, capsys):
        for _ in range(2):  # the handler is attached once per run, not stacked
            code = cli.main(["nmm", "--f", "0.1", "--eps", "0.05", "--horizon", "5",
                             "--out", str(tmp_path / "short")])
            assert code == 0
            assert capsys.readouterr().err == (
                "nmm: f=0.1: effective horizon 5 is short relative to 1/gamma_eff=10\n")
