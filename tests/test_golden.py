"""Golden outputs: the shipped presets and the full- and global-mode
runs reproduce the recorded files byte for byte.

perfbench/reference/ holds the seed-0 CSVs the benchmark checks against;
tests/golden/ holds the .meta companions of the preset runs and the CSV
of a global-mode steady run. Regenerating them here means a change to a
model builder, the step rule, the engines or the output format fails
tier-1, not only the benchmark. The files are only read.
"""

import functools
import os

import pytest

from dimer_nm import cli, dynamics
from dimer_nm.harness import parse_config, resolve_f_values, run_experiment

TESTS = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(os.path.dirname(TESTS), "perfbench", "reference")
GOLDEN = os.path.join(TESTS, "golden")


def read(directory, name):
    with open(os.path.join(directory, name), encoding="utf-8", newline="") as fh:
        return fh.read()


def reference(name):
    return read(REFERENCE, name)


@functools.lru_cache(maxsize=None)
def run_outputs(preset, extra=""):
    """{name: (csv, meta)} of one preset run, computed once per session."""
    cfg = parse_config(f"{cli.preset_text(preset)}\nout={preset}\n{extra}")
    return run_experiment(cfg)


def run_preset(preset, extra=""):
    return {name: csv_text for name, (csv_text, _) in run_outputs(preset, extra).items()}


def fig2_three_rows():
    """The f_list override of three of fig2's fifteen f values (both ends
    and the middle), and those values. Each row depends on its own f
    only, and three keep the cost near a second."""
    fs = resolve_f_values(parse_config(cli.preset_text("fig2")))
    picked = [fs[0], fs[len(fs) // 2], fs[-1]]
    return "f_list=" + ",".join(repr(float(f)) for f in picked), fs, picked


@pytest.mark.parametrize("preset, name", [
    ("fig1", "fig1_inversion.csv"),
    ("fig3", "fig3_logneg.csv"),
    ("eq8", "eq8.csv"),
])
def test_preset_csv_is_byte_identical(preset, name):
    assert run_preset(preset) == {name: reference(name)}


def test_fig2_rows_are_byte_identical():
    extra, fs, picked = fig2_three_rows()
    out = run_preset("fig2", extra)
    lines = reference("fig2.csv").splitlines(keepends=True)
    expect = [lines[0]] + [lines[1 + fs.index(f)] for f in picked]
    assert out == {"fig2.csv": "".join(expect)}


@pytest.mark.parametrize("name, value", [("_CHUNK", 37), ("_STACK_BYTES", 16 * 6 ** 4)])
def test_fig2_rows_do_not_depend_on_the_block_size(monkeypatch, name, value):
    # 37-mark blocks put the rates' block seams elsewhere on the grid, and
    # parts of one d = 6 stride operator's bytes step each f alone
    monkeypatch.setattr(dynamics, name, value)
    extra, fs, picked = fig2_three_rows()
    cfg = parse_config(f"{cli.preset_text('fig2')}\nout=fig2\n{extra}")
    lines = reference("fig2.csv").splitlines(keepends=True)
    expect = [lines[0]] + [lines[1 + fs.index(f)] for f in picked]
    assert run_experiment(cfg)["fig2.csv"][0] == "".join(expect)


@pytest.mark.parametrize("preset, name", [
    ("fig1", "fig1_inversion.csv"),
    ("fig3", "fig3_logneg.csv"),
    ("eq8", "eq8.csv"),
    ("fig2", "fig2.csv"),
])
def test_meta_is_byte_identical(preset, name):
    extra = fig2_three_rows()[0] if preset == "fig2" else ""
    metas = {n: meta for n, (_, meta) in run_outputs(preset, extra).items()}
    assert metas == {name: read(GOLDEN, name + ".meta")}


# the benchmark's seed-0 full-model configs, spelled out: g2 = 2 g1, so
# the symmetric reduction does not apply
FULL_MODEL_RUNS = {
    "fm_steady.csv": "model=full\ng1=1.0\ng2=2.0\nexperiment=steady\nn_fock=5\n"
                     "out=fm_steady\nf_list=0.1\n",
    "fm_evolve_logneg.csv": "model=full\ng1=1.0\ng2=2.0\nexperiment=evolve\n"
                            "observable=logneg\nn_fock=6\nt_end=2\nstore_every=100\n"
                            "out=fm_evolve\nf_list=0.1\n",
}


def csv_of(text):
    return {name: csv_text for name, (csv_text, _) in run_experiment(parse_config(text)).items()}


@pytest.mark.parametrize("name", sorted(FULL_MODEL_RUNS))
def test_full_model_csv_is_byte_identical(name):
    assert csv_of(FULL_MODEL_RUNS[name]) == {name: reference(name)}


def test_global_mode_csv_is_byte_identical():
    text = "experiment=steady\nmodel=global\ng2=2\nf_list=0.01,0.1,1\nout=global_steady\n"
    assert csv_of(text) == {"global_steady.csv": read(GOLDEN, "global_steady.csv")}
