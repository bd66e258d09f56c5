"""Golden outputs: the shipped presets reproduce the recorded CSVs byte for byte.

perfbench/reference/ holds the seed-0 CSVs the benchmark checks against.
Regenerating them here means a change to the step rule, the engines or
the output format fails tier-1, not only the benchmark. The files are
only read.
"""

import os

import pytest

from dimer_nm import cli
from dimer_nm.harness import parse_config, resolve_f_values, run_experiment

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "reference")


def reference(name):
    with open(os.path.join(REFERENCE, name), encoding="utf-8", newline="") as fh:
        return fh.read()


def run_preset(preset, extra=""):
    cfg = parse_config(f"{cli.preset_text(preset)}\nout={preset}\n{extra}")
    return {name: csv_text for name, (csv_text, _) in run_experiment(cfg).items()}


@pytest.mark.parametrize("preset, name", [
    ("fig1", "fig1_inversion.csv"),
    ("fig3", "fig3_logneg.csv"),
    ("eq8", "eq8.csv"),
])
def test_preset_csv_is_byte_identical(preset, name):
    assert run_preset(preset) == {name: reference(name)}


def test_fig2_rows_are_byte_identical():
    # three of the fifteen f values (both ends and the middle) keep the
    # cost near a second; each row depends on its own f only
    fs = resolve_f_values(parse_config(cli.preset_text("fig2")))
    picked = [fs[0], fs[len(fs) // 2], fs[-1]]
    out = run_preset("fig2", "f_list=" + ",".join(repr(float(f)) for f in picked))
    lines = reference("fig2.csv").splitlines(keepends=True)
    expect = [lines[0]] + [lines[1 + fs.index(f)] for f in picked]
    assert out == {"fig2.csv": "".join(expect)}
