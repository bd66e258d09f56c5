"""Benchmark workloads and the seeded f values they run at.

A workload is a list of experiments run back to back in one process.
Each experiment is a config text: a shipped preset (or a base text) plus
override lines. Seed 0 runs the preset f values exactly. Any other seed
draws the same number of f values log-uniformly over the experiment's
range, one per equal-log stratum; experiments of one workload that share
a range share the draw. The program only ever sees the config text.
"""

import math
import random
from dataclasses import dataclass

WHY = {
    "memory_sweep": "fig2 D_NM sweep, 15 f: map tomography, nm_measure and the harness "
                    "thread pool; no steady_state or kernels",
    "traces": "fig1, fig3 and eq8 presets: integrate validation and entanglement "
              "observables on the aggregated engine; no tomography or direct stepping",
    "full_model": "asymmetric full model at one f: steady_state on a 2500^2 generator "
                  "and direct kernels stepping at d=72; bypasses the thread pool",
}

# full model, g2 = 2 g1, so the symmetric reduction does not apply
_FULL_BASE = "model=full\ng1=1.0\ng2=2.0\n"


@dataclass(frozen=True)
class Experiment:
    label: str  # output basename and reference file prefix
    kind: str  # harness experiment name
    preset: str  # shipped preset name, or "" to start from base
    base: str  # config text used when there is no preset
    f_range: tuple  # (lo, hi) for seeded draws
    n_f: int  # number of f values: one operation each
    observable: str = ""  # evolve only: the one trace CSV it writes
    f_seed0: tuple = ()  # f_list for seed 0 when the preset has none

    def overrides(self, f_values):
        """Config lines applied on top of the preset (or the whole config)."""
        lines = [self.base.rstrip("\n"), f"out={self.label}"]
        if f_values:
            lines.append("f_list=" + ",".join(repr(f) for f in f_values))
        return "\n".join(line for line in lines if line) + "\n"


WORKLOADS = {
    "memory_sweep": (
        Experiment("fig2", "nmm", "fig2", "", (0.0035, 3.6554), 15),
    ),
    "traces": (
        Experiment("fig1", "evolve", "fig1", "", (0.01, 100.0), 4, "inversion"),
        Experiment("fig3", "evolve", "fig3", "", (0.01, 100.0), 4, "logneg"),
        Experiment("eq8", "eq8check", "eq8", "", (0.01, 1.0), 3),
    ),
    "full_model": (
        Experiment("fm_steady", "steady", "", _FULL_BASE + "experiment=steady\nn_fock=5\n",
                   (0.01, 1.0), 1, f_seed0=(0.1,)),
        Experiment("fm_evolve", "evolve", "",
                   _FULL_BASE + "experiment=evolve\nobservable=logneg\nn_fock=6\n"
                   "t_end=2\nstore_every=100\n",
                   (0.01, 1.0), 1, "logneg", (0.1,)),
    ),
}


def stratified_log_uniform(rng, lo, hi, n):
    """One log-uniform draw from each of n equal-log strata of [lo, hi]."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + rng.random()) / n) for i in range(n)]


def f_values(workload, seed):
    """label -> f list to override, or () to keep the preset's own grid."""
    rng = random.Random(f"{workload}/{seed}")
    draws, out = {}, {}
    for exp in WORKLOADS[workload]:
        if seed == 0:
            out[exp.label] = exp.f_seed0
            continue
        key = (exp.f_range, exp.n_f)
        if key not in draws:
            draws[key] = stratified_log_uniform(rng, *exp.f_range, exp.n_f)
        out[exp.label] = tuple(draws[key])
    return out
