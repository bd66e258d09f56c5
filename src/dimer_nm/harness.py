"""Experiment harness: flat-file run configs, sweeps, CSV emission.

Configs are flat key=value text ('#' starts a comment); every key is a
field of RunConfig and unknown keys are rejected. All numeric CSV cells
are printed with 12 significant digits and '\n' line endings so reruns
are byte-identical. Each CSV gets a '<name>.csv.meta' companion holding
the fully resolved configuration and derived quantities.
"""

import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import entanglement, opalg
from ._version import __version__
from .dynamics import BASE_DT, integrate, steady_state, suggest_dt
from .errors import ConfigError, DimerNMError
from .model import (
    DELOCALIZE,
    DELOCALIZED_BASIS,
    ModelParams,
    apply_f,
    build_full_model,
    build_global_mode_model,
    build_markovian_dephasing_model,
    build_symmetric_model,
    effective_dephasing_rate,
    environment_state,
    steady_state_dd_closed_form,
)
from .nonmarkov import nm_for_model

EXPERIMENTS = ("evolve", "steady", "nmm", "sweep", "eq8check", "convergence")


@dataclass
class RunConfig:
    experiment: str = "evolve"
    observable: str = "both"  # evolve only: inversion | logneg | both
    model: str = "auto"  # auto | symmetric | full | global
    omega1: float = 0.0
    omega2: float = 0.0
    J: float = 1.0
    Omega1: float = 2.0
    Omega2: float = 2.0
    g1: float = 1.0  # couplings at f=1
    g2: float = 1.0
    kappa1: float = 20.0  # linewidths at f=1
    kappa2: float = 20.0
    n_fock: int = 3
    n_th: float = 0.0
    f_list: str = ""  # comma-separated; empty -> use the range below
    f_min: float = 0.0035
    f_max: float = 3.6554
    n_points: int = 15
    log_spaced: bool = True
    t_end: float = 50.0
    dt: float = 0.0  # base step; 0 = dynamics.BASE_DT
    store_every: int = 10  # steps at the base step size
    eps: float = 0.01
    horizon: float = 0.0  # 0 = 20 / gamma_eff
    fock_list: str = "3,4"  # convergence experiment
    out: str = ""  # output basename; empty = experiment name


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOL_TRUE = {"true", "1", "yes", "on"}
_BOOL_FALSE = {"false", "0", "no", "off"}


def _parse_value(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if ftype in ("bool", bool):
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if ftype in ("int", int):
            return int(raw)
        if ftype in ("float", float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config(text: str, base: RunConfig = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        updates[key] = _parse_value(key, raw)
    cfg = replace(cfg, **updates)
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{f.name}={val}")
    return "\n".join(lines) + "\n"


def load_config(path: str, base: RunConfig = None) -> RunConfig:
    """Read a config file, applied on top of ``base`` when given."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base=base)


def _parse_float_list(raw: str, what: str):
    try:
        vals = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {raw!r}: {exc}") from exc
    if not vals:
        raise ConfigError(f"empty {what} list")
    return vals


def resolve_f_values(cfg: RunConfig):
    """Sorted ascending f grid from either the explicit list or the range."""
    if cfg.f_list.strip():
        fs = _parse_float_list(cfg.f_list, "f")
    else:
        if cfg.f_min <= 0 or cfg.f_max <= 0:
            raise ConfigError("all f values must be positive")
        if cfg.log_spaced:
            fs = list(np.geomspace(cfg.f_min, cfg.f_max, cfg.n_points))
        else:
            fs = list(np.linspace(cfg.f_min, cfg.f_max, cfg.n_points))
    if any(f <= 0 for f in fs):
        raise ConfigError("all f values must be positive")
    return sorted(fs)


def base_params(cfg: RunConfig) -> ModelParams:
    return ModelParams(
        omega1=cfg.omega1, omega2=cfg.omega2, J=cfg.J,
        Omega1=cfg.Omega1, Omega2=cfg.Omega2, g1=cfg.g1, g2=cfg.g2,
        kappa1=cfg.kappa1, kappa2=cfg.kappa2,
        n_fock=cfg.n_fock, n_th=cfg.n_th,
    )


def model_for(cfg: RunConfig, f: float, n_fock=None):
    p = apply_f(f, base_params(cfg))
    if n_fock is not None:
        p = replace(p, n_fock=n_fock)
    kind = cfg.model
    if kind == "auto":
        kind = "symmetric" if p.is_symmetric else "full"
    if kind == "symmetric":
        return build_symmetric_model(p)
    if kind == "full":
        return build_full_model(p)
    if kind == "global":
        return build_global_mode_model(p)
    raise ConfigError(f"unknown model kind {cfg.model!r}")


def initial_state(model):
    """Excitation on site 1 (|10>), modes in their thermal/vacuum state."""
    exc = np.diag([0.0, 1.0]).astype(complex)
    if model.basis == DELOCALIZED_BASIS:
        exc = DELOCALIZE @ exc @ DELOCALIZE
    return opalg.kron(exc, environment_state(model))


def gamma_eff_of(cfg: RunConfig) -> float:
    """Site-1 effective dephasing rate; invariant along the f family."""
    return effective_dephasing_rate(cfg.g1, cfg.kappa1)


# ---------------------------------------------------------------- CSV

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    return f"{xf:.11e}"


def render_csv(header, rows) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_fmt(x) for x in row))
    return "\n".join(out) + "\n"


def render_meta(cfg: RunConfig, derived: dict) -> str:
    lines = ["# resolved configuration"]
    lines.extend(serialize_config(cfg).splitlines())
    lines.append("# derived")
    merged = {"version": __version__, **derived}
    lines.extend(f"{k}={_fmt(v)}" for k, v in sorted(merged.items()))
    return "\n".join(lines) + "\n"


def _f_label(f: float) -> str:
    return format(f, ".6g")


# ---------------------------------------------------------- experiments

_OBS_KEY = {"inversion": "inversion", "logneg": "log_negativity"}


def _trace_grid(cfg: RunConfig):
    base_dt = cfg.dt if cfg.dt > 0 else BASE_DT
    store_dt = cfg.store_every * base_dt
    n_blocks = max(1, math.ceil(cfg.t_end / store_dt - 1e-9))
    return base_dt, store_dt, n_blocks * store_dt


def _integrate_on_grid(m, base_dt, store_dt, t_end, observables):
    """Integrate from the initial state, storing every store_dt.

    The run steps at suggest_dt of m from base_dt, rounded to a whole
    number of steps per storage interval, so stiff runs step finer.
    """
    sub = max(1, round(store_dt / suggest_dt(m, base_dt)))
    return integrate(m, initial_state(m), t_end, dt=store_dt / sub, store_every=sub,
                     observables=observables)


def run_trace(cfg: RunConfig, observable: str):
    """Time traces of one sector observable, one column per f.

    The stored time grid is shared across f: store_every counts steps at
    the base step size (see _integrate_on_grid).
    """
    if observable not in _OBS_KEY:
        raise ConfigError(f"unknown trace observable {observable!r}")
    obs = _OBS_KEY[observable]
    fs = resolve_f_values(cfg)
    base_dt, store_dt, t_end = _trace_grid(cfg)

    def work(f):
        traj = _integrate_on_grid(model_for(cfg, f), base_dt, store_dt, t_end, (obs,))
        return traj.times, traj.observables[obs]

    results = [work(f) for f in fs]
    times = results[0][0]
    for t_other, _ in results[1:]:
        if not np.allclose(t_other, times, rtol=0, atol=1e-12):
            raise DimerNMError("trace runs disagree on the stored time grid")

    header = ["t"] + [f"{observable}_f={_f_label(f)}" for f in fs]
    rows = np.column_stack([times] + [vals for _, vals in results])
    derived = {
        "experiment": "evolve",
        "observable": observable,
        "f_values": ",".join(_f_label(f) for f in fs),
        "gamma_eff": gamma_eff_of(cfg),
        "store_dt": store_dt,
        "t_end_effective": t_end,
    }
    return render_csv(header, rows), render_meta(cfg, derived)


def _markov_baseline_logneg(cfg: RunConfig) -> float:
    """Steady log negativity of the memoryless baseline at gamma_eff.

    The baseline depends on f only through gamma_eff, which the f family
    holds fixed, so one solve serves a whole sweep.
    """
    mk = build_markovian_dephasing_model(gamma_eff_of(cfg), base_params(cfg))
    mk_red = entanglement.reduce_to_dimer(steady_state(mk).rho, mk.dims, mk.basis)
    return entanglement.log_negativity(mk_red)


def _steady_row(cfg: RunConfig, f: float, mk_logneg: float):
    p = apply_f(f, base_params(cfg))
    m = model_for(cfg, f)
    red = entanglement.reduce_to_dimer(steady_state(m).rho, m.dims, m.basis)
    overlap = entanglement.singlet_overlap(red)
    logneg = entanglement.log_negativity(red)
    eq8 = steady_state_dd_closed_form(p) if p.is_symmetric else float("nan")
    return [overlap, eq8, logneg, overlap, mk_logneg]


# rho_dd_nullspace and singlet_overlap_ss are one number (the singlet
# population of the steady state), kept twice so the header stays stable
_STEADY_COLS = [
    "rho_dd_nullspace", "rho_dd_eq8", "logneg_ss",
    "singlet_overlap_ss", "logneg_markov_baseline",
]


def run_steady_sweep(cfg: RunConfig):
    fs = resolve_f_values(cfg)
    mk_logneg = _markov_baseline_logneg(cfg)
    rows = [[f] + _steady_row(cfg, f, mk_logneg) for f in fs]
    derived = {"experiment": "steady", "gamma_eff": gamma_eff_of(cfg)}
    return render_csv(["f"] + _STEADY_COLS, rows), render_meta(cfg, derived)


def _nmm_row(cfg: RunConfig, f: float, horizon: float, gamma: float):
    try:
        m = model_for(cfg, f)
        res = nm_for_model(m, eps=cfg.eps, horizon=horizon, gamma_eff=gamma)
    except DimerNMError as exc:
        nan = float("nan")
        return [nan, nan, cfg.eps, horizon, nan], f"f={_f_label(f)}: {exc}"
    note = None
    if res.horizon_warning:
        note = (f"f={_f_label(f)}: effective horizon {res.horizon:.4g} is short "
                f"relative to 1/gamma_eff={1.0 / gamma:.4g}")
    return [res.d_nm, res.integral, res.eps, res.horizon, len(res.skipped_times)], note


_NMM_COLS = ["D_NM", "I", "eps", "horizon", "skipped_times_count"]


def run_nmm_sweep(cfg: RunConfig):
    """Memory-measure sweep; per-f failures become nan rows, not aborts."""
    fs = resolve_f_values(cfg)
    gamma = gamma_eff_of(cfg)
    horizon = cfg.horizon if cfg.horizon > 0 else 20.0 / gamma

    rows = []
    for f in fs:
        row, note = _nmm_row(cfg, f, horizon, gamma)
        rows.append([f] + row)
        if note:
            print(f"nmm: {note}", file=sys.stderr)
    derived = {
        "experiment": "nmm", "gamma_eff": gamma,
        "horizon_requested": horizon, "eps": cfg.eps,
    }
    return render_csv(["f"] + _NMM_COLS, rows), render_meta(cfg, derived)


def run_sweep(cfg: RunConfig):
    """Steady-state and memory-measure columns merged on one f grid."""
    fs = resolve_f_values(cfg)
    gamma = gamma_eff_of(cfg)
    horizon = cfg.horizon if cfg.horizon > 0 else 20.0 / gamma

    mk_logneg = _markov_baseline_logneg(cfg)
    rows = []
    for f in fs:
        row, note = _nmm_row(cfg, f, horizon, gamma)
        rows.append([f] + _steady_row(cfg, f, mk_logneg) + row)
        if note:
            print(f"sweep: {note}", file=sys.stderr)
    header = ["f"] + _STEADY_COLS + _NMM_COLS
    derived = {
        "experiment": "sweep", "gamma_eff": gamma,
        "horizon_requested": horizon, "eps": cfg.eps,
    }
    return render_csv(header, rows), render_meta(cfg, derived)


def run_eq8check(cfg: RunConfig):
    """Nullspace steady state against the two-level-mode closed form.

    Forces n_fock = 2, the truncation where the closed form is exact.
    """
    fs = resolve_f_values(cfg)
    if not base_params(cfg).is_symmetric:
        raise ConfigError("eq8check requires symmetric parameters")

    def work(f):
        p = replace(apply_f(f, base_params(cfg)), n_fock=2)
        m = build_symmetric_model(p)
        red = entanglement.reduce_to_dimer(steady_state(m).rho, m.dims, m.basis)
        dd = entanglement.singlet_overlap(red)
        eq8 = steady_state_dd_closed_form(p)
        err = abs(dd - eq8)
        return [f, dd, eq8, err, err / abs(eq8)]

    rows = [work(f) for f in fs]
    header = ["f", "rho_dd_nullspace", "rho_dd_eq8", "abs_error", "rel_error"]
    derived = {"experiment": "eq8check", "n_fock_forced": 2}
    return render_csv(header, rows), render_meta(cfg, derived)


def run_convergence(cfg: RunConfig):
    """Truncation and step-size refinement at the most demanding f.

    Block 'fock' varies the mode cutoff at the base step; block 'dt'
    halves the step at the base cutoff. delta_final_logneg is the change
    from the previous row within a block.
    """
    fs = resolve_f_values(cfg)
    f = fs[0]
    focks = [int(v) for v in _parse_float_list(cfg.fock_list, "fock")]
    base_dt, store_dt, t_end = _trace_grid(cfg)

    def measure(n_fock, dt):
        traj = _integrate_on_grid(model_for(cfg, f, n_fock=n_fock), dt, store_dt, t_end,
                                  ("log_negativity", "mode_excitation"))
        return (traj.observables["log_negativity"][-1],
                float(traj.observables["mode_excitation"].max()))

    tasks = [("fock", nf, base_dt) for nf in focks]
    tasks += [("dt", cfg.n_fock, base_dt / (2 ** i)) for i in range(2)]
    results = [measure(nf, dt) for _, nf, dt in tasks]

    rows, prev_block, prev_val = [], None, None
    for (block, nf, dt), (logneg, nmax) in zip(tasks, results):
        delta = float("nan") if block != prev_block else logneg - prev_val
        rows.append([block, nf, dt, logneg, nmax, delta])
        prev_block, prev_val = block, logneg
    header = ["block", "n_fock", "dt", "final_logneg",
              "max_mode_excitation", "delta_final_logneg"]
    derived = {"experiment": "convergence", "f": f, "t_end_effective": t_end}
    return render_csv(header, rows), render_meta(cfg, derived)


def run_experiment(cfg: RunConfig) -> dict:
    """Run the configured experiment; returns {filename: (csv, meta)}."""
    base = cfg.out or cfg.experiment
    if base.endswith(".csv"):
        base = base[:-4]
    if cfg.experiment == "evolve":
        outputs = {}
        if cfg.observable in ("inversion", "both"):
            outputs[f"{base}_inversion.csv"] = run_trace(cfg, "inversion")
        if cfg.observable in ("logneg", "both"):
            outputs[f"{base}_logneg.csv"] = run_trace(cfg, "logneg")
        if not outputs:
            raise ConfigError(f"unknown observable {cfg.observable!r}")
        return outputs
    runner = {
        "steady": run_steady_sweep,
        "nmm": run_nmm_sweep,
        "sweep": run_sweep,
        "eq8check": run_eq8check,
        "convergence": run_convergence,
    }[cfg.experiment]
    return {f"{base}.csv": runner(cfg)}


def write_outputs(outputs: dict, directory: str = ".") -> list:
    written = []
    for name, (csv_text, meta_text) in sorted(outputs.items()):
        path = os.path.join(directory, name)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        with open(path + ".meta", "w", encoding="utf-8", newline="") as fh:
            fh.write(meta_text)
        written.append(path)
    return written


def count_envelope_maxima(times, values):
    """Count local maxima of the |values| envelope.

    Peaks of |values| are collected first; the envelope count is the
    number of local maxima of the peak-height sequence, including the
    opening peak when it dominates its successor. A damped oscillation
    without revivals scores 1; beating (collapse and revival) scores 2
    or more. Returns (count, times_of_envelope_maxima).
    """
    x = np.abs(np.asarray(values, dtype=float))
    t = np.asarray(times, dtype=float)
    peak_idx = [
        i for i in range(1, x.shape[0] - 1)
        if x[i] >= x[i - 1] and x[i] > x[i + 1]
    ]
    if not peak_idx:
        return 0, []
    heights = x[peak_idx]
    count, locs = 0, []
    if heights.shape[0] == 1 or heights[0] > heights[1]:
        count += 1
        locs.append(float(t[peak_idx[0]]))
    for k in range(1, heights.shape[0] - 1):
        if heights[k] >= heights[k - 1] and heights[k] > heights[k + 1]:
            count += 1
            locs.append(float(t[peak_idx[k]]))
    return count, locs
