"""Experiment harness: flat-file run configs, sweeps, CSV emission.

Configs are flat key=value text ('#' starts a comment); every key is a
field of RunConfig and unknown keys are rejected. All numeric CSV cells
are printed with 12 significant digits and '\n' line endings so reruns
are byte-identical. Each CSV gets a '<name>.csv.meta' companion holding
the fully resolved configuration and derived quantities.

Every experiment but evolve and convergence is one f sweep
(:func:`run_f_sweep`): a row per f, the f column and then the
experiment's column groups, left to right. steady is the steady-state
group, nmm the memory-measure group, sweep both, and eq8check the
closed-form group; each group adds its own .meta derived keys. A config
an experiment cannot run is rejected by RunConfig before any f runs; a
memory-measure f that fails, or whose effective horizon is short, is a
note on the package logger.
"""

import logging
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import entanglement, opalg
from ._version import __version__
from .dynamics import BASE_DT, integrate, steady_state, steps_over, suggest_dt
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
from .nonmarkov import nm_sweep

log = logging.getLogger(__name__)

EXPERIMENTS = ("evolve", "steady", "nmm", "sweep", "eq8check", "convergence")
# a memory-measure run notes an f whose effective horizon falls short of
# this many relaxation times 1 / gamma_eff
HORIZON_WARN_FACTOR = 5.0


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
    store_every: int = 10  # steps at the base step size
    eps: float = 0.01
    horizon: float = 0.0  # 0 = 20 / gamma_eff
    fock_list: str = "3,4"  # convergence experiment
    out: str = ""  # output basename; empty = experiment name

    def __post_init__(self):
        # every way a config is made (defaults, a file, CLI flags through
        # replace) passes here
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for key, val in vars(self).items():
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{key} must be finite, got {val!r}")
        for key, low, closed in _LOWER_BOUNDS:
            val = getattr(self, key)
            if not (val >= low if closed else val > low):  # nan fails too
                raise ConfigError(f"{key} must be {'>=' if closed else '>'} {low}, got {val!r}")
        if not all(v >= 2 and v.is_integer() for v in _parse_float_list(self.fock_list, "fock")):
            raise ConfigError(f"fock_list must be whole numbers >= 2, got {self.fock_list!r}")
        # the builders alone know which parameters each model kind takes;
        # a model that builds at f = 1 builds at every f > 0
        try:
            model_for(self, 1.0)
        except DimerNMError as exc:
            raise ConfigError(str(exc)) from exc
        # the memory measure's default horizon is 20 / gamma_eff, and the
        # closed form holds for identical sites and modes only
        if self.experiment in ("nmm", "sweep") and self.horizon == 0 and gamma_eff_of(self) == 0:
            raise ConfigError("horizon must be set when gamma_eff = 0; its default is 20 / gamma_eff")
        if self.experiment == "eq8check" and not base_params(self).is_symmetric:
            raise ConfigError("eq8check requires symmetric parameters")


# (key, lower bound, whether the bound itself is allowed); horizon = 0
# means "default". kappa1 > 0 because every experiment but eq8check
# takes gamma_eff = 2 g1^2 / kappa1.
_LOWER_BOUNDS = (
    ("n_fock", 2, True), ("n_points", 1, True), ("store_every", 1, True), ("n_th", 0.0, True),
    ("t_end", 0.0, False), ("eps", 0.0, False), ("horizon", 0.0, True),
    ("J", 0.0, False), ("kappa1", 0.0, False), ("kappa2", 0.0, True),
)

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


def parse_config(text: str, base: RunConfig = None, **overrides) -> RunConfig:
    """The config text applied on top of ``base`` when given, then the
    overrides; RunConfig checks only the result of all three."""
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
    return replace(cfg, **{**updates, **overrides})


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


def load_config(path: str, base: RunConfig = None, **overrides) -> RunConfig:
    """Read a config file and apply it as :func:`parse_config` does."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base=base, **overrides)


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
    listed = bool(cfg.f_list.strip())
    fs = _parse_float_list(cfg.f_list, "f") if listed else [cfg.f_min, cfg.f_max]
    if not all(0.0 < f < math.inf for f in fs):  # nan fails too
        raise ConfigError(f"all f values must be finite and positive, got {fs}")
    if not listed:
        space = np.geomspace if cfg.log_spaced else np.linspace
        fs = list(space(cfg.f_min, cfg.f_max, cfg.n_points))
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
    """(store_dt, t_end): store_every base steps, whole intervals to t_end."""
    store_dt = cfg.store_every * BASE_DT
    return store_dt, steps_over(cfg.t_end, store_dt) * store_dt


def _integrate_on_grid(m, base_dt, store_dt, t_end, observables):
    """Integrate from the initial state, storing every store_dt.

    Each storage interval takes the fewest whole steps with none longer
    than suggest_dt of m from base_dt, so stiff runs step finer.
    """
    sub = steps_over(store_dt, suggest_dt(m, base_dt))
    return integrate(m, initial_state(m), t_end, dt=store_dt / sub, store_every=sub,
                     observables=observables)


def _traces(cfg: RunConfig, observables):
    """{observable: (csv, meta)}: time traces of the sector observables,
    one column per f, all from one integration per f.

    The stored time grid is shared across f: store_every counts steps at
    the base step size (see _integrate_on_grid).
    """
    for observable in observables:
        if observable not in _OBS_KEY:
            raise ConfigError(f"unknown trace observable {observable!r}")
    keys = tuple(_OBS_KEY[o] for o in observables)
    fs = resolve_f_values(cfg)
    store_dt, t_end = _trace_grid(cfg)

    def work(f):
        traj = _integrate_on_grid(model_for(cfg, f), BASE_DT, store_dt, t_end, keys)
        return traj.times, traj.observables

    results = [work(f) for f in fs]
    times = results[0][0]
    for t_other, _ in results[1:]:
        if t_other.shape != times.shape or not np.allclose(t_other, times, rtol=0, atol=1e-12):
            raise DimerNMError("trace runs disagree on the stored time grid")

    outputs = {}
    for observable, key in zip(observables, keys):
        header = ["t"] + [f"{observable}_f={_f_label(f)}" for f in fs]
        rows = np.column_stack([times] + [obs[key] for _, obs in results])
        derived = {
            "experiment": "evolve",
            "observable": observable,
            "f_values": ",".join(_f_label(f) for f in fs),
            "gamma_eff": gamma_eff_of(cfg),
            "store_dt": store_dt,
            "t_end_effective": t_end,
        }
        outputs[observable] = render_csv(header, rows), render_meta(cfg, derived)
    return outputs


def _steady_group(cfg: RunConfig, fs):
    """The nullspace steady state at each f, next to the closed form and
    the memoryless baseline. rho_dd_nullspace and singlet_overlap_ss are
    one number (the singlet population), kept twice so the header stays
    stable."""
    # the baseline depends on f only through gamma_eff, which the f
    # family holds fixed, so one solve serves every row
    mk = build_markovian_dephasing_model(gamma_eff_of(cfg), base_params(cfg))
    mk_logneg = entanglement.log_negativity(
        entanglement.reduce_to_dimer(steady_state(mk).rho, mk.dims, mk.basis))
    rows = []
    for f in fs:
        p = apply_f(f, base_params(cfg))
        m = model_for(cfg, f)
        red = entanglement.reduce_to_dimer(steady_state(m).rho, m.dims, m.basis)
        overlap = entanglement.singlet_overlap(red)
        eq8 = steady_state_dd_closed_form(p) if p.is_symmetric else float("nan")
        rows.append([overlap, eq8, entanglement.log_negativity(red), overlap, mk_logneg])
    header = ["rho_dd_nullspace", "rho_dd_eq8", "logneg_ss",
              "singlet_overlap_ss", "logneg_markov_baseline"]
    return header, rows, {"gamma_eff": gamma_eff_of(cfg)}


def _memory_group(cfg: RunConfig, fs):
    """D_NM at each f, every f in one :func:`nm_sweep`.

    An f that fails, or a sweep that fails as a whole, gets nan columns
    and a note. An f whose effective horizon is shorter than
    HORIZON_WARN_FACTOR relaxation times 1 / gamma_eff keeps its columns
    and gets a note too.
    """
    gamma = gamma_eff_of(cfg)
    horizon = cfg.horizon or 20.0 / gamma  # RunConfig rejects both 0
    try:
        swept = nm_sweep([model_for(cfg, f) for f in fs], eps=cfg.eps, horizon=horizon)
    except DimerNMError as exc:
        swept = [exc] * len(fs)
    rows = []
    for f, res in zip(fs, swept):
        note = f"{cfg.experiment}: f={_f_label(f)}: "
        if isinstance(res, DimerNMError):
            log.warning("%s%s", note, res)
            rows.append([math.nan, math.nan, cfg.eps, horizon, math.nan])
            continue
        if gamma > 0 and res.horizon < HORIZON_WARN_FACTOR / gamma:
            log.warning("%seffective horizon %.4g is short relative to 1/gamma_eff=%.4g",
                        note, res.horizon, 1.0 / gamma)
        rows.append([res.d_nm, res.integral, res.eps, res.horizon, len(res.skipped_times)])
    header = ["D_NM", "I", "eps", "horizon", "skipped_times_count"]
    return header, rows, {"gamma_eff": gamma, "horizon_requested": horizon, "eps": cfg.eps}


def _closed_form_group(cfg: RunConfig, fs):
    """Nullspace steady state against the two-level-mode closed form, at
    n_fock = 2, the truncation where the closed form is exact."""
    rows = []
    for f in fs:
        p = replace(apply_f(f, base_params(cfg)), n_fock=2)
        m = build_symmetric_model(p)
        red = entanglement.reduce_to_dimer(steady_state(m).rho, m.dims, m.basis)
        dd = entanglement.singlet_overlap(red)
        eq8 = steady_state_dd_closed_form(p)
        err = abs(dd - eq8)
        rows.append([dd, eq8, err, err / abs(eq8)])
    return ["rho_dd_nullspace", "rho_dd_eq8", "abs_error", "rel_error"], rows, {"n_fock_forced": 2}


# each f-sweep experiment's column groups, left to right after f
_GROUPS = {
    "steady": (_steady_group,),
    "nmm": (_memory_group,),
    "sweep": (_steady_group, _memory_group),
    "eq8check": (_closed_form_group,),
}


def run_f_sweep(cfg: RunConfig):
    """(csv, meta) of an f-sweep experiment: one row per f, the f column
    and then each of the experiment's column groups; the .meta derived
    keys are the union of the groups'."""
    fs = resolve_f_values(cfg)
    header, rows, derived = ["f"], [[f] for f in fs], {"experiment": cfg.experiment}
    for group in _GROUPS[cfg.experiment]:
        cols, cells, keys = group(cfg, fs)
        header += cols
        for row, part in zip(rows, cells):
            row += part
        derived.update(keys)
    return render_csv(header, rows), render_meta(cfg, derived)


def run_convergence(cfg: RunConfig):
    """Truncation and step-size refinement at the most demanding f.

    Block 'fock' varies the mode cutoff at the base step BASE_DT; block
    'dt' halves the step at the base cutoff. delta_final_logneg is the
    change from the previous row within a block.
    """
    fs = resolve_f_values(cfg)
    f = fs[0]
    focks = [int(v) for v in _parse_float_list(cfg.fock_list, "fock")]
    store_dt, t_end = _trace_grid(cfg)

    def measure(n_fock, dt):
        traj = _integrate_on_grid(model_for(cfg, f, n_fock=n_fock), dt, store_dt, t_end,
                                  ("log_negativity", "mode_excitation"))
        return (traj.observables["log_negativity"][-1],
                float(traj.observables["mode_excitation"].max()))

    tasks = [("fock", nf, BASE_DT) for nf in focks]
    tasks += [("dt", cfg.n_fock, BASE_DT / (2 ** i)) for i in range(2)]
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
        wanted = tuple(_OBS_KEY) if cfg.observable == "both" else (cfg.observable,)
        return {f"{base}_{o}.csv": out for o, out in _traces(cfg, wanted).items()}
    runner = run_convergence if cfg.experiment == "convergence" else run_f_sweep
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
