"""Experiment harness: flat-file run configs, sweeps, CSV emission.

Configs are flat key=value text ('#' starts a comment); every key is a
field of RunConfig and unknown keys are rejected. RunConfig is the f = 1
ModelParams, whose fields are the physics keys, plus the run keys; it is
frozen, so a run only sees a config its checks passed, and
:func:`base_params` hands the physics on as a plain ModelParams. All
numeric CSV cells are printed with 12 significant digits and '\n' line
endings so reruns are byte-identical. Each CSV gets a '<name>.csv.meta'
companion holding the fully resolved configuration, physics keys first,
and derived quantities.

Every experiment but evolve and convergence is one f sweep
(:func:`run_f_sweep`): a row per f, the f column and then the
experiment's column groups, left to right. steady is the steady-state
group, nmm the memory-measure group, sweep both, and eq8check the
closed-form group; each group adds its own .meta derived keys. evolve
and convergence store every run on one grid through :func:`_trace_runs`.
A config an experiment cannot run, an f list :func:`resolve_f_values`
rejects or a grid past MAX_GRID_POINTS among them, is rejected by
RunConfig when it is built; a memory-measure f that fails, or whose
effective horizon is short, is a note on the package logger.
"""

import logging
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import entanglement, opalg
from ._version import __version__
from .dynamics import (BASE_DT, MAX_GRID_POINTS, grid_steps, steady_state, substeps, trace_stack,
                       uniform_grid)
from .errors import ConfigError, DimerNMError
from .model import (
    SITE_BASIS,
    ModelParams,
    apply_f,
    build_full_model,
    build_global_mode_model,
    build_markovian_dephasing_model,
    build_symmetric_model,
    check_lower_bounds,
    effective_dephasing_rate,
    environment_state,
    steady_state_dd_closed_form,
)
from .nonmarkov import nm_sweep

log = logging.getLogger(__name__)

EXPERIMENTS = ("evolve", "steady", "nmm", "sweep", "eq8check", "convergence")
OBSERVABLES = ("inversion", "logneg", "both")  # evolve's traces
# a memory-measure run notes an f whose effective horizon falls short of
# this many relaxation times 1 / gamma_eff
HORIZON_WARN_FACTOR = 5.0


@dataclass(frozen=True)
class RunConfig(ModelParams):
    """A run's keys: ModelParams's, inherited, at f = 1, then the run keys below."""

    experiment: str = "evolve"
    observable: str = "both"  # evolve only: one of OBSERVABLES
    model: str = "auto"  # auto | symmetric | full | global
    f_list: str = ""  # comma-separated; empty -> use the range below
    f_min: float = 0.0035
    f_max: float = 3.6554
    n_points: int = 15  # log-spaced from f_min to f_max
    t_end: float = 50.0
    store_every: int = 10  # steps at the base step size
    eps: float = 0.01
    horizon: float = 0.0  # 0 = 20 / gamma_eff
    out: str = ""  # output basename; empty = experiment name

    def __post_init__(self):
        # every way a config is made (defaults, a file, CLI flags through
        # replace) passes here. It stands in for ModelParams's own check,
        # whose bounds reach it through model_for(self, 1.0) below
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.observable not in OBSERVABLES:
            raise ConfigError(f"observable must be one of {OBSERVABLES}, got {self.observable!r}")
        for key, val in vars(self).items():
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{key} must be finite, got {val!r}")
            if isinstance(val, int) and abs(val) > sys.float_info.max:  # no float holds it
                raise ConfigError(f"{key} must be within float range, "
                                  f"got a {val.bit_length()}-bit integer")
        check_lower_bounds(self, _LOWER_BOUNDS, ConfigError)
        if self.n_points > MAX_GRID_POINTS:  # an f grid is capped as every grid is
            raise ConfigError(f"n_points must be <= {MAX_GRID_POINTS}, got {self.n_points}")
        resolve_f_values(self)
        # the builders alone know which parameters each model kind takes;
        # a model that builds at f = 1 builds at every f > 0, and
        # ModelParams bounds the physics keys. convergence also runs the
        # refined cutoff n_fock + 1
        try:
            model_for(self, 1.0)
            if self.experiment == "convergence":
                model_for(self, 1.0, n_fock=self.n_fock + 1)
        except DimerNMError as exc:
            raise ConfigError(str(exc)) from exc
        # the memory measure's default horizon is 20 / gamma_eff, every
        # sampled run's grid is capped (grid_steps), and eq8check runs the
        # symmetric model where ModelParams.has_closed_form
        if self.experiment in ("nmm", "sweep") and self.horizon == 0 and gamma_eff_of(self) == 0:
            raise ConfigError("horizon must be set when gamma_eff = 0; "
                              "its default is 20 / gamma_eff")
        if self.experiment in ("nmm", "sweep", "evolve", "convergence"):
            keys, horizon, eps = _grid_of(self)
            try:
                grid_steps(horizon, eps)
            except DimerNMError as exc:
                raise ConfigError(f"{keys}: {exc}") from exc
        if self.experiment == "eq8check" and self.model not in ("auto", "symmetric"):
            raise ConfigError(f"eq8check runs the symmetric model only, got {self.model!r}")
        if self.experiment == "eq8check" and not self.has_closed_form:
            raise ConfigError("eq8check requires symmetric parameters at zero temperature")


# the run keys' (key, lower bound, whether the bound itself is allowed);
# horizon = 0 means "default". kappa1 > 0 because every experiment but
# eq8check takes gamma_eff = 2 g1^2 / kappa1.
_LOWER_BOUNDS = (
    ("n_points", 1, True), ("store_every", 1, True), ("t_end", 0.0, False),
    ("eps", 0.0, False), ("horizon", 0.0, True), ("kappa1", 0.0, False),
)

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    try:
        return _FIELD_TYPES[key](raw.strip())
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
        if isinstance(val, float):
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


def _parse_float_list(raw: str):
    try:
        vals = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad f list {raw!r}: {exc}") from exc
    if not vals:
        raise ConfigError("empty f list")
    return vals


def resolve_f_values(cfg: RunConfig):
    """Sorted ascending f grid from either the explicit list or the range.

    A repeated f would run twice, so it is a ConfigError. evolve heads
    each column with its f to 6 significant digits (:func:`_f_label`),
    so its values must differ in that label too. RunConfig resolves its
    grid when it is built, so every config resolves.
    """
    listed = bool(cfg.f_list.strip())
    fs = _parse_float_list(cfg.f_list) if listed else [cfg.f_min, cfg.f_max]
    if not all(0.0 < f < math.inf for f in fs):  # nan fails too
        raise ConfigError(f"all f values must be finite and positive, got {fs}")
    if not listed:
        fs = list(np.geomspace(cfg.f_min, cfg.f_max, cfg.n_points))
    fs = sorted(fs)
    # sorted, so values that are or print alike are neighbours
    for a, b in zip(fs, fs[1:]):
        if cfg.experiment == "evolve" and _f_label(a) == _f_label(b):
            raise ConfigError(f"two f values share the column label f={_f_label(a)}")
        if a == b:
            raise ConfigError(f"f value {float(a)!r} is repeated")
    return fs


def base_params(cfg: RunConfig) -> ModelParams:
    """cfg's f = 1 physics as a plain ModelParams, so that apply_f and
    replace build ModelParams and never re-run RunConfig's checks."""
    return ModelParams(**{f.name: getattr(cfg, f.name) for f in fields(ModelParams)})


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
    exc = entanglement.DimerState(np.diag([0.0, 1.0]).astype(complex), SITE_BASIS)
    return opalg.kron(entanglement.basis_change(exc, model.basis).rho, environment_state(model))


def gamma_eff_of(cfg: RunConfig) -> float:
    """Site-1 effective dephasing rate; invariant along the f family."""
    return effective_dephasing_rate(cfg.g1, cfg.kappa1)


def _grid_of(cfg: RunConfig):
    """(keys, horizon, eps) of a sampled experiment's uniform_grid: the
    memory measure's horizon (20 / gamma_eff when it is 0) and eps, or a
    trace's t_end and store_every base steps; keys names the pair."""
    if cfg.experiment in ("nmm", "sweep"):
        return "horizon / eps", cfg.horizon or 20.0 / gamma_eff_of(cfg), cfg.eps
    return "t_end / (store_every * BASE_DT)", cfg.t_end, cfg.store_every * BASE_DT


# ---------------------------------------------------------------- CSV

def _fmt(x) -> str:
    """One CSV or .meta cell: a float to 12 significant digits (nan, inf,
    -inf as such), an int in full, a str as is."""
    if type(x) is float:
        return f"{x:.11e}"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.11e}"


def render_csv(header, rows) -> str:
    """CSV text of a header and rows of cells; an ndarray row is formatted
    from its Python floats, one row at a time."""
    out = [",".join(header)]
    for row in rows:
        if isinstance(row, np.ndarray):
            row = row.tolist()
        out.append(",".join(map(_fmt, row)))
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


def _trace_runs(cfg: RunConfig, runs, observables):
    """(grid, observables of each run): each (model, base step) of runs
    stepped from the initial state and stored on the grid
    uniform_grid(t_end, store_dt), the t column. Each storage interval
    takes the steps :func:`dynamics.substeps` gives the model from its
    base step, so stiff runs step finer. The runs of equal dims are one
    :func:`dynamics.trace_stack`, taken in the order of their first run."""
    _, t_end, store_dt = _grid_of(cfg)
    grid = uniform_grid(t_end, store_dt)
    groups = {}
    for k, (m, _) in enumerate(runs):
        groups.setdefault(m.dims, []).append(k)
    results = [None] * len(runs)
    for group in groups.values():
        models = [runs[k][0] for k in group]
        dts, subs = zip(*(substeps(runs[k][0], store_dt, runs[k][1]) for k in group))
        trajs = trace_stack(models, [initial_state(m) for m in models], grid[-1], dts, subs,
                            observables=observables)
        for k, traj in zip(group, trajs):
            if traj.times.shape != grid.shape:
                raise DimerNMError("trace runs disagree on the stored time grid")
            results[k] = traj.observables
    return grid, results


def _traces(cfg: RunConfig, observables):
    """{observable: (csv, meta)}: time traces of the sector observables,
    one column per f, all f stepped as one stack on the grid of
    :func:`_trace_runs`.
    """
    keys = tuple(_OBS_KEY[o] for o in observables)
    fs = resolve_f_values(cfg)
    labels = [_f_label(f) for f in fs]
    times, results = _trace_runs(cfg, [(model_for(cfg, f), BASE_DT) for f in fs], keys)

    outputs = {}
    for observable, key in zip(observables, keys):
        header = ["t"] + [f"{observable}_f={label}" for label in labels]
        rows = np.column_stack([times] + [obs[key] for obs in results])
        derived = {
            "experiment": "evolve",
            "observable": observable,
            "f_values": ",".join(labels),
            "gamma_eff": gamma_eff_of(cfg),
            "store_dt": _grid_of(cfg)[2],
            "t_end_effective": times[-1],
        }
        outputs[observable] = render_csv(header, rows), render_meta(cfg, derived)
    return outputs


def _steady_group(cfg: RunConfig, fs):
    """The nullspace steady state at each f, next to the closed form (nan
    where ModelParams.has_closed_form is false) and the memoryless
    baseline. rho_dd_nullspace and singlet_overlap_ss are one number (the
    singlet population), kept twice so the header stays stable."""
    # the baseline depends on f only through gamma_eff, which the f
    # family holds fixed, so one solve serves every row
    mk = build_markovian_dephasing_model(gamma_eff_of(cfg), base_params(cfg))
    mk_logneg = entanglement.log_negativity(
        entanglement.reduce_to_dimer(steady_state(mk), mk.dims, mk.basis))
    rows = []
    for f in fs:
        p = apply_f(f, base_params(cfg))
        m = model_for(cfg, f)
        red = entanglement.reduce_to_dimer(steady_state(m), m.dims, m.basis)
        overlap = entanglement.singlet_overlap(red)
        eq8 = steady_state_dd_closed_form(p) if p.has_closed_form else float("nan")
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
    _, horizon, eps = _grid_of(cfg)
    try:
        swept = nm_sweep([model_for(cfg, f) for f in fs], eps=eps, horizon=horizon)
    except DimerNMError as exc:
        swept = [exc] * len(fs)
    rows = []
    for f, res in zip(fs, swept):
        note = f"{cfg.experiment}: f={_f_label(f)}: "
        if isinstance(res, DimerNMError):
            log.warning("%s%s", note, res)
            rows.append([math.nan, math.nan, eps, horizon, math.nan])
            continue
        if gamma > 0 and res.horizon < HORIZON_WARN_FACTOR / gamma:
            log.warning("%seffective horizon %.4g is short relative to 1/gamma_eff=%.4g",
                        note, res.horizon, 1.0 / gamma)
        rows.append([res.d_nm, res.integral, res.eps, res.horizon, len(res.skipped_times)])
    header = ["D_NM", "I", "eps", "horizon", "skipped_times_count"]
    return header, rows, {"gamma_eff": gamma, "horizon_requested": horizon, "eps": eps}


def _closed_form_group(cfg: RunConfig, fs):
    """Nullspace steady state against the two-level-mode closed form, at
    n_fock = 2, the truncation where the closed form is exact."""
    rows = []
    for f in fs:
        p = replace(apply_f(f, base_params(cfg)), n_fock=2)
        m = build_symmetric_model(p)
        red = entanglement.reduce_to_dimer(steady_state(m), m.dims, m.basis)
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

    Block 'fock' raises the mode cutoff from n_fock to n_fock + 1 at the
    base step BASE_DT; block 'dt' halves the step at n_fock. The first
    row of each block is the one base run, so the four rows take three
    runs. delta_final_logneg is a second row's change from the base run.
    """
    f = resolve_f_values(cfg)[0]
    nf = cfg.n_fock
    times, (base, finer_fock, finer_dt) = _trace_runs(
        cfg, [(model_for(cfg, f, n_fock=n), dt)
              for n, dt in ((nf, BASE_DT), (nf + 1, BASE_DT), (nf, BASE_DT / 2))],
        ("log_negativity", "mode_excitation"))

    rows = []
    for block, n, dt, obs in (("fock", nf, BASE_DT, base), ("fock", nf + 1, BASE_DT, finer_fock),
                              ("dt", nf, BASE_DT, base), ("dt", nf, BASE_DT / 2, finer_dt)):
        logneg = obs["log_negativity"][-1]
        delta = float("nan") if obs is base else logneg - base["log_negativity"][-1]
        rows.append([block, n, dt, logneg, float(obs["mode_excitation"].max()), delta])
    header = ["block", "n_fock", "dt", "final_logneg",
              "max_mode_excitation", "delta_final_logneg"]
    derived = {"experiment": "convergence", "f": f, "t_end_effective": times[-1]}
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
        try:
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_text)
            with open(path + ".meta", "w", encoding="utf-8", newline="") as fh:
                fh.write(meta_text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        written.append(path)
    return written
