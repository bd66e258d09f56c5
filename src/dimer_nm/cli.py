"""Command line entry point.

    dimer-nm <experiment|preset> [--config PATH] [--out PATH]
             [--f V] [--fock N] [--dt V] [--tmax V] [--eps V]
             [--horizon V] [--observable X] [--model X]

The positional argument is an experiment name (evolve, steady, nmm,
sweep, eq8check, convergence) or a shipped preset (fig1, fig2, fig3,
eq8). A --config file is applied on top of the preset, and explicit
flags override both. Exit codes: 0 ok, 2 configuration error,
3 numerical failure.
"""

import argparse
import sys
from dataclasses import replace
from importlib import resources

from .errors import ConfigError, DimerNMError
from .harness import (
    EXPERIMENTS,
    RunConfig,
    load_config,
    parse_config,
    run_experiment,
    write_outputs,
)

PRESETS = ("fig1", "fig2", "fig3", "eq8")


def preset_text(name: str) -> str:
    ref = resources.files("dimer_nm.presets").joinpath(f"{name}.cfg")
    try:
        return ref.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"preset {name} not available: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimer-nm",
        description="Dimer dephasing simulator: entanglement and memory measures.",
    )
    parser.add_argument("experiment", help=f"one of {EXPERIMENTS} or preset {PRESETS}")
    parser.add_argument("--config", help="key=value run configuration file")
    parser.add_argument("--out", help="output basename (default: experiment name)")
    parser.add_argument("--f", type=float, help="run a single f value")
    parser.add_argument("--fock", type=int, help="mode truncation override")
    parser.add_argument("--dt", type=float, help="integration step override")
    parser.add_argument("--tmax", type=float, help="trace end time override")
    parser.add_argument("--eps", type=float, help="intermediate-map step override")
    parser.add_argument("--horizon", type=float, help="memory-measure horizon override")
    parser.add_argument("--observable", help="evolve: inversion | logneg | both")
    parser.add_argument("--model", help="auto | symmetric | full | global")
    return parser


def config_from_args(args) -> RunConfig:
    if args.experiment in PRESETS:
        cfg = parse_config(preset_text(args.experiment))
    elif args.experiment in EXPERIMENTS:
        cfg = RunConfig(experiment=args.experiment)
    else:
        raise ConfigError(
            f"unknown experiment {args.experiment!r}; "
            f"expected one of {EXPERIMENTS + PRESETS}"
        )
    if args.config:
        cfg = load_config(args.config, base=cfg)
        if args.experiment in EXPERIMENTS and cfg.experiment != args.experiment:
            cfg = replace(cfg, experiment=args.experiment)

    overrides = {}
    if args.f is not None:
        overrides["f_list"] = repr(args.f)
    if args.fock is not None:
        overrides["n_fock"] = args.fock
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.tmax is not None:
        overrides["t_end"] = args.tmax
    if args.eps is not None:
        overrides["eps"] = args.eps
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.observable is not None:
        overrides["observable"] = args.observable
    if args.model is not None:
        overrides["model"] = args.model
    if args.out is not None:
        overrides["out"] = args.out
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        written = write_outputs(run_experiment(cfg))
    except ConfigError as exc:
        print(f"dimer-nm: configuration error: {exc}", file=sys.stderr)
        return 2
    except DimerNMError as exc:
        print(f"dimer-nm: numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
