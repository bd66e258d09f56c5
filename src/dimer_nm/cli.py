"""Command line entry point.

    dimer-nm <experiment|preset> [--config PATH] [--out PATH]
             [--f V] [--fock N] [--tmax V] [--eps V]
             [--horizon V] [--observable X] [--model X]

The positional argument is an experiment name (evolve, steady, nmm,
sweep, eq8check, convergence) or a shipped preset (fig1, fig2, fig3,
eq8). A --config file is applied on top of the preset, and explicit
flags override both. Exit codes: 0 ok, 2 configuration error,
3 numerical failure.
"""

import argparse
import logging
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


def _f_list(text: str) -> str:
    """The f_list of one f: --f converts its value as a float."""
    return repr(float(text))


_f_list.__name__ = "float"  # argparse names the type in its error line


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimer-nm",
        description="Dimer dephasing simulator: entanglement and memory measures.",
    )
    parser.add_argument("experiment", help=f"one of {EXPERIMENTS} or preset {PRESETS}")
    parser.add_argument("--config", help="key=value run configuration file")
    # every other flag's dest is the RunConfig key it overrides
    parser.add_argument("--out", help="output basename (default: experiment name)")
    parser.add_argument("--f", dest="f_list", type=_f_list, help="run a single f value")
    parser.add_argument("--fock", dest="n_fock", type=int, help="mode truncation override")
    parser.add_argument("--tmax", dest="t_end", type=float, help="trace end time override")
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
    overrides = {key: val for key, val in vars(args).items()
                 if val is not None and key not in ("experiment", "config")}
    if args.experiment in EXPERIMENTS:  # over a --config file's experiment key
        overrides["experiment"] = args.experiment
    # the file and the flags land in one step, so a flag can mend what
    # the file alone would leave invalid
    if args.config:
        return load_config(args.config, base=cfg, **overrides)
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the package's notes (a failed or short-horizon f of a sweep) go to
    # stderr as bare lines
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log = logging.getLogger("dimer_nm")
    log.addHandler(handler)
    try:
        cfg = config_from_args(args)
        written = write_outputs(run_experiment(cfg))
    except ConfigError as exc:
        print(f"dimer-nm: configuration error: {exc}", file=sys.stderr)
        return 2
    except DimerNMError as exc:
        print(f"dimer-nm: numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        log.removeHandler(handler)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
