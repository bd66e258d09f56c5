"""One benchmark pass in a fresh interpreter.

Started by run.py with a JSON spec as its only argument. The child imports dimer_nm,
parses every experiment config and prints ``ready``: the parent times
set-up from spawn to that line. A ``setup`` spec exits there. A ``pass``
spec then runs each config through ``harness.run_experiment`` and
``harness.write_outputs``, the path the CLI takes, and writes a JSON
file with its wall time, CPU time, peak RSS, per-experiment errors, the
resolved configs, the machine description and, when traced, the trace
report.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(kernels):
    import importlib.metadata

    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernels_backend": kernels.active_backend(),
        "kernels_available": sorted(kernels.available_backends()),
    }


def main():
    import dimer_nm
    from dimer_nm import cli, harness, kernels

    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(dimer_nm.__file__).startswith(src + os.sep):
        print(f"child: dimer_nm imported from {dimer_nm.__file__}, not {src}",
              file=sys.stderr)
        return 2
    cfgs = []
    for exp in spec["experiments"]:
        text = cli.preset_text(exp["preset"]) if exp["preset"] else ""
        cfgs.append((exp["label"], harness.parse_config(text + "\n" + exp["overrides"])))
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import COUNTERS, Tracer

        tracer = Tracer(COUNTERS)
        tracer.install()

    errors = {}
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for label, cfg in cfgs:
        try:
            harness.write_outputs(harness.run_experiment(cfg), spec["out_dir"])
        except Exception as exc:  # counted as failed operations, never dropped
            traceback.print_exc()
            errors[label] = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "wall_s": t1 - t0,
        "cpu_s": (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "errors": errors,
        "trace": tracer.report() if tracer else None,
        "configs": {label: harness.serialize_config(cfg) for label, cfg in cfgs},
        "machine": machine(kernels),
    }
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
