"""Parity of the direct RK4 stepper backends and of the two engines.

Backends: every stepper in ``kernels.available_backends()`` advances the
same state on the symmetric model at f = 0.1 (500 steps of 1e-3) and the
returned states are compared with the numpy ``reference`` backend at
BACKEND_TOL. With a single importable backend the check is reported as
"not run", never as a zero difference.

Engines: ``integrate`` with method="aggregated" and method="direct" on
the symmetric model (d = 6) and the full model at n_fock = 3 (d = 18),
f = 0.1, dt = 1e-3, t_end = 2, storing every 200 steps. Every stored
state must agree at ENGINE_TOL, the pin the test suite uses.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/parity.py

It prints one JSON object and exits 1 if a comparison that ran failed.
"""

import json
import sys

import numpy as np

from dimer_nm import kernels
from dimer_nm.dynamics import integrate
from dimer_nm.harness import initial_state
from dimer_nm.model import ModelParams, apply_f, build_full_model, build_symmetric_model

BACKEND_TOL = 1e-12
ENGINE_TOL = 1e-10


def backend_parity():
    model = build_symmetric_model(apply_f(0.1, ModelParams.symmetric()))
    rho0 = initial_state(model)
    jumps = [op for op, _ in model.jumps]
    rates = [rate for _, rate in model.jumps]
    finals = {name: stepper(rho0, model.h_eff, jumps, rates, 1e-3, 500)
              for name, stepper in kernels.available_backends().items()}
    if len(finals) < 2:
        return {"status": "not run", "backends": sorted(finals),
                "reason": "only one backend importable"}
    ref = finals.pop("reference")
    diffs = {name: float(np.max(np.abs(out - ref))) for name, out in finals.items()}
    ok = all(d <= BACKEND_TOL for d in diffs.values())
    return {"status": "pass" if ok else "fail", "tol": BACKEND_TOL,
            "max_abs_diff_vs_reference": diffs}


def engine_parity():
    models = {
        "symmetric_d6": build_symmetric_model(apply_f(0.1, ModelParams.symmetric())),
        "full_d18": build_full_model(apply_f(0.1, ModelParams.symmetric())),
    }
    diffs = {}
    for name, model in models.items():
        rho0 = initial_state(model)
        kw = dict(dt=1e-3, store_every=200, observables=[])
        direct = integrate(model, rho0, 2.0, method="direct", **kw)
        aggregated = integrate(model, rho0, 2.0, method="aggregated", **kw)
        diffs[name] = float(np.max(np.abs(direct.states - aggregated.states)))
    ok = all(d <= ENGINE_TOL for d in diffs.values())
    return {"status": "pass" if ok else "fail", "tol": ENGINE_TOL,
            "max_abs_diff_aggregated_vs_direct": diffs}


def main():
    result = {"active_backend": kernels.active_backend(),
              "backends": backend_parity(), "engines": engine_parity()}
    print(json.dumps(result))
    return 1 if "fail" in (result["backends"]["status"], result["engines"]["status"]) else 0


if __name__ == "__main__":
    sys.exit(main())
