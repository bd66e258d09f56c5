"""Density-matrix RK4 stepper on the aggregated engine.

For callers that hold a density matrix and the parts of a generator:
:func:`rk4_lindblad_steps` builds the model and takes all its steps as
one stride of :func:`dynamics.propagate` on the aggregated engine, so
the package has one RK4 implementation. Like that engine, it takes
Hilbert dimensions up to MAX_SUPEROP_DIM, 32, and raises DimensionError
above. There is one backend, ``"aggregated"``, and it loads no scipy.
"""

import numpy as np

from . import dynamics, opalg
from .model import SITE_BASIS, LindbladModel

BACKEND = "aggregated"


def active_backend() -> str:
    return BACKEND


def available_backends() -> dict:
    """Name -> stepper for every backend (only ``"aggregated"``)."""
    return {BACKEND: rk4_lindblad_steps}


def rk4_lindblad_steps(rho, h_eff, jump_ops, rates, dt, n_steps):
    """Advance rho by n_steps of fixed-step RK4; returns a new array.

    The result is the n_steps-th power of
    :func:`dynamics.rk4_transfer_matrix` applied to vec(rho); n_steps
    below 1 takes no step.
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    model = LindbladModel(h_eff, tuple(zip(jump_ops, rates)), (h_eff.shape[0],), SITE_BASIS)
    steps = max(int(n_steps), 0)
    [(_, block)] = dynamics.propagate([model], [opalg.vec(rho)[:, None]], [dt], [steps], 2,
                                      method="aggregated")
    return opalg.unvec(block[0, -1, :, 0].copy())
