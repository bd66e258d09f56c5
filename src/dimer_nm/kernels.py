"""Density-matrix RK4 stepper on the CSR generator.

No engine of :func:`dynamics.propagate` steps this way any more: the
aggregated engine raises the dense RK4 transfer matrix
(:func:`dynamics.rk4_transfer_matrix`) to each stride, and the direct
engine applies the exact propagator. This stepper builds the generator
as a scipy CSR matrix on every call and takes the same RK4 update as
CSR matvecs, for callers that hold a density matrix. There is one
backend, ``"sparse"``.
"""

import numpy as np

from . import dynamics, opalg

BACKEND = "sparse"


def active_backend() -> str:
    return BACKEND


def available_backends() -> dict:
    """Name -> stepper for every backend (only ``"sparse"``)."""
    return {BACKEND: rk4_lindblad_steps}


def rk4_lindblad_steps(rho, h_eff, jump_ops, rates, dt, n_steps):
    """Advance rho by n_steps of fixed-step RK4; returns a new array.

    Each step is the transfer polynomial of
    :func:`dynamics.rk4_transfer_matrix` in Horner form, four matvecs.
    """
    gen = dynamics.sparse_generator(h_eff, zip(jump_ops, rates))
    stages = [(dt / k) * gen for k in (4.0, 3.0, 2.0, 1.0)]
    v = np.array(opalg.vec(rho), dtype=complex)
    for _ in range(int(n_steps)):
        w = v
        for stage in stages:
            w = stage @ w
            w += v
        v = w
    return opalg.unvec(v)
