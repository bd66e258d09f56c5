"""Density-matrix entry point of the direct RK4 stepper.

The direct engine of :func:`dynamics.propagate` builds the generator
once as a scipy CSR matrix and steps vec(rho) with
:func:`dynamics.rk4_steps`. This adapter runs the same stepper from
h_eff and the jumps for callers that hold a density matrix; it builds
the generator on every call. There is one backend, ``"sparse"``.
"""

from . import dynamics, opalg

BACKEND = "sparse"


def active_backend() -> str:
    return BACKEND


def available_backends() -> dict:
    """Name -> stepper for every backend (only ``"sparse"``)."""
    return {BACKEND: rk4_lindblad_steps}


def rk4_lindblad_steps(rho, h_eff, jump_ops, rates, dt, n_steps):
    """Advance rho by n_steps of fixed-step RK4; returns a new array."""
    gen = dynamics.sparse_generator(h_eff, zip(jump_ops, rates))
    return opalg.unvec(dynamics.rk4_steps(gen, opalg.vec(rho), dt, n_steps))
