"""Entanglement and overlap observables of the reduced dimer state.

The reduced state lives on the one-excitation sector, a 2-dimensional
space carried either in the site basis [|01>, |10>] or the delocalized
basis [|u>, |d>] with u/d = (|01> +/- |10>)/sqrt(2). Quantities that are
basis-sensitive (the inter-site coherence entering the negativity) are
always evaluated after rotating to the site basis.

The reduction, the basis change and the three observables also take a
stack of states (rho of shape (..., 2, 2)) and act on each.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DimerNMError
from .model import DELOCALIZE, DELOCALIZED_BASIS, SITE_BASIS


@dataclass(frozen=True)
class DimerState:
    """2x2 sector density matrix (or a stack of them) plus its basis tag."""

    rho: np.ndarray
    basis: str

    def __post_init__(self):
        if self.rho.shape[-2:] != (2, 2):
            raise DimensionError(f"dimer state must be 2x2, got {self.rho.shape}")
        if self.basis not in (SITE_BASIS, DELOCALIZED_BASIS):
            raise DimerNMError(f"unknown basis tag {self.basis!r}")


def reduce_to_dimer(rho, dims, basis: str) -> DimerState:
    """Trace out every mode slot of a state or of a stack (..., d, d) of
    them, keeping the sector (slot 0): one ``np.trace`` per mode, from
    the last slot down."""
    dims = tuple(int(d) for d in dims)
    if not dims or dims[0] != 2:
        raise DimensionError(f"slot 0 must be the 2-dimensional sector, got dims {dims}")
    rho = np.ascontiguousarray(rho, dtype=complex)
    d = math.prod(dims)
    if rho.shape[-2:] != (d, d):
        raise DimensionError(f"state shape {rho.shape} does not match dims {dims} (product {d})")
    lead = rho.ndim - 2
    t = rho.reshape(rho.shape[:-2] + dims + dims)
    for s in range(len(dims) - 1, 0, -1):
        t = np.trace(t, axis1=lead + s, axis2=lead + 2 * s + 1)
    return DimerState(rho=np.ascontiguousarray(t), basis=basis)


def basis_change(state: DimerState, target: str) -> DimerState:
    """Rotate between the site and delocalized descriptions.

    The rotation is involutive, so the same matrix serves both ways.
    """
    if target not in (SITE_BASIS, DELOCALIZED_BASIS):
        raise DimerNMError(f"unknown basis tag {target!r}")
    if target == state.basis:
        return state
    rho = DELOCALIZE @ state.rho @ DELOCALIZE
    return DimerState(rho=rho, basis=target)


def _site_rho(state: DimerState) -> np.ndarray:
    return basis_change(state, SITE_BASIS).rho


def site_coherence(state: DimerState):
    """Inter-site coherence <01|rho|10>, the quantity negativity feeds on."""
    return _site_rho(state)[..., 0, 1]


def log_negativity(state: DimerState):
    """Logarithmic negativity of the dimer.

    On the one-excitation sector the partial transpose has a single
    negative eigenvalue controlled by the inter-site coherence c, giving
    the closed form log2(1 + 2|c|).
    """
    return np.log2(1.0 + 2.0 * np.abs(site_coherence(state)))


def singlet_overlap(state: DimerState):
    """Population of the antisymmetric eigenstate |d> = (|01> - |10>)/sqrt(2)."""
    dstate = basis_change(state, DELOCALIZED_BASIS)
    val = dstate.rho[..., 1, 1]
    if np.any(np.abs(val.imag) > 1e-10):
        raise DimerNMError(f"overlap has imaginary part {np.abs(val.imag).max():.3e}")
    return val.real
