"""Model builders for a coupled two-site dimer dephased by damped modes.

The dimer is restricted to its one-excitation sector, ordered
``[|01>, |10>]`` in the site basis (entry 0: excitation on site 2).
Each site couples through its population to a locally damped bosonic
mode; the hierarchy of models built here:

* ``build_full_model``      sector x mode1 x mode2, site basis
* ``build_symmetric_model`` sector x relative mode, delocalized basis
  (valid when both sites and modes are identical; the center-of-mass
  mode decouples exactly on the one-excitation sector)
* ``build_global_mode_model`` both sites coupled to one shared mode
* ``build_markovian_dephasing_model`` memoryless phase-flip baseline

All four are one system seen with two local modes, one mode or none:
each names its sector Hamiltonian, its sector jumps and, per mode,
(Omega, kappa, sector coupling operator), and ``_with_modes`` alone
builds a model from them, refusing one above MAX_HILBERT_DIM or one
whose jump rates or damping shift are past float range. It also
declares the model's weak symmetry, when it has one: the site exchange
times the parity of every mode (``LindbladModel.parity``). The two
one-mode models are one construction, ``_one_mode``, with the sector in
the delocalized basis and the mode coupled through g sigma_x: the
symmetric model is its case g = sqrt(2) g1 and the global-mode model its
case g = g2 - g1. :func:`apply_f` moves a parameter set along the
f-family.

All builders return a :class:`LindbladModel` whose ``h_eff`` field is the
effective non-Hermitian Hamiltonian, i.e. the mode damping term
``-i kappa a^dag a`` is already included. The master equation is

    rho_dot = -i (h_eff rho - rho h_eff^dag) + sum_k rate_k L_k rho L_k^dag

Consumers must never subtract another ``-i/2 sum rate L^dag L`` shift;
doing so double-counts the damping.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import opalg
from .errors import DimensionError, DimerNMError

SITE_BASIS = "site"
DELOCALIZED_BASIS = "delocalized"

# sqrt(2)-normalized rotation between [|01>, |10>] and [|u>, |d>];
# involutive, so it serves for both directions.
DELOCALIZE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

# site-1 population on the sector, sigma_z of site 1 = diag(-1, +1); site 2's is -_SZ1
_SZ1 = np.diag([-1.0, 1.0]).astype(complex)

# the site exchange X in each sector basis as (perm, sign), X |i> =
# sign[i] |perm[i]>: sigma_x swaps [|01>, |10>], and sigma_z = diag(1, -1)
# keeps the symmetric |u> of [|u>, |d>] and flips the antisymmetric |d>
_EXCHANGE = {
    SITE_BASIS: (np.array([1, 0]), np.array([1.0, 1.0])),
    DELOCALIZED_BASIS: (np.array([0, 1]), np.array([1.0, -1.0])),
}

# largest Hilbert dimension 2 * n_fock**modes a builder accepts: the full
# model at n_fock = 8. There generator_triplets holds 204,800 triplets
# (6.6 MB) at n_th = 0 and 230,400 (7.4 MB) at n_th > 0.
MAX_HILBERT_DIM = 128


def check_lower_bounds(obj, bounds, error=DimerNMError):
    """Raise error at the first (key, low, closed) of bounds whose
    attribute key of obj is below low, or at low unless closed; nan
    fails every bound."""
    for key, low, closed in bounds:
        val = getattr(obj, key)
        if not (val >= low if closed else val > low):
            raise error(f"{key} must be {'>=' if closed else '>'} {low}, got {val!r}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the dimer-plus-modes system.

    g and kappa are the per-site mode coupling and mode linewidth; the
    amplitude damping rate of each mode is 2*kappa (the intensity
    linewidth), so ``<a>(t)`` relaxes as ``exp(-kappa t)``.
    """

    omega1: float = 0.0
    omega2: float = 0.0
    J: float = 1.0
    Omega1: float = 2.0
    Omega2: float = 2.0
    g1: float = 1.0
    g2: float = 1.0
    kappa1: float = 20.0
    kappa2: float = 20.0
    n_fock: int = 3
    n_th: float = 0.0

    def __post_init__(self):
        check_lower_bounds(self, (("n_fock", 2, True), ("n_th", 0.0, True), ("J", 0.0, False),
                                  ("kappa1", 0.0, True), ("kappa2", 0.0, True)))

    @classmethod
    def symmetric(cls, omega=0.0, J=1.0, Omega=2.0, g=1.0, kappa=20.0,
                  n_fock=3, n_th=0.0):
        return cls(omega1=omega, omega2=omega, J=J, Omega1=Omega, Omega2=Omega,
                   g1=g, g2=g, kappa1=kappa, kappa2=kappa,
                   n_fock=n_fock, n_th=n_th)

    @property
    def is_symmetric(self) -> bool:
        return (self.omega1 == self.omega2 and self.Omega1 == self.Omega2
                and self.g1 == self.g2 and self.kappa1 == self.kappa2)

    @property
    def has_closed_form(self) -> bool:
        """Whether :func:`steady_state_dd_closed_form` holds: identical
        sites and modes at zero temperature."""
        return self.is_symmetric and self.n_th == 0


def apply_f(f: float, base: ModelParams) -> ModelParams:
    """Scale the base couplings and linewidths along the f-family.

    The base parameters carry the f=1 couplings (g0 per site) and
    linewidths (kappa0 per site); the returned set has
    g_i = sqrt(f) g_i(base), kappa_i = f kappa_i(base), leaving
    2 g_i^2 / kappa_i, the effective dephasing rate, exactly fixed, so f
    tunes the memory of the environment at fixed noise strength.
    """
    if not f > 0:  # nan fails too
        raise DimerNMError(f"f must be positive, got {f}")
    root = math.sqrt(f)
    return replace(base, g1=base.g1 * root, g2=base.g2 * root,
                   kappa1=base.kappa1 * f, kappa2=base.kappa2 * f)


def effective_dephasing_rate(g: float, kappa: float) -> float:
    """Adiabatic-elimination dephasing rate 2 g^2 / kappa."""
    if kappa <= 0:
        raise DimerNMError("effective rate undefined for kappa <= 0")
    return 2.0 * g * g / kappa


@dataclass(frozen=True)
class LindbladModel:
    """Effective Hamiltonian plus jump channels on a product space.

    h_eff already contains the anti-Hermitian damping shift
    ``-i/2 sum_k rate_k L_k^dag L_k``; ``h_herm`` recovers the bare
    Hamiltonian. ``basis`` records how the sector slot (always slot 0)
    is ordered, for downstream observables.
    """

    h_eff: np.ndarray
    jumps: tuple
    dims: tuple
    basis: str
    n_th: float = 0.0
    # occupation of one physical oscillator per quantum of a model mode:
    # 0.5 when the model mode is the relative combination of two local
    # modes, 1.0 when model modes are physical. The center of mass stays
    # dark in its thermal state, so each local oscillator holds
    # mode_weight <n> + (1 - mode_weight) n_th quanta.
    mode_weight: float = 1.0
    # a weak symmetry Pi of the generator, [L, Pi (x) Pi] = 0, as a signed
    # permutation (perm, sign) of the Hilbert basis, Pi |i> = sign[i]
    # |perm[i]> with Pi^2 = 1; None when the model declares none. The
    # sparse steady state solves its two sectors apart.
    parity: tuple = None

    def __post_init__(self):
        d = int(np.prod(self.dims))
        if self.h_eff.shape != (d, d):
            raise DimensionError(
                f"h_eff shape {self.h_eff.shape} does not match dims {self.dims}"
            )
        for op, rate in self.jumps:
            if op.shape != (d, d):
                raise DimensionError(f"jump shape {op.shape} does not match dims")
            if rate < 0:
                raise DimerNMError(f"jump rate must be non-negative, got {rate}")
        if self.basis not in (SITE_BASIS, DELOCALIZED_BASIS):
            raise DimerNMError(f"unknown basis tag {self.basis!r}")
        if self.parity is not None and any(np.shape(a) != (d,) for a in self.parity):
            raise DimensionError(f"parity arrays do not match dims {self.dims}")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def h_herm(self) -> np.ndarray:
        return opalg.hermitize(self.h_eff)

    def damping_defect(self) -> float:
        """Consistency residual between h_eff's anti-Hermitian part and the jumps.

        Returns max|i (h_eff - h_eff^dag) - sum rate L^dag L|; zero for a
        correctly assembled model.
        """
        acc = 1j * (self.h_eff - self.h_eff.conj().T)
        for op, rate in self.jumps:
            acc = acc - rate * (op.conj().T @ op)
        return float(np.abs(acc).max())


def _sector_site(p: ModelParams):
    return np.array([[p.omega2, p.J], [p.J, p.omega1]], dtype=complex)


def _with_modes(p: ModelParams, sector_h, modes, basis: str, mode_weight: float = 1.0,
                sector_jumps=()):
    """The sector Hamiltonian plus one damped mode per entry of ``modes``.

    Entry k of ``modes`` is ``(Omega, kappa, c)`` for mode slot k + 1:
    frequency Omega, linewidth kappa (no jump when zero, a thermal pair
    at n_th > 0) and the 2 x 2 sector operator c that couples to the
    quadrature a + a^dag. ``sector_jumps`` are (2 x 2 operator, rate)
    pairs on the sector itself. dims = (2, n_fock, ...).

    The model declares Pi = X (x) (-1)^(n_1 + n_2 + ...), X the site
    exchange of ``basis`` (_EXCHANGE), as its ``parity`` when exact
    comparisons show that X commutes with sector_h, anticommutes with
    every mode's c and maps every sector jump to plus or minus itself.
    Pi then commutes with h_eff and maps each jump to minus or plus
    itself, for any Omega, kappa and n_th, so Pi (x) Pi commutes with
    the generator (Buca & Prosen, NJP 14, 073007 (2012)).
    """
    dims = (2,) + (p.n_fock,) * len(modes)
    if not math.prod(dims) <= MAX_HILBERT_DIM:  # before any operator is allocated; nan fails too
        raise DimerNMError(f"n_fock must be small enough that 2 * n_fock**{len(modes)} "
                           f"<= {MAX_HILBERT_DIM}, got {p.n_fock:.6g}")
    a = opalg.make_destroy(p.n_fock)
    x = a + a.conj().T
    n = a.conj().T @ a

    with opalg.one_blas_thread():  # d x d products: more threads only cost CPU
        h = opalg.embed(sector_h, 0, dims)
        h += sum(Omega * opalg.embed(n, k, dims) for k, (Omega, _, _) in enumerate(modes, 1))
        jumps = [(opalg.embed(c, 0, dims), rate) for c, rate in sector_jumps]
        for k, (_, kappa, c) in enumerate(modes, 1):
            h += opalg.embed(c, 0, dims) @ opalg.embed(x, k, dims)
            if kappa == 0:
                continue
            ak = opalg.embed(a, k, dims)
            jumps.append((ak, 2.0 * kappa * (1.0 + p.n_th)))
            if p.n_th > 0:
                jumps.append((ak.conj().T, 2.0 * kappa * p.n_th))
        # a bath so hot that a rate 2 kappa (1 + n_th), or the damping
        # shift summed from finite rates, is past float range
        for _, rate in jumps:
            if not math.isfinite(rate):
                raise DimerNMError(f"jump rate {rate} is not finite at n_th = {p.n_th:.3g}")
        shift = np.zeros_like(h)
        with np.errstate(over="ignore"):
            for op, rate in jumps:
                shift += rate * (op.conj().T @ op)
        if not np.isfinite(shift).all():
            raise DimerNMError(f"the damping shift is not finite at n_th = {p.n_th:.3g}")
        return LindbladModel(
            h_eff=h - 0.5j * shift, jumps=tuple(jumps), dims=dims,
            basis=basis, n_th=p.n_th, mode_weight=mode_weight,
            parity=_exchange_parity(basis, sector_h, modes, sector_jumps, dims),
        )


def _exchange_parity(basis, sector_h, modes, sector_jumps, dims):
    """(perm, sign) of X (x) (-1)^(n_1 + n_2 + ...) on the Hilbert basis
    of dims, or None unless X, the site exchange of basis, commutes with
    sector_h, anticommutes with every mode coupling and maps every sector
    jump to plus or minus itself, each compared exactly."""
    perm, sign = _EXCHANGE[basis]
    x = np.zeros((2, 2), dtype=complex)
    x[perm, [0, 1]] = sign
    symmetric = (np.array_equal(x @ sector_h, sector_h @ x)
                 and all(np.array_equal(x @ c, -(c @ x)) for _, _, c in modes)
                 and all(any(np.array_equal(x @ j @ x, s * j) for s in (1, -1))
                         for j, _ in sector_jumps))
    if not symmetric:
        return None
    rest = math.prod(dims[1:])
    for n in dims[1:]:
        sign = np.kron(sign, (-1.0) ** np.arange(n))
    return (perm[:, None] * rest + np.arange(rest)).ravel(), sign


def _one_mode(p: ModelParams, g: float, mode_weight: float = 1.0) -> LindbladModel:
    """The sector in the delocalized basis [|u>, |d>] plus one damped mode
    (Omega1, kappa1) coupled through g sigma_x. dims = (2, n_fock).

    DELOCALIZE rotates the site sector [[omega2, J], [J, omega1]] to
    [[m + J, h], [h, m - J]], m = (omega1 + omega2) / 2 and
    h = (omega2 - omega1) / 2, written here directly, so it is exactly
    Hermitian.
    """
    m, h = (p.omega1 + p.omega2) / 2.0, (p.omega2 - p.omega1) / 2.0
    sector = np.array([[m + p.J, h], [h, m - p.J]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return _with_modes(p, sector, [(p.Omega1, p.kappa1, g * sx)], DELOCALIZED_BASIS, mode_weight)


def build_full_model(p: ModelParams) -> LindbladModel:
    """Dimer sector plus both local modes. dims = (2, n_fock, n_fock)."""
    return _with_modes(p, _sector_site(p), [
        (p.Omega1, p.kappa1, p.g1 * _SZ1),
        (p.Omega2, p.kappa2, p.g2 * -_SZ1),
    ], SITE_BASIS)


def build_symmetric_model(p: ModelParams) -> LindbladModel:
    """Sector plus the relative mode, in the delocalized basis [|u>, |d>].

    Exact reduction of the full symmetric model: on the one-excitation
    sector the site populations couple only the relative combination of
    the two modes (with strength sqrt(2) g) while the center of mass
    stays dark. dims = (2, n_fock).
    """
    if not p.is_symmetric:
        raise DimerNMError("symmetric model requires identical sites and modes")
    return _one_mode(p, math.sqrt(2.0) * p.g1, mode_weight=0.5)


def build_global_mode_model(p: ModelParams) -> LindbladModel:
    """Both sites coupled to one shared damped mode. dims = (2, n_fock).

    The sector sees the mode through g1 sz1 + g2 sz2; for equal couplings
    this vanishes identically on the one-excitation sector, so only the
    coupling imbalance enters: g1 sz1 + g2 sz2 = (g1 - g2) diag(-1, 1) in
    the site ordering, which DELOCALIZE rotates to (g2 - g1) sigma_x.
    """
    if p.Omega1 != p.Omega2 or p.kappa1 != p.kappa2:
        raise DimerNMError("global-mode model has a single mode: Omega and kappa must match")
    return _one_mode(p, p.g2 - p.g1)


def build_markovian_dephasing_model(gamma_eff: float, p: ModelParams) -> LindbladModel:
    """Memoryless baseline: local phase flips at the effective rate.

    Each site carries a sigma_z jump at rate gamma_eff / 2; no mode slot.
    dims = (2,), site basis.
    """
    if gamma_eff < 0:
        raise DimerNMError(f"dephasing rate must be non-negative, got {gamma_eff}")
    flips = () if gamma_eff == 0 else ((_SZ1, gamma_eff / 2.0), (-_SZ1, gamma_eff / 2.0))
    # no mode slot, so no thermal occupation either
    return _with_modes(replace(p, n_th=0.0), _sector_site(p), [], SITE_BASIS, sector_jumps=flips)


def steady_state_dd_closed_form(p: ModelParams) -> float:
    """Two-level-mode estimate of the steady singlet population, defined
    where ``p.has_closed_form``: identical sites and modes at zero
    temperature.

    rho_dd = (4 g^2 + kappa^2 + (2J + Omega)^2)
             / (2 (4 g^2 + kappa^2 + 4 J^2 + Omega^2))

    Exact for the symmetric model truncated at n_fock = 2 (the relative
    mode holding at most one quantum); approaches 1 as f -> 0 with the
    mode quasi-resonant (Omega ~ 2J).
    """
    if not p.has_closed_form:
        raise DimerNMError("closed form is defined for symmetric parameters at zero temperature")
    g, kappa, J, Omega = p.g1, p.kappa1, p.J, p.Omega1
    num = 4.0 * g ** 2 + kappa ** 2 + (2.0 * J + Omega) ** 2
    den = 2.0 * (4.0 * g ** 2 + kappa ** 2 + 4.0 * J ** 2 + Omega ** 2)
    return num / den


def thermal_mode_state(n_fock: int, n_th: float) -> np.ndarray:
    """Truncated thermal density matrix of one mode (vacuum for n_th = 0)."""
    if n_th < 0:
        raise DimerNMError(f"thermal occupation must be >= 0, got {n_th}")
    if n_th == 0:
        rho = np.zeros((n_fock, n_fock), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    weights = (n_th / (1.0 + n_th)) ** np.arange(n_fock)
    weights /= weights.sum()
    return np.diag(weights).astype(complex)


def environment_state(model: LindbladModel) -> np.ndarray:
    """Initial state of the non-sector slots (thermal product, vacuum at T=0).

    Returns a 0-dimensional identity-like 1x1 matrix when the model has
    no environment slot (the memoryless baseline).
    """
    env_dims = model.dims[1:]
    rho = np.eye(1, dtype=complex)
    for d in env_dims:
        rho = opalg.kron(rho, thermal_mode_state(d, model.n_th))
    return rho
