"""System parameters, the table of model terms, and Hamiltonian builders.

Two driving scenarios share one rotating-frame parameter container:

* scenario "A": the two-level system is a dressed qubit driven directly
  (amplitude omega_s) while a weak probe (amplitude omega_d) drives the
  oscillator mode; exchange coupling g_ms.
* scenario "B": probe drive only, exchange coupling g_ms_tilde, and no
  thermal bath.

A field the scenario has no term for (`UNUSED_FIELDS`) must be zero, so no
input is silently ignored.

Energies are in units of a reference rate gamma. The two-level term is
written with the upper-level projector so the ground product state sits at
zero energy; adding a multiple of the identity changes nothing physical but
this gauge keeps rotating-frame level energies equal to the plain detuning
sums (delta_s, delta_m, delta_m + delta_s, 2*delta_m, ...).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Space, annihilation, qubit_ops
from .errors import ParameterError, finite_real, integer, nonnegative

SCENARIOS = ("A", "B")

# numeric fields a sweep may vary
SWEEPABLE_FIELDS = (
    "delta_m",
    "delta_s",
    "g_ms",
    "g_ms_tilde",
    "omega_s",
    "omega_d",
    "kappa_m",
    "kappa_s",
    "n_th",
)

NONNEGATIVE_FIELDS = ("g_ms", "g_ms_tilde", "omega_s", "omega_d", "kappa_m", "kappa_s", "n_th")

# fields a scenario has no term for; they must be 0 there
UNUSED_FIELDS = {"A": ("g_ms_tilde",), "B": ("g_ms", "omega_s", "n_th")}


@dataclass(frozen=True)
class SystemParams:
    """Rotating-frame model parameters (all rates in units of gamma).

    delta_m, delta_s : oscillator / two-level detunings (any real)
    g_ms             : exchange coupling, scenario A
    g_ms_tilde       : exchange coupling, scenario B
    omega_s          : direct two-level drive amplitude (scenario A)
    omega_d          : probe drive amplitude on the oscillator
    kappa_m, kappa_s : oscillator / two-level decay rates (>= 0; steady
                       states are unique only for > 0)
    n_th             : thermal occupation of the oscillator bath (scenario A)
    scenario         : "A" or "B"
    fock_dim         : oscillator truncation (levels 0 .. fock_dim-1)
    """

    delta_m: float = 0.0
    delta_s: float = 0.0
    g_ms: float = 0.0
    g_ms_tilde: float = 0.0
    omega_s: float = 0.0
    omega_d: float = 0.0
    kappa_m: float = 1.0
    kappa_s: float = 1.0
    n_th: float = 0.0
    scenario: str = "A"
    fock_dim: int = 6

    def __post_init__(self) -> None:
        values = vars(self)  # frozen, so coerced fields are set through the instance dict
        for name in SWEEPABLE_FIELDS:
            values[name] = finite_real(name, values[name])
        for name in NONNEGATIVE_FIELDS:
            nonnegative(name, values[name])
        if self.scenario not in SCENARIOS:
            raise ParameterError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        for name in UNUSED_FIELDS[self.scenario]:
            if getattr(self, name) != 0.0:
                raise ParameterError(f"scenario {self.scenario} has no {name} term; {name} must be 0, "
                                     f"got {getattr(self, name)}")
        self.space()  # the truncation rule is Space's

    @property
    def coupling(self) -> float:
        """Exchange coupling active in the current scenario."""
        return self.g_ms if self.scenario == "A" else self.g_ms_tilde

    def space(self) -> Space:
        return Space(self.fock_dim)

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)


def invalid_mask(fields, scenario: str) -> np.ndarray:
    """Where `SystemParams` of `scenario` would reject a point given as arrays.

    `fields` maps every name in SWEEPABLE_FIELDS to a float64 array; the
    arrays broadcast against each other. The mask mirrors the checks of
    `SystemParams.__post_init__`: non-finite values, negative rates and
    nonzero fields the scenario does not use.
    """
    bad = np.zeros(np.broadcast_shapes(*(np.shape(fields[name]) for name in SWEEPABLE_FIELDS)), dtype=bool)
    for name in SWEEPABLE_FIELDS:
        value = fields[name]
        bad |= ~np.isfinite(value)
        if name in NONNEGATIVE_FIELDS:
            bad |= value < 0.0
        if name in UNUSED_FIELDS[scenario]:
            bad |= value != 0.0
    return bad


@functools.lru_cache(maxsize=8)
def model_terms(space: Space) -> tuple[np.ndarray, np.ndarray]:
    """The model's operator table: read-only (5, D, D) Hamiltonian terms and (3, D, D) jump operators.

    Hamiltonian terms, in order: m†m, σ₊σ₋, (m σ₊ + m† σ₋)/2, m† + m, σₓ/2.
    Weighted by `model_coefficients`, their sum in scenario A is

        delta_m m†m + delta_s σ₊σ₋ + (g_ms/2)(m σ₊ + m† σ₋)
        + (omega_s/2)(σ₊ + σ₋) + omega_d (m† + m),

    and scenario B drops the direct two-level drive and uses g_ms_tilde.
    Jump operators, in order: m (oscillator loss), m† (thermal excitation) and
    σ₋ (two-level decay); a channel C at rate γ adds γ (C ρ C† - ½{C†C, ρ}) to dρ/dt.
    """
    m = annihilation(space)
    md = m.conj().T
    sm, sp, sx = qubit_ops(space)
    table = np.stack([md @ m, sp @ sm, 0.5 * (m @ sp + md @ sm), md + m, 0.5 * sx]), np.stack([m, md, sm])
    for terms in table:
        terms.setflags(write=False)
    return table


def model_coefficients(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Weights and rates of `model_terms`, in its order.

    Weights: delta_m, delta_s, coupling, omega_d, omega_s. Rates: oscillator
    loss and thermal excitation by a bath of occupation n_th, and kappa_s.
    Scenario B has omega_s = 0 and n_th = 0 by validation.
    """
    weights = np.array([params.delta_m, params.delta_s, params.coupling, params.omega_d, params.omega_s])
    return weights, np.array([params.kappa_m * (params.n_th + 1.0), params.kappa_m * params.n_th, params.kappa_s])


def build_h_nonhermitian(params: SystemParams) -> np.ndarray:
    """Effective non-Hermitian Hamiltonian: decay folded into the energies.

    H - (i/2) Σⱼ γⱼ Cⱼ†Cⱼ over the jump operators and rates of `model_terms`, with H
    the rotating-frame Hamiltonian, which it equals at zero linewidths. The
    anti-Hermitian part is negative semi-definite, so amplitudes can only lose norm.
    """
    hamiltonian, jumps = model_terms(params.space())
    weights, rates = model_coefficients(params)
    decay = np.tensordot(rates, jumps.conj().transpose(0, 2, 1) @ jumps, axes=1)
    return np.tensordot(weights, hamiltonian, axes=1) - 0.5j * decay


@dataclass(frozen=True)
class DressedLevel:
    """One rung of the coupled two-level/oscillator ladder.

    n        : total excitation number (>= 1)
    branch   : +1 for the upper branch, -1 for the lower
    energy   : lab-frame eigenvalue (ground product state at zero)
    c_g_n    : coefficient of |lower, n⟩ (chosen >= 0)
    c_e_nm1  : coefficient of |upper, n-1⟩ (carries the branch sign)
    """

    n: int
    branch: int
    energy: float
    c_g_n: float
    c_e_nm1: float


def dressed_spectrum(omega_m: float, omega_q: float, g: float, n_max: int) -> list[DressedLevel]:
    """Eigenvalues and eigenvectors of the undriven coupled ladder.

    Within the n-excitation doublet {|lower, n⟩, |upper, n-1⟩}:

        E(n, ±) = [(2n-1) omega_m + omega_q]/2 ± sqrt((omega_m-omega_q)² + g² n)/2

    Levels are returned for n = 1..n_max, lower branch first. On resonance
    both coefficients are 1/√2 in magnitude; at g = 0 they collapse onto the
    bare basis states.
    """
    omega_m, omega_q = finite_real("omega_m", omega_m), finite_real("omega_q", omega_q)
    g, n_max = nonnegative("g", finite_real("g", g)), integer("n_max", n_max, 1)
    levels: list[DressedLevel] = []
    for n in range(1, n_max + 1):
        mean = ((2 * n - 1) * omega_m + omega_q) / 2.0
        half_split = math.sqrt((omega_m - omega_q) ** 2 + g * g * n) / 2.0
        for branch in (-1, 1):
            energy = mean + branch * half_split
            gap = energy - n * omega_m
            norm = math.sqrt(g * g * n + 4.0 * gap * gap)
            if norm == 0.0:
                # fully degenerate corner (g = 0 on resonance)
                c_g, c_e = 1.0, 0.0
            else:
                c_g = g * math.sqrt(n) / norm
                c_e = 2.0 * gap / norm
            levels.append(DressedLevel(n=n, branch=branch, energy=energy, c_g_n=c_g, c_e_nm1=c_e))
    return levels
