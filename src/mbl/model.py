"""System parameters and Hamiltonian builders.

Two driving scenarios share one rotating-frame parameter container:

* scenario "A": the two-level system is a dressed qubit driven directly
  (amplitude omega_s) while a weak probe (amplitude omega_d) drives the
  oscillator mode; exchange coupling g_ms.
* scenario "B": probe drive only, exchange coupling g_ms_tilde; omega_s
  must be zero.

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
from typing import Iterable

import numpy as np

from .core import Space, annihilation, qubit_ops
from .errors import ParameterError

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


def finite_real(name: str, value) -> float:
    """`value` as a float; ParameterError unless it is a finite int or float (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SystemParams:
    """Rotating-frame model parameters (all rates in units of gamma).

    delta_m, delta_s : oscillator / two-level detunings (any real)
    g_ms             : exchange coupling, scenario A
    g_ms_tilde       : exchange coupling, scenario B
    omega_s          : direct two-level drive amplitude (scenario A only)
    omega_d          : probe drive amplitude on the oscillator
    kappa_m, kappa_s : oscillator / two-level decay rates (>= 0; steady
                       states are unique only for > 0)
    n_th             : thermal occupation of the oscillator bath (scenario A;
                       scenario B has no thermal channel and ignores it)
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
        for name in SWEEPABLE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("g_ms", "g_ms_tilde", "omega_s", "omega_d", "kappa_m", "kappa_s", "n_th"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.scenario not in SCENARIOS:
            raise ParameterError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.scenario == "B" and self.omega_s != 0.0:
            raise ParameterError("scenario B has no direct two-level drive; omega_s must be 0")
        if not isinstance(self.fock_dim, int) or isinstance(self.fock_dim, bool) or self.fock_dim < 2:
            raise ParameterError(f"fock_dim must be an integer >= 2, got {self.fock_dim!r}")

    @property
    def coupling(self) -> float:
        """Exchange coupling active in the current scenario."""
        return self.g_ms if self.scenario == "A" else self.g_ms_tilde

    def space(self) -> Space:
        return Space(self.fock_dim)

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class LabFrameParams:
    """Lab-frame frequencies (same units as each other; typically MHz).

    omega_m : oscillator mode frequency
    e_z     : two-level splitting, scenario A
    k_0     : two-level splitting, scenario B
    omega_d : probe drive frequency
    omega_s : direct two-level drive frequency (scenario A)
    """

    omega_m: float = 0.0
    e_z: float = 0.0
    k_0: float = 0.0
    omega_d: float = 0.0
    omega_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega_m", "e_z", "k_0", "omega_d", "omega_s"):
            object.__setattr__(self, name, finite_real(name, getattr(self, name)))


def lab_to_detunings(lab: LabFrameParams, scenario: str = "A") -> tuple[float, float]:
    """Rotating-frame detunings (delta_m, delta_s) from lab-frame frequencies.

    The oscillator rotates at the probe frequency in both scenarios. The
    two-level system rotates at its own drive frequency in scenario A and at
    the probe frequency in scenario B.
    """
    if scenario not in SCENARIOS:
        raise ParameterError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    delta_m = lab.omega_m - lab.omega_d
    if scenario == "A":
        delta_s = lab.e_z - lab.omega_s
    else:
        delta_s = lab.k_0 - lab.omega_d
    return delta_m, delta_s


@functools.lru_cache(maxsize=8)
def hamiltonian_terms(space: Space) -> np.ndarray:
    """Read-only (5, D, D) stack of the Hamiltonian's operator terms.

    In order: m†m, σ₊σ₋, (m σ₊ + m† σ₋)/2, m† + m, σₓ/2. The rotating-frame
    Hamiltonian is their sum weighted by `hamiltonian_coefficients`.
    """
    m = annihilation(space)
    md = m.conj().T
    sm, sp, _, sx = qubit_ops(space)
    terms = np.stack([md @ m, sp @ sm, 0.5 * (m @ sp + md @ sm), md + m, 0.5 * sx])
    terms.setflags(write=False)
    return terms


def hamiltonian_coefficients(params: SystemParams) -> np.ndarray:
    """Weights of `hamiltonian_terms`: delta_m, delta_s, coupling, omega_d, omega_s.

    Scenario B has omega_s = 0 by validation, so its direct drive drops out.
    """
    return np.array([params.delta_m, params.delta_s, params.coupling, params.omega_d, params.omega_s])


def build_h_eff(params: SystemParams, space: Space | None = None) -> np.ndarray:
    """Rotating-frame Hamiltonian on the composite space (dense, Hermitian).

    Scenario A:
        delta_m m†m + delta_s σ₊σ₋ + (g_ms/2)(m σ₊ + m† σ₋)
        + (omega_s/2)(σ₊ + σ₋) + omega_d (m† + m)
    Scenario B drops the direct two-level drive and uses g_ms_tilde.
    """
    if space is None:
        space = params.space()
    return np.tensordot(hamiltonian_coefficients(params), hamiltonian_terms(space), axes=1)


def build_h_nonhermitian(params: SystemParams, space: Space | None = None) -> np.ndarray:
    """Effective non-Hermitian Hamiltonian: decay folded into the energies.

    H_eff - i(kappa_m/2) m†m - i(kappa_s/2) σ₊σ₋, from `hamiltonian_terms`. The
    anti-Hermitian part is negative semi-definite, so amplitudes can only lose norm.
    """
    if space is None:
        space = params.space()
    damping = np.array([params.kappa_m, params.kappa_s, 0.0, 0.0, 0.0])
    return np.tensordot(hamiltonian_coefficients(params) - 0.5j * damping, hamiltonian_terms(space), axes=1)


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
    omega_m, omega_q, g = finite_real("omega_m", omega_m), finite_real("omega_q", omega_q), finite_real("g", g)
    if g < 0:
        raise ParameterError(f"g must be >= 0, got {g}")
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ParameterError(f"n_max must be an integer >= 1, got {n_max!r}")
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


def level_table(levels: Iterable[DressedLevel]) -> np.ndarray:
    """Levels as a plain (k, 5) float array: n, branch, energy, c_g_n, c_e_nm1."""
    rows = [(lv.n, lv.branch, lv.energy, lv.c_g_n, lv.c_e_nm1) for lv in levels]
    return np.asarray(rows, dtype=float)
