"""Perturbative steady-state amplitudes and the analytic g²(0).

For weak drives the system stays near the ground product state and the
dynamics closes on five basis states (lower/upper two-level state, up to two
oscillator quanta). With the ground amplitude pinned at 1, the remaining
four amplitudes obey a linear complex system built from the non-Hermitian
Hamiltonian. Three routes to those amplitudes live here:

* closed-form expressions (scenario A),
* a direct LU solve of the projected linear system (the oracle),
* exact-propagator time evolution of the same system.

g²(0) follows from the two-quantum amplitude: 2|c_g2|² / |c_g1|⁴.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Space, expm
from .errors import NumericalError, ParameterError
from .model import SystemParams, build_h_nonhermitian, finite_real

# basis order of the truncated amplitude vector: (two-level, oscillator)
STATE_ORDER: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))
STATE_NAMES = ("c_g0", "c_e0", "c_g1", "c_e1", "c_g2")


@dataclass(frozen=True)
class AmplitudeSet:
    """Steady five-state amplitudes; c_g0 is the pinned ground amplitude."""

    c_g0: complex
    c_e0: complex
    c_g1: complex
    c_e1: complex
    c_g2: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.c_g0, self.c_e0, self.c_g1, self.c_e1, self.c_g2], dtype=complex)


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Time series of the five amplitudes (rows align with `times`)."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (len(times), 5), order per STATE_ORDER

    def final(self) -> AmplitudeSet:
        return AmplitudeSet(*self.amplitudes[-1])


def _require_scenario_a(params: SystemParams, what: str) -> None:
    if params.scenario != "A":
        raise ParameterError(f"{what} is defined for scenario A only (got scenario {params.scenario!r})")


def reduced_matrix(params: SystemParams) -> np.ndarray:
    """Cascaded five-state coefficient matrix for the amplitude equations.

    Projects the non-Hermitian Hamiltonian onto the five retained states
    (built from the operator construction, independently of the closed-form
    algebra), then drops the feedback of the two-quantum manifold onto the
    one-quantum amplitudes: the perturbative hierarchy treats each manifold
    as driven only from below, so rows 1-2 keep no couplings to states 3-4.
    """
    _require_scenario_a(params, "the reduced amplitude system")
    # the five retained states hold at most two quanta, so three levels suffice
    space = Space(3)
    h = build_h_nonhermitian(params.replace(fock_dim=3))
    idx = [space.index(q, n) for q, n in STATE_ORDER]
    m = h[np.ix_(idx, idx)].copy()
    m[1:3, 3:5] = 0.0
    return m


def closed_form_amplitudes(params: SystemParams) -> AmplitudeSet:
    """Exact steady solution of the five-state system in closed form.

    Valid for scenario A. Raises NumericalError where the expressions
    degenerate (possible only when both decay rates vanish).
    """
    _require_scenario_a(params, "closed_form_amplitudes")
    g = params.g_ms
    om_s = params.omega_s
    om_d = params.omega_d
    dm = params.delta_m - 0.5j * params.kappa_m
    ds = params.delta_s - 0.5j * params.kappa_s

    chi = -4.0 * dm * ds + g * g
    a = 2.0 * dm
    b = dm + ds
    dd = 4.0 * ds * om_d - om_s * g
    e = -2.0 * om_d * g + 2.0 * dm * om_s
    cc = math.sqrt(2.0) * om_d * dd
    pair = 2.0 * a * b - g * g

    scale = max(1.0, abs(4.0 * dm * ds), g * g)
    if abs(chi) < 1e-14 * scale or abs(pair) < 1e-14 * scale:
        raise NumericalError("closed-form amplitudes are singular at these parameters")

    c_e0 = e / chi
    c_g1 = dd / chi
    c_e1 = (-a * om_s * dd - 2.0 * a * om_d * e + 2.0 * g * om_d * dd) / (chi * pair)
    c_g2 = (-2.0 * math.sqrt(2.0) * b * cc + om_s * dd * g + 2.0 * om_d * e * g) / (chi * math.sqrt(2.0) * pair)
    return AmplitudeSet(c_g0=1.0 + 0.0j, c_e0=c_e0, c_g1=c_g1, c_e1=c_e1, c_g2=c_g2)


def solve_steady_linear(params: SystemParams) -> AmplitudeSet:
    """Steady amplitudes from an LU solve of the projected linear system.

    Brute-force oracle for `closed_form_amplitudes`: with the ground
    amplitude pinned at 1, the other four satisfy M[1:,1:] c = -M[1:,0].
    """
    m = reduced_matrix(params)
    try:
        c = np.linalg.solve(m[1:, 1:], -m[1:, 0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"steady amplitude system is singular: {exc}") from exc
    return AmplitudeSet(1.0 + 0.0j, *c)


def evolve_amplitudes(params: SystemParams, t_end: float, dt: float) -> AmplitudeTrajectory:
    """Propagate the five-state amplitudes from rest with the exact step propagator.

    The ground amplitude is held at 1 (its generator row is zero) and the
    other four start at 0. `dt` is an upper bound on the sampling step; the
    actual step divides t_end evenly. Long times relax onto the
    `solve_steady_linear` solution when both decay rates are positive.
    """
    t_end, dt = finite_real("t_end", t_end), finite_real("dt", dt)
    if t_end <= 0:
        raise ParameterError(f"t_end must be positive, got {t_end!r}")
    if dt <= 0:
        raise ParameterError(f"dt must be positive, got {dt!r}")
    m = reduced_matrix(params)
    m[0] = 0.0
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
    step = expm(-1j * (t_end / n_steps) * m)
    out = np.zeros((n_steps + 1, 5), dtype=complex)
    out[0, 0] = 1.0
    for i in range(1, n_steps + 1):
        out[i] = step @ out[i - 1]
    return AmplitudeTrajectory(times=np.linspace(0.0, t_end, n_steps + 1), amplitudes=out)


def amplitude_g2(amps: AmplitudeSet) -> float:
    """g²(0) from steady amplitudes: 2|c_g2|² / |c_g1|⁴."""
    denom = abs(amps.c_g1) ** 4
    if denom < 1e-300:
        raise NumericalError("g2 is undefined: single-quantum amplitude vanishes")
    return 2.0 * abs(amps.c_g2) ** 2 / denom


def analytic_g2(params: SystemParams) -> float:
    """Perturbative equal-time second-order correlation (scenario A)."""
    return amplitude_g2(closed_form_amplitudes(params))


def optimal_detuning(g: float) -> tuple[float, float]:
    """Detunings minimizing g²(0) for the symmetric case: ±g/2."""
    g = finite_real("g", g)
    if g < 0:
        raise ParameterError(f"g must be >= 0, got {g!r}")
    return (0.5 * g, -0.5 * g)
