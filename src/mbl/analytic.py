"""Perturbative steady-state amplitudes and the analytic g²(0).

For weak drives the system stays near the ground product state and the
dynamics closes on five basis states (lower/upper two-level state, up to two
oscillator quanta). With the ground amplitude pinned at 1, the remaining
four amplitudes obey a linear complex system built from the non-Hermitian
Hamiltonian. Two routes to those amplitudes live here:

* closed-form expressions (scenario A), for single points and parameter
  arrays alike,
* a direct LU solve of the projected linear system (the oracle).

g²(0) follows from the two-quantum amplitude: 2|c_g2|² / |c_g1|⁴. The
cascade is a zero-temperature model: every route rejects n_th ≠ 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Space
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


def require_cascade(params: SystemParams, what: str) -> None:
    """ParameterError naming `what` unless `params` is in the cascade's domain: scenario A at n_th = 0."""
    if params.scenario != "A":
        raise ParameterError(f"{what} is defined for scenario A only (got scenario {params.scenario!r})")
    if params.n_th != 0.0:
        raise ParameterError(f"{what} has no thermal bath; n_th must be 0, got {params.n_th!r}")


def reduced_matrix(params: SystemParams) -> np.ndarray:
    """Cascaded five-state coefficient matrix for the amplitude equations.

    Projects the non-Hermitian Hamiltonian onto the five retained states
    (built from the operator construction, independently of the closed-form
    algebra), then drops the feedback of the two-quantum manifold onto the
    one-quantum amplitudes: the perturbative hierarchy treats each manifold
    as driven only from below, so rows 1-2 keep no couplings to states 3-4.
    """
    require_cascade(params, "the reduced amplitude system")
    # the five retained states hold at most two quanta, so three levels suffice
    space = Space(3)
    h = build_h_nonhermitian(params.replace(fock_dim=3))
    idx = [space.index(q, n) for q, n in STATE_ORDER]
    m = h[np.ix_(idx, idx)].copy()
    m[1:3, 3:5] = 0.0
    return m


# The closed form below works on complex numbers held as (re, im) pairs of
# floats or of float64 arrays. It uses only + - * /, which are correctly
# rounded for Python floats and numpy ufuncs alike, so an array element
# equals the single-point result bit for bit (complex division, hypot and pow
# would not: numpy and CPython implement them differently).

# chi or the pair term below 1e-14 of chi's largest part is singular; compared squared
_SINGULAR_REL2 = 1e-28
# g2 is undefined where |c_g1|⁴ falls below this
_G2_FLOOR = 1e-300
_SQRT2 = math.sqrt(2.0)


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _abs2(x):
    return x[0] * x[0] + x[1] * x[1]


def _div(x, y):
    d = _abs2(y)
    return (x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d


def _cascade(f):
    """Numerators and denominators of the closed-form amplitudes.

    `f` maps field names to floats or to float64 arrays. Returns `singular`
    and a (numerator, denominator) pair for each of c_e0, c_g1, c_e1, c_g2.
    """
    g, om_s, om_d = f["g_ms"], f["omega_s"], f["omega_d"]
    dm = (f["delta_m"], -0.5 * f["kappa_m"])
    ds = (f["delta_s"], -0.5 * f["kappa_s"])
    gg = g * g
    dmds = _mul(dm, ds)
    chi = (gg - 4.0 * dmds[0], -4.0 * dmds[1])  # g² - 4 dm ds
    a = (2.0 * dm[0], 2.0 * dm[1])
    b = (dm[0] + ds[0], dm[1] + ds[1])
    dd = (4.0 * ds[0] * om_d - om_s * g, 4.0 * ds[1] * om_d)  # 4 ds om_d - om_s g
    e = (2.0 * dm[0] * om_s - 2.0 * om_d * g, 2.0 * dm[1] * om_s)  # 2 dm om_s - 2 om_d g
    ab = _mul(a, b)
    pair = (2.0 * ab[0] - gg, 2.0 * ab[1])  # 2ab - g²

    chi2, pair2 = _abs2(chi), _abs2(pair)
    singular = False
    for part2 in (1.0, 16.0 * _abs2(dmds), gg * gg):
        floor = _SINGULAR_REL2 * part2
        singular = singular | (chi2 < floor) | (pair2 < floor)

    # c_e1 = (-a om_s dd - 2a om_d e + 2g om_d dd) / (chi pair)
    t1 = _mul((-a[0] * om_s, -a[1] * om_s), dd)
    t2 = _mul((2.0 * a[0] * om_d, 2.0 * a[1] * om_d), e)
    w = 2.0 * g * om_d
    n_e1 = (t1[0] - t2[0] + w * dd[0], t1[1] - t2[1] + w * dd[1])
    # c_g2 = (-2√2 b cc + om_s dd g + 2 om_d e g) / (√2 chi pair), cc = √2 om_d dd
    k = -2.0 * _SQRT2
    cc = (_SQRT2 * om_d * dd[0], _SQRT2 * om_d * dd[1])
    t3 = _mul((k * b[0], k * b[1]), cc)
    u = 2.0 * om_d
    n_g2 = (t3[0] + om_s * dd[0] * g + u * e[0] * g, t3[1] + om_s * dd[1] * g + u * e[1] * g)
    den = _mul((chi[0] * _SQRT2, chi[1] * _SQRT2), pair)
    # c_e0 = e / chi, c_g1 = dd / chi
    return singular, ((e, chi), (dd, chi), (n_e1, _mul(chi, pair)), (n_g2, den))


def _g2_terms(c_g1, c_g2):
    """Numerator 2|c_g2|² and denominator |c_g1|⁴ of g²(0)."""
    n1 = _abs2(c_g1)
    return 2.0 * _abs2(c_g2), n1 * n1


def closed_form_amplitudes(params: SystemParams) -> AmplitudeSet:
    """Exact steady solution of the five-state system in closed form.

    Valid for scenario A without a thermal bath. Raises NumericalError where
    the expressions degenerate (possible only when both decay rates vanish).
    Where they overflow (omega_d = 1e200, say) the amplitudes are IEEE inf or
    NaN, returned as they are; `amplitude_g2` and `analytic_g2` raise there.
    """
    require_cascade(params, "closed_form_amplitudes")
    singular, fractions = _cascade(vars(params))
    if singular:
        raise NumericalError("closed-form amplitudes are singular at these parameters")
    c_e0, c_g1, c_e1, c_g2 = (complex(*_div(num, den)) for num, den in fractions)
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


def amplitude_g2(amps: AmplitudeSet) -> float:
    """g²(0) from steady amplitudes: 2|c_g2|² / |c_g1|⁴; NumericalError where undefined or not finite."""
    num, den = _g2_terms((amps.c_g1.real, amps.c_g1.imag), (amps.c_g2.real, amps.c_g2.imag))
    if den < _G2_FLOOR:
        raise NumericalError("g2 is undefined: single-quantum amplitude vanishes")
    g2 = float(num / den)
    if not math.isfinite(g2):
        raise NumericalError(f"g2 = {g2!r} is not finite: the amplitudes overflow")
    return g2


def analytic_g2(params: SystemParams) -> float:
    """Perturbative equal-time second-order correlation (scenario A, n_th = 0)."""
    return amplitude_g2(closed_form_amplitudes(params))


def analytic_g2_array(fields) -> np.ndarray:
    """`analytic_g2` over arrays of parameters, equal to it element by element.

    `fields` maps the SystemParams field names to float64 arrays that
    broadcast against each other. They must be valid scenario-A points with
    n_th = 0; nothing is validated here. An element is NaN exactly where
    `analytic_g2` raises NumericalError, else its value.
    """
    with np.errstate(all="ignore"):
        singular, (_, (n1, d1), _, (n2, d2)) = _cascade(fields)
        num, den = _g2_terms(_div(n1, d1), _div(n2, d2))
        g2 = num / den
        return np.where(singular | (den < _G2_FLOOR) | ~np.isfinite(g2), np.nan, g2)


def optimal_detuning(g: float) -> tuple[float, float]:
    """Detunings minimizing g²(0) for the symmetric case: ±g/2."""
    g = finite_real("g", g)
    if g < 0:
        raise ParameterError(f"g must be >= 0, got {g!r}")
    return (0.5 * g, -0.5 * g)
