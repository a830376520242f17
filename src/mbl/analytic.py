"""Perturbative steady-state amplitudes and the analytic g²(0).

For weak drives the system stays near the ground product state and the
dynamics closes on five basis states (lower/upper two-level state, up to two
oscillator quanta). With the ground amplitude pinned at 1, the remaining
four amplitudes obey a linear complex system built from the non-Hermitian
Hamiltonian. Two routes to those amplitudes live here, each returning
them as a complex array of shape (5,) in `STATE_ORDER`:

* closed-form expressions, for single points and parameter arrays alike,
* a direct LU solve of the projected linear system (the oracle).

g²(0) follows from the two-quantum amplitude: 2|c_g2|² / |c_g1|⁴. The
cascade is a zero-temperature model: every route rejects n_th ≠ 0. Both
scenarios run it: scenario B is scenario A at omega_s = 0 with g_ms_tilde
as the coupling.
"""

from __future__ import annotations

import math

import numpy as np

from .core import G2_FLOOR, Space
from .errors import NumericalError, ParameterError, finite_real, nonnegative
from .model import SystemParams, build_h_nonhermitian

# basis order of the truncated amplitude vector: (two-level, oscillator)
STATE_ORDER: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))
STATE_NAMES = ("c_g0", "c_e0", "c_g1", "c_e1", "c_g2")


def require_cascade(params: SystemParams, what: str) -> None:
    """ParameterError naming `what` unless `params` is in the cascade's domain: n_th = 0."""
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
    # validation zeroes the coupling a scenario does not use, so the sum is the active one
    g, om_s, om_d = f["g_ms"] + f["g_ms_tilde"], f["omega_s"], f["omega_d"]
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


def closed_form_amplitudes(params: SystemParams) -> np.ndarray:
    """Exact steady solution of the five-state system in closed form, in `STATE_ORDER` with c_g0 = 1.

    Valid in either scenario without a thermal bath. Raises NumericalError where
    the expressions degenerate (possible only when both decay rates vanish).
    Where they overflow (omega_d = 1e200, say) the amplitudes are IEEE inf or
    NaN, returned as they are; `amplitude_g2` and `analytic_g2` raise there.
    """
    require_cascade(params, "closed_form_amplitudes")
    singular, fractions = _cascade(vars(params))
    if singular:
        raise NumericalError("closed-form amplitudes are singular at these parameters")
    return np.array([1.0, *(complex(*_div(num, den)) for num, den in fractions)], dtype=complex)


def solve_steady_linear(params: SystemParams) -> np.ndarray:
    """Steady amplitudes, in `STATE_ORDER` with c_g0 = 1, from an LU solve of the projected linear system.

    Brute-force oracle for `closed_form_amplitudes`: with the ground
    amplitude pinned at 1, the other four satisfy M[1:,1:] c = -M[1:,0].
    """
    m = reduced_matrix(params)
    try:
        c = np.linalg.solve(m[1:, 1:], -m[1:, 0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"steady amplitude system is singular: {exc}") from exc
    return np.concatenate(([1.0 + 0.0j], c))


def amplitude_g2(amps: np.ndarray) -> float:
    """g²(0) from amplitudes in `STATE_ORDER`: 2|c_g2|² / |c_g1|⁴; NumericalError where undefined or not finite."""
    # Python complexes: their float arithmetic overflows to inf without a numpy warning
    _, _, c_g1, _, c_g2 = amps.tolist()
    num, den = _g2_terms((c_g1.real, c_g1.imag), (c_g2.real, c_g2.imag))
    if den < G2_FLOOR:
        raise NumericalError("g2 is undefined: single-quantum amplitude vanishes")
    g2 = float(num / den)
    if not math.isfinite(g2):
        raise NumericalError(f"g2 = {g2!r} is not finite: the amplitudes overflow")
    return g2


def analytic_g2(params: SystemParams) -> float:
    """Perturbative equal-time second-order correlation (n_th = 0)."""
    return amplitude_g2(closed_form_amplitudes(params))


def analytic_g2_array(fields) -> np.ndarray:
    """`analytic_g2` over arrays of parameters, equal to it element by element.

    `fields` maps the SystemParams field names to float64 arrays that
    broadcast against each other. They must be valid points at n_th = 0;
    nothing is validated here. An element is NaN exactly where
    `analytic_g2` raises NumericalError, else its value.
    """
    with np.errstate(all="ignore"):
        singular, (_, (n1, d1), _, (n2, d2)) = _cascade(fields)
        num, den = _g2_terms(_div(n1, d1), _div(n2, d2))
        g2 = num / den
        return np.where(singular | (den < G2_FLOOR) | ~np.isfinite(g2), np.nan, g2)


def optimal_detuning(g: float) -> tuple[float, float]:
    """The detunings ±g/2 of the g²(0) dips for the symmetric case.

    ±g/2 is the κ → 0 limit of the closed form's dark root
    δ* = √(g²/4 − κ²/2), for κ_m = κ_s = κ, at the drive ratio Ω_s/Ω_d = 4δ*/g.
    """
    g = nonnegative("g", finite_real("g", g))
    return (0.5 * g, -0.5 * g)
