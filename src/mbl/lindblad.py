"""Open-system dynamics: Liouvillian construction, steady state, evolution.

Density matrices are vectorized by column stacking, so vec(A ρ B) =
(Bᵀ ⊗ A) vec(ρ) and the master equation becomes d vec(ρ)/dt = L vec(ρ)
with L a dense total_dim² × total_dim² complex matrix. Decay channels enter
as (rate/2)(2 C ρ C† - C†C ρ - ρ C†C).

Scenario A couples the oscillator to a thermal bath (occupation n_th) and
damps the reduced two-level system; scenario B keeps only the two zero-
temperature channels.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import Space, annihilation, expm, qubit_ops
from .errors import NumericalError, ParameterError
from .model import SystemParams, hamiltonian_coefficients, hamiltonian_terms

STEADY_RESIDUAL_TOL = 1e-10


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    return rho.flatten(order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of `vectorize`."""
    vec = np.asarray(vec)
    if vec.size != dim * dim:
        raise ValueError(f"vector of size {vec.size} does not fold into {dim}x{dim}")
    return vec.reshape((dim, dim), order="F")


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator for -i[H, ρ]."""
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def dissipator_superop(c: np.ndarray) -> np.ndarray:
    """Superoperator for 2 C ρ C† - C†C ρ - ρ C†C (rate factored out)."""
    d = c.shape[0]
    eye = np.eye(d, dtype=complex)
    cdc = c.conj().T @ c
    return 2.0 * np.kron(c.conj(), c) - np.kron(eye, cdc) - np.kron(cdc.T, eye)


def _sparse_superop(superop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    flat = superop.reshape(-1)
    idx = np.flatnonzero(flat)
    return idx, flat[idx]


@functools.lru_cache(maxsize=8)
def _liouvillian_terms(space: Space) -> tuple[np.ndarray, np.ndarray]:
    """Term table of the generator: L = Σₖ cₖ Lₖ with cₖ from `_liouvillian_coefficients`.

    Rows 0-4 are -i[Hₖ, ·] for the model's `hamiltonian_terms`; rows 5-7 are
    the dissipators of m, m† and σ₋. The Lₖ are stored on the union of their
    nonzero patterns, flat indices `pattern` and an (8, pattern.size) value
    matrix, both read-only. A dense (8, d², d²) stack would be over 10x
    larger at fock_dim 6 and over 100x at fock_dim 20.
    """
    m = annihilation(space)
    sm = qubit_ops(space)[0]
    parts = [_sparse_superop(hamiltonian_superop(h)) for h in hamiltonian_terms(space)]
    parts += [_sparse_superop(dissipator_superop(c)) for c in (m, m.conj().T, sm)]
    pattern = np.unique(np.concatenate([idx for idx, _ in parts]))
    values = np.zeros((len(parts), pattern.size), dtype=complex)
    for row, (idx, vals) in zip(values, parts):
        row[np.searchsorted(pattern, idx)] = vals
    pattern.setflags(write=False)
    values.setflags(write=False)
    return pattern, values


def _liouvillian_coefficients(params: SystemParams) -> np.ndarray:
    if params.scenario == "A":
        loss, gain = 0.5 * params.kappa_m * (params.n_th + 1.0), 0.5 * params.kappa_m * params.n_th
    else:
        loss, gain = 0.5 * params.kappa_m, 0.0
    return np.concatenate([hamiltonian_coefficients(params), [loss, gain, 0.5 * params.kappa_s]])


def build_liouvillian(params: SystemParams) -> np.ndarray:
    """Dense generator of the master equation for the given parameters.

    Scenario A: oscillator loss at (kappa_m/2)(n_th + 1), oscillator thermal
    excitation at (kappa_m/2) n_th, two-level decay at kappa_s/2.
    Scenario B: the two loss channels only (n_th is not used).
    The operator terms come from a table cached per truncation; each call
    returns a fresh array.
    """
    space = params.space()
    pattern, values = _liouvillian_terms(space)
    d2 = space.total_dim**2
    liouv = np.zeros((d2, d2), dtype=complex)
    liouv.reshape(-1)[pattern] = _liouvillian_coefficients(params) @ values
    return liouv


def steady_state(liouv: np.ndarray) -> np.ndarray:
    """Null vector of the Liouvillian, normalized to unit trace.

    One row is traded for the trace constraint vec(I)ᵀ and the resulting
    system is LU-solved; the output is symmetrized. Requires both decay
    rates positive for uniqueness; a singular or ill-conditioned system
    raises NumericalError.
    """
    liouv = np.asarray(liouv)
    d2 = liouv.shape[0]
    d = math.isqrt(d2)
    if liouv.ndim != 2 or liouv.shape != (d2, d2) or d * d != d2:
        raise ValueError(f"Liouvillian shape {liouv.shape} is not a square of a square dimension")
    trace_row = np.zeros(d2, dtype=complex)
    trace_row[(d + 1) * np.arange(d)] = 1.0
    a = liouv.copy()
    a[0, :] = trace_row
    b = np.zeros(d2, dtype=complex)
    b[0] = 1.0
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"steady state is degenerate or undefined: {exc}") from exc
    if not np.all(np.isfinite(x.view(float))):
        raise NumericalError("steady-state solve produced non-finite entries")
    residual = np.max(np.abs(liouv @ x))
    if residual > STEADY_RESIDUAL_TOL:
        raise NumericalError(f"steady-state residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL:.0e}")
    rho = unvectorize(x, d)
    return 0.5 * (rho + rho.conj().T)


def evolve(liouv: np.ndarray, rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Propagate the master equation; returns snapshots stacked on axis 0.

    `times` must be increasing and start at the time where `rho0` holds.
    Each step applies the exact propagator expm(L·dt), computed once per
    distinct step length.
    """
    liouv = np.asarray(liouv)
    rho0 = np.asarray(rho0, dtype=complex)
    d2 = liouv.shape[0]
    d = math.isqrt(d2)
    if rho0.shape != (d, d):
        raise ValueError(f"rho0 shape {rho0.shape} does not match Liouvillian dimension {d}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ParameterError("times must be a non-empty 1-d array")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ParameterError("times must be strictly increasing and start at >= 0")
    vecs = [vectorize(rho0)]
    # a uniform grid has a handful of distinct float steps; bound the cache for irregular ones
    propagators: dict[float, np.ndarray] = {}
    for step in np.diff(times):
        if step not in propagators:
            if len(propagators) == 16:
                propagators.clear()
            propagators[step] = expm(liouv * step)
        vecs.append(propagators[step] @ vecs[-1])
    return np.stack([unvectorize(v, d) for v in vecs])


def _fock_diagonal(rho: np.ndarray, space: Space) -> np.ndarray:
    """Complex diagonal of rho in the oscillator basis, traced over the two-level system."""
    rho = np.asarray(rho)
    if rho.shape != (space.total_dim, space.total_dim):
        raise ValueError(f"rho shape {rho.shape} does not match space dimension {space.total_dim}")
    diag = np.diagonal(rho)
    return diag[: space.fock_dim] + diag[space.fock_dim :]


def _real_moment(weights: np.ndarray, diag: np.ndarray, what: str) -> float:
    value = complex(weights @ diag)
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise NumericalError(f"{what} has a non-negligible imaginary part ({value.imag:.3e})")
    return value.real


def mean_occupation(rho: np.ndarray, space: Space) -> float:
    """⟨m†m⟩ = Σ n Pₙ for the oscillator mode."""
    return _real_moment(np.arange(space.fock_dim, dtype=float), _fock_diagonal(rho, space), "mean occupation")


def g2_zero(rho: np.ndarray, space: Space) -> float:
    """Equal-time second-order correlation ⟨m†m†mm⟩ / ⟨m†m⟩².

    Both moments are diagonal in the Fock basis: Σ n(n-1) Pₙ and Σ n Pₙ.
    Raises NumericalError when the mode is unoccupied (undefined ratio).
    """
    diag = _fock_diagonal(rho, space)
    n = np.arange(space.fock_dim, dtype=float)
    numerator = _real_moment(n * (n - 1.0), diag, "two-quantum moment")
    occupation = _real_moment(n, diag, "mean occupation")
    if occupation <= 0.0 or occupation * occupation < 1e-300:
        raise NumericalError("g2 is undefined: oscillator mode is unoccupied")
    return numerator / (occupation * occupation)


def fock_populations(rho: np.ndarray, space: Space) -> np.ndarray:
    """Oscillator-level populations P_n, traced over the two-level system."""
    return np.real(_fock_diagonal(rho, space))


def density_diagnostics(rho: np.ndarray) -> dict[str, float]:
    """Validity numbers for a density matrix: trace, Hermiticity, positivity."""
    rho = np.asarray(rho)
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    trace = complex(np.trace(rho))
    eigvals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return {
        "trace_real": trace.real,
        "trace_imag": trace.imag,
        "hermiticity_defect": herm_defect,
        "min_eigenvalue": float(eigvals[0]),
        "max_eigenvalue": float(eigvals[-1]),
    }
