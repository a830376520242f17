"""Open-system dynamics: Liouvillian construction, steady state, evolution.

A Hermitian density matrix ρ on the D-dimensional composite space is held
as D² real coordinates: ρ_ii, and Re ρ_ij and Im ρ_ij for i < j (the
coherence-vector form, Breuer & Petruccione 2002 §3.2). They are the
entries of one real D×D matrix R, read in row-major order, with
R[i, j] = Re ρ_ij on and above the diagonal and R[i, j] = Im ρ_ij below it.
The master equation is then dv/dt = L v with L a real D² × D² matrix,
built from the Hamiltonian terms and jump operators of `model.model_terms`.

The coordinates are balanced by weak-drive order: the coordinate of
|a⟩⟨b| is ρ's entry divided by ε^(N_a+N_b), where N counts the two-level
plus oscillator excitations of a basis state. Under weak drive ρ_ab falls
off with N_a+N_b (Liew & Savona, PRL 104, 183601 (2010)), so the scaling
evens out the rows of the steady-state system before it is LU-solved.
ε = 1/2 is a power of two, so the scaling rounds nothing.

There is one generator buffer per truncation, cached with the term table
that fills it: `liouvillian_workspace` writes a point's generator into it
and returns the buffer itself, so a numeric point allocates no fresh
D² × D² matrix. The buffer is not reentrant: it holds the last point built
for its truncation. `build_liouvillian` returns a copy of it.

Every steady-state solve runs at one BLAS thread, because OpenBLAS threads
an LU from m·n >= 10,000 and at fock_dim 6 (143 × 143) the thread hand-off
costs more than it saves: 158 µs at two threads against 111 µs at one on a
2-core x86-64 host, and one thread gives the same bytes at any
OPENBLAS_NUM_THREADS; where numpy's BLAS is not OpenBLAS (MKL, Accelerate,
a system BLAS), the solve runs at the library's own setting.
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import QUBIT_DIM, Space, expm
from .errors import NumericalError, ParameterError
from .model import SystemParams, model_coefficients, model_terms

STEADY_RESIDUAL_TOL = 1e-10

# largest trace drift an evolution may show, relative to max(1, |tr ρ₀|); L
# preserves the trace exactly, so drift is rounding amplified by expm's squarings
EVOLVE_TRACE_TOL = 1e-9

# ε of the drive-order balancing; a power of two, so scaling by it is exact
BALANCE = 0.5


class _Layout(NamedTuple):
    """Where each entry of a D×D Hermitian matrix lives among its coordinates; read-only arrays."""

    upper: np.ndarray  # (D, D) bool: R holds Re ρ_ab here, Im ρ_ab elsewhere
    scale: np.ndarray  # (D, D): ε^(N_a+N_b)
    real_at: np.ndarray  # (D, D) flat coordinate index of Re ρ_ab
    imag_at: np.ndarray  # (D, D) flat coordinate index of Im ρ_ab, up to sign
    imag_scale: np.ndarray  # (D, D): sign(a - b) ε^(N_a+N_b), so Im ρ_ab = imag_scale · v[imag_at]
    trace: np.ndarray  # (D²,): tr ρ = trace · v


@functools.lru_cache(maxsize=8)
def _layout(dim: int) -> _Layout:
    if dim % QUBIT_DIM:
        raise ValueError(f"dimension {dim} is not a two-level system times an oscillator")
    fock_dim = dim // QUBIT_DIM
    excitations = np.add.outer(np.arange(QUBIT_DIM), np.arange(fock_dim)).reshape(-1)
    scale = BALANCE ** np.add.outer(excitations, excitations).astype(float)
    a, b = np.indices((dim, dim))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    layout = _Layout(
        upper=a <= b,
        scale=scale,
        real_at=lo * dim + hi,
        imag_at=hi * dim + lo,
        imag_scale=np.sign(a - b) * scale,
        trace=(np.eye(dim) * scale).reshape(-1),
    )
    for array in layout:
        array.setflags(write=False)
    return layout


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Balanced real coordinates of a Hermitian matrix, or of each in a stack (..., D, D)."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    defect = np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj()), initial=0.0)
    if defect > 1e-12 * np.max(np.abs(rho), initial=0.0):
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e}); only Hermitian matrices have coordinates")
    dim = rho.shape[-1]
    layout = _layout(dim)
    return (np.where(layout.upper, rho.real, rho.imag) / layout.scale).reshape(*rho.shape[:-2], dim * dim)


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of `vectorize`: the Hermitian (dim, dim) matrix of each coordinate vector."""
    vec = np.asarray(vec)
    if vec.ndim < 1 or vec.shape[-1] != dim * dim:
        raise ValueError(f"vector of shape {vec.shape} does not fold into {dim}x{dim}")
    layout = _layout(dim)
    rho = np.empty((*vec.shape[:-1], dim, dim), dtype=complex)
    rho.real = vec[..., layout.real_at] * layout.scale
    rho.imag = vec[..., layout.imag_at] * layout.imag_scale
    return rho


def _sandwich_entries(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Entries of the superoperator ρ ↦ A ρ B: output (i, j), input (k, l), value A_ik B_lj."""
    i, k = np.nonzero(a)
    l, j = np.nonzero(b)
    x, y = np.repeat(np.arange(i.size), l.size), np.tile(np.arange(l.size), i.size)
    return i[x], j[y], k[x], l[y], a[i[x], k[x]] * b[l[y], j[y]]


def _real_entries(sandwiches: list[tuple[np.ndarray, np.ndarray]], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into the real D² × D² generator, and values, of a sum of sandwiches.

    Only outputs ρ_ij with i >= j are read: the generator preserves
    Hermiticity, so dρ_ji is the conjugate of dρ_ij. An input is
    ρ_kl = v[real_at] + i·sign(k - l)·v[imag_at] in unscaled coordinates.
    Repeated indices are summed by the caller.
    """
    i, j, k, l, v = (np.concatenate(parts) for parts in zip(*(_sandwich_entries(a, b) for a, b in sandwiches)))
    keep = i >= j
    i, j, k, l, v = i[keep], j[keep], k[keep], l[keep], v[keep]
    layout = _layout(dim)
    re_row, im_row = layout.real_at[i, j], layout.imag_at[i, j]
    re_col, im_col = layout.real_at[k, l], layout.imag_at[k, l]
    sigma = np.sign(k - l)
    off = i > j  # the diagonal has no imaginary coordinate
    rows = np.concatenate([re_row, re_row, im_row, im_row])
    cols = np.concatenate([re_col, im_col, re_col, im_col])
    vals = np.concatenate([v.real, -v.imag * sigma, v.imag * off, v.real * sigma * off])
    return rows * dim * dim + cols, vals * np.tile(layout.scale[k, l] / layout.scale[i, j], 4)


@functools.lru_cache(maxsize=8)
def _liouvillian_terms(space: Space) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Term table of the real generator: L = Σₖ cₖ Lₖ with cₖ from `model_coefficients`.

    Rows 0-4 are -i[Hₖ, ·] for the Hamiltonian terms of `model_terms`, rows
    5-7 the dissipators C ρ C† - ½{C†C, ρ} of its jump operators, all in the
    balanced real coordinates.
    The Lₖ are stored on the union of their nonzero patterns, flat indices
    `pattern` and an (8, pattern.size) value matrix, both read-only. A dense
    (8, d², d²) stack would be over 10x larger at fock_dim 6 and over 100x at
    fock_dim 20. The third entry is the truncation's zeroed d² × d² generator
    buffer; only entries on `pattern` are ever written into it, so every
    other entry stays zero.
    """
    dim = space.total_dim
    eye = np.eye(dim)
    hamiltonian, jumps = model_terms(space)
    terms = [[(-1j * h, eye), (eye, 1j * h)] for h in hamiltonian]
    for c in jumps:
        half_cdc = 0.5 * c.conj().T @ c
        terms.append([(c, c.conj().T), (-half_cdc, eye), (eye, -half_cdc)])
    entries = [_real_entries(sandwiches, dim) for sandwiches in terms]
    flat = np.concatenate([idx for idx, _ in entries])
    row = np.repeat(np.arange(len(entries)), [idx.size for idx, _ in entries])
    pattern, column = np.unique(flat, return_inverse=True)
    values = np.zeros((len(entries), pattern.size))
    np.add.at(values, (row, column), np.concatenate([vals for _, vals in entries]))
    nonzero = np.any(values != 0.0, axis=0)
    pattern, values = pattern[nonzero], values[:, nonzero]
    pattern.setflags(write=False)
    values.setflags(write=False)
    return pattern, values, np.zeros((dim * dim, dim * dim))


@np.errstate(all="ignore")
def liouvillian_workspace(params: SystemParams) -> np.ndarray:
    """Real generator of the master equation, written into its truncation's one buffer.

    The point's coefficients times the cached term table go onto the
    table's fixed pattern; the buffer's other entries are never written and
    stay zero. The returned array is the buffer itself: it is valid until
    the next call for the same truncation, and it must not be written to.
    `mbl` runs one point at a time, so its steady-state paths build here;
    use `build_liouvillian` for a generator to keep. An entry that overflows
    is inf, with no warning: the solve or evolution reading it raises NumericalError.
    """
    pattern, values, liouv = _liouvillian_terms(params.space())
    liouv.reshape(-1)[pattern] = np.concatenate(model_coefficients(params)) @ values
    return liouv


def build_liouvillian(params: SystemParams) -> np.ndarray:
    """Real generator of the master equation in the balanced coordinates of `vectorize`.

    The Hamiltonian terms, jump operators and rates are those of
    `model.model_terms` and `model.model_coefficients`. The operator terms
    come from a table cached per truncation, and the generator is built in
    that truncation's one buffer by `liouvillian_workspace`; each call
    returns a fresh copy of it, so the result outlives later builds. The
    buffer is not reentrant.
    """
    return liouvillian_workspace(params).copy()


@functools.cache
def _blas_threads() -> Callable[[int], int]:
    """Setter of the BLAS thread count that returns the previous count.

    It is `openblas_set_num_threads_local` of the OpenBLAS numpy loaded, which
    numpy's wheels carry in `numpy.libs/` (Linux, Windows) or `numpy/.dylibs/`
    (macOS). It is looked up on the first solve, not at import, so importing
    `mbl` opens no file. Without that library or symbol the setter changes
    nothing and returns its argument.
    """
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        try:
            setter = ctypes.CDLL(str(path)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return lambda count: count


def _check_generator(liouv: np.ndarray) -> int:
    """Density-matrix dimension D of a real D² × D² generator; ValueError for anything else."""
    d2 = liouv.shape[0] if liouv.ndim == 2 else 0
    d = math.isqrt(d2)
    if liouv.shape != (d2, d2) or d * d != d2 or d2 == 0:
        raise ValueError(f"Liouvillian shape {liouv.shape} is not a square of a square dimension")
    if np.iscomplexobj(liouv):
        raise ValueError("the Liouvillian acts on real coordinates and must be real; see build_liouvillian")
    return d


@np.errstate(all="ignore")
def steady_coordinates(liouv: np.ndarray) -> tuple[np.ndarray, float]:
    """Null vector of the Liouvillian in balanced coordinates, at unit trace, and its residual.

    The ground population is held at 1 while the other rows of L v = 0 are
    LU-solved for the remaining coordinates; the ground-population row is
    implied by the others, since L preserves the trace. The system matrix is
    the block L[1:, 1:] itself, so `liouv` is neither copied nor changed.
    The result is then scaled to unit trace; the residual is max |dρ/dt|
    over the entries of L v. Requires both decay rates positive for
    uniqueness; a singular or ill-conditioned system, a steady state without
    ground population, non-finite coordinates, or a residual that is not
    within STEADY_RESIDUAL_TOL raises NumericalError, and no numpy warning.
    The solve, normalisation and residual run at one OpenBLAS thread, which
    at fock_dim 6 is faster than its threaded LU and gives the same bytes at
    any thread count; the caller's count is restored on return and on every
    raise. The count is process-wide, so solves run from several Python
    threads at once can leave it at 1.
    """
    liouv = np.asarray(liouv)
    d = _check_generator(liouv)
    x = np.empty(d * d)
    x[0] = 1.0
    set_threads = _blas_threads()
    previous = set_threads(1)
    try:
        try:
            x[1:] = np.linalg.solve(liouv[1:, 1:], -liouv[1:, 0])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"steady state is degenerate or undefined: {exc}") from exc
        x /= _layout(d).trace @ x
        if not np.all(np.isfinite(x)):
            raise NumericalError("steady-state solve produced non-finite entries")
        residual = float(np.max(np.abs(unvectorize(liouv @ x, d))))
        if not residual <= STEADY_RESIDUAL_TOL:  # NaN counts as exceeding
            raise NumericalError(f"steady-state residual exceeds {STEADY_RESIDUAL_TOL:.0e}")
    finally:
        set_threads(previous)
    return x, residual


def steady_state(liouv: np.ndarray) -> np.ndarray:
    """Null vector of the Liouvillian, as a density matrix of unit trace.

    The solve and its checks are `steady_coordinates`; this folds its
    coordinates into ρ, which is Hermitian by construction.
    """
    x, _ = steady_coordinates(liouv)
    return unvectorize(x, math.isqrt(x.size))


@np.errstate(all="ignore")
def evolve(liouv: np.ndarray, rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Propagate the master equation; returns snapshots stacked on axis 0.

    `rho0` must be Hermitian, and `times` increasing from the time where `rho0` holds.
    Each step applies the exact propagator expm(L·dt), computed once per
    distinct step length. NumericalError names the first snapshot whose
    trace, read from the diagonal coordinates, drifts from tr ρ₀ by more
    than EVOLVE_TRACE_TOL · max(1, |tr ρ₀|), or that holds a non-finite
    coordinate; a step that overflows raises it without a numpy warning.
    """
    liouv = np.asarray(liouv)
    d = _check_generator(liouv)
    rho0 = np.asarray(rho0)
    if rho0.shape != (d, d):
        raise ValueError(f"rho0 shape {rho0.shape} does not match Liouvillian dimension {d}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ParameterError("times must be a non-empty 1-d array")
    if not np.all(np.isfinite(times)) or times[0] < 0 or np.any(times[1:] <= times[:-1]):
        raise ParameterError("times must be finite, strictly increasing and start at >= 0")
    vecs = [vectorize(rho0)]
    # a uniform grid has a handful of distinct float steps; bound the cache for irregular ones
    propagators: dict[float, np.ndarray] = {}
    for step in np.diff(times):
        if step not in propagators:
            if len(propagators) == 16:
                propagators.clear()
            propagators[step] = expm(liouv * step)
        vecs.append(propagators[step] @ vecs[-1])
    vecs = np.stack(vecs)
    # the diagonal coordinates sit every d + 1 entries
    traces = vecs[:, :: d + 1] @ _layout(d).trace[:: d + 1]
    drift = np.abs(traces - traces[0])
    lost = ~(drift <= EVOLVE_TRACE_TOL * max(1.0, abs(traces[0])))  # NaN counts as lost
    bad = np.flatnonzero(lost | ~np.isfinite(vecs).all(axis=1))
    if bad.size:
        k = bad[0]
        problem = f"lost the trace: drift {drift[k]:.3e}" if lost[k] else "produced a non-finite entry"
        raise NumericalError(f"propagation {problem} at t = {times[k]:.6g}")
    return unvectorize(vecs, d)


def fock_populations(rho: np.ndarray, space: Space) -> np.ndarray:
    """Oscillator-level populations P_n, traced over the two-level system.

    `rho` may be a stack (..., D, D); the populations run along the last axis.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (space.total_dim, space.total_dim):
        raise ValueError(f"rho shape {rho.shape} does not match space dimension {space.total_dim}")
    diag = np.diagonal(rho, axis1=-2, axis2=-1).real
    return diag[..., : space.fock_dim] + diag[..., space.fock_dim :]


def population_moments(pops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Σ n Pₙ and Σ n(n-1) Pₙ along the last axis."""
    n = np.arange(pops.shape[-1], dtype=float)
    return (pops * n).sum(axis=-1), (pops * (n * (n - 1.0))).sum(axis=-1)


def g2_from_populations(pops: np.ndarray) -> np.ndarray:
    """⟨m†m†mm⟩ / ⟨m†m⟩² from populations on the last axis; NaN where the mode is unoccupied."""
    occupation, pairs = population_moments(np.asarray(pops, dtype=float))
    defined = (occupation > 0.0) & (occupation * occupation >= 1e-300)
    return np.where(defined, pairs / np.where(defined, occupation * occupation, 1.0), np.nan)


def g2_zero(rho: np.ndarray, space: Space) -> float:
    """Equal-time second-order correlation ⟨m†m†mm⟩ / ⟨m†m⟩².

    Both moments are diagonal in the Fock basis: Σ n(n-1) Pₙ and Σ n Pₙ.
    Raises NumericalError when the mode is unoccupied (undefined ratio).
    """
    g2 = float(g2_from_populations(fock_populations(rho, space)))
    if math.isnan(g2):
        raise NumericalError("g2 is undefined: oscillator mode is unoccupied")
    return g2
