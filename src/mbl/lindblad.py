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

`build_liouvillian` writes each point's generator into a fresh array, from
a table of the model's terms cached per truncation.

The steady state solves the block L[1:, 1:] as a band matrix. Its
coordinates are sorted stably by drive order N_a + N_b. In that order the
exchange coupling, the detunings and the decay terms keep a coordinate's
order, a drive moves it by one, and a jump by two (down for a loss, up for
a thermal bath), so the model's generator is banded: 41 subdiagonals and
51 superdiagonals of 142 at fock_dim 6. LAPACK's dgbsv factors and solves
it in one call: about 95 µs with the band gathered, where numpy's dense LU
takes about 160 µs, at one thread on a 2-core x86-64 host. Either LU only
fills the coordinates, and one check sequence (unit trace, finite,
residual) follows it; numpy's dense LU runs where its LAPACK has no dgbsv
(MKL, Accelerate), and to redo a band solve that fails a check.

Every steady-state solve runs at one BLAS thread. OpenBLAS threads a dense
LU from m·n >= 10,000, and it threads the dgemm and dtrsm calls of dgbsv's
blocked factorisation too; at fock_dim 6 (143 × 143) the thread hand-off
costs more than it saves: the dense LU took 158 µs at two threads against
111 µs at one on a 2-core x86-64 host. One thread also gives the same bytes
at any OPENBLAS_NUM_THREADS. The thread-count setter and dgbsv are one
ctypes binding of the OpenBLAS numpy loaded (`_openblas`); where numpy's
BLAS is another library, the solve runs at that library's own setting. The
count is process-wide and the band work arrays are one per truncation, so
solves from several Python threads take turns under one lock, each
restoring the count it found.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import threading
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import G2_FLOOR, QUBIT_DIM, Space, expm
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
    at: np.ndarray  # (D, D, 2): flat coordinate indices of Re ρ_ab and of Im ρ_ab, the latter up to sign
    fold: np.ndarray  # (D, D, 2): ε^(N_a+N_b) and sign(a - b) ε^(N_a+N_b), so (Re, Im) ρ_ab = fold · v[at]
    lower_at: np.ndarray  # (D(D+1)/2, 2): `at` on the diagonal and below it, row by row
    lower_fold: np.ndarray  # (D(D+1)/2, 2): `fold` there
    trace: np.ndarray  # (D²,): tr ρ = trace · v
    order: np.ndarray  # (D²,): N_a + N_b of each coordinate, the exponent of its balancing


@functools.lru_cache(maxsize=8)
def _layout(dim: int) -> _Layout:
    if dim % QUBIT_DIM:
        raise ValueError(f"dimension {dim} is not a two-level system times an oscillator")
    fock_dim = dim // QUBIT_DIM
    excitations = np.add.outer(np.arange(QUBIT_DIM), np.arange(fock_dim)).reshape(-1)
    order = np.add.outer(excitations, excitations)
    scale = BALANCE ** order.astype(float)
    a, b = np.indices((dim, dim))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    at = np.stack([lo * dim + hi, hi * dim + lo], axis=-1)
    fold = np.stack([scale, np.sign(a - b) * scale], axis=-1)
    layout = _Layout(
        upper=a <= b,
        scale=scale,
        at=at,
        fold=fold,
        lower_at=at[a >= b],
        lower_fold=fold[a >= b],
        trace=(np.eye(dim) * scale).reshape(-1),
        order=order.reshape(-1),
    )
    for array in layout:
        array.setflags(write=False)
    return layout


def _fold(vec: np.ndarray, at: np.ndarray, fold: np.ndarray) -> np.ndarray:
    """The complex entries whose (Re, Im) pairs are fold · vec[..., at], along vec's leading axes."""
    # a C-ordered product has contiguous pairs to view as complex, whatever vec's strides
    return np.multiply(vec[..., at], fold, order="C").view(complex)[..., 0]


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
    vec = np.asarray(vec, dtype=float)
    if vec.ndim < 1 or vec.shape[-1] != dim * dim:
        raise ValueError(f"vector of shape {vec.shape} does not fold into {dim}x{dim}")
    layout = _layout(dim)
    return _fold(vec, layout.at, layout.fold)


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
    ρ_kl = v[at[k, l, 0]] + i·sign(k - l)·v[at[k, l, 1]] in unscaled coordinates.
    Repeated indices are summed by the caller.
    """
    i, j, k, l, v = (np.concatenate(parts) for parts in zip(*(_sandwich_entries(a, b) for a, b in sandwiches)))
    keep = i >= j
    i, j, k, l, v = i[keep], j[keep], k[keep], l[keep], v[keep]
    layout = _layout(dim)
    re_row, im_row = layout.at[i, j].T
    re_col, im_col = layout.at[k, l].T
    sigma = np.sign(k - l)
    off = i > j  # the diagonal has no imaginary coordinate
    rows = np.concatenate([re_row, re_row, im_row, im_row])
    cols = np.concatenate([re_col, im_col, re_col, im_col])
    vals = np.concatenate([v.real, -v.imag * sigma, v.imag * off, v.real * sigma * off])
    return rows * dim * dim + cols, vals * np.tile(layout.scale[k, l] / layout.scale[i, j], 4)


@functools.lru_cache(maxsize=8)
def _liouvillian_terms(space: Space) -> tuple[np.ndarray, np.ndarray]:
    """Term table of the real generator: L = Σₖ cₖ Lₖ with cₖ from `model_coefficients`.

    Rows 0-4 are -i[Hₖ, ·] for the Hamiltonian terms of `model_terms`, rows
    5-7 the dissipators C ρ C† - ½{C†C, ρ} of its jump operators, all in the
    balanced real coordinates.
    The Lₖ are stored on the union of their nonzero patterns, flat indices
    `pattern` and an (8, pattern.size) value matrix, both read-only. A dense
    (8, d², d²) stack would be over 10x larger at fock_dim 6 and over 100x at
    fock_dim 20.
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
    return pattern, values


@np.errstate(all="ignore")
def build_liouvillian(params: SystemParams) -> np.ndarray:
    """Real generator of the master equation in the balanced coordinates of `vectorize`.

    The Hamiltonian terms, jump operators and rates are those of
    `model.model_terms` and `model.model_coefficients`. The point's
    coefficients times the term table cached for its truncation go onto the
    table's pattern in a fresh zeroed array, which the caller owns. An entry
    that overflows is inf, with no warning: the solve or evolution reading
    it raises NumericalError.
    """
    space = params.space()
    pattern, values = _liouvillian_terms(space)
    liouv = np.zeros((space.total_dim ** 2,) * 2)
    liouv.reshape(-1)[pattern] = np.concatenate(model_coefficients(params)) @ values
    return liouv


class _OpenBLAS(NamedTuple):
    """What `steady_coordinates` calls in the OpenBLAS numpy loaded."""

    set_threads: Callable[[int], int]  # sets the process-wide thread count and returns the previous one
    dgbsv: tuple[Callable, type] | None  # LAPACK's band solver and its ctypes integer type; None without it


@functools.cache
def _openblas() -> _OpenBLAS:
    """`openblas_set_num_threads_local` and `dgbsv` of the OpenBLAS numpy loaded, bound once.

    numpy's wheels carry the library in `numpy.libs/` (Linux, Windows) or
    `numpy/.dylibs/` (macOS). It is opened on the first solve, not at import,
    so importing `mbl` opens no file. A plain OpenBLAS exports `dgbsv_` with
    32-bit integers; numpy 2's scipy-openblas prefixes `scipy_` and suffixes
    `64_`, and the suffix means 64-bit integers. Where numpy's BLAS is another
    library, the setter changes nothing and returns its argument, and there
    is no `dgbsv`.
    """
    package = Path(np.__file__).parent
    lib = None
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
            break
        except OSError:
            continue
    setter = getattr(lib, "openblas_set_num_threads_local", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    dgbsv = None
    for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
        routine = getattr(lib, f"{prefix}dgbsv_{suffix}", None)
        if routine is not None:
            integer = ctypes.c_int64 if suffix else ctypes.c_int32
            # n, kl, ku, nrhs, ab, ldab, ipiv, b, ldb, info: Fortran passes every argument by reference
            index, array = ctypes.POINTER(integer), ctypes.c_void_p
            routine.argtypes = [index, index, index, index, array, index, array, array, index, index]
            routine.restype = None
            dgbsv = routine, integer
            break
    return _OpenBLAS(setter or (lambda count: count), dgbsv)


# held around a solve's pin and restore, and around the band work arrays: the count is
# process-wide, so pins that overlap across Python threads would restore each other's one thread
_BLAS_LOCK = threading.Lock()


class _Band(NamedTuple):
    """The block L[1:, 1:] in drive order, as LAPACK band storage, with dgbsv's arguments."""

    order: np.ndarray  # (D² - 1,): coordinates 1 … D² - 1 sorted stably by drive order
    src: np.ndarray  # flat index into L of each entry of `work`; 0 where dgbsv reads nothing
    work: np.ndarray  # the band, column-major (2kl + ku + 1) × (D² - 1), then the right-hand side
    rhs: np.ndarray  # view of the tail of `work`: L[order, 0] on entry, the solution on return
    args: tuple  # dgbsv's arguments on `work`, by reference
    info: ctypes.c_int32 | ctypes.c_int64  # LAPACK's info, written by each call


@functools.lru_cache(maxsize=8)
def _band(dim: int, integer: type) -> _Band:
    """Band storage and work arrays of `steady_coordinates` for density matrices of dimension `dim`.

    The coordinates 1 … D² - 1 are sorted stably by drive order, and the
    band widths are read off the model's term pattern at this truncation,
    thermal jumps included: 41 below and 51 above the diagonal at
    fock_dim 6. About 0.15 MB each for the index map and the work array
    there. `integer` is the ctypes integer type of the `dgbsv` they are for.
    """
    d2 = dim * dim
    order = np.argsort(_layout(dim).order[1:], kind="stable") + 1
    n = order.size
    position = np.zeros(d2, dtype=np.intp)
    position[order] = np.arange(n)
    fock_dim = dim // QUBIT_DIM
    # a two-level system alone is no truncation of the model: its whole block is band
    pattern = _liouvillian_terms(Space(fock_dim))[0] if fock_dim > 1 else np.arange(d2 * d2)
    rows, cols = np.divmod(pattern, d2)
    inner = (rows > 0) & (cols > 0)
    reach = position[cols[inner]] - position[rows[inner]]
    kl, ku = -int(reach.min()), int(reach.max())
    # row r of column j holds A[r - kl - ku + j, j]; rows 0 … kl - 1 are dgbsv's fill-in
    ldab = 2 * kl + ku + 1
    j = np.arange(n)[:, None]
    i = np.arange(ldab) - (kl + ku) + j
    held = (i >= np.maximum(j - ku, 0)) & (i < n)
    src = np.where(held, order[np.clip(i, 0, n - 1)] * d2 + order[j], 0).reshape(-1)
    src = np.concatenate([src, order * d2])
    work = np.empty(src.size)
    ipiv = np.empty(n, dtype=integer)
    info = integer()
    args = (*(ctypes.byref(integer(v)) for v in (n, kl, ku, 1)), work.ctypes.data_as(ctypes.c_void_p),
            ctypes.byref(integer(ldab)), ipiv.ctypes.data_as(ctypes.c_void_p),
            work[n * ldab :].ctypes.data_as(ctypes.c_void_p), ctypes.byref(integer(n)), ctypes.byref(info))
    src.setflags(write=False)
    return _Band(order, src, work, work[n * ldab :], args, info)


def _check_generator(liouv: np.ndarray) -> int:
    """Density-matrix dimension D of a real D² × D² generator; ValueError for anything else."""
    d2 = liouv.shape[0] if liouv.ndim == 2 else 0
    d = math.isqrt(d2)
    if liouv.shape != (d2, d2) or d * d != d2 or d2 == 0:
        raise ValueError(f"Liouvillian shape {liouv.shape} is not a square of a square dimension")
    if np.iscomplexobj(liouv):
        raise ValueError("the Liouvillian acts on real coordinates and must be real; see build_liouvillian")
    return d


def _band_lu(dgbsv: tuple[Callable, type], liouv: np.ndarray, x: np.ndarray) -> None:
    """Null vector of L up to scale by the band LU of L[1:, 1:], into x; NaN where dgbsv meets an exact zero pivot."""
    routine, integer = dgbsv
    band = _band(math.isqrt(x.size), integer)
    np.take(np.asarray(liouv, dtype=float).reshape(-1), band.src, out=band.work, mode="clip")
    routine(*band.args)
    # the solution of A y = L[1:, 0] is -x[1:], and the sign goes in the normalisation
    x[0] = -1.0
    x[band.order] = band.rhs if band.info.value == 0 else math.nan


def _dense_lu(liouv: np.ndarray, x: np.ndarray) -> None:
    """Null vector of L up to scale by numpy's dense LU of L[1:, 1:], into x; NumericalError where it is singular."""
    x[0] = 1.0
    try:
        x[1:] = np.linalg.solve(liouv[1:, 1:], -liouv[1:, 0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"steady state is degenerate or undefined: {exc}") from exc


def _checked(liouv: np.ndarray, x: np.ndarray, layout: _Layout) -> float:
    """Residual of x, max |dρ_ij| over i >= j, after scaling x to unit trace; NumericalError names a failed check."""
    x /= layout.trace @ x
    if not np.isfinite(x).all():
        raise NumericalError("steady-state solve produced non-finite entries")
    residual = float(np.abs(_fold(liouv @ x, layout.lower_at, layout.lower_fold)).max())
    if not residual <= STEADY_RESIDUAL_TOL:  # NaN counts as exceeding
        raise NumericalError(f"steady-state residual exceeds {STEADY_RESIDUAL_TOL:.0e}")
    return residual


@np.errstate(all="ignore")
def steady_coordinates(liouv: np.ndarray) -> tuple[np.ndarray, float]:
    """Null vector of the Liouvillian in balanced coordinates, at unit trace, and its residual.

    The ground population is held at 1 while the other rows of L v = 0 are
    LU-solved for the remaining coordinates; the ground-population row is
    implied by the others, since L preserves the trace. The system matrix is
    the block A = L[1:, 1:], read in place, so `liouv` is neither copied nor
    changed. The result is then scaled to unit trace; the residual is
    max |dρ/dt| over the entries of L v. It reads only the diagonal and
    lower entries of dρ/dt, since |dρ_ij| = |dρ_ji| exactly.

    A is factored as a band matrix by one call of LAPACK's dgbsv. Its
    coordinates are ordered stably by drive order N_a + N_b, the exponent the
    balancing scales by; in that order the model's generator has 41
    subdiagonals and 51 superdiagonals at fock_dim 6 (see `_band`). On a
    2-core x86-64 host at one thread, a whole call, checks included, took
    115 µs against 176 µs with numpy's dense LU of A, and 340 µs against
    660 µs at fock_dim 8.

    Either LU only fills the coordinates, and one check sequence follows:
    scale to unit trace, then refuse non-finite coordinates, then a residual
    above STEADY_RESIDUAL_TOL. A band result that passes is returned; any
    other (an exact zero pivot leaves NaN) is redone by numpy's dense LU,
    also the only LU where numpy's LAPACK has no dgbsv (MKL, Accelerate). So
    a generator with entries outside the band still gets its steady state,
    and the NumericalError raised, with no numpy warning, is the dense LU's:
    a singular A, or the first check it fails.

    Both decay rates positive make the steady state unique. Where the kernel
    is degenerate, whether the generator is refused depends on rounding:
    with κ_s = 0 beside an uncoupled, undriven two-level system at
    n_th = 0.2, fock_dim 3 raises "Singular matrix" while fock_dims 4 to 10
    solve. Nothing couples the upper level's block to the ground population
    held at 1, so a result that is returned has the two-level system in its
    lower level and the oscillator at the thermal law P_n ∝ (n_th/(n_th+1))ⁿ.

    The solve, normalisation and residual run at one OpenBLAS thread, which
    at fock_dim 6 is faster than a threaded LU and gives the same bytes at
    any thread count; the caller's count is restored on return and on every
    raise. Solves from several Python threads run one at a time.
    """
    liouv = np.asarray(liouv)
    d = _check_generator(liouv)
    layout = _layout(d)
    blas = _openblas()
    x = np.empty(d * d)
    with _BLAS_LOCK:
        previous = blas.set_threads(1)
        try:
            if blas.dgbsv is not None:
                _band_lu(blas.dgbsv, liouv, x)
                try:
                    return x, _checked(liouv, x, layout)
                except NumericalError:
                    pass  # redone below, where a failure is the one raised
            _dense_lu(liouv, x)
            return x, _checked(liouv, x, layout)
        finally:
            blas.set_threads(previous)


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


def g2_from_moments(occupation, pairs) -> np.ndarray | float:
    """⟨m†m†mm⟩ / ⟨m†m⟩² from Σ n Pₙ and Σ n(n-1) Pₙ, floats or arrays alike.

    NaN where the mode is unoccupied: a zero occupation, or one whose square
    underflows. Nothing is divided by such an occupation, so nothing warns.
    """
    square = occupation * occupation
    defined = (occupation > 0.0) & (square >= G2_FLOOR)
    if isinstance(defined, np.ndarray):
        return np.where(defined, pairs / np.where(defined, square, 1.0), np.nan)
    # one state: the same selection without np.where's 0-d arrays, which cost a `mbl steady` probe 8 µs
    return pairs / square if defined else math.nan


def g2_from_populations(pops: np.ndarray) -> np.ndarray | float:
    """`g2_from_moments` of populations on the last axis: a float for one state, else an array."""
    return g2_from_moments(*population_moments(np.asarray(pops, dtype=float)))


def point_g2(occupation: float, pairs: float) -> float:
    """`g2_from_moments` of one state; NumericalError where the mode is unoccupied (undefined ratio)."""
    g2 = float(g2_from_moments(occupation, pairs))
    if math.isnan(g2):
        raise NumericalError("g2 is undefined: oscillator mode is unoccupied")
    return g2


def g2_zero(rho: np.ndarray, space: Space) -> float:
    """Equal-time second-order correlation ⟨m†m†mm⟩ / ⟨m†m⟩².

    Both moments are diagonal in the Fock basis: Σ n(n-1) Pₙ and Σ n Pₙ.
    Raises NumericalError when the mode is unoccupied (undefined ratio).
    """
    return point_g2(*population_moments(fock_populations(rho, space)))
