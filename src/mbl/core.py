"""Operators on the composite two-level ⊗ truncated-oscillator Hilbert space.

Basis ordering is fixed package-wide: the two-level system is the slow index,
so the product state (q, n) sits at q * fock_dim + n with q ∈ {0, 1}
(0 = lower level, 1 = upper level) and n the oscillator quantum number.
All operators are dense complex numpy arrays; `Space` carries the dimension
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

QUBIT_DIM = 2


@dataclass(frozen=True)
class Space:
    """Dimension metadata for the composite space.

    Parameters
    ----------
    fock_dim : number of oscillator levels kept (0 .. fock_dim-1).
    """

    fock_dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.fock_dim, int) or self.fock_dim < 2:
            raise ParameterError(f"fock_dim must be an integer >= 2, got {self.fock_dim!r}")

    @property
    def qubit_dim(self) -> int:
        return QUBIT_DIM

    @property
    def total_dim(self) -> int:
        return QUBIT_DIM * self.fock_dim

    def index(self, qubit: int, fock: int) -> int:
        """Flat basis index of the product state |qubit⟩ ⊗ |fock⟩."""
        if qubit not in (0, 1):
            raise ParameterError(f"qubit level must be 0 or 1, got {qubit}")
        if not 0 <= fock < self.fock_dim:
            raise ParameterError(f"fock level must be in [0, {self.fock_dim}), got {fock}")
        return qubit * self.fock_dim + fock

    def levels(self, index: int) -> tuple[int, int]:
        """Inverse of `index`: flat index -> (qubit, fock)."""
        if not 0 <= index < self.total_dim:
            raise ParameterError(f"index must be in [0, {self.total_dim}), got {index}")
        return divmod(index, self.fock_dim)


def identity(space: Space) -> np.ndarray:
    return np.eye(space.total_dim, dtype=complex)


def annihilation(space: Space) -> np.ndarray:
    """Oscillator lowering operator on the composite space: I₂ ⊗ a.

    a|n⟩ = √n |n-1⟩ in the truncated ladder.
    """
    n = np.arange(1, space.fock_dim)
    a = np.diag(np.sqrt(n).astype(complex), k=1)
    return np.kron(np.eye(QUBIT_DIM, dtype=complex), a)


def qubit_ops(space: Space) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two-level operators on the composite space.

    Returns (sigma_minus, sigma_plus, sigma_z, sigma_x), each tensored with
    the oscillator identity. sigma_minus maps the upper level to the lower
    one; sigma_z is -1 on the lower level, +1 on the upper.
    """
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    eye_f = np.eye(space.fock_dim, dtype=complex)
    sm = np.kron(lower, eye_f)
    sp = sm.conj().T
    sz = sp @ sm - sm @ sp
    sx = sp + sm
    return sm, sp, sz, sx


def dagger(op: np.ndarray) -> np.ndarray:
    """Hermitian adjoint (conjugate transpose)."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"dagger expects a square matrix, got shape {op.shape}")
    return op.conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor on the slow index."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("tensor expects two matrices")
    return np.kron(a, b)


def ket(space: Space, qubit: int, fock: int) -> np.ndarray:
    """Basis column vector for the product state |qubit⟩ ⊗ |fock⟩."""
    v = np.zeros(space.total_dim, dtype=complex)
    v[space.index(qubit, fock)] = 1.0
    return v


def projector(space: Space, qubit: int, fock: int) -> np.ndarray:
    """Rank-1 density matrix |qubit, fock⟩⟨qubit, fock|."""
    v = ket(space, qubit, fock)
    return np.outer(v, v.conj())


def expectation(op: np.ndarray, rho: np.ndarray) -> complex:
    """tr(op @ rho). Both matrices must share the same square shape."""
    op = np.asarray(op)
    rho = np.asarray(rho)
    if op.shape != rho.shape or op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"shape mismatch: op {op.shape} vs rho {rho.shape}")
    return complex(np.trace(op @ rho))


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a degree-18 Taylor series.

    `a` is halved s times until its 1-norm is at most 1/4, where the series tail
    is far below double precision, and the sum is squared s times (Moler & Van Loan 2003).
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm expects a square matrix, got shape {a.shape}")
    squarings = max(0, int(np.frexp(4.0 * np.linalg.norm(a, 1))[1]))
    a = a / 2.0**squarings
    eye = np.eye(a.shape[0], dtype=np.result_type(a, float))
    out = eye
    for k in range(18, 0, -1):
        out = eye + (a @ out) / k
    for _ in range(squarings):
        out = out @ out
    return out
