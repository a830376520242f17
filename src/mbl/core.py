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

from .errors import ParameterError, integer

QUBIT_DIM = 2

# g2 = ⟨m†m†mm⟩ / ⟨m†m⟩² is undefined where its denominator, ⟨m†m⟩² or the closed form's |c_g1|⁴, is below this
G2_FLOOR = 1e-300


@dataclass(frozen=True)
class Space:
    """Dimension metadata for the composite space.

    Parameters
    ----------
    fock_dim : number of oscillator levels kept (0 .. fock_dim-1).
    """

    fock_dim: int

    def __post_init__(self) -> None:
        integer("fock_dim", self.fock_dim, 2)

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


def annihilation(space: Space) -> np.ndarray:
    """Oscillator lowering operator on the composite space: I₂ ⊗ a.

    a|n⟩ = √n |n-1⟩ in the truncated ladder.
    """
    n = np.arange(1, space.fock_dim)
    a = np.diag(np.sqrt(n).astype(complex), k=1)
    return np.kron(np.eye(QUBIT_DIM, dtype=complex), a)


def qubit_ops(space: Space) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-level operators on the composite space.

    Returns (sigma_minus, sigma_plus, sigma_x), each tensored with the
    oscillator identity. sigma_minus maps the upper level to the lower one.
    """
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    eye_f = np.eye(space.fock_dim, dtype=complex)
    sm = np.kron(lower, eye_f)
    sp = sm.conj().T
    sx = sp + sm
    return sm, sp, sx


def projector(space: Space, qubit: int, fock: int) -> np.ndarray:
    """Rank-1 density matrix |qubit, fock⟩⟨qubit, fock|."""
    k = space.index(qubit, fock)
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    out[k, k] = 1.0
    return out


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a degree-18 Taylor series.

    `a` is halved s times until its 1-norm is below 1, where the series tail
    Σ_{k>18} ‖a‖ᵏ/k! < 1e-17 is below double precision, and the sum is squared
    s times (Moler & Van Loan 2003). Each squaring amplifies rounding, so s is
    kept at that minimum.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm expects a square matrix, got shape {a.shape}")
    squarings = max(0, int(np.frexp(np.linalg.norm(a, 1))[1]))
    # unlike 2.0**s, 0.5**s never overflows: it is exact down to 2**-1074, then 0
    a = a * 0.5**squarings
    eye = np.eye(a.shape[0], dtype=np.result_type(a, float))
    out = eye
    for k in range(18, 0, -1):
        out = eye + (a @ out) / k
    for _ in range(squarings):
        out = out @ out
    return out
