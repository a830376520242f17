"""Reference master equation for the tests: the complex, column-stacked generator built directly.

Every operator product and Kronecker product is formed anew, so nothing is
shared with the cached term table of `mbl.lindblad`. vec(A ρ B) = (Bᵀ ⊗ A) vec(ρ)
with vec stacking columns.
"""
import numpy as np

from mbl.core import annihilation, qubit_ops
from mbl.lindblad import unvectorize, vectorize


def vec_columns(rho):
    """Column-stack a matrix, or each matrix of a stack (..., D, D)."""
    rho = np.asarray(rho)
    return np.swapaxes(rho, -1, -2).reshape(*rho.shape[:-2], -1)


def unvec_columns(vec, dim):
    """Inverse of `vec_columns`."""
    vec = np.asarray(vec)
    return np.swapaxes(vec.reshape(*vec.shape[:-1], dim, dim), -1, -2)


def hamiltonian_superop(h):
    """Superoperator for -i[H, ρ]."""
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def dissipator_superop(c):
    """Superoperator for 2 C ρ C† - C†C ρ - ρ C†C (rate factored out)."""
    d = c.shape[0]
    eye = np.eye(d, dtype=complex)
    cdc = c.conj().T @ c
    return 2.0 * np.kron(c.conj(), c) - np.kron(eye, cdc) - np.kron(cdc.T, eye)


def reference_build(params):
    """Hamiltonian and complex column-stacked Liouvillian of `params`."""
    space = params.space()
    m = annihilation(space)
    md = m.conj().T
    sm, sp, sx = qubit_ops(space)
    h = (params.delta_m * (md @ m) + params.delta_s * (sp @ sm)
         + 0.5 * params.coupling * (m @ sp + md @ sm)
         + params.omega_d * (md + m))
    if params.scenario == "A":
        h = h + 0.5 * params.omega_s * sx
    liouv = hamiltonian_superop(h)
    if params.scenario == "A":
        liouv = liouv + 0.5 * params.kappa_m * (params.n_th + 1.0) * dissipator_superop(m)
        if params.n_th > 0.0:
            liouv = liouv + 0.5 * params.kappa_m * params.n_th * dissipator_superop(md)
    else:
        liouv = liouv + 0.5 * params.kappa_m * dissipator_superop(m)
    liouv = liouv + 0.5 * params.kappa_s * dissipator_superop(sm)
    return h, liouv


def in_coordinates(liouv_c, dim):
    """The complex generator carried over to the real coordinates of `mbl.lindblad.vectorize`.

    Column c is vectorize(Lc ρ_c) for the Hermitian ρ_c = unvectorize(e_c).
    """
    basis = unvectorize(np.eye(dim * dim), dim)
    images = unvec_columns(vec_columns(basis) @ liouv_c.T, dim)
    return vectorize(images).T


def trace_drift(liouv, dim):
    """max |trace(unvectorize(L v))| over the coordinate basis vectors v, the columns of L."""
    return float(np.max(np.abs(np.trace(unvectorize(liouv.T, dim), axis1=-2, axis2=-1))))
