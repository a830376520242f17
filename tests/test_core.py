"""Operator toolbox: basis ordering, ladder algebra, projectors, expm."""
import numpy as np
import pytest

from mbl.core import Space, annihilation, expm, projector, qubit_ops
from mbl.errors import ParameterError
from mbl.lindblad import build_liouvillian
from mbl.sweep import figure_preset


def test_space_dimensions():
    s = Space(6)
    assert s.fock_dim == 6
    assert s.total_dim == 12


@pytest.mark.parametrize("bad", [1, 0, -3, 2.0, "6", True])
def test_space_rejects_bad_truncation(bad):
    with pytest.raises(ParameterError):
        Space(bad)


def test_index_levels_roundtrip():
    s = Space(5)
    flat = [s.index(q, n) for q in (0, 1) for n in range(s.fock_dim)]
    assert flat == list(range(s.total_dim))
    # qubit-major layout: the excited sector starts at fock_dim
    assert s.index(0, 0) == 0
    assert s.index(0, 4) == 4
    assert s.index(1, 0) == 5
    assert s.index(1, 4) == 9


def test_index_bounds():
    s = Space(4)
    with pytest.raises(ParameterError):
        s.index(2, 0)
    with pytest.raises(ParameterError):
        s.index(0, 4)
    with pytest.raises(ParameterError):
        s.index(-1, 1)


def test_annihilation_matrix_elements():
    s = Space(3)
    m = annihilation(s)
    assert m[s.index(0, 0), s.index(0, 1)] == pytest.approx(1.0)
    assert m[s.index(0, 1), s.index(0, 2)] == pytest.approx(np.sqrt(2))
    assert m[s.index(1, 1), s.index(1, 2)] == pytest.approx(np.sqrt(2))
    # no hops between qubit sectors
    assert m[s.index(0, 0), s.index(1, 1)] == 0
    assert m[s.index(1, 0), s.index(0, 1)] == 0


def test_annihilation_block_structure():
    s = Space(2)
    m = annihilation(s)
    block = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.array_equal(m[:2, :2], block)
    assert np.array_equal(m[2:, 2:], block)
    assert np.all(m[:2, 2:] == 0)
    assert np.all(m[2:, :2] == 0)


def test_truncated_commutator():
    # [m, m+] = 1 everywhere except the top rung, which picks up -N
    s = Space(6)
    m = annihilation(s)
    md = m.conj().T
    defect = m @ md - md @ m - np.eye(s.total_dim)
    for q in (0, 1):
        top = s.index(q, 5)
        assert defect[top, top] == pytest.approx(-6.0)
        defect[top, top] = 0.0
    assert np.max(np.abs(defect)) < 1e-12


def test_qubit_ops_algebra():
    s = Space(4)
    sm, sp, sx = qubit_ops(s)
    eye = np.eye(s.total_dim)
    assert np.allclose(sp @ sm + sm @ sp, eye)
    assert np.allclose(sx @ sx, eye)
    assert np.allclose(sm.conj().T, sp)
    # [sp, sm] has eigenvalues +-1, each with multiplicity fock_dim
    vals = np.sort(np.linalg.eigvalsh(sp @ sm - sm @ sp))
    assert np.allclose(vals[:4], -1.0)
    assert np.allclose(vals[4:], 1.0)


def test_qubit_lowering_action():
    s = Space(3)
    sm, sp, _ = qubit_ops(s)
    excited = projector(s, 1, 2)
    ground = projector(s, 0, 2)
    assert np.allclose(sm @ excited @ sp, ground)
    assert np.allclose(sm @ ground, 0.0)
    assert np.allclose(sp @ ground @ sm, excited)


def test_ket_and_projector():
    s = Space(3)
    p = projector(s, 1, 2)
    k = s.index(1, 2)
    assert p.shape == (6, 6)
    # projects onto the one-hot basis ket at index(1, 2)
    assert p[k, k] == 1.0
    assert np.count_nonzero(p) == 1
    assert np.trace(p) == pytest.approx(1.0)
    assert np.allclose(p @ p, p)
    with pytest.raises(ParameterError):
        projector(s, 0, 3)


def test_expm_of_zero_is_identity():
    assert np.array_equal(expm(np.zeros((5, 5), dtype=complex)), np.eye(5))
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)))


@pytest.mark.parametrize("dt", [0.1, 1.0, 10.0, 200.0])
def test_expm_matches_reference_on_fig7_liouvillian(dt):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    liouv = build_liouvillian(figure_preset("fig7").base)
    ref = scipy_linalg.expm(liouv * dt)
    assert np.max(np.abs(expm(liouv * dt) - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("seed", range(4))
def test_expm_matches_reference_on_random_matrices(seed):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(seed)
    n = 3 + 5 * seed
    a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * 10.0 ** (seed - 1)
    ref = scipy_linalg.expm(a)
    assert np.max(np.abs(expm(a) - ref)) <= 1e-11 * np.max(np.abs(ref))
    real = rng.normal(size=(n, n))
    got, ref = expm(real), scipy_linalg.expm(real)
    assert got.dtype == float
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
