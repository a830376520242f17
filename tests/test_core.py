"""Operator toolbox: basis ordering, ladder algebra, adjoints, expectations, expm."""
import numpy as np
import pytest

from mbl.core import (Space, annihilation, dagger, expectation, expm, identity,
                      ket, projector, qubit_ops, tensor)
from mbl.errors import ParameterError
from mbl.lindblad import build_liouvillian
from mbl.sweep import figure_preset


def test_space_dimensions():
    s = Space(6)
    assert s.qubit_dim == 2
    assert s.fock_dim == 6
    assert s.total_dim == 12


@pytest.mark.parametrize("bad", [1, 0, -3, 2.0, "6", True])
def test_space_rejects_bad_truncation(bad):
    with pytest.raises(ParameterError):
        Space(bad)


def test_index_levels_roundtrip():
    s = Space(5)
    for k in range(s.total_dim):
        q, n = s.levels(k)
        assert s.index(q, n) == k
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
    with pytest.raises(ParameterError):
        s.levels(8)
    with pytest.raises(ParameterError):
        s.levels(-1)


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
    md = dagger(m)
    defect = m @ md - md @ m - identity(s)
    for q in (0, 1):
        top = s.index(q, 5)
        assert defect[top, top] == pytest.approx(-6.0)
        defect[top, top] = 0.0
    assert np.max(np.abs(defect)) < 1e-12


def test_qubit_ops_algebra():
    s = Space(4)
    sm, sp, sz, sx = qubit_ops(s)
    eye = identity(s)
    assert np.allclose(sp @ sm + sm @ sp, eye)
    assert np.allclose(sx @ sx, eye)
    assert np.allclose(dagger(sm), sp)
    # sz eigenvalues are +-1, each with multiplicity fock_dim
    vals = np.sort(np.linalg.eigvalsh(sz))
    assert np.allclose(vals[:4], -1.0)
    assert np.allclose(vals[4:], 1.0)


def test_qubit_lowering_action():
    s = Space(3)
    sm, sp, _, _ = qubit_ops(s)
    excited = ket(s, 1, 2)
    ground = ket(s, 0, 2)
    assert np.allclose(sm @ excited, ground)
    assert np.allclose(sm @ ground, 0.0)
    assert np.allclose(sp @ ground, excited)


def test_dagger():
    rng = np.random.default_rng(20240817)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(dagger(dagger(a)), a)
    assert np.allclose(dagger(a @ b), dagger(b) @ dagger(a))
    with pytest.raises(ValueError):
        dagger(np.ones(3))


def test_tensor():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    eye3 = np.eye(3, dtype=complex)
    out = tensor(a, eye3)
    assert out.shape == (6, 6)
    assert np.array_equal(out, np.kron(a, eye3))
    with pytest.raises(ValueError):
        tensor(a, np.ones(3))


def test_ket_and_projector():
    s = Space(3)
    v = ket(s, 1, 2)
    assert v.shape == (6,)
    assert v[s.index(1, 2)] == 1.0
    assert np.count_nonzero(v) == 1
    p = projector(s, 1, 2)
    assert np.array_equal(p, np.outer(v, v.conj()))
    assert np.trace(p) == pytest.approx(1.0)
    assert np.allclose(p @ p, p)


def test_expectation():
    s = Space(4)
    m = annihilation(s)
    number = dagger(m) @ m
    rho1 = projector(s, 0, 1)
    rho2 = projector(s, 0, 2)
    assert expectation(number, rho1) == pytest.approx(1.0)
    assert expectation(number, rho2) == pytest.approx(2.0)
    mixed = 0.5 * rho1 + 0.5 * rho2
    assert expectation(identity(s), mixed) == pytest.approx(1.0)
    assert expectation(number, mixed) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        expectation(number, np.eye(3))


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
