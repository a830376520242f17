"""Parameter container, Hamiltonians, dressed levels."""
import numpy as np
import pytest

from mbl.core import Space, annihilation, qubit_ops
from mbl.errors import ParameterError
from mbl.model import (SWEEPABLE_FIELDS, SystemParams, build_h_nonhermitian,
                       dressed_spectrum, invalid_mask)


# ---------------------------------------------------------------- parameters

def test_defaults():
    p = SystemParams()
    assert p.delta_m == 0.0 and p.delta_s == 0.0
    assert p.kappa_m == 1.0 and p.kappa_s == 1.0
    assert p.scenario == "A"
    assert p.fock_dim == 6
    assert p.coupling == 0.0


@pytest.mark.parametrize("field", ["g_ms", "g_ms_tilde", "omega_s", "omega_d",
                                   "kappa_m", "kappa_s", "n_th"])
def test_rejects_negative(field):
    with pytest.raises(ParameterError):
        SystemParams(**{field: -0.1})


def test_rejects_non_finite_and_bool():
    with pytest.raises(ParameterError):
        SystemParams(delta_m=float("nan"))
    with pytest.raises(ParameterError):
        SystemParams(omega_d=float("inf"))
    with pytest.raises(ParameterError):
        SystemParams(g_ms=True)


def test_rejects_bad_scenario():
    with pytest.raises(ParameterError):
        SystemParams(scenario="C")
    # the beam-splitter variant has no direct qubit drive
    with pytest.raises(ParameterError):
        SystemParams(scenario="B", omega_s=0.05)


def test_rejects_bad_fock_dim():
    with pytest.raises(ParameterError):
        SystemParams(fock_dim=1)
    with pytest.raises(ParameterError):
        SystemParams(fock_dim=6.0)


def test_zero_linewidth_allowed():
    p = SystemParams(kappa_m=0.0, kappa_s=0.0)
    assert p.kappa_m == 0.0


def test_coupling_selects_by_scenario():
    a = SystemParams(scenario="A", g_ms=19.6)
    b = SystemParams(scenario="B", g_ms_tilde=50.1)
    assert a.coupling == 19.6
    assert b.coupling == 50.1


@pytest.mark.parametrize("scenario, field", [("A", "g_ms_tilde"), ("B", "g_ms"), ("B", "omega_s"), ("B", "n_th")])
def test_rejects_fields_the_scenario_ignores(scenario, field):
    with pytest.raises(ParameterError) as info:
        SystemParams(scenario=scenario, **{field: 3.0})
    assert str(info.value) == f"scenario {scenario} has no {field} term; {field} must be 0, got 3.0"
    # a zero is what the scenario models anyway
    assert getattr(SystemParams(scenario=scenario, **{field: 0.0}), field) == 0.0


def test_invalid_mask_mirrors_validation():
    values = [0.0, 0.5, -0.5, float("nan"), float("inf")]
    for scenario in ("A", "B"):
        for name in SWEEPABLE_FIELDS:
            fields = {other: np.zeros(len(values)) for other in SWEEPABLE_FIELDS}
            fields[name] = np.array(values)
            want = []
            for value in values:
                try:
                    SystemParams(scenario=scenario, **{name: value})
                    want.append(False)
                except ParameterError:
                    want.append(True)
            assert invalid_mask(fields, scenario).tolist() == want, (scenario, name)


def test_replace():
    p = SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6)
    q = p.replace(delta_m=-9.8, delta_s=-9.8)
    assert q.delta_m == -9.8 and q.g_ms == 19.6
    assert p.delta_m == 9.8  # original untouched
    with pytest.raises(ParameterError):
        p.replace(kappa_m=-1.0)


def test_space_matches_fock_dim():
    p = SystemParams(fock_dim=9)
    assert p.space().fock_dim == 9
    assert p.space().total_dim == 18


# ------------------------------------------------------------ hamiltonians

def hamiltonian(p):
    """The rotating-frame Hamiltonian: the non-Hermitian one at zero linewidths."""
    return build_h_nonhermitian(p.replace(kappa_m=0.0, kappa_s=0.0))


def test_h_eff_zero_params_is_zero():
    h = hamiltonian(SystemParams())
    assert np.max(np.abs(h)) == 0.0


def test_h_eff_hermitian():
    p = SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6,
                     omega_s=0.06, omega_d=0.01)
    h = hamiltonian(p)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_h_eff_single_excitation_block():
    # with the ground level pinned at zero energy, the one-quantum block
    # at delta = g/2 has eigenvalues {0, g}
    g = 19.6
    p = SystemParams(delta_m=g / 2, delta_s=g / 2, g_ms=g)
    s = p.space()
    h = hamiltonian(p)
    idx = [s.index(0, 1), s.index(1, 0)]
    block = h[np.ix_(idx, idx)]
    vals = np.sort(np.linalg.eigvalsh(block))
    assert vals == pytest.approx([0.0, g], abs=1e-12)


def test_h_eff_drive_entries():
    p = SystemParams(delta_m=2.0, delta_s=3.0, g_ms=5.0,
                     omega_s=0.06, omega_d=0.01)
    s = p.space()
    h = hamiltonian(p)
    g0, g1, e0, e1 = (s.index(0, 0), s.index(0, 1),
                      s.index(1, 0), s.index(1, 1))
    assert h[g0, g1] == pytest.approx(0.01)       # mode drive
    assert h[g0, e0] == pytest.approx(0.03)       # qubit drive, omega_s/2
    assert h[g1, e0] == pytest.approx(2.5)        # exchange, g/2
    assert h[g1, g1] == pytest.approx(2.0)
    assert h[e0, e0] == pytest.approx(3.0)
    assert h[e1, e1] == pytest.approx(5.0)


def test_h_eff_scenario_b():
    p = SystemParams(delta_m=25.05, delta_s=50.1, g_ms_tilde=50.1,
                     omega_d=0.01, scenario="B")
    s = p.space()
    h = hamiltonian(p)
    g0, g1, e0 = s.index(0, 0), s.index(0, 1), s.index(1, 0)
    assert h[g0, e0] == 0.0            # no direct qubit drive
    assert h[g1, e0] == pytest.approx(25.05)   # g_tilde / 2
    assert h[g0, g1] == pytest.approx(0.01)


def test_h_nonhermitian():
    p = SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6,
                     omega_s=0.06, omega_d=0.01, kappa_m=0.15, kappa_s=0.15)
    s = p.space()
    hn = build_h_nonhermitian(p)
    e1 = s.index(1, 1)
    assert hn[e1, e1] == pytest.approx(9.8 + 9.8 - 0.15j, abs=1e-12)
    # absorbing part only: anti-hermitian component is negative semidefinite
    anti = (hn - hn.conj().T) / 2j
    assert np.max(np.linalg.eigvalsh(anti)) < 1e-12
    # zero linewidth collapses to the hermitian generator, exactly
    h0 = build_h_nonhermitian(p.replace(kappa_m=0.0, kappa_s=0.0))
    assert np.array_equal(h0, h0.conj().T)


# ------------------------------------------------------------ dressed levels

def test_dressed_resonance_splitting():
    omega = 7.0
    g = 2.0
    levels = dressed_spectrum(omega, omega, g, n_max=3)
    assert len(levels) == 6
    for lv in levels:
        expected = lv.n * omega + lv.branch * g * np.sqrt(lv.n) / 2
        assert lv.energy == pytest.approx(expected, abs=1e-12)
        # equal hybridization on resonance
        assert abs(lv.c_g_n) == pytest.approx(1 / np.sqrt(2))
        assert abs(lv.c_e_nm1) == pytest.approx(1 / np.sqrt(2))


def test_dressed_ordering_and_normalization():
    levels = dressed_spectrum(5.3, 4.9, 2.2, n_max=4)
    for k in range(0, len(levels), 2):
        lo, hi = levels[k], levels[k + 1]
        assert lo.n == hi.n == k // 2 + 1
        assert lo.branch == -1 and hi.branch == 1
        assert lo.energy < hi.energy
    for lv in levels:
        assert lv.c_g_n ** 2 + lv.c_e_nm1 ** 2 == pytest.approx(1.0, abs=1e-12)
        assert lv.c_g_n >= 0.0


def test_dressed_anharmonicity():
    # the doublet ladder is anharmonic: E(2,+) - 2 E(1,+) = g (sqrt2 - 2) / 2
    omega, g = 9.8, 19.6
    levels = {(lv.n, lv.branch): lv.energy
              for lv in dressed_spectrum(omega, omega, g, n_max=2)}
    gap = levels[(2, 1)] - 2 * levels[(1, 1)]
    assert gap == pytest.approx(g * (np.sqrt(2) - 2) / 2, abs=1e-10)


def test_dressed_matches_block_diagonalization():
    # cross-check against brute-force eigenvalues of the coupled generator
    omega_m, omega_q, g = 5.3, 4.9, 2.2
    s = Space(8)
    m = annihilation(s)
    sm, sp, _ = qubit_ops(s)
    md = m.conj().T
    h = (omega_m * md @ m + omega_q * sp @ sm
         + g / 2 * (m @ sp + md @ sm))
    vals = np.sort(np.linalg.eigvalsh(h))
    predicted = sorted(lv.energy for lv in dressed_spectrum(omega_m, omega_q, g, 3))
    # skip the zero ground level, compare the three lowest doublets
    assert np.allclose(vals[1:7], predicted, rtol=1e-10, atol=1e-10)


def test_dressed_decoupled_limit():
    levels = dressed_spectrum(4.0, 6.0, 0.0, n_max=2)
    by_key = {(lv.n, lv.branch): lv for lv in levels}
    # bare states: |g,n> at n*omega_m and |e,n-1> at (n-1)*omega_m + omega_q
    assert by_key[(1, -1)].energy == pytest.approx(4.0)
    assert by_key[(1, 1)].energy == pytest.approx(6.0)
    assert by_key[(1, -1)].c_g_n == pytest.approx(1.0)
    assert by_key[(1, 1)].c_e_nm1 == pytest.approx(1.0)


def test_dressed_validation():
    with pytest.raises(ParameterError):
        dressed_spectrum(1.0, 1.0, -0.5, 2)
    with pytest.raises(ParameterError):
        dressed_spectrum(1.0, 1.0, 0.5, 0)
    with pytest.raises(ParameterError):
        dressed_spectrum(float("nan"), 1.0, 0.5, 2)

