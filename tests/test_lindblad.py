"""Open-system route: superoperators, steady states, dynamics, observables."""
import numpy as np
import pytest

from liouvillian_reference import (dissipator_superop, hamiltonian_superop,
                                   in_coordinates, reference_build,
                                   trace_drift, unvec_columns, vec_columns)
from mbl.core import Space, projector
from mbl.errors import NumericalError, ParameterError
from mbl.lindblad import (BALANCE, build_liouvillian, density_diagnostics,
                          evolve, fock_populations, g2_zero, mean_occupation,
                          steady_state, unvectorize, vectorize)
from mbl.model import SystemParams, build_h_eff


def test_vectorize_roundtrip():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = a + a.conj().T
    vec = vectorize(rho)
    assert vec.dtype == float
    assert np.array_equal(unvectorize(vec, 6), rho)
    # row-major R: Re ρ_01 at [0, 1], Im ρ_10 at [1, 0]; |0⟩ has no excitation, |1⟩ one
    assert vec[1] == rho[0, 1].real / BALANCE
    assert vec[6] == rho[1, 0].imag / BALANCE
    assert vec[6 * 1 + 1] == rho[1, 1].real / BALANCE**2
    # stacks map matrix by matrix
    assert np.array_equal(vectorize(np.stack([rho, 2 * rho]))[1], 2 * vec)
    with pytest.raises(ValueError):
        unvectorize(np.ones(5), 2)
    with pytest.raises(ValueError):
        vectorize(np.ones(4))
    with pytest.raises(ValueError):
        vectorize(a)  # not Hermitian


def test_superop_reproduces_sandwich():
    # the defining identity: superop(vec(rho)) = vec of the matrix action
    rng = np.random.default_rng(32)
    d = 4
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (h + h.conj().T) / 2
    c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    lh = hamiltonian_superop(h) @ vec_columns(rho)
    assert np.allclose(unvec_columns(lh, d), -1j * (h @ rho - rho @ h))
    ld = dissipator_superop(c) @ vec_columns(rho)
    want = (2 * c @ rho @ c.conj().T - c.conj().T @ c @ rho
            - rho @ c.conj().T @ c)
    assert np.allclose(unvec_columns(ld, d), want)


@pytest.mark.parametrize("kw", [
    dict(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06, omega_d=0.01),
    dict(delta_m=25.05, delta_s=50.1, g_ms_tilde=50.1, omega_d=0.01,
         scenario="B"),
    dict(delta_m=1.0, delta_s=1.0, g_ms=2.0, omega_d=0.01, n_th=0.5),
])
def test_liouvillian_preserves_trace(kw):
    p = SystemParams(**kw)
    assert trace_drift(build_liouvillian(p), p.space().total_dim) < 1e-10


@pytest.mark.parametrize("fock_dim", range(2, 9))
@pytest.mark.parametrize("scenario,thermal", [("A", False), ("A", True), ("B", True)])
def test_term_table_matches_direct_build(scenario, thermal, fock_dim):
    rng = np.random.default_rng(1000 * fock_dim + 10 * thermal + (scenario == "B"))
    for _ in range(3):
        kw = dict(delta_m=rng.uniform(-30, 30), delta_s=rng.uniform(-30, 30),
                  omega_d=rng.uniform(0, 1), kappa_m=rng.uniform(0.01, 2),
                  kappa_s=rng.uniform(0.01, 2),
                  n_th=rng.uniform(0.01, 3) if thermal else 0.0,
                  scenario=scenario, fock_dim=fock_dim)
        if scenario == "A":
            kw.update(g_ms=rng.uniform(0, 30), omega_s=rng.uniform(0, 1))
        else:
            kw.update(g_ms_tilde=rng.uniform(0, 60))
        p = SystemParams(**kw)
        d = p.space().total_dim
        h_ref, liouv_ref = reference_build(p)
        liouv_ref = in_coordinates(liouv_ref, d)
        h, liouv = build_h_eff(p), build_liouvillian(p)
        assert np.max(np.abs(h - h_ref)) <= 1e-13 * np.max(np.abs(h_ref))
        assert np.max(np.abs(liouv - liouv_ref)) <= 1e-13 * np.max(np.abs(liouv_ref))
        assert trace_drift(liouv, d) <= 1e-12


def test_builds_return_fresh_arrays(broad_params):
    h, liouv = build_h_eff(broad_params), build_liouvillian(broad_params)
    h_want, liouv_want = h.copy(), liouv.copy()
    h[:] = 7.0
    liouv[:] = 7.0
    assert np.array_equal(build_h_eff(broad_params), h_want)
    assert np.array_equal(build_liouvillian(broad_params), liouv_want)


def test_single_quantum_decay_rates():
    # pure loss: d/dt |g,1><g,1| = kappa_m (P_g0 - P_g1)
    p = SystemParams(kappa_m=0.4, kappa_s=0.0, fock_dim=3)
    s = p.space()
    liouv = build_liouvillian(p)
    rho = projector(s, 0, 1)
    drho = unvectorize(liouv @ vectorize(rho), s.total_dim)
    want = 0.4 * (projector(s, 0, 0) - projector(s, 0, 1))
    assert np.allclose(drho, want, atol=1e-14)
    # excited qubit decays at kappa_s
    p2 = SystemParams(kappa_m=0.0, kappa_s=0.3, fock_dim=3)
    liouv2 = build_liouvillian(p2)
    rho2 = projector(s, 1, 0)
    drho2 = unvectorize(liouv2 @ vectorize(rho2), s.total_dim)
    want2 = 0.3 * (projector(s, 0, 0) - projector(s, 1, 0))
    assert np.allclose(drho2, want2, atol=1e-14)


def test_spectrum_has_unique_kernel(broad_params):
    liouv = build_liouvillian(broad_params)
    vals = np.linalg.eigvals(liouv)
    near_zero = np.abs(vals) < 1e-8
    assert np.count_nonzero(near_zero) == 1
    rest = vals[~near_zero]
    assert np.max(rest.real) < 0.0


def test_steady_state_dark_without_drive():
    p = SystemParams(delta_m=2.0, delta_s=2.0, g_ms=4.0)
    s = p.space()
    rho = steady_state(build_liouvillian(p))
    assert np.max(np.abs(rho - projector(s, 0, 0))) < 1e-10


def test_steady_state_validity(broad_params):
    s = broad_params.space()
    liouv = build_liouvillian(broad_params)
    rho = steady_state(liouv)
    diag = density_diagnostics(rho)
    assert diag["trace_real"] == pytest.approx(1.0, abs=1e-10)
    assert abs(diag["trace_imag"]) < 1e-12
    assert diag["hermiticity_defect"] < 1e-12
    assert diag["min_eigenvalue"] > -1e-10
    assert np.max(np.abs(unvectorize(liouv @ vectorize(rho), s.total_dim))) < 1e-10


def test_steady_state_rejects_singular():
    with pytest.raises(NumericalError):
        steady_state(np.zeros((16, 16)))
    with pytest.raises(ValueError):
        steady_state(np.zeros((5, 5)))
    with pytest.raises(ValueError):
        steady_state(np.zeros((16, 16), dtype=complex))


# g2 from a 40-digit mpmath LU solve (mp.dps = 40) of the double-precision complex,
# column-stacked Liouvillian with its first row traded for the trace row. Each
# budget bounds the solver error of `steady_state` plus the rounding by which its
# real generator differs from that complex one. Frozen here; mpmath is not a test
# dependency. A budget may be tightened, never loosened.
G2_ORACLE_POINTS = {
    "bright": (dict(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06, omega_d=0.01,
                    kappa_m=0.15, kappa_s=0.15), 6.4228867049889608e-8, 1e-10),
    "fig3a_cell": (dict(delta_m=6.2, delta_s=6.2, g_ms=2.75, omega_s=0.06, omega_d=0.01,
                        kappa_m=1.0, kappa_s=1.0), 0.76947656631968584, 1e-10),
    "fig9b_strong": (dict(scenario="B", g_ms_tilde=50.1, delta_m=25.05, delta_s=25.05,
                          omega_d=0.6, kappa_m=0.05, kappa_s=0.05), 0.020407177037952494, 1e-14),
    # the first nonzero drives of the fig3b grid
    "fig3b_weak": (dict(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.002, omega_d=0.0005,
                        kappa_m=1.0, kappa_s=1.0), 0.010574387827523629165, 3e-14),
    "bright_thermal": (dict(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06, omega_d=0.01,
                            kappa_m=0.15, kappa_s=0.15, n_th=0.1), 2.3545885141369593845, 1e-14),
}


@pytest.mark.parametrize("point", sorted(G2_ORACLE_POINTS))
def test_g2_matches_oracle(point):
    kw, oracle, budget = G2_ORACLE_POINTS[point]
    p = SystemParams(**kw)
    g2 = g2_zero(steady_state(build_liouvillian(p)), p.space())
    assert abs(g2 - oracle) <= budget * oracle


def test_driven_oscillator_occupation():
    # decoupled driven oscillator: <n> = omega_d^2 / (delta^2 + kappa^2/4)
    for delta, om_d, kappa in [(0.0, 0.05, 1.0), (0.5, 0.02, 0.4)]:
        p = SystemParams(delta_m=delta, delta_s=0.0, omega_d=om_d,
                         kappa_m=kappa, kappa_s=1.0, fock_dim=8)
        s = p.space()
        rho = steady_state(build_liouvillian(p))
        want = om_d ** 2 / (delta ** 2 + kappa ** 2 / 4)
        assert mean_occupation(rho, s) == pytest.approx(want, rel=1e-8)


def test_thermal_occupation():
    p = SystemParams(n_th=0.2, kappa_s=0.0, fock_dim=20)
    s = p.space()
    rho = steady_state(build_liouvillian(p))
    assert mean_occupation(rho, s) == pytest.approx(0.2, abs=1e-8)
    # thermal light bunches: g2 = 2
    assert g2_zero(rho, s) == pytest.approx(2.0, abs=1e-6)


def test_evolve_matches_steady_state(broad_params):
    s = broad_params.space()
    liouv = build_liouvillian(broad_params)
    rho0 = projector(s, 0, 0)
    path = evolve(liouv, rho0, np.array([0.0, 200.0]))
    target = steady_state(liouv)
    gap = np.linalg.eigvalsh(path[-1] - target)
    assert np.max(np.abs(gap)) < 1e-8


def test_evolve_basics(broad_params):
    s = broad_params.space()
    liouv = build_liouvillian(broad_params)
    rho0 = projector(s, 0, 0)
    times = np.linspace(0.0, 5.0, 11)
    path = evolve(liouv, rho0, times)
    assert path.shape == (11, s.total_dim, s.total_dim)
    assert np.array_equal(path[0], rho0)
    for rho in path:
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
    # zero generator keeps the state constant
    frozen = evolve(np.zeros_like(liouv), rho0, times)
    assert np.max(np.abs(frozen - rho0)) < 1e-12


# 30-digit mpmath oracle: the master equation of the same parameters built
# independently at 30 digits, rho(t) = unvec(expm(L t) vec(|g,0><g,0|)).
# Per time: the diagonal of rho, then selected coherences rho[i, j].
EVOLVE_ORACLE_PARAMS = dict(delta_m=1.0, delta_s=-0.5, g_ms=2.0, omega_s=0.8,
                            omega_d=0.6, kappa_m=1.0, kappa_s=0.5, n_th=0.2,
                            fock_dim=3)
EVOLVE_ORACLE = {
    0.5: (
        [0.84175621117177108872, 0.10768428933745377747,
         0.013530254241488974804, 0.031918393772280271617,
         0.0045425673895453697604, 0.00056828408746051763025],
        {(0, 1): -0.083312824475988233164 + 0.1883154262639706694j,
         (0, 3): -0.031550913217768706454 + 0.1474418565860408333j,
         (1, 5): -0.0050978555307140460837 - 0.0020986135711294786423j},
    ),
    2.0: (
        [0.58123041630909337978, 0.22035131288314845213,
         0.067420008505738519496, 0.080132491722077050156,
         0.031841288617233014863, 0.019024481962709583569],
        {(0, 1): -0.28020639640132343001 + 0.060922541883197627562j,
         (0, 3): -0.080851112597989755677 + 0.10484646955814303354j,
         (1, 5): -0.01073979250430953449 - 0.034987790524266831157j},
    ),
}


def test_evolve_matches_oracle():
    p = SystemParams(**EVOLVE_ORACLE_PARAMS)
    s = p.space()
    times = np.array([0.0, 0.5, 2.0])
    path = evolve(build_liouvillian(p), projector(s, 0, 0), times)
    for rho, t in zip(path[1:], times[1:]):
        diag, coherences = EVOLVE_ORACLE[t]
        assert np.max(np.abs(np.diagonal(rho) - diag)) < 1e-13
        for (i, j), value in coherences.items():
            assert abs(rho[i, j] - value) < 1e-13


def test_evolve_single_time_returns_copy():
    s = Space(3)
    rho0 = projector(s, 1, 1)
    out = evolve(np.zeros((36, 36)), rho0, np.array([0.0]))
    assert out.shape == (1, 6, 6)
    assert np.array_equal(out[0], rho0)
    out[0, 0, 0] = 7.0
    assert rho0[0, 0] != 7.0


def test_evolve_validates_times(broad_params):
    s = broad_params.space()
    liouv = build_liouvillian(broad_params)
    rho0 = projector(s, 0, 0)
    with pytest.raises(ParameterError):
        evolve(liouv, rho0, np.array([]))
    with pytest.raises(ParameterError):
        evolve(liouv, rho0, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ParameterError):
        evolve(liouv, rho0, np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        evolve(liouv, np.eye(3, dtype=complex), np.array([0.0, 1.0]))


def test_g2_zero_fock_states():
    s = Space(5)
    assert g2_zero(projector(s, 0, 1), s) == 0.0
    assert g2_zero(projector(s, 0, 2), s) == pytest.approx(0.5)
    assert g2_zero(projector(s, 1, 3), s) == pytest.approx(2 / 3)
    with pytest.raises(NumericalError):
        g2_zero(projector(s, 0, 0), s)  # vacuum has no pairs to count


def test_g2_zero_coherent_state():
    # driven lossy oscillator settles into a coherent state: g2 = 1
    p = SystemParams(delta_m=0.0, omega_d=0.05, kappa_m=1.0, kappa_s=1.0,
                     fock_dim=8)
    s = p.space()
    rho = steady_state(build_liouvillian(p))
    assert g2_zero(rho, s) == pytest.approx(1.0, abs=1e-6)


def test_fock_populations():
    s = Space(4)
    rho = 0.25 * projector(s, 0, 0) + 0.75 * projector(s, 1, 2)
    pops = fock_populations(rho, s)
    assert pops.shape == (4,)
    # qubit sector is traced out
    assert pops == pytest.approx([0.25, 0.0, 0.75, 0.0])
    assert pops.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fock_populations(np.eye(3, dtype=complex), s)


def test_mean_occupation():
    s = Space(5)
    assert mean_occupation(projector(s, 1, 3), s) == pytest.approx(3.0)
    mixed = 0.5 * projector(s, 0, 0) + 0.5 * projector(s, 0, 4)
    assert mean_occupation(mixed, s) == pytest.approx(2.0)


def test_density_diagnostics_reports_defects():
    s = Space(3)
    rho = projector(s, 0, 1).astype(complex)
    rho[0, 1] = 0.1  # break hermiticity on purpose
    diag = density_diagnostics(rho)
    assert diag["trace_real"] == pytest.approx(1.0)
    assert diag["hermiticity_defect"] == pytest.approx(0.1, abs=1e-12)
    assert set(diag) == {"trace_real", "trace_imag", "hermiticity_defect",
                         "min_eigenvalue", "max_eigenvalue"}
