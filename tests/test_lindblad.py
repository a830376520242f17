"""Open-system route: superoperators, steady states, dynamics, observables."""
import ctypes
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from liouvillian_reference import (dissipator_superop, hamiltonian_superop,
                                   in_coordinates, reference_build,
                                   trace_drift, unvec_columns, vec_columns)
from mbl.core import Space, annihilation, projector, qubit_ops
from mbl.errors import NumericalError, ParameterError
from mbl.lindblad import (BALANCE, build_liouvillian, evolve, fock_populations,
                          g2_zero, population_moments, steady_coordinates,
                          steady_state, unvectorize, vectorize)
from mbl.model import SystemParams, build_h_nonhermitian
from mbl.sweep import figure_preset


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
            # scenario B has no thermal bath: a thermal occupation is refused, not ignored
            if thermal:
                with pytest.raises(ParameterError, match="n_th"):
                    SystemParams(**kw)
                kw["n_th"] = 0.0
        p = SystemParams(**kw)
        d = p.space().total_dim
        h_ref, liouv_ref = reference_build(p)
        liouv_ref = in_coordinates(liouv_ref, d)
        h, liouv = build_h_nonhermitian(p.replace(kappa_m=0.0, kappa_s=0.0)), build_liouvillian(p)
        assert np.max(np.abs(h - h_ref)) <= 1e-13 * np.max(np.abs(h_ref))
        assert np.max(np.abs(liouv - liouv_ref)) <= 1e-13 * np.max(np.abs(liouv_ref))
        assert trace_drift(liouv, d) <= 1e-12


@pytest.mark.parametrize("scenario", ["A", "B"])
def test_liouvillian_splits_into_nonhermitian_hamiltonian_and_jumps(scenario):
    # L ρ = -i(H_nh ρ - ρ H_nh†) + Σⱼ γⱼ Cⱼ ρ Cⱼ†: both builds carry the same decay channels
    rng = np.random.default_rng(1602 + (scenario == "B"))
    for k in range(24):
        kw = dict(delta_m=rng.uniform(-30, 30), delta_s=rng.uniform(-30, 30), omega_d=rng.uniform(0, 1),
                  kappa_m=rng.uniform(0.01, 2), kappa_s=rng.uniform(0.01, 2),
                  scenario=scenario, fock_dim=int(rng.integers(2, 9)))
        if scenario == "A":
            kw.update(g_ms=rng.uniform(0, 30), omega_s=rng.uniform(0, 1), n_th=rng.uniform(0.01, 3) if k % 2 else 0.0)
        else:
            kw.update(g_ms_tilde=rng.uniform(0, 60))
        p = SystemParams(**kw)
        space = p.space()
        d = space.total_dim
        m, sm = annihilation(space), qubit_ops(space)[0]
        channels = [(p.kappa_m * (p.n_th + 1.0), m), (p.kappa_m * p.n_th, m.conj().T), (p.kappa_s, sm)]
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a + a.conj().T
        h = build_h_nonhermitian(p)
        want = -1j * (h @ rho - rho @ h.conj().T) + sum(rate * c @ rho @ c.conj().T for rate, c in channels)
        got = unvectorize(build_liouvillian(p) @ vectorize(rho), d)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), kw


def test_builds_return_fresh_arrays(broad_params):
    h, liouv = build_h_nonhermitian(broad_params), build_liouvillian(broad_params)
    h_want, liouv_want = h.copy(), liouv.copy()
    h[:] = 7.0
    liouv[:] = 7.0
    assert np.array_equal(build_h_nonhermitian(broad_params), h_want)
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
    x, residual = steady_coordinates(liouv)
    rho = steady_state(liouv)
    assert np.array_equal(rho, unvectorize(x, s.total_dim))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert abs(np.trace(rho).imag) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-10
    # the residual the solve reports is max |dρ/dt| of the state it returns
    assert residual == np.max(np.abs(unvectorize(liouv @ vectorize(rho), s.total_dim)))
    assert residual < 1e-10


def test_steady_state_rejects_singular():
    for solve in (steady_state, steady_coordinates):
        with pytest.raises(NumericalError):
            solve(np.zeros((16, 16)))
        with pytest.raises(ValueError):
            solve(np.zeros((5, 5)))
        with pytest.raises(ValueError, match="must be real"):
            solve(np.zeros((16, 16), dtype=complex))


def _openblas_threads():
    """(set, get) of the process-wide thread count of numpy's own OpenBLAS."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        lib = ctypes.CDLL(str(path))
        # a plain OpenBLAS, or scipy-openblas with its prefix and 64-bit-integer suffix
        for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
            try:
                setter, getter = (getattr(lib, f"{prefix}openblas_{verb}_num_threads{suffix}") for verb in ("set", "get"))
            except AttributeError:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    pytest.skip("numpy's BLAS is not an OpenBLAS")


def test_steady_solve_runs_at_one_blas_thread(bright_params):
    set_threads, get_threads = _openblas_threads()
    caller = get_threads()
    liouvs = [build_liouvillian(p) for p in (bright_params, figure_preset("fig3b").params_at(50, 50))]
    # raises in the LU, and at the residual check after it
    failing = [np.zeros((16, 16)), build_liouvillian(bright_params.replace(omega_d=1e200))]
    try:
        solves = []
        for count in (1, 2):
            set_threads(count)
            solves.append([(x.tobytes(), residual) for x, residual in map(steady_coordinates, liouvs)])
            assert get_threads() == count
            for liouv in failing:
                with pytest.raises(NumericalError):
                    steady_coordinates(liouv)
                assert get_threads() == count
        # the same bytes whatever the caller's count
        assert solves[0] == solves[1]
    finally:
        set_threads(caller)


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


# g2 from a master equation that mpmath both builds and solves at 40 digits, so
# it also measures the rounding of the double-precision build: each parameter is
# taken as its exact double value, operators and √n are built at 40 digits, L is
# the complex, column-stacked generator, and with the ground population pinned to
# 1 the rest of L v = 0 is solved by mp.lu_solve. These differ from the solver
# oracles above by at most 9.1e-14 relative (at bright). Frozen here; each point
# keeps its budget of G2_ORACLE_POINTS.
G2_BUILD_ORACLE = {
    "bright": 6.422886704989545602489e-8,
    "fig3a_cell": 0.7694765663196850216545,
    "fig9b_strong": 0.02040717703795250342792,
    "fig3b_weak": 0.01057438782752363187109,
    "bright_thermal": 2.354588514136959374669,
}


@pytest.mark.parametrize("point", sorted(G2_ORACLE_POINTS))
def test_g2_matches_oracle(point):
    kw, oracle, budget = G2_ORACLE_POINTS[point]
    p = SystemParams(**kw)
    g2 = g2_zero(steady_state(build_liouvillian(p)), p.space())
    assert abs(g2 - oracle) <= budget * oracle
    assert abs(g2 - G2_BUILD_ORACLE[point]) <= budget * G2_BUILD_ORACLE[point]


def test_driven_oscillator_occupation():
    # decoupled driven oscillator: <n> = omega_d^2 / (delta^2 + kappa^2/4)
    for delta, om_d, kappa in [(0.0, 0.05, 1.0), (0.5, 0.02, 0.4)]:
        p = SystemParams(delta_m=delta, delta_s=0.0, omega_d=om_d,
                         kappa_m=kappa, kappa_s=1.0, fock_dim=8)
        s = p.space()
        rho = steady_state(build_liouvillian(p))
        want = om_d ** 2 / (delta ** 2 + kappa ** 2 / 4)
        assert fock_populations(rho, s) @ np.arange(s.fock_dim) == pytest.approx(want, rel=1e-8)


def test_thermal_occupation():
    p = SystemParams(n_th=0.2, kappa_s=0.0, fock_dim=20)
    s = p.space()
    rho = steady_state(build_liouvillian(p))
    assert fock_populations(rho, s) @ np.arange(s.fock_dim) == pytest.approx(0.2, abs=1e-8)
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


def test_evolve_refuses_lost_trace():
    # L preserves the trace, but each squaring in expm amplifies rounding: one step
    # of 1e12 at the bright point drifts the trace by ~1e-3
    p = SystemParams(**G2_ORACLE_POINTS["bright"][0])
    liouv, rho0 = build_liouvillian(p), projector(p.space(), 0, 0)
    assert evolve(liouv, rho0, np.array([0.0, 1e4])).shape[0] == 2
    with pytest.raises(NumericalError, match=r"lost the trace: drift .* at t = 1e\+12$"):
        evolve(liouv, rho0, np.array([0.0, 1e4, 1e12, 1e20]))


@pytest.mark.parametrize("t_end, drift", [(1e308, "nan"), (2e307, "1.000e+00")])
def test_evolve_overflow_is_a_numerical_error(t_end, drift):
    # L·t overflows to inf at 1e308; at 2e307 its norm is finite but at least 2**1023, so
    # 2**s for the scaling would overflow; pytest turns any numpy warning into an error
    p = SystemParams(omega_d=0.01, g_ms=2.0, omega_s=0.06, fock_dim=3)
    liouv, rho0 = build_liouvillian(p), projector(p.space(), 0, 0)
    message = f"propagation lost the trace: drift {drift} at t = {t_end:.6g}"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        evolve(liouv, rho0, np.array([0.0, t_end]))


def test_evolve_refuses_a_non_finite_coherence():
    # a generator that grows only the (0, 1) coherence: e^700 is finite after one step,
    # its square is not, and the trace never moves
    rho0 = np.diag([1.0, 0.0, 0.0, 0.0])
    rho0[0, 1] = rho0[1, 0] = 0.1
    liouv = np.zeros((16, 16))
    liouv[1, 1] = 700.0
    assert np.isfinite(evolve(liouv, rho0, np.array([0.0, 1.0]))).all()
    with pytest.raises(NumericalError, match=r"^propagation produced a non-finite entry at t = 2$"):
        evolve(liouv, rho0, np.array([0.0, 1.0, 2.0, 3.0]))


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
    for times in ([0.0, np.nan], [0.0, np.inf], [np.nan, 1.0], [0.0, 1e308, -1e308]):
        with pytest.raises(ParameterError, match="finite"):
            evolve(liouv, rho0, np.array(times))
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
    assert population_moments(fock_populations(projector(s, 1, 3), s))[0] == pytest.approx(3.0)
    mixed = 0.5 * projector(s, 0, 0) + 0.5 * projector(s, 0, 4)
    occupation, pairs = population_moments(fock_populations(mixed, s))
    assert occupation == pytest.approx(2.0)
    assert pairs == pytest.approx(6.0)  # 0.5 · 4 · 3


def test_coordinates_fold_into_hermitian_matrices():
    # why no report carries a Hermiticity defect: any coordinates give ρ = ρ† exactly
    rng = np.random.default_rng(11)
    rho = unvectorize(rng.normal(size=(3, 36)), 6)
    assert np.array_equal(rho, np.swapaxes(rho, -1, -2).conj())
