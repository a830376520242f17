"""Five-state amplitude chain: frozen oracle values, route agreement, dynamics.

The reference amplitudes below were produced by an independent 30-digit
mpmath solve of the same truncated cascade (ground amplitude pinned at 1,
no feedback from the two-quantum manifold onto the one-quantum rows).
"""
import numpy as np
import pytest

from mbl.analytic import (STATE_NAMES, STATE_ORDER, amplitude_g2, analytic_g2,
                          closed_form_amplitudes, evolve_amplitudes,
                          optimal_detuning, reduced_matrix,
                          solve_steady_linear)
from mbl.errors import NumericalError, ParameterError
from mbl.model import SystemParams

ORACLE = [
    pytest.param(
        dict(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06,
             omega_d=0.01, kappa_m=0.15, kappa_s=0.15),
        {
            "c_e0": -0.00102039322232435545 - 0.133337237899235081j,
            "c_g1": -0.00102039322232435545 + 0.133329428767431578j,
            "c_e1": 5.20307122717925695e-6 - 0.000135930988110858618j,
            "c_g2": -2.94205622207419194e-6 - 1.06979222041419889e-7j,
        },
        5.48467413118217571e-8,
        id="deep_dip",
    ),
    pytest.param(
        dict(delta_m=-9.8, delta_s=-9.8, g_ms=19.6, omega_s=0.06,
             omega_d=0.01, kappa_m=0.15, kappa_s=0.15),
        {
            "c_e0": 0.000510196611162177701 - 0.266668618949617546j,
            "c_g1": -0.000510196611162177701 - 0.266664714383715795j,
            "c_e1": -0.0000348576612968119399 - 0.00135963840481296712j,
            "c_g2": -0.0000338444732697265396 - 0.00115355912201957902j,
        },
        0.000526766314546096021,
        id="mirror_dip",
    ),
    pytest.param(
        dict(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06,
             omega_d=0.01, kappa_m=1.0, kappa_s=1.0),
        {
            "c_e0": -0.00101974454358627497 - 0.0200260138914180159j,
            "c_g1": -0.00101974454358627497 + 0.0199739861085819815j,
            "c_e1": 5.07260752275614128e-6 - 0.0000196077423000712529j,
            "c_g2": -2.81584231261914293e-6 - 6.90878517427810078e-7j,
        },
        0.000105078513192244677,
        id="broad_lines",
    ),
    pytest.param(
        dict(delta_m=3.7, delta_s=-2.1, g_ms=11.0, omega_s=0.08,
             omega_d=0.02, kappa_m=0.6, kappa_s=0.25),
        {
            "c_e0": 0.000999857523953413344 - 0.0003109117484001262j,
            "c_g1": -0.00688389731475414854 - 0.0000959877238447433419j,
            "c_e1": -7.56905372895356844e-6 + 2.67762864251443991e-6j,
            "c_g2": 0.0000342408405363206084 + 3.28700549001264541e-7j,
        },
        1.04388450924729666,
        id="asymmetric",
    ),
]


def test_state_layout():
    assert STATE_ORDER == ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))
    assert STATE_NAMES == ("c_g0", "c_e0", "c_g1", "c_e1", "c_g2")


@pytest.mark.parametrize("kw, expected, g2", ORACLE)
def test_closed_form_matches_oracle(kw, expected, g2):
    amps = closed_form_amplitudes(SystemParams(**kw))
    assert amps.c_g0 == 1.0
    for name, want in expected.items():
        got = getattr(amps, name)
        assert abs(got - want) <= 1e-12 * abs(want), name
    assert amplitude_g2(amps) == pytest.approx(g2, rel=1e-12)


@pytest.mark.parametrize("kw, expected, g2", ORACLE)
def test_linear_solve_matches_oracle(kw, expected, g2):
    amps = solve_steady_linear(SystemParams(**kw))
    for name, want in expected.items():
        got = getattr(amps, name)
        assert abs(got - want) <= 1e-12 * abs(want), name
    assert amplitude_g2(amps) == pytest.approx(g2, rel=1e-12)


@pytest.mark.parametrize("kw, expected, g2", ORACLE)
def test_linear_solve_residual(kw, expected, g2):
    # the solved vector must actually satisfy the pinned system
    params = SystemParams(**kw)
    m = reduced_matrix(params)
    c = solve_steady_linear(params).as_array()
    residual = m[1:, :] @ c
    assert np.max(np.abs(residual)) < 1e-12


def test_reduced_matrix_structure():
    p = SystemParams(delta_m=3.7, delta_s=-2.1, g_ms=11.0, omega_s=0.08,
                     omega_d=0.02, kappa_m=0.6, kappa_s=0.25)
    m = reduced_matrix(p)
    assert m.shape == (5, 5)
    dm = 3.7 - 0.3j
    ds = -2.1 - 0.125j
    assert m[1, 1] == pytest.approx(ds)
    assert m[2, 2] == pytest.approx(dm)
    assert m[3, 3] == pytest.approx(dm + ds)
    assert m[4, 4] == pytest.approx(2 * dm)
    assert m[0, 1] == pytest.approx(0.04)          # qubit drive / 2
    assert m[0, 2] == pytest.approx(0.02)          # oscillator drive
    assert m[1, 2] == pytest.approx(5.5)           # exchange / 2
    assert m[3, 4] == pytest.approx(5.5 * np.sqrt(2))
    assert m[4, 2] == pytest.approx(0.02 * np.sqrt(2))
    assert m[3, 1] == pytest.approx(0.02)
    assert m[3, 2] == pytest.approx(0.04)
    # cascade: one-quantum rows carry no feedback from the two-quantum pair
    assert m[1, 3] == 0 and m[1, 4] == 0
    assert m[2, 3] == 0 and m[2, 4] == 0


def test_decoupled_oscillator():
    # with no exchange and no qubit drive the chain is a driven oscillator:
    # c_g1 = -omega_d / dm, c_g2 = omega_d^2 / (sqrt2 dm^2), so g2 = 1
    p = SystemParams(delta_m=1.3, delta_s=0.7, g_ms=0.0, omega_s=0.0,
                     omega_d=0.02, kappa_m=0.8, kappa_s=0.5)
    dm = 1.3 - 0.4j
    amps = closed_form_amplitudes(p)
    assert amps.c_g1 == pytest.approx(-0.02 / dm, rel=1e-12)
    assert amps.c_g2 == pytest.approx(0.02 ** 2 / (np.sqrt(2) * dm ** 2), rel=1e-12)
    assert amps.c_e0 == pytest.approx(0.0, abs=1e-15)
    assert analytic_g2(p) == pytest.approx(1.0, abs=1e-10)


def test_no_drive_gives_vacuum():
    p = SystemParams(delta_m=2.0, delta_s=2.0, g_ms=4.0)
    amps = closed_form_amplitudes(p)
    assert amps.c_g0 == 1.0
    for name in STATE_NAMES[1:]:
        assert getattr(amps, name) == 0.0


def test_scenario_b_rejected():
    p = SystemParams(delta_m=25.05, delta_s=50.1, g_ms_tilde=50.1,
                     omega_d=0.01, scenario="B")
    for fn in (closed_form_amplitudes, solve_steady_linear, analytic_g2):
        with pytest.raises(ParameterError):
            fn(p)
    with pytest.raises(ParameterError):
        evolve_amplitudes(p, 10.0, 0.01)


def test_weak_drive_hierarchy(bright_params):
    """Successive amplitudes drop by more than 10x across the dip sweep.

    The strict factor is relaxed in narrow windows where a resonance
    concentrates weight: around +-g/2 the one-quantum amplitude peaks (the
    first ratio compresses to 4-8x) and around -g/(2 sqrt 2) the two-photon
    pole lifts the two-quantum amplitude. Ordering must still hold there.
    """
    g = bright_params.g_ms
    for d in np.linspace(-20.0, 20.0, 201):
        amps = closed_form_amplitudes(
            bright_params.replace(delta_m=d, delta_s=d))
        a0, a1, a2 = abs(amps.c_g0), abs(amps.c_g1), abs(amps.c_g2)
        near_peak = min(abs(d - g / 2), abs(d + g / 2)) <= 1.0
        near_pole = abs(d + g / (2 * np.sqrt(2))) <= 1.0
        assert a0 > (3.0 if near_peak else 10.0) * a1, d
        assert a1 > (3.0 if near_pole else 10.0) * a2, d


def test_random_route_agreement():
    # both routes solve the same cascade; they must agree everywhere in the
    # weak-drive region, not only at hand-picked points
    rng = np.random.default_rng(8021)
    worst = 0.0
    for _ in range(100):
        p = SystemParams(
            delta_m=rng.uniform(-20, 20),
            delta_s=rng.uniform(-20, 20),
            g_ms=rng.uniform(1, 25),
            omega_s=rng.uniform(0.01, 0.1),
            omega_d=rng.uniform(0.001, 0.02),
            kappa_m=rng.uniform(0.1, 1.0),
            kappa_s=rng.uniform(0.1, 1.0),
        )
        a = closed_form_amplitudes(p).as_array()
        b = solve_steady_linear(p).as_array()
        scale = np.max(np.abs(a))
        worst = max(worst, float(np.max(np.abs(a - b)) / scale))
    assert worst < 1e-4


def test_minimum_sits_at_half_coupling(bright_params):
    deltas = np.linspace(0.0, 20.0, 801)
    vals = [analytic_g2(bright_params.replace(delta_m=d, delta_s=d))
            for d in deltas]
    best = deltas[int(np.argmin(vals))]
    assert abs(best - 19.6 / 2) <= 0.5


def test_optimal_detuning():
    assert optimal_detuning(19.6) == (9.8, -9.8)
    assert optimal_detuning(0.0) == (0.0, 0.0)
    with pytest.raises(ParameterError):
        optimal_detuning(-1.0)
    with pytest.raises(ParameterError):
        optimal_detuning(float("nan"))


def test_degenerate_chain_raises():
    # kappa = 0 with the exchange tuned to delta = g/2 makes the one-quantum
    # pair singular; the closed form must refuse rather than divide by zero
    p = SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06,
                     omega_d=0.01, kappa_m=0.0, kappa_s=0.0)
    with pytest.raises(NumericalError):
        closed_form_amplitudes(p)


def test_g2_requires_occupation():
    p = SystemParams(delta_m=2.0, delta_s=2.0, g_ms=4.0)
    amps = closed_form_amplitudes(p)  # no drive, c_g1 = 0
    with pytest.raises(NumericalError):
        amplitude_g2(amps)


# ------------------------------------------------------------ time evolution

def test_evolution_reaches_steady_state(broad_params):
    traj = evolve_amplitudes(broad_params, t_end=50.0, dt=0.005)
    steady = solve_steady_linear(broad_params).as_array()
    final = traj.final().as_array()
    assert np.max(np.abs(final - steady)) < 1e-6
    # ground amplitude is pinned along the whole path
    assert np.array_equal(traj.amplitudes[:, 0], np.ones(len(traj.times)))
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_evolution_step_insensitive(broad_params):
    a = evolve_amplitudes(broad_params, t_end=50.0, dt=0.005).final().as_array()
    b = evolve_amplitudes(broad_params, t_end=50.0, dt=0.0025).final().as_array()
    assert np.max(np.abs(a - b)) < 1e-8


def test_evolution_coarse_steps_are_exact(broad_params):
    # the step propagator is exact: a step past any explicit-scheme stability
    # limit lands on the same amplitudes as a fine grid
    coarse = evolve_amplitudes(broad_params, t_end=10.0, dt=2.5)
    fine = evolve_amplitudes(broad_params, t_end=10.0, dt=0.01)
    assert coarse.times.size == 5
    assert np.max(np.abs(coarse.amplitudes - fine.amplitudes[::250])) < 1e-12


def test_evolution_zero_params_stay_zero():
    traj = evolve_amplitudes(SystemParams(), t_end=1.0, dt=0.01)
    assert np.max(np.abs(traj.amplitudes[:, 1:])) == 0.0


def test_evolution_validation(broad_params):
    with pytest.raises(ParameterError):
        evolve_amplitudes(broad_params, t_end=0.0, dt=0.01)
    with pytest.raises(ParameterError):
        evolve_amplitudes(broad_params, t_end=10.0, dt=0.0)
