"""Five-state amplitude chain: frozen oracle values and route agreement.

The reference amplitudes below were produced by an independent 30-digit
mpmath solve of the same truncated cascade (ground amplitude pinned at 1,
no feedback from the two-quantum manifold onto the one-quantum rows).
Each point carries the closed form's error budget, relative, for the
amplitudes and for g2: a few times the error measured, which is the same
on every IEEE-754 host since the closed form uses only + - * /. Budgets
may only tighten.
"""
import numpy as np
import pytest

from mbl.analytic import (STATE_NAMES, STATE_ORDER, amplitude_g2, analytic_g2,
                          analytic_g2_array, closed_form_amplitudes,
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
        (2e-14, 2e-15),  # measured 4.6e-15, 3.6e-16
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
        (2e-14, 3e-15),  # measured 3.5e-15, 6.2e-16
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
        (1e-14, 5e-15),  # measured 2.1e-15, 1.4e-15
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
        (3e-15, 4e-15),  # measured 6.2e-16, 8.5e-16
        id="asymmetric",
    ),
    pytest.param(
        # on the dip track delta = g_ms/2 at a narrow linewidth, where the
        # terms of the c_g2 numerator cancel
        dict(delta_m=9.05, delta_s=9.05, g_ms=18.1, omega_s=0.06,
             omega_d=0.01, kappa_m=0.07, kappa_s=0.07),
        {
            "c_e0": -0.00110496824399102919448 - 0.285716422393210512794j,
            "c_g1": -0.00110496824399102919448 + 0.285712149035360823731j,
            "c_e1": 6.10389313210879158745e-6 - 0.000315633214775301813757j,
            "c_g2": -3.45251026392559733893e-6 - 6.34276483303104738606e-8j,
        },
        3.57864553799893124402e-9,
        (2e-13, 1e-14),  # measured 4.9e-14, 1.7e-15
        id="dip_track",
    ),
]


def test_state_layout():
    assert STATE_ORDER == ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))
    assert STATE_NAMES == ("c_g0", "c_e0", "c_g1", "c_e1", "c_g2")


@pytest.mark.parametrize("kw, expected, g2, budget", ORACLE)
def test_closed_form_matches_oracle(kw, expected, g2, budget):
    amps_budget, g2_budget = budget
    amps = closed_form_amplitudes(SystemParams(**kw))
    assert amps[0] == 1.0
    for name, want in expected.items():
        got = amps[STATE_NAMES.index(name)]
        assert abs(got - want) <= amps_budget * abs(want), name
    assert abs(amplitude_g2(amps) - g2) <= g2_budget * g2


@pytest.mark.parametrize("kw, expected, g2, budget", ORACLE)
def test_linear_solve_matches_oracle(kw, expected, g2, budget):
    amps = solve_steady_linear(SystemParams(**kw))
    for name, want in expected.items():
        got = amps[STATE_NAMES.index(name)]
        assert abs(got - want) <= 1e-12 * abs(want), name
    assert amplitude_g2(amps) == pytest.approx(g2, rel=1e-12)


@pytest.mark.parametrize("kw, expected, g2, budget", ORACLE)
def test_linear_solve_residual(kw, expected, g2, budget):
    # the solved vector must actually satisfy the pinned system
    params = SystemParams(**kw)
    m = reduced_matrix(params)
    c = solve_steady_linear(params)
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
    _, c_e0, c_g1, _, c_g2 = closed_form_amplitudes(p)
    assert c_g1 == pytest.approx(-0.02 / dm, rel=1e-12)
    assert c_g2 == pytest.approx(0.02 ** 2 / (np.sqrt(2) * dm ** 2), rel=1e-12)
    assert c_e0 == pytest.approx(0.0, abs=1e-15)
    assert analytic_g2(p) == pytest.approx(1.0, abs=1e-10)


def test_no_drive_gives_vacuum():
    p = SystemParams(delta_m=2.0, delta_s=2.0, g_ms=4.0)
    amps = closed_form_amplitudes(p)
    assert amps[0] == 1.0
    for name, value in zip(STATE_NAMES[1:], amps[1:]):
        assert value == 0.0, name


def test_scenario_b_is_scenario_a_relabelled():
    # scenario B is scenario A at omega_s = 0 with g_ms = g_ms_tilde: the closed form
    # gives the relabelled point's amplitudes bit for bit, and the LU oracle agrees
    # within the budget of test_random_route_agreement
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(100):
        kw = dict(delta_m=rng.uniform(-40, 40), delta_s=rng.uniform(-40, 40),
                  omega_d=rng.uniform(0.001, 0.02), kappa_m=rng.uniform(0.1, 1.5),
                  kappa_s=rng.uniform(0.1, 1.5))
        g = rng.uniform(1, 60)
        p = SystemParams(scenario="B", g_ms_tilde=g, **kw)
        amps = closed_form_amplitudes(p)
        assert amps.tobytes() == closed_form_amplitudes(SystemParams(g_ms=g, **kw)).tobytes()
        worst = max(worst, float(np.max(np.abs(amps - solve_steady_linear(p))) / np.max(np.abs(amps))))
    assert worst < 1e-4


def test_thermal_bath_rejected(bright_params):
    # the cascade is a zero-temperature model: a bath occupation is refused, not ignored
    p = bright_params.replace(n_th=5.0)
    for fn in (closed_form_amplitudes, solve_steady_linear, analytic_g2):
        with pytest.raises(ParameterError, match="n_th"):
            fn(p)
    # the truncation plays no part in the five-state cascade
    assert analytic_g2(bright_params.replace(fock_dim=2)) == analytic_g2(bright_params)


def test_array_kernel_matches_single_point():
    rng = np.random.default_rng(20101)
    n = 400
    fields = dict(delta_m=rng.uniform(-20, 20, n), delta_s=rng.uniform(-20, 20, n),
                  g_ms=rng.uniform(0, 30, n), g_ms_tilde=np.zeros(n), omega_s=rng.uniform(0, 0.1, n),
                  omega_d=rng.uniform(0, 0.02, n), kappa_m=rng.uniform(0, 1.5, n),
                  kappa_s=rng.uniform(0, 1.5, n))
    # a dip-tracked stretch, a singular stretch (no loss at delta = g/2), a dark
    # stretch, an overflowing one and a scenario-B one
    fields["delta_m"][:100] = fields["delta_s"][:100] = fields["g_ms"][:100] / 2
    fields["kappa_m"][100:150] = fields["kappa_s"][100:150] = 0.0
    fields["delta_m"][100:150] = fields["delta_s"][100:150] = fields["g_ms"][100:150] / 2
    fields["omega_s"][150:200] = fields["omega_d"][150:200] = 0.0
    fields["omega_d"][200:250] = 10.0 ** rng.uniform(100, 300, 50)
    fields["g_ms_tilde"][250:300] = rng.uniform(0, 60, 50)
    fields["g_ms"][250:300] = fields["omega_s"][250:300] = 0.0
    got = analytic_g2_array(fields)
    failed = 0
    for k in range(n):
        p = SystemParams(**{name: float(values[k]) for name, values in fields.items()},
                         scenario="B" if 250 <= k < 300 else "A")
        try:
            want = analytic_g2(p)
        except NumericalError:
            failed += 1
            assert np.isnan(got[k]), k
            continue
        assert got[k] == want, k
    assert failed == 150


def test_weak_drive_hierarchy(bright_params):
    """Successive amplitudes drop by more than 10x across the dip sweep.

    The strict factor is relaxed in narrow windows where a resonance
    concentrates weight: around +-g/2 the one-quantum amplitude peaks (the
    first ratio compresses to 4-8x) and around -g/(2 sqrt 2) the two-photon
    pole lifts the two-quantum amplitude. Ordering must still hold there.
    """
    g = bright_params.g_ms
    for d in np.linspace(-20.0, 20.0, 201):
        c_g0, _, c_g1, _, c_g2 = closed_form_amplitudes(
            bright_params.replace(delta_m=d, delta_s=d))
        a0, a1, a2 = abs(c_g0), abs(c_g1), abs(c_g2)
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
        a = closed_form_amplitudes(p)
        b = solve_steady_linear(p)
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


@pytest.mark.parametrize("bad", ["a", None, True, float("nan"), float("inf")])
def test_non_numbers_raise_parameter_error(bad):
    with pytest.raises(ParameterError):
        optimal_detuning(bad)


def test_degenerate_chain_raises():
    # kappa = 0 with the exchange tuned to delta = g/2 makes the one-quantum
    # pair singular; the closed form must refuse rather than divide by zero
    p = SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06,
                     omega_d=0.01, kappa_m=0.0, kappa_s=0.0)
    with pytest.raises(NumericalError):
        closed_form_amplitudes(p)


def test_overflow_raises():
    # a drive of 1e200 overflows the amplitudes: the library raises rather than return NaN
    p = SystemParams(delta_m=1.0, delta_s=1.0, g_ms=1.0, omega_s=0.06, omega_d=1e200, kappa_m=0.15, kappa_s=0.15)
    with pytest.raises(NumericalError, match="not finite"):
        analytic_g2(p)
    assert np.isnan(analytic_g2_array({name: np.array([value]) for name, value in vars(p).items()
                                       if isinstance(value, float)}))


def test_g2_requires_occupation():
    p = SystemParams(delta_m=2.0, delta_s=2.0, g_ms=4.0)
    amps = closed_form_amplitudes(p)  # no drive, c_g1 = 0
    with pytest.raises(NumericalError):
        amplitude_g2(amps)

