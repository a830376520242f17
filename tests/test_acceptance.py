"""End-to-end checks of the preset working points and the property suite.

Each test prints one summary line through the acceptance_log fixture; the
supporting grids are computed once per module. The whole module stays well
under the five-minute desk budget at the default truncation.
"""
import numpy as np
import pytest

from mbl.analytic import analytic_g2, closed_form_amplitudes, solve_steady_linear
from mbl.lindblad import (build_liouvillian, density_diagnostics, g2_zero,
                          mean_occupation, steady_state, unvectorize,
                          vectorize)
from mbl.model import SystemParams, dressed_spectrum
from mbl.sweep import (FIGURE_NAMES, EvolutionJob, SweepAxis, SweepSpec,
                       evaluate_point, figure_preset, find_minimum,
                       run_evolution, run_sweep)

BRIGHT = SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06,
                      omega_d=0.01, kappa_m=0.15, kappa_s=0.15)


@pytest.fixture(scope="module")
def dip_cut_grid():
    """Both-route detuning cut at the narrow-linewidth working point."""
    spec = SweepSpec(base=BRIGHT,
                     axis1=SweepAxis.linspace("delta", -20.0, 20.0, 201),
                     quantity="both_g2")
    return run_sweep(spec)


@pytest.fixture(scope="module")
def coupling_map_grid():
    """Detuning x coupling map of the master-equation g2."""
    return run_sweep(figure_preset("fig3a"))


@pytest.fixture(scope="module")
def drive_map_grid():
    """Qubit drive x probe drive map around the interference optimum."""
    return run_sweep(figure_preset("fig3b"))


def test_dip_depths_at_half_coupling(dip_cut_grid, acceptance_log):
    """Both routes hit the deep dip at +g/2 and the shallow one at -g/2."""
    spec = dip_cut_grid.spec
    deltas = spec.axis1.as_array()
    i_plus = int(np.argmin(np.abs(deltas - 9.8)))
    i_minus = int(np.argmin(np.abs(deltas + 9.8)))
    assert deltas[i_plus] == pytest.approx(9.8, abs=1e-9)
    assert deltas[i_minus] == pytest.approx(-9.8, abs=1e-9)
    depths = {}
    for col in ("g2_numeric", "g2_analytic"):
        plane = dip_cut_grid.planes[col]
        plus = float(np.log10(plane[i_plus, 0]))
        minus = float(np.log10(plane[i_minus, 0]))
        assert -7.8 <= plus <= -6.8, (col, plus)
        assert -3.8 <= minus <= -2.8, (col, minus)
        depths[col] = (plus, minus)
    acceptance_log(
        "PASS dip depths: log10 g2 at delta=+9.8 is "
        f"{depths['g2_analytic'][0]:.3f} (analytic) / "
        f"{depths['g2_numeric'][0]:.3f} (numeric), window [-7.8, -6.8]; "
        f"at delta=-9.8 it is {depths['g2_analytic'][1]:.3f} / "
        f"{depths['g2_numeric'][1]:.3f}, window [-3.8, -2.8]")


def test_optimal_detuning_tracks_half_coupling(dip_cut_grid,
                                               coupling_map_grid,
                                               acceptance_log):
    """The dip detuning sits at half the exchange coupling, map-wide."""
    # 1D cut: the global minimum of both routes lands on +9.8
    deltas = dip_cut_grid.spec.axis1.as_array()
    offsets = {}
    for col in ("g2_numeric", "g2_analytic"):
        best = deltas[int(np.nanargmin(dip_cut_grid.planes[col][:, 0]))]
        assert abs(best - 9.8) <= 0.5, (col, best)
        offsets[col] = best - 9.8
    # 2D map: per-column minimum tracks g/2 across the strong-coupling band
    spec = coupling_map_grid.spec
    map_deltas = spec.axis1.as_array()
    couplings = spec.axis2.as_array()
    plane = coupling_map_grid.planes["g2_numeric"]
    cols = np.where((couplings >= 10.0) & (couplings <= 30.0))[0]
    assert cols.size == 81
    deviations = []
    for j in cols:
        best = abs(map_deltas[int(np.nanargmin(plane[:, j]))])
        deviations.append(abs(best - couplings[j] / 2))
    mad = float(np.mean(deviations))
    assert mad < 1.0
    acceptance_log(
        "PASS optimal detuning: 1D argmin offsets from +9.8 are "
        f"{offsets['g2_numeric']:+.3f} (numeric) / "
        f"{offsets['g2_analytic']:+.3f} (analytic), tolerance 0.5; 2D map "
        f"|delta*| vs g/2 mean deviation {mad:.3f} over g in [10, 30], "
        "tolerance 1.0")


def test_optimal_drive_ratio(drive_map_grid, acceptance_log):
    """The interference optimum pins the drive ratio near six."""
    best = find_minimum(drive_map_grid)
    omega_s, omega_d = best.coords
    ratio = omega_s / omega_d
    assert 5.0 <= ratio <= 7.0
    acceptance_log(
        f"PASS drive ratio: grid minimum at omega_s={omega_s:.4f}, "
        f"omega_d={omega_d:.4f}, ratio {ratio:.2f} inside [5, 7] "
        f"(log10 g2 = {np.log10(best.value):.3f})")


def test_weak_dip_depth_tracks_qubit_drive(acceptance_log):
    """Dip depth on the anharmonicity side deepens with the qubit drive.

    The minima are taken over the negative-detuning branch, where the level
    splitting alone sets the floor; the positive branch hosts the deeper
    interference dips and is covered by the other landmark checks.
    """
    targets = {0.001: -2.7, 0.05: -3.2, 0.09: -3.4}
    measured = {}
    for omega_s, target in targets.items():
        base = BRIGHT.replace(omega_s=omega_s)
        spec = SweepSpec(base=base,
                         axis1=SweepAxis.linspace("delta", -20.0, 0.0, 801),
                         quantity="both_g2")
        grid = run_sweep(spec)
        for col in ("g2_numeric", "g2_analytic"):
            depth = float(np.log10(np.nanmin(grid.planes[col])))
            assert abs(depth - target) <= 0.5, (omega_s, col, depth)
            measured[(omega_s, col)] = depth
    summary = "; ".join(
        f"omega_s={om:.3f}: {measured[(om, 'g2_numeric')]:.2f} num / "
        f"{measured[(om, 'g2_analytic')]:.2f} ana vs {tg}"
        for om, tg in targets.items())
    acceptance_log(f"PASS weak-branch dips (tolerance 0.5): {summary}")


def test_population_cascade_endpoint(acceptance_log):
    """Relaxation from the empty state lands on the blockade hierarchy."""
    series = run_evolution(figure_preset("fig7"))
    p1 = series.planes["p1"][-1]
    p2 = series.planes["p2"][-1]
    assert 1e-2 / 3 <= p1 <= 1e-2 * 3
    assert 1e-13 <= p2 <= 1e-9
    reconstructed = 2 * p2 / p1 ** 2
    reference = analytic_g2(BRIGHT)
    ratio = reconstructed / reference
    assert 0.5 <= ratio <= 2.0
    acceptance_log(
        f"PASS population endpoint: P1={p1:.3e} (target 1e-2 within x3), "
        f"P2={p2:.3e} (target 1e-11 within x100), 2*P2/P1^2 = "
        f"{reconstructed:.3e} vs closed form {reference:.3e}, "
        f"ratio {ratio:.2f} within x2")


def test_transverse_layout_dip(acceptance_log):
    """The beam-splitter layout shows its dip at half its coupling."""
    base = SystemParams(g_ms_tilde=50.1, omega_d=0.01, kappa_m=1.0,
                        kappa_s=1.0, scenario="B")
    spec = SweepSpec(base=base,
                     axis1=SweepAxis.linspace("delta", -40.0, 40.0, 801),
                     quantity="g2_numeric")
    grid = run_sweep(spec)
    best = find_minimum(grid)
    depth = float(np.log10(best.value))
    location = best.coords[0]
    assert -2.5 <= depth <= -1.5
    assert abs(abs(location) - 25.05) <= 1.0
    acceptance_log(
        f"PASS transverse-layout dip: minimum log10 g2 = {depth:.3f} "
        f"(window [-2.5, -1.5]) at delta = {location:+.2f}, "
        "|delta| within 1.0 of 25.05")


def test_probe_power_plateau_and_rise(acceptance_log):
    """Blockade holds over a decade of weak probing, then washes out."""
    base = SystemParams(delta_m=25.05, delta_s=25.05, g_ms_tilde=50.1,
                        omega_d=0.01, kappa_m=0.15, kappa_s=0.15,
                        scenario="B")
    weak = np.geomspace(0.001, 0.01, 7)
    levels = {}
    for om_d in list(weak) + [0.1, 0.6]:
        out = evaluate_point(base.replace(omega_d=float(om_d)), "g2_numeric")
        levels[float(om_d)] = float(np.log10(out["g2_numeric"]))
    anchor = levels[float(weak[0])]
    spread = max(abs(levels[float(w)] - anchor) for w in weak)
    assert spread <= 0.3
    rise = levels[0.6] - levels[0.1]
    assert 1.3 <= rise <= 2.7
    acceptance_log(
        f"PASS probe-power response: plateau at {anchor:.3f} with spread "
        f"{spread:.3f} over omega_d in [0.001, 0.01] (tolerance 0.3); "
        f"rise {rise:+.2f} from omega_d 0.1 to 0.6 (window [1.3, 2.7])")


# ------------------------------------------------------- property suite

def test_steady_state_validity_across_presets(acceptance_log):
    """Solver output is a physical state at every preset's working region."""
    worst = {"residual": 0.0, "herm": 0.0, "trace": 0.0, "neg": 0.0}
    checked = 0
    for name in FIGURE_NAMES:
        preset = figure_preset(name)
        if isinstance(preset, EvolutionJob):
            samples = [preset.base]
        else:
            n1, n2 = preset.shape
            corners = {(0, 0), (0, n2 - 1), (n1 - 1, 0), (n1 - 1, n2 - 1),
                       (n1 // 2, n2 // 2)}
            samples = [preset.params_at(i, j) for i, j in sorted(corners)]
        for params in samples:
            liouv = build_liouvillian(params)
            rho = steady_state(liouv)
            diag = density_diagnostics(rho)
            drho = unvectorize(liouv @ vectorize(rho), params.space().total_dim)
            worst["residual"] = max(worst["residual"], float(np.max(np.abs(drho))))
            worst["herm"] = max(worst["herm"], diag["hermiticity_defect"])
            worst["trace"] = max(worst["trace"], abs(diag["trace_real"] - 1.0))
            worst["neg"] = max(worst["neg"], max(0.0, -diag["min_eigenvalue"]))
            checked += 1
    assert worst["residual"] < 1e-10
    assert worst["herm"] < 1e-12
    assert worst["trace"] < 1e-12
    assert worst["neg"] < 1e-10
    acceptance_log(
        f"PASS steady-state validity: {checked} sampled preset points, worst "
        f"residual {worst['residual']:.1e} (<1e-10), hermiticity defect "
        f"{worst['herm']:.1e} (<1e-12), trace error {worst['trace']:.1e} "
        f"(<1e-12), negativity {worst['neg']:.1e} (<1e-10)")


def test_coherent_limit(acceptance_log):
    """Without exchange or qubit drive the probe makes classical light."""
    cases = [(0.0, 0.05, 1.0), (0.5, 0.02, 0.4), (-1.3, 0.03, 0.8)]
    worst_num = 0.0
    for delta, om_d, kappa in cases:
        p = SystemParams(delta_m=delta, omega_d=om_d, kappa_m=kappa,
                         kappa_s=1.0, fock_dim=8)
        out = evaluate_point(p, "g2_numeric")
        worst_num = max(worst_num, abs(out["g2_numeric"] - 1.0))
        assert analytic_g2(p) == pytest.approx(1.0, abs=1e-10)
    assert worst_num < 1e-4
    acceptance_log(
        f"PASS coherent limit: worst numeric |g2 - 1| = {worst_num:.2e} "
        "(<1e-4) over three drive/linewidth settings; analytic value exact "
        "to 1e-10")


def test_route_equivalence_randomized(acceptance_log):
    """Closed form and direct solve agree over a random parameter cloud."""
    rng = np.random.default_rng(52)
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
        direct = solve_steady_linear(p)
        g2_direct = 2 * abs(direct.c_g2) ** 2 / abs(direct.c_g1) ** 4
        g2_closed = analytic_g2(p)
        worst = max(worst, abs(g2_closed - g2_direct) / g2_closed)
    assert worst < 1e-4
    acceptance_log(
        f"PASS route equivalence: worst relative g2 gap {worst:.2e} (<1e-4) "
        "over 100 random weak-drive parameter draws")


def test_ladder_matches_diagonalization(acceptance_log):
    """Doublet energies reproduce brute-force eigenvalues to round-off."""
    from mbl.core import Space, annihilation, qubit_ops
    worst = 0.0
    for omega_m, omega_q, g in [(5.3, 4.9, 2.2), (9.8, 9.8, 19.6)]:
        s = Space(8)
        m = annihilation(s)
        sm, sp, _ = qubit_ops(s)
        md = m.conj().T
        h = (omega_m * md @ m + omega_q * sp @ sm
             + g / 2 * (m @ sp + md @ sm))
        vals = np.linalg.eigvalsh(h)
        # at resonance with g = 2 omega the branches interleave across
        # excitation numbers, so check containment: each predicted level
        # must appear in the spectrum (scaled by the ladder spacing, since
        # one doublet level sits at exactly zero there)
        for lv in dressed_spectrum(omega_m, omega_q, g, 3):
            gap = float(np.min(np.abs(vals - lv.energy)))
            worst = max(worst, gap / max(abs(lv.energy), omega_m))
    assert worst < 1e-10
    acceptance_log(
        f"PASS dressed ladder: worst relative gap to diagonalization "
        f"{worst:.1e} (<1e-10) for the three lowest doublets, two settings")


def test_truncation_convergence(acceptance_log):
    """The default cutoff is already converged at the working point."""
    small = evaluate_point(BRIGHT, "g2_numeric")["g2_numeric"]
    large = evaluate_point(BRIGHT.replace(fock_dim=8),
                           "g2_numeric")["g2_numeric"]
    rel = abs(small - large) / large
    assert rel < 0.01
    acceptance_log(
        f"PASS truncation convergence: g2 changes by {rel:.2e} (<1%) when "
        "the boson cutoff grows from 6 to 8 levels")


def test_thermal_fixed_point(acceptance_log):
    """A drive-free mode in a warm bath settles at the bath occupation."""
    p = SystemParams(n_th=0.5, fock_dim=16)
    s = p.space()
    rho = steady_state(build_liouvillian(p))
    occupation = mean_occupation(rho, s)
    assert abs(occupation - 0.5) < 1e-6
    acceptance_log(
        f"PASS thermal fixed point: occupation {occupation:.8f} vs bath "
        "value 0.5, gap below 1e-6 at a 16-level cutoff")


def test_route_agreement_curve(dip_cut_grid, acceptance_log):
    """The two routes agree along the whole cut, apart from the sharp dips."""
    deltas = dip_cut_grid.spec.axis1.as_array()
    ana = np.log10(dip_cut_grid.planes["g2_analytic"][:, 0])
    num = np.log10(dip_cut_grid.planes["g2_numeric"][:, 0])
    pos = deltas > 0
    dip_plus = deltas[pos][int(np.argmin(ana[pos]))]
    dip_minus = deltas[~pos][int(np.argmin(ana[~pos]))]
    keep = ((np.abs(deltas - dip_plus) > 0.2 + 1e-9)
            & (np.abs(deltas - dip_minus) > 0.2 + 1e-9))
    gap = float(np.max(np.abs(num[keep] - ana[keep])))
    assert gap < 0.5
    acceptance_log(
        f"PASS route agreement curve: max |log10 gap| {gap:.3f} (<0.5) over "
        f"delta in [-20, 20] outside 0.2-wide windows at the dips "
        f"({dip_minus:+.1f}, {dip_plus:+.1f})")
