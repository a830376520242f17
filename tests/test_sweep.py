"""Grid machinery: axes, constraints, execution, presets."""
import tracemalloc

import numpy as np
import pytest

from mbl.core import projector
from mbl.errors import NumericalError, ParameterError
from mbl.analytic import analytic_g2
from mbl.lindblad import (build_liouvillian, evolve, fock_populations, g2_zero,
                          liouvillian_workspace, steady_state)
from mbl.model import SystemParams
from mbl.sweep import (AXIS_ALIASES, FIGURE_NAMES, Constraint, EvolutionJob,
                       SweepAxis, SweepSpec, evaluate_point, figure_preset,
                       run_evolution, run_sweep)


# ------------------------------------------------------------------- axes

def test_axis_linspace():
    ax = SweepAxis.linspace("delta", -20.0, 20.0, 201)
    assert ax.count == 201
    assert ax.values[0] == -20.0 and ax.values[-1] == 20.0
    assert np.allclose(np.diff(ax.as_array()), 0.2)


def test_axis_explicit():
    ax = SweepAxis("omega_s", [0.001, 0.05, 0.09])
    assert ax.count == 3
    assert ax.values == (0.001, 0.05, 0.09)
    # any iterable of numbers will do, as it did for the deleted SweepAxis.explicit
    assert SweepAxis("omega_s", (v for v in [0.001, 0.05, 0.09])) == ax


def test_axis_validation():
    with pytest.raises(ParameterError):
        SweepAxis.linspace("delta", 0.0, 1.0, 1)
    with pytest.raises(ParameterError):
        SweepAxis.linspace("delta", 1.0, 0.0, 5)
    with pytest.raises(ParameterError):
        SweepAxis("delta", [])
    with pytest.raises(ParameterError):
        SweepAxis("delta", [0.0, float("nan")])
    with pytest.raises(ParameterError):
        SweepAxis("not_a_param", [1.0])


def test_axis_aliases_cover_pairs():
    assert AXIS_ALIASES["delta"] == ("delta_m", "delta_s")
    assert AXIS_ALIASES["kappa"] == ("kappa_m", "kappa_s")


# ------------------------------------------------------------ constraints

def test_constraint_scaled_source():
    c = Constraint.parse("delta = g_ms/2")
    fields = {"delta_m": 0.0, "delta_s": 0.0, "g_ms": 19.6}
    c.apply(fields)
    assert fields["delta_m"] == 9.8 and fields["delta_s"] == 9.8

    c2 = Constraint.parse("omega_d = omega_s*0.5")
    fields2 = {"omega_d": 0.0, "omega_s": 0.06}
    c2.apply(fields2)
    assert fields2["omega_d"] == 0.03


def test_constraint_literal():
    c = Constraint.parse("kappa_m = 0.15")
    fields = {"kappa_m": 1.0}
    c.apply(fields)
    assert fields["kappa_m"] == 0.15


@pytest.mark.parametrize("rule", [
    "delta == g_ms", "delta = g_ms/0", "delta = nonsense/2",
    "bogus = g_ms", "delta = g_ms * ", "= 3",
    "delta = g_ms / 5e-324",  # the reciprocal overflows to inf
])
def test_constraint_rejects_bad_rules(rule):
    with pytest.raises(ParameterError):
        Constraint.parse(rule)


# ------------------------------------------------------------------ specs

def test_spec_validation():
    base = SystemParams(g_ms=19.6, omega_d=0.01)
    ax = SweepAxis.linspace("delta", 0.0, 1.0, 3)
    with pytest.raises(ParameterError):
        SweepSpec(base=base, axis1=ax, quantity="bogus")
    # alias overlap with a component axis
    with pytest.raises(ParameterError):
        SweepSpec(base=base, axis1=SweepAxis.linspace("delta", 0, 1, 3),
                  axis2=SweepAxis.linspace("delta_m", 0, 1, 3))
    # closed form exists only for the directly driven layout
    base_b = SystemParams(g_ms_tilde=50.1, omega_d=0.01, scenario="B")
    for quantity in ("g2_analytic", "both_g2"):
        with pytest.raises(ParameterError, match=f"quantity '{quantity}' is defined for scenario A only"):
            SweepSpec(base=base_b, axis1=ax, quantity=quantity)


@pytest.mark.parametrize("base, axis2, rules", [
    (SystemParams(g_ms=19.6, omega_d=0.01, n_th=0.5), None, ()),
    (SystemParams(g_ms=19.6, omega_d=0.01), SweepAxis("n_th", [0.0, 0.5]), ()),
    (SystemParams(g_ms=19.6, omega_d=0.01), None, ("n_th = 0",)),
], ids=["base", "axis", "rule"])
@pytest.mark.parametrize("quantity", ["g2_analytic", "both_g2"])
def test_spec_rejects_thermal_closed_form(base, axis2, rules, quantity):
    # the closed form has no thermal bath, so no cell of its grid may carry one
    with pytest.raises(ParameterError) as info:
        SweepSpec(base=base, axis1=SweepAxis("delta", [1.0, 2.0]), axis2=axis2, quantity=quantity,
                  constraints=rules)
    assert f"quantity {quantity!r} has no thermal bath" in str(info.value)
    # the master equation models the bath, and the closed form ignores fock_dim
    SweepSpec(base=base, axis1=SweepAxis("delta", [1.0, 2.0]), axis2=axis2, constraints=rules)
    SweepSpec(base=base.replace(n_th=0.0, fock_dim=2), axis1=SweepAxis("delta", [1.0]), quantity=quantity)


@pytest.mark.parametrize("axis2, rules, message", [
    # a rule on an axis field would overwrite the axis, so its column would list
    # values that were never computed
    (None, ("delta = g_ms/2",),
     "field 'delta_m' is set by both axis 'delta' and constraint 'delta = g_ms/2'"),
    (None, ("delta_s = delta_m*1",),
     "field 'delta_s' is set by both axis 'delta' and constraint 'delta_s = delta_m*1'"),
    (SweepAxis("delta_s", [1.0, 2.0]), (),
     "field 'delta_s' is set by both axis 'delta' and axis 'delta_s'"),
    (None, ("kappa = 0.2", "kappa_s = 0.1"),
     "field 'kappa_s' is set by both constraint 'kappa = 0.2' and constraint 'kappa_s = 0.1'"),
    (None, ("omega_d = omega_s*0.5", "omega_d = 0.1"),
     "field 'omega_d' is set by both constraint 'omega_d = omega_s*0.5' and constraint 'omega_d = 0.1'"),
], ids=["rule_on_axis", "rule_on_axis_part", "two_axes", "rule_on_rule_part", "two_rules"])
def test_spec_rejects_two_setters_of_one_field(axis2, rules, message):
    base = SystemParams(g_ms=19.6, omega_s=0.06, omega_d=0.01)
    with pytest.raises(ParameterError) as info:
        SweepSpec(base=base, axis1=SweepAxis("delta", [1.0, 2.0]), axis2=axis2, constraints=rules)
    assert str(info.value) == message


@pytest.mark.parametrize("rules, message", [
    # applied in list order, the first rule would read the base omega_s, not 0.1
    (("omega_d = omega_s*0.5", "omega_s = 0.1"),
     "constraint 'omega_d = omega_s*0.5' reads 'omega_s', which constraint 'omega_s = 0.1' sets"),
    (("omega_s = 0.1", "omega_d = omega_s*0.5"),
     "constraint 'omega_d = omega_s*0.5' reads 'omega_s', which constraint 'omega_s = 0.1' sets"),
    (("kappa = 0.2", "omega_d = kappa_s*0.1"),
     "constraint 'omega_d = kappa_s*0.1' reads 'kappa_s', which constraint 'kappa = 0.2' sets"),
], ids=["source_set_later", "source_set_earlier", "source_set_by_alias"])
def test_spec_rejects_rule_reading_a_rule_target(rules, message):
    base = SystemParams(g_ms=19.6, omega_s=0.06, omega_d=0.01)
    with pytest.raises(ParameterError) as info:
        SweepSpec(base=base, axis1=SweepAxis("delta", [1.0]), constraints=rules)
    assert str(info.value) == message
    # a rule may read its own target: it sees the axis or base value
    spec = SweepSpec(base=base, axis1=SweepAxis("delta", [1.0]), constraints="omega_s = omega_s*2")
    assert spec.params_at(0).omega_s == 0.12


def test_spec_shape_and_columns():
    base = SystemParams(g_ms=19.6, omega_s=0.06, omega_d=0.01)
    ax1 = SweepAxis.linspace("delta", -1.0, 1.0, 5)
    ax2 = SweepAxis("omega_d", [0.004, 0.01, 0.012])
    spec = SweepSpec(base=base, axis1=ax1, axis2=ax2, quantity="both_g2")
    assert spec.shape == (5, 3)
    assert spec.column_names() == ("g2_numeric", "g2_analytic")
    spec1 = SweepSpec(base=base, axis1=ax1, quantity="populations")
    assert spec1.shape == (5, 1)
    assert spec1.column_names() == ("p0", "p1", "p2", "p3")
    # a single string constraint is normalized to a tuple
    spec2 = SweepSpec(base=base, axis1=ax1, constraints="omega_d = omega_s*0.5")
    assert spec2.constraints == ("omega_d = omega_s*0.5",)


def test_spec_params_at_applies_axes_and_constraints():
    base = SystemParams(omega_d=0.01, kappa_m=0.3, kappa_s=0.3)
    spec = SweepSpec(
        base=base,
        axis1=SweepAxis("g_ms", [10.0, 20.0]),
        axis2=SweepAxis("kappa", [0.1, 1.0]),
        constraints=("delta = g_ms/2",),
    )
    p = spec.params_at(1, 0)
    assert p.g_ms == 20.0
    assert p.delta_m == 10.0 and p.delta_s == 10.0
    assert p.kappa_m == 0.1 and p.kappa_s == 0.1
    assert p.omega_d == 0.01  # untouched base field


# -------------------------------------------------------------- execution

def test_single_point_matches_direct_call(broad_params):
    spec = SweepSpec(base=broad_params,
                     axis1=SweepAxis("delta", [9.8]),
                     quantity="g2_numeric")
    grid = run_sweep(spec)
    s = broad_params.space()
    rho = steady_state(build_liouvillian(broad_params))
    assert grid.values.shape == (1, 1)
    assert grid.values[0, 0] == g2_zero(rho, s)
    assert grid.failures == []


def test_sweep_rerun_deterministic(broad_params):
    # base has no qubit drive, so the omega_d = 0 column is dark and the
    # per-cell failure path is exercised too
    spec = SweepSpec(
        base=broad_params.replace(omega_s=0.0),
        axis1=SweepAxis("delta", [-9.8, 0.0, 9.8]),
        axis2=SweepAxis("omega_d", [0.0, 0.01]),
        quantity="both_g2",
    )
    a = run_sweep(spec)
    b = run_sweep(spec)
    for col in spec.column_names():
        assert np.array_equal(a.planes[col], b.planes[col], equal_nan=True)
    assert a.failures == b.failures
    assert [idx for idx, _ in a.failures] == [(0, 0), (1, 0), (2, 0)]
    for col in spec.column_names():
        assert np.all(np.isnan(a.planes[col][:, 0]))
        assert np.all(np.isfinite(a.planes[col][:, 1]))


def test_sweep_routes_agree_on_grid(broad_params):
    spec = SweepSpec(base=broad_params,
                     axis1=SweepAxis("delta", [3.0, 9.8]),
                     quantity="both_g2")
    grid = run_sweep(spec)
    num = grid.planes["g2_numeric"]
    ana = grid.planes["g2_analytic"]
    assert np.all(np.abs(np.log10(num) - np.log10(ana)) < 0.2)


def _per_cell(spec):
    """The grid cell by cell through evaluate_point: values and failure tags."""
    n1, n2 = spec.shape
    planes = {name: np.full((n1, n2), np.nan) for name in spec.column_names()}
    failures = []
    for i in range(n1):
        for j in range(n2):
            try:
                values = evaluate_point(spec.params_at(i, j), spec.quantity)
            except (ParameterError, NumericalError) as exc:
                failures.append(((i, j), f"{type(exc).__name__}: {str(exc)[:160]}"))
                continue
            for name, value in values.items():
                planes[name][i, j] = value
    return planes, failures


def test_dip_tracked_closed_form_grid_equals_single_points():
    # more cells than one array block, so the blocks' seams are crossed too
    rng = np.random.default_rng(7)
    spec = SweepSpec(base=SystemParams(omega_s=rng.uniform(0.05, 0.07), omega_d=rng.uniform(0.009, 0.011)),
                     axis1=SweepAxis("g_ms", np.sort(rng.uniform(0.5, 30.0, 70))),
                     axis2=SweepAxis("kappa", np.sort(rng.uniform(0.05, 1.5, 45))),
                     quantity="g2_analytic", constraints=("delta = g_ms/2",))
    grid = run_sweep(spec)
    assert grid.failures == []
    n1, n2 = spec.shape
    for i in range(n1):
        for j in range(n2):
            assert grid.values[i, j] == analytic_g2(spec.params_at(i, j)), (i, j)


def test_both_routes_grid_equals_single_points(broad_params):
    spec = SweepSpec(base=broad_params, axis1=SweepAxis.linspace("delta", -12.0, 12.0, 5),
                     axis2=SweepAxis("omega_d", [0.004, 0.012]), quantity="both_g2")
    grid = run_sweep(spec)
    planes, failures = _per_cell(spec)
    assert grid.failures == failures == []
    for name in spec.column_names():
        assert np.array_equal(grid.planes[name], planes[name]), name


@pytest.mark.parametrize("quantity", ["g2_analytic", "both_g2"])
def test_closed_form_grid_fails_cells_like_single_points(quantity):
    # omega_d = 0 is a dark column (no drive at all), and the rule makes kappa
    # negative for delta > 0; both failure kinds must keep their order and tags
    spec = SweepSpec(base=SystemParams(g_ms=19.6),
                     axis1=SweepAxis.linspace("delta", -2.0, 2.0, 4),
                     axis2=SweepAxis("omega_d", [0.0, 0.01]),
                     quantity=quantity, constraints=("kappa = delta_m*-0.1",))
    grid = run_sweep(spec)
    planes, failures = _per_cell(spec)
    assert grid.failures == failures
    assert [idx for idx, _ in failures] == [(0, 0), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1)]
    for (i, j), tag in failures:
        assert tag.startswith("ParameterError: kappa_m must be >= 0" if i >= 2 else "NumericalError:"), tag
    for name in spec.column_names():
        assert np.array_equal(grid.planes[name], planes[name], equal_nan=True), name


def test_both_g2_failure_tags_are_pinned():
    # a negative rate fails validation, zero rates a singular solve, and a drive
    # of 1e200 an overflowing residual; each cell keeps the first error raised.
    # A tag states the rule and its bound, never a number that rounding moves,
    # so these bytes hold at every BLAS thread count
    spec = SweepSpec(base=SystemParams(delta_m=9.8, delta_s=9.8, g_ms=19.6, omega_s=0.06),
                     axis1=SweepAxis("omega_d", [0.0, 0.001, 1e200]),
                     axis2=SweepAxis("kappa", [-0.1, 0.0, 0.15]), quantity="both_g2")
    invalid = "ParameterError: kappa_m must be >= 0, got -0.1"
    singular = "NumericalError: steady state is degenerate or undefined: Singular matrix"
    assert run_sweep(spec).failures == [
        ((0, 0), invalid), ((0, 1), singular),
        ((1, 0), invalid), ((1, 1), singular),
        ((2, 0), invalid), ((2, 1), singular),
        ((2, 2), "NumericalError: steady-state residual exceeds 1e-10"),
    ]


def test_evaluate_point_populations(broad_params):
    out = evaluate_point(broad_params, "populations")
    assert set(out) == {"p0", "p1", "p2", "p3"}
    assert out["p0"] > 0.9
    assert sum(out.values()) == pytest.approx(1.0, abs=1e-6)


def test_evaluate_point_rejects_dark_state():
    p = SystemParams(delta_m=2.0, delta_s=2.0, g_ms=4.0)
    with pytest.raises(NumericalError):
        evaluate_point(p, "g2_numeric")


def test_generator_workspace_carries_nothing_between_points(broad_params):
    # two scenarios at two truncations, so cells alternately reuse and switch
    # buffers; the dark cell fails after its generator was written
    bright_b = SystemParams(delta_m=2.0, delta_s=2.0, g_ms_tilde=4.0, omega_d=0.01,
                            kappa_m=1.0, kappa_s=0.5, scenario="B")
    points = [broad_params, bright_b, broad_params.replace(fock_dim=4, delta_m=-3.0),
              bright_b.replace(fock_dim=4, omega_d=0.02)]
    dark = bright_b.replace(omega_d=0.0)
    want = [g2_zero(steady_state(build_liouvillian(p)), p.space()) for p in points]
    for k in [0, 1, 2, 3, None, 1, 0, 3, None, 2, 0]:
        if k is None:
            with pytest.raises(NumericalError):
                evaluate_point(dark, "g2_numeric")
        else:
            assert evaluate_point(points[k], "g2_numeric")["g2_numeric"] == want[k], k
    # build_liouvillian hands out copies that outlive the buffer's next point
    first, second = build_liouvillian(bright_b), build_liouvillian(bright_b)
    buffer = liouvillian_workspace(bright_b)
    assert np.array_equal(first, buffer) and np.array_equal(second, buffer)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, buffer) and not np.shares_memory(second, buffer)
    first[:] = np.nan
    assert evaluate_point(bright_b, "g2_numeric")["g2_numeric"] == want[1]
    assert np.array_equal(second, liouvillian_workspace(bright_b))


def test_numeric_point_allocates_no_generator(broad_params):
    # after a warm-up a cell writes into its truncation's buffer, so no
    # allocation as large as one D² × D² float64 generator is made
    evaluate_point(broad_params, "g2_numeric")
    d2 = broad_params.space().total_dim ** 2
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        evaluate_point(broad_params, "g2_numeric")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak - before < d2 * d2 * 8, peak - before


# -------------------------------------------------------------- evolution

def test_run_evolution_small(broad_params):
    job = EvolutionJob(base=broad_params, t_end=2.0, num=9)
    series = run_evolution(job)
    assert series.times.shape == (9,)
    assert series.times[0] == 0.0 and series.times[-1] == 2.0
    assert set(series.planes) == {"p0", "p1", "p2", "p3", "g2"}
    assert series.planes["p0"][0] == pytest.approx(1.0)
    assert np.isnan(series.planes["g2"][0])  # vacuum start, no pairs yet
    assert np.all(np.isfinite(series.planes["g2"][1:]))
    total = sum(series.planes[f"p{k}"][-1] for k in range(4))
    assert total == pytest.approx(1.0, abs=1e-4)


def test_run_evolution_matches_per_snapshot_observables():
    # the one vectorised pass over all snapshots against fock_populations/g2_zero per snapshot
    job = figure_preset("fig7")
    series = run_evolution(job)
    space = job.base.space()
    rhos = evolve(build_liouvillian(job.base), projector(space, 0, 0), series.times)
    for t, rho in enumerate(rhos):
        pops = fock_populations(rho, space)
        for k in range(4):
            assert abs(series.planes[f"p{k}"][t] - pops[k]) <= 1e-14 * abs(pops[k])
        try:
            want = g2_zero(rho, space)
        except NumericalError:
            assert np.isnan(series.planes["g2"][t])
            continue
        assert abs(series.planes["g2"][t] - want) <= 1e-14 * want


def test_evolution_job_validation(broad_params):
    with pytest.raises(ParameterError):
        EvolutionJob(base=broad_params, t_end=0.0, num=10)
    with pytest.raises(ParameterError):
        EvolutionJob(base=broad_params, t_end=1.0, num=1)
    with pytest.raises(ParameterError):
        EvolutionJob(base=broad_params, t_end=1.0, num=10.0)


# ---------------------------------------------------------------- presets

def test_preset_names_are_stable():
    assert FIGURE_NAMES == ("fig3a", "fig3b", "fig4a", "fig4b", "fig5a",
                            "fig5b", "fig6a", "fig6b", "fig7", "fig8",
                            "fig9a", "fig9b")


def test_preset_unknown():
    with pytest.raises(ParameterError):
        figure_preset("fig12")


def test_preset_dip_cut():
    spec = figure_preset("fig5a")
    assert isinstance(spec, SweepSpec)
    assert spec.quantity == "both_g2"
    assert spec.axis1.name == "delta"
    assert spec.axis1.count == 201
    assert spec.axis2.name == "omega_d"
    assert spec.axis2.values == (0.004, 0.01, 0.012)
    assert spec.base.kappa_m == 0.15
    assert spec.base.g_ms == 19.6


def test_preset_coupling_map():
    spec = figure_preset("fig3a")
    assert spec.axis1.name == "delta"
    assert spec.axis2.name == "g_ms"
    assert spec.shape == (201, 121)
    assert spec.quantity == "g2_numeric"


def test_preset_tracked_ridge():
    spec = figure_preset("fig4a")
    assert spec.constraints == ("delta = g_ms/2",)
    assert spec.axis2.name == "kappa"


def test_preset_beam_splitter_map():
    spec = figure_preset("fig8")
    assert spec.base.scenario == "B"
    assert spec.base.omega_s == 0.0
    assert spec.axis2.name == "g_ms_tilde"
    assert spec.quantity == "g2_numeric"


def test_preset_power_dependence():
    spec = figure_preset("fig9b")
    assert spec.base.scenario == "B"
    assert spec.base.g_ms_tilde == 50.1
    assert spec.base.delta_m == 25.05
    assert spec.axis1.name == "omega_d"
    # probe powers are log-spaced
    ratios = np.diff(np.log(spec.axis1.as_array()))
    assert np.allclose(ratios, ratios[0])


def test_preset_transient():
    job = figure_preset("fig7")
    assert isinstance(job, EvolutionJob)
    assert job.t_end == 100.0
    assert job.num == 1001
    assert job.base.kappa_m == 0.15


def test_presets_all_construct():
    for name in FIGURE_NAMES:
        assert figure_preset(name) is not None


# ----------------------------------------------------- mirror-dip geometry

def test_dip_pair_straddles_zero(broad_params):
    # two antibunching dips near +-g/2; locations mirror, depths need not
    deltas = np.linspace(-14.0, -6.0, 41)
    left = [evaluate_point(broad_params.replace(delta_m=d, delta_s=d),
                           "g2_numeric")["g2_numeric"] for d in deltas]
    right = [evaluate_point(broad_params.replace(delta_m=-d, delta_s=-d),
                            "g2_numeric")["g2_numeric"] for d in deltas]
    left_best = deltas[int(np.argmin(left))]
    right_best = -deltas[int(np.argmin(right))]
    assert abs(left_best + 9.8) <= 0.5
    assert abs(right_best - 9.8) <= 0.5
