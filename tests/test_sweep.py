"""Grid machinery: axes, constraints, execution, minima, presets."""
import numpy as np
import pytest

from mbl.errors import NumericalError, ParameterError
from mbl.lindblad import build_liouvillian, g2_zero, steady_state
from mbl.model import SystemParams
from mbl.sweep import (AXIS_ALIASES, FIGURE_NAMES, Constraint, EvolutionJob,
                       SweepAxis, SweepSpec, evaluate_point, figure_preset,
                       find_minimum, run_evolution, run_sweep)


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
    with pytest.raises(ParameterError):
        SweepSpec(base=base_b, axis1=ax, quantity="g2_analytic")
    with pytest.raises(ParameterError):
        SweepSpec(base=base_b, axis1=ax, quantity="both_g2")


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


def test_evaluate_point_populations(broad_params):
    out = evaluate_point(broad_params, "populations")
    assert set(out) == {"p0", "p1", "p2", "p3"}
    assert out["p0"] > 0.9
    assert sum(out.values()) == pytest.approx(1.0, abs=1e-6)


def test_evaluate_point_rejects_dark_state():
    p = SystemParams(delta_m=2.0, delta_s=2.0, g_ms=4.0)
    with pytest.raises(NumericalError):
        evaluate_point(p, "g2_numeric")


# ----------------------------------------------------------------- minima

def _tiny_grid(values, quantity="g2_numeric"):
    from mbl.sweep import ResultGrid
    vals = np.asarray(values, dtype=float)
    spec = SweepSpec(
        base=SystemParams(g_ms=19.6, omega_s=0.06, omega_d=0.01),
        axis1=SweepAxis("delta", list(range(1, vals.shape[0] + 1))),
        axis2=SweepAxis("omega_d", list(np.arange(vals.shape[1]) + 0.001)),
        quantity=quantity,
    )
    return ResultGrid(spec=spec, planes={quantity: vals})


def test_find_minimum():
    grid = _tiny_grid([[3.0, 2.0], [1.0, 5.0]])
    best = find_minimum(grid)
    assert best.index == (1, 0)
    assert best.value == 1.0
    assert best.coords == (2.0, 0.001)


def test_find_minimum_skips_nan_and_breaks_ties_in_order():
    grid = _tiny_grid([[np.nan, 2.0], [2.0, 7.0]])
    best = find_minimum(grid)
    assert best.index == (0, 1)  # first in row-major order among the tie


def test_find_minimum_errors():
    grid = _tiny_grid([[np.nan, np.nan]])
    with pytest.raises(NumericalError):
        find_minimum(grid)
    with pytest.raises(ParameterError):
        find_minimum(_tiny_grid([[1.0, 2.0]]), column="bogus")


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
