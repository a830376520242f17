"""Property tests of the Liouvillian and its steady state over random valid parameters."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouvillian_reference import dense_steady_coordinates, in_coordinates, reference_build, trace_drift
from mbl import lindblad
from mbl.analytic import analytic_g2
from mbl.errors import NumericalError
from mbl.lindblad import (build_liouvillian, fock_populations, g2_from_populations, g2_zero, steady_coordinates,
                          steady_state, unvectorize, vectorize)
from mbl.model import SystemParams


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def system_params(draw):
    """Valid parameters of either scenario; both decay rates >= 0.01 keep the steady state unique.

    Only scenario A has a thermal bath, so n_th is drawn for it alone.
    """
    scenario = draw(st.sampled_from(("A", "B")))
    kw = dict(scenario=scenario, fock_dim=draw(st.integers(2, 6)),
              delta_m=draw(_real(-30.0, 30.0)), delta_s=draw(_real(-30.0, 30.0)),
              omega_d=draw(_real(0.0, 1.0)), kappa_m=draw(_real(0.01, 5.0)),
              kappa_s=draw(_real(0.01, 5.0)))
    if scenario == "A":
        kw.update(g_ms=draw(_real(0.0, 60.0)), omega_s=draw(_real(0.0, 1.0)), n_th=draw(_real(0.0, 2.0)))
    else:
        kw.update(g_ms_tilde=draw(_real(0.0, 60.0)))
    return SystemParams(**kw)


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


@PROPERTY_SETTINGS
@given(system_params())
def test_liouvillian_preserves_trace_property(p):
    # trace(unvectorize(L v)) = 0 for every real v, checked on the coordinate basis
    liouv = build_liouvillian(p)
    assert trace_drift(liouv, p.space().total_dim) <= 1e-12 * np.max(np.abs(liouv))


@PROPERTY_SETTINGS
@given(system_params(), st.integers(0, 2**32 - 1))
def test_liouvillian_preserves_hermiticity_property(p, seed):
    liouv = build_liouvillian(p)
    d = p.space().total_dim
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a + a.conj().T
    drho = unvectorize(liouv @ vectorize(rho), d)
    bound = 1e-12 * np.max(np.abs(liouv)) * np.max(np.abs(rho))
    assert np.max(np.abs(drho - drho.conj().T)) <= bound


@PROPERTY_SETTINGS
@given(system_params())
def test_liouvillian_matches_reference_build_property(p):
    d = p.space().total_dim
    want = in_coordinates(reference_build(p)[1], d)
    assert np.max(np.abs(build_liouvillian(p) - want)) <= 1e-13 * np.max(np.abs(want))


@PROPERTY_SETTINGS
@given(system_params())
def test_steady_state_is_a_density_matrix_property(p):
    rho = steady_state(build_liouvillian(p))
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-10


@PROPERTY_SETTINGS
@given(system_params())
def test_steady_residual_reads_the_whole_of_drho_property(p):
    # the residual reads dρ/dt's diagonal and lower entries only; it equals the max over all of them, bit for bit
    liouv = build_liouvillian(p)
    x, residual = steady_coordinates(liouv)
    assert residual == np.max(np.abs(unvectorize(liouv @ x, p.space().total_dim)))


# 4.3e-13 was the worst of 11,000 sampled draws
BAND_GAP_BOUND = 1e-11


@PROPERTY_SETTINGS
@given(system_params())
def test_band_solve_matches_the_dense_lu_property(p):
    # with both rates positive the band LU passes every check: numpy's dense solve is never called
    if lindblad._openblas().dgbsv is None:
        pytest.skip("numpy's LAPACK exports no dgbsv")
    liouv = build_liouvillian(p)
    want = dense_steady_coordinates(liouv)
    with mock.patch.object(np.linalg, "solve", side_effect=AssertionError("the dense LU ran")):
        x, _ = steady_coordinates(liouv)
    assert np.max(np.abs(x - want)) <= BAND_GAP_BOUND * np.max(np.abs(want))


@PROPERTY_SETTINGS
@given(system_params())
def test_g2_zero_is_the_population_rule_property(p):
    # g2_zero gives the bits of g2_from_populations on a stack of one state, and raises exactly where that is NaN
    rho, space = steady_state(build_liouvillian(p)), p.space()
    want = float(g2_from_populations(fock_populations(rho[np.newaxis], space))[0])
    if np.isnan(want):
        with pytest.raises(NumericalError, match="g2 is undefined"):
            g2_zero(rho, space)
    else:
        assert g2_zero(rho, space).hex() == want.hex()


def _analytic_outcome(p):
    """The bits of `analytic_g2` at `p`, or the message of the NumericalError it raises."""
    try:
        return analytic_g2(p).hex()
    except NumericalError as exc:
        return str(exc)


@PROPERTY_SETTINGS
@given(system_params().filter(lambda p: p.scenario == "B"))
def test_scenario_b_closed_form_is_scenario_a_relabelled_property(p):
    # scenario B is scenario A at omega_s = 0 with g_ms = g_ms_tilde, so the closed form gives the same bits
    relabelled = p.replace(scenario="A", g_ms=p.g_ms_tilde, g_ms_tilde=0.0)
    assert _analytic_outcome(p) == _analytic_outcome(relabelled)
