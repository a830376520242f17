"""Property tests of the Liouvillian and its steady state over random valid parameters."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liouvillian_reference import in_coordinates, reference_build, trace_drift
from mbl.lindblad import build_liouvillian, steady_state, unvectorize, vectorize
from mbl.model import SystemParams


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def system_params(draw):
    """Valid parameters of either scenario; both decay rates >= 0.01 keep the steady state unique."""
    scenario = draw(st.sampled_from(("A", "B")))
    kw = dict(scenario=scenario, fock_dim=draw(st.integers(2, 6)),
              delta_m=draw(_real(-30.0, 30.0)), delta_s=draw(_real(-30.0, 30.0)),
              omega_d=draw(_real(0.0, 1.0)), kappa_m=draw(_real(0.01, 5.0)),
              kappa_s=draw(_real(0.01, 5.0)), n_th=draw(_real(0.0, 2.0)))
    if scenario == "A":
        kw.update(g_ms=draw(_real(0.0, 60.0)), omega_s=draw(_real(0.0, 1.0)))
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
