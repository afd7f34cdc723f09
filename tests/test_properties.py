"""Property tests over random scenarios."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wetmm.energy import ResourceAllocation
from wetmm.rates import closed_form_rate
from wetmm.sysmodel import SystemParams

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                             database=None)


@st.composite
def scenarios(draw):
    """Scenario and allocation with users 2-30 m from the array (cubic path loss)."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(k + 1, 1024))
    dist = np.array(draw(st.lists(st.floats(2.0, 30.0), min_size=k, max_size=k)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    params = SystemParams(M=m, K=k, p_dl=draw(st.floats(0.5, 5.0)),
                          sigma2_ul=10.0 ** draw(st.floats(-16.0, -14.0)),
                          beta=1e-3 * dist ** -3.0)
    alpha = draw(st.floats(0.01, 0.5))
    rho = draw(st.floats(0.01, 0.99))
    return params, alpha, rho, weights / weights.sum()


@PROPERTY_SETTINGS
@given(scenarios(), st.floats(0.0, 0.4), st.floats(1e-3, 0.09),
       st.sampled_from(["wetmm", "opmm"]), st.sampled_from(["zf", "mrc"]))
def test_rates_strictly_decrease_in_tau(scenario, tau, dtau, system, detector):
    """At fixed (alpha, rho, xi) every per-user rate falls as tau grows, which
    is why the allocation search fixes tau = 0."""
    params, alpha, rho, xi = scenario
    lo = ResourceAllocation(tau=tau, alpha=alpha, rho=rho, xi=xi)
    hi = ResourceAllocation(tau=tau + dtau, alpha=alpha, rho=rho, xi=xi)
    r_lo = closed_form_rate(params, lo, system, detector).rate
    r_hi = closed_form_rate(params, hi, system, detector).rate
    assert np.all(r_hi < r_lo), (r_lo, r_hi)
