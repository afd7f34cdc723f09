"""Property tests over random scenarios."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wetmm.energy import (RHO_CLAMP, ResourceAllocation, clamp_rho, energies,
                          expected_harvested_energy)
from wetmm.estimation import draw_trials
from wetmm.rates import closed_form_rate
from wetmm.sysmodel import SystemParams, _pcg64_states, trial_rng

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
    r_lo = closed_form_rate(params, lo, system, detector)
    r_hi = closed_form_rate(params, hi, system, detector)
    assert np.all(r_hi < r_lo), (r_lo, r_hi)


@st.composite
def fixed_point_boxes(draw):
    """Scenario, alpha in (0, 1), rho in (0, 1) with extra draws inside both
    clamp margins, and xi.  Each user's path loss sits 10^[-3, 3] times the
    value where g = alpha p beta (xi (M-1) + 1) - sigma2 / (beta rho) changes
    sign, so both roots of the fixed point are reached."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(2, 1024))
    p_dl = 10.0 ** draw(st.floats(-2.0, 1.0))
    s2 = 10.0 ** draw(st.floats(-16.0, -12.0))
    alpha = draw(st.floats(1e-9, 1.0, exclude_max=True))
    rho = draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         st.floats(0.0, 2 * RHO_CLAMP, exclude_min=True),
                         st.floats(1.0 - 2 * RHO_CLAMP, 1.0, exclude_max=True)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    xi = weights / weights.sum()
    g_zero = np.sqrt(s2 / (alpha * p_dl * clamp_rho(rho) * (xi * (m - 1) + 1.0)))
    scale = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k)))
    params = SystemParams(M=m, K=k, p_dl=p_dl, sigma2_ul=s2, beta=g_zero * scale)
    return params, alpha, rho, xi


@PROPERTY_SETTINGS
@given(fixed_point_boxes())
def test_fixed_point_identity_over_the_full_box(box):
    """The wetmm energy solves E = Q(clamp_rho(rho) E) on both roots, at the
    clamp and inside it (criterion 5 samples alpha <= 0.5, rho in [0.01, 0.99])."""
    params, alpha, rho, xi = box
    e = energies(params, "wetmm", alpha, rho, xi)
    q = expected_harvested_energy(clamp_rho(rho) * e, alpha, xi, params.beta, params.M,
                                  params.p_dl, params.sigma2_ul)
    assert np.all(np.abs(e - q) <= 1e-9 * e), (e, q)


@st.composite
def knowledge_scenarios(draw):
    """Scenario, per-user pilot energies and a master seed.  Each user's
    pilot SNR beta D / sigma2 lies in 10^[-2, 3], so the error variance runs
    from about beta down to 1e-3 beta."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(2, 64))
    dist = np.array(draw(st.lists(st.floats(2.0, 30.0), min_size=k, max_size=k)))
    params = SystemParams(M=m, K=k, p_dl=1.0, sigma2_ul=10.0 ** draw(st.floats(-16.0, -14.0)),
                          beta=1e-3 * dist ** -3.0)
    snr = 10.0 ** np.array(draw(st.lists(st.floats(-2.0, 3.0), min_size=k, max_size=k)))
    return params, snr * params.sigma2_ul / params.beta, draw(st.integers(0, 2**31))


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(knowledge_scenarios())
def test_statistical_and_pilot_knowledge_agree_in_distribution(scenario):
    """The "statistical" and "pilot" paths of draw_trials give the same
    per-user error variance E|g_hat - g|^2 and estimate variance E|g_hat|^2.

    Each path draws 4096 // M trials (about 4096 entries per user) from its
    own master seed.  For each user and each of the two statistics, the
    two-sample z-score of the means, with standard errors from the sample
    variances, must satisfy |z| < 5.  Over 100 examples of up to 4 users
    that is at most 800 comparisons; a normal tail beyond 5 has probability
    5.7e-7, so a false failure has probability below 5e-4.
    """
    params, energy, seed = scenario
    trials = range(4096 // params.M)
    stats = []
    for method, master_seed in (("statistical", seed), ("pilot", seed + 1)):
        g, g_hat = draw_trials(params, energy, master_seed, trials, method=method)
        stats.append([np.abs(x) ** 2 for x in (g_hat - g, g_hat)])
    n = len(trials) * params.M
    for a, b in zip(*stats):
        se = np.sqrt((a.var(axis=(0, 1)) + b.var(axis=(0, 1))) / n)
        z = (a.mean(axis=(0, 1)) - b.mean(axis=(0, 1))) / se
        assert np.all(np.abs(z) < 5.0), z


@PROPERTY_SETTINGS
@given(st.integers(0, 2 ** 256 - 1), st.integers(0, 2 ** 40 - 1), st.integers(0, 2 ** 33 - 1))
def test_fast_stream_state_equals_trial_rng(master_seed, trial, salt):
    """The per-trial PCG64 state draw_trials sets is trial_rng's, seeds of
    more than 4 words and multi-word trials and salts included."""
    want = trial_rng(master_seed, trial, salt).bit_generator.state["state"]
    assert _pcg64_states(master_seed, [trial], salt) == [want]


@PROPERTY_SETTINGS
@given(st.integers(0, 2 ** 256 - 1), st.lists(st.integers(0, 2 ** 32 - 1), max_size=12),
       st.integers(0, 2 ** 32 - 1))
def test_vector_stream_states_equal_scalar_states(master_seed, trials, salt):
    """draw_trials' per-call states, mixed in numpy lanes, are trial_rng's."""
    trials = trials + [0, 2 ** 32 - 1]
    assert _pcg64_states(master_seed, trials, salt) == [
        trial_rng(master_seed, t, salt).bit_generator.state["state"] for t in trials]
