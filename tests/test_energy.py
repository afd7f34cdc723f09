"""Energy phase: beamformers, mean harvest, and the banked-energy fixed point."""

import dataclasses

import numpy as np
import pytest

from wetmm.energy import (RHO_CLAMP, ResourceAllocation, asymptotic_energy, beamformer,
                          clamp_rho, energies, expected_harvested_energy, general_beamformer,
                          harvested_energy_fixedpoint)
from wetmm.estimation import error_variance
from wetmm.montecarlo import operating_point
from wetmm.sysmodel import trial_rng

from conftest import REF_ALPHA, REF_RHO, benchmark_params
from reference import draw_trials

# Banked energies at the reference operating point, pinned by iterating
# E <- Q(rho E) to convergence independently of the closed form.
E_REF = np.array([1.428786890212249e-06, 8.6587631151304678e-06])


def test_allocation_validation():
    xi = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        ResourceAllocation(tau=-0.01, alpha=0.1, rho=0.5, xi=xi)
    with pytest.raises(ValueError):
        ResourceAllocation(tau=0.6, alpha=0.5, rho=0.5, xi=xi)
    with pytest.raises(ValueError):
        ResourceAllocation(tau=0.0, alpha=0.1, rho=1.5, xi=xi)
    with pytest.raises(ValueError):
        ResourceAllocation(tau=0.0, alpha=0.1, rho=0.5, xi=np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        ResourceAllocation(tau=0.0, alpha=0.1, rho=0.5, xi=np.array([-0.1, 1.1]))


def test_allocation_rejects_non_finite():
    xi = np.array([0.5, 0.5])
    for tau, alpha, rho, weights in ((np.nan, 0.1, 0.5, xi), (0.0, np.nan, 0.5, xi),
                                     (0.0, 0.1, np.nan, xi), (0.0, -np.inf, 0.5, xi),
                                     (0.0, 0.1, 0.5, np.array([np.nan, 0.5]))):
        with pytest.raises(ValueError, match="finite"):
            ResourceAllocation(tau=tau, alpha=alpha, rho=rho, xi=weights)


@pytest.mark.parametrize("fields, match", [
    ((-0.01, 0.1, 0.5, [0.5, 0.5]), "time fractions must be nonnegative"),
    ((0.0, -0.1, 0.5, [0.5, 0.5]), "time fractions must be nonnegative"),
    ((0.6, 0.5, 0.5, [0.5, 0.5]), r"tau \+ alpha = 1.1 exceeds the frame"),
    ((0.0, 0.1, 1.5, [0.5, 0.5]), r"rho must lie in \[0, 1\], got 1.5"),
    ((0.0, 0.1, -0.5, [0.5, 0.5]), r"rho must lie in \[0, 1\], got -0.5"),
    ((0.0, 0.1, 0.5, [-0.1, 1.1]), "beam weights must be nonnegative"),
    ((0.0, 0.1, 0.5, [0.7, 0.2]), "beam weights must sum to 1, got 0.8999999999999999"),
    ((0.0, 0.1, 0.5, [0.5, np.inf]), "allocation entries must be finite"),
] + [(tuple(bad if i == j else v for j, v in enumerate((0.0, 0.1, 0.5))) + ([0.5, 0.5],),
      "allocation entries must be finite")
     for i in range(3) for bad in (np.nan, np.inf, -np.inf, np.float64(np.nan))])
def test_allocation_refusals_keep_their_messages(fields, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        ResourceAllocation(*fields)


@pytest.mark.parametrize("system", ["wetmm", "opmm", "ideal"])
@pytest.mark.parametrize("alpha, rho, xi, match", [
    (-0.1, 0.5, [0.5, 0.5], "time fractions must be nonnegative"),
    (0.1, 1.7, [0.5, 0.5], r"rho must lie in \[0, 1\]"),
    (0.1, np.array([[0.5], [-0.1]]), [0.5, 0.5], r"rho must lie in \[0, 1\]"),
    (0.1, 0.5, [1.5, -0.5], "beam weights must be nonnegative"),
])
def test_energies_refuse_out_of_domain(system, alpha, rho, xi, match):
    # each gave energies before the guard: alpha = -0.1 negative ones,
    # rho = 1.7 clamped, xi = (1.5, -0.5) a negative ideal energy; the
    # messages are closed_form_sinr's and ResourceAllocation's
    with pytest.raises(ValueError, match=match):
        energies(benchmark_params(200), system, alpha, rho, np.array(xi))


@pytest.mark.parametrize("system", ["wetmm", "opmm", "ideal"])
def test_energies_pass_nan_and_weights_off_the_simplex(system):
    # the guard adds no sum-to-1 rule, and NaN still propagates
    p = benchmark_params(200)
    assert np.all(energies(p, system, 0.1, 0.5, np.array([0.9, 0.9])) > 0)
    assert np.all(np.isnan(energies(p, system, np.nan, 0.5, np.array([0.5, 0.5]))))


def test_clamp_rho_matches_np_clip_bit_for_bit():
    x = np.array([np.nan, -np.nan, -np.inf, -1.0, -0.0, 0.0, 5e-5, RHO_CLAMP, 0.5,
                  1.0 - RHO_CLAMP, 1.0 - 5e-5, 1.0, 2.0, np.inf])
    want = np.clip(x, RHO_CLAMP, 1.0 - RHO_CLAMP)
    assert clamp_rho(x).tobytes() == want.tobytes()
    assert clamp_rho(x[:, None]).shape == (x.size, 1)
    for v, w in zip(x.tolist(), want):
        assert np.asarray(clamp_rho(v)).tobytes() == w.tobytes()


def test_clamp_rho_endpoints():
    assert clamp_rho(0.0) > 0.0
    assert clamp_rho(1.0) < 1.0
    assert clamp_rho(0.5) == 0.5


def test_beamformer_single_user_unit_norm():
    rng = trial_rng(2)
    g = rng.standard_normal((64, 1)) + 1j * rng.standard_normal((64, 1))
    w = beamformer(g, np.array([1.0]))
    assert np.isclose(np.linalg.norm(w), 1.0, rtol=1e-12)


def test_beamformer_concentrates_on_targeted_user():
    p = benchmark_params(256)
    g_hat = draw_trials(p, 1e-9, 4, [0])[1][0]
    w = beamformer(g_hat, np.array([1.0, 0.0]))
    gains = np.abs(g_hat.conj().T @ w) ** 2
    assert gains[0] > 50 * gains[1]


def test_beamformer_norm_concentrates_large_m():
    # E||w||^2 = 1; the realization concentrates as M grows
    p = benchmark_params(4096)
    g_hat = draw_trials(p, 1e-9, 4, [1])[1][0]
    w = beamformer(g_hat, np.array([0.3, 0.7]))
    assert abs(np.linalg.norm(w) - 1.0) < 0.05


def test_general_beamformer_zero_mass_matches_subspace_beam():
    p = benchmark_params(32)
    g_hat = draw_trials(p, 1e-9, 6, [0])[1][0]
    xi = np.array([0.25, 0.75])
    w_ref = beamformer(g_hat, xi)
    w_gen = general_beamformer(g_hat, xi, np.zeros(30))
    assert np.allclose(w_gen, w_ref, atol=1e-12)


def test_general_beamformer_complement_is_orthogonal():
    p = benchmark_params(32)
    g_hat = draw_trials(p, 1e-9, 6, [1])[1][0]
    theta = np.full(30, 1.0 / 30)
    w = general_beamformer(g_hat, np.zeros(2), theta)
    assert np.isclose(np.linalg.norm(w), 1.0, rtol=1e-10)
    assert np.all(np.abs(g_hat.conj().T @ w) < 1e-10)


def test_general_beamformer_validation():
    p = benchmark_params(8)
    g_hat = draw_trials(p, 1e-9, 6, [2])[1][0]
    with pytest.raises(ValueError):
        # more complement directions than M - K = 6
        general_beamformer(g_hat, np.zeros(2), np.full(7, 1.0 / 7))
    with pytest.raises(ValueError):
        general_beamformer(g_hat, np.array([0.9, 0.2]), np.zeros(6))


def test_expected_harvest_no_pilots_is_isotropic():
    # Zero pilot energy: the estimate is uninformative and beamforming
    # cannot help, so the mean harvest falls back to alpha p beta.
    p = benchmark_params(64)
    q = expected_harvested_energy(0.0, 0.1, np.array([0.5, 0.5]), p.beta,
                                  64, 1.0, 1e-15)
    assert np.allclose(q, 0.1 * 1.0 * p.beta, rtol=1e-12)


def test_expected_harvest_perfect_estimate_limit():
    p = benchmark_params(64)
    xi = np.array([0.2, 0.8])
    q = expected_harvested_energy(1.0, 0.1, xi, p.beta, 64, 1.0, 1e-15)
    assert np.allclose(q, energies(p, "ideal", 0.1, 0.5, xi), rtol=1e-6)


def test_fixedpoint_reference_values(params200, xi_star):
    e = harvested_energy_fixedpoint(REF_ALPHA, REF_RHO, xi_star, params200.beta,
                                    200, 1.0, 1e-15)
    assert np.allclose(e, E_REF, rtol=1e-12)
    # the far user banks more: the 1/beta^2 weights overcompensate path loss
    assert e[1] > e[0]


def test_fixedpoint_satisfies_selfconsistency(params200, xi_star):
    e = harvested_energy_fixedpoint(REF_ALPHA, REF_RHO, xi_star, params200.beta,
                                    200, 1.0, 1e-15)
    q = expected_harvested_energy(REF_RHO * e, REF_ALPHA, xi_star, params200.beta,
                                  200, 1.0, 1e-15)
    assert np.allclose(e, q, rtol=1e-12)


def test_fixedpoint_randomized_selfconsistency():
    """E = Q(rho E) must hold to 1e-9 relative across the parameter space."""
    rng = trial_rng(20260821)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(2, 1025))
        alpha = float(10 ** rng.uniform(-3, np.log10(0.5)))
        rho = float(rng.uniform(0.01, 0.99))
        beta = 10 ** rng.uniform(-8, -3, size=k)
        xi = rng.dirichlet(np.ones(k))
        p_dl = float(10 ** rng.uniform(-2, 1))
        s2 = float(10 ** rng.uniform(-16, -12))
        e = harvested_energy_fixedpoint(alpha, rho, xi, beta, m, p_dl, s2)
        q = expected_harvested_energy(rho * e, alpha, xi, beta, m, p_dl, s2)
        worst = max(worst, float(np.max(np.abs(e - q) / e)))
    assert worst <= 1e-9, f"worst relative identity error {worst:.3e}"


def test_fixedpoint_validation(xi_star, params200):
    with pytest.raises(ValueError):
        harvested_energy_fixedpoint(0.0, 0.5, xi_star, params200.beta, 200, 1.0, 1e-15)
    with pytest.raises(ValueError):
        harvested_energy_fixedpoint(0.1, 1.0, xi_star, params200.beta, 200, 1.0, 1e-15)


def test_error_variance_split_consistency(params200, ref_alloc, xi_star):
    # the error variance at pilot energy rho E, E the steady-state fixed point
    e = harvested_energy_fixedpoint(REF_ALPHA, REF_RHO, xi_star, params200.beta,
                                    200, 1.0, 1e-15)
    _, _, _, v = operating_point(params200, ref_alloc, "wetmm")
    assert np.allclose(v, error_variance(params200.beta, REF_RHO * e, 1e-15),
                       rtol=1e-12)


def test_uplink_power(params200, xi_star):
    # data-phase power: all unspent energy over the data duration
    alloc = ResourceAllocation(tau=0.1, alpha=0.3, rho=0.25, xi=xi_star)
    e, _, powers, _ = operating_point(params200, alloc, "wetmm")
    assert np.allclose(powers, 0.75 * e / 0.6, rtol=1e-14)
    with pytest.raises(ValueError):
        operating_point(params200, ResourceAllocation(0.5, 0.5, 0.25, xi_star), "wetmm")


def test_benchmark_energy_formulas(params200):
    beta = params200.beta
    xi = np.array([0.5, 0.5])
    p2 = dataclasses.replace(params200, p_dl=2.0)
    assert np.allclose(energies(p2, "ideal", 0.1, 0.5, xi),
                       0.1 * 2.0 * beta * (0.5 * 199 + 1.0), rtol=1e-14)
    assert np.allclose(energies(p2, "opmm", 0.1, 0.5, xi), 0.2 * beta, rtol=1e-14)
    assert np.allclose(asymptotic_energy(0.1, xi, beta, 200, 2.0),
                       0.1 * 2.0 * beta * 0.5 * 200, rtol=1e-14)


def test_asymptotic_energy_is_the_large_m_limit(xi_star):
    # needs both M >> sigma^2/(alpha p rho beta^2 xi) and xi M >> 1
    m = 10_000_000
    p = benchmark_params(3)  # beta only
    e = harvested_energy_fixedpoint(0.1, 0.5, xi_star, p.beta, m, 1.0, 1e-15)
    assert np.allclose(e, asymptotic_energy(0.1, xi_star, p.beta, m, 1.0), rtol=1e-3)


def test_energy_report_consistency(params200, ref_alloc):
    # the steady-state operating point the Monte Carlo runs at
    e, pilot_energy, powers, error_var = operating_point(params200, ref_alloc, "wetmm")
    assert np.allclose(e, E_REF, rtol=1e-12)
    assert np.allclose(pilot_energy, ref_alloc.rho * e, rtol=1e-14)
    assert np.allclose(powers,
                       (1.0 - ref_alloc.rho) * e / (1.0 - ref_alloc.tau - ref_alloc.alpha),
                       rtol=1e-14)
    assert np.allclose(error_var,
                       error_variance(params200.beta, pilot_energy, 1e-15),
                       rtol=1e-12)
