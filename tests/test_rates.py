"""Closed-form rate expressions against naive scalar reference loops and
pinned benchmark values."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from wetmm.energy import ResourceAllocation, energies, harvested_energy_fixedpoint
from wetmm.rates import (_fold_users, _sinr, asymptotic_mrc_rate, asymptotic_zf_rate, c1_limit,
                         c1_sample, closed_form_rate, closed_form_sinr, ideal_asymptotic_rate,
                         large_k_rate, maxmin_asymptotic_rate, mm_dorg, user_load_for_rate)
from wetmm.sysmodel import SystemParams, trial_rng

from conftest import benchmark_params

# Rates at the reference operating point (M=200), pinned from a scalar
# transliteration of the SINR formulas cross-checked by Monte Carlo.
ZF_REF = np.array([16.327395416392356, 15.960413355367074])
MRC_REF = np.array([7.3637659244740536, 6.6338756778520533])
ASYM_ZF_REF = 15.96096018015258
MAXMIN_ZF_REF = 21.109816447362626
C1_LIMIT_REF = 846473142857.143


def zf_sinr_ref(E, beta, tau, alpha, rho, M, s2):
    """Scalar loop reference for the ZF effective SINR."""
    K = len(beta)
    rem = 1.0 - tau - alpha
    load = sum(beta[i] * E[i] / (beta[i] * rho * E[i] + s2) for i in range(K))
    out = np.zeros(K)
    for k in range(K):
        if E[k] <= 0:
            continue
        num = (M - K) * beta[k] ** 2 * rho * E[k]
        den = s2 * (beta[k] * rho + s2 / E[k]) * (rem / (1.0 - rho) + load)
        out[k] = num / den
    return out


def mrc_sinr_ref(E, beta, tau, alpha, rho, M, s2):
    """Scalar loop reference for the MRC effective SINR."""
    K = len(beta)
    rem = 1.0 - tau - alpha
    out = np.zeros(K)
    for k in range(K):
        if E[k] <= 0:
            continue
        interf = sum(beta[i] * E[i] for i in range(K) if i != k)
        num = (M - 1) * beta[k] ** 2 * rho * E[k]
        den = (beta[k] * rho + s2 / E[k]) * (s2 * rem / (1.0 - rho) + interf) \
            + beta[k] * s2
        out[k] = num / den
    return out


def sinr_at(detector, E, beta, tau, alpha, rho, M, s2):
    """The SINR kernel ``_sinr`` at one point of arbitrary energies ``E``:
    a 1-D E or beta is the same array users-first and users-last."""
    beta = np.asarray(beta, dtype=float)
    return _sinr(detector, M, len(beta), beta, s2, E, E, rho, rho, 1.0 - tau - alpha)


def test_sinr_cores_match_reference_loops():
    rng = trial_rng(17)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(k + 1, 300))
        beta = 10 ** rng.uniform(-8, -4, size=k)
        e = 10 ** rng.uniform(-9, -4, size=k)
        tau = float(rng.uniform(0, 0.1))
        alpha = float(rng.uniform(0.01, 0.3))
        rho = float(rng.uniform(0.05, 0.95))
        s2 = 1e-15
        assert np.allclose(sinr_at("zf", e, beta, tau, alpha, rho, m, s2),
                           zf_sinr_ref(e, beta, tau, alpha, rho, m, s2), rtol=1e-12)
        assert np.allclose(sinr_at("mrc", e, beta, tau, alpha, rho, m, s2),
                           mrc_sinr_ref(e, beta, tau, alpha, rho, m, s2), rtol=1e-12)


@pytest.mark.parametrize("k", range(1, 10))
def test_user_folds_match_numpy_reductions(k):
    """The elementwise folds the SINR kernels and the search use equal numpy's
    reductions over the user axis: bit for bit on finite data (the sum for
    K <= 7; numpy sums 8 or more terms pairwise), and as values with signed
    zeros, infinities and NaNs, where only the sign of a zero may differ."""
    rng = trial_rng(11, k)
    x = rng.standard_normal((6, 5, k)) * 10.0 ** rng.integers(-12, 12, (6, 5, k))
    inputs = [x, x[:, ::-1].transpose(1, 0, 2), np.broadcast_to(x[0], (4, 5, k)),
              x[:, :1, :] * rng.uniform(0.5, 2.0, (7, 1))]
    special = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0], size=(400, k))
    for x in inputs:
        pairs = [(_fold_users(np.minimum, np.moveaxis(x, -1, 0)), x.min(axis=-1))]
        if k <= 7:
            pairs.append((_fold_users(np.add, np.moveaxis(x, -1, 0))[..., None],
                          np.sum(x, axis=-1, keepdims=True)))
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    with np.errstate(invalid="ignore"):  # inf - inf
        for ufunc, reduce in ((np.add, np.sum), (np.minimum, np.min)):
            assert np.array_equal(_fold_users(ufunc, special.T), reduce(special, axis=-1),
                                  equal_nan=True)


def test_sinr_zero_energy_gives_zero(params200):
    # E = 0 divides sigma2 by zero inside the kernel: the SINR is 0, with no
    # floating-point warning leaking out
    beta = np.array([1e-6, 1e-7])
    e = np.array([0.0, 1e-6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = sinr_at("zf", e, beta, 0.01, 0.1, 0.5, 50, 1e-15)
        m = sinr_at("mrc", e, beta, 0.01, 0.1, 0.5, 50, 1e-15)
        # alpha = 0 harvests nothing, so every user's E is 0
        dark = [closed_form_sinr(params200, system, detector, 0.0, 0.0, 0.5, np.array([0.5, 0.5]))
                for system in ("wetmm", "opmm", "ideal") for detector in ("zf", "mrc")]
    assert z[0] == 0.0 and m[0] == 0.0
    assert z[1] > 0 and m[1] > 0
    assert np.all(np.isfinite(z)) and np.all(np.isfinite(m))
    assert all(np.array_equal(sinr, [0.0, 0.0]) for sinr in dark), dark


@pytest.mark.parametrize("system", ["wetmm", "opmm", "ideal"])
def test_closed_form_sinr_refuses_zf_below_antenna_floor(system):
    params = SystemParams(M=2, K=2, p_dl=1.0, sigma2_ul=1e-15, beta=np.array([1e-6, 1e-7]))
    with pytest.raises(ValueError, match=r"ZF requires M >= K\+1"):
        closed_form_sinr(params, system, "zf", 0.0, 0.1, 0.5, np.array([0.5, 0.5]))
    assert np.all(closed_form_sinr(params, system, "mrc", 0.0, 0.1, 0.5, np.array([0.5, 0.5])) > 0)


@pytest.mark.parametrize("system, detector, nan_arg",
                         [(s, d, a) for s in ("wetmm", "opmm", "ideal") for d in ("zf", "mrc")
                          for a in ("alpha", "rho", "xi")
                          if (s, a) not in {("opmm", "xi"), ("ideal", "rho")}])
def test_closed_form_sinr_propagates_nan(params200, system, detector, nan_arg):
    # a NaN argument the system uses gives NaN SINRs (for xi, at least the
    # user whose weight is NaN), not the zero of an empty energy or data phase
    args = {"alpha": 0.076, "rho": 0.5965, "xi": np.array([0.5, 0.5])}
    args[nan_arg] = np.array([np.nan, 0.5]) if nan_arg == "xi" else np.nan
    sinr = closed_form_sinr(params200, system, detector, 0.0, args["alpha"], args["rho"],
                            args["xi"])
    assert np.all(np.isnan(sinr[:1] if nan_arg == "xi" else sinr)), sinr


@pytest.mark.parametrize("system", ["wetmm", "opmm", "ideal"])
@pytest.mark.parametrize("tau, rho, xi, match", [
    (-0.5, 0.5, [0.5, 0.5], "time fractions must be nonnegative"),
    (0.0, 1.7, [0.5, 0.5], r"rho must lie in \[0, 1\]"),
    (0.0, 0.5, [1.5, -0.5], "beam weights must be nonnegative and sum to 1"),
    (0.0, np.array([[0.5], [-0.1]]), [0.5, 0.5], r"rho must lie in \[0, 1\]"),
    (0.0, 0.5, [[0.5, 0.5], [0.6, 0.5]], "beam weights must be nonnegative and sum to 1"),
])
def test_closed_form_sinr_refuses_out_of_domain(params200, system, tau, rho, xi, match):
    # each gave SINRs before the guard: tau = -0.5 from a data phase of 1.4,
    # rho = 1.7 clamped, xi = (1.5, -0.5) a negative beam
    with pytest.raises(ValueError, match=match):
        closed_form_sinr(params200, system, "zf", tau, 0.1, rho, np.array(xi))


def test_closed_form_sinr_allows_an_overfull_frame(params200):
    # tau + alpha > 1 stays allowed: rate_map marks those cells NaN
    sinr = closed_form_sinr(params200, "wetmm", "zf", 0.6, np.array([[0.3], [0.5]]), 0.5,
                            np.array([0.5, 0.5]))
    assert sinr.shape == (2, 2)
    assert np.all(np.isfinite(sinr[0]))


def test_reference_point_rates(params200, ref_alloc):
    rates = closed_form_rate(params200, ref_alloc, "wetmm", "zf")
    assert np.allclose(rates, ZF_REF, rtol=1e-10)
    assert np.allclose(closed_form_rate(params200, ref_alloc, "wetmm", "mrc"),
                       MRC_REF, rtol=1e-10)
    assert np.isclose(np.min(rates), ZF_REF.min(), rtol=1e-12)


def test_zero_alpha_zero_rate(params200, xi_star):
    alloc = ResourceAllocation(tau=0.01, alpha=0.0, rho=0.5, xi=xi_star)
    assert np.all(closed_form_rate(params200, alloc, "wetmm", "zf") == 0.0)
    assert np.all(closed_form_rate(params200, alloc, "wetmm", "mrc") == 0.0)


def test_opmm_rates_against_reference(params200, ref_alloc):
    # omnidirectional powering: same SINR cores at E = alpha p beta
    e = ref_alloc.alpha * params200.p_dl * params200.beta
    rem = 1.0 - ref_alloc.tau - ref_alloc.alpha
    want_zf = rem * np.log2(1.0 + zf_sinr_ref(e, params200.beta, ref_alloc.tau,
                                              ref_alloc.alpha, ref_alloc.rho, 200, 1e-15))
    want_mrc = rem * np.log2(1.0 + mrc_sinr_ref(e, params200.beta, ref_alloc.tau,
                                                ref_alloc.alpha, ref_alloc.rho, 200, 1e-15))
    assert np.allclose(closed_form_rate(params200, ref_alloc, "opmm", "zf"),
                       want_zf, rtol=1e-12)
    assert np.allclose(closed_form_rate(params200, ref_alloc, "opmm", "mrc"),
                       want_mrc, rtol=1e-12)


def test_system_ordering_at_reference_point(params200, ref_alloc, xi_star):
    """Perfect knowledge >= wireless-powered >= omnidirectional, per user."""
    wet = closed_form_rate(params200, ref_alloc, "wetmm", "zf")
    opm = closed_form_rate(params200, ref_alloc, "opmm", "zf")
    idl = closed_form_rate(params200, ResourceAllocation(0.0, ref_alloc.alpha, 0.0, xi_star),
                           "ideal", "zf")
    assert np.all(idl >= wet) and np.all(wet >= opm)


def test_ideal_rate_formula(params200, xi_star):
    alpha = 0.076
    rates = closed_form_rate(params200, ResourceAllocation(0.0, alpha, 0.0, xi_star), "ideal", "zf")
    e = alpha * params200.p_dl * params200.beta * (xi_star * 199 + 1.0)
    want = (1.0 - alpha) * np.log2(
        1.0 + e * 198 * params200.beta / ((1.0 - alpha) * 1e-15))
    assert np.allclose(rates, want, rtol=1e-12)
    assert np.isclose(np.min(rates), 18.512076999856536, rtol=1e-12)


def test_asymptotic_zf_matches_pinned_value(params200, ref_alloc):
    rates = asymptotic_zf_rate(params200, ref_alloc)
    assert np.allclose(rates, ASYM_ZF_REF, rtol=1e-10)
    # user index drops out in the limit: both users see the same rate
    assert np.isclose(rates[0], rates[1], rtol=1e-12)


def test_asymptotic_zf_finite_at_rho_one(params200, xi_star):
    alloc = ResourceAllocation(tau=0.0, alpha=0.076, rho=1.0, xi=xi_star)
    assert np.all(np.isfinite(asymptotic_zf_rate(params200, alloc)))


def test_asymptotic_mrc_identity(params200, xi_star):
    # with weights inverse to beta^2 the MRC limit SINR is exactly M - 1
    alloc = ResourceAllocation(tau=0.01, alpha=0.05, rho=0.4, xi=xi_star)
    want = (1.0 - 0.01 - 0.05) * np.log2(200.0)
    assert np.allclose(asymptotic_mrc_rate(params200, alloc), want, rtol=1e-12)


def test_asymptotic_mrc_single_user_unbounded():
    p = SystemParams(M=64, K=1, p_dl=1.0, sigma2_ul=1e-15, beta=np.array([1e-6]))
    alloc = ResourceAllocation(tau=0.0, alpha=0.1, rho=0.5, xi=np.array([1.0]))
    assert np.all(np.isinf(asymptotic_mrc_rate(p, alloc)))
    assert maxmin_asymptotic_rate(p, "mrc") == float("inf")


def test_maxmin_asymptotic_values(params200):
    assert np.isclose(maxmin_asymptotic_rate(params200, "zf"),
                      MAXMIN_ZF_REF, rtol=1e-12)
    # K=2: limit SINR (M-1)/(K-1) = M - 1
    assert np.isclose(maxmin_asymptotic_rate(params200, "mrc"),
                      np.log2(200.0), rtol=1e-12)


def test_ideal_asymptotic_close_to_finite_m(params200, xi_star):
    # at M=200 the exact perfect-knowledge rate sits just above its limit form
    exact = np.min(closed_form_rate(params200, ResourceAllocation(0.0, 0.076, 0.0, xi_star),
                                    "ideal", "zf"))
    asym = ideal_asymptotic_rate(params200, 0.076, "zf")
    assert np.isclose(asym, 18.511972859473165, rtol=1e-12)
    assert 0 < exact - asym < 0.01
    with pytest.raises(ValueError):
        ideal_asymptotic_rate(params200, 0.0, "zf")


def test_closed_form_rate_dispatch(params200, ref_alloc):
    # each (system, detector) pair is its energy model fed to its SINR core
    a = ref_alloc
    rem = 1.0 - a.tau - a.alpha
    for system in ("wetmm", "opmm"):
        e = energies(params200, system, a.alpha, a.rho, a.xi)
        for det in ("zf", "mrc"):
            want = rem * np.log2(1.0 + sinr_at(det, e, params200.beta, a.tau, a.alpha, a.rho,
                                               200, 1e-15))
            got = closed_form_rate(params200, a, system, det)
            assert np.allclose(got, want, rtol=1e-14)
    # the ideal system ignores tau and rho: nonzero values change no bit
    assert a.tau > 0 and a.rho > 0
    for det in ("zf", "mrc"):
        got = closed_form_rate(params200, a, "ideal", det)
        want = closed_form_rate(params200, ResourceAllocation(0.0, a.alpha, 0.0, a.xi), "ideal", det)
        assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        closed_form_rate(params200, ref_alloc, "nonesuch", "zf")
    with pytest.raises(ValueError):
        closed_form_rate(params200, ref_alloc, "wetmm", "nonesuch")


def test_mm_dorg_recovers_exact_slope():
    ms = np.array([10.0, 20.0, 50.0, 100.0, 200.0, 400.0, 1000.0])
    rates = 2.0 * np.log2(ms) + 3.0
    assert np.isclose(mm_dorg(rates, ms), 2.0, atol=1e-12)


def test_mm_dorg_fits_top_decade_only():
    ms = np.array([10.0, 20.0, 50.0, 100.0, 200.0, 400.0, 1000.0])
    rates = 1.5 * np.log2(ms)
    rates[ms < 100.0] = 0.0  # garbage outside the fit window
    assert np.isclose(mm_dorg(rates, ms), 1.5, atol=1e-12)


def test_mm_dorg_needs_two_points():
    with pytest.raises(ValueError):
        mm_dorg(np.array([1.0, 2.0]), np.array([1.0, 1000.0]))
    with pytest.raises(ValueError):
        mm_dorg(np.array([1.0, 2.0]), np.array([1.0]))


def test_large_k_rate_round_trip():
    c1 = c1_limit(1e-3, 3.0, 6.0, 12.0)
    for zeta in (0.05, 0.3, 0.7, 0.95):
        r = large_k_rate(zeta, 0.05, c1, 1.0, 1e-15)
        back = user_load_for_rate(float(r), 0.05, c1, 1.0, 1e-15)
        assert np.isclose(back, zeta, rtol=1e-9)


@pytest.mark.parametrize("zeta", [1e-150, 1e-20, 1.71e-15, 1e-13, 1e-9, 0.05, 0.95])
def test_user_load_for_rate_round_trips_small_loads(zeta):
    """The closed-form inverse returns the load whose rate meets the target,
    to 1e-12, however small.  A bisection stopping on an absolute width
    returned 2.94e-14 for the 104-bit target of load 1.71e-15 (8.2 bits
    short), and refused targets above the rate at load 1e-15."""
    c1 = c1_limit(1e-3, 3.0, 6.0, 12.0)
    r = float(large_k_rate(zeta, 0.05, c1, 1.0, 1e-15))
    assert np.isclose(user_load_for_rate(r, 0.05, c1, 1.0, 1e-15), zeta, rtol=1e-12, atol=0.0)


def test_user_load_for_rate_stays_inside_the_unit_interval():
    """A target so low that t vanishes beside 1 used to give the load 1.0,
    which large_k_rate refuses; it gives the largest float below 1, whose
    rate (-47 bits) still meets the target."""
    c1 = c1_limit(1e-3, 3.0, 6.0, 12.0)
    zeta = user_load_for_rate(-200.0, 0.05, c1, 1.0, 1e-15)
    assert zeta == np.nextafter(1.0, 0.0)
    assert -200.0 <= large_k_rate(zeta, 0.05, c1, 1.0, 1e-15) < -47.0


def test_large_k_rate_monotone_and_domain():
    c1 = c1_limit(1e-3, 3.0, 6.0, 12.0)
    z = np.linspace(0.02, 0.98, 49)
    r = large_k_rate(z, 0.05, c1, 1.0, 1e-15)
    assert np.all(np.diff(r) < 0)
    with pytest.raises(ValueError):
        large_k_rate(0.0, 0.05, c1, 1.0, 1e-15)
    with pytest.raises(ValueError):
        large_k_rate(1.0, 0.05, c1, 1.0, 1e-15)
    with pytest.raises(ValueError):
        user_load_for_rate(1e9, 0.05, c1, 1.0, 1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("arg", ["target", "alpha_star", "c1", "p_dl", "sigma2_ul"])
def test_user_load_for_rate_rejects_non_finite(arg, bad):
    # a NaN argument used to return a load of 2.94e-14
    args = {"target": 10.0, "alpha_star": 0.05, "c1": c1_limit(1e-3, 3.0, 6.0, 12.0),
            "p_dl": 1.0, "sigma2_ul": 1e-15}
    args[arg] = bad
    with pytest.raises(ValueError, match="finite"):
        user_load_for_rate(*args.values())


@pytest.mark.parametrize("arg", ["zeta", "alpha_star", "c1", "p_dl", "sigma2_ul"])
def test_large_k_rate_rejects_nan(arg):
    # alpha_star = nan used to give a NaN rate
    args = {"zeta": 0.5, "alpha_star": 0.05, "c1": c1_limit(1e-3, 3.0, 6.0, 12.0),
            "p_dl": 1.0, "sigma2_ul": 1e-15}
    args[arg] = np.nan
    with pytest.raises(ValueError):
        large_k_rate(*args.values())


def test_c1_limit_pinned_and_continuous():
    assert np.isclose(c1_limit(1e-3, 3.0, 6.0, 12.0), C1_LIMIT_REF, rtol=1e-12)
    # collapsing the interval reproduces the single-distance value
    point = c1_limit(1e-3, 3.0, 9.0, 9.0)
    assert np.isclose(point, 9.0 ** 6 / 1e-6, rtol=1e-12)
    near = c1_limit(1e-3, 3.0, 9.0, 9.0 + 1e-9)
    assert np.isclose(near, point, rtol=1e-6)


@pytest.mark.parametrize("b", [6.0 + 1e-12, 6.0000001, 6.00005, 6.0059, 6.5, 12.0])
def test_c1_limit_matches_exact_arithmetic_near_equal_distances(b):
    """Against the exact rational value of the float inputs.  The former
    a = b shortcut beta0^(-2) a^(2u), taken wherever np.isclose(a, b), was
    2.5e-5 off at b = 6.00005 and 5e-8 off at 6.0000001."""
    a, beta0 = Fraction(6.0), Fraction(1e-3)
    exact = (Fraction(b) ** 7 - a ** 7) / ((Fraction(b) - a) * 7 * beta0 ** 2)
    assert abs(c1_limit(1e-3, 3.0, 6.0, b) / float(exact) - 1.0) < 1e-14


def test_c1_sample_identity_for_equal_distances():
    beta = np.full(5, 1e-3 * 9.0 ** -3)
    assert np.isclose(c1_sample(beta), c1_limit(1e-3, 3.0, 9.0, 9.0), rtol=1e-12)
    with pytest.raises(ValueError):
        c1_sample(np.array([]))
    with pytest.raises(ValueError):
        c1_sample(np.array([1e-6, 0.0]))


def test_c1_sample_converges_to_limit():
    rng = trial_rng(99)
    d = rng.uniform(6.0, 12.0, size=200_000)
    got = c1_sample(1e-3 * d ** -3.0)
    assert np.isclose(got, C1_LIMIT_REF, rtol=0.01)


def test_wetmm_energies_feed_rates(params200, ref_alloc):
    # the rate path and the standalone fixed point agree on banked energy
    e = harvested_energy_fixedpoint(ref_alloc.alpha, ref_alloc.rho, ref_alloc.xi,
                                    params200.beta, 200, 1.0, 1e-15)
    sinr = sinr_at("zf", e, params200.beta, ref_alloc.tau, ref_alloc.alpha, ref_alloc.rho,
                   200, 1e-15)
    want = (1.0 - ref_alloc.tau - ref_alloc.alpha) * np.log2(1.0 + sinr)
    assert np.allclose(closed_form_rate(params200, ref_alloc, "wetmm", "zf"),
                       want, rtol=1e-12)
