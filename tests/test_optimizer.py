"""Max-min allocation search: analytic weights, grid passes, pinned optima."""

import collections
import dataclasses

import numpy as np
import pytest

from wetmm.cli import ExperimentSpec, run_rate_vs_m
from wetmm.energy import ResourceAllocation, energies
import wetmm.optimizer as optimizer
from wetmm.optimizer import (DEFAULT_STEPS, _lattice_count, asymptotic_allocation,
                             grid_search_p1, optimal_rho_zf, optimal_xi, rate_map,
                             solve_p1_analytic)
from wetmm.rates import closed_form_rate, closed_form_sinr, maxmin_asymptotic_rate
from wetmm.sysmodel import SystemParams

from conftest import benchmark_params

# Pinned search results for the benchmark scenario at M=200, fine steps
# (tau, alpha, rho) = (0.00025, 0.0005, 0.0005), analytic weights.
GRID_ZF = dict(tau=0.0, alpha=0.0785, rho=0.5955, min_rate=16.10031444046324)
GRID_MRC = dict(tau=0.0, alpha=0.004, rho=0.631, min_rate=7.187023046790478)
GRID_OPMM = dict(tau=0.0, alpha=0.129, rho=0.6055, min_rate=9.20053431875042)
IDEAL_ALPHA = 0.0725
IDEAL_MIN = 18.514052497090663
RHO_STAR_REF = 0.5964222013033937  # closed form at (tau, alpha) = (0.00825, 0.076)


def test_optimal_xi_closed_form(params200):
    xi = optimal_xi(params200.beta)
    assert np.isclose(xi.sum(), 1.0, rtol=1e-14)
    # weights inverse to beta^2: with an 8x path-gain ratio, 1/65 vs 64/65
    assert np.allclose(xi, [1.0 / 65.0, 64.0 / 65.0], atol=1e-15)
    inv = 1.0 / params200.beta ** 2
    assert np.allclose(xi, inv / inv.sum(), rtol=1e-14)


def test_optimal_rho_zf_values():
    assert np.isclose(optimal_rho_zf(2, 0.00825, 0.076), RHO_STAR_REF, rtol=1e-14)
    rem = 1.0 - 0.00825 - 0.076
    want = np.sqrt(2.0) / (np.sqrt(2.0) + np.sqrt(rem))
    assert np.isclose(optimal_rho_zf(2, 0.00825, 0.076), want, rtol=1e-14)
    # no overhead, single user: rho* = 1/2
    assert np.isclose(optimal_rho_zf(1, 0.0, 0.0), 0.5, rtol=1e-14)
    # a user count of 2.5 used to give sqrt(2.5) / (sqrt(2.5) + sqrt(rem))
    for bad in (2.5, True, 0):
        with pytest.raises(ValueError, match="^K must be"):
            optimal_rho_zf(bad, 0.0, 0.1)


def test_optimal_rho_zf_broadcasts():
    tau = np.array([0.0, 0.01])
    alpha = np.array([[0.05], [0.10]])
    out = optimal_rho_zf(2, tau, alpha)
    assert out.shape == (2, 2)
    assert np.isclose(out[1, 0], optimal_rho_zf(2, 0.0, 0.10), rtol=1e-14)


def test_grid_search_pinned_zf(params200):
    res = grid_search_p1(params200, "wetmm", "zf")
    a = res.allocation
    assert a.tau == GRID_ZF["tau"]
    assert np.isclose(a.alpha, GRID_ZF["alpha"], atol=1e-12)
    assert np.isclose(a.rho, GRID_ZF["rho"], atol=1e-12)
    assert np.isclose(res.min_rate, GRID_ZF["min_rate"], rtol=1e-12)
    assert np.isclose(res.min_rate, res.rates.min(), rtol=1e-14)
    assert res.n_evaluations > 0
    # the reported rates are reproducible from the reported allocation
    again = closed_form_rate(params200, a, "wetmm", "zf")
    assert np.allclose(res.rates, again, rtol=1e-12)


def test_grid_search_pinned_mrc(params200):
    res = grid_search_p1(params200, "wetmm", "mrc")
    a = res.allocation
    assert (a.tau, round(a.alpha, 10), round(a.rho, 10)) == \
        (GRID_MRC["tau"], GRID_MRC["alpha"], GRID_MRC["rho"])
    assert np.isclose(res.min_rate, GRID_MRC["min_rate"], rtol=1e-12)


def test_grid_search_pinned_opmm(params200):
    res = grid_search_p1(params200, "opmm", "zf")
    a = res.allocation
    assert (a.tau, round(a.alpha, 10), round(a.rho, 10)) == \
        (GRID_OPMM["tau"], GRID_OPMM["alpha"], GRID_OPMM["rho"])
    assert np.isclose(res.min_rate, GRID_OPMM["min_rate"], rtol=1e-12)
    # omnidirectional powering ignores the beam weights
    assert np.allclose(res.allocation.xi, np.full(2, 0.5), rtol=1e-14)


def test_grid_search_ideal(params200):
    res = grid_search_p1(params200, "ideal", "zf")
    assert np.isclose(res.allocation.alpha, IDEAL_ALPHA, atol=1e-12)
    assert np.isclose(res.min_rate, IDEAL_MIN, rtol=1e-12)
    assert res.allocation.tau == 0.0
    # the tau and rho steps do not apply, even where they leave no lattice
    odd = grid_search_p1(params200, "ideal", "zf", steps=(2.0, DEFAULT_STEPS[1], 0.9))
    assert (odd.allocation.alpha, odd.min_rate, odd.n_evaluations) == \
        (res.allocation.alpha, res.min_rate, res.n_evaluations)


def test_grid_search_deterministic(params200):
    a = grid_search_p1(params200, "wetmm", "zf", steps=(0.005, 0.005, 0.005))
    b = grid_search_p1(params200, "wetmm", "zf", steps=(0.005, 0.005, 0.005))
    assert a.min_rate == b.min_rate
    assert (a.allocation.tau, a.allocation.alpha, a.allocation.rho) == \
        (b.allocation.tau, b.allocation.alpha, b.allocation.rho)
    assert a.n_evaluations == b.n_evaluations


def test_refinement_never_loses_to_coarse(params200):
    # the fine pass searches a superset around the coarse incumbent
    coarse = grid_search_p1(params200, "wetmm", "zf",
                            steps=(0.005, 0.01, 0.01), coarse_factor=1,
                            refine_radius=0)
    fine = grid_search_p1(params200, "wetmm", "zf",
                          steps=(0.00025, 0.0005, 0.0005), coarse_factor=20,
                          refine_radius=10)
    assert fine.min_rate >= coarse.min_rate


def test_finer_steps_do_not_hurt(params200):
    lo = grid_search_p1(params200, "wetmm", "zf", steps=(0.002, 0.002, 0.002))
    hi = grid_search_p1(params200, "wetmm", "zf", steps=(0.001, 0.001, 0.001))
    assert hi.min_rate >= lo.min_rate - 1e-12


def test_simplex_policy_mechanics(params200):
    res = grid_search_p1(params200, "wetmm", "zf", steps=(0.005, 0.005, 0.005),
                         xi_policy="simplex", xi_step=0.01)
    xi = res.allocation.xi
    assert np.isclose(xi.sum(), 1.0, rtol=1e-12)
    # close to the analytic-weight shortcut; the 0.01 xi lattice cannot hold
    # the continuum optimum near 0.0154, so allow the rounding deficit
    ana = grid_search_p1(params200, "wetmm", "zf", steps=(0.005, 0.005, 0.005))
    assert res.min_rate >= ana.min_rate - 0.02
    assert abs(xi[0] - ana.allocation.xi[0]) <= 0.01


def test_simplex_policy_two_users_only():
    p3 = benchmark_params(50)
    p3 = type(p3)(M=50, K=3, p_dl=1.0, sigma2_ul=1e-15,
                  beta=np.array([4.6e-6, 1.2e-6, 5.8e-7]))
    with pytest.raises(ValueError):
        grid_search_p1(p3, "wetmm", "zf", steps=(0.01, 0.01, 0.01),
                       xi_policy="simplex")


@pytest.mark.parametrize("system", ["wetmm", "ideal"])
@pytest.mark.parametrize("xi_step, n_xi", [(0.35, 3), (0.6, 2)])
def test_simplex_xi_lattice_stays_on_the_simplex(params200, system, xi_step, n_xi):
    """xi_1 runs over xi_step * {0..floor(1/xi_step)}: no lattice point has
    xi_2 < 0, whether or not 1/xi_step is close to an integer."""
    steps = (0.05, 0.05, 0.05)
    res = grid_search_p1(params200, system, "zf", steps=steps, xi_policy="simplex",
                         xi_step=xi_step, coarse_factor=1)
    assert np.all(res.allocation.xi >= 0.0)
    # 21 alphas, times 19 rhos outside the ideal system
    assert res.n_evaluations == 21 * (1 if system == "ideal" else 19) * n_xi


def test_search_validation(params200):
    with pytest.raises(ValueError):
        grid_search_p1(params200, "nonesuch", "zf")
    with pytest.raises(ValueError):
        grid_search_p1(params200, "wetmm", "nonesuch")
    for system in ("wetmm", "opmm", "ideal"):
        with pytest.raises(ValueError, match="xi_policy"):
            grid_search_p1(params200, system, "zf", xi_policy="nonesuch")
    with pytest.raises(ValueError):
        grid_search_p1(params200, "wetmm", "zf", steps=(0.0, 0.001, 0.001))
    # a NaN step used to fail with "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="alpha step"):
        grid_search_p1(params200, "wetmm", "zf", steps=(0.01, np.nan, 0.01))
    with pytest.raises(ValueError, match="alpha_step"):
        solve_p1_analytic(params200, "zf", alpha_step=np.nan)
    # a step whose count overflows used to fail with "cannot convert float
    # infinity to integer"
    with pytest.raises(ValueError, match="tau step"):
        _lattice_count(1.0, 1e-320, "tau step")
    with pytest.raises(ValueError, match="rho step"):
        grid_search_p1(params200, "wetmm", "zf", steps=(0.01, 0.01, 1e-320))
    with pytest.raises(ValueError, match="alpha_step"):
        solve_p1_analytic(params200, "zf", alpha_step=1e-320)
    # a negative radius used to divide by zero, 1.5 used to be cut to 1, and
    # a NaN radius used to run the full fine sweep
    # and coarse_factor = True used to run as 1
    for bad in ({"refine_radius": -1}, {"coarse_factor": 1.5}, {"coarse_factor": True},
                {"refine_radius": np.nan}, {"refine_radius": 2.5}, {"refine_radius": False}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            grid_search_p1(params200, steps=(0.02, 0.02, 0.02), **bad)


def test_solve_p1_analytic_close_to_grid(params200):
    ana = solve_p1_analytic(params200, "zf")
    grid = grid_search_p1(params200, "wetmm", "zf")
    assert ana.allocation.tau == 0.0
    assert np.isclose(ana.allocation.alpha, grid.allocation.alpha, atol=1e-3)
    assert np.isclose(ana.min_rate, grid.min_rate, rtol=1e-3)
    assert np.isclose(ana.allocation.rho,
                      optimal_rho_zf(2, 0.0, ana.allocation.alpha), rtol=1e-12)


def test_solve_p1_analytic_sweeps_the_shared_alpha_grid(params200):
    """The alpha sweep is the lattice rule the CLI's axes use."""
    alphas = optimizer._grid(1.0, 0.003, "alpha_step")
    res = solve_p1_analytic(params200, "mrc", alpha_step=0.003)
    assert res.n_evaluations == alphas.size == 334
    assert res.allocation.alpha in alphas


def test_asymptotic_allocation_advisory(params200):
    for det in ("zf", "mrc"):
        alloc = asymptotic_allocation(params200, det)
        assert 0.0 < alloc.alpha < 1.0
        assert alloc.tau == 0.0
    # the advisory alpha shrinks with the array size
    big = asymptotic_allocation(benchmark_params(100_000), "zf")
    assert big.alpha < asymptotic_allocation(params200, "zf").alpha


@pytest.mark.parametrize("detector", ["zf", "mrc"])
def test_maxmin_asymptotic_rate_bounds_the_search_at_large_m(detector):
    """maxmin_asymptotic_rate is an upper bound on the optimized max-min
    rate at every M of 10^3 ... 10^6 (measured margins: zf 5.33-6.25 bits,
    mrc 0.0097-0.121 bits), and the ZF optimum's alpha falls with M at an
    exponent near the asymptotic allocation's -0.1 (measured -0.088)."""
    ms = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    problems = [benchmark_params(m) for m in ms]
    results = optimizer._grid_search(problems[0], ms, "wetmm", detector, DEFAULT_STEPS,
                                     "analytic", 0.001, 20, None)
    for params, res in zip(problems, results):
        assert maxmin_asymptotic_rate(params, detector) >= res.min_rate, params.M
    if detector == "zf":
        alphas = [res.allocation.alpha for res in results]
        slope = np.polyfit(np.log(ms), np.log(alphas), 1)[0]
        assert -0.12 <= slope <= -0.06, slope


def test_rate_map_shape_and_values(params200, xi_star):
    tau_vals = np.array([0.0, 0.005, 0.99])
    alpha_vals = np.array([0.0, 0.05, 0.5])
    grid = rate_map(params200, "wetmm", "zf", tau_vals[:, None, None],
                    alpha_vals[None, :, None], 0.5965, xi_star)
    assert grid.shape == (3, 3, 2)
    # infeasible corner tau + alpha >= 1 is flagged, not evaluated
    assert np.all(np.isnan(grid[2, 2]))
    # alpha = 0 harvests nothing
    assert np.all(grid[0, 0] == 0.0)
    alloc = ResourceAllocation(tau=0.005, alpha=0.05, rho=0.5965, xi=xi_star)
    want = closed_form_rate(params200, alloc, "wetmm", "zf")
    assert np.allclose(grid[1, 1], want, rtol=1e-12)


@pytest.mark.parametrize("system", ["wetmm", "opmm"])
@pytest.mark.parametrize("detector", ["zf", "mrc"])
def test_rate_map_is_zero_on_the_frame_edge_and_nan_beyond(params200, xi_star, system,
                                                          detector):
    # 1 - 0.9 - 0.1 = -2.8e-17 was NaN and 1 - 0.7 - 0.3 = 5.6e-17 gave
    # 9.5e-20; beyond ResourceAllocation's 1e-12 tolerance a cell is NaN
    tau = np.array([0.9, 0.7, 0.5, 0.5])
    alpha = np.array([0.1, 0.3, 0.5 + 5e-13, 0.5 + 2e-12])
    grid = rate_map(params200, system, detector, tau[:, None], alpha[:, None], 0.5, xi_star)
    assert np.all(grid[:3] == 0.0) and not np.signbit(grid[:3]).any()
    assert np.all(np.isnan(grid[3]))
    for row, t, a in zip(grid[:3], tau, alpha):
        alloc = ResourceAllocation(tau=float(t), alpha=float(a), rho=0.5, xi=xi_star)
        assert np.array_equal(row, closed_form_rate(params200, alloc, system, detector))


def test_rate_vs_rho_matches_pointwise(params200, xi_star):
    rho_vals = np.array([0.2, 0.5965, 0.9])
    out = rate_map(params200, "wetmm", "zf", 0.00825, 0.076, rho_vals[:, None], xi_star)
    assert out.shape == (3, 2)
    for i, r in enumerate(rho_vals):
        alloc = ResourceAllocation(tau=0.00825, alpha=0.076, rho=float(r), xi=xi_star)
        want = closed_form_rate(params200, alloc, "wetmm", "zf")
        assert np.allclose(out[i], want, rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("arg", ["tau", "alpha", "rho", "xi"])
def test_rate_map_rejects_non_finite(params200, xi_star, arg, bad):
    args = dict(tau=0.00825, alpha=0.076, rho=np.array([[0.2], [0.5965]]), xi=xi_star)
    value = np.array(args[arg], dtype=float)
    value.flat[-1] = bad
    args[arg] = value
    with pytest.raises(ValueError, match="finite"):
        rate_map(params200, "wetmm", "zf", **args)


@pytest.mark.filterwarnings("error")
def test_rate_map_refuses_a_rate_that_overflows(xi_star):
    """A rate inside the frame that overflows is refused, naming its cell and
    inputs, with no numpy warning.  Cells at alpha = 0 harvest nothing and
    rate 0, and (0.9, 0.5) is beyond the frame, so the refused cell is the
    last one."""
    params = dataclasses.replace(benchmark_params(200), p_dl=1e300)
    tau, alpha = np.array([0.9, 0.0]), np.array([0.0, 0.5])
    with pytest.raises(ValueError, match=r"^the rate nan of user 1 at M = 200 \(tau 0, alpha 0\.5, "
                                         r"rho 0\.5, xi \[0\.0153.*\]\) must be finite$"):
        rate_map(params, "wetmm", "zf", tau[:, None, None], alpha[None, :, None], 0.5, xi_star)


@pytest.mark.parametrize("arg, value, match", [
    ("tau", -0.5, "time fractions must be nonnegative"),
    ("alpha", -0.01, "time fractions must be nonnegative"),
    ("rho", 1.7, r"rho must lie in \[0, 1\]"),
    ("rho", -3.0, r"rho must lie in \[0, 1\]"),
    ("xi", [1.5, -0.5], "beam weights must be nonnegative and sum to 1"),
    ("xi", [[0.5, 0.5], [0.6, 0.5]], "beam weights must be nonnegative and sum to 1"),
])
def test_rate_map_refuses_out_of_domain(params200, xi_star, arg, value, match):
    # each would otherwise give a rate: tau = -0.5 a data phase of 1.4,
    # rho = 1.7 or -3 a clamped rho, xi = (1.5, -0.5) a negative beam
    args = dict(tau=0.00825, alpha=0.076, rho=0.5965, xi=xi_star)
    args[arg] = value
    with pytest.raises(ValueError, match=match):
        rate_map(params200, "wetmm", "zf", **args)


def test_min_rate_unimodal_in_rho(params200, xi_star):
    """Along the benchmark slice the min rate rises to one peak and falls."""
    rho_vals = np.linspace(0.01, 0.99, 99)
    out = rate_map(params200, "wetmm", "zf", 0.00825, 0.076, rho_vals[:, None], xi_star)
    min_rate = out.min(axis=1)
    d = np.diff(min_rate)
    signs = np.sign(d[np.abs(d) > 1e-12])
    flips = np.count_nonzero(np.diff(signs) != 0)
    assert flips <= 1
    peak = rho_vals[np.argmax(min_rate)]
    assert abs(peak - RHO_STAR_REF) < 0.02


def test_grid_search_rejects_mrc_antenna_floor():
    p = benchmark_params(3)
    # MRC needs M >= 2 only; ZF needs M >= K + 1 = 3: both fine at M=3
    grid_search_p1(p, "wetmm", "zf", steps=(0.02, 0.02, 0.02))
    with pytest.raises(ValueError):
        tiny = type(p)(M=2, K=2, p_dl=1.0, sigma2_ul=1e-15, beta=p.beta)
        grid_search_p1(tiny, "wetmm", "zf", steps=(0.02, 0.02, 0.02))


@pytest.mark.parametrize("entry", [
    lambda p: grid_search_p1(p, "wetmm", "zf", steps=(0.02, 0.02, 0.02)),
    lambda p: solve_p1_analytic(p, "zf", alpha_step=0.02),
    lambda p: rate_map(p, "wetmm", "zf", 0.0, 0.1, 0.5, np.array([0.5, 0.5])),
], ids=["grid_search_p1", "solve_p1_analytic", "rate_map"])
def test_zf_entry_points_refuse_antenna_floor(entry):
    # the search entry points leave the ZF antenna floor to closed_form_sinr
    # or check it themselves; either way M = K is refused by name
    tiny = SystemParams(M=2, K=2, p_dl=1.0, sigma2_ul=1e-15, beta=benchmark_params(3).beta)
    with pytest.raises(ValueError, match=r"ZF requires M >= K\+1"):
        entry(tiny)


def brute_force_p1(params, system, detector, steps, xi_policy="analytic", xi_step=0.25):
    """Reference max-min search over the full (tau, alpha, rho, xi) lattice.

    Every feasible point goes through closed_form_rate; the first strict
    maximum in (tau, alpha, rho, xi_1) order wins, which is the tie order of
    grid_search_p1.  The lattices are the search's: tau and alpha on
    step * {0..floor(1/step)}, rho on the multiples of its step in (0, 1).  The
    ideal system has no tau or rho, so it loops over alpha and xi only, at
    tau = rho = 0.
    """
    n_t = int(np.floor(1.0 / steps[0] + 1e-9))
    n_a = int(np.floor(1.0 / steps[1] + 1e-9))
    if system == "opmm":
        xis = [np.full(params.K, 1.0 / params.K)]
    elif xi_policy == "simplex":
        xis = [np.array([xi_step * i, 1.0 - xi_step * i])
               for i in range(int(np.floor(1.0 / xi_step + 1e-9)) + 1)]
    else:
        xis = [optimal_xi(params.beta)]
    taus = [0] if system == "ideal" else range(n_t + 1)
    rhos = [0] if system == "ideal" else [
        i for i in range(1, int(1.0 / steps[2]) + 1) if steps[2] * i < 1.0 - 1e-12]
    best, best_alloc = -np.inf, None
    for it in taus:
        for ia in range(n_a + 1):
            if 1.0 - steps[0] * it - steps[1] * ia < 0.0:
                continue
            for ir in rhos:
                for xi in xis:
                    alloc = ResourceAllocation(tau=steps[0] * it, alpha=steps[1] * ia,
                                               rho=steps[2] * ir, xi=xi)
                    value = float(np.min(closed_form_rate(params, alloc, system, detector)))
                    if value > best:
                        best, best_alloc = value, alloc
    return best_alloc, best


@pytest.mark.parametrize("m", [10, 200])
@pytest.mark.parametrize("system, detector, xi_policy", [
    ("wetmm", "zf", "analytic"), ("wetmm", "mrc", "analytic"),
    ("opmm", "zf", "analytic"), ("opmm", "mrc", "analytic"),
    ("wetmm", "zf", "simplex"), ("wetmm", "mrc", "simplex"),
    ("ideal", "zf", "analytic"), ("ideal", "mrc", "analytic"),
    ("ideal", "zf", "simplex"), ("ideal", "mrc", "simplex"),
])
def test_grid_search_matches_tau_brute_force(m, system, detector, xi_policy):
    """The tau-free search returns the argmax of the full 4-D lattice (the
    (alpha, xi) lattice for the ideal system)."""
    params = benchmark_params(m)
    steps = (0.1, 0.05, 0.05)
    want, want_rate = brute_force_p1(params, system, detector, steps, xi_policy)
    got = grid_search_p1(params, system, detector, steps=steps, xi_policy=xi_policy,
                         xi_step=0.25, coarse_factor=1)
    a = got.allocation
    assert (a.tau, a.alpha, a.rho) == (want.tau, want.alpha, want.rho)
    assert np.array_equal(a.xi, want.xi)
    assert got.min_rate == want_rate
    if system == "ideal":
        # the whole (alpha, xi) lattice in one pass: 21 alphas times 1 or 5 xis
        simplex = xi_policy == "simplex"
        assert got.n_evaluations == 21 * (5 if simplex else 1)


def test_grid_search_keeps_the_last_interior_rho():
    """A rho step that does not divide 1 keeps its largest multiple below 1:
    0.3 sweeps 0.3, 0.6 and 0.9, where the old floor(1/step - 1) rule
    dropped 0.9."""
    params = benchmark_params(10)
    steps = (0.05, 0.05, 0.3)
    got = grid_search_p1(params, steps=steps, coarse_factor=1)
    assert got.n_evaluations == 21 * 3
    want, want_rate = brute_force_p1(params, "wetmm", "zf", steps)
    assert got.allocation.rho == want.rho and got.min_rate == want_rate


@pytest.mark.parametrize("slab", [64, 200])
@pytest.mark.parametrize("system, xi_policy, n_xi", [
    ("wetmm", "analytic", 1), ("wetmm", "simplex", 3), ("ideal", "analytic", 1),
    ("ideal", "simplex", 3),
])
def test_full_sweep_counts_each_point_once(params200, monkeypatch, slab, system, xi_policy, n_xi):
    """A sweep without an incumbent evaluates blocks of 4 positions per
    axis, a short last block repeating its last alpha (21 alphas make 6
    blocks), in groups that a 64- or 200-entry budget makes small.  Each
    feasible lattice point still counts once, and the winner is the default
    groups' one."""
    kwargs = dict(steps=(0.05, 0.05, 0.05), xi_policy=xi_policy, xi_step=0.35, coarse_factor=1)
    want = grid_search_p1(params200, system, "zf", **kwargs)
    monkeypatch.setattr(optimizer, "_SLAB_ENTRIES", slab)
    got = grid_search_p1(params200, system, "zf", **kwargs)
    assert got.n_evaluations == want.n_evaluations == 21 * (1 if system == "ideal" else 19) * n_xi
    a, b = got.allocation, want.allocation
    assert (a.alpha, a.rho) == (b.alpha, b.rho) and np.array_equal(a.xi, b.xi)


@pytest.mark.parametrize("system, detector, kwargs, n_eval", [
    ("wetmm", "zf", {}, 16746), ("wetmm", "mrc", {}, 21182), ("opmm", "zf", {}, 17754),
    ("ideal", "zf", {}, 2001),
    ("wetmm", "zf", dict(xi_policy="simplex", xi_step=0.001), 190866),
])
def test_default_lattice_work_is_pinned(params200, system, detector, kwargs, n_eval):
    """Points each default-lattice search evaluates at M = 200: every point of
    the corner level plus the kept blocks of the coarse pass and the refine
    box (the ideal system's one sweep: 2001 alphas).  Any change to a level's
    incumbent or blocks moves these counts."""
    assert grid_search_p1(params200, system, detector, **kwargs).n_evaluations == n_eval


# Per-user energies and SINRs at M = 200, (tau, alpha, rho) = (0.01, 0.08,
# 0.6) and xi = optimal_xi, as float.hex, from the code before the kernels
# took the antenna count as an operand.  Only +, -, *, / and sqrt make them.
PUBLIC_AT_M200 = {
    ("wetmm", "energy"): ("0x1.93ba3dc0283fbp-20", "0x1.31d64c8062d58p-17"),
    ("wetmm", "zf"): ("0x1.e0175f7c7e5b0p+17", "0x1.6ba84a44d0b10p+17"),
    ("wetmm", "mrc"): ("0x1.066f8a0e1ad37p+8", "0x1.2d3b8b0e783aap+7"),
    ("opmm", "energy"): ("0x1.8daea1d7f4cf7p-22", "0x1.8daea1d7f4cf7p-25"),
    ("opmm", "zf"): ("0x1.e0fd05db66195p+15", "0x1.c5427018040d9p+9"),
    ("opmm", "mrc"): ("0x1.5aa2f92fc8a35p+13", "0x1.75da63c4a9860p+1"),
    ("ideal", "energy"): ("0x1.93cce3594f390p-20", "0x1.31eee98529fa0p-17"),
    ("ideal", "zf"): ("0x1.6dec73cea8828p+20", "0x1.153c8dbd581fbp+20"),
    ("ideal", "mrc"): ("0x1.069d1ac27bf61p+8", "0x1.2d7fb67ccc6d6p+7"),
}


@pytest.mark.parametrize("system, kind", PUBLIC_AT_M200)
def test_public_closed_forms_are_unchanged(params200, xi_star, system, kind):
    """energies, closed_form_sinr and rate_map pass the scalar antenna count
    to the kernels and give the pinned bytes; rate_map is its formula over
    the pinned SINRs."""
    want = np.array([float.fromhex(v) for v in PUBLIC_AT_M200[system, kind]])
    if kind == "energy":
        got = energies(params200, system, 0.08, 0.6, xi_star)
    else:
        got = closed_form_sinr(params200, system, kind, 0.01, 0.08, 0.6, xi_star)
        if system != "ideal":
            rates = rate_map(params200, system, kind, 0.01, 0.08, 0.6, xi_star)
            assert rates.tobytes() == ((1.0 - 0.01 - 0.08) * np.log2(1.0 + want)).tobytes()
    assert got.tobytes() == want.tobytes()


def test_batched_search_refuses_an_empty_batch(params200):
    with pytest.raises(ValueError, match="^number of antenna counts must be >= 1"):
        optimizer._grid_search(params200, [], "wetmm", "zf", (0.1, 0.1, 0.1), "analytic", 0.1,
                               2, 1)


def test_rate_vs_m_kernel_calls_are_pinned(tmp_path, monkeypatch):
    """One default rate-vs-m runs each search level once per curve for its
    26 antenna counts: 120 lattice evaluations and 27 block-bound slabs,
    against 317 and 156 (473 calls) for one search per M and curve."""
    calls = collections.Counter()
    for name in ("_lattice_rates", "_block_bounds"):
        def counted(*args, _kernel=getattr(optimizer, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(optimizer, name, counted)
    run_rate_vs_m(ExperimentSpec(out_dir=str(tmp_path)))
    assert calls == {"_lattice_rates": 120, "_block_bounds": 27}
    assert sum(calls.values()) < 473 / 3
