"""Property tests over random scenarios."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wetmm.energy import (RHO_CLAMP, ResourceAllocation, _energies, beamformer, clamp_rho,
                          energies, expected_harvested_energy)
from wetmm.montecarlo import _within_cond_limit
import wetmm.optimizer as optimizer
from wetmm.optimizer import (_block_bounds, _lattice_count, _lattice_rates, _xi_candidates,
                             grid_search_p1)
from wetmm.rates import _closed_form_sinr, _sinr, closed_form_rate, closed_form_sinr
from wetmm.sysmodel import SystemParams, _pcg64_assemble, _pcg64_states, trial_rng

from reference import draw_trials

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
    words = _pcg64_states(master_seed, [trial], salt)
    assert _pcg64_assemble(words) == [want]
    seeds = np.random.SeedSequence(master_seed, spawn_key=(trial, salt)).generate_state(4, np.uint64)
    assert np.array_equal(words, seeds[None])


@PROPERTY_SETTINGS
@given(st.integers(0, 2 ** 256 - 1), st.lists(st.integers(0, 2 ** 32 - 1), max_size=12),
       st.integers(0, 2 ** 32 - 1))
def test_vector_stream_states_equal_scalar_states(master_seed, trials, salt):
    """draw_trials' per-call states, mixed in numpy lanes, are trial_rng's."""
    trials = trials + [0, 2 ** 32 - 1]
    assert _pcg64_assemble(_pcg64_states(master_seed, trials, salt)) == [
        trial_rng(master_seed, t, salt).bit_generator.state["state"] for t in trials]


@st.composite
def search_problems(draw):
    """Scenario, system, detector and xi policy for the lattice searches:
    K = 2 or 3 users 2-30 m from the array, simplex weights at K = 2 only."""
    k = draw(st.integers(2, 3))
    system = draw(st.sampled_from(["wetmm", "opmm"]))
    detector = draw(st.sampled_from(["zf", "mrc"]))
    policy = draw(st.sampled_from(["analytic", "simplex"])) if k == 2 else "analytic"
    m = draw(st.integers(k + 1 if detector == "zf" else 2, 1024))
    dist = np.array(draw(st.lists(st.floats(2.0, 30.0), min_size=k, max_size=k)))
    params = SystemParams(M=m, K=k, p_dl=10.0 ** draw(st.floats(-1.0, 1.0)),
                          sigma2_ul=10.0 ** draw(st.floats(-16.0, -13.0)),
                          beta=1e-3 * dist ** -3.0)
    return params, system, detector, policy


@PROPERTY_SETTINGS
@given(fixed_point_boxes(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from(["wetmm", "opmm"]))
def test_energies_rise_in_alpha_rho_and_xi(box, u, v, w, system):
    """Each user's energy is nondecreasing in alpha, in rho (clamped or not)
    and in its own xi_k, on both roots of the fixed point: the monotonicity
    the search's block bounds rest on."""
    params, alpha, rho, xi = box
    hi = (alpha + u * (1.0 - alpha), rho + v * (1.0 - rho) * (1.0 - 1e-9), xi + w * (1.0 - xi))
    lo = energies(params, system, alpha, rho, xi)
    assert np.all(lo <= energies(params, system, *hi) * (1.0 + 1e-12)), (lo, hi)


@PROPERTY_SETTINGS
@given(search_problems(), st.data())
def test_block_bound_covers_every_lattice_value_in_its_block(problem, data):
    """No lattice value in a block exceeds the block's bound by more than
    the relative 1e-12 that a pruned pass allows for rounding.

    Blocks hold up to 4 positions per axis.  They reach alpha = 0, and rho
    steps below RHO_CLAMP put blocks across both clamp edges.  The box of
    the block's first point alone is bounded by exactly that point's value:
    the bound and the point evaluate the same kernel with the same
    arguments."""
    params, system, detector, policy = problem
    a_step = data.draw(st.floats(1e-3, 0.05))
    r_step = data.draw(st.one_of(st.floats(2e-5, 1e-4), st.floats(1e-4, 0.05)))
    x_step = data.draw(st.floats(0.01, 0.3))
    n_a = _lattice_count(1.0, a_step, "alpha")
    n_r = _lattice_count(1.0, r_step, "rho", open_end=True)
    n_x = _lattice_count(1.0, x_step, "xi")
    sizes = [data.draw(st.integers(1, min(4, n))) for n in (n_a + 1, n_r, n_x + 1)]
    a0 = data.draw(st.one_of(st.just(0), st.integers(0, n_a + 1 - sizes[0])))
    r0 = data.draw(st.one_of(st.just(1), st.just(n_r + 1 - sizes[1]),
                             st.integers(1, n_r + 1 - sizes[1])))
    x0 = data.draw(st.integers(0, n_x + 1 - sizes[2]))
    xi = xi_rows(params, system, policy, np.arange(x0, x0 + sizes[2]), x_step)
    alpha = a_step * np.arange(a0, a0 + sizes[0])
    rho = r_step * np.arange(r0, r0 + sizes[1])
    values = _lattice_rates(params, system, detector, params.M, alpha[:, None, None],
                            rho[None, :, None], xi.T[:, None, None])
    bound = _block_bounds(params, system, detector, params.M,
                          [np.array([[[v]]]) for v in (alpha[0], alpha[-1])],
                          [np.array([[[v]]]) for v in (rho[0], rho[-1])],
                          [v[:, None, None, None] for v in (xi.min(axis=0), xi.max(axis=0))])
    assert bound.shape == (1, 1, 1)
    assert not np.any(bound < values - 1e-12 * np.abs(values)), (bound, values.max())
    point = _block_bounds(params, system, detector, params.M, [np.array([[[alpha[0]]]])] * 2,
                          [np.array([[[rho[0]]]])] * 2, [xi[0][:, None, None, None]] * 2)
    if np.isfinite(values[0, 0, 0]):
        assert point.item() == values[0, 0, 0], (point.item(), values[0, 0, 0])


def xi_rows(params, system, policy, x_idx, xi_step):
    """The search's xi candidates at lattice indices ``x_idx``; where the
    system or policy fixes xi, its one row stands for every index."""
    xi = _xi_candidates(params, system, policy, _lattice_count(1.0, xi_step, "xi"), xi_step)
    return xi if len(xi) == 1 else xi[x_idx]


def lattice_argmax(params, system, detector, steps, policy, xi_step, a_idx, r_idx, x_idx):
    """Value and (alpha, rho, xi) lattice indices of the first maximum, in C
    order, of ``_lattice_rates`` over the full broadcast lattice of the index
    sets.  The values are computed 8 alphas at a time, which caps the memory
    of the temporaries, and np.argmax runs once over all of them."""
    xi = xi_rows(params, system, policy, x_idx, xi_step)
    rate = np.concatenate([optimizer._lattice_rates(
        params, system, detector, params.M, steps[1] * a_idx[lo:lo + 8, None, None],
        steps[2] * r_idx[None, :, None], xi.T[:, None, None]) for lo in range(0, a_idx.size, 8)])
    j = np.unravel_index(np.argmax(rate), rate.shape)
    return rate[j], tuple(int(v[i]) for v, i in zip((a_idx, r_idx, x_idx), j))


def coarse_to_fine(params, system, detector, steps, policy, xi_step, cf, radius):
    """grid_search_p1's two passes, each one argmax over its whole lattice:
    the reference winner's (alpha, rho, xi) lattice indices for a pruned
    search."""
    tops = (_lattice_count(1.0, steps[1], "alpha"),
            _lattice_count(1.0, steps[2], "rho", open_end=True),
            _lattice_count(1.0, xi_step, "xi"))
    r_coarse = np.arange(cf, tops[1] + 1, cf)
    val, idx = lattice_argmax(
        params, system, detector, steps, policy, xi_step, np.arange(0, tops[0] + 1, cf),
        r_coarse if r_coarse.size else np.arange(1, tops[1] + 1), np.arange(0, tops[2] + 1, cf))
    fine = [np.arange(max(low, i - radius * cf), min(top, i + radius * cf) + 1)
            for i, top, low in zip(idx, tops, (0, 1, 0))]
    val_f, idx_f = lattice_argmax(params, system, detector, steps, policy, xi_step, *fine)
    return idx_f if val_f > val or (val_f == val and idx_f < idx) else idx


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(search_problems(), st.data())
def test_pruned_search_returns_the_full_passes_winner(problem, data):
    """With coarse_factor > 1 both passes skip blocks by their bounds, yet
    return the same lattice point, hence a bit-identical min rate, as the
    coarse-to-fine search built from full passes.

    In some examples every lattice value is floored to whole bits.  That
    keeps the block bounds valid and makes wide plateaus of exact ties, so
    the tie order (smallest alpha, then rho, then xi) is exercised.  In
    some, slabs of 64 entries split every pass into many evaluations, so
    ties also fall between them."""
    params, system, detector, policy = problem
    steps = (0.01, data.draw(st.floats(0.002, 0.05)), data.draw(st.floats(0.002, 0.05)))
    xi_step = data.draw(st.floats(0.005, 0.2))
    cf = data.draw(st.integers(2, 12))
    radius = data.draw(st.integers(0, 10))
    rates = optimizer._lattice_rates
    floored = data.draw(st.booleans())
    with mock.patch.multiple(optimizer, _SLAB_ENTRIES=data.draw(st.sampled_from([2 ** 13, 64])),
                             _lattice_rates=(lambda *args: np.floor(rates(*args))) if floored
                             else rates):
        ia, ir, ix = coarse_to_fine(params, system, detector, steps, policy, xi_step, cf, radius)
        got = grid_search_p1(params, system, detector, steps=steps, xi_policy=policy,
                             xi_step=xi_step, coarse_factor=cf, refine_radius=radius)
    want = ResourceAllocation(0.0, steps[1] * ia, steps[2] * ir,
                              xi_rows(params, system, policy, np.array([ix]), xi_step)[0])
    a = got.allocation
    assert (a.alpha, a.rho) == (want.alpha, want.rho)
    assert np.array_equal(a.xi, want.xi)
    assert got.min_rate == float(np.min(closed_form_rate(params, want, system, detector)))


@st.composite
def antenna_batches(draw):
    """A batch of 3-8 SystemParams that differ only in M, with a system,
    detector and xi policy: K = 2 or 3 users 2-30 m from the array, simplex
    weights at K = 2 only.  The antenna counts are unsorted and hold
    M = K + 1 and at least one repeat."""
    k = draw(st.integers(2, 3))
    system = draw(st.sampled_from(["wetmm", "opmm", "ideal"]))
    detector = draw(st.sampled_from(["zf", "mrc"]))
    policy = draw(st.sampled_from(["analytic", "simplex"])) if k == 2 else "analytic"
    ms = draw(st.lists(st.integers(k + 1 if detector == "zf" else 2, 1024), min_size=1,
                       max_size=5))
    ms = draw(st.permutations(ms + [k + 1, ms[0]]))
    dist = np.array(draw(st.lists(st.floats(2.0, 30.0), min_size=k, max_size=k)))
    p_dl, s2 = 10.0 ** draw(st.floats(-1.0, 1.0)), 10.0 ** draw(st.floats(-16.0, -13.0))
    return ([SystemParams(M=m, K=k, p_dl=p_dl, sigma2_ul=s2, beta=1e-3 * dist ** -3.0)
             for m in ms], system, detector, policy)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(antenna_batches(), st.data())
def test_batched_search_equals_one_search_per_antenna_count(batch, data):
    """A batch over antenna counts returns, for each count, the allocation,
    the min rate and rates bit for bit and the evaluation count of that
    count's own grid_search_p1: coarse factors 1-7 (1 is one full sweep),
    refine radii 0-3 (0 makes every refine box one point per axis, clipped
    boxes repeat their last index) and, in some examples, slabs of 64
    entries, which split a level's bounds and points across problems."""
    problems, system, detector, policy = batch
    args = ((0.01, data.draw(st.floats(0.03, 0.1)), data.draw(st.floats(0.03, 0.1))), policy,
            data.draw(st.floats(0.1, 0.35)), data.draw(st.integers(1, 7)),
            data.draw(st.integers(0, 3)))
    with mock.patch.object(optimizer, "_SLAB_ENTRIES", data.draw(st.sampled_from([64, 2 ** 13]))):
        got = optimizer._grid_search(problems, system, detector, *args)
        want = [grid_search_p1(params, system, detector, *args) for params in problems]
    for g, w in zip(got, want, strict=True):
        a, b = g.allocation, w.allocation
        assert (a.tau, a.alpha, a.rho) == (b.tau, b.alpha, b.rho)
        assert a.xi.tobytes() == b.xi.tobytes()
        assert np.float64(g.min_rate).tobytes() == np.float64(w.min_rate).tobytes()
        assert g.rates.tobytes() == w.rates.tobytes()
        assert (g.n_evaluations, g.grid_steps) == (w.n_evaluations, w.grid_steps)


@PROPERTY_SETTINGS
@given(st.data())
def test_kernels_take_one_antenna_count_per_point(data):
    """Each kernel with an array of antenna counts, one per point, gives at
    every point the bytes of the call with that point's count as a Python
    int, which is what the public entries pass: _energies, _sinr (at a
    point and over a box), _closed_form_sinr, _lattice_rates and
    _block_bounds, on 1-D operands with users on axis 0."""
    k = data.draw(st.integers(1, 3))
    system = data.draw(st.sampled_from(["wetmm", "opmm", "ideal"]))
    detector = data.draw(st.sampled_from(["zf", "mrc"]))
    m = np.array(data.draw(st.lists(st.integers(k + 1 if detector == "zf" else 2, 1024),
                                    min_size=1, max_size=6)))
    n = m.size
    dist = np.array(data.draw(st.lists(st.floats(2.0, 30.0), min_size=k, max_size=k)))
    params = SystemParams(M=int(m[0]), K=k, p_dl=10.0 ** data.draw(st.floats(-1.0, 1.0)),
                          sigma2_ul=10.0 ** data.draw(st.floats(-16.0, -13.0)),
                          beta=1e-3 * dist ** -3.0)

    def unit(shape):
        return np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape))))).reshape(shape)

    alpha, rho, xi = (np.sort(unit((2, n)), axis=0), clamp_rho(np.sort(unit((2, n)), axis=0)),
                      np.sort(unit((2, k, n)), axis=0))
    beta = params.beta[:, None]
    e = [_energies(params, system, m, beta, alpha[i], rho[i], xi[i]) for i in (0, 1)]
    kernels = [
        lambda M, j: _energies(params, system, M, beta, alpha[0, j], rho[0, j], xi[0][:, j]),
        lambda M, j: _sinr(detector, M, k, beta, params.sigma2_ul, e[0][:, j], e[1][:, j],
                           rho[0, j], rho[1, j], 1.0 - alpha[1, j]),
        lambda M, j: _closed_form_sinr(params, system, detector, M, beta, 0.0, alpha[0, j],
                                       rho[0, j], xi[0][:, j]),
        lambda M, j: optimizer._lattice_rates(params, system, detector, M, alpha[0, j],
                                              rho[0, j], xi[0][:, j]),
        lambda M, j: _block_bounds(params, system, detector, M, alpha[:, j], rho[:, j],
                                   xi[:, :, j]),
    ]
    everywhere = slice(None)
    for kernel in kernels:
        batched = kernel(m, everywhere)
        for j in range(n):
            one = kernel(int(m[j]), slice(j, j + 1))
            assert one.tobytes() == batched[..., j:j + 1].tobytes(), (kernel, j)


@st.composite
def layout_cases(draw):
    """A scenario and its tags, with the same operands in both layouts.

    The lattice has rank 0, 1 or 3, with 1-3 points per axis, and each of
    tau, alpha, rho and xi varies along a drawn subset of its axes, or is a
    Python float (not xi).  Users-last, every array operand ends in a user
    axis (K for xi, 1 for the others) and keeps all its leading axes of
    size 1 or drops them, down to a scalar.  Users-first, tau, alpha and
    rho have no user axis and xi has it first.  The values cover the domain's edges: tau + alpha > 1, alpha = 0, rho at
    0 and 1, and beam weights of 0."""
    k = draw(st.integers(1, 3))
    system = draw(st.sampled_from(["wetmm", "opmm", "ideal"]))
    detector = draw(st.sampled_from(["zf", "mrc"]))
    m = draw(st.integers(k + 1 if detector == "zf" else 2, 1024))
    dist = np.array(draw(st.lists(st.floats(2.0, 30.0), min_size=k, max_size=k)))
    params = SystemParams(M=m, K=k, p_dl=10.0 ** draw(st.floats(-1.0, 1.0)),
                          sigma2_ul=10.0 ** draw(st.floats(-16.0, -13.0)),
                          beta=1e-3 * dist ** -3.0)
    dims = [draw(st.integers(1, 3)) for _ in range(draw(st.sampled_from([0, 1, 3])))]
    first, last = {}, {}
    for name, top in (("tau", 0.5), ("alpha", 1.0), ("rho", 1.0), ("xi", 1.0)):
        if name != "xi" and draw(st.booleans()):
            first[name] = last[name] = draw(st.floats(0.0, top))
            continue
        shape = [n if draw(st.booleans()) else 1 for n in dims]
        size = (k if name == "xi" else 1) * int(np.prod(shape))
        v = np.array(draw(st.lists(st.floats(0.0, top), min_size=size, max_size=size)))
        if name == "xi":
            w = v.reshape(k, *shape)
            total = w.sum(axis=0)
            first[name] = np.where(total > 0, w / np.where(total > 0, total, 1.0), 1.0 / k)
            users_last = np.moveaxis(first[name], 0, -1)
        else:
            first[name] = v.reshape(shape)
            users_last = first[name][..., None]
        ones = next((i for i, n in enumerate(users_last.shape) if n != 1), users_last.ndim)
        users_last = users_last.reshape(users_last.shape[draw(st.sampled_from([0, ones])):])
        last[name] = float(users_last) if users_last.ndim == 0 else users_last
    beta = params.beta.reshape(k, *[1] * len(dims))
    return params, system, detector, beta, first, last


def assert_same_bytes(got, users_first, used):
    """``got``, users-last, has the users-first result's entries bit for bit
    and the shape the arguments its system uses broadcast to."""
    want = np.moveaxis(users_first, 0, -1)
    assert got.shape == np.broadcast_shapes(*(np.shape(v) for v in used), got.shape[-1:])
    assert got.tobytes() == want.reshape(got.shape).tobytes(), (got, want)


@PROPERTY_SETTINGS
@given(layout_cases())
def test_users_last_boundary_matches_the_users_first_kernels(case):
    """The public closed_form_sinr and energies take users on the last axis,
    the kernels the search calls directly take them on axis 0, and both
    public functions give the kernels' bytes, on scalar, 1-D and 3-D
    broadcast operands."""
    params, system, detector, beta, f, l = case
    rho = clamp_rho(f["rho"])
    sinr = _closed_form_sinr(params, system, detector, params.M, beta, f["tau"], f["alpha"], rho,
                             f["xi"])
    used = {"wetmm": "tau alpha rho xi", "opmm": "tau alpha rho", "ideal": "alpha xi"}[system]
    assert_same_bytes(closed_form_sinr(params, system, detector, l["tau"], l["alpha"], l["rho"],
                                       l["xi"]), sinr, [l[n] for n in used.split()])
    e = _energies(params, system, params.M, beta, f["alpha"], rho, f["xi"])
    used = {"wetmm": "alpha rho xi", "opmm": "alpha", "ideal": "alpha xi"}[system]
    assert_same_bytes(energies(params, system, l["alpha"], l["rho"], l["xi"]), e,
                      [l[n] for n in used.split()])


@PROPERTY_SETTINGS
@given(st.integers(1, 9), st.integers(1, 1200), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_stacked_beamformer_equals_its_slices_bit_for_bit(trials, m, k, seed):
    """A (T, M, K) stack of estimates gives the beams of its (M, K) slices
    bit for bit, and each slice gives the beam of np.linalg.norm and a
    division by the norms: the antenna-major sum of squares and the
    reciprocal multiply change no bit, in any stack shape."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-8.0, 2.0, size=k)
    shape = (trials, m, k)
    G_hat = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scales
    xi = rng.dirichlet(np.ones(k))
    w = beamformer(G_hat, xi)
    assert w.shape == (trials, m)
    for t in range(trials):
        want = (G_hat[t] / np.linalg.norm(G_hat[t], axis=0)) @ np.sqrt(xi)
        assert beamformer(G_hat[t], xi).tobytes() == want.tobytes()
        assert w[t].tobytes() == want.tobytes(), t


def cond_verdict(gram, limit, screen):
    """The pass mask of ``screen``, or the error type it raises."""
    try:
        return screen(gram, limit)
    except np.linalg.LinAlgError as exc:
        return type(exc)


@PROPERTY_SETTINGS
@given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 40), st.integers(0, 2 ** 32 - 1),
       st.floats(-12.0, 0.0), st.floats(-150.0, 150.0), st.booleans(),
       st.sampled_from([1.0, 1.5, 30.0, 1e6, 1e12, 1e14, 1e17]))
def test_cond_screen_matches_np_linalg_cond(trials, k, extra_m, seed, log_gap, log_scale,
                                            with_nan, limit):
    """The trace-determinant screen passes exactly the Grams that
    ``~(np.linalg.cond(gram) > limit)`` passes, and raises where it raises:
    on random Grams, on Grams made near-singular by a column that nearly
    repeats another, on Grams whose condition number lies near the limit,
    at extreme scales, and with a NaN trial."""
    rng = np.random.default_rng(seed)
    m = k + extra_m
    G = rng.standard_normal((trials, m, k)) + 1j * rng.standard_normal((trials, m, k))
    kind = rng.integers(3, size=trials)
    if k > 1:
        # kind 1: the last column nearly repeats the first
        near = kind == 1
        G[near, :, -1] = G[near, :, 0] + 10.0 ** log_gap * G[near, :, -1]
        # kind 2: singular values 1, ..., 1 / sqrt(c), so the Gram's condition
        # number is c, within 0.1% of the limit, where rounding decides
        for t in np.flatnonzero(kind == 2):
            u = np.linalg.qr(G[t])[0]
            v = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
            c = limit * (1.0 + rng.uniform(-1e-3, 1e-3))
            G[t] = (u * np.geomspace(1.0, c ** -0.5, k)) @ v.conj().T
    G *= 10.0 ** log_scale
    if with_nan:
        G[rng.integers(trials), rng.integers(m), rng.integers(k)] = np.nan
    gram = G.conj().swapaxes(-1, -2) @ G
    want = cond_verdict(gram, limit, lambda g, lim: ~(np.linalg.cond(g) > lim))
    got = cond_verdict(gram, limit, _within_cond_limit)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want), (got, want)
    else:
        assert got is want
