"""Max-min rate resource allocation: analytic pieces and a grid-search oracle.

The optimization problem is

    maximize   min_k R_k(tau, alpha, rho, xi)
    subject to tau, alpha >= 0,  tau + alpha <= 1,  rho in (0, 1),
               xi on the probability simplex,

with R_k the closed-form rate lower bounds from :mod:`wetmm.rates`.  The
ground truth is an exhaustive lattice search (:func:`grid_search_p1`);
analytic formulas for xi and rho plus a one-dimensional alpha search
(:func:`solve_p1_analytic`) give a fast approximation that tracks the grid
optimum closely at large M.

The search lattice is the set of integer multiples of the step sizes.  A
coarse pass (steps scaled by ``coarse_factor``) locates an incumbent, then a
fine pass re-evaluates the box within ``refine_radius`` coarse steps of it.
Both passes skip blocks of points whose monotone upper bound cannot reach
their incumbent, and return what the full passes would.
Only tau = 0 is evaluated, since it is the exact argmax over tau (see
:func:`grid_search_p1`).  The perfect-knowledge ("ideal") system has no tau
or rho, so the same pass runs once over its whole (alpha, xi) lattice at
rho index 0.  Ties are broken toward smaller alpha, then rho, then xi_1,
and the reduction is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wetmm.energy import ResourceAllocation, clamp_rho, energies
from wetmm.rates import _fold_users, closed_form_rate, closed_form_sinr
from wetmm.sysmodel import SystemParams, _check_tags

__all__ = [
    "OptimizationResult",
    "optimal_xi",
    "optimal_rho_zf",
    "asymptotic_allocation",
    "grid_search_p1",
    "solve_p1_analytic",
    "rate_map",
]

DEFAULT_STEPS = (0.00025, 0.0005, 0.0005)
# A search pass evaluates its (alpha, rho, xi, K) block in alpha slabs of
# about this many entries, which caps the memory of its temporaries.
_SLAB_ENTRIES = 2 ** 13
# A pruned pass bounds the objective over blocks of this many consecutive
# lattice positions per axis.
_BLOCK = 4


@dataclass
class OptimizationResult:
    """Outcome of a max-min rate search.

    Attributes:
        allocation: the best allocation found.
        min_rate: minimum per-user rate at that allocation, bits/s/Hz.
        rates: length-K per-user rates at that allocation.
        detector: "zf" or "mrc".
        system: "wetmm", "ideal", or "opmm".
        grid_steps: fine lattice steps used, (tau, alpha, rho[, xi_1]) or
            (alpha[, xi_1]) for the ideal system.
        n_evaluations: number of objective evaluations at feasible
            lattice points, coarse and fine passes combined.  A pruned pass
            counts the points it evaluated (its block corners and the points
            of its kept blocks), not its block bounds.  The lattice searches
            tau = 0 only, so these are (alpha, rho[, xi]) points.
    """

    allocation: ResourceAllocation
    min_rate: float
    rates: np.ndarray
    detector: str
    system: str
    grid_steps: tuple
    n_evaluations: int


def optimal_xi(beta) -> np.ndarray:
    """Beam weights equalizing the large-array per-user rates.

    xi_k proportional to 1/beta_k^2, normalized to the simplex.  Weaker
    users get more downlink energy because their uplink SINR scales with
    beta_k^2 xi_k.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.size == 0 or not np.all(np.isfinite(beta) & (beta > 0)):
        raise ValueError("beta must be a nonempty 1-D vector of positive, finite gains")
    w = 1.0 / beta**2
    return w / w.sum()


def optimal_rho_zf(K: int, tau, alpha):
    """Energy split maximizing the large-array zero-forcing rate.

        rho* = sqrt(K) / (sqrt(K) + sqrt(1 - tau - alpha))

    Broadcasts over tau and alpha, which must be finite and nonnegative.
    """
    if K < 1:
        raise ValueError("need at least one user")
    tau, alpha = np.asarray(tau, dtype=float), np.asarray(alpha, dtype=float)
    rem = 1.0 - tau - alpha
    if not np.all(np.isfinite(rem) & (rem >= 0)):
        raise ValueError("tau + alpha must not exceed 1 and must be finite")
    if not (np.all(tau >= 0) and np.all(alpha >= 0)):
        raise ValueError("tau and alpha must be nonnegative")
    sk = np.sqrt(float(K))
    out = sk / (sk + np.sqrt(rem))
    return out if out.ndim else float(out)


def asymptotic_allocation(params: SystemParams, detector: str) -> ResourceAllocation:
    """Advisory large-array allocation: a starting point, not a final answer.

    tau = 0 (the large-array analysis sends it to the lattice minimum) and
    the energy-phase fraction follows the decay orders alpha = M^(-0.1) for
    ZF and alpha = M^(-0.9) for MRC; the constants are not pinned by the
    theory, so the returned point only seeds a finite-M search.
    rho is the analytic ZF optimum, or 1/2 for MRC (whose large-array rate
    does not depend on rho).
    """
    _check_tags(detector=detector)
    alpha = float(np.clip(params.M ** (-0.1 if detector == "zf" else -0.9), 1e-6, 1.0 - 1e-6))
    rho = optimal_rho_zf(params.K, 0.0, alpha) if detector == "zf" else 0.5
    return ResourceAllocation(tau=0.0, alpha=alpha, rho=float(rho), xi=optimal_xi(params.beta))


def _lattice_count(span: float, step: float, name: str, open_end: bool = False) -> int:
    """Largest k with k step <= span, where k step within 1e-9 steps of span
    counts as span; with ``open_end``, the largest k with k step < span."""
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"{name} must be positive and finite, got {step!r}")
    count = span / step
    if not np.isfinite(count):
        raise ValueError(f"{name} {step!r} is too small: {span!r} / {name} is not finite")
    return int(np.ceil(count - 1e-9)) - 1 if open_end else int(np.floor(count + 1e-9))


def _check_problem(params: SystemParams, system: str, detector: str) -> None:
    _check_tags(system=system, detector=detector)
    if detector == "zf":
        params.require_zf()


def _xi_candidates(params: SystemParams, system: str, xi_policy: str,
                   xi_idx: np.ndarray | None, xi_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Return (index vector, candidate array (n, K)) for the xi axis."""
    if system == "opmm":
        return np.array([0]), np.full((1, params.K), 1.0 / params.K)
    if xi_policy == "analytic":
        return np.array([0]), optimal_xi(params.beta)[None, :]
    if params.K != 2:
        raise ValueError("simplex xi search is implemented for K = 2 only")
    xi1 = xi_step * xi_idx
    return xi_idx, np.stack([xi1, 1.0 - xi1], axis=-1)


def _lattice_rates(params, system, detector, alpha, rho, xi):
    """Min rate at tau = 0 of lattice points given by broadcasting ``alpha``
    and ``rho`` (each with a trailing axis of 1) against ``xi`` (users on the
    last axis); -inf where alpha > 1 leaves no data phase."""
    sinr = closed_form_sinr(params, system, detector, 0.0, alpha, rho, xi)
    rem = 1.0 - alpha[..., 0]
    with np.errstate(invalid="ignore"):
        return np.where(rem >= 0.0, rem * np.log2(1.0 + _fold_users(np.minimum, sinr)), -np.inf)


def _search_pass(params, system, detector, steps, xi_policy, xi_step, a_idx, r_idx, x_idx):
    """Best (alpha, rho, xi) lattice point at tau = 0.

    Returns (best value, (alpha, rho, xi) lattice indices, feasible count).
    The block is evaluated in alpha slabs.  np.argmax on a C-ordered slab
    picks the smallest alpha, then rho, then xi index among ties, and a
    later slab wins only if strictly better.
    """
    x_idx, xi_arr = _xi_candidates(params, system, xi_policy, x_idx, xi_step)
    rho = steps[2] * r_idx[None, :, None, None]
    slab = max(1, _SLAB_ENTRIES // (r_idx.size * x_idx.size * params.K))
    best, n_eval = None, 0
    for lo in range(0, a_idx.size, slab):
        alpha = steps[1] * a_idx[lo:lo + slab, None, None, None]
        rate = _lattice_rates(params, system, detector, alpha, rho, xi_arr[None, None])
        j = int(np.argmax(rate))
        if best is None or rate.flat[j] > best[0]:
            ia, ir, ix = np.unravel_index(j, rate.shape)
            best = (float(rate.flat[j]), (int(a_idx[lo + ia]), int(r_idx[ir]), int(x_idx[ix])))
        n_eval += int(np.count_nonzero(rate != -np.inf))
    return *best, n_eval


def _block_bounds(params, system, detector, alpha, rho, xi):
    """Upper bounds on the tau = 0 min rate over boxes of lattice points.

    ``alpha``, ``rho`` and ``xi`` are (smallest, largest) pairs over each
    box, broadcasting as in :func:`_lattice_rates`; xi's pair is per user.
    Each monotone factor of the SINR is taken at its favourable corner (see
    :func:`grid_search_p1`).
    """
    (a_lo, a_hi), (r_lo, r_hi), (x_lo, x_hi) = alpha, (clamp_rho(r) for r in rho), xi
    e_lo = energies(params, system, a_lo, r_lo, x_lo)
    e_hi = energies(params, system, a_hi, r_hi, x_hi)
    beta, s2 = params.beta, params.sigma2_ul
    frame = np.maximum(1.0 - a_hi, 0.0) / (1.0 - r_lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        near = beta * r_lo + s2 / e_hi
        if detector == "zf":
            load = beta * e_lo / (beta * r_hi * e_lo + s2)
            den = s2 * near * (frame + _fold_users(np.add, load)[..., None])
            gain = params.M - params.K
        else:
            be = beta * e_lo
            den = near * (s2 * frame + _fold_users(np.add, be)[..., None] - be) + beta * s2
            gain = params.M - 1
        sinr = np.where(e_hi <= 0, 0.0, gain * beta**2 * r_hi * e_hi / den)
    return (1.0 - a_lo[..., 0]) * np.log2(1.0 + _fold_users(np.minimum, sinr))


def _pruned_pass(params, system, detector, steps, xi_policy, xi_step, a_idx, r_idx, x_idx,
                 inc=None):
    """:func:`_search_pass`'s result over the same lattice, from fewer points.

    The lattice is cut into blocks of ``_BLOCK`` consecutive positions per
    axis.  A block is skipped when its bound from :func:`_block_bounds` lies
    below the incumbent ``inc`` by more than a relative 1e-12, which covers
    rounding; a NaN bound keeps its block.  ``inc`` defaults to the best
    block corner, and those corners count as evaluations.  The bounds are
    computed, and the kept blocks evaluated, in slabs of about
    ``_SLAB_ENTRIES`` entries.  Among equal values the point with the
    smallest flat (C-order) index wins, so ties go as in
    :func:`_search_pass`.
    """
    n_eval = 0
    if inc is None:
        inc, _, n_eval = _search_pass(params, system, detector, steps, xi_policy, xi_step,
                                      a_idx[::_BLOCK], r_idx[::_BLOCK], x_idx[::_BLOCK])
    x_idx, xi_arr = _xi_candidates(params, system, xi_policy, x_idx, xi_step)
    axes = (steps[1] * a_idx, steps[2] * r_idx, xi_arr)
    edges = []  # per axis, each block's smallest and largest values
    for v in axes:
        starts = np.arange(0, len(v), _BLOCK)
        edges.append([np.minimum.reduceat(v, starts, axis=0),
                      np.maximum.reduceat(v, starts, axis=0)])
    rows = max(1, _SLAB_ENTRIES // (len(edges[1][0]) * len(edges[2][0]) * params.K))
    bound = np.concatenate([_block_bounds(params, system, detector,
                                          [v[lo:lo + rows, None, None, None] for v in edges[0]],
                                          [v[None, :, None, None] for v in edges[1]],
                                          [v[None, None] for v in edges[2]])
                            for lo in range(0, len(edges[0][0]), rows)])
    shape = tuple(len(v) for v in axes)
    kept = np.unravel_index(np.flatnonzero(~(bound < inc - 1e-12 * abs(inc))), bound.shape)
    sizes = [min(_BLOCK, n) for n in shape]
    offsets = np.unravel_index(np.arange(sizes[0] * sizes[1] * sizes[2]), sizes)
    group = max(1, _SLAB_ENTRIES // (params.K * offsets[0].size))
    best = None
    for lo in range(0, kept[0].size, group):
        pos = [_BLOCK * b[lo:lo + group, None] + off for b, off in zip(kept, offsets)]
        inside = (pos[0] < shape[0]) & (pos[1] < shape[1]) & (pos[2] < shape[2])
        ia, ir, ix = (p[inside] for p in pos)
        rate = _lattice_rates(params, system, detector, axes[0][ia, None], axes[1][ir, None],
                              xi_arr[ix])
        key = (ia * shape[1] + ir) * shape[2] + ix
        j = int(np.argmax(rate))
        ties = np.flatnonzero(rate == rate[j])
        if ties.size:
            j = int(ties[np.argmin(key[ties])])
        if best is None or rate[j] > best[0] or (rate[j] == best[0] and key[j] < best[2]):
            best = (float(rate[j]), (int(a_idx[ia[j]]), int(r_idx[ir[j]]), int(x_idx[ix[j]])),
                    key[j])
        n_eval += int(np.count_nonzero(rate != -np.inf))
    return *best[:2], n_eval


def grid_search_p1(params: SystemParams, system: str = "wetmm", detector: str = "zf",
                   steps: tuple = DEFAULT_STEPS, xi_policy: str = "analytic",
                   xi_step: float = 0.001, coarse_factor: int = 20,
                   refine_radius: int | None = None) -> OptimizationResult:
    """Coarse-to-fine lattice search for the max-min allocation.

    Args:
        params: system under optimization.
        system: "wetmm", "opmm", or "ideal".
        detector: "zf" or "mrc".
        steps: fine lattice steps for (tau, alpha, rho).
        xi_policy: "analytic" (beam weights fixed at optimal_xi) or
            "simplex" (K = 2 only: xi_1 swept on its own lattice).
        xi_step: fine lattice step for xi_1 under the simplex policy.
        coarse_factor: coarse steps are this multiple of the fine steps;
            1 disables the coarse pass and sweeps the fine lattice directly.
        refine_radius: half-width of the fine re-evaluation box, in coarse
            steps around the incumbent.  Default 10 for the (alpha, rho)
            search and 2 for the simplex search over (alpha, rho, xi_1),
            whose refine box would otherwise dominate the runtime.

    The tau axis is validated and reported but not swept: tau = 0 is the
    exact lattice argmax.  At fixed (alpha, rho, xi) every per-user rate
    has the form rem log2(1 + a / (b rem + d)) with rem = 1 - tau - alpha
    and a, b, d >= 0 independent of tau.  With s = a / (b rem + d), its
    derivative in rem is

        ln(1 + s) - (s / (1 + s)) b rem / (b rem + d) > 0,

    since ln(1 + s) > s / (1 + s) for s > 0 and b rem / (b rem + d) <= 1.
    So every rate, and hence the min rate, strictly decreases in tau, and
    the search runs over (alpha, rho, xi) at tau = 0 only.

    With ``coarse_factor`` > 1, each pass skips blocks of ``_BLOCK``
    consecutive lattice positions per axis whose upper bound lies below the
    pass's incumbent, and returns the same point as the full pass over its
    index sets.  The bound rests on these monotonicities, with rho clamped
    as everywhere (the clamp is nondecreasing):

    - E_k rises in alpha, rho and xi_k.  For wetmm, E_k is the positive
      root of F(E) = Q(rho E) - E, where Q(D) = alpha p beta_k [1 + xi_k
      (M-1) beta_k D / (beta_k D + sigma2)] is positive and nondecreasing
      in alpha, D and xi_k.  F is positive below the root and negative above
      it, so raising alpha, rho or xi_k makes F(E_k) >= 0 at the old root
      and moves the root up.  For opmm, E_k = alpha p beta_k.  Under the
      simplex policy xi_2 = 1 - xi_1, so a box's extreme xi_k are taken per
      user.
    - rem = 1 - alpha falls in alpha, and rem / (1 - rho) is smallest at
      (alpha_hi, rho_lo).
    - In both SINRs the numerator (M-K or M-1) beta_k^2 rho E_k rises in
      rho and E_k, beta_k rho + sigma2 / E_k is smallest at (rho_lo,
      E_hi), load_i = beta_i E_i / (beta_i rho E_i + sigma2) is smallest at
      (E_lo, rho_hi), and the MRC cross term sum_{i != k} beta_i E_i at E_lo.

    Every denominator factor is nonnegative, so each SINR is at most
    sinr_ub_k, its numerator at the favourable corner over its denominator
    factors at theirs, and the min rate rem log2(1 + min_k sinr_k) is at
    most rem_hi log2(1 + min_k sinr_ub_k).  A block is dropped only when
    that bound is below the incumbent by more than a relative 1e-12, which
    covers the rounding of both sides, and the incumbent is a value of the
    pass's own lattice: the coarse winner for the refine box and the best
    block corner for the coarse pass.  So the block holding the pass's
    first maximum is always kept.  ``coarse_factor = 1`` and the ideal
    system keep the full sweep.

    The ideal system has no tau or rho (both are structurally zero), so the
    same pass runs once over its whole (alpha, xi) lattice at rho index 0:
    no coarse pass, and the tau and rho steps do not apply.  Its
    ``grid_steps`` are (alpha[, xi_1]).

    Returns:
        OptimizationResult at the lattice argmax (ties: smallest alpha, then
        rho, then xi_1).

    Raises:
        ValueError: on invalid tags or steps.
    """
    _check_problem(params, system, detector)
    _check_tags(xi_policy=xi_policy)
    if len(steps) != 3:
        raise ValueError("steps must be three positive lattice spacings")
    n_t = _lattice_count(1.0, steps[0], "tau step")
    n_a = _lattice_count(1.0, steps[1], "alpha step")
    n_r = _lattice_count(1.0, steps[2], "rho step", open_end=True)
    if not 0 < xi_step <= 1:
        raise ValueError("xi_step must lie in (0, 1]")
    for name, value, low in (("coarse_factor", coarse_factor, 1), ("refine_radius", refine_radius, 0)):
        if value is not None and not (np.isfinite(value) and value >= low and value == int(value)):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    simplex = system != "opmm" and xi_policy == "simplex"
    n_x = _lattice_count(1.0, xi_step, "xi_step")
    if system == "ideal":
        val, idx, n_eval = _search_pass(params, system, detector, steps, xi_policy, xi_step,
                                        np.arange(n_a + 1), np.array([0]), np.arange(n_x + 1))
    else:
        if refine_radius is None:
            refine_radius = 2 if simplex else 10
        if n_t < 1 or n_a < 1 or n_r < 1:
            raise ValueError("step sizes leave an empty lattice")

        cf = int(coarse_factor)
        a_coarse = np.arange(0, n_a + 1, cf)
        r_coarse = np.arange(cf, n_r + 1, cf)
        if r_coarse.size == 0:
            r_coarse = np.arange(1, n_r + 1)
        x_coarse = np.arange(0, n_x + 1, cf)
        val, idx, n_eval = (_pruned_pass if cf > 1 else _search_pass)(
            params, system, detector, steps, xi_policy, xi_step, a_coarse, r_coarse, x_coarse)

        if cf > 1:
            half = int(refine_radius) * cf
            ba, br, bx = idx
            a_fine = np.arange(max(0, ba - half), min(n_a, ba + half) + 1)
            r_fine = np.arange(max(1, br - half), min(n_r, br + half) + 1)
            x_fine = np.arange(max(0, bx - half), min(n_x, bx + half) + 1)
            val_f, idx_f, n_eval_f = _pruned_pass(params, system, detector, steps, xi_policy,
                                                  xi_step, a_fine, r_fine, x_fine, inc=val)
            n_eval += n_eval_f
            if val_f > val or (val_f == val and idx_f < idx):
                val, idx = val_f, idx_f

    ba, br, bx = idx
    xi_best = _xi_candidates(params, system, xi_policy, np.array([bx]), xi_step)[1][0]
    steps_used = tuple(steps[1:2] if system == "ideal" else steps) + ((xi_step,) if simplex else ())
    alloc = ResourceAllocation(tau=0.0, alpha=steps[1] * ba, rho=steps[2] * br, xi=xi_best)
    rates = closed_form_rate(params, alloc, system, detector)
    return OptimizationResult(
        allocation=alloc, min_rate=float(np.min(rates)), rates=rates,
        detector=detector, system=system, grid_steps=steps_used,
        n_evaluations=n_eval,
    )


def solve_p1_analytic(params: SystemParams, detector: str = "zf",
                      alpha_step: float = 0.0005) -> OptimizationResult:
    """Fast approximate solution built from the analytic components.

    tau = 0 and xi = optimal_xi throughout; rho follows the analytic ZF
    optimum as a function of alpha (or 1/2 for MRC, whose large-array rate
    is rho-independent); alpha comes from a 1-D sweep of
    the closed-form min rate on its fine lattice.  Tracks grid_search_p1
    within a few percent at large M; the full search remains the oracle.
    """
    _check_problem(params, "wetmm", detector)
    if not 0 < alpha_step <= 1:
        raise ValueError("alpha_step must lie in (0, 1]")
    alpha_vals = alpha_step * np.arange(_lattice_count(1.0, alpha_step, "alpha_step") + 1, dtype=float)
    if detector == "zf":
        rho_vals = np.asarray(optimal_rho_zf(params.K, 0.0, alpha_vals))
    else:
        rho_vals = np.full_like(alpha_vals, 0.5)
    sinr = closed_form_sinr(params, "wetmm", detector, 0.0, alpha_vals[:, None],
                            rho_vals[:, None], optimal_xi(params.beta))
    min_rate = _fold_users(np.minimum, (1.0 - alpha_vals)[:, None] * np.log2(1.0 + sinr))
    ia = int(np.argmax(min_rate))
    alloc = ResourceAllocation(tau=0.0, alpha=float(alpha_vals[ia]),
                               rho=float(rho_vals[ia]), xi=optimal_xi(params.beta))
    rates = closed_form_rate(params, alloc, "wetmm", detector)
    return OptimizationResult(
        allocation=alloc, min_rate=float(np.min(rates)), rates=rates,
        detector=detector, system="wetmm", grid_steps=(alpha_step,),
        n_evaluations=int(alpha_vals.size),
    )


def rate_map(params: SystemParams, system: str, detector: str, tau, alpha, rho, xi) -> np.ndarray:
    """Per-user closed-form rates (1 - tau - alpha) log2(1 + sinr) over a grid.

    ``tau``, ``alpha``, ``rho`` and ``xi`` broadcast against each other with
    users on the last axis, e.g. ``tau[:, None, None], alpha[None, :, None]``
    for a (tau, alpha) window or ``rho[:, None]`` for a rho sweep.  Cells
    with tau + alpha > 1 are NaN.

    Raises:
        ValueError: on invalid tags, the ideal system (it has no tau or rho
            axes), or a non-finite argument.
    """
    _check_problem(params, system, detector)
    if system == "ideal":
        raise ValueError("the ideal system has no (tau, rho) axes to map")
    tau, alpha, rho, xi = (np.asarray(v, dtype=float) for v in (tau, alpha, rho, xi))
    if not all(np.all(np.isfinite(v)) for v in (tau, alpha, rho, xi)):
        raise ValueError("tau, alpha, rho and xi must be finite")
    sinr = closed_form_sinr(params, system, detector, tau, alpha, rho, xi)
    rem = 1.0 - tau - alpha
    with np.errstate(invalid="ignore"):
        return np.where(rem >= 0, rem, np.nan) * np.log2(1.0 + np.maximum(sinr, 0.0))
