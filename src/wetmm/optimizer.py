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

The search lattice is the set of integer multiples of the step sizes.
:func:`grid_search_p1` holds the search's method, its proofs and its
batching over antenna counts, which the experiments that sweep M
(``rate-vs-m``, ``table1``, ``fairness``) use for their whole antenna grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from wetmm.energy import ResourceAllocation, _energies, clamp_rho
from wetmm.rates import (_check_model, _closed_form_sinr, _fold_users, _rate_phase, _sinr,
                         closed_form_rate, closed_form_sinr)
from wetmm.sysmodel import SystemParams, _check_count, _check_finite, _check_tags

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
# A search pass computes its block bounds in slabs of about this many blocks
# and evaluates its kept points in groups of at most this many (point, user)
# entries, which caps the memory of its temporaries.
_SLAB_ENTRIES = 2 ** 13
# A search pass with an incumbent bounds and evaluates the objective over
# blocks of this many consecutive lattice positions per axis.
_BLOCK = 4


@dataclass
class OptimizationResult:
    """Outcome of a max-min rate search.

    Attributes:
        allocation: the best allocation found.
        min_rate: minimum per-user rate at that allocation, bits/s/Hz.
        rates: length-K per-user rates at that allocation.
        n_evaluations: number of objective evaluations at feasible
            lattice points, all levels combined: every point of the corner
            level and the points of the other passes' kept blocks, not the
            block bounds.  The lattice searches tau = 0 only, so
            these are (alpha, rho[, xi]) points.
    """

    allocation: ResourceAllocation
    min_rate: float
    rates: np.ndarray
    n_evaluations: int


def optimal_xi(beta) -> np.ndarray:
    """Beam weights equalizing the large-array per-user rates.

    xi_k proportional to 1/beta_k^2, normalized to the simplex.  Weaker
    users get more downlink energy because their uplink SINR scales with
    beta_k^2 xi_k.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.size == 0:
        raise ValueError("beta must be a nonempty 1-D vector")
    _check_finite("beta", beta, "positive")
    w = 1.0 / beta**2
    return w / w.sum()


def optimal_rho_zf(K: int, tau, alpha):
    """Energy split maximizing the large-array zero-forcing rate.

        rho* = sqrt(K) / (sqrt(K) + sqrt(1 - tau - alpha))

    Broadcasts over tau and alpha, which must be finite and nonnegative.
    """
    _check_count("K", K, 1)
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
    _check_finite(name, step, "positive")
    count = span / step
    if not np.isfinite(count):
        raise ValueError(f"{name} {step!r} is too small: {span!r} / {name} is not finite")
    return int(np.ceil(count - 1e-9)) - 1 if open_end else int(np.floor(count + 1e-9))


def _grid(span: float, step: float, name: str) -> np.ndarray:
    """0, step, 2 step, ... up to span, which counts when within 1e-9 steps."""
    return step * np.arange(0, _lattice_count(span, step, name) + 1)


def _xi_candidates(params: SystemParams, system: str, xi_policy: str, n_x: int,
                   xi_step: float) -> np.ndarray:
    """The (n, K) candidates of the xi axis: one row where the system or
    policy fixes xi, else the n_x + 1 points xi_1 = xi_step * i of the
    simplex lattice."""
    if system == "opmm":
        return np.full((1, params.K), 1.0 / params.K)
    if xi_policy == "analytic":
        return optimal_xi(params.beta)[None, :]
    if params.K != 2:
        raise ValueError("simplex xi search is implemented for K = 2 only")
    xi1 = xi_step * np.arange(n_x + 1)
    return np.stack([xi1, 1.0 - xi1], axis=-1)


def _lattice_rates(params, system, detector, M, alpha, rho, xi):
    """Min rate at tau = 0 of lattice points given by broadcasting ``alpha``,
    ``rho`` and the antenna count ``M`` against ``xi``, which has users on
    axis 0 and the full rank (the others have no user axis); -inf where
    alpha > 1 leaves no data phase.  No checks: the search makes them once."""
    beta = params.beta.reshape((-1,) + (1,) * (xi.ndim - 1))
    sinr = _closed_form_sinr(params, system, detector, M, beta, 0.0, alpha, clamp_rho(rho), xi)
    rem = 1.0 - alpha
    with np.errstate(invalid="ignore"):
        return np.where(rem >= 0.0, rem * np.log2(1.0 + _fold_users(np.minimum, sinr)), -np.inf)


def _block_bounds(params, system, detector, M, alpha, rho, xi):
    """Upper bounds on the tau = 0 min rate over boxes of lattice points.

    ``alpha``, ``rho`` and ``xi`` are (smallest, largest) pairs over each
    box, broadcasting with ``M`` as in :func:`_lattice_rates` with users on
    axis 0; xi's pair is per user.  The energies are taken at both ends of
    the box and the SINR is :func:`wetmm.rates._sinr` at those ends, which
    puts each monotone factor at its favourable corner (see
    :func:`grid_search_p1`).
    """
    (a_lo, a_hi), (r_lo, r_hi), (x_lo, x_hi) = alpha, (clamp_rho(r) for r in rho), xi
    beta = params.beta.reshape((-1,) + (1,) * (x_lo.ndim - 1))
    e_lo = _energies(params, system, M, beta, a_lo, r_lo, x_lo)
    e_hi = _energies(params, system, M, beta, a_hi, r_hi, x_hi)
    sinr = _sinr(detector, M, params.K, beta, params.sigma2_ul,
                 e_lo, e_hi, r_lo, r_hi, np.maximum(1.0 - a_hi, 0.0))
    return (1.0 - a_lo) * np.log2(1.0 + _fold_users(np.minimum, sinr))


def _blocks(rows):
    """Each row of a (P, n) index array cut into blocks of ``_BLOCK``
    consecutive positions (or n, if fewer), a short last block repeating the
    row's last entry as a short row already does.  Returns the (width, P,
    blocks) entries, position in the block first, and the mask of each
    entry's first position."""
    n = rows.shape[1]
    width = min(_BLOCK, n)
    padded = rows[:, np.minimum(np.arange(-(-n // width) * width), n - 1)]
    first = np.ones(padded.shape, dtype=bool)
    first[:, 1:] = padded[:, 1:] != padded[:, :-1]
    return (v.reshape(len(rows), -1, width).transpose(2, 0, 1) for v in (padded, first))


def _starts(ids):
    """Index of the first entry of each run of equal entries of ``ids``."""
    return np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))


def _segment_best(starts, value, key):
    """Per segment of the columns of the 2-D ``value``, beginning at the
    column indices ``starts``: its largest entry (NaN counts as largest, as
    for np.argmax) and the smallest ``key`` among the entries equal to it."""
    top = np.maximum.reduceat(value.max(axis=0), starts)
    tie = (value == np.repeat(top, np.diff(np.append(starts, value.shape[1])))) | (value != value)
    return top, np.minimum.reduceat(np.where(tie, key, np.iinfo(key.dtype).max).min(axis=0),
                                    starts)


def _search_pass(params, system, detector, steps, xi, M, idx, inc):
    """Best (alpha, rho, xi) lattice point at tau = 0 of each of P problems
    that differ only in their antenna count.

    ``M`` and the incumbents ``inc`` are length P.  ``idx`` holds per axis a
    (P, n) array of each problem's increasing alpha, rho and xi lattice
    indices, the xi ones indexing the rows of ``xi``, the search's (n, K)
    xi lattice; a row with fewer than n indices repeats its last one.
    Returns the best values, a tuple of alpha, rho and xi lattice indices
    and the evaluation counts, each length P.

    Each row is cut into blocks of ``_BLOCK`` consecutive positions.  A
    block is skipped when its bound from :func:`_block_bounds` lies below
    its problem's incumbent by more than a relative 1e-12, which covers
    rounding; a NaN bound keeps its block.  An incumbent of -inf prunes
    nothing, and when every incumbent is -inf no bound is computed.  The
    bounds of all problems' blocks, one problem-major grid, are computed in
    slabs of about ``_SLAB_ENTRIES`` blocks.  The kept blocks' points are
    evaluated in groups of at most ``_SLAB_ENTRIES`` (point, user) entries,
    as 1-D operands with one antenna count per point.  A group's points are
    ordered by their offset within their block, then by block, so every
    array of a group has its blocks on the last axis.  Each problem's
    winner is its largest value, ties going to the smallest flat (C-order)
    index of its own lattice, as np.argmax picks over that lattice.  Every
    problem keeps the block that holds its incumbent's point, so each has
    a winner.
    """
    (ia, ua), (ir, ur), (ix, ux) = (_blocks(v) for v in idx)
    P, K, xi_t = len(M), params.K, xi.T
    # per block: its feasible (alpha <= 1) alphas and its rhos and xis
    counts = [np.sum(ua & (1.0 - steps[1] * ia >= 0.0), axis=0), ur.sum(axis=0), ux.sum(axis=0)]
    keep = (ua.any(axis=0)[:, :, None, None] & ur.any(axis=0)[:, None, :, None]
            & ux.any(axis=0)[:, None, None, :])
    if not np.all(inc == -np.inf):
        # per block: its smallest and largest values (a positive step keeps
        # the order of the indices); one row per (problem, alpha block)
        a, r = [(step * v.min(axis=0), step * v.max(axis=0)) for step, v in zip(steps[1:], (ia, ir))]
        x = [f(xi_t[:, ix], axis=1) for f in (np.min, np.max)]
        rows = max(1, _SLAB_ENTRIES // (keep.shape[2] * keep.shape[3]))
        owner = np.repeat(np.arange(P), keep.shape[1])
        bound = np.concatenate([
            _block_bounds(params, system, detector, M[p, None, None],
                          [v.reshape(-1)[lo:lo + rows, None, None] for v in a],
                          [v[p, :, None] for v in r], [v[:, p, None, :] for v in x])
            for lo in range(0, owner.size, rows) for p in [owner[lo:lo + rows]]])
        keep &= ~(bound.reshape(keep.shape) < (inc - 1e-12 * abs(inc))[:, None, None, None])
    kept, n_eval = np.flatnonzero(keep), np.zeros(P)
    # a point's key is its flat lattice index, C order over (alpha, rho, xi) indices
    n_r, n_x = int(ir.max()) + 1, len(xi)
    width = (len(ia), len(ir), len(ix))
    group = max(1, _SLAB_ENTRIES // (K * int(np.prod(width))))
    best = []  # per group and problem: (problem, value, key)
    for lo in range(0, kept.size, group):
        gp, ga, gr, gx = np.unravel_index(kept[lo:lo + group], keep.shape)
        n_eval += np.bincount(gp, counts[0][gp, ga] * counts[1][gp, gr] * counts[2][gp, gx], P)
        shape = (*width, gp.size)
        ja, jr, jx = ia[:, gp, ga][:, None, None], ir[:, gp, gr][:, None], ix[:, gp, gx]
        key = ((ja * n_r + jr) * n_x + jx).reshape(-1, gp.size)
        rate = _lattice_rates(
            params, system, detector, np.broadcast_to(M[gp], shape).reshape(-1),
            *(np.broadcast_to(v, shape).reshape(-1) for v in (steps[1] * ja, steps[2] * jr)),
            np.broadcast_to(xi_t[:, None, None, jx], (K, *shape)).reshape(K, -1))
        starts = _starts(gp)
        best.append((gp[starts], *_segment_best(starts, rate.reshape(key.shape), key)))
    owner, value, key = (np.concatenate(v) for v in zip(*best))
    if len(best) > 1:  # a problem's kept blocks may span groups
        order = np.argsort(owner, kind="stable")
        value, key = _segment_best(_starts(owner[order]), value[None, order], key[None, order])
    a_idx, rest = np.divmod(key, n_r * n_x)
    return value, (a_idx, *np.divmod(rest, n_x)), n_eval.astype(int)


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

    Each pass skips blocks of ``_BLOCK`` consecutive lattice positions per
    axis whose upper bound lies below the pass's incumbent, and returns the
    point that evaluating all of its index sets would.  The bound rests on
    these monotonicities, with rho clamped as everywhere (the clamp is
    nondecreasing):

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
    most rem_hi log2(1 + min_k sinr_ub_k).  sinr_ub_k is
    :func:`wetmm.rates._sinr` at these corners, the kernel of every point.  A
    block is dropped only when that bound is below the incumbent by more than
    a relative 1e-12, which covers the rounding of both sides, and the
    incumbent is a value of the pass's own lattice: the best coarse block
    corner (a sweep of positions 0, 4, 8, ... of each coarse axis) for the
    coarse pass and the coarse winner for the refine box.  So the block
    holding the pass's first maximum is always kept.  The refine box holds
    the coarse winner, so its winner is at least as good and is the search's
    result.  With ``coarse_factor = 1`` the one pass evaluates every block.

    The ideal system has no tau or rho (both are structurally zero), so the
    same pass, without an incumbent, runs once over its whole (alpha, xi)
    lattice at rho index 0: no coarse pass, and the tau and rho steps do not
    apply.

    The levels are batched: a search over several antenna counts runs the
    corner level, the coarse pass and the refine box once each for all of
    them, with one index set, incumbent and winner per antenna count, and
    returns for each exactly what its own search would.  This function is
    the batch of one.

    Returns:
        OptimizationResult at the lattice argmax (ties: smallest alpha, then
        rho, then xi_1).

    Raises:
        ValueError: on invalid tags or steps, or when the winner's min rate
            is not finite (the scenario's energies or SINRs overflow).
    """
    return _grid_search(params, [params.M], system, detector, steps, xi_policy, xi_step,
                        coarse_factor, refine_radius)[0]


def _grid_search(params, m_values, system, detector, steps, xi_policy, xi_step, coarse_factor,
                 refine_radius) -> list:
    """:func:`grid_search_p1` of ``params`` at each antenna count of
    ``m_values``, with each level run once for all of them.

    Raises:
        ValueError: as :func:`grid_search_p1` does, or on an empty batch.
    """
    _check_count("number of antenna counts", len(m_values), 1)
    problems = [replace(params, M=m) for m in m_values]
    for p in problems:
        _check_model(p, system, detector)
    _check_tags(xi_policy=xi_policy)
    if len(steps) != 3:
        raise ValueError("steps must be three positive lattice spacings")
    n_t = _lattice_count(1.0, steps[0], "tau step")
    n_a = _lattice_count(1.0, steps[1], "alpha step")
    n_r = _lattice_count(1.0, steps[2], "rho step", open_end=True)
    if not 0 < xi_step <= 1:
        raise ValueError("xi_step must lie in (0, 1]")
    _check_count("coarse_factor", coarse_factor, 1)
    if refine_radius is not None:
        _check_count("refine_radius", refine_radius, 0)
    simplex = system != "opmm" and xi_policy == "simplex"
    n_x = _lattice_count(1.0, xi_step, "xi_step")
    if system == "ideal":
        cf, r_coarse = 1, np.array([0])
    else:
        if n_t < 1 or n_a < 1 or n_r < 1:
            raise ValueError("step sizes leave an empty lattice")
        cf = int(coarse_factor)
        r_coarse = np.arange(cf, n_r + 1, cf) if cf <= n_r else np.arange(1, n_r + 1)
    xi = _xi_candidates(params, system, xi_policy, n_x, xi_step)
    M = np.array(m_values)
    coarse = [np.broadcast_to(v, (len(M), v.size))
              for v in (np.arange(0, n_a + 1, cf), r_coarse, np.arange(0, len(xi), cf))]
    # corner level, coarse pass, refine box: each against the values before it.
    # An energy that overflows to inf makes its points' values inf or NaN, and
    # such a value wins its problem (NaN counts as largest), so the winner
    # check below reports the overflow in place of numpy's warning
    val, n_eval = np.full(len(M), -np.inf), 0
    with np.errstate(over="ignore"):
        if cf > 1:
            val, _, n_eval = _search_pass(params, system, detector, steps, xi, M,
                                          [v[:, ::_BLOCK] for v in coarse], val)
        val, idx, n = _search_pass(params, system, detector, steps, xi, M, coarse, val)
        n_eval += n
        if cf > 1:
            half = int((2 if simplex else 10) if refine_radius is None else refine_radius) * cf
            fine = []
            for i, low, top in zip(idx, (0, 1, 0), (n_a, n_r, len(xi) - 1)):
                lo, hi = np.maximum(low, i - half), np.minimum(top, i + half)
                fine.append(np.minimum(lo[:, None] + np.arange(np.max(hi - lo) + 1),
                                       hi[:, None]))
            val, idx, n = _search_pass(params, system, detector, steps, xi, M, fine, val)
            n_eval += n

    results = []
    for p, v, ba, br, bx, n in zip(problems, *(v.tolist() for v in (val, *idx, n_eval))):
        alloc = ResourceAllocation(tau=0.0, alpha=steps[1] * ba, rho=steps[2] * br, xi=xi[bx])
        _check_finite(f"the min rate {v} of the search's winner at M = {p.M} (alpha "
                      f"{alloc.alpha:g}, rho {alloc.rho:g}, xi {alloc.xi.tolist()})", v)
        rates = closed_form_rate(p, alloc, system, detector)
        results.append(OptimizationResult(allocation=alloc, min_rate=float(np.min(rates)),
                                          rates=rates, n_evaluations=n))
    return results


def solve_p1_analytic(params: SystemParams, detector: str = "zf",
                      alpha_step: float = 0.0005) -> OptimizationResult:
    """Fast approximate solution built from the analytic components.

    tau = 0 and xi = optimal_xi throughout; rho follows the analytic ZF
    optimum as a function of alpha (or 1/2 for MRC, whose large-array rate
    is rho-independent); alpha comes from a 1-D sweep of the search's
    closed-form min rate on its fine lattice.  Tracks grid_search_p1
    within a few percent at large M; the full search remains the oracle.
    """
    _check_model(params, "wetmm", detector)
    if not 0 < alpha_step <= 1:
        raise ValueError("alpha_step must lie in (0, 1]")
    alpha_vals = _grid(1.0, alpha_step, "alpha_step")
    rho_vals = (np.asarray(optimal_rho_zf(params.K, 0.0, alpha_vals)) if detector == "zf"
                else np.full_like(alpha_vals, 0.5))
    xi = optimal_xi(params.beta)
    ia = int(np.argmax(_lattice_rates(params, "wetmm", detector, params.M, alpha_vals, rho_vals,
                                      xi[:, None])))
    alloc = ResourceAllocation(tau=0.0, alpha=float(alpha_vals[ia]), rho=float(rho_vals[ia]), xi=xi)
    rates = closed_form_rate(params, alloc, "wetmm", detector)
    return OptimizationResult(allocation=alloc, min_rate=float(np.min(rates)), rates=rates,
                              n_evaluations=int(alpha_vals.size))


def rate_map(params: SystemParams, system: str, detector: str, tau, alpha, rho, xi) -> np.ndarray:
    """Per-user closed-form rates (1 - tau - alpha) log2(1 + sinr) over a grid.

    ``tau``, ``alpha``, ``rho`` and ``xi`` broadcast against each other with
    users on the last axis, e.g. ``tau[:, None, None], alpha[None, :, None]``
    for a (tau, alpha) window or ``rho[:, None]`` for a rho sweep.  Cells
    with tau + alpha > 1 are NaN.

    Raises:
        ValueError: on invalid tags, the ideal system (it has no tau or rho
            axes), a non-finite entry, an entry that
            :func:`wetmm.rates.closed_form_sinr` refuses, or a rate inside
            the frame that is not finite (the scenario's energies or SINRs
            overflow), naming the first such cell and its inputs.
    """
    if system == "ideal":
        raise ValueError("the ideal system has no (tau, rho) axes to map")
    tau, alpha, rho, xi = (np.asarray(v, dtype=float) for v in (tau, alpha, rho, xi))
    for name, v in zip(("tau", "alpha", "rho", "xi"), (tau, alpha, rho, xi)):
        _check_finite(name, v)
    outside = tau + alpha > 1.0 + 1e-12
    # an overflow gives inf or NaN rates, refused below in place of numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        sinr = closed_form_sinr(params, system, detector, tau, alpha, rho, xi)
        rates = (np.where(outside, np.nan, _rate_phase(system, tau, alpha))
                 * np.log2(1.0 + np.maximum(sinr, 0.0)))
    # the first NaN inside the frame, else its largest rate (NaN counts as largest)
    inside = np.where(outside, 0.0, rates)
    if inside.size:
        cell = np.unravel_index(np.argmax(inside), inside.shape)
        t, a, r = (np.broadcast_to(v, inside.shape)[cell] for v in (tau, alpha, rho))
        x = np.broadcast_to(xi, inside.shape)[cell[:-1]].tolist()
        _check_finite(f"the rate {inside[cell]} of user {cell[-1] + 1} at M = {params.M} "
                      f"(tau {t:g}, alpha {a:g}, rho {r:g}, xi {x})", inside[cell])
    return rates
