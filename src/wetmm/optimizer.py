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
Only tau = 0 is evaluated, since it is the exact argmax over tau (see
:func:`grid_search_p1`).  The perfect-knowledge ("ideal") system has no tau
or rho, so the same pass runs once over its whole (alpha, xi) lattice at
rho index 0.  Ties are broken toward smaller alpha, then rho, then xi_1,
and the reduction is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wetmm.energy import ResourceAllocation
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
        n_evaluations: number of feasible lattice points at which the
            objective was evaluated (coarse and fine passes combined); the
            lattice searches tau = 0 only, so these are (alpha, rho[, xi])
            points.
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

    Broadcasts over tau and alpha, which must be finite.
    """
    if K < 1:
        raise ValueError("need at least one user")
    rem = 1.0 - np.asarray(tau, dtype=float) - np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(rem) & (rem >= 0)):
        raise ValueError("tau + alpha must not exceed 1 and must be finite")
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
        sinr = closed_form_sinr(params, system, detector, 0.0, alpha, rho, xi_arr[None, None])
        rem = 1.0 - alpha[..., 0]
        with np.errstate(invalid="ignore"):
            rate = np.where(rem >= 0.0, rem * np.log2(1.0 + _fold_users(np.minimum, sinr)), -np.inf)
        j = int(np.argmax(rate))
        if best is None or rate.flat[j] > best[0]:
            ia, ir, ix = np.unravel_index(j, rate.shape)
            best = (float(rate.flat[j]), (int(a_idx[lo + ia]), int(r_idx[ir]), int(x_idx[ix])))
        n_eval += int(np.count_nonzero(rem >= 0.0)) * r_idx.size * x_idx.size
    return *best, n_eval


def grid_search_p1(params: SystemParams, system: str = "wetmm", detector: str = "zf",
                   steps: tuple = DEFAULT_STEPS, xi_policy: str = "analytic",
                   xi_step: float = 0.001, coarse_factor: int = 20,
                   refine_radius: int | None = None) -> OptimizationResult:
    """Exhaustive coarse-to-fine lattice search for the max-min allocation.

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
        val, idx, n_eval = _search_pass(params, system, detector, steps, xi_policy,
                                        xi_step, a_coarse, r_coarse, x_coarse)

        if cf > 1:
            half = int(refine_radius) * cf
            ba, br, bx = idx
            a_fine = np.arange(max(0, ba - half), min(n_a, ba + half) + 1)
            r_fine = np.arange(max(1, br - half), min(n_r, br + half) + 1)
            x_fine = np.arange(max(0, bx - half), min(n_x, bx + half) + 1)
            val_f, idx_f, n_eval_f = _search_pass(params, system, detector, steps, xi_policy,
                                                  xi_step, a_fine, r_fine, x_fine)
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
