"""Closed-form achievable-rate lower bounds and their large-array limits.

All rates are ergodic achievable rates in bits/s/Hz (base-2 logs) for the
uplink data phase, computed from steady-state energies.  The finite-M
expressions are Jensen-type lower bounds on the exact ergodic rate under
MMSE channel knowledge; Monte Carlo validation of the gap lives in
:mod:`wetmm.montecarlo`.

Zero-forcing, with rem = 1 - tau - alpha:

    sinr_k = (M-K) beta_k^2 rho E_k /
             { sigma2 (beta_k rho + sigma2/E_k)
               [ rem/(1-rho) + sum_i beta_i E_i/(beta_i rho E_i + sigma2) ] }

Maximum-ratio combining:

    sinr_k = (M-1) beta_k^2 rho E_k /
             { (beta_k rho + sigma2/E_k)
               [ sigma2 rem/(1-rho) + sum_{i != k} beta_i E_i ]
               + beta_k sigma2 }

Both hold for any per-user energy vector E, which is how the isotropic
benchmark ("opmm": E = alpha p_dl beta) reuses the same code path.  The
private ``_sinr`` computes both, at a point or as the search's block bound,
with users on axis 0; :func:`closed_form_sinr`, at the energies of a
system, is its public entry, with users on the last axis.
With perfect knowledge ("ideal": tau = rho = 0, no estimation error),

    zf:  sinr_k = (M-K) beta_k E_k / ((1-alpha) sigma2)
    mrc: sinr_k = (M-1) beta_k E_k / (sum_{i != k} beta_i E_i + (1-alpha) sigma2)
"""

from __future__ import annotations

import functools

import numpy as np

from wetmm.energy import ResourceAllocation, _check_fractions, _energies, clamp_rho
from wetmm.sysmodel import SystemParams, _check_count, _check_finite, _check_tags, _check_users

__all__ = [
    "closed_form_sinr",
    "asymptotic_zf_rate",
    "asymptotic_mrc_rate",
    "maxmin_asymptotic_rate",
    "ideal_asymptotic_rate",
    "closed_form_rate",
    "mm_dorg",
    "large_k_rate",
    "user_load_for_rate",
    "c1_limit",
    "c1_sample",
]


def _data_phase(system: str, tau, alpha):
    """Data-phase fraction: 1 - tau - alpha, or 1 - alpha for the ideal
    system, which has no estimation phase."""
    return 1.0 - alpha if system == "ideal" else 1.0 - tau - alpha


def _rate_phase(system: str, tau, alpha):
    """The :func:`_data_phase` that multiplies a rate: exactly 0 where it is
    at most 1e-12, ResourceAllocation's tolerance at the frame edge, so an
    allocation on the edge rates 0 however its fractions round (1 - 0.9 -
    0.1 is -2.8e-17 and 1 - 0.7 - 0.3 is 5.6e-17)."""
    rem = _data_phase(system, tau, alpha)
    return np.where(rem > 1e-12, rem, 0.0)


def _users_first(n: int, *arrays) -> list:
    """Users-last ``arrays`` (a scalar broadcasts) as rank-``n`` float arrays
    with users on axis 0; one of higher rank only has its last axis moved.
    Plain transposes: np.moveaxis costs several times as much."""
    out = []
    for a in arrays:
        a = np.asarray(a, dtype=float)
        a = a.reshape((1,) * (n - a.ndim) + a.shape)
        out.append(a.transpose(a.ndim - 1, *range(a.ndim - 1)))
    return out


def _users_last(x):
    """The users-first ``x`` with its user axis moved from the front to the end."""
    return x.transpose(*range(1, x.ndim), 0)


def _check_model(params: SystemParams, system: str, detector: str) -> None:
    """Refuse unknown system or detector tags and ZF below M = K + 1."""
    _check_tags(system=system, detector=detector)
    if detector == "zf":
        params.require_zf()


def _fold_users(ufunc, x):
    """``ufunc`` folded left to right over the leading user axis of ``x``:
    ``ufunc(ufunc(x[0], x[1]), x[2])`` and so on.

    Each step is one elementwise call over a whole user slice, so on a
    search slab the fold costs K - 1 ufunc calls, where numpy's reduction
    over a short trailing user axis makes one inner-loop call per output
    element.  With ``np.add`` the result equals numpy's sum over the user
    axis bit for bit for K <= 7 (numpy sums 8 or more contiguous terms
    pairwise); with ``np.minimum`` it equals the values of numpy's min.
    """
    return functools.reduce(ufunc, x)


def _sinr(detector: str, M, K: int, beta, sigma2_ul, e_lo, e_hi, rho_lo, rho_hi, rem):
    """Finite-M ZF or MRC SINR, each monotone factor at its own corner: the
    numerator at (rho_hi, e_hi), beta rho + sigma2/E at (rho_lo, e_hi),
    rem/(1 - rho) at rho_lo, the ZF load and MRC cross term at (e_lo,
    rho_hi).  At one point (lo = hi) it is the SINR; over a box, the bound
    proved in :func:`wetmm.optimizer.grid_search_p1`.  e_hi = 0 gives 0.

    Users sit on axis 0: ``e_lo`` and ``e_hi`` carry it at the full rank,
    ``beta`` is shaped (K, 1, ...) to that rank, and ``rho_lo``, ``rho_hi``,
    ``rem`` and the antenna count ``M`` broadcast against the rest, so the
    sums over users need no re-expansion.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        near = beta * rho_lo + sigma2_ul / e_hi
        if detector == "zf":
            load = beta * e_lo / (beta * rho_hi * e_lo + sigma2_ul)
            den = sigma2_ul * near * (rem / (1.0 - rho_lo) + _fold_users(np.add, load))
            gain = M - K
        else:
            be = beta * e_lo
            cross = _fold_users(np.add, be) - be
            den = near * (sigma2_ul * rem / (1.0 - rho_lo) + cross) + beta * sigma2_ul
            gain = M - 1
        sinr = gain * beta**2 * rho_hi * e_hi / den
    return np.where(e_hi <= 0, 0.0, sinr)


def _closed_form_sinr(params: SystemParams, system: str, detector: str, M, beta, tau, alpha,
                      rho, xi):
    """:func:`closed_form_sinr` with users on axis 0 and no checks: the
    operands, ``M``, ``beta`` and the clamped ``rho`` as in
    :func:`wetmm.energy._energies`, ``tau`` broadcasting like ``alpha``."""
    e = _energies(params, system, M, beta, alpha, rho, xi)
    K, s2 = params.K, params.sigma2_ul
    rem = _data_phase(system, tau, alpha)
    if system != "ideal":
        return _sinr(detector, M, K, beta, s2, e, e, rho, rho, rem)
    with np.errstate(divide="ignore", invalid="ignore"):
        if detector == "zf":
            sinr = e * (M - K) * beta / (rem * s2)
        else:
            be = e * beta
            cross = _fold_users(np.add, be) - be
            sinr = e * (M - 1) * beta / (cross + rem * s2)
    return np.where(rem <= 0, 0.0, sinr)


def closed_form_sinr(params: SystemParams, system: str, detector: str, tau, alpha, rho, xi):
    """Per-user closed-form SINR of a (system, detector) pair.

    ``tau``, ``alpha``, ``rho`` and ``xi`` broadcast against each other with
    users on the last axis.  Energies come from :func:`wetmm.energy.energies`
    at rho clamped to [RHO_CLAMP, 1 - RHO_CLAMP].  The "ideal" system
    ignores tau and rho, and its SINR is zero where alpha = 1 leaves no data
    phase.  tau + alpha > 1 is allowed (callers such as
    :func:`wetmm.optimizer.rate_map` mark it), and a NaN argument that the
    system uses gives a NaN SINR.

    Raises:
        ValueError: on invalid tags, ZF below M = K + 1, a negative tau or
            alpha, rho outside [0, 1], or beam weights that are negative,
            do not sum to 1 over the users within 1e-9 or do not have K
            entries on the last axis.
    """
    _check_model(params, system, detector)
    tau, alpha, rho, xi = (np.asarray(v, dtype=float) for v in (tau, alpha, rho, xi))
    _check_users(xi, params.K)
    _check_fractions(rho, tau, alpha)
    if (xi < 0).any() or (abs(np.atleast_1d(xi).sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("beam weights must be nonnegative and sum to 1 over the users")
    used = {"wetmm": (tau, alpha, rho, xi), "opmm": (tau, alpha, rho), "ideal": (alpha, xi)}[system]
    n = max(1, *map(np.ndim, used))
    beta, tau, alpha, rho, xi = _users_first(n, params.beta, tau, alpha, rho, xi)
    return _users_last(_closed_form_sinr(params, system, detector, params.M, beta, tau, alpha,
                                         clamp_rho(rho), xi))


def asymptotic_zf_rate(params: SystemParams, alloc: ResourceAllocation) -> np.ndarray:
    """Large-array zero-forcing rate.

        rem log2(1 + M (M-K) alpha p_dl beta_k^2 xi_k rho /
                     (sigma2 [K + rem rho / (1-rho)]))

    The expression vanishes at both rho endpoints; rho = 1 is evaluated
    just inside the boundary to keep the division finite.  The outer rem is
    :func:`_rate_phase`'s, so an allocation within 1e-12 of the frame edge
    rates exactly 0.
    """
    params.require_zf()
    _check_users(alloc.xi, params.K)
    rem = 1.0 - alloc.tau - alloc.alpha
    rho = min(float(alloc.rho), 1.0 - 1e-12)
    num = params.M * (params.M - params.K) * alloc.alpha * params.p_dl * params.beta**2 * alloc.xi * rho
    den = params.sigma2_ul * (params.K + rem * rho / (1.0 - rho))
    return _rate_phase("wetmm", alloc.tau, alloc.alpha) * np.log2(1.0 + num / den)


def asymptotic_mrc_rate(params: SystemParams, alloc: ResourceAllocation) -> np.ndarray:
    """Large-array MRC rate: interference-limited and independent of rho.

        rem log2(1 + (M-1) beta_k^2 xi_k / sum_{i != k} beta_i^2 xi_i)

    With a single user the interference sum is empty and the limit is
    unbounded; the rate is then infinite rather than raising, since that is
    the honest value of the limit.  The outer rem is :func:`_rate_phase`'s,
    so an allocation within 1e-12 of the frame edge rates exactly 0, the
    single user's unbounded limit included.
    """
    _check_users(alloc.xi, params.K)
    w = params.beta**2 * alloc.xi
    cross = w.sum() - w
    rem = _rate_phase("wetmm", alloc.tau, alloc.alpha)
    with np.errstate(divide="ignore", invalid="ignore"):  # invalid: 0 x inf on the edge
        sinr = np.where(cross > 0, (params.M - 1) * w / np.where(cross > 0, cross, 1.0), np.inf)
        return np.where(rem > 0.0, rem * np.log2(1.0 + sinr), 0.0)


def maxmin_asymptotic_rate(params: SystemParams, detector: str) -> float:
    """Upper bound on the optimized max-min rate that no allocation reaches:
    alpha = 1 inside the log and a full data phase outside.

        zf:  log2(1 + M^2 p_dl / (sigma2 (sqrt(K)+1)^2 sum_i 1/beta_i^2))
        mrc: log2(1 + (M-1)/(K-1)),  unbounded at K = 1.
    """
    _check_tags(detector=detector)
    if detector == "zf":
        params.require_zf()
        gamma = params.M**2 * params.p_dl / (
            params.sigma2_ul * (np.sqrt(params.K) + 1.0) ** 2 * np.sum(1.0 / params.beta**2)
        )
        return float(np.log2(1.0 + gamma))
    if params.K == 1:
        return float("inf")
    return float(np.log2(1.0 + (params.M - 1) / (params.K - 1)))


def ideal_asymptotic_rate(params: SystemParams, alpha: float, detector: str) -> float:
    """Large-array limit of the perfect-knowledge max-min rate.

        zf:  (1-alpha) log2(1 + alpha p_dl M (M-K) /
                                 (sigma2 (1-alpha) sum_i 1/beta_i^2))
        mrc: (1-alpha) log2(1 + (M-1)/(K-1)),  unbounded at K = 1.
    """
    _check_tags(detector=detector)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if detector == "zf":
        params.require_zf()
        gamma = alpha * params.p_dl * params.M * (params.M - params.K) / (
            params.sigma2_ul * (1.0 - alpha) * np.sum(1.0 / params.beta**2)
        )
        return float((1.0 - alpha) * np.log2(1.0 + gamma))
    if params.K == 1:
        return float("inf")
    return float((1.0 - alpha) * np.log2(1.0 + (params.M - 1) / (params.K - 1)))


def closed_form_rate(params: SystemParams, alloc: ResourceAllocation, system: str, detector: str) -> np.ndarray:
    """Closed-form length-K rates (1 - tau - alpha) log2(1 + sinr) at one allocation.

    For the "ideal" system the allocation's tau and rho are ignored (both
    are structurally zero with perfect channel knowledge).  An allocation
    within 1e-12 of the frame edge has no data phase and rates exactly 0.
    ValueError if the allocation's xi does not have K entries.
    """
    _check_model(params, system, detector)
    _check_users(alloc.xi, params.K)
    # the allocation is validated and its xi is 1-D, users-first already
    sinr = _closed_form_sinr(params, system, detector, params.M, params.beta, alloc.tau,
                             alloc.alpha, clamp_rho(alloc.rho), alloc.xi)
    return _rate_phase(system, alloc.tau, alloc.alpha) * np.log2(1.0 + sinr)


def _top_decade(m_values: np.ndarray) -> np.ndarray:
    """Mask of the antenna counts in the grid's largest decade, M >= max(M)/10."""
    return m_values >= np.max(m_values, initial=0.0) / 10.0


def mm_dorg(rates, m_values) -> float:
    """Rate growth exponent: least-squares slope of rate versus log2(M).

    Fitted over the largest decade of the antenna grid (M >= max(M)/10),
    where the curves are in their scaling regime.  A slope of 2 means the
    rate grows like 2 log2 M (quadratic SINR growth in M); 1 means linear.
    """
    rates = np.asarray(rates, dtype=float)
    m_values = np.asarray(m_values, dtype=float)
    if rates.shape != m_values.shape:
        raise ValueError("rates and m_values must have matching shapes")
    _check_finite("rates", rates)
    _check_finite("m_values", m_values, "positive")
    keep = _top_decade(m_values)
    if keep.sum() < 2:
        raise ValueError("need at least two antenna counts in the top decade")
    slope, _ = np.polyfit(np.log2(m_values[keep]), rates[keep], 1)
    return float(slope)


def large_k_rate(zeta, alpha_star, c1, p_dl, sigma2_ul):
    """Per-user rate in the dense regime, as a function of user load.

        R(zeta) = log2( alpha* p_dl (1 - zeta) / (c1 sigma2 zeta^2) ),
        zeta = K / M,  c1 = (1/K) sum_i 1/beta_i^2.

    Strictly decreasing in zeta on (0, 1); diverges to -inf as zeta -> 1.

    Raises:
        ValueError: if zeta leaves (0, 1), a constant is not positive and
            finite, or a rate is not finite because a product overflows or
            underflows; the message names the inputs.
    """
    zeta = np.asarray(zeta, dtype=float)
    if not np.all((zeta > 0) & (zeta < 1)):
        raise ValueError("user load zeta must lie strictly inside (0, 1)")
    inputs = dict(alpha_star=alpha_star, c1=c1, p_dl=p_dl, sigma2_ul=sigma2_ul)
    for name, v in inputs.items():
        _check_finite(name, v, "positive")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rate = np.log2(alpha_star * p_dl * (1.0 - zeta) / (c1 * sigma2_ul * zeta**2))
    _check_finite("the dense-regime rate at " + ", ".join(f"{k} {v}" for k, v in inputs.items())
                  + f" and zeta {zeta.min()} to {zeta.max()}", rate)
    return rate


def user_load_for_rate(target_rate, alpha_star, c1, p_dl, sigma2_ul) -> float:
    """Largest supportable user load K/M for a per-user rate target.

    Inverts :func:`large_k_rate` in closed form: with
    t = 2^R c1 sigma2 / (alpha* p_dl), the load solves t zeta^2 + zeta - 1 = 0,
    whose one root in (0, 1] is zeta = 2 / (1 + sqrt(1 + 4 t)), written so
    that nothing cancels; it is computed as 1 / (1/2 + sqrt(1/4 + t)), the
    same bits without the overflow of 4 t.  A target so low that t vanishes
    beside 1, where the root rounds to 1.0, gives the largest float below 1:
    the largest load that :func:`large_k_rate` accepts, whose rate still
    meets the target.

    Raises:
        ValueError: if an argument is not finite, a constant is not
            positive, or the target is so high that t overflows and the
            root rounds to 0.
    """
    _check_finite("target rate", target_rate)
    for name, v in dict(alpha_star=alpha_star, c1=c1, p_dl=p_dl, sigma2_ul=sigma2_ul).items():
        _check_finite(name, v, "positive")
    with np.errstate(over="ignore"):
        t = np.exp2(target_rate) * (c1 * sigma2_ul / (alpha_star * p_dl))
    zeta = float(1.0 / (0.5 + np.sqrt(0.25 + t)))
    if not zeta > 0:
        raise ValueError("target rate unattainable at any positive user load")
    return min(zeta, float(np.nextafter(1.0, 0.0)))


def c1_limit(beta0: float, u: float, a: float, b: float) -> float:
    """Limit of (1/K) sum 1/beta_i^2 for distances uniform on [a, b].

        c1 -> beta0^(-2) (b^(2u+1) - a^(2u+1)) / ((b - a)(2u + 1))

    With n = 2u + 1, d = (b - a)/a and L = log1p(d) = log(b/a) this is
    computed as a^(2u) (expm1(n L) / (n L)) (L / d) / beta0^2, in which
    nothing cancels at any gap or exponent.  Each quotient is 1 in its
    limit: at a = b the value is beta0^(-2) a^(2u), and at u = -1/2 it is
    log(b/a) / ((b - a) beta0^2).

    Raises:
        ValueError: if an input is out of range, or the limit is not
            positive and finite because a power overflows or underflows;
            the message names the inputs.
    """
    _check_finite("beta0", beta0, "positive")
    _check_finite("u", u)
    _check_finite("distances", (a, b), "positive")
    if a > b:
        raise ValueError("need a <= b")
    name = f"the c1 limit at beta0 {beta0}, u {u} and distances {a} to {b}"
    # numpy scalars, so an overflow gives inf, not Python's OverflowError
    beta0, u, a, b = (np.float64(v) for v in (beta0, u, a, b))
    n, d = 2 * u + 1, (b - a) / a
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_ratio = np.log1p(d)
        x = n * log_ratio
        c1 = float(a ** (2 * u) * (np.expm1(x) / x if x else 1.0)
                   * (log_ratio / d if d else 1.0) / beta0**2)
    _check_finite(name, c1, "positive")
    return c1


def c1_sample(beta) -> float:
    """Empirical c1 = (1/K) sum_i 1/beta_i^2 for a drawn user population."""
    beta = np.asarray(beta, dtype=float)
    _check_count("number of path losses", beta.size, 1)
    _check_finite("beta", beta, "positive")
    return float(np.mean(1.0 / beta**2))
