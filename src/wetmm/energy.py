"""Downlink energy transfer: beamforming and harvested-energy models.

The frame splits into a channel-estimation phase (fraction tau), a downlink
wireless-energy-transfer phase (fraction alpha), and an uplink data phase
(fraction 1 - tau - alpha).  Each user banks the energy harvested during the
energy phase, spends a fraction rho of it on the next frame's pilots, and
the remaining (1 - rho) on uplink data transmission.

The access point beams with

    w = sum_k sqrt(xi_k) g_hat_k / ||g_hat_k||,   sum_k xi_k = 1

which has unit norm in expectation only; it is deliberately not renormalized
per realization.  In steady state the banked energy solves the fixed point
E = Q(rho E), where Q(D) is the mean harvested energy under pilot energy D.
That quadratic has the closed-form positive root implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wetmm.sysmodel import SystemParams, _antenna_sum, _check_finite, _check_tags, _check_users

__all__ = [
    "RHO_CLAMP",
    "ResourceAllocation",
    "clamp_rho",
    "beamformer",
    "general_beamformer",
    "expected_harvested_energy",
    "harvested_energy_fixedpoint",
    "asymptotic_energy",
    "energies",
]

# The harvested-energy fixed point and the splitting error variance are
# singular at rho = 0 and rho = 1, both of which the allocation constraints
# allow.  All evaluations pull rho this far inside the open interval.
RHO_CLAMP = 1e-4


def clamp_rho(rho):
    """Pull the energy-splitting fraction away from its singular endpoints."""
    # np.clip gives the same bits, NaN included, at twice the call cost
    return np.minimum(np.maximum(rho, RHO_CLAMP), 1.0 - RHO_CLAMP)


def _check_fractions(rho, *times) -> None:
    """Refuse a negative time fraction in ``times`` and a rho outside [0, 1];
    NaN passes.  Array methods: np.any costs several times as much on a few
    entries."""
    if any((t < 0).any() for t in times):
        raise ValueError("time fractions must be nonnegative")
    if ((rho < 0) | (rho > 1)).any():
        raise ValueError("rho must lie in [0, 1]")


@dataclass(frozen=True)
class ResourceAllocation:
    """One point of the resource-allocation search space.

    Attributes:
        tau: channel-estimation time fraction, >= 0.
        alpha: energy-transfer time fraction, >= 0, with tau + alpha <= 1.
        rho: fraction of harvested energy spent on pilots, in [0, 1].
            Formulas evaluate it clamped to [RHO_CLAMP, 1 - RHO_CLAMP].
        xi: length-K beam-energy weights summing to 1.
    """

    tau: float
    alpha: float
    rho: float
    xi: np.ndarray

    def __post_init__(self):
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float)).copy()
        # plain float checks: numpy reductions over three scalars cost most
        # of a construction
        scalars = (self.tau, self.alpha, self.rho)
        if not (all(map(math.isfinite, scalars)) and np.isfinite(xi).all()):
            raise ValueError("allocation entries must be finite")
        if self.tau < 0 or self.alpha < 0:
            raise ValueError("time fractions must be nonnegative")
        if self.tau + self.alpha > 1.0 + 1e-12:
            raise ValueError(f"tau + alpha = {self.tau + self.alpha} exceeds the frame")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if (xi < 0).any():
            raise ValueError("beam weights must be nonnegative")
        if abs(xi.sum() - 1.0) > 1e-9:
            raise ValueError(f"beam weights must sum to 1, got {xi.sum()}")
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)


def beamformer(G_hat: np.ndarray, xi) -> np.ndarray:
    """Energy beam aimed at the estimated user channels.

    w = sum_k sqrt(xi_k) g_hat_k / ||g_hat_k||.  The norm of w is 1 only in
    expectation; per realization it fluctuates and must not be renormalized,
    otherwise the harvested-energy statistics change.  A stack of estimates
    (..., M, K) gives a stack of beams (..., M), each equal bit for bit to
    the beam of its (M, K) slice: the column norms are ``np.linalg.norm``'s
    sum of squares over the antennas, added in the same order by
    ``sysmodel._antenna_sum``, and the columns are multiplied by the norms'
    reciprocals, which is what numpy's complex division by a real divisor
    computes (a real ``G_hat`` may differ from a division in the last bit).

    Raises:
        ValueError: if any estimate column is numerically zero, or a beam
            weight is negative or not finite, or xi does not have K entries.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    _check_users(xi, G_hat.shape[-1])
    # the Monte Carlo calls this per chunk; a K-entry check is cheapest in Python
    if not all(0.0 <= v < np.inf for v in xi.tolist()):
        raise ValueError("xi must be nonnegative and finite")
    sq_norms = _antenna_sum((G_hat.conj() * G_hat).real)
    _check_columns(sq_norms)
    norms = np.sqrt(sq_norms)
    return (G_hat * (1.0 / norms)[..., None, :]) @ np.sqrt(xi)


def _check_columns(sq_norms: np.ndarray) -> None:
    """Refuse estimates whose squared column norms are not all positive and
    finite, the columns the beam could not aim at; the Monte Carlo applies
    the same guard to its Gram diagonals where it builds no beam."""
    if not ((sq_norms > 0) & (sq_norms < np.inf)).all():
        raise ValueError("degenerate channel estimate: zero-norm column")


def general_beamformer(G_hat: np.ndarray, xi_prime, theta) -> np.ndarray:
    """Beam with energy split between user directions and their complement.

    w0 = sum_k sqrt(xi'_k) g_hat_k / ||g_hat_k|| + sum_i sqrt(theta_i) u_i
    where {u_i} is an orthonormal basis of the orthogonal complement of the
    estimated signal subspace.  Requires sum(xi') + sum(theta) = 1.

    Useful as the comparison arm when showing that moving energy off the
    estimated subspace never helps: it only reaches users through their
    estimation error.
    """
    xi_prime = np.atleast_1d(np.asarray(xi_prime, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    m, k = G_hat.shape
    _check_users(xi_prime, k)
    if not (np.all(xi_prime >= 0) and np.all(theta >= 0)):
        raise ValueError("beam weights must be nonnegative")
    total = xi_prime.sum() + theta.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"beam weights must sum to 1, got {total}")
    if theta.size > m - k:
        raise ValueError(f"at most M-K={m - k} complement directions, got {theta.size}")
    # complete QR: columns K..M-1 of Q span the complement of col(G_hat)
    q, _ = np.linalg.qr(G_hat, mode="complete")
    complement = q[:, k:k + theta.size]
    w = complement @ np.sqrt(theta.astype(complex))
    if xi_prime.sum() > 0:
        w = w + beamformer(G_hat, xi_prime)
    return w


def expected_harvested_energy(pilot_energy, alpha, xi, beta, M, p_dl, sigma2_ul):
    """Mean harvested energy under the subspace beam, given pilot energy.

    Q = alpha p_dl xi beta M [1 - (M-1) sigma2 / (M (beta D + sigma2))]
        + alpha p_dl beta (1 - xi)

    First term: the beam aimed at the user, discounted by estimation error.
    Second term: incidental harvest from the beams aimed at the other users.
    Only the total pilot energy D matters, not how it splits into pilot
    length times power.  Broadcasts over arrays.
    """
    beta = np.asarray(beta, dtype=float)
    _check_finite("pilot energy", pilot_energy, "nonnegative")
    directed = alpha * p_dl * xi * beta * M * (
        1.0 - (M - 1) * sigma2_ul / (M * (beta * pilot_energy + sigma2_ul))
    )
    side = alpha * p_dl * beta * (1.0 - xi)
    return directed + side


def _fixedpoint_raw(alpha, rho, xi, beta, M, p_dl, sigma2_ul):
    """Positive root of E^2 - g E - alpha p_dl sigma2 / rho = 0; no checks.

    Returns exactly 0 where alpha == 0 (g < 0 and the constant term vanishes).
    For g < 0 the textbook form (g + sqrt(g^2 + c)) / 2 cancels
    catastrophically, so the root is rewritten as c / (2 (sqrt(g^2 + c) - g)),
    which is additive in that regime.  Callers are responsible for clamping
    rho.  Elementwise: the search passes users on axis 0, with ``beta``
    shaped (K, 1, ...) (see :func:`_energies`).
    """
    g = alpha * p_dl * beta * (xi * (M - 1) + 1.0) - sigma2_ul / (beta * rho)
    c = 4.0 * alpha * p_dl * sigma2_ul / rho
    disc = np.sqrt(g * g + c)
    with np.errstate(divide="ignore", invalid="ignore"):
        small_root = (0.5 * c) / (disc - g)
    return np.where(g >= 0.0, 0.5 * (g + disc), small_root)


def harvested_energy_fixedpoint(alpha, rho, xi, beta, M, p_dl, sigma2_ul):
    """Steady-state banked energy: the unique positive solution of E = Q(rho E).

    Substituting pilot energy D = rho E into the mean harvest Q(D) yields a
    quadratic in E whose positive root is

        E = (g + sqrt(g^2 + 4 alpha p_dl sigma2 / rho)) / 2,
        g = alpha p_dl beta (xi (M-1) + 1) - sigma2 / (beta rho).

    Args:
        alpha: energy-phase fraction, > 0.
        rho: splitting fraction in (0, 1); evaluated clamped to
            [RHO_CLAMP, 1 - RHO_CLAMP].
        xi, beta, M, p_dl, sigma2_ul: as elsewhere; broadcastable.

    Raises:
        ValueError: if alpha is not positive and finite or rho lies outside
            (0, 1).
    """
    alpha = np.asarray(alpha, dtype=float)
    rho = np.asarray(rho, dtype=float)
    _check_finite("alpha", alpha, "positive")
    if not np.all((rho > 0) & (rho < 1)):
        raise ValueError("rho must lie strictly inside (0, 1)")
    return _fixedpoint_raw(alpha, clamp_rho(rho), xi, beta, M, p_dl, sigma2_ul)


def asymptotic_energy(alpha, xi, beta, M, p_dl):
    """Large-array limit of the harvested energy: E = alpha p_dl beta xi M.

    Valid when the directed beam dominates, i.e. when both
    M >> sigma2 / (alpha p_dl rho beta^2 xi) (estimation error negligible)
    and xi M >> 1 (side beams negligible).
    """
    return alpha * p_dl * np.asarray(beta, dtype=float) * np.asarray(xi, dtype=float) * M


def _energies(params: SystemParams, system: str, M, beta, alpha, rho, xi):
    """:func:`energies` with no checks, ``rho`` already clamped, at antenna
    count ``M``, which broadcasts like ``alpha`` (the search passes one per
    point).  The search passes users on axis 0 (``beta`` shaped (K, 1, ...)
    to ``xi``'s rank, ``alpha``, ``rho`` and ``M`` without it); every step
    is elementwise, so :func:`energies` passes users-last operands,
    ``params.beta`` and ``params.M``."""
    if system == "wetmm":
        return _fixedpoint_raw(alpha, rho, xi, beta, M, params.p_dl, params.sigma2_ul)
    if system == "opmm":
        return alpha * params.p_dl * beta
    return alpha * params.p_dl * beta * (xi * (M - 1) + 1.0)


def energies(params: SystemParams, system: str, alpha, rho, xi) -> np.ndarray:
    """Steady-state banked energy per user for one of the three systems.

        wetmm: the harvested-energy fixed point at rho clamped to
               [RHO_CLAMP, 1 - RHO_CLAMP], exactly 0 where alpha = 0
        opmm:  E = alpha p_dl beta  (the isotropic beam w = 1/sqrt(M)
               delivers no array gain)
        ideal: E = alpha p_dl beta (xi (M-1) + 1)  (perfect channel
               knowledge: no pilots, no estimation error)

    ``alpha``, ``rho`` and ``xi`` broadcast against each other with users on
    the last axis; rho is unused by "opmm" and "ideal", xi by "opmm", so the
    result carries only the axes of the arguments its system uses.  A NaN
    argument gives NaN energies where it is used.

    Raises:
        ValueError: on an invalid system tag, a negative alpha, rho outside
            [0, 1], negative beam weights, or a non-scalar xi without K
            entries on the last axis.  The weights need not sum to 1.
    """
    _check_tags(system=system)
    alpha, rho, xi = (np.asarray(v, dtype=float) for v in (alpha, rho, xi))
    _check_users(xi, params.K)
    _check_fractions(rho, alpha)
    if (xi < 0).any():
        raise ValueError("beam weights must be nonnegative")
    return _energies(params, system, params.M, params.beta, alpha, clamp_rho(rho), xi)
