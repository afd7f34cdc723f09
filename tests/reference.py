"""The per-trial channel, pilot and MMSE draw: the tests' reference for the
package's batched draw.

The channel between the M-antenna access point and the K single-antenna
users is drawn one trial at a time as G = H diag(beta)^(1/2), H i.i.d.
CN(0, 1).  Users send orthogonal pilots with per-user pilot energy D_k, the
access point receives Y_p = G (Phi D^(1/2))^T + N and forms the MMSE
estimate G_hat = Y_p Phi^* (B D + sigma2 I)^(-1) D^(1/2) B, B = diag(beta).
The package draws whole chunks of trials at once
(``wetmm.estimation._channel_consts``, ``_trial_normals`` and
``_channels``); the tests pin every one of its trials to these functions bit
for bit.  :func:`draw_trials` wraps the package's batched draw for one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wetmm.estimation import _channel_consts, _channels, _trial_normals
from wetmm.sysmodel import (SystemParams, _check_count, _check_finite, _check_tags,
                            _pcg64_states, trial_rng)


def complex_gaussian(rng: np.random.Generator, shape, var=1.0) -> np.ndarray:
    """I.i.d. circularly symmetric complex Gaussian samples CN(0, var).

    Each sample is built from two independent real Gaussians of variance
    var/2.  ``var`` broadcasts against ``shape``, so per-column variances can
    be passed directly.
    """
    _check_finite("variance", var, "nonnegative")
    std = np.sqrt(np.asarray(var, dtype=float) / 2.0)
    return std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def generate_channel(params: SystemParams, seed) -> np.ndarray:
    """One draw of the M x K uplink channel matrix G = H diag(beta)^(1/2).

    ``seed`` is an integer master seed (expanded through ``trial_rng``) or
    an existing numpy Generator to draw from directly.  Column k has i.i.d.
    CN(0, beta_k) entries.
    """
    rng = seed if isinstance(seed, np.random.Generator) else trial_rng(int(seed))
    h = complex_gaussian(rng, (params.M, params.K))
    return h * np.sqrt(params.beta)[None, :]


@dataclass(frozen=True)
class PilotConfig:
    """Orthogonal pilot block: length L >= K, the length-K total per-user
    pilot energies and the (L, K) pilot matrix Phi with orthonormal
    columns."""

    L: int
    pilot_energy: np.ndarray
    Phi: np.ndarray


def make_pilots(L: int, K: int, pilot_energy) -> PilotConfig:
    """DFT-based orthogonal pilot block: column k of Phi is the k-th column
    of the L-point DFT matrix scaled to unit norm, so Phi^H Phi = I_K for any
    L >= K.  Raises ValueError unless K is an integer >= 1, L an integer
    >= K and every pilot energy nonnegative and finite."""
    _check_count("K", K, 1)
    _check_count("pilot length L", L, K)
    energy = np.broadcast_to(np.asarray(pilot_energy, dtype=float), (K,)).copy()
    _check_finite("pilot energy", energy, "nonnegative")
    rows = np.arange(L)[:, None]
    cols = np.arange(K)[None, :]
    phi = np.exp(-2j * np.pi * rows * cols / L) / np.sqrt(L)
    energy.setflags(write=False)
    phi.setflags(write=False)
    return PilotConfig(L=L, pilot_energy=energy, Phi=phi)


def receive_pilots(G: np.ndarray, pilots: PilotConfig, sigma2_ul: float, seed) -> np.ndarray:
    """The noisy (M, L) received pilot block Y_p = G (Phi D^(1/2))^T + N,
    its noise drawn from ``seed`` (an integer seed or a numpy Generator)."""
    rng = seed if isinstance(seed, np.random.Generator) else trial_rng(int(seed))
    amp = np.sqrt(pilots.pilot_energy)
    signal = (G * amp[None, :]) @ pilots.Phi.T
    noise = complex_gaussian(rng, (G.shape[0], pilots.L), sigma2_ul)
    return signal + noise


def mmse_estimate(Y_p: np.ndarray, pilots: PilotConfig, beta: np.ndarray, sigma2_ul: float) -> np.ndarray:
    """Linear MMSE channel estimate, (..., M, K), from a received pilot
    block (M, L) or a stack of them (..., M, L)."""
    _check_finite("sigma2_ul", sigma2_ul, "positive")
    return (Y_p @ pilots.Phi.conj()) * _mmse_scale(pilots, beta, sigma2_ul)[None, :]


def _mmse_scale(pilots: PilotConfig, beta, sigma2_ul: float) -> np.ndarray:
    """The length-K column scale of :func:`mmse_estimate`, into which its
    diagonal K x K factors collapse."""
    beta = np.asarray(beta, dtype=float)
    energy = pilots.pilot_energy
    return np.sqrt(energy) * beta / (beta * energy + sigma2_ul)


def draw_trials(params: SystemParams, pilot_energy, master_seed: int, trials,
                method: str = "statistical", salt: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``(G, G_hat)``, complex (len(trials), M, K), of the package's batched
    draw: trial t draws from ``trial_rng(master_seed, t, salt)``.
    ``pilot_energy`` None means perfect channel knowledge (the estimate is
    the channel); ``method`` "statistical" samples estimate and error from
    their exact marginals, "pilot" runs the pilot pipeline."""
    _check_tags(channel_knowledge=method)
    consts = _channel_consts(params, pilot_energy)
    stacks = _trial_normals(params, _pcg64_states(master_seed, trials, salt),
                            np.random.default_rng(0), 2 if pilot_energy is None else 4)
    return _channels(params, consts, stacks, method)
