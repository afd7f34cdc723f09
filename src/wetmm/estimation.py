"""Pilot construction, received-pilot synthesis, and MMSE channel estimation.

Users send orthogonal uplink pilots with per-user pilot energy D_k (total
energy over the whole pilot block, i.e. pilot length times per-symbol pilot
power).  The access point observes

    Y_p = G (Phi D^(1/2))^T + N,    Phi^H Phi = I_K,  N i.i.d. CN(0, sigma2)

and forms the linear MMSE estimate

    G_hat = Y_p Phi^* (B D + sigma2 I)^(-1) D^(1/2) B,   B = diag(beta).

Estimate and error are independent with per-entry variances
beta_k - error_var_k and error_var_k = beta_k sigma2 / (sigma2 + beta_k D_k).

Two interchangeable ways to produce stacked (G, G_hat) pairs are provided by
:func:`draw_trials`: the full pilot pipeline above, and a direct statistical
draw of estimate and error from their exact marginals.  Both give the same
distribution for every downstream statistic; the direct draw skips the
(M x L) pilot block and is the default inside Monte Carlo loops.

:func:`draw_trials` takes a chunk of trials in two steps.
:func:`_trial_normals` draws each trial's normals in one call on that
trial's own stream into one stacked buffer; :func:`_channels` then does the
scaling, the subtraction and the pilot pipeline once for the chunk.  The
per-trial ``complex_gaussian``, ``generate_channel`` and :func:`receive_pilots`
are the reference both methods reproduce bit for bit.  Both methods read the
same buffer, so the Monte Carlo builds the statistical and the pilot draw of
one trial from one set of normals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wetmm.sysmodel import SystemParams, _check_tags, _pcg64_states, complex_gaussian, trial_rng

__all__ = [
    "PilotConfig",
    "make_pilots",
    "receive_pilots",
    "mmse_estimate",
    "error_variance",
    "draw_trials",
]


@dataclass(frozen=True)
class PilotConfig:
    """Orthogonal pilot block.

    Attributes:
        L: pilot length in symbols, L >= K.
        pilot_energy: length-K vector of total per-user pilot energies.
        Phi: (L, K) pilot matrix with orthonormal columns.
    """

    L: int
    pilot_energy: np.ndarray
    Phi: np.ndarray


def make_pilots(L: int, K: int, pilot_energy) -> PilotConfig:
    """Build a DFT-based orthogonal pilot block.

    Column k of Phi is the k-th column of the L-point DFT matrix scaled to
    unit norm, so Phi^H Phi = I_K exactly for any L >= K.

    Args:
        L: pilot length in symbols.
        K: number of users.
        pilot_energy: scalar or length-K total pilot energy per user.

    Raises:
        ValueError: if L < K or any pilot energy is negative or not finite.
    """
    if L < K:
        raise ValueError(f"pilot length must cover all users, got L={L} < K={K}")
    energy = np.broadcast_to(np.asarray(pilot_energy, dtype=float), (K,)).copy()
    if not np.all(np.isfinite(energy) & (energy >= 0)):
        raise ValueError("pilot energy must be nonnegative and finite")
    rows = np.arange(L)[:, None]
    cols = np.arange(K)[None, :]
    phi = np.exp(-2j * np.pi * rows * cols / L) / np.sqrt(L)
    energy.setflags(write=False)
    phi.setflags(write=False)
    return PilotConfig(L=L, pilot_energy=energy, Phi=phi)


def receive_pilots(G: np.ndarray, pilots: PilotConfig, sigma2_ul: float, seed) -> np.ndarray:
    """Synthesize the noisy received pilot block Y_p = G (Phi D^(1/2))^T + N.

    Args:
        G: true channel, (M, K).
        pilots: pilot block with per-user energies D.
        sigma2_ul: noise power per receive antenna.
        seed: integer seed or numpy Generator for the noise draw.

    Returns:
        Complex (M, L) received block.  With zero pilot energy the output is
        pure noise.
    """
    rng = seed if isinstance(seed, np.random.Generator) else trial_rng(int(seed))
    amp = np.sqrt(pilots.pilot_energy)
    signal = (G * amp[None, :]) @ pilots.Phi.T
    noise = complex_gaussian(rng, (G.shape[0], pilots.L), sigma2_ul)
    return signal + noise


def mmse_estimate(Y_p: np.ndarray, pilots: PilotConfig, beta: np.ndarray, sigma2_ul: float) -> np.ndarray:
    """Linear MMSE channel estimate from a received pilot block.

    Args:
        Y_p: received block, (M, L), or a stack of them, (..., M, L).
        pilots: the pilot block that produced Y_p.
        beta: length-K path losses.
        sigma2_ul: noise power per receive antenna.

    Returns:
        (..., M, K) estimate whose column k has per-entry variance
        beta_k - error_variance(beta_k, D_k, sigma2_ul).
    """
    if not (np.isfinite(sigma2_ul) and sigma2_ul > 0):
        raise ValueError("sigma2_ul must be positive and finite")
    beta = np.asarray(beta, dtype=float)
    energy = pilots.pilot_energy
    # diagonal K x K factors collapse to a per-column scale
    scale = np.sqrt(energy) * beta / (beta * energy + sigma2_ul)
    return (Y_p @ pilots.Phi.conj()) * scale[None, :]


def error_variance(beta_k, pilot_energy_k, sigma2_ul):
    """Per-entry MMSE estimation-error variance.

        error_var = beta / (1 + beta * D / sigma2)

    Decreasing in the pilot energy D; equals beta at D = 0 (estimate carries
    no information) and tends to 0 as D grows.  Broadcasts over arrays;
    beta must be positive and finite, D nonnegative and sigma2 positive and
    finite.
    """
    beta_k = np.asarray(beta_k, dtype=float)
    pilot_energy_k = np.asarray(pilot_energy_k, dtype=float)
    if not np.all(np.isfinite(beta_k) & (beta_k > 0)):
        raise ValueError("beta must be positive and finite")
    if not np.all(pilot_energy_k >= 0):
        raise ValueError("pilot energy must be nonnegative")
    if not np.all(np.isfinite(sigma2_ul) & (sigma2_ul > 0)):
        raise ValueError("sigma2_ul must be positive and finite")
    return beta_k / (1.0 + beta_k * pilot_energy_k / sigma2_ul)


def draw_trials(params: SystemParams, pilot_energy, master_seed: int, trials,
                method: str = "statistical", salt: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw stacked channels together with their MMSE estimates.

    The call's normals come from :func:`_trial_normals` and are turned into
    channels by :func:`_channels`, with the same elementwise operations as
    ``complex_gaussian``, ``generate_channel`` and :func:`receive_pilots`.
    So every trial equals its per-trial draw bit for bit.

    Args:
        params: scenario constants.
        pilot_energy: scalar or length-K total pilot energy per user, or
            None for perfect channel knowledge (the estimate is the channel).
        master_seed, trials, salt: trial t draws from ``trial_rng(master_seed,
            t, salt)``, so it reproduces bit for bit whatever trials share the
            call; salt counts in-trial redraws, 0 for the first attempt.
        method: "statistical" samples estimate and error directly from their
            exact marginals; "pilot" runs the full pipeline (channel draw,
            received block, MMSE estimator).  The two are distributionally
            equivalent.

    Returns:
        ``(G, G_hat)``, complex (len(trials), M, K), with independent
        estimate and error.
    """
    _check_tags(channel_knowledge=method)
    buf = _trial_normals(params, pilot_energy, master_seed, trials, salt)
    return _channels(params, pilot_energy, buf, method)


def _trial_normals(params: SystemParams, pilot_energy, master_seed: int, trials,
                   salt: int = 0) -> np.ndarray:
    """The (trials, blocks, M, K) standard normals of a chunk of trials.

    The PCG64 states of the trials are computed together, then one PCG64
    generator is set to each trial's ``trial_rng(master_seed, t, salt)``
    state in turn and makes one ``standard_normal`` call into that trial's
    row: the real and imaginary parts that ``complex_gaussian`` draws, in
    the order of the per-trial draw (channel, then pilot noise; or estimate,
    then error).  With ``pilot_energy`` None (the ideal system) a trial draws
    the channel alone, 2 blocks; otherwise a second (M, K) pair, 4 blocks.
    Either method of :func:`_channels` reads the same buffer.
    """
    buf = np.empty((len(trials), 2 if pilot_energy is None else 4, params.M, params.K))
    bit_gen = np.random.PCG64(0)
    state, draw = bit_gen.state, np.random.Generator(bit_gen).standard_normal
    for i, pcg in enumerate(_pcg64_states(master_seed, trials, salt)):
        state["state"] = pcg
        bit_gen.state = state
        draw(out=buf[i])
    return buf


def _channels(params: SystemParams, pilot_energy, buf: np.ndarray,
              method: str) -> tuple[np.ndarray, np.ndarray]:
    """``(G, G_hat)`` of :func:`draw_trials` from a :func:`_trial_normals`
    buffer, which is left unchanged: the complex stacks, their scaling, the
    estimate-minus-error subtraction and the pilot pipeline, each once for
    the whole stack."""
    M, K = params.M, params.K
    stacks = [np.empty((len(buf), M, K), dtype=complex) for _ in range(buf.shape[1] // 2)]
    for b, z in enumerate(stacks):
        z.real, z.imag = buf[:, 2 * b], buf[:, 2 * b + 1]
    if pilot_energy is not None:
        energy = np.broadcast_to(np.asarray(pilot_energy, dtype=float), (K,))
        err_var = error_variance(params.beta, energy, params.sigma2_ul)
    if pilot_energy is not None and method == "statistical":
        g_hat, g = stacks
        g_hat *= np.sqrt((params.beta - err_var) / 2.0)
        g *= np.sqrt(err_var / 2.0)
        np.subtract(g_hat, g, out=g)
        return g, g_hat
    # generate_channel: CN(0, 1) entries, then column k times sqrt(beta_k)
    g = stacks[0]
    g *= np.sqrt(0.5)
    g *= np.sqrt(params.beta)
    if pilot_energy is None:
        return g, g
    pilots = make_pilots(K, K, energy)
    y = stacks[1]
    y *= np.sqrt(params.sigma2_ul / 2.0)
    y += (g * np.sqrt(pilots.pilot_energy)[None, :]) @ pilots.Phi.T
    return g, mmse_estimate(y, pilots, params.beta, params.sigma2_ul)
