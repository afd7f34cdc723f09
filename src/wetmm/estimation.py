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

The Monte Carlo draws its trials a chunk at a time and builds what no chunk
changes once per walk: :func:`_channel_consts` holds one pilot energy's
column scales, pilot block and MMSE column scale, and one
``_pcg64_states`` call gives the seed words of every trial's first stream.
Per chunk, :func:`_trial_normals` sets one generator (one per worker
process; the Monte Carlo forks its workers, so each builds its own) to each
trial's stream in turn, draws that trial's normals in one call into a
stacked buffer (4 real (M, K) blocks, or the first 2 alone where only the
statistical estimate or the perfect-knowledge channel is read) and
interleaves them into complex stacks once; :func:`_channels`
then does the scaling, the subtraction and the pilot pipeline once for the
chunk, without writing to the stacks, so the Monte Carlo builds the
statistical and the pilot draw of a trial, and the draws of several
operating points, from one set of stacks.  :func:`draw_trials` builds the
same values for its one call.  The per-trial ``complex_gaussian``,
``generate_channel`` and :func:`receive_pilots` are the reference both
methods reproduce bit for bit, with numpy's inner loops kept long:

- the column scales are stored at one trial's full (M, K) shape, so a
  chunk's scaling runs M K entries per inner loop rather than K; each entry
  is still multiplied by the same number;
- each pilot product is one 2-D product ``(trials M, K) @ (K, K)``
  reshaped back, not one (M, K) product per trial; each row of it is the
  same K-term sum of one input row (the tests pin it to the per-trial
  products bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wetmm.sysmodel import (SystemParams, _check_count, _check_finite, _check_tags,
                            _pcg64_assemble, _pcg64_states, complex_gaussian, trial_rng)

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
        ValueError: if K is not an integer >= 1, L not an integer >= K, or
            any pilot energy is negative or not finite.
    """
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
    _check_finite("sigma2_ul", sigma2_ul, "positive")
    return (Y_p @ pilots.Phi.conj()) * _mmse_scale(pilots, beta, sigma2_ul)[None, :]


def _mmse_scale(pilots: PilotConfig, beta, sigma2_ul: float) -> np.ndarray:
    """The length-K column scale of :func:`mmse_estimate`, into which its
    diagonal K x K factors collapse."""
    beta = np.asarray(beta, dtype=float)
    energy = pilots.pilot_energy
    return np.sqrt(energy) * beta / (beta * energy + sigma2_ul)


def error_variance(beta_k, pilot_energy_k, sigma2_ul):
    """Per-entry MMSE estimation-error variance.

        error_var = beta / (1 + beta * D / sigma2)

    Decreasing in the pilot energy D; equals beta at D = 0 (estimate carries
    no information) and tends to 0 as D grows.  Broadcasts over arrays;
    beta and sigma2 must be positive and finite, D nonnegative and finite.
    """
    beta_k = np.asarray(beta_k, dtype=float)
    _check_finite("beta", beta_k, "positive")
    _check_finite("pilot energy", pilot_energy_k, "nonnegative")
    _check_finite("sigma2_ul", sigma2_ul, "positive")
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
    consts = _channel_consts(params, pilot_energy)
    stacks = _trial_normals(params, _pcg64_states(master_seed, trials, salt),
                            np.random.default_rng(0), 2 if pilot_energy is None else 4)
    return _channels(params, consts, stacks, method)


def _channel_consts(params: SystemParams, pilot_energy, err_var=None) -> tuple:
    """What :func:`_channels` needs of one pilot energy, built once for all
    the chunks of a walk.  The column scales are (M, K) arrays, one trial's
    full shape: sqrt(beta), then, unless ``pilot_energy`` is None (perfect
    channel knowledge, where the tuple ends there), the estimate and error
    scales sqrt((beta - error_var) / 2) and sqrt(error_var / 2), the pilot
    amplitudes sqrt(D), Phi^T and Phi^* of the K x K pilot block of
    :func:`make_pilots`, and :func:`mmse_estimate`'s column scale.
    ``err_var`` is ``error_variance(params.beta, pilot_energy,
    params.sigma2_ul)``, computed here unless the caller already has it."""
    def full(row):
        return np.broadcast_to(row, (params.M, params.K)).copy()
    sqrt_beta = full(np.sqrt(params.beta))
    if pilot_energy is None:
        return (sqrt_beta,)
    energy = np.broadcast_to(np.asarray(pilot_energy, dtype=float), (params.K,))
    if err_var is None:
        err_var = error_variance(params.beta, energy, params.sigma2_ul)
    pilots = make_pilots(params.K, params.K, energy)
    return (sqrt_beta, full(np.sqrt((params.beta - err_var) / 2.0)), full(np.sqrt(err_var / 2.0)),
            full(np.sqrt(pilots.pilot_energy)), pilots.Phi.T, pilots.Phi.conj(),
            full(_mmse_scale(pilots, params.beta, params.sigma2_ul)))


def _trial_normals(params: SystemParams, words: np.ndarray, rng: np.random.Generator,
                   blocks: int) -> list[np.ndarray]:
    """The complex (trials, M, K) stacks of standard normals of the trials
    whose :func:`_pcg64_states` rows are ``words``, ``blocks`` real (M, K)
    blocks per trial (2 or 4).

    ``rng``'s PCG64 is set to each trial's ``trial_rng(master_seed, t,
    salt)`` state in turn and makes one ``standard_normal`` call into that
    trial's row of a real buffer: the real and imaginary parts that
    ``complex_gaussian`` draws, in the order of the per-trial draw (channel,
    then pilot noise; or estimate, then error).  The buffer is interleaved
    into one complex stack per two blocks.  numpy fills the buffer in stream
    order, so a trial's first two blocks are the same whether two or four
    are drawn: 2 blocks give the channel under perfect channel knowledge, or
    the statistical estimate alone, and 4 add the pilot noise or the
    statistical error.  Either method of :func:`_channels` reads the same
    stacks.
    """
    M, K = params.M, params.K
    buf = np.empty((len(words), blocks, M, K))
    bit_gen = rng.bit_generator
    state, draw = bit_gen.state, rng.standard_normal
    for i, pcg in enumerate(_pcg64_assemble(words)):
        state["state"] = pcg
        bit_gen.state = state
        draw(out=buf[i])
    stacks = [np.empty((len(words), M, K), dtype=complex) for _ in range(blocks // 2)]
    for b, z in enumerate(stacks):
        z.real, z.imag = buf[:, 2 * b], buf[:, 2 * b + 1]
    return stacks


def _channels(params: SystemParams, consts, stacks: list, method: str,
              truth: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """``(G, G_hat)`` of :func:`draw_trials` from :func:`_trial_normals`
    stacks, which are left unchanged, and the :func:`_channel_consts` of
    their pilot energy: the scaling, the estimate-minus-error subtraction and
    the pilot pipeline, each once for the whole stack.  Without ``truth``
    the statistical method builds the estimate alone, from the first stack,
    so 2-block stacks suffice, and returns None for G; the other methods
    build G on the way to the estimate and return it either way."""
    sqrt_beta, *pilot = consts
    if pilot and method == "statistical":
        est_scale, err_scale = pilot[:2]
        g_hat = stacks[0] * est_scale
        if not truth:
            return None, g_hat
        g = stacks[1] * err_scale
        np.subtract(g_hat, g, out=g)
        return g, g_hat
    # generate_channel: CN(0, 1) entries, then column k times sqrt(beta_k)
    g = stacks[0] * np.sqrt(0.5)
    g *= sqrt_beta
    if not pilot:
        return g, g
    amp, phi_t, phi_conj, scale = pilot[2:]
    # receive_pilots' signal plus noise, added the other way round (IEEE
    # addition commutes); the noise and then the estimate reuse one buffer
    buf = g * amp
    y = _stacked_product(buf, phi_t, np.empty_like(buf))
    y += np.multiply(stacks[1], np.sqrt(params.sigma2_ul / 2.0), out=buf)
    g_hat = _stacked_product(y, phi_conj, buf)
    g_hat *= scale
    return g, g_hat


def _stacked_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` of a contiguous (..., M, K) stack and a K x K matrix into
    ``out``, of ``a``'s shape, as one 2-D product over all the stack's rows."""
    K = a.shape[-1]
    np.matmul(a.reshape(-1, K), b, out=out.reshape(-1, K))
    return out
