"""The channel model, MMSE channel estimation and the Monte Carlo's batched
channel draw.

The channel between the M-antenna access point and the K single-antenna
users is independent Rayleigh fading scaled by per-user long-term path loss:

    G = H diag(beta)^(1/2),   H i.i.d. CN(0, 1)

so column k of G is CN(0, beta_k I_M), and it holds for the whole frame
(channel reciprocity).  Users send orthogonal uplink pilots with per-user
pilot energy D_k (total energy over the whole pilot block, i.e. pilot
length times per-symbol pilot power).  The access point observes

    Y_p = G (Phi D^(1/2))^T + N,    Phi^H Phi = I_K,  N i.i.d. CN(0, sigma2)

and forms the linear MMSE estimate

    G_hat = Y_p Phi^* (B D + sigma2 I)^(-1) D^(1/2) B,   B = diag(beta).

Estimate and error are independent, with per-entry variances
beta_k - error_var_k and error_var_k (:func:`error_variance`).

:func:`_channels` builds stacked (G, G_hat) pairs by either method of
``McConfig.channel_knowledge``: the pilot pipeline above, with the shortest
pilot block, L = K, or a direct draw of estimate and error from their exact
marginals.  The Monte Carlo draws its trials a chunk at a time:
:func:`_channel_consts` holds what no chunk changes, :func:`_trial_normals`
draws a chunk's normals, and :func:`_channels` turns them into channels,
each once for the whole chunk.  Every trial equals the per-trial draw of
the tests' reference, ``tests/reference.py``, bit for bit.
"""

from __future__ import annotations

import numpy as np

from wetmm.sysmodel import SystemParams, _check_finite, _pcg64_assemble

__all__ = ["error_variance"]


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


def _channel_consts(params: SystemParams, pilot_energy, err_var) -> tuple:
    """What :func:`_channels` needs of one pilot energy, built once for all
    the chunks of a walk.  The column scales are (M, K) arrays, one trial's
    full shape, so a chunk's scaling runs M K entries per inner loop, not K:
    sqrt(beta), then, unless ``pilot_energy`` is None (perfect channel
    knowledge, where the tuple ends there), the estimate and error scales
    sqrt((beta - error_var) / 2) and sqrt(error_var / 2), the pilot
    amplitudes sqrt(D), Phi^T and Phi^* of the K x K DFT pilot block Phi
    (column k the k-th column of the K-point DFT matrix over sqrt(K)), and
    the MMSE estimate's column scale sqrt(D) beta / (beta D + sigma2), into
    which its diagonal K x K factors collapse.  ``err_var`` is
    ``error_variance(params.beta, pilot_energy, params.sigma2_ul)``."""
    def full(row):
        return np.broadcast_to(row, (params.M, params.K)).copy()
    sqrt_beta = full(np.sqrt(params.beta))
    if pilot_energy is None:
        return (sqrt_beta,)
    K, beta = params.K, params.beta
    energy = np.broadcast_to(np.asarray(pilot_energy, dtype=float), (K,))
    phi = np.exp(-2j * np.pi * np.arange(K)[:, None] * np.arange(K)[None, :] / K) / np.sqrt(K)
    amp = np.sqrt(energy)
    return (sqrt_beta, full(np.sqrt((beta - err_var) / 2.0)), full(np.sqrt(err_var / 2.0)),
            full(amp), phi.T, phi.conj(), full(amp * beta / (beta * energy + params.sigma2_ul)))


def _trial_normals(params: SystemParams, words: np.ndarray, rng: np.random.Generator,
                   blocks: int) -> list[np.ndarray]:
    """The complex (trials, M, K) stacks of standard normals of the trials
    whose ``sysmodel._pcg64_states`` rows are ``words``, ``blocks`` real
    (M, K) blocks per trial (2 or 4).

    ``rng``'s PCG64 is set to each trial's ``trial_rng(master_seed, t,
    salt)`` state in turn and makes one ``standard_normal`` call into that
    trial's row of a real buffer: the real and imaginary parts of the
    per-trial draw, in its order (channel, then pilot noise; or estimate,
    then error).  The buffer is interleaved
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
    """``(G, G_hat)``, complex (trials, M, K), by ``method`` ("statistical"
    or "pilot") from :func:`_trial_normals` stacks, which are left
    unchanged, and the :func:`_channel_consts` of their pilot energy: the
    scaling, the estimate-minus-error subtraction and the pilot pipeline,
    each once for the whole stack.  Without ``truth``
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
    # the channel: CN(0, 1) entries, then column k times sqrt(beta_k)
    g = stacks[0] * np.sqrt(0.5)
    g *= sqrt_beta
    if not pilot:
        return g, g
    amp, phi_t, phi_conj, scale = pilot[2:]
    # the received block, signal plus noise; the noise and then the estimate
    # reuse one buffer
    buf = g * amp
    y = _stacked_product(buf, phi_t, np.empty_like(buf))
    y += np.multiply(stacks[1], np.sqrt(params.sigma2_ul / 2.0), out=buf)
    g_hat = _stacked_product(y, phi_conj, buf)
    g_hat *= scale
    return g, g_hat


def _stacked_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` of a contiguous (..., M, K) stack and a K x K matrix into
    ``out``, of ``a``'s shape, as one 2-D product over all the stack's rows,
    not one (M, K) product per trial: each row is the same K-term sum of one
    input row."""
    K = a.shape[-1]
    np.matmul(a.reshape(-1, K), b, out=out.reshape(-1, K))
    return out
