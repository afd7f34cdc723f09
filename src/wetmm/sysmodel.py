"""Scenario definition, path-loss modeling, and random channel generation.

The channel between the M-antenna access point and the K single-antenna
users is independent Rayleigh fading scaled by per-user long-term path loss:

    G = H diag(beta)^(1/2),   H i.i.d. CN(0, 1)

so column k of G is CN(0, beta_k I_M).  Channel reciprocity holds within a
frame; the frame length is normalized to 1, so all phase durations are
dimensionless fractions and the energy delivered over a fraction is simply
power times fraction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# every tag vocabulary: the systems (subspace beam, isotropic beam, perfect-CSI
# bound), the detectors, the beam-weight search policies and the two
# distributionally identical ways of drawing a channel estimate
_TAGS = {"system": ("wetmm", "opmm", "ideal"), "detector": ("zf", "mrc"),
         "xi_policy": ("analytic", "simplex"), "channel_knowledge": ("statistical", "pilot")}

__all__ = [
    "SystemParams",
    "path_loss",
    "generate_channel",
    "trial_rng",
    "complex_gaussian",
]


def _check_tags(**tags) -> None:
    """Raise ValueError on a tag outside its ``_TAGS`` vocabulary."""
    for name, value in tags.items():
        if value not in _TAGS[name]:
            raise ValueError(f"unknown {name}: {value!r}")


def _check_users(xi, K: int) -> None:
    """Raise ValueError unless beam weights ``xi`` carry K users on their
    last axis; a scalar weight broadcasts to every user."""
    n = np.shape(xi)[-1:]
    if n and n[0] != K:
        raise ValueError(f"beam weights have length {n[0]}, expected K = {K}")


def _antenna_sum(x: np.ndarray) -> np.ndarray:
    """``np.add.reduce(x, axis=-2)`` of a real (..., M, K) stack, bit for bit,
    with long inner loops.  Over a non-last axis numpy adds the antenna rows
    one after another, each add an inner loop of K entries.  An
    antenna-major copy keeps that order and makes each add one loop over
    the whole stack; it moves each K-entry row as one item of a K-entry
    void dtype, which numpy copies far faster than K doubles.  A 2-D array
    is antenna-major already, and at K = 1 the antenna axis is the inner
    loop, which numpy sums pairwise, so both reduce in place."""
    K = x.shape[-1]
    if x.ndim == 2 or K == 1:
        return np.add.reduce(x, axis=-2)
    rows = np.ascontiguousarray(x).view(np.dtype((np.void, x.itemsize * K)))[..., 0]
    rows = np.moveaxis(rows, -1, 0).copy()
    return np.add.reduce(rows.view(x.dtype).reshape(rows.shape + (K,)), axis=0)


def trial_rng(master_seed: int, trial: int = 0, salt: int = 0) -> np.random.Generator:
    """Independent random stream for one Monte Carlo trial.

    Streams are derived as ``SeedSequence(master_seed, spawn_key=(trial, salt))``,
    so any (master_seed, trial) pair maps to the same stream no matter how many
    trials run, in what order, or on how many workers.  ``salt`` is reserved for
    in-trial resampling (e.g. redrawing a numerically singular channel) and must
    stay 0 on the first attempt.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(trial), int(salt)))
    return np.random.default_rng(ss)


# numpy's SeedSequence hash constants and the PCG64 multiplier
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG64_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


@functools.lru_cache(maxsize=16)
def _seed_pool(master_seed: int) -> tuple[int, ...]:
    """SeedSequence(master_seed, spawn_key=...)'s hash constant and pool before
    the key's words.  A spawn key pads the seed to n = max(4, words) words;
    SeedSequence(master_seed) hashes 0 into each missing pool word, which is
    the same pool, and the n words took 4 n hashmix steps."""
    pool = np.random.SeedSequence(master_seed).pool.tolist()
    n = max(4, -(-master_seed.bit_length() // 32))
    return (_INIT_A * pow(_MULT_A, 4 * n, 1 << 32) & _M32, *pool)


@functools.lru_cache(maxsize=16)
def _hash_consts(hash_const: int, mult: int) -> np.ndarray:
    """Hash constants of 8 hashmix steps from ``hash_const``, a (9, 1) uint32
    column: step i xors in row i and multiplies by row i + 1."""
    return np.array([hash_const * pow(mult, i, 1 << 32) & _M32 for i in range(9)], np.uint32)[:, None]


def _pcg64_states(master_seed: int, trials, salt: int) -> np.ndarray:
    """The words that seed ``trial_rng(master_seed, t, salt)`` for each t in
    ``trials``: a (len(trials), 4) uint64 array whose row i is
    ``SeedSequence(master_seed, spawn_key=(trials[i], salt)).generate_state(4,
    np.uint64)``, computed without building a SeedSequence.
    :func:`_pcg64_assemble` turns rows into PCG64 states.

    numpy's SeedSequence mixing runs for all trials at once on a (4, n) pool
    of uint32 lanes, whose arithmetic wraps modulo 2**32 as SeedSequence's
    does; the hash constants do not depend on the data, so they are computed
    once.  Trials or a salt of 2**32 or more take a SeedSequence itself.
    Negative inputs raise ValueError.
    """
    master_seed, trials, salt = int(master_seed), [int(t) for t in trials], int(salt)
    if salt < 0 or any(t < 0 for t in trials):
        raise ValueError("expected non-negative integer")
    hash_const, *pool = _seed_pool(master_seed)
    h, pool = _hash_consts(hash_const, _MULT_A), np.array(pool, np.uint32)[:, None]
    for j, word in enumerate((np.array([t & _M32 for t in trials], np.uint32), salt & _M32)):
        value = (word ^ h[4 * j:4 * j + 4]) * h[4 * j + 1:4 * j + 5]  # hashmix(word)
        mixed = _MIX_L * pool - _MIX_R * (value ^ value >> 16)  # pool[d] = mix(pool[d], ...)
        pool = mixed ^ mixed >> 16
    h = _hash_consts(_INIT_B, _MULT_B)
    w = (np.concatenate([pool, pool]) ^ h[:8]) * h[1:]
    w = (w ^ w >> 16).astype(np.uint64)
    words = np.ascontiguousarray((w[1::2] << 32 | w[::2]).T)
    for i, t in enumerate(trials):
        if t > _M32 or salt > _M32:
            words[i] = np.random.SeedSequence(master_seed, spawn_key=(t, salt)).generate_state(
                4, np.uint64)
    return words


def _pcg64_assemble(words: np.ndarray) -> list[dict]:
    """``trial_rng(...).bit_generator.state["state"]`` of each row of
    :func:`_pcg64_states`: PCG64 takes its 128-bit state from the first two
    words and its increment from the last two, then steps twice."""
    states = []
    for a, b, c, d in words.tolist():
        inc = ((c << 64 | d) << 1 | 1) & _M128
        states.append({"state": (((a << 64 | b) + inc) * _PCG64_MULT + inc) & _M128, "inc": inc})
    return states


def complex_gaussian(rng: np.random.Generator, shape, var=1.0) -> np.ndarray:
    """I.i.d. circularly symmetric complex Gaussian samples CN(0, var).

    Each sample is built from two independent real Gaussians of variance
    var/2.  ``var`` broadcasts against ``shape``, so per-column variances can
    be passed directly.
    """
    var = np.asarray(var, dtype=float)
    if not np.all(np.isfinite(var) & (var >= 0)):
        raise ValueError("variance must be nonnegative and finite")
    std = np.sqrt(var / 2.0)
    return std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of one scenario.

    Attributes:
        M: antenna count at the access point.
        K: number of single-antenna users.
        p_dl: downlink transmit power in watts.
        sigma2_ul: noise power at each access-point antenna in watts.
        beta: length-K vector of long-term path losses (linear scale).
    """

    M: int
    K: int
    p_dl: float
    sigma2_ul: float
    beta: np.ndarray

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float)).copy()
        for name in ("M", "K"):
            value = getattr(self, name)
            # bools are ints to Python, and NaN or 200.5 would pass the size checks
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.M < 2:
            raise ValueError(f"need at least 2 antennas, got M={self.M}")
        if self.K < 1:
            raise ValueError(f"need at least 1 user, got K={self.K}")
        if beta.shape != (self.K,):
            raise ValueError(f"beta must have shape ({self.K},), got {beta.shape}")
        if not np.all(np.isfinite(beta) & (beta > 0)):
            raise ValueError("all path losses must be positive and finite")
        for name in ("p_dl", "sigma2_ul"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive and finite")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)

    def require_zf(self) -> None:
        """Zero-forcing detection needs strictly more antennas than users."""
        if self.M < self.K + 1:
            raise ValueError(f"ZF requires M >= K+1, got M={self.M}, K={self.K}")


def path_loss(beta0: float, u: float, distances) -> np.ndarray:
    """Per-user power-law path losses beta = beta0 * d^(-u), with beta0 the
    path loss at unit distance and u the path-loss exponent."""
    d = np.atleast_1d(np.asarray(distances, dtype=float))
    if not (np.isfinite(beta0) and beta0 > 0 and np.isfinite(u)):
        raise ValueError("beta0 must be positive and finite, and u finite")
    if not np.all(np.isfinite(d) & (d > 0)):
        raise ValueError("distances must be positive and finite")
    return beta0 * d ** (-u)


def generate_channel(params: SystemParams, seed) -> np.ndarray:
    """One draw of the M x K uplink channel matrix G = H diag(beta)^(1/2).

    Args:
        params: scenario constants.
        seed: integer master seed (expanded through :func:`trial_rng`) or an
            existing numpy Generator to draw from directly.

    Returns:
        Complex (M, K) array; column k has i.i.d. CN(0, beta_k) entries.
        A fixed integer seed reproduces the matrix bit for bit.
    """
    rng = seed if isinstance(seed, np.random.Generator) else trial_rng(int(seed))
    h = complex_gaussian(rng, (params.M, params.K))
    return h * np.sqrt(params.beta)[None, :]

