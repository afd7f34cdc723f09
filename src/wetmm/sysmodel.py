"""Scenario definition, path-loss modeling, seeded random streams and the
input guards every module shares.

The frame length is normalized to 1, so all phase durations are
dimensionless fractions and the energy delivered over a fraction is simply
power times fraction.  The channel model is stated in
:mod:`wetmm.estimation`, which draws the channels.
"""

from __future__ import annotations

import math
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
    "trial_rng",
]


def _check_tags(**tags) -> None:
    """Raise ValueError on a tag outside its ``_TAGS`` vocabulary."""
    for name, value in tags.items():
        if value not in _TAGS[name]:
            raise ValueError(f"unknown {name}: {value!r}")


def _check_count(name: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is an int or numpy integer, not a
    bool, of at least ``low``: bools are ints to Python, and a NaN or 200.5
    would pass a size check and be cut or fail deep inside numpy."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


def _check_finite(name: str, value, sign: str | None = None) -> None:
    """Raise ValueError unless every entry of ``value`` is finite and, with
    ``sign`` "nonnegative" or "positive", >= 0 or > 0.  Each test is a
    positive one, so NaN fails it.  A float skips numpy, whose scalar
    checks cost 20 times as much."""
    if isinstance(value, float):
        ok = math.isfinite(value) and (
            value > 0 if sign == "positive" else value >= 0 if sign else True)
    else:
        x = np.asarray(value, dtype=float)
        ok = (np.isfinite(x) & (x > 0 if sign == "positive" else x >= 0 if sign else True)).all()
    if not ok:
        raise ValueError(f"{name} must be {sign + ' and ' if sign else ''}finite")


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


def _seed_pool(master_seed: int) -> tuple[int, ...]:
    """SeedSequence(master_seed, spawn_key=...)'s hash constant and pool before
    the key's words.  A spawn key pads the seed to n = max(4, words) words;
    SeedSequence(master_seed) hashes 0 into each missing pool word, which is
    the same pool, and the n words took 4 n hashmix steps."""
    pool = np.random.SeedSequence(master_seed).pool.tolist()
    n = max(4, -(-master_seed.bit_length() // 32))
    return (_INIT_A * pow(_MULT_A, 4 * n, 1 << 32) & _M32, *pool)


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
        _check_count("M", self.M, 2)
        _check_count("K", self.K, 1)
        if beta.shape != (self.K,):
            raise ValueError(f"beta must have shape ({self.K},), got {beta.shape}")
        _check_finite("beta", beta, "positive")
        _check_finite("p_dl", self.p_dl, "positive")
        _check_finite("sigma2_ul", self.sigma2_ul, "positive")
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
    _check_finite("beta0", beta0, "positive")
    _check_finite("u", u)
    _check_finite("distances", d, "positive")
    return beta0 * d ** (-u)
