"""Stochastic frame simulation validating the closed forms end to end.

Each trial draws one channel realization, runs the energy phase through the
actual beamformer, estimates the channel (or injects the statistically
equivalent estimate), and computes the exact per-user uplink SINR gamma_k
from the estimate's K x K Gram (:func:`_exact_sinr`), so that
(1 - tau - alpha) E[log2(1 + gamma_k)] is the exact ergodic rate the
closed-form expressions lower-bound.  Uplink powers use the steady-state
energies: the analytical model's operating point, reproduced here so the
Monte Carlo estimates the same quantity the formulas predict.

A walk (:func:`_trial_walk`) simulates the trials of one or more operating
points that share their seed and trials, builds what no chunk changes once,
and computes only the rows its caller reads (:func:`_estimate_walks`).  Its
trials run in stacked chunks, each trial on its own random stream, so no
result depends on the chunking or on the worker count; the chunks of a
batch of walks share one set of forked workers (:func:`_run_chunks`).
Every result is bit for bit what the per-trial arithmetic gives.
"""

from __future__ import annotations

import functools
import os
import pickle
from dataclasses import dataclass

import numpy as np

from wetmm.energy import (
    ResourceAllocation,
    _check_columns,
    beamformer,
    clamp_rho,
    energies,
    general_beamformer,
)
from wetmm.estimation import _channel_consts, _channels, _trial_normals, error_variance
from wetmm.rates import _rate_phase, closed_form_rate
from wetmm.sysmodel import SystemParams, _antenna_sum, _check_count, _check_tags, _pcg64_states
# trial_rng stays bound here for bench/selftest.py, which checks that the
# tracer rebinds it in every namespace that imported it
from wetmm.sysmodel import trial_rng  # noqa: F401

__all__ = [
    "COND_LIMIT",
    "MAX_RESAMPLES",
    "McConfig",
    "McRateEstimate",
    "BoundCheck",
    "BeamformerComparison",
    "operating_point",
    "estimate_exact_rate",
    "verify_bound_tightness",
    "verify_beamformer_structure",
]

COND_LIMIT = 1e12
MAX_RESAMPLES = 8
# Trials run in chunks of stacked (trials, M, K) arrays of about this many
# entries, in _WORKERS processes (see _run_chunks); no result depends on either.
_CHUNK_ENTRIES = 2 ** 14
if not hasattr(os, "fork"):
    _WORKERS = 1
elif hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings.

    Attributes:
        n_trials: number of independent channel realizations.
        master_seed: root seed; trial t uses the (t, salt) spawn of it.
        channel_knowledge: "statistical" draws the estimate and error
            directly from their exact joint distribution; "pilot" runs the
            full pilot transmission and MMSE estimator.  The two are
            distributionally identical; "statistical" is the cheap default.
        detector: "zf" or "mrc".
        system: "wetmm", "opmm", or "ideal".
    """

    n_trials: int = 1000
    master_seed: int = 0
    channel_knowledge: str = "statistical"
    detector: str = "zf"
    system: str = "wetmm"

    def __post_init__(self):
        # a float count or a negative seed would only fail deep inside
        # numpy, after the search has run
        _check_count("n_trials", self.n_trials, 1)
        _check_count("master_seed", self.master_seed, 0)
        _check_tags(channel_knowledge=self.channel_knowledge, system=self.system,
                    detector=self.detector)


@dataclass
class McRateEstimate:
    """Per-user Monte Carlo rate estimate with standard errors.

    ``energy`` and ``energy_se`` are the harvested energies' mean and SE, or
    None from a walk that reads only rates (:func:`_estimate_walks`).
    ``error_var`` and ``error_var_se`` are the mean of |g_hat - g|^2 over
    the antennas and its SE, or None unless the estimate was asked for them.
    """

    rate: np.ndarray
    rate_se: np.ndarray
    energy: np.ndarray | None
    energy_se: np.ndarray | None
    n_trials: int
    n_resamples: int
    error_var: np.ndarray | None = None
    error_var_se: np.ndarray | None = None


@dataclass
class BoundCheck:
    """Exact MC rate versus the closed-form lower bound.

    ``jensen_ok`` means no user's bound exceeds the exact rate by more than
    3 MC standard errors; ``tight`` means every relative gap is at most 5%;
    ``conclusive`` is False when the MC error bars are too wide for either
    statement to mean anything.
    """

    exact: np.ndarray
    exact_se: np.ndarray
    bound: np.ndarray
    gap: np.ndarray
    jensen_ok: bool
    tight: bool
    conclusive: bool


@dataclass
class BeamformerComparison:
    """Paired MC energies: subspace beam versus complement-leaking beam."""

    structured: np.ndarray
    structured_se: np.ndarray
    general: np.ndarray
    general_se: np.ndarray
    diff: np.ndarray
    diff_se: np.ndarray
    theta_mass: float
    n_trials: int


def operating_point(params: SystemParams, alloc: ResourceAllocation, system: str):
    """Steady-state ``(energy, pilot_energy, powers, err_var)`` that every
    frame of one allocation shares; ``pilot_energy`` is None for the ideal
    system, and ``powers`` spend the unspent energy over the data phase,
    (1 - rho) E / (1 - tau - alpha), or E / (1 - alpha) for the ideal
    system.  Raises ValueError unless alpha > 0 and the data phase is
    nonempty."""
    rem = _rate_phase(system, alloc.tau, alloc.alpha)
    if alloc.alpha <= 0 or rem <= 0:
        raise ValueError("Monte Carlo needs alpha > 0 and a nonempty data phase")
    e = energies(params, system, alloc.alpha, alloc.rho, alloc.xi)
    if system == "ideal":
        return e, None, e / rem, np.zeros(params.K)
    rho = float(clamp_rho(alloc.rho))
    pilot_energy = rho * e
    powers = (1.0 - rho) * e / rem
    err_var = error_variance(params.beta, pilot_energy, params.sigma2_ul)
    return e, pilot_energy, powers, err_var


def _shared_rows(shape, dtype=float) -> np.ndarray:
    """Zeroed array of a walk's rows over an anonymous shared mapping, so
    the rows a forked worker writes are the parent's rows."""
    import mmap  # here, like signal below, to keep them out of wetmm's import time
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)


def _portable(exc: Exception) -> Exception:
    """``exc``, or a RuntimeError naming its type and message when it does
    not survive pickling."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__qualname__}: {exc}")
    return exc


def _fork_share(run, first: int) -> tuple[int, int]:
    """Fork a worker that runs ``run(first)`` and pickles the failures it
    returns into a pipe; returns its pid and the pipe's read end.  The
    worker leaves only through os._exit, never into the caller's stack."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        report = {index: _portable(exc) for index, exc in run(first).items()}
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(report, pipe)
        status = 0
    finally:
        os._exit(status)


def _walk_chunks(params: SystemParams, cfg: McConfig, blocks: int, body) -> list:
    """The chunks of one walk over range(cfg.n_trials), in trial order, for
    :func:`_run_chunks`: each is ``(trials, normals, body)``, with
    ``trials`` consecutive indices stacking about _CHUNK_ENTRIES entries and
    ``normals(pending, salt, rng)`` the :func:`_trial_normals` of trials
    ``pending`` at ``salt``, ``blocks`` real (M, K) blocks per trial.  The
    salt-0 seed words of every trial are built here, once per walk."""
    size = max(1, _CHUNK_ENTRIES // (params.M * params.K))
    words = _pcg64_states(cfg.master_seed, range(cfg.n_trials), 0)

    def normals(pending, salt, rng):
        states = (words[pending] if salt == 0
                  else _pcg64_states(cfg.master_seed, pending, salt))
        return _trial_normals(params, states, rng, blocks)
    return [(np.arange(lo, min(lo + size, cfg.n_trials)), normals, body)
            for lo in range(0, cfg.n_trials, size)]


def _run_chunks(chunks: list, max_workers: int | None = None) -> None:
    """Run ``chunks``, the :func:`_walk_chunks` of one walk or of a batch
    of walks concatenated in (walk, chunk) order, in up to ``max_workers``
    (default _WORKERS) processes, this one included, forked once for the
    whole list: worker w takes every n-th chunk from the w-th on.  The
    allocation table and the fairness comparison run one walk per antenna
    count as one batch; every other caller runs a batch of one.

    Each worker has one generator; per chunk it draws the trials' salt-0
    stacks and calls ``body(trials, stacks, redraw)``, where
    ``redraw(pending, salt)`` gives the stacks of trials ``pending`` at
    ``salt``.  A body writes only its trials' rows, which must be
    ``_shared_rows``, so no row is pickled; each forked child (``os.fork``)
    reports only the errors of its failed chunks (:func:`_fork_share`).
    Re-raise the error of the first failing chunk in list order.  Every
    forked worker is reaped before this returns or raises; one that exits
    without its report makes the batch raise, so no partial rows are
    returned.  Where ``os.fork`` is missing the batch runs in this process
    alone.  CPython 3.12 and later may issue a DeprecationWarning when a
    process that runs other threads, such as BLAS threads, forks; the batch
    lets it through."""
    import signal
    n_workers = min(_WORKERS if max_workers is None else max_workers, len(chunks))

    def run(first: int) -> dict:
        rng = np.random.default_rng(0)  # one generator per worker, set to each trial in turn
        for index in range(first, len(chunks), n_workers):
            trials, normals, body = chunks[index]
            try:
                # the last chunk's stacks stay alive while these are drawn:
                # freed first, they let glibc trim the heap top, and each chunk
                # faults its pages in anew (26x the minor faults, +25% CPU).
                # Rebinding releases them before this body runs; kept through
                # it, they made mc-validate --m 1000 12-15% slower
                stacks = normals(trials, 0, rng)
                body(trials, stacks, functools.partial(normals, rng=rng))
            except Exception as exc:  # re-raised by the parent, in list order
                return {index: exc}
        return {}

    # an untouched 16 MB block, freed at once, lifts glibc's dynamic mmap and
    # trim thresholds above every chunk's arrays, here and in the forked
    # workers, so no chunk maps or trims its heap pages anew.  Without it a
    # fresh process's 3,000-trial walk at M = 1000 took 59k minor faults on
    # one worker (1.1k with it), and a warm fairness pass 2.2k or 15.5k as
    # the heap's layout happened to fall
    np.empty(1 << 21)
    children = []  # (pid, read end of its report pipe), not yet reaped
    try:
        for first in range(1, n_workers):
            children.append(_fork_share(run, first))
        failures = run(0)
        while children:
            pid, report = children[0]
            data = b"".join(iter(lambda: os.read(report, 1 << 16), b""))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            os.close(report)
            if status != 0:
                how = f"was killed by signal {-status}" if status < 0 else f"exited {status}"
                raise RuntimeError(f"a Monte Carlo worker {how} without its report")
            failures.update(pickle.loads(data))
    except BaseException:
        # the batch fails either way: stop the workers rather than wait for them
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, report in children:
            os.close(report)
            os.waitpid(pid, 0)
    if failures:
        raise failures[min(failures)]


def _harvest(G: np.ndarray, w: np.ndarray, scale: float) -> np.ndarray:
    """Harvested energies scale |g_k^H w|^2 of stacked channels (T, M, K)
    under beams w, shared (M,) or per trial (T, M); shape (T, K)."""
    return scale * np.abs((G.conj().swapaxes(-1, -2) @ w[..., None])[..., 0]) ** 2


def _within_cond_limit(gram: np.ndarray, limit: float) -> np.ndarray:
    """``~(np.linalg.cond(gram) > limit)`` for stacked Grams (T, K, K), with
    the SVD run only on the Grams a cheap bound cannot clear.

    A Hermitian positive-definite Q with eigenvalues l_1 >= ... >= l_K > 0
    has cond(Q) = l_1 / l_K.  Its trace bounds l_1 <= tr Q, and
    det Q = l_1 ... l_K <= l_K (tr Q)^(K - 1), so cond(Q) <= (tr Q)^K / det Q.
    A Gram whose bound, taken in logs so that nothing overflows, is at most
    half the limit passes.  The factor 2 covers the rounding of the bound
    and of the SVD's cond: where the bound is at most 5e11, their relative
    errors are of order K eps cond <= 1e-3.  The screen never clears a Gram
    against more than 1e12, since near 1/eps those errors are no longer
    small.  Every other Gram, with a larger bound or a determinant that is
    not positive or not finite (NaN included), is decided by np.linalg.cond
    itself, so it passes, fails or raises exactly as before."""
    K = gram.shape[-1]
    trace = np.diagonal(gram, axis1=-2, axis2=-1).real.sum(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sign, logdet = np.linalg.slogdet(gram)
        ok = (sign.real > 0) & (K * np.log(trace) - logdet <= np.log(min(limit, 1e12) / 2))
    rest = ~ok
    if rest.any():
        ok[rest] = ~(np.linalg.cond(gram[rest]) > limit)
    return ok


def _exact_sinr(G_hat: np.ndarray, powers: np.ndarray, noise: float, off_diag: np.ndarray,
                detector: str, columns: bool = False):
    """Exact SINRs of stacked estimates (T, M, K) from their Grams Q = Ghat^H
    Ghat, with ``noise`` n = sum_i p_i sigma2_e_i + sigma2 -- zf: p_k /
    ([Q^-1]_kk n); mrc: p_k Q_kk^2 / (sum_{i != k} p_i |Q_ki|^2 + Q_kk n),
    its interference summed over i != k alone (``off_diag`` is the K x K
    mask of i != k), since subtracting the diagonal from a full sum cancels
    digits.  Returns ``(ok, sinr)``: the mask of trials whose ZF Gram passes
    COND_LIMIT (all for MRC) and their SINRs.  With ``columns``, raise the
    beam's zero-norm ValueError (``energy._check_columns``) when an accepted
    trial's Q_kk, its squared column norm, is 0 or not finite: a walk that
    builds no beam still refuses the estimates the beam would refuse."""
    gram = G_hat.conj().swapaxes(-1, -2) @ G_hat
    diag = np.diagonal(gram, axis1=-2, axis2=-1).real
    if detector == "zf":
        ok = _within_cond_limit(gram, COND_LIMIT)
        inv_diag = np.diagonal(np.linalg.inv(gram[ok]), axis1=-2, axis2=-1)
        sinr = powers / (inv_diag.real * noise)
    else:
        ok = np.ones(len(gram), dtype=bool)
        cross = np.abs(gram) ** 2 * off_diag
        sinr = powers * diag ** 2 / (cross @ powers + diag * noise)
    if columns:
        _check_columns(diag[ok])
    return ok, sinr


def _error_rows(G: np.ndarray, G_hat: np.ndarray) -> np.ndarray:
    """Means of |g_hat - g|^2 over the antennas of stacked channels (T, M, K),
    shape (T, K): ``np.mean(np.abs(G_hat - G) ** 2, axis=1)`` bit for bit,
    its sum taken by ``sysmodel._antenna_sum``."""
    sq = np.abs(G_hat - G)
    sq *= sq
    return _antenna_sum(sq) / G.shape[1]


def _trial_walk(params: SystemParams, points: list, error_var: bool,
                energy: bool = True) -> tuple[list, list]:
    """Plan one walk that simulates ``cfg.n_trials`` independent frames at
    each ``(alloc, cfg)`` of ``points``: returns ``(rows, chunks)``, where
    ``rows`` holds one ``(harvested, sinr, resamples, err_sq)`` per point,
    filled once :func:`_run_chunks` has run the walk's ``chunks``.

    ``sinr`` holds the (n_trials, K) exact SINRs and ``resamples`` each
    trial's redraw count.  A trial whose ZF Gram matrix is near-singular is
    redrawn at the next salt of its stream; np.linalg.LinAlgError is raised
    when a trial needs more than MAX_RESAMPLES redraws.  ``harvested`` holds
    the (n_trials, K) harvested energies alpha p_dl |g_k^H w|^2, or None
    without ``energy`` (a rate-only walk: :func:`_estimate_walks`), and
    ``err_sq`` the (n_trials, K) means of |g_hat - g|^2 over the antennas,
    or None without ``error_var``.

    The points share each chunk's salt-0 normals, so they must agree on
    ``master_seed`` and ``n_trials``; ValueError names the field that
    differs.  A point reads 4 real (M, K) blocks per trial (estimate and
    error, or channel and pilot noise), or 2 where the last two go unread:
    the ideal system, whose estimate is the channel, and the statistical
    estimate of a walk with neither energy nor error rows.  The walk draws
    the largest count its points read, and a point that reads 2 reads the
    first 2, which ``estimation._trial_normals`` draws the same either way.
    Each point builds its own channels from that buffer, and redraws at salt
    >= 1 stay per point, since the points' ZF Grams differ.  The error rows
    read the pilot pipeline's draw, because the statistical draw samples the
    error from the very variance under test.  They are built from the same
    salt-0 normals, so no normal is drawn twice; redraws change only the
    rate and energy rows.
    """
    if not points:
        raise ValueError("need at least one operating point")
    cfg0 = points[0][1]
    for _, cfg in points[1:]:
        for name in ("master_seed", "n_trials"):
            if getattr(cfg, name) != getattr(cfg0, name):
                raise ValueError(f"operating points must share {name}, got "
                                 f"{getattr(cfg0, name)!r} and {getattr(cfg, name)!r}")
    estimate_only = not (energy or error_var)
    blocks = max(2 if cfg.system == "ideal"
                 or estimate_only and cfg.channel_knowledge == "statistical" else 4
                 for _, cfg in points)
    n, K = cfg0.n_trials, params.K
    # per walk: each point's channel constants, powers and noise term, the
    # MRC mask and the isotropic beam
    ops = []
    for alloc, cfg in points:
        if cfg.detector == "zf":
            params.require_zf()
        _, pilot_energy, powers, err_var = operating_point(params, alloc, cfg.system)
        ops.append((_channel_consts(params, pilot_energy, err_var), powers,
                    float(np.dot(powers, err_var)) + params.sigma2_ul))
    off_diag = ~np.eye(K, dtype=bool)
    isotropic = np.full(params.M, 1.0 / np.sqrt(params.M), dtype=complex)
    out = [(_shared_rows((n, K)) if energy else None, _shared_rows((n, K)), _shared_rows(n, int),
            _shared_rows((n, K)) if error_var else None) for _ in points]

    def draw(cfg, consts, err_sq, pending, stacks, salt):
        if salt == 0 and err_sq is not None:
            G, G_hat = _channels(params, consts, stacks, "pilot")
            err_sq[pending] = _error_rows(G, G_hat)
            if cfg.channel_knowledge == "pilot":
                return G, G_hat
            del G, G_hat  # free the pilot stacks before the rate stacks are built
        return _channels(params, consts, stacks, cfg.channel_knowledge, truth=energy)

    def body(trials, shared, redraw):
        for (alloc, cfg), (consts, powers, noise), rows in zip(points, ops, out):
            harvested, sinr, resamples, err_sq = rows
            pending = trials
            for salt in range(MAX_RESAMPLES + 1):
                stacks = shared if salt == 0 else redraw(pending, salt)
                G, G_hat = draw(cfg, consts, err_sq, pending, stacks, salt)
                ok, sinr_ok = _exact_sinr(G_hat, powers, noise, off_diag, cfg.detector,
                                          columns=not energy and cfg.system != "opmm")
                all_ok = ok.all()
                done = pending if all_ok else pending[ok]
                sinr[done] = sinr_ok
                resamples[done] = salt
                if energy:
                    if not all_ok:
                        G, G_hat = G[ok], G_hat[ok]
                    w = isotropic if cfg.system == "opmm" else beamformer(G_hat, alloc.xi)
                    harvested[done] = _harvest(G, w, alloc.alpha * params.p_dl)
                if all_ok:
                    break
                pending = pending[~ok]
            else:
                raise np.linalg.LinAlgError(f"ZF Gram matrix stayed ill-conditioned after "
                                            f"{MAX_RESAMPLES} redraws (trial {pending[0]})")
    return out, _walk_chunks(params, cfg0, blocks, body)


def _run_trials(params: SystemParams, points: list, error_var: bool) -> list:
    """The rows of :func:`_trial_walk`, its walk run alone."""
    out, chunks = _trial_walk(params, points, error_var)
    _run_chunks(chunks)
    return out


def _mean_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over axis 0 and its standard error (0 for a single sample)."""
    mean = samples.mean(axis=0)
    n = samples.shape[0]
    if n < 2:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / np.sqrt(n)


def estimate_exact_rate(params: SystemParams, alloc: ResourceAllocation,
                        cfg: McConfig, *, error_var: bool = False) -> McRateEstimate:
    """Per-user exact ergodic rate, the mean of rem log2(1 + gamma) with rem
    the data phase (``rates._rate_phase``), and harvested energy, each with
    its SE.  With ``error_var`` the estimate also carries the MC mean and SE
    of the pilot pipeline's |g_hat - g|^2, averaged over the antennas (the
    ideal system has no estimation error, so it raises ValueError there).
    """
    return _estimate_walks([(params, [(alloc, cfg)])], error_var)[0][0]


def _estimate_walks(walks: list, error_var: bool,
                    energy: bool = True) -> list[list[McRateEstimate]]:
    """:func:`estimate_exact_rate` at each ``(alloc, cfg)`` of the
    ``points`` of each ``(params, points)`` of ``walks``, bit for bit.  Each
    ``(params, points)`` is one :func:`_trial_walk`, which draws each
    trial's first normals once for all its points (common random numbers),
    and the chunks of all the walks run as one batch (:func:`_run_chunks`).

    Without ``energy`` the walks read only rates, as the allocation table,
    the fairness comparison and :func:`verify_bound_tightness` do.  The rate
    reads the estimate alone, so such a walk builds no beam or harvest, nor
    a statistical point's true channel, and draws only the normals that the
    estimates read (the block count of :func:`_trial_walk`).  Each
    estimate's ``energy`` and ``energy_se`` are None, and its rates,
    ``rate_se`` and ``n_resamples`` are the full walk's bit for bit.

    Every walk is planned before the fork, so the rows and seed words of all
    of them are live at once: per trial, 32 bytes of seed words and, at
    K = 2, 40 bytes of rows per point (24 without energy rows, 16 more with
    error rows), so 72 bytes for a one-point walk."""
    _check_count("number of walks", len(walks), 1)
    if error_var and any(cfg.system == "ideal" for _, points in walks for _, cfg in points):
        raise ValueError("the ideal system has no estimation error")
    planned = [_trial_walk(params, points, error_var, energy) for params, points in walks]
    _run_chunks([chunk for _, chunks in planned for chunk in chunks])
    return [[_estimate(alloc, cfg, rows) for (alloc, cfg), rows in zip(points, out)]
            for (_, points), (out, _) in zip(walks, planned)]


def _estimate(alloc: ResourceAllocation, cfg: McConfig, rows) -> McRateEstimate:
    """The estimate of one point from its walk's ``(harvested, sinr,
    resamples, err_sq)`` rows; the energy and error fields stay None where
    their rows are."""
    harvested, sinr, resamples, err_sq = rows
    rate, rate_se = _mean_se(_rate_phase(cfg.system, alloc.tau, alloc.alpha)
                             * np.log2(1.0 + sinr))
    est = McRateEstimate(rate=rate, rate_se=rate_se, energy=None, energy_se=None,
                         n_trials=cfg.n_trials, n_resamples=int(resamples.sum()))
    if harvested is not None:
        est.energy, est.energy_se = _mean_se(harvested)
    if err_sq is not None:
        est.error_var, est.error_var_se = _mean_se(err_sq)
    return est


def verify_bound_tightness(params: SystemParams, alloc: ResourceAllocation, cfg: McConfig,
                           precision: float = 0.02) -> BoundCheck:
    """Compare the exact MC rate against the closed-form lower bound
    (:class:`BoundCheck`).  If any user's 3-sigma half width exceeds
    ``precision`` of its exact rate, the check is flagged inconclusive and
    neither verdict should be trusted.
    """
    est = _estimate_walks([(params, [(alloc, cfg)])], error_var=False, energy=False)[0][0]
    bound = closed_form_rate(params, alloc, cfg.system, cfg.detector)
    gap = est.rate - bound
    conclusive = bool(np.all(3.0 * est.rate_se <= precision * np.abs(est.rate)))
    jensen_ok = bool(np.all(gap >= -3.0 * est.rate_se))
    with np.errstate(invalid="ignore", divide="ignore"):
        tight = bool(np.all(gap / est.rate <= 0.05))
    return BoundCheck(exact=est.rate, exact_se=est.rate_se, bound=bound, gap=gap,
                      jensen_ok=jensen_ok, tight=tight, conclusive=conclusive)


def verify_beamformer_structure(params: SystemParams, alloc: ResourceAllocation,
                                theta_mass: float, cfg: McConfig) -> BeamformerComparison:
    """Paired MC test that moving beam energy off the user subspace loses.

    The general beam splits downlink energy as xi' = (1 - theta_mass) xi on
    the estimated user directions plus theta_mass spread uniformly over the
    orthogonal complement.  The structured competitor renormalizes xi' back
    onto the simplex, which for a uniform scaling is xi itself.  Both beams
    see the same realizations, so the per-trial difference is a paired
    sample.
    """
    if not 0 <= theta_mass <= 1:
        raise ValueError("theta_mass must lie in [0, 1]")
    if cfg.system != "wetmm":
        raise ValueError("the beam-structure comparison applies to the subspace-beam system")
    n_comp = params.M - params.K
    if n_comp < 1:
        raise ValueError("need M > K for an orthogonal complement")
    _, pilot_energy, _, err_var = operating_point(params, alloc, cfg.system)
    consts = _channel_consts(params, pilot_energy, err_var)
    xi_prime = (1.0 - theta_mass) * alloc.xi
    theta = np.full(n_comp, theta_mass / n_comp)
    scale = alloc.alpha * params.p_dl
    structured, general = _shared_rows((2, cfg.n_trials, params.K))
    def body(trials, stacks, redraw):
        G, G_hat = _channels(params, consts, stacks, cfg.channel_knowledge)
        # the complete QR of the complement beam stays per trial: a stacked
        # one would hold M x M per trial
        w_g = np.stack([general_beamformer(g_hat, xi_prime, theta) for g_hat in G_hat])
        structured[trials] = _harvest(G, beamformer(G_hat, alloc.xi), scale)
        general[trials] = _harvest(G, w_g, scale)
    # one worker: each trial's complete M x M QR already runs on the BLAS
    # threads, and forked workers beside them oversubscribe the cores
    _run_chunks(_walk_chunks(params, cfg, 4, body), max_workers=1)
    s_mean, s_se = _mean_se(structured)
    g_mean, g_se = _mean_se(general)
    d_mean, d_se = _mean_se(structured - general)
    return BeamformerComparison(structured=s_mean, structured_se=s_se,
                                general=g_mean, general_se=g_se,
                                diff=d_mean, diff_se=d_se,
                                theta_mass=float(theta_mass), n_trials=cfg.n_trials)
