"""Exact-SINR Monte Carlo: determinism, closed-form agreement, bound checks."""

import os
import sys
import time

import numpy as np
import pytest

from wetmm.energy import ResourceAllocation, beamformer, energies
import wetmm.estimation as estimation
from wetmm.estimation import _channel_consts, _channels
import wetmm.montecarlo as montecarlo
from wetmm.montecarlo import (McConfig, _mean_se, _run_trials, estimate_exact_rate,
                              operating_point, verify_beamformer_structure,
                              verify_bound_tightness)
from wetmm.rates import closed_form_rate
from wetmm.sysmodel import trial_rng

from conftest import assert_no_child_left, benchmark_params
from reference import draw_trials, generate_channel


def cfg_for(system="wetmm", detector="zf", n=200, seed=0, knowledge="statistical"):
    return McConfig(n_trials=n, master_seed=seed, channel_knowledge=knowledge,
                    detector=detector, system=system)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_trials=0, master_seed=0, detector="zf", system="wetmm")
    with pytest.raises(ValueError):
        McConfig(n_trials=10, master_seed=0, detector="dfe", system="wetmm")
    with pytest.raises(ValueError):
        McConfig(n_trials=10, master_seed=0, detector="zf", system="cellfree")
    with pytest.raises(ValueError):
        McConfig(n_trials=10, master_seed=0, detector="zf", system="wetmm",
                 channel_knowledge="oracle")
    # a float count used to fail in np.empty, a negative seed deep inside
    # numpy's SeedSequence, both after the search had run
    for bad in ({"n_trials": 2.5}, {"n_trials": True}, {"n_trials": "10"},
                {"master_seed": -1}, {"master_seed": 1.5}, {"master_seed": False}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            McConfig(**{"n_trials": 10, "master_seed": 0, **bad})
    McConfig(n_trials=np.int64(10), master_seed=np.uint64(2 ** 63))


def test_frame_determinism(params200, ref_alloc):
    cfg = cfg_for(n=5)
    a_energy, a_sinr, _, _ = _run_trials(params200, [(ref_alloc, cfg)], error_var=False)[0]
    b_energy, b_sinr, _, _ = _run_trials(params200, [(ref_alloc, cfg)], error_var=False)[0]
    assert np.array_equal(a_sinr, b_sinr) and np.array_equal(a_energy, b_energy)
    assert not np.array_equal(a_sinr[3], a_sinr[4])


def test_frame_requires_energy_phase(params200, xi_star):
    alloc = ResourceAllocation(tau=0.01, alpha=0.0, rho=0.5, xi=xi_star)
    with pytest.raises(ValueError):
        operating_point(params200, alloc, "wetmm")


def test_ideal_data_phase_ignores_tau(params200, xi_star):
    """The ideal system has no estimation phase, so tau + alpha = 1 still
    leaves it a data phase of 1 - alpha, in the Monte Carlo as in the
    closed form; tau changes no bit of its estimate."""
    cfg = cfg_for(system="ideal", n=200, seed=1)
    est = estimate_exact_rate(params200, ResourceAllocation(0.5, 0.5, 0.0, xi_star), cfg)
    at_zero = estimate_exact_rate(params200, ResourceAllocation(0.0, 0.5, 0.0, xi_star), cfg)
    assert np.array_equal(est.rate, at_zero.rate) and np.array_equal(est.energy, at_zero.energy)
    bound = closed_form_rate(params200, ResourceAllocation(0.5, 0.5, 0.0, xi_star), "ideal", "zf")
    assert np.all(bound > 0) and np.all(bound <= est.rate + 3.0 * est.rate_se)
    with pytest.raises(ValueError, match="data phase"):
        operating_point(params200, ResourceAllocation(0.5, 0.5, 0.5, xi_star), "wetmm")


def test_run_trials_computes_operating_point_once(params200, ref_alloc, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return operating_point(*args)

    monkeypatch.setattr(montecarlo, "operating_point", counting)
    energy, sinr, resamples, _ = _run_trials(params200, [(ref_alloc, cfg_for(n=7))],
                                             error_var=False)[0]
    assert energy.shape == sinr.shape == (7, 2) and resamples.shape == (7,)
    assert len(calls) == 1


def test_ideal_zf_perfect_knowledge_identity(params200, ref_alloc):
    """With a perfectly known channel, ZF SINR is p_k / (sigma2 [(G^H G)^-1]_kk)."""
    cfg = cfg_for(system="ideal", n=1, seed=11)
    _, sinr, _, _ = _run_trials(params200, [(ref_alloc, cfg)], error_var=False)[0]
    g = generate_channel(params200, trial_rng(11, 0, 0))
    inv = np.linalg.inv(g.conj().T @ g)
    e = energies(params200, "ideal", ref_alloc.alpha, ref_alloc.rho, ref_alloc.xi)
    p = e / (1.0 - ref_alloc.alpha)
    want = p / (params200.sigma2_ul * np.real(np.diag(inv)))
    assert np.allclose(sinr[0], want, rtol=1e-9)


def test_run_trials_matches_per_frame_reference(ref_alloc):
    """The stacked evaluator equals the one-frame-at-a-time Gram formulas bit
    for bit, and the detector-matrix formulas to within rounding: rtol 1e-13
    M, since that route sums M terms per entry (1e-12 at M = 10).  At
    M = 1000 the 20 trials run as two 8-trial chunks and a partial one."""
    for m, detector in ((10, "zf"), (10, "mrc"), (1000, "zf"), (1000, "mrc")):
        params = benchmark_params(m)
        _, pilot_energy, powers, err_var = operating_point(params, ref_alloc, "wetmm")
        noise = np.dot(powers, err_var) + params.sigma2_ul
        cfg = cfg_for(n=20, seed=5, detector=detector)
        energy, sinr, resamples, _ = _run_trials(params, [(ref_alloc, cfg)], error_var=False)[0]
        for t in range(cfg.n_trials):
            G, G_hat = (x[0] for x in draw_trials(params, pilot_energy, 5, [t]))
            gram = G_hat.conj().T @ G_hat
            diag = np.diag(gram).real
            if detector == "zf":
                gram_form = powers / (np.diag(np.linalg.inv(gram)).real * noise)
                A = np.linalg.solve(gram, G_hat.conj().T).conj().T
            else:
                off = np.abs(gram) ** 2 * ~np.eye(params.K, dtype=bool)
                gram_form = powers * diag ** 2 / (off @ powers + diag * noise)
                A = G_hat
            cross = np.abs(A.conj().T @ G_hat) ** 2
            interference = cross @ powers - np.diag(cross) * powers
            detector_form = powers * np.diag(cross) / (
                interference + np.sum(np.abs(A) ** 2, axis=0) * noise)
            w = beamformer(G_hat, ref_alloc.xi)
            assert np.array_equal(sinr[t], gram_form)
            np.testing.assert_allclose(sinr[t], detector_form, rtol=1e-13 * m)
            assert np.array_equal(energy[t], ref_alloc.alpha * params.p_dl * np.abs(G.conj().T @ w) ** 2)
        assert not resamples.any()


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("detector", ["zf", "mrc"])
@pytest.mark.parametrize("m", [3, 25, 1000])
def test_exact_sinr_matches_extended_precision(ref_alloc, detector, m):
    """Every SINR is within 1e-13 relative of the same formula evaluated in
    long double on the same estimates (2 x 2 inverse by its adjugate)."""
    params = benchmark_params(m)
    cfg = cfg_for(n=400, seed=3, detector=detector)
    _, sinr, resamples, _ = _run_trials(params, [(ref_alloc, cfg)], error_var=False)[0]
    _, pilot_energy, powers, err_var = operating_point(params, ref_alloc, "wetmm")
    G_hat = draw_trials(params, pilot_energy, 3, np.arange(cfg.n_trials))[1].astype(np.clongdouble)
    gram = G_hat.conj().swapaxes(-1, -2) @ G_hat
    p = powers.astype(np.longdouble)
    noise = np.dot(p, err_var.astype(np.longdouble)) + np.longdouble(params.sigma2_ul)
    diag = np.diagonal(gram, axis1=-2, axis2=-1).real
    cross = np.abs(gram[:, 0, 1]) ** 2
    if detector == "zf":
        inv_diag = diag[:, ::-1] / (diag[:, 0] * diag[:, 1] - cross)[:, None]
        want = p / (inv_diag * noise)
    else:
        want = p * diag ** 2 / (np.stack([p[1] * cross, p[0] * cross], axis=1) + diag * noise)
    assert not resamples.any()
    assert np.max(np.abs(sinr - want) / want) <= 1e-13


def test_opmm_energy_matches_closed_form(params200, ref_alloc):
    # isotropic powering: the harvested-energy mean is alpha p beta exactly
    cfg = cfg_for(system="opmm", n=800, seed=2)
    en, _, _, _ = _run_trials(params200, [(ref_alloc, cfg)], error_var=False)[0]
    want = energies(params200, "opmm", ref_alloc.alpha, ref_alloc.rho, ref_alloc.xi)
    se = en.std(axis=0, ddof=1) / np.sqrt(len(en))
    assert np.all(np.abs(en.mean(axis=0) - want) <= 4.0 * se)


def test_estimate_exact_rate_fields(params200, ref_alloc):
    est = estimate_exact_rate(params200, ref_alloc, cfg_for(n=100, seed=5))
    assert est.rate.shape == (2,) and est.rate_se.shape == (2,)
    assert est.n_trials == 100
    assert np.all(est.rate > 0) and np.all(est.rate_se > 0)
    assert est.n_resamples >= 0


def test_knowledge_paths_agree(params200, ref_alloc):
    """Statistical shortcut and pilot pipeline give the same rate stats."""
    est_s = estimate_exact_rate(params200, ref_alloc,
                                cfg_for(n=300, seed=6, knowledge="statistical"))
    est_p = estimate_exact_rate(params200, ref_alloc,
                                cfg_for(n=300, seed=6, knowledge="pilot"))
    tol = 3.0 * np.sqrt(est_s.rate_se ** 2 + est_p.rate_se ** 2)
    assert np.all(np.abs(est_s.rate - est_p.rate) <= tol)


def test_zf_beats_mrc_at_reference_point(params200, ref_alloc):
    zf = estimate_exact_rate(params200, ref_alloc, cfg_for(detector="zf", n=100))
    mrc = estimate_exact_rate(params200, ref_alloc, cfg_for(detector="mrc", n=100))
    assert np.all(zf.rate > mrc.rate)


def test_bound_check_reference_point(params200, ref_alloc):
    bc = verify_bound_tightness(params200, ref_alloc, cfg_for(n=400, seed=12))
    assert bc.jensen_ok and bc.tight and bc.conclusive
    assert np.all(bc.gap / bc.exact < 0.01)


def test_bound_check_flags_wide_error_bars(params200, ref_alloc):
    # 2 trials cannot certify a 0.01% precision target: the check must say so
    bc = verify_bound_tightness(params200, ref_alloc, cfg_for(n=2, seed=12),
                                precision=1e-4)
    assert not bc.conclusive


def test_beam_structure_zero_mass_is_a_tie(params200, ref_alloc):
    cmp0 = verify_beamformer_structure(params200, ref_alloc, 0.0,
                                       cfg_for(n=50, seed=3))
    assert np.allclose(cmp0.diff, 0.0, atol=1e-18)


def test_beam_structure_leak_loses_energy(params200, ref_alloc):
    cmp1 = verify_beamformer_structure(params200, ref_alloc, 0.3,
                                       cfg_for(n=200, seed=3))
    assert np.all(cmp1.diff > 0)
    assert np.all(cmp1.diff > 3.0 * cmp1.diff_se)
    assert cmp1.n_trials == 200


def test_beam_structure_validation(params200, ref_alloc):
    with pytest.raises(ValueError):
        verify_beamformer_structure(params200, ref_alloc, 1.5, cfg_for(n=10))
    with pytest.raises(ValueError):
        verify_beamformer_structure(params200, ref_alloc, 0.2,
                                    cfg_for(system="opmm", n=10))


def test_mrc_works_without_antenna_margin(ref_alloc):
    # MRC has no M > K constraint beyond M >= 2
    p = benchmark_params(2)
    est = estimate_exact_rate(p, ref_alloc, cfg_for(detector="mrc", n=50))
    assert np.all(np.isfinite(est.rate))


# every pairing of worker count and chunk budget, the one-worker default first
WORKERS_X_CHUNKS = [(w, c) for w in (1, 2, 3) for c in (montecarlo._CHUNK_ENTRIES, 1, 1000)]


@pytest.mark.parametrize("system, knowledge, detector", [
    ("wetmm", "statistical", "zf"), ("wetmm", "pilot", "zf"), ("wetmm", "statistical", "mrc"),
    ("opmm", "statistical", "zf"), ("ideal", "statistical", "zf"),
    ("wetmm", "pilot", "mrc"), ("opmm", "pilot", "mrc"), ("ideal", "statistical", "mrc")])
def test_results_do_not_depend_on_chunk_size(ref_alloc, monkeypatch, system, knowledge, detector):
    """Stacked chunks reproduce the one-trial-at-a-time draws bit for bit,
    on any number of worker threads."""
    params = benchmark_params(40)
    cfg = cfg_for(system=system, detector=detector, n=70, seed=4, knowledge=knowledge)
    runs = []
    for workers, chunk_entries in WORKERS_X_CHUNKS:
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", chunk_entries)
        energy, sinr, resamples, _ = _run_trials(params, [(ref_alloc, cfg)], error_var=False)[0]
        est = estimate_exact_rate(params, ref_alloc, cfg)
        runs.append([energy, sinr, resamples, est.rate, est.rate_se, est.energy,
                     est.energy_se, est.n_resamples])
        if system != "ideal":
            shared = estimate_exact_rate(params, ref_alloc, cfg, error_var=True)
            # asking for the error rows leaves every rate and energy row as it was
            for a, b in zip(runs[-1][3:], [shared.rate, shared.rate_se, shared.energy,
                                          shared.energy_se, shared.n_resamples]):
                assert np.array_equal(a, b)
            runs[-1].extend([shared.error_var, shared.error_var_se])
        if system == "wetmm":
            cmp = verify_beamformer_structure(params, ref_alloc, 0.3, cfg)
            runs[-1].extend([cmp.structured, cmp.general, cmp.diff_se])
    for run in runs[1:]:
        for a, b in zip(runs[0], run):
            assert np.array_equal(a, b)


def test_forced_resamples_do_not_depend_on_chunk_size(ref_alloc, monkeypatch):
    # at M = K + 1 a low condition limit rejects many ZF Gram matrices, so
    # trials of one chunk finish at different salts
    params = benchmark_params(3)
    monkeypatch.setattr(montecarlo, "COND_LIMIT", 30.0)
    # bound before the loop patches _CHUNK_ENTRIES, so every worker count
    # also runs the default budget
    chunk_budgets = (montecarlo._CHUNK_ENTRIES, 1, 100)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        for chunk_entries in chunk_budgets:
            monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", chunk_entries)
            runs.append(_run_trials(params, [(ref_alloc, cfg_for(n=200, seed=9))],
                                    error_var=False)[0])
    resamples = runs[0][2]
    assert resamples.sum() > 20 and resamples.max() > 1
    for run in runs[1:]:
        for a, b in zip(runs[0], run):
            assert np.array_equal(a, b)


def test_many_workers_under_fast_thread_switches(ref_alloc, monkeypatch):
    """More workers than cores, switching threads every microsecond, still
    fill every row exactly as one worker does."""
    params = benchmark_params(3)
    monkeypatch.setattr(montecarlo, "COND_LIMIT", 30.0)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1)
    cfg = cfg_for(n=300, seed=5)
    monkeypatch.setattr(montecarlo, "_WORKERS", 1)
    want = _run_trials(params, [(ref_alloc, cfg)], error_var=False)[0]
    monkeypatch.setattr(montecarlo, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _run_trials(params, [(ref_alloc, cfg)], error_var=False)[0]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(want, got):
        assert np.array_equal(a, b)


def test_exhausted_redraw_budget_raises_from_the_first_chunk(ref_alloc, monkeypatch):
    # every trial fails; each of three workers fails on its first chunk
    monkeypatch.setattr(montecarlo, "COND_LIMIT", 1.0)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(montecarlo, "_WORKERS", 3)
    with pytest.raises(np.linalg.LinAlgError, match=r"\(trial 0\)"):
        _run_trials(benchmark_params(3), [(ref_alloc, cfg_for(n=9))], error_var=False)


def walk_chunks(params, n_trials, body):
    """The chunks of a perfect-knowledge walk of ``n_trials`` trials, 2
    blocks per trial."""
    return montecarlo._walk_chunks(params, cfg_for(n=n_trials), 2, body)


def run_chunks(params, n_trials, body):
    """``_run_chunks`` over a perfect-knowledge walk of ``n_trials`` trials."""
    montecarlo._run_chunks(walk_chunks(params, n_trials, body))


@pytest.mark.parametrize("workers", [1, 2])
def test_each_chunk_gets_its_trials_streams(params200, monkeypatch, workers):
    """A chunk's stacks are its trials' salt-0 draws and ``redraw`` gives
    their draws at any salt, on every worker."""
    monkeypatch.setattr(montecarlo, "_WORKERS", workers)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 400)
    consts = _channel_consts(params200, None)
    seen = montecarlo._shared_rows(7, int)
    def body(trials, stacks, redraw):
        for salt, normals in ((0, stacks), (3, redraw(trials, 3))):
            want = draw_trials(params200, None, 0, trials, salt=salt)[0]
            assert np.array_equal(_channels(params200, consts, normals, "pilot")[0], want)
        seen[trials] += 1
    run_chunks(params200, 7, body)
    assert np.array_equal(seen, np.ones(7))


@pytest.mark.parametrize("workers", [1, 3])
def test_the_first_failing_chunk_raises_its_error(params200, monkeypatch, workers):
    # chunks 5 and 7 fail, on different workers once there are three, and
    # each worker stops at its first failure; chunk order picks the error
    monkeypatch.setattr(montecarlo, "_WORKERS", workers)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1)
    def body(trials, stacks, redraw):
        assert stacks[0].shape == (1, 200, 2)
        if trials[0] in (5, 7):
            raise RuntimeError(f"chunk {trials[0]} failed")
    with pytest.raises(RuntimeError, match="chunk 5 failed"):
        run_chunks(params200, 9, body)


@pytest.mark.parametrize("workers", [1, 3])
def test_a_batch_raises_the_first_failing_chunk_of_its_first_failing_walk(params200, monkeypatch,
                                                                        workers):
    # four walks of three one-trial chunks: walk 2 fails at trials 1 and 2
    # (chunks 7 and 8) and walk 3 at trial 0 (chunk 9), which with three
    # workers is this process's first failure; (walk, chunk) order picks
    # walk 2's trial 1
    monkeypatch.setattr(montecarlo, "_WORKERS", workers)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1)
    failing = {2: (1, 2), 3: (0,)}
    def body_of(walk):
        def body(trials, stacks, redraw):
            if trials[0] in failing.get(walk, ()):
                raise RuntimeError(f"walk {walk} trial {trials[0]} failed")
        return body
    chunks = [chunk for walk in range(4) for chunk in walk_chunks(params200, 3, body_of(walk))]
    with pytest.raises(RuntimeError, match="walk 2 trial 1 failed"):
        montecarlo._run_chunks(chunks)
    assert_no_child_left()


def test_a_worker_that_dies_fails_the_walk(ref_alloc, monkeypatch):
    """A forked worker that exits without its report makes the walk raise,
    so none of its rows are returned, and it is reaped."""
    parent = os.getpid()
    real = montecarlo._harvest
    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)
    monkeypatch.setattr(montecarlo, "_harvest", dying)
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1)
    with pytest.raises(RuntimeError, match="exited 3"):
        _run_trials(benchmark_params(10), [(ref_alloc, cfg_for(n=6))], error_var=False)
    assert_no_child_left()


def test_an_unpicklable_worker_error_arrives_named(params200, monkeypatch):
    class Unpicklable(Exception):  # a local class cannot be pickled by name
        pass
    parent = os.getpid()
    def body(trials, stacks, redraw):
        if os.getpid() != parent:
            raise Unpicklable("no way back")
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1)
    with pytest.raises(RuntimeError, match="Unpicklable: no way back"):
        run_chunks(params200, 4, body)
    assert_no_child_left()


def test_an_interrupted_walk_kills_its_workers(params200, monkeypatch):
    """An interrupt in the parent stops the workers at once, rather than
    waiting for their shares, and reaps them."""
    parent = os.getpid()
    def body(trials, stacks, redraw):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
    monkeypatch.setattr(montecarlo, "_WORKERS", 3)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_chunks(params200, 3, body)
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_beam_structure_walk_forks_no_workers(params200, ref_alloc, monkeypatch):
    """Each trial's complete QR already runs on the BLAS threads, so the
    beam-structure walk runs in-process; forked workers beside those threads
    made it several times slower on two cores."""
    def no_fork():
        raise AssertionError("the beam-structure walk forked a worker")
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(os, "fork", no_fork)
    cmp = verify_beamformer_structure(params200, ref_alloc, 0.3, cfg_for(n=4))
    assert cmp.n_trials == 4


def test_exhausted_redraw_budget_raises(ref_alloc, monkeypatch):
    monkeypatch.setattr(montecarlo, "COND_LIMIT", 1.0)
    with pytest.raises(np.linalg.LinAlgError, match="trial 0"):
        _run_trials(benchmark_params(3), [(ref_alloc, cfg_for(n=3))], error_var=False)


def test_error_variance_estimate_rejects_ideal(params200, ref_alloc):
    with pytest.raises(ValueError):
        estimate_exact_rate(params200, ref_alloc, cfg_for(system="ideal", n=5), error_var=True)
    assert estimate_exact_rate(params200, ref_alloc, cfg_for(n=5)).error_var is None


@pytest.mark.parametrize("knowledge", ["statistical", "pilot"])
def test_error_variance_shares_the_rate_draw(ref_alloc, monkeypatch, knowledge):
    """Each trial's salt-0 stream state is derived, and its normals drawn,
    once for the rate, energy and error-variance rows together."""
    asked = []
    real = montecarlo._pcg64_states
    def counting(master_seed, trials, salt):
        if salt == 0:
            asked.extend(int(t) for t in trials)
        return real(master_seed, trials, salt)
    monkeypatch.setattr(montecarlo, "_pcg64_states", counting)
    est = estimate_exact_rate(benchmark_params(10), ref_alloc,
                              cfg_for(n=50, seed=3, knowledge=knowledge), error_var=True)
    assert est.error_var.shape == (2,)
    assert sorted(asked) == list(range(50))


@pytest.mark.parametrize("knowledge", ["statistical", "pilot"])
def test_walk_invariants_are_built_once_per_walk(ref_alloc, monkeypatch, knowledge):
    """The pilot block, the error variance and the salt-0 stream words are
    built per walk, however many chunks the trials take."""
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    calls = {}
    def count(module, name, salt_arg=None):
        real = getattr(module, name)
        def counting(*args):
            if salt_arg is None or args[salt_arg] == 0:
                calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(module, name, counting)
    count(montecarlo, "_channel_consts")
    count(estimation, "error_variance")
    count(montecarlo, "error_variance")
    count(montecarlo, "_pcg64_states", salt_arg=2)
    params = benchmark_params(10)
    runs = []
    for n in (4, 40):
        cfg = cfg_for(n=n, seed=3, knowledge=knowledge)
        calls.clear()
        estimate_exact_rate(params, ref_alloc, cfg, error_var=True)
        runs.append(dict(calls))
        assert calls["_pcg64_states"] == 1
        calls.clear()
        verify_beamformer_structure(params, ref_alloc, 0.3, cfg)
        assert calls["_pcg64_states"] == 1
        runs.append(dict(calls))
    assert runs[0] == runs[2] and runs[1] == runs[3]


@pytest.mark.parametrize("system, knowledge, m", [
    ("wetmm", "statistical", 40), ("wetmm", "pilot", 40), ("opmm", "statistical", 40),
    ("wetmm", "statistical", 3), ("opmm", "pilot", 3), ("wetmm", "statistical", 1000),
    ("wetmm", "pilot", 1000), ("opmm", "statistical", 1000)])
def test_error_variance_matches_per_trial_pilot_draws(ref_alloc, monkeypatch, system,
                                                       knowledge, m):
    """The shared error rows are the salt-0 pilot-pipeline draws of each
    trial alone, bit for bit, whatever redraws the rate rows needed.  At
    M = 1000 the 20 trials run as two 8-trial chunks and a partial one."""
    # at M = K + 1 a low condition limit forces redraws at later salts
    monkeypatch.setattr(montecarlo, "COND_LIMIT", 30.0 if m == 3 else montecarlo.COND_LIMIT)
    params = benchmark_params(m)
    cfg = cfg_for(system=system, n=20 if m == 1000 else 60, seed=8, knowledge=knowledge)
    est = estimate_exact_rate(params, ref_alloc, cfg, error_var=True)
    _, pilot_energy, _, _ = operating_point(params, ref_alloc, system)
    err_sq = []
    for t in range(cfg.n_trials):
        G, G_hat = draw_trials(params, pilot_energy, cfg.master_seed, [t], method="pilot")
        err_sq.append(np.mean(np.abs(G_hat - G) ** 2, axis=1)[0])
    want, want_se = _mean_se(np.array(err_sq))
    assert np.array_equal(est.error_var, want) and np.array_equal(est.error_var_se, want_se)
    if m == 3:
        assert est.n_resamples > 0


def fairness_points(ref_alloc, n=70, seed=4, opmm_knowledge="statistical"):
    """A wetmm and an opmm operating point on the same trials, as the
    fairness comparison pairs them."""
    opmm_alloc = ResourceAllocation(tau=0.02, alpha=0.1, rho=0.5, xi=ref_alloc.xi)
    return [(ref_alloc, cfg_for(system="wetmm", n=n, seed=seed)),
            (opmm_alloc, cfg_for(system="opmm", n=n, seed=seed, knowledge=opmm_knowledge))]


@pytest.mark.parametrize("m, opmm_knowledge, error_var", [
    (40, "statistical", False), (40, "pilot", True), (3, "statistical", False),
    (3, "pilot", True)])
def test_multi_point_walk_matches_each_point_alone(ref_alloc, monkeypatch, m,
                                                   opmm_knowledge, error_var):
    """Each point of one shared walk equals its own estimate_exact_rate bit
    for bit, on any number of workers and chunk sizes."""
    # at M = K + 1 a low condition limit makes both points redraw trials
    monkeypatch.setattr(montecarlo, "COND_LIMIT", 30.0 if m == 3 else montecarlo.COND_LIMIT)
    params = benchmark_params(m)
    points = fairness_points(ref_alloc, opmm_knowledge=opmm_knowledge)
    fields = ("rate", "rate_se", "energy", "energy_se", "n_trials", "n_resamples",
              "error_var", "error_var_se")
    want = [estimate_exact_rate(params, alloc, cfg, error_var=error_var) for alloc, cfg in points]
    if m == 3:
        assert 0 < want[0].n_resamples != want[1].n_resamples > 0
    default_chunk = montecarlo._CHUNK_ENTRIES
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        for chunk_entries in (default_chunk, 1, 100):
            monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", chunk_entries)
            got = montecarlo.estimate_exact_rates(params, points, error_var=error_var)
            for a, b in zip(want, got):
                for field in fields:
                    assert np.array_equal(getattr(a, field), getattr(b, field)), field


@pytest.mark.parametrize("field, change", [
    ("master_seed", {"seed": 5}), ("n_trials", {"n": 71}), ("block count", {"system": "ideal"})])
def test_multi_point_walk_rejects_points_that_cannot_share_normals(ref_alloc, field, change):
    point = (ref_alloc, cfg_for(**{"n": 70, "seed": 4, **change}))
    with pytest.raises(ValueError, match=field):
        montecarlo.estimate_exact_rates(benchmark_params(10), [(ref_alloc, cfg_for(n=70, seed=4)),
                                                               point])
    with pytest.raises(ValueError, match="at least one"):
        montecarlo.estimate_exact_rates(benchmark_params(10), [])
    with pytest.raises(ValueError, match="number of walks"):
        montecarlo._estimate_walks([], error_var=False)


@pytest.mark.parametrize("detector, error_var", [("zf", False), ("zf", True), ("mrc", False),
                                                 ("mrc", True)])
def test_batched_walks_match_one_walk_per_antenna_count(ref_alloc, monkeypatch, detector,
                                                        error_var):
    """A batch of walks, one per antenna count, equals one
    estimate_exact_rates call per walk bit for bit, on any number of workers
    and chunk sizes: each trial keeps its stream, its redraws and its row."""
    # at M = K + 1 a low condition limit makes the ZF points redraw trials
    monkeypatch.setattr(montecarlo, "COND_LIMIT", 30.0)
    walks = []
    for m in (3, 25, 200):
        params = benchmark_params(m)
        points = [(alloc, McConfig(n_trials=60, master_seed=4, detector=detector,
                                   system=cfg.system))
                  for alloc, cfg in fairness_points(ref_alloc, n=60)]
        walks.append((params, points))
        if not error_var:  # the ideal system draws 2 blocks, so it walks alone
            walks.append((params, [(ref_alloc, cfg_for(system="ideal", detector=detector,
                                                       n=60, seed=4))]))
    fields = ("rate", "rate_se", "energy", "energy_se", "n_trials", "n_resamples",
              "error_var", "error_var_se")
    want = [montecarlo.estimate_exact_rates(params, points, error_var=error_var)
            for params, points in walks]
    if detector == "zf":
        assert all(est.n_resamples > 0 for est in want[0])
    default_chunk = montecarlo._CHUNK_ENTRIES
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        for chunk_entries in (default_chunk, 1):
            monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", chunk_entries)
            got = montecarlo._estimate_walks(walks, error_var=error_var)
            assert len(got) == len(want)
            for want_walk, got_walk in zip(want, got):
                for a, b in zip(want_walk, got_walk, strict=True):
                    for field in fields:
                        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@pytest.mark.parametrize("system", ["wetmm", "opmm", "ideal"])
@pytest.mark.parametrize("detector", ["zf", "mrc"])
def test_rate_only_walks_match_the_full_walks(ref_alloc, monkeypatch, system, detector):
    """Walks without energy rows give the full walks' rates, standard errors
    and redraw counts bit for bit, on any number of workers and chunk sizes,
    and no energy statistics."""
    # at M = K + 1 a low condition limit makes the ZF walk redraw trials
    monkeypatch.setattr(montecarlo, "COND_LIMIT", 30.0)
    walks = [(benchmark_params(m), [(ref_alloc, cfg_for(system=system, detector=detector,
                                                        n=60, seed=4))])
             for m in (3, 25, 200)]
    monkeypatch.setattr(montecarlo, "_WORKERS", 1)
    want = montecarlo._estimate_walks(walks, error_var=False)
    if detector == "zf":
        assert want[0][0].n_resamples > 0
    default_chunk = montecarlo._CHUNK_ENTRIES
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        for chunk_entries in (default_chunk, 1):
            monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", chunk_entries)
            got = montecarlo._estimate_walks(walks, error_var=False, energy=False)
            for [a], [b] in zip(want, got, strict=True):
                for field in ("rate", "rate_se", "n_trials", "n_resamples"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), field
                assert b.energy is None and b.energy_se is None and b.error_var is None


@pytest.mark.parametrize("system, knowledge, energy, blocks", [
    ("wetmm", "statistical", False, 2), ("opmm", "statistical", False, 2),
    ("ideal", "statistical", False, 2), ("wetmm", "pilot", False, 4),
    ("wetmm", "statistical", True, 4), ("ideal", "statistical", True, 2)])
def test_a_trial_draws_only_the_normals_its_walk_reads(ref_alloc, monkeypatch, system,
                                                        knowledge, energy, blocks):
    """A statistical rate-only trial draws its estimate's 2 M K normals; a
    pilot trial's estimate reads the pilot noise, so it draws 4 M K."""
    drawn = []
    real = montecarlo._trial_normals
    def counting(params, words, rng, n_blocks):
        stacks = real(params, words, rng, n_blocks)
        drawn.append((len(words), 2 * sum(z.size for z in stacks)))
        return stacks
    monkeypatch.setattr(montecarlo, "_trial_normals", counting)
    monkeypatch.setattr(montecarlo, "_WORKERS", 1)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1000)
    params = benchmark_params(25)
    cfg = cfg_for(system=system, n=70, seed=2, knowledge=knowledge)
    montecarlo._estimate_walks([(params, [(ref_alloc, cfg)])], error_var=False, energy=energy)
    assert sum(trials for trials, _ in drawn) == 70 and len(drawn) > 1
    assert all(normals == blocks * params.M * params.K * trials for trials, normals in drawn)


# the zero column's MRC SINR is 0/0 before the guard raises
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("system", ["wetmm", "ideal"])
@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_a_rate_only_walk_refuses_a_zero_norm_estimate_column(ref_alloc, monkeypatch,
                                                                system, fill):
    """The walk that builds no beam keeps the beam's refusal of an estimate
    column whose norm is zero or not finite, with the beam's error."""
    real = montecarlo._channels
    def degenerate(*args, **kwargs):
        G, G_hat = real(*args, **kwargs)
        G_hat[:, :, 0] = fill
        return G, G_hat
    monkeypatch.setattr(montecarlo, "_channels", degenerate)
    walk = [(benchmark_params(25), [(ref_alloc, cfg_for(system=system, detector="mrc", n=5))])]
    for energy in (True, False):
        with pytest.raises(ValueError, match="degenerate channel estimate: zero-norm column"):
            montecarlo._estimate_walks(walk, error_var=False, energy=energy)


def test_the_bound_check_builds_no_beam(params200, ref_alloc, monkeypatch):
    want = estimate_exact_rate(params200, ref_alloc, cfg_for(n=40))
    def no_beam(*args):
        raise AssertionError("the rate-only walk built a beam or a harvest")
    monkeypatch.setattr(montecarlo, "beamformer", no_beam)
    monkeypatch.setattr(montecarlo, "_harvest", no_beam)
    check = verify_bound_tightness(params200, ref_alloc, cfg_for(n=40))
    assert np.array_equal(check.exact, want.rate) and np.array_equal(check.exact_se, want.rate_se)
