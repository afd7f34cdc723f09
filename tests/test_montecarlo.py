"""Exact-SINR Monte Carlo: determinism, closed-form agreement, bound checks."""

import numpy as np
import pytest

from wetmm.energy import ResourceAllocation, ideal_energy, opmm_energy
import wetmm.montecarlo as montecarlo
from wetmm.montecarlo import (McConfig, estimate_exact_rate, operating_point, run_trials,
                              simulate_frame, verify_beamformer_structure,
                              verify_bound_tightness)
from wetmm.sysmodel import generate_channel, trial_rng

from conftest import benchmark_params


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


def test_frame_determinism(params200, ref_alloc):
    cfg = cfg_for()
    point = operating_point(params200, ref_alloc, cfg.system)
    a = simulate_frame(params200, ref_alloc, cfg, 3, point)
    b = simulate_frame(params200, ref_alloc, cfg, 3, point)
    c = simulate_frame(params200, ref_alloc, cfg, 4, point)
    assert np.array_equal(a.sinr, b.sinr) and np.array_equal(a.energy, b.energy)
    assert not np.array_equal(a.sinr, c.sinr)


def test_frame_requires_energy_phase(params200, xi_star):
    alloc = ResourceAllocation(tau=0.01, alpha=0.0, rho=0.5, xi=xi_star)
    with pytest.raises(ValueError):
        operating_point(params200, alloc, "wetmm")


def test_run_trials_computes_operating_point_once(params200, ref_alloc, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return operating_point(*args)

    monkeypatch.setattr(montecarlo, "operating_point", counting)
    samples = run_trials(params200, ref_alloc, cfg_for(n=7))
    assert len(samples) == 7 and len(calls) == 1


def test_ideal_zf_perfect_knowledge_identity(params200, ref_alloc):
    """With a perfectly known channel, ZF SINR is p_k / (sigma2 [(G^H G)^-1]_kk)."""
    cfg = cfg_for(system="ideal", n=1, seed=11)
    sample = simulate_frame(params200, ref_alloc, cfg, 0,
                            operating_point(params200, ref_alloc, "ideal"))
    g = generate_channel(params200, trial_rng(11, 0, 0))
    inv = np.linalg.inv(g.conj().T @ g)
    e = ideal_energy(ref_alloc.alpha, ref_alloc.xi, params200.beta, 200, 1.0)
    p = e / (1.0 - ref_alloc.alpha)
    want = p / (params200.sigma2_ul * np.real(np.diag(inv)))
    assert np.allclose(sample.sinr, want, rtol=1e-9)


def test_opmm_energy_matches_closed_form(params200, ref_alloc):
    # isotropic powering: the harvested-energy mean is alpha p beta exactly
    cfg = cfg_for(system="opmm", n=800, seed=2)
    samples = run_trials(params200, ref_alloc, cfg)
    en = np.stack([s.energy for s in samples])
    want = opmm_energy(ref_alloc.alpha, params200.beta, 1.0)
    se = en.std(axis=0, ddof=1) / np.sqrt(len(samples))
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
