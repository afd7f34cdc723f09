import numpy as np
import pytest

from wetmm.sysmodel import SystemParams, _pcg64_states, path_loss, trial_rng

from conftest import benchmark_params
from reference import complex_gaussian, draw_trials, generate_channel


def test_trial_rng_reproducible():
    a = trial_rng(123, 7).uniform(size=16)
    b = trial_rng(123, 7).uniform(size=16)
    assert np.array_equal(a, b)


def test_trial_rng_streams_differ():
    base = trial_rng(123, 0).uniform(size=16)
    other_trial = trial_rng(123, 1).uniform(size=16)
    other_salt = trial_rng(123, 0, salt=1).uniform(size=16)
    other_seed = trial_rng(124, 0).uniform(size=16)
    for stream in (other_trial, other_salt, other_seed):
        assert not np.array_equal(base, stream)


def test_trial_rng_order_independent():
    # Stream for trial t must not depend on how many trials ran before it.
    direct = trial_rng(9, 5).standard_normal(8)
    _ = [trial_rng(9, t).standard_normal(8) for t in range(5)]
    again = trial_rng(9, 5).standard_normal(8)
    assert np.array_equal(direct, again)


@pytest.mark.parametrize("master_seed, trial, salt", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_negative_stream_inputs_are_rejected(master_seed, trial, salt):
    with pytest.raises(ValueError):
        trial_rng(master_seed, trial, salt)
    with pytest.raises(ValueError):
        _pcg64_states(master_seed, [trial], salt)
    with pytest.raises(ValueError):
        draw_trials(benchmark_params(4), 1e-9, master_seed, [trial], salt=salt)


def test_complex_gaussian_moments():
    rng = trial_rng(0)
    n = 200_000
    x = complex_gaussian(rng, (n,), var=3.0)
    assert x.dtype == complex
    # mean ~ 0, E|x|^2 ~ var, isotropy between real/imag parts
    assert abs(x.mean()) < 0.02
    assert np.isclose(np.mean(np.abs(x) ** 2), 3.0, rtol=0.02)
    assert np.isclose(x.real.var(), 1.5, rtol=0.03)
    assert np.isclose(x.imag.var(), 1.5, rtol=0.03)


def test_complex_gaussian_per_column_variance():
    rng = trial_rng(1)
    var = np.array([0.5, 2.0, 8.0])
    x = complex_gaussian(rng, (50_000, 3), var=var)
    assert np.allclose(np.mean(np.abs(x) ** 2, axis=0), var, rtol=0.05)


def test_complex_gaussian_rejects_negative_variance():
    with pytest.raises(ValueError):
        complex_gaussian(trial_rng(0), (4,), var=-1.0)


def test_system_params_rejects_non_finite():
    beta = np.array([1e-6, 1e-7])
    for bad in ({"p_dl": np.nan}, {"p_dl": np.inf}, {"sigma2_ul": np.nan},
                {"beta": np.array([1e-6, np.inf])}):
        kwargs = dict(M=8, K=2, p_dl=1.0, sigma2_ul=1e-15, beta=beta)
        kwargs.update(bad)
        with pytest.raises(ValueError, match="finite"):
            SystemParams(**kwargs)


def test_system_params_validation():
    beta = np.array([1e-6, 1e-7])
    with pytest.raises(ValueError):
        SystemParams(M=1, K=2, p_dl=1.0, sigma2_ul=1e-15, beta=beta)
    with pytest.raises(ValueError):
        SystemParams(M=8, K=3, p_dl=1.0, sigma2_ul=1e-15, beta=beta)
    with pytest.raises(ValueError):
        SystemParams(M=8, K=2, p_dl=0.0, sigma2_ul=1e-15, beta=beta)
    with pytest.raises(ValueError):
        SystemParams(M=8, K=2, p_dl=1.0, sigma2_ul=1e-15, beta=np.array([1e-6, -1e-7]))


def test_system_params_beta_readonly():
    p = benchmark_params(16)
    with pytest.raises(ValueError):
        p.beta[0] = 1.0


def test_require_zf():
    beta = np.full(4, 1e-6)
    p = SystemParams(M=4, K=4, p_dl=1.0, sigma2_ul=1e-15, beta=beta)
    with pytest.raises(ValueError):
        p.require_zf()
    benchmark_params(3).require_zf()  # M = K + 1 is allowed


def test_path_loss_benchmark_values():
    beta = path_loss(1e-3, 3.0, np.array([6.0, 12.0]))
    for beta0, d, what in ((0.0, 6.0, "beta0"), (np.nan, 6.0, "beta0"),
                           (1e-3, [6.0, 0.0], "distances")):
        with pytest.raises(ValueError, match=what):
            path_loss(beta0, 3.0, d)
    assert np.allclose(beta, [1e-3 * 6.0 ** -3, 1e-3 * 12.0 ** -3], rtol=1e-14)
    # doubling the distance at exponent 3 costs exactly a factor of 8
    assert np.isclose(beta[0] / beta[1], 8.0, rtol=1e-12)


def test_generate_channel_statistics():
    p = benchmark_params(64)
    g = generate_channel(p, 42)
    assert g.shape == (64, 2)
    n = 2000
    second = np.zeros(2)
    for t in range(n):
        g = generate_channel(p, trial_rng(5, t))
        second += np.mean(np.abs(g) ** 2, axis=0)
    assert np.allclose(second / n, p.beta, rtol=0.02)


def test_generate_channel_seed_determinism():
    p = benchmark_params(32)
    assert np.array_equal(generate_channel(p, 7), generate_channel(p, 7))
    assert not np.array_equal(generate_channel(p, 7), generate_channel(p, 8))


def test_generate_channel_consumes_generator():
    p = benchmark_params(32)
    rng = trial_rng(7)
    first = generate_channel(p, rng)
    second = generate_channel(p, rng)
    assert not np.array_equal(first, second)
