import numpy as np
import pytest

from wetmm.estimation import _channel_consts, error_variance
from wetmm.sysmodel import SystemParams, trial_rng

from conftest import benchmark_params
from reference import (_mmse_scale, complex_gaussian, draw_trials, generate_channel, make_pilots,
                       mmse_estimate, receive_pilots)


def test_pilots_orthonormal():
    for L, K in ((2, 2), (8, 3), (16, 16)):
        pilots = make_pilots(L, K, 1e-9)
        gram = pilots.Phi.conj().T @ pilots.Phi
        assert np.allclose(gram, np.eye(K), atol=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3, 16])
def test_channel_consts_pilot_block_is_orthonormal(K):
    """The K x K pilot block and MMSE column scale that the Monte Carlo
    builds inline are the reference's bit for bit, and Phi^H Phi = I_K."""
    p = SystemParams(M=K + 1, K=K, p_dl=1.0, sigma2_ul=1e-15,
                     beta=1e-3 * np.linspace(6.0, 20.0, K) ** -3.0)
    energy = np.linspace(5e-10, 2e-9, K)
    phi_t, phi_conj, scale = _channel_consts(p, energy,
                                             error_variance(p.beta, energy, p.sigma2_ul))[4:]
    assert np.max(np.abs(phi_conj.T @ phi_t.T - np.eye(K))) <= 1e-12
    pilots = make_pilots(K, K, energy)
    assert np.array_equal(phi_t, pilots.Phi.T) and np.array_equal(phi_conj, pilots.Phi.conj())
    assert np.array_equal(scale, np.broadcast_to(_mmse_scale(pilots, p.beta, p.sigma2_ul),
                                                 (p.M, K)))


def test_pilots_validation():
    with pytest.raises(ValueError):
        make_pilots(2, 3, 1e-9)
    with pytest.raises(ValueError):
        make_pilots(4, 2, -1.0)
    # a fractional or boolean length used to give a block of ceil(L) rows
    for bad in (2.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="pilot length L must be an integer"):
            make_pilots(bad, 1, 1.0)
    with pytest.raises(ValueError, match="K must be an integer"):
        make_pilots(4, 2.5, 1.0)
    assert make_pilots(np.int64(3), 2, 1.0).Phi.shape == (3, 2)


def test_error_variance_closed_form():
    # beta / (1 + beta D / sigma2): hand-checked point
    assert np.isclose(error_variance(2.0, 3.0, 4.0), 0.8, rtol=1e-14)
    # no pilots, no information
    assert np.isclose(error_variance(1e-6, 0.0, 1e-15), 1e-6, rtol=1e-14)


def test_error_variance_monotone_in_pilot_energy():
    d = np.logspace(-12, -3, 40)
    v = error_variance(5e-7, d, 1e-15)
    assert np.all(np.diff(v) < 0)
    assert v[-1] < 1e-12


def test_error_variance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        error_variance(1e-6, -1e-9, 1e-15)
    with pytest.raises(ValueError):
        error_variance(1e-6, 1e-9, 0.0)


def test_mmse_estimate_error_statistics():
    """Full pilot pipeline: per-entry error second moment matches the formula."""
    p = benchmark_params(12)
    energy = np.array([2e-9, 5e-10])
    pilots = make_pilots(2, 2, energy)
    n = 4000
    sq = np.zeros(2)
    cross = np.zeros(2, dtype=complex)
    for t in range(n):
        rng = trial_rng(11, t)
        g = generate_channel(p, rng)
        y = receive_pilots(g, pilots, p.sigma2_ul, rng)
        g_hat = mmse_estimate(y, pilots, p.beta, p.sigma2_ul)
        err = g_hat - g
        sq += np.mean(np.abs(err) ** 2, axis=0)
        cross += np.mean(g_hat.conj() * err, axis=0)
    expected = error_variance(p.beta, energy, p.sigma2_ul)
    assert np.allclose(sq / n, expected, rtol=0.05)
    # MMSE orthogonality: estimate uncorrelated with its error
    assert np.all(np.abs(cross / n) < 0.05 * expected)


def test_draw_trials_methods_match_in_distribution():
    """Statistical shortcut and full pilot pipeline agree on second moments."""
    p = benchmark_params(16)
    energy = 1e-9
    n = 3000
    stats = {}
    for method in ("statistical", "pilot"):
        g, g_hat = draw_trials(p, energy, 3, range(n), method=method)
        stats[method] = tuple(np.mean(np.abs(x) ** 2, axis=(0, 1)) for x in (g, g_hat, g_hat - g))
    for a, b in zip(stats["statistical"], stats["pilot"]):
        assert np.allclose(a, b, rtol=0.08)
    # and both see the nominal channel power
    assert np.allclose(stats["pilot"][0], p.beta, rtol=0.05)


def test_draw_trials_follow_trial_streams():
    """Trial t of a stack is the per-trial draw from trial_rng(seed, t, salt),
    whatever the order and gaps of the trial list (redraws pass such lists)."""
    def three_users(m):
        return SystemParams(M=m, K=3, p_dl=1.0, sigma2_ul=1e-15,
                            beta=1e-3 * np.array([6.0, 12.0, 20.0]) ** -3.0)

    cases = [(benchmark_params(8), [2, 0, 5], 2e-9, 1)]
    cases += [(scenario(m), trials, energy, salt)
              for scenario, energy in ((benchmark_params, 2e-9),
                                       (three_users, np.array([2e-9, 5e-10, 1e-9])))
              for m in (3, 8, 200)
              for trials in ([2, 0, 5], np.array([17, 3, 9, 40]))
              for salt in (0, 1)]
    for p, trials, energy, salt in cases:
        shape = (p.M, p.K)
        err_var = error_variance(p.beta, energy, p.sigma2_ul)
        pilots = make_pilots(p.K, p.K, energy)
        for method in ("statistical", "pilot", None):
            g, g_hat = draw_trials(p, None if method is None else energy, 0, trials,
                                   method=method or "statistical", salt=salt)
            assert g.shape == g_hat.shape == (len(trials),) + shape
            for i, t in enumerate(trials):
                rng = trial_rng(0, t, salt)
                if method == "statistical":
                    want_hat = complex_gaussian(rng, shape, p.beta - err_var)
                    want = want_hat - complex_gaussian(rng, shape, err_var)
                else:
                    want = generate_channel(p, rng)
                    want_hat = want if method is None else mmse_estimate(
                        receive_pilots(want, pilots, p.sigma2_ul, rng), pilots, p.beta, p.sigma2_ul)
                assert np.array_equal(g[i], want) and np.array_equal(g_hat[i], want_hat)


def test_draw_trials_follow_trial_streams_past_one_word():
    """Trials and salts of 2**32 and above, whose stream states come from
    trial_rng itself, draw from their streams too, next to one-word trials."""
    p = benchmark_params(8)
    err_var = error_variance(p.beta, 2e-9, p.sigma2_ul)
    shape = (p.M, p.K)
    for trials, salt in (([2 ** 32, 7, 2 ** 32 - 1, 2 ** 40 + 3], 0), ([5, 2 ** 33], 2 ** 32)):
        g, g_hat = draw_trials(p, 2e-9, 3, trials, salt=salt)
        for i, t in enumerate(trials):
            rng = trial_rng(3, t, salt)
            want_hat = complex_gaussian(rng, shape, p.beta - err_var)
            want = want_hat - complex_gaussian(rng, shape, err_var)
            assert np.array_equal(g[i], want) and np.array_equal(g_hat[i], want_hat)


def test_draw_trials_determinism_and_salt():
    p = benchmark_params(8)
    a = draw_trials(p, 1e-9, 5, [2])
    b = draw_trials(p, 1e-9, 5, range(4))
    c = draw_trials(p, 1e-9, 5, [2], salt=1)
    assert np.array_equal(a[1][0], b[1][2]) and np.array_equal(a[0][0], b[0][2])
    assert not np.array_equal(a[1], c[1])


def test_draw_trials_rejects_unknown_method():
    with pytest.raises(ValueError):
        draw_trials(benchmark_params(8), 1e-9, 0, [0], method="genie")
