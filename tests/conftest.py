"""Shared fixtures: the two-user benchmark scenario used throughout the tests.

Scenario constants: K=2 users at 6 m and 12 m, power-law path loss
beta = 1e-3 * d^-3, downlink power 1 W, noise -120 dBm (1e-15 W),
normalized frame length.
"""

import os

import numpy as np
import pytest

from wetmm.energy import ResourceAllocation
from wetmm.optimizer import optimal_xi
from wetmm.sysmodel import SystemParams, path_loss


def benchmark_params(m: int = 200) -> SystemParams:
    """Benchmark scenario at a given antenna count."""
    beta = path_loss(1e-3, 3.0, np.array([6.0, 12.0]))
    return SystemParams(M=m, K=2, p_dl=1.0, sigma2_ul=1e-15, beta=beta)


# Reference operating point: the documented optimum of the benchmark scenario
# at M=200 (tau, alpha, rho) with weights proportional to 1/beta^2.
REF_TAU = 0.00825
REF_ALPHA = 0.076
REF_RHO = 0.5965


@pytest.fixture
def params200():
    return benchmark_params(200)


@pytest.fixture
def xi_star(params200):
    return optimal_xi(params200.beta)


@pytest.fixture
def ref_alloc(xi_star):
    return ResourceAllocation(tau=REF_TAU, alpha=REF_ALPHA, rho=REF_RHO, xi=xi_star)


def assert_no_child_left():
    """Fail unless every child process of this one has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process behind, running or unreaped,
    as the Monte Carlo's forked workers must never be."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid} exited but was not reaped"
    pytest.fail(f"the test left a child process behind: {state}")
