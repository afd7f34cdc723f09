"""The package's public surface: one validator for every tag vocabulary,
guards that refuse NaN, consistent exports."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import wetmm
from wetmm.cli import ExperimentSpec
from wetmm.energy import (ResourceAllocation, beamformer, energies, expected_harvested_energy,
                          general_beamformer, harvested_energy_fixedpoint)
from wetmm.estimation import draw_trials, error_variance, make_pilots, mmse_estimate
from wetmm.montecarlo import McConfig, estimate_exact_rate, verify_beamformer_structure
from wetmm.optimizer import (asymptotic_allocation, grid_search_p1, optimal_rho_zf, optimal_xi,
                             rate_map)
from wetmm.rates import (asymptotic_mrc_rate, asymptotic_zf_rate, c1_limit, c1_sample,
                         closed_form_rate, closed_form_sinr, mm_dorg)
from wetmm.sysmodel import SystemParams, complex_gaussian, path_loss, trial_rng

from conftest import benchmark_params

XI = np.array([0.5, 0.5])
VALID = {"system": "wetmm", "detector": "zf", "xi_policy": "analytic",
         "channel_knowledge": "statistical"}
# each entry point with the tags it takes
ENTRY_POINTS = {
    "closed_form_sinr": (("system", "detector"), lambda p, t: closed_form_sinr(
        p, t["system"], t["detector"], 0.0, 0.1, 0.5, XI)),
    "grid_search_p1": (("system", "detector", "xi_policy"), lambda p, t: grid_search_p1(
        p, t["system"], t["detector"], steps=(0.02, 0.02, 0.02), xi_policy=t["xi_policy"])),
    "rate_map": (("system", "detector"), lambda p, t: rate_map(
        p, t["system"], t["detector"], 0.0, 0.1, 0.5, XI)),
    "asymptotic_allocation": (("detector",), lambda p, t: asymptotic_allocation(p, t["detector"])),
    "energies": (("system",), lambda p, t: energies(p, t["system"], 0.1, 0.5, XI)),
    "McConfig": (("system", "detector", "channel_knowledge"), lambda p, t: McConfig(
        system=t["system"], detector=t["detector"], channel_knowledge=t["channel_knowledge"])),
    "ExperimentSpec": (("system", "detector", "xi_policy"), lambda p, t: ExperimentSpec(
        system=t["system"], detector=t["detector"], xi_policy=t["xi_policy"])),
    "draw_trials": (("channel_knowledge",), lambda p, t: draw_trials(
        p, 1e-9, 0, [0], method=t["channel_knowledge"])),
}
CASES = [(entry, tag) for entry, (tags, _) in ENTRY_POINTS.items() for tag in tags]


@pytest.mark.parametrize("entry, tag", CASES)
def test_entry_points_reject_unknown_tags(entry, tag):
    with pytest.raises(ValueError, match=f"^unknown {tag}: 'bogus'$"):
        ENTRY_POINTS[entry][1](benchmark_params(10), {**VALID, tag: "bogus"})


# case -> (a fragment of the guard's own message, the call it refuses)
GUARDED = {
    "optimal_xi nan": ("positive, finite gains", lambda: optimal_xi([np.nan, 1.0])),
    "optimal_xi inf": ("positive, finite gains", lambda: optimal_xi([np.inf, 1.0])),
    "optimal_rho_zf": ("tau + alpha must not exceed 1 and must be finite",
                       lambda: optimal_rho_zf(2, np.nan, 0.1)),
    "optimal_rho_zf negative tau": ("tau and alpha must be nonnegative",
                                    lambda: optimal_rho_zf(2, -5.0, 0.0)),
    "optimal_rho_zf negative alpha": ("tau and alpha must be nonnegative",
                                      lambda: optimal_rho_zf(2, 0.0, [0.1, -0.2])),
    "fixed point alpha nan": ("alpha must be positive and finite", lambda: harvested_energy_fixedpoint(
        np.nan, 0.5, 0.5, 1e-6, 64, 1.0, 1e-15)),
    "fixed point alpha inf": ("alpha must be positive and finite", lambda: harvested_energy_fixedpoint(
        np.inf, 0.5, 0.5, 1e-6, 64, 1.0, 1e-15)),
    "fixed point rho nan": ("rho must lie strictly inside (0, 1)", lambda: harvested_energy_fixedpoint(
        0.1, np.nan, 0.5, 1e-6, 64, 1.0, 1e-15)),
    "error_variance energy": ("pilot energy must be nonnegative",
                              lambda: error_variance(1e-6, np.nan, 1e-15)),
    "error_variance sigma2": ("sigma2_ul must be positive and finite",
                              lambda: error_variance(1e-6, 1e-9, np.nan)),
    "error_variance beta negative": ("beta must be positive and finite",
                                     lambda: error_variance(-1.0, 1.0, 1e-15)),
    "error_variance beta nan": ("beta must be positive and finite",
                                lambda: error_variance(np.nan, 1.0, 1e-15)),
    "error_variance beta inf": ("beta must be positive and finite",
                                lambda: error_variance([1e-6, np.inf], 1.0, 1e-15)),
    "make_pilots nan": ("pilot energy must be nonnegative and finite", lambda: make_pilots(2, 2, np.nan)),
    "make_pilots inf": ("pilot energy must be nonnegative and finite", lambda: make_pilots(2, 2, np.inf)),
    "c1_limit beta0": ("need beta0 > 0", lambda: c1_limit(np.nan, 3.0, 6.0, 12.0)),
    "c1_limit u": ("and a finite u", lambda: c1_limit(1e-3, np.nan, 6.0, 12.0)),
    "c1_limit b": ("0 < a <= b, all finite", lambda: c1_limit(1e-3, 3.0, 6.0, np.inf)),
    "c1_sample": ("positive, finite path losses", lambda: c1_sample([np.nan, 1e-6])),
    "path_loss u": ("beta0 must be positive and finite, and u finite",
                    lambda: path_loss(1e-3, np.nan, [6.0, 12.0])),
    "path_loss distance": ("distances must be positive and finite",
                           lambda: path_loss(1e-3, 3.0, [6.0, np.inf])),
    "expected_harvested_energy": ("pilot energy must be nonnegative", lambda: expected_harvested_energy(
        np.nan, 0.1, 0.5, 1e-6, 64, 1.0, 1e-15)),
    "mmse_estimate": ("sigma2_ul must be positive and finite", lambda: mmse_estimate(
        np.zeros((4, 2)), make_pilots(2, 2, 1e-9), np.array([1e-6, 1e-7]), np.nan)),
    "general_beamformer": ("beam weights must be nonnegative",
                           lambda: general_beamformer(np.eye(4, 2), [np.nan, 0.5], [0.5])),
    "complex_gaussian nan": ("variance must be nonnegative and finite",
                             lambda: complex_gaussian(trial_rng(0), (2,), np.nan)),
    "complex_gaussian inf": ("variance must be nonnegative and finite",
                             lambda: complex_gaussian(trial_rng(0), (2,), np.inf)),
    "SystemParams M nan": ("M must be an integer", lambda: SystemParams(
        M=np.nan, K=2, p_dl=1.0, sigma2_ul=1e-15, beta=[1e-6, 1e-7])),
    "SystemParams M fractional": ("M must be an integer", lambda: SystemParams(
        M=200.5, K=2, p_dl=1.0, sigma2_ul=1e-15, beta=[1e-6, 1e-7])),
    "SystemParams M bool": ("M must be an integer", lambda: SystemParams(
        M=True, K=1, p_dl=1.0, sigma2_ul=1e-15, beta=[1e-6])),
    "SystemParams K float": ("K must be an integer", lambda: SystemParams(
        M=8, K=2.0, p_dl=1.0, sigma2_ul=1e-15, beta=[1e-6, 1e-7])),
    "beamformer xi nan": ("xi must be nonnegative and finite",
                          lambda: beamformer(np.eye(4, 2), [np.nan, 1.0])),
    "beamformer xi negative": ("xi must be nonnegative and finite",
                               lambda: beamformer(np.eye(4, 2), [-0.5, 1.5])),
    "beamformer xi inf": ("xi must be nonnegative and finite",
                          lambda: beamformer(np.eye(4, 2), [np.inf, 1.0])),
    "mm_dorg rates": ("rates must be finite",
                      lambda: mm_dorg([np.nan, 1.0, 2.0], [100, 500, 1000])),
    "mm_dorg m_values": ("m_values positive and finite",
                         lambda: mm_dorg([0.5, 1.0, 2.0], [100, np.inf, 1000])),
}


@pytest.mark.parametrize("case", list(GUARDED))
def test_guards_refuse_nan_and_infinite_inputs(case):
    """A guard written as ``np.any(x < 0)`` lets NaN through; each one reads
    as a positive test and refuses infinities where the value must be finite.
    The message is matched, so a shape or range check elsewhere cannot pass."""
    message, call = GUARDED[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# entry -> the call with beam weights xi for the K = 2 benchmark users
BEAM_WEIGHT_ENTRIES = {
    "energies": lambda p, xi: energies(p, "wetmm", 0.1, 0.5, xi),
    "energies opmm": lambda p, xi: energies(p, "opmm", 0.1, 0.5, xi),
    "closed_form_sinr": lambda p, xi: closed_form_sinr(p, "wetmm", "zf", 0.0, 0.1, 0.5, xi),
    "rate_map": lambda p, xi: rate_map(p, "wetmm", "zf", 0.0, 0.1, 0.5, xi),
    "closed_form_rate": lambda p, xi: closed_form_rate(
        p, ResourceAllocation(0.01, 0.1, 0.5, xi), "wetmm", "zf"),
    "asymptotic_zf_rate": lambda p, xi: asymptotic_zf_rate(
        p, ResourceAllocation(0.01, 0.1, 0.5, xi)),
    "asymptotic_mrc_rate": lambda p, xi: asymptotic_mrc_rate(
        p, ResourceAllocation(0.01, 0.1, 0.5, xi)),
    "estimate_exact_rate": lambda p, xi: estimate_exact_rate(
        p, ResourceAllocation(0.01, 0.1, 0.5, xi), McConfig(n_trials=4)),
    "verify_beamformer_structure": lambda p, xi: verify_beamformer_structure(
        p, ResourceAllocation(0.01, 0.1, 0.5, xi), 0.2, McConfig(n_trials=4)),
    "beamformer": lambda p, xi: beamformer(draw_trials(p, 1e-9, 0, [0, 1])[1], xi),
    "general_beamformer": lambda p, xi: general_beamformer(
        draw_trials(p, 1e-9, 0, [0])[1][0], xi, [0.0]),
}


@pytest.mark.parametrize("entry", list(BEAM_WEIGHT_ENTRIES))
@pytest.mark.parametrize("xi", [[0.25, 0.25, 0.5], [1.0]], ids=["longer", "shorter"])
def test_entry_points_refuse_beam_weights_of_the_wrong_length(entry, xi):
    """Every public entry refuses beam weights that are not one per user,
    with both lengths in the message; unchecked, a longer vector fails deep
    inside numpy and a one-entry vector broadcasts to every user."""
    with pytest.raises(ValueError, match=f"^beam weights have length {len(xi)}, expected K = 2$"):
        BEAM_WEIGHT_ENTRIES[entry](benchmark_params(10), np.array(xi))


def test_exports_are_listed_in_module_all():
    """Every ``__all__`` name exists, and every name the package re-exports
    is in its module's ``__all__``, so a deletion cannot leave a stale one."""
    for info in pkgutil.iter_modules(wetmm.__path__):
        module = importlib.import_module(f"wetmm.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"wetmm.{info.name}.__all__ names missing objects: {missing}"
    tree = ast.parse(Path(wetmm.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        unlisted = [a.name for a in node.names if a.name not in module.__all__]
        assert not unlisted, f"wetmm re-exports names outside {node.module}.__all__: {unlisted}"
