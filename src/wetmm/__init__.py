"""Wirelessly powered massive-MIMO uplink toolkit.

Models a multi-antenna access point that charges K single-antenna users over
the downlink by energy beamforming and then receives their uplink data, with
the users spending a fraction of the harvested energy on channel-estimation
pilots.  Provides closed-form rate lower bounds for zero-forcing and
maximum-ratio-combining detection, exact-rate Monte Carlo validation, and a
grid-search solver for the max-min rate resource-allocation problem over the
frame split (tau, alpha), the energy-splitting fraction rho, and the
beam-energy weights xi.
"""

from wetmm.sysmodel import (
    SystemParams,
    path_loss,
    trial_rng,
)
from wetmm.estimation import error_variance
from wetmm.energy import (
    ResourceAllocation,
    asymptotic_energy,
    beamformer,
    energies,
    expected_harvested_energy,
    general_beamformer,
    harvested_energy_fixedpoint,
)
from wetmm.rates import (
    asymptotic_mrc_rate,
    asymptotic_zf_rate,
    c1_limit,
    c1_sample,
    closed_form_rate,
    closed_form_sinr,
    ideal_asymptotic_rate,
    large_k_rate,
    maxmin_asymptotic_rate,
    mm_dorg,
    user_load_for_rate,
)
from wetmm.optimizer import (
    OptimizationResult,
    asymptotic_allocation,
    grid_search_p1,
    optimal_rho_zf,
    optimal_xi,
    solve_p1_analytic,
)
from wetmm.montecarlo import (
    BeamformerComparison,
    BoundCheck,
    McConfig,
    McRateEstimate,
    estimate_exact_rate,
    operating_point,
    verify_beamformer_structure,
    verify_bound_tightness,
)

__version__ = "0.1.0"
