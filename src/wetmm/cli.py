"""Experiment runner: writes the benchmark tables and figure data as CSV.

Each subcommand evaluates one experiment and writes its CSVs (RFC-4180
style, '.' decimal separator) plus one JSON sidecar, named after the first
CSV and recording the fully resolved configuration, into the output
directory.  One writer does this for every experiment and prints one
``wrote <path> (<n> rows)`` line per CSV.  Files are written atomically
(temp file, then rename) and every experiment is deterministic given the
configuration and master seed: re-running produces byte-identical output.

Configuration is a flat ``key = value`` text file; unknown keys are errors.
Powers are watts internally; any power key also accepts a ``_dbm``-suffixed
variant (e.g. ``sigma2_ul_dbm = -120``).  Command-line flags override the
config file, which overrides the defaults (the two-user reference scenario:
distances 6 m and 12 m, cubic path loss with 1e-3 reference gain, 1 W
downlink power, -120 dBm noise).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from wetmm.montecarlo import McConfig, _estimate_walks, estimate_exact_rate, operating_point
from wetmm.optimizer import (_grid, _grid_search, _lattice_count, grid_search_p1, optimal_rho_zf,
                             optimal_xi, rate_map)
from wetmm.rates import (
    _top_decade,
    asymptotic_mrc_rate,
    asymptotic_zf_rate,
    c1_limit,
    c1_sample,
    closed_form_rate,
    large_k_rate,
    mm_dorg,
)
from wetmm.sysmodel import (_TAGS, SystemParams, _check_count, _check_finite, _check_tags,
                            path_loss, trial_rng)

__all__ = [
    "ExperimentSpec",
    "dbm_to_watts",
    "load_config",
    "build_params",
    "run_optimize",
    "run_table1",
    "run_contour",
    "run_rho_sweep",
    "run_rate_vs_m",
    "run_fairness",
    "run_mc_validate",
    "run_large_k",
    "main",
]


@dataclass
class ExperimentSpec:
    """Resolved experiment configuration; defaults are the reference scenario."""

    m: int = 200
    distances: tuple = (6.0, 12.0)
    beta0: float = 1e-3
    pathloss_exponent: float = 3.0
    p_dl: float = 1.0
    sigma2_ul: float = 1e-15
    sigma2_user: float = 1e-15  # recorded in sidecars; no model reads it
    detector: str = "zf"
    system: str = "wetmm"
    xi_policy: str = "analytic"
    tau_step: float = 0.00025
    alpha_step: float = 0.0005
    rho_step: float = 0.0005
    xi_step: float = 0.001
    coarse_factor: int = 20
    refine_radius: int = 10
    fig_tau_step: float = 0.001
    fig_alpha_step: float = 0.002
    fig_rho_step: float = 0.002
    fig_coarse_factor: int = 10
    n_trials: int = 1000
    master_seed: int = 12345
    out_dir: str = "out"
    m_values: tuple = (25, 50, 100, 200, 400, 600, 800, 1000)
    rate_vs_m_values: tuple = (3, 4, 5, 6, 8, 10, 13, 16, 21, 25, 32, 40, 50, 64,
                               80, 100, 128, 160, 200, 256, 320, 400, 500, 640, 800, 1000)
    fairness_m_values: tuple = (25, 50, 100, 200, 400)
    contour_rho: float = 0.5965
    contour_tau_max: float = 0.02
    contour_alpha_max: float = 0.15
    sweep_tau: float = 0.00825
    sweep_alpha: float = 0.076
    large_k_users: int = 10000
    large_k_alpha: float = 0.05
    zeta_min: float = 0.02
    zeta_max: float = 0.98
    zeta_step: float = 0.02

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if isinstance(f.default, float):
                _check_finite(f.name, getattr(self, f.name))
        _check_count("number of distances", len(self.distances), 1)
        _check_finite("distances", self.distances, "positive")
        _check_tags(system=self.system, detector=self.detector, xi_policy=self.xi_policy)
        # the detector's antenna floor; rate-vs-m writes NaN where M <= K, so
        # its counts need only M >= 2
        floor = len(self.distances) + 1 if self.detector == "zf" else 2
        # table1 and fairness write one row per count, so they need one;
        # rate-vs-m writes an empty table for none
        for name in ("m_values", "fairness_m_values"):
            _check_count(f"number of {name}", len(getattr(self, name)), 1)
        for name, low in (("m_values", floor), ("fairness_m_values", floor),
                          ("rate_vs_m_values", 2)):
            for m in getattr(self, name):
                _check_count(f"{name} entries", m, low)
        # the search lattices span the unit interval
        for name in ("tau_step", "alpha_step", "rho_step", "xi_step",
                     "fig_tau_step", "fig_alpha_step", "fig_rho_step", "zeta_step"):
            _lattice_count(1.0, getattr(self, name), name)
        for name, low in (("n_trials", 1), ("master_seed", 0), ("m", 2), ("coarse_factor", 1),
                          ("fig_coarse_factor", 1), ("refine_radius", 0), ("large_k_users", 1)):
            _check_count(name, getattr(self, name), low)
        for name in ("contour_tau_max", "contour_alpha_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 <= self.contour_rho <= 1:
            raise ValueError("contour_rho must lie in [0, 1]")
        if not (self.sweep_tau >= 0 and self.sweep_alpha >= 0
                and self.sweep_tau + self.sweep_alpha <= 1):
            raise ValueError("need sweep_tau, sweep_alpha >= 0 with sweep_tau + sweep_alpha <= 1")
        if not 0 < self.zeta_min <= self.zeta_max < 1:
            raise ValueError("zeta_min and zeta_max must satisfy 0 < zeta_min <= zeta_max < 1")

    @property
    def steps(self) -> tuple:
        return (self.tau_step, self.alpha_step, self.rho_step)

    @property
    def fig_steps(self) -> tuple:
        return (self.fig_tau_step, self.fig_alpha_step, self.fig_rho_step)


def dbm_to_watts(dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return 1e-3 * 10.0 ** (dbm / 10.0)


_DBM_KEYS = {"p_dl_dbm": "p_dl", "sigma2_ul_dbm": "sigma2_ul",
             "sigma2_user_dbm": "sigma2_user"}


def _parse_value(field: str, raw: str):
    default = ExperimentSpec.__dataclass_fields__[field].default
    if isinstance(default, tuple):
        return tuple(type(default[0])(part.strip()) for part in raw.split(",") if part.strip())
    return type(default)(raw.strip())


def load_config(path: str) -> dict:
    """Parse a flat key = value config file into ExperimentSpec overrides.

    Raises:
        ValueError: on unknown keys, malformed lines, unparsable values or
            a field set twice (directly or through its ``_dbm`` twin),
            naming the file, line and key.
    """
    known = set(ExperimentSpec.__dataclass_fields__)
    overrides, first = {}, {}  # field -> its value, and the line that set it
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in known and key not in _DBM_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            field = _DBM_KEYS.get(key, key)
            if field in first:
                raise ValueError(f"{path}:{lineno}: {key}: {field} was already set on "
                                 f"line {first[field]}")
            first[field] = lineno
            try:
                overrides[field] = (dbm_to_watts(float(raw)) if key in _DBM_KEYS
                                    else _parse_value(key, raw))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return overrides


def build_params(spec: ExperimentSpec, m: int | None = None) -> SystemParams:
    """SystemParams for an ExperimentSpec's propagation scenario at antenna count m."""
    return SystemParams(M=int(m if m is not None else spec.m), K=len(spec.distances),
                        p_dl=spec.p_dl, sigma2_ul=spec.sigma2_ul,
                        beta=path_loss(spec.beta0, spec.pathloss_exponent, spec.distances))


def _write_atomic(path: str, chunks) -> None:
    """Write the strings of ``chunks`` in turn to a temp file beside ``path``
    and publish it with ``os.replace``; on any error the temp file is removed
    and ``path`` is left as it was."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_BLOCK_ROWS = 2048  # rows formatted, checked and written at a time


def _format_floats(x: np.ndarray) -> list:
    """'%.10g' of each entry of the float64 array ``x``, as nested lists of
    its shape, formatting each distinct value once: keyed by its bits, so
    -0.0, 0.0 and every NaN keep their own text."""
    # return_index makes np.unique sort stably, whose first call pages in
    # about 0.4 MB less of numpy's code than its default sort's does; every
    # process that writes a CSV, however small, pays that once
    bits, _, inverse = np.unique(x.view(np.uint64).ravel(), return_index=True,
                                 return_inverse=True)
    text = np.array(["%.10g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse.reshape(x.shape)].tolist()


def _csv_text(path: str, fields: list, n_lines: int, width: int) -> str:
    """The CSV lines of ``fields`` (one list of strings per column), refused
    where csv.writer would quote a field."""
    text = "\r\n".join(map(",".join, zip(*fields))) + "\r\n"
    if ('"' in text or text.count(",") != n_lines * (width - 1)
            or text.count("\r") != n_lines or text.count("\n") != n_lines
            or text.startswith("\r\n") or "\n\r\n" in text):
        raise ValueError(f"{path}: a field holds a comma, quote or line break, "
                         "or is the empty only field of its row")
    return text


def _csv_blocks(path: str, header: list, rows):
    """The CSV text of ``header`` and ``rows``, ``_BLOCK_ROWS`` rows at a time."""
    width, array = len(header), isinstance(rows, np.ndarray)
    floats = [isinstance(v, (float, np.floating)) for v in (rows[0] if len(rows) else header)]
    yield _csv_text(path, [[h] for h in header], 1, width)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        cols = block.T if array else list(zip(*block))
        text = iter(_format_floats(np.array([c if array else list(map(float, c))
                                             for c, f in zip(cols, floats) if f], np.float64)))
        yield _csv_text(path, [next(text) if f else list(map(str, c))
                               for c, f in zip(cols, floats)], len(block), width)


def _write_csv(path: str, header: list, rows) -> None:
    """Write the bytes ``csv.writer`` gives for ``header`` and ``rows`` (a
    list of row lists or a 2-D array), streamed ``_BLOCK_ROWS`` rows at a
    time, so memory does not grow with the row count.  A column whose
    first-row value is a float (Python or numpy) is written as %.10g, each
    distinct float of a block formatted once; any other column as str().

    Raises:
        ValueError: if a row's length differs from the header's, or a field
            would need quoting, which this writer does not do; the file is
            then left unwritten.
    """
    if (rows.shape[1:] != (len(header),) if isinstance(rows, np.ndarray)
            else any(len(row) != len(header) for row in rows)):
        raise ValueError(f"{path}: every row must have {len(header)} fields")
    _write_atomic(path, _csv_blocks(path, header, rows))


def _emit(spec: ExperimentSpec, experiment: str, files: list, extra: dict | None = None):
    """Write each (name, header, rows) CSV into spec.out_dir, then the first
    file's JSON sidecar; print one line per CSV and return the first file's
    (rows, path)."""
    paths = [os.path.join(spec.out_dir, name) for name, _, _ in files]
    for path, (_, header, rows) in zip(paths, files):
        _write_csv(path, header, rows)
        print(f"wrote {path} ({len(rows)} rows)")
    payload = {"experiment": experiment, "csv": files[0][0],
               "spec": dataclasses.asdict(spec), **(extra or {})}
    data = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write_atomic(os.path.splitext(paths[0])[0] + ".json", [data])
    return files[0][2], paths[0]


def _search_args(spec: ExperimentSpec, fig: bool) -> tuple:
    """The lattice arguments of the spec's searches after (system, detector)."""
    return (spec.fig_steps if fig else spec.steps, spec.xi_policy, spec.xi_step,
            spec.fig_coarse_factor if fig else spec.coarse_factor,
            spec.refine_radius if spec.xi_policy == "analytic" else None)


def _search(spec: ExperimentSpec, params: SystemParams, system: str, detector: str):
    """One allocation search at params on the spec's fine lattice."""
    return grid_search_p1(params, system, detector, *_search_args(spec, False))


def _search_batch(spec: ExperimentSpec, m_values, system: str, detector: str,
                  fig: bool = False) -> list:
    """The allocation search at each antenna count of ``m_values``, run as one
    batch, on the figure lattice or (``fig`` false) the fine one."""
    return _grid_search(build_params(spec), m_values, system, detector, *_search_args(spec, fig))


def _mc_config(spec: ExperimentSpec, system: str, detector: str) -> McConfig:
    return McConfig(n_trials=spec.n_trials, master_seed=spec.master_seed,
                    detector=detector, system=system)


def run_optimize(spec: ExperimentSpec):
    """Single max-min allocation search at spec.m; one CSV row."""
    params = build_params(spec)
    res = _search(spec, params, spec.system, spec.detector)
    a = res.allocation
    header = (["m", "system", "detector", "tau_star", "alpha_star", "rho_star"]
              + [f"xi_user{k + 1}" for k in range(params.K)]
              + [f"rate_user{k + 1}" for k in range(params.K)]
              + ["min_rate", "n_evaluations"])
    row = ([params.M, spec.system, spec.detector, a.tau, a.alpha, a.rho]
           + list(a.xi) + list(res.rates) + [res.min_rate, res.n_evaluations])
    out = _emit(spec, "optimize", [("optimize.csv", header, [row])])
    print(f"m={row[0]} system={row[1]} detector={row[2]} tau={a.tau:.10g} "
          f"alpha={a.alpha:.10g} rho={a.rho:.10g} min_rate={res.min_rate:.10g}")
    return out


def run_table1(spec: ExperimentSpec):
    """Allocation-versus-antenna-count table with MC rate columns.

    Per antenna count: grid-search allocation, the closed-form optimal
    energy split at that allocation, the large-array rate, the analytic
    rate, and per-user Monte Carlo rates.  The searches run as one batch,
    and so do the rate-only Monte Carlo walks, one per antenna count.
    """
    if len(spec.distances) != 2:
        raise ValueError("the allocation table is defined for the two-user scenario")
    header = ["M", "tau_star", "alpha_star", "rho_star_analytic", "rho_star_grid",
              "rate_asymptotic", "rate_analytic", "mc_rate_user1", "mc_rate_user2"]
    found = _search_batch(spec, spec.m_values, "wetmm", spec.detector)
    cfg = _mc_config(spec, "wetmm", spec.detector)
    walks = [(build_params(spec, m), [(res.allocation, cfg)])
             for m, res in zip(spec.m_values, found)]
    asym_fn = asymptotic_zf_rate if spec.detector == "zf" else asymptotic_mrc_rate
    rows = []
    ests = _estimate_walks(walks, error_var=False, energy=False)
    for (params, _), res, [mc] in zip(walks, found, ests):
        a = res.allocation
        rows.append([params.M, a.tau, a.alpha, optimal_rho_zf(params.K, a.tau, a.alpha), a.rho,
                     float(np.min(asym_fn(params, a))), res.min_rate, mc.rate[0], mc.rate[1]])
    return _emit(spec, "table1", [("table1.csv", header, rows)])


def run_contour(spec: ExperimentSpec):
    """Per-user rate over a (tau, alpha) window at fixed rho."""
    params = build_params(spec)
    xi = optimal_xi(params.beta)
    tau_vals = _grid(spec.contour_tau_max, spec.tau_step, "tau_step")
    alpha_vals = _grid(spec.contour_alpha_max, spec.alpha_step, "alpha_step")
    rates = rate_map(params, spec.system, spec.detector, tau_vals[:, None, None],
                     alpha_vals[None, :, None], spec.contour_rho, xi)
    header = ["tau", "alpha"] + [f"rate_user{k + 1}" for k in range(params.K)]
    rows = np.column_stack([np.repeat(tau_vals, alpha_vals.size),
                            np.tile(alpha_vals, tau_vals.size), rates.reshape(-1, params.K)])
    return _emit(spec, "contour", [("contour.csv", header, rows)],
                 {"fixed_rho": spec.contour_rho})


def run_rho_sweep(spec: ExperimentSpec):
    """Per-user rate along the energy-splitting fraction at fixed (tau, alpha)."""
    params = build_params(spec)
    xi = optimal_xi(params.beta)
    n_r = _lattice_count(1.0, spec.rho_step, "rho_step", open_end=True)
    rho_vals = spec.rho_step * np.arange(1, n_r + 1)
    rates = rate_map(params, spec.system, spec.detector, spec.sweep_tau,
                     spec.sweep_alpha, rho_vals[:, None], xi)
    header = ["rho"] + [f"rate_user{k + 1}" for k in range(params.K)] + ["min_rate"]
    rows = np.column_stack([rho_vals, rates, rates.min(axis=1)])
    return _emit(spec, "rho-sweep", [("rho_sweep.csv", header, rows)],
                 {"fixed_tau": spec.sweep_tau, "fixed_alpha": spec.sweep_alpha})


def run_rate_vs_m(spec: ExperimentSpec):
    """Optimized min rates per antenna count for all four system curves.

    Columns: wetmm/ideal/opmm with ZF plus wetmm with MRC.  Rate growth
    slopes (fitted over the top decade of the antenna grid) go into the
    sidecar, null for a curve with fewer than two finite rates there.
    """
    curves = [("wetmm_zf", "wetmm", "zf"), ("wetmm_mrc", "wetmm", "mrc"),
              ("ideal_zf", "ideal", "zf"), ("opmm_zf", "opmm", "zf")]
    header = ["m"] + [name for name, _, _ in curves]
    rows = [[m] for m in spec.rate_vs_m_values]
    for _, system, detector in curves:
        # one batch per curve; ZF needs M > K, and its column is NaN below that
        ms = [m for m in spec.rate_vs_m_values if detector == "mrc" or m > len(spec.distances)]
        found = dict(zip(ms, _search_batch(spec, ms, system, detector, fig=True) if ms else ()))
        for row in rows:
            row.append(found[row[0]].min_rate if row[0] in found else float("nan"))
    m_arr = np.array([r[0] for r in rows], dtype=float)
    slopes = {}
    for idx, (name, _, _) in enumerate(curves, start=1):
        vals = np.array([r[idx] for r in rows], dtype=float)
        keep = ~np.isnan(vals)
        slopes[name] = (mm_dorg(vals[keep], m_arr[keep])
                        if np.count_nonzero(_top_decade(m_arr[keep])) >= 2 else None)
    return _emit(spec, "rate-vs-m", [("rate_vs_m.csv", header, rows)], {"mm_dorg": slopes})


def run_fairness(spec: ExperimentSpec):
    """Per-user MC rates versus antenna count, subspace beam versus isotropic.

    Each beam's allocations are searched first, its antenna counts as one
    batch.  Then one batch of Monte Carlo walks runs, one walk per antenna
    count, each estimating both arms on the same trials and drawing each
    trial's first normals once for the two (common random numbers).
    """
    if len(spec.distances) != 2:
        raise ValueError("the fairness comparison is defined for the two-user scenario")
    header = ["m", "wetmm_user1", "wetmm_user2", "opmm_user1", "opmm_user2"]
    systems = ("wetmm", "opmm")
    found = [_search_batch(spec, spec.fairness_m_values, system, spec.detector, fig=True)
             for system in systems]
    walks = [(build_params(spec, m), [(r.allocation, _mc_config(spec, system, spec.detector))
                                      for r, system in zip(res, systems)])
             for m, *res in zip(spec.fairness_m_values, *found)]
    rows = [[m] + [r for mc in ests for r in mc.rate]
            for m, ests in zip(spec.fairness_m_values,
                               _estimate_walks(walks, error_var=False, energy=False))]
    return _emit(spec, "fairness", [("fairness.csv", header, rows)])


def run_mc_validate(spec: ExperimentSpec):
    """Closed forms versus MC at the spec.m grid optimum: energy, error
    variance, and rate bound, with standard errors and z-scores.  The ideal
    system has no estimation error, so it writes no error-variance rows."""
    params = build_params(spec)
    res = _search(spec, params, spec.system, spec.detector)
    alloc = res.allocation
    cfg = _mc_config(spec, spec.system, spec.detector)
    est = estimate_exact_rate(params, alloc, cfg, error_var=spec.system != "ideal")
    e_closed, _, _, err_var = operating_point(params, alloc, spec.system)
    bound = closed_form_rate(params, alloc, spec.system, spec.detector)
    blocks = [("energy", e_closed, est.energy, est.energy_se)]
    if spec.system != "ideal":
        blocks.append(("error_var", err_var, est.error_var, est.error_var_se))
    blocks.append(("rate_bound", bound, est.rate, est.rate_se))
    rows = []
    for kind, closed, mean, se in blocks:
        for k in range(params.K):
            z = (mean[k] - closed[k]) / se[k] if se[k] > 0 else 0.0
            rows.append([kind, k + 1, closed[k], mean[k], se[k], z])
    header = ["quantity", "user", "closed_form", "mc_mean", "mc_se", "z_score"]
    return _emit(spec, "mc-validate", [("mc_validate.csv", header, rows)],
                 {"allocation": {"tau": alloc.tau, "alpha": alloc.alpha,
                                 "rho": alloc.rho, "xi": list(alloc.xi)}})


def run_large_k(spec: ExperimentSpec):
    """Dense-regime rate versus user load, plus path-loss moment convergence."""
    c1_inf = c1_limit(spec.beta0, spec.pathloss_exponent,
                      min(spec.distances), max(spec.distances))
    zeta = spec.zeta_min + _grid(spec.zeta_max - spec.zeta_min, spec.zeta_step, "zeta_step")
    rates = large_k_rate(zeta, spec.large_k_alpha, c1_inf, spec.p_dl, spec.sigma2_ul)
    rate_rows = [[z, r] for z, r in zip(zeta, rates)]

    rng = trial_rng(spec.master_seed, 0, 1)
    a, b = min(spec.distances), max(spec.distances)
    d = rng.uniform(a, b, size=spec.large_k_users)
    c1_rows = []
    counts = sorted({min(n, spec.large_k_users) for n in (10, 100, 1000, spec.large_k_users)})
    for n in counts:
        c1 = c1_sample(path_loss(spec.beta0, spec.pathloss_exponent, d[:n]))
        c1_rows.append([n, c1, c1_inf, abs(c1 - c1_inf) / c1_inf])
    return _emit(spec, "large-k",
                 [("large_k_rates.csv", ["zeta", "rate"], rate_rows),
                  ("large_k_c1.csv", ["n_users", "c1_sample", "c1_limit", "rel_err"], c1_rows)],
                 {"c1_csv": "large_k_c1.csv", "c1_limit": c1_inf})


_RUNNERS = {
    "optimize": run_optimize,
    "table1": run_table1,
    "contour": run_contour,
    "rho-sweep": run_rho_sweep,
    "rate-vs-m": run_rate_vs_m,
    "fairness": run_fairness,
    "mc-validate": run_mc_validate,
    "large-k": run_large_k,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args returns
    a fresh Namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="wetmm",
        description="Energy-harvesting massive-MIMO uplink experiments (CSV out).",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, dest="master_seed", help="master seed")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--trials", type=int, dest="n_trials", help="Monte Carlo trials")
        # an experiment that fixes the system or detector does not take the flag
        if name not in ("rate-vs-m", "large-k"):
            p.add_argument("--detector", choices=_TAGS["detector"])
        if name in ("optimize", "mc-validate", "contour", "rho-sweep"):
            p.add_argument("--system", choices=_TAGS["system"])
            p.add_argument("--m", type=int, help="antenna count")
        if name == "contour":
            p.add_argument("--rho", type=float, dest="contour_rho", help="fixed energy split")
        if name == "rho-sweep":
            p.add_argument("--tau", type=float, dest="sweep_tau",
                           help="fixed estimation fraction")
            p.add_argument("--alpha", type=float, dest="sweep_alpha",
                           help="fixed energy-phase fraction")
    return parser


def _resolve_spec(args: argparse.Namespace) -> ExperimentSpec:
    overrides = {}
    if args.config:
        overrides.update(load_config(args.config))
    # every flag's dest is the ExperimentSpec field it sets
    overrides.update((key, value) for key, value in vars(args).items()
                     if value is not None and key in ExperimentSpec.__dataclass_fields__)
    spec = ExperimentSpec(**overrides)
    if spec.xi_policy == "simplex" and "refine_radius" in overrides:
        raise ValueError("refine_radius does not apply to xi_policy = simplex: "
                         "the simplex search uses its built-in refine radius")
    return spec


def main(argv: list | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _RUNNERS[args.experiment](_resolve_spec(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
