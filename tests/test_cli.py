"""Tests for the experiment runner: config parsing, CSV/sidecar output, determinism."""

import csv
import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from wetmm.cli import (
    ExperimentSpec,
    _write_csv,
    build_params,
    dbm_to_watts,
    load_config,
    main,
)
import wetmm.cli as cli
import wetmm.montecarlo as montecarlo
import wetmm.optimizer as optimizer
from wetmm.energy import ResourceAllocation
from wetmm.montecarlo import McConfig, estimate_exact_rate
from wetmm.optimizer import grid_search_p1
from wetmm.rates import c1_sample
from wetmm.sysmodel import path_loss, trial_rng

from conftest import assert_no_child_left

# Coarse search settings so CLI round trips stay fast; values are otherwise
# the reference scenario.
FAST_SEARCH = """\
m = 50
tau_step = 0.005
alpha_step = 0.01
rho_step = 0.01
coarse_factor = 2
refine_radius = 2
n_trials = 40
"""


def fast_search(extra: str) -> str:
    """FAST_SEARCH plus ``extra``'s lines, each in place of the FAST_SEARCH
    line that sets the same key: a config sets each field once."""
    keys = {line.split("=", 1)[0].strip() for line in extra.splitlines() if "=" in line}
    return "".join(line for line in FAST_SEARCH.splitlines(keepends=True)
                   if line.split("=", 1)[0].strip() not in keys) + extra


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_sidecar(csv_path):
    with open(os.path.splitext(csv_path)[0] + ".json", encoding="utf-8") as fh:
        return json.load(fh)


def test_dbm_to_watts_reference_points():
    assert np.isclose(dbm_to_watts(0.0), 1e-3, rtol=1e-12)
    assert np.isclose(dbm_to_watts(30.0), 1.0, rtol=1e-12)
    assert np.isclose(dbm_to_watts(-120.0), 1e-15, rtol=1e-12)


def test_load_config_types_comments_and_blanks(tmp_path):
    cfg = write_config(tmp_path, """
# full-line comment

m = 80            # trailing comment
tau_step = 0.002
detector = mrc
distances = 5, 10, 20
m_values = 25,50
""")
    overrides = load_config(cfg)
    assert overrides == {
        "m": 80,
        "tau_step": 0.002,
        "detector": "mrc",
        "distances": (5.0, 10.0, 20.0),
        "m_values": (25, 50),
    }
    assert isinstance(overrides["m"], int)
    assert all(isinstance(d, float) for d in overrides["distances"])
    assert all(isinstance(v, int) for v in overrides["m_values"])


def test_load_config_dbm_keys_convert_to_watts(tmp_path):
    cfg = write_config(tmp_path, "sigma2_ul_dbm = -120\np_dl_dbm = 30\n")
    overrides = load_config(cfg)
    assert set(overrides) == {"sigma2_ul", "p_dl"}
    assert np.isclose(overrides["sigma2_ul"], 1e-15, rtol=1e-12)
    assert np.isclose(overrides["p_dl"], 1.0, rtol=1e-12)


def test_load_config_unknown_key_reports_location(tmp_path):
    cfg = write_config(tmp_path, "m = 50\n\nbogus_key = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(cfg)
    try:
        load_config(cfg)
    except ValueError as exc:
        assert f"{cfg}:3:" in str(exc)


def test_load_config_malformed_line(tmp_path):
    cfg = write_config(tmp_path, "just a bare line\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        load_config(cfg)


def test_load_config_bad_value_reports_location(tmp_path, capsys):
    cfg = write_config(tmp_path, "# antennas\nm = 1e3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(cfg)}:2: m: invalid literal"):
        load_config(cfg)
    cfg = write_config(tmp_path, "p_dl_dbm = loud\n")
    with pytest.raises(ValueError, match=f"^{re.escape(cfg)}:1: p_dl_dbm: "):
        load_config(cfg)
    assert main(["optimize", "--config", cfg]) == 2
    assert f"error: {cfg}:1: p_dl_dbm: " in capsys.readouterr().err


def test_load_config_refuses_a_field_set_twice(tmp_path):
    """A later line used to override an earlier one silently, also through
    a _dbm twin (p_dl = 2.0 then p_dl_dbm = 30 loaded as 1 W)."""
    cfg = write_config(tmp_path, "m = 50\n# more antennas\nm = 60\n")
    with pytest.raises(ValueError, match=f"^{re.escape(cfg)}:3: m: m was already set on line 1$"):
        load_config(cfg)
    cfg = write_config(tmp_path, "p_dl = 2.0\np_dl_dbm = 30\n")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(cfg)}:2: p_dl_dbm: p_dl was already set on line 1$"):
        load_config(cfg)


def test_spec_validation():
    for bad in (
        {"detector": "ml"},
        {"system": "genie"},
        {"n_trials": 0},
        {"m": 1},
        {"tau_step": 0.0},
        {"rho_step": -0.1},
        {"distances": ()},
        {"distances": (6.0, -1.0)},
    ):
        with pytest.raises(ValueError):
            ExperimentSpec(**bad)
    spec = ExperimentSpec()
    assert spec.steps == (spec.tau_step, spec.alpha_step, spec.rho_step)
    assert spec.fig_steps == (spec.fig_tau_step, spec.fig_alpha_step, spec.fig_rho_step)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(ExperimentSpec) if isinstance(f.default, float)]


@pytest.mark.parametrize("bad", [{name: value} for name in FLOAT_FIELDS
                                 for value in (math.nan, math.inf)]
                         + [{"distances": (6.0, math.nan)}, {"distances": (6.0, math.inf)},
                            {"coarse_factor": 0}, {"fig_coarse_factor": 0},
                            {"refine_radius": -1},
                            {"m_values": (25, 1), "detector": "mrc"},
                            {"fairness_m_values": (1,), "detector": "mrc"},
                            {"m_values": (25, 2)}, {"fairness_m_values": (50, 2)},
                            {"m_values": (3,), "distances": (5.0, 6.0, 7.0)},
                            {"rate_vs_m_values": (3, 4, 1)},
                            {"contour_rho": 1.5}, {"contour_rho": -2.0},
                            {"contour_rho": 1.0 + 1e-12},
                            {"zeta_min": 0.5, "zeta_max": 0.1}, {"zeta_min": 0.0},
                            {"zeta_max": 1.0},
                            {"contour_tau_max": -0.01}, {"contour_alpha_max": -0.01},
                            {"large_k_users": 0},
                            {"sweep_tau": -0.01}, {"sweep_alpha": -0.01},
                            {"sweep_tau": 0.6, "sweep_alpha": 0.6},
                            {"tau_step": 1e-320}, {"zeta_step": 1e-320}])
def test_spec_rejects_non_finite_and_out_of_range(bad):
    with pytest.raises(ValueError, match=re.escape(next(iter(bad)))):
        ExperimentSpec(**bad)


@pytest.mark.parametrize("bad", [{"m": 200.7}, {"m_values": (25.5, 50)},
                                 {"fairness_m_values": (25, 50.0)},
                                 {"rate_vs_m_values": (3, True)}, {"large_k_users": 10.5},
                                 {"n_trials": 10.0}, {"master_seed": np.float64(3)},
                                 {"coarse_factor": True}, {"fig_coarse_factor": 2.0},
                                 {"refine_radius": 2.5}])
def test_spec_refuses_counts_that_are_not_integers(bad):
    # each was accepted: m = 200.7 ran M = 200 while the sidecar recorded
    # 200.7, and large_k_users = 10.5 failed later with a TypeError
    with pytest.raises(ValueError, match=f"^{next(iter(bad))}( entries)? must be an integer"):
        ExperimentSpec(**bad)
    spec = ExperimentSpec(m=np.int64(50), m_values=(np.int64(25),), n_trials=np.int32(3))
    assert build_params(spec).M == 50


def test_spec_m_values_checked_against_k(tmp_path, capsys):
    # MRC needs only M >= 2; ZF needs M > K; rate-vs-m writes NaN for M <= K
    ExperimentSpec(m_values=(2,), fairness_m_values=(2,), detector="mrc")
    ExperimentSpec(m_values=(3,), fairness_m_values=(3,), rate_vs_m_values=(2,))
    # the check fires before any M of the list is searched or simulated
    cfg = write_config(tmp_path, "m_values = 25, 2\n")
    assert main(["table1", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "m_values entries must be >= 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, field", [("table1", "m_values"),
                                               ("fairness", "fairness_m_values")])
def test_spec_refuses_an_empty_antenna_grid(tmp_path, capsys, experiment, field):
    # both ran the search on no problem and failed deep inside it
    with pytest.raises(ValueError, match=f"^number of {field} must be >= 1, got 0$"):
        ExperimentSpec(**{field: ()})
    cfg = write_config(tmp_path, f"{field} =\n")
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"number of {field} must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    ExperimentSpec(rate_vs_m_values=())  # rate-vs-m writes an empty table


@pytest.mark.parametrize("experiment", ["contour", "rho-sweep"])
@pytest.mark.parametrize("line", ["xi_policy = bogus", "master_seed = -5",
                                  "rate_vs_m_values = 3, 4, 1"])
def test_bad_spec_values_rejected_before_any_output(tmp_path, capsys, experiment, line):
    # neither experiment reads these keys, so only the spec can catch them
    cfg = write_config(tmp_path, line + "\n")
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert line.split()[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment, line, message", [
    ("optimize", "p_dl = 1e300",
     "the min rate nan of the search's winner at M = 200 (alpha 0.0005, rho 0.0005, xi ["),
    ("rate-vs-m", "p_dl = 1e300", "the min rate nan of the search's winner at M = 3 "),
    ("large-k", "distances = 1e300, 1e301",
     "the c1 limit at beta0 0.001, u 3.0 and distances 1e+300 to 1e+301 must be positive"),
    ("large-k", "beta0 = 1e300",
     "the c1 limit at beta0 1e+300, u 3.0 and distances 6.0 to 12.0 must be positive"),
    ("large-k", "sigma2_ul = 1e300", "the dense-regime rate at alpha_star 0.05, c1 "),
])
def test_an_overflowing_scenario_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                             experiment, line, message):
    """A scenario whose model overflows exits 2 with one line naming the
    quantity and its inputs, with no warning, traceback or output file: a
    NaN search winner, the c1 limit's powers and the dense-regime rate.
    rate-vs-m stops at its first search."""
    searches = []
    def counted(*args, _search=optimizer._grid_search):
        searches.append(args[1])
        return _search(*args)
    monkeypatch.setattr(cli, "_grid_search", counted)
    monkeypatch.setattr(optimizer, "_grid_search", counted)
    cfg = write_config(tmp_path, line + "\n")
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()
    assert len(searches) == (0 if experiment == "large-k" else 1)  # one batch of searches


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment, cell", [
    ("contour", "(tau 0, alpha 0.0005, rho 0.5965, xi ["),
    ("rho-sweep", "(tau 0.00825, alpha 0.076, rho 0.0005, xi ["),
])
def test_an_overflowing_map_exits_2_with_one_error_line(tmp_path, capsys, experiment, cell):
    """contour and rho-sweep refuse a map whose rates overflow inside the
    frame, naming its first such cell and the cell's inputs, with no warning
    and no output directory."""
    cfg = write_config(tmp_path, "p_dl = 1e300\n")
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the rate nan of user 1 at M = 200 " + cell), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_simplex_policy_rejects_refine_radius(tmp_path, capsys):
    # the simplex search always refines with its own radius; a set value
    # would be silently ignored
    cfg = write_config(tmp_path, "xi_policy = simplex\nrefine_radius = 6\n")
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "built-in refine radius" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_build_params_reference_scenario():
    spec = ExperimentSpec()
    params = build_params(spec)
    assert params.M == 200 and params.K == 2
    assert np.allclose(params.beta, [4.6296296296296296e-06, 5.787037037037037e-07],
                       rtol=1e-12)
    assert build_params(spec, 64).M == 64


def test_optimize_csv_matches_direct_search(tmp_path, capsys):
    cfg = write_config(tmp_path, FAST_SEARCH)
    out = tmp_path / "out_a"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.out and "optimize.csv" in captured.out

    header, rows = read_csv(out / "optimize.csv")
    assert header == ["m", "system", "detector", "tau_star", "alpha_star", "rho_star",
                      "xi_user1", "xi_user2", "rate_user1", "rate_user2",
                      "min_rate", "n_evaluations"]
    assert len(rows) == 1
    row = rows[0]
    assert row[0] == "50" and row[1] == "wetmm" and row[2] == "zf"

    spec = ExperimentSpec(**load_config(cfg), out_dir=str(out))
    res = grid_search_p1(build_params(spec), spec.system, spec.detector,
                         steps=spec.steps, xi_policy=spec.xi_policy,
                         xi_step=spec.xi_step, coarse_factor=spec.coarse_factor,
                         refine_radius=spec.refine_radius)
    # CSV floats are '.10g' renderings of exactly the direct-search result.
    assert row[3] == format(float(res.allocation.tau), ".10g")
    assert row[4] == format(float(res.allocation.alpha), ".10g")
    assert row[5] == format(float(res.allocation.rho), ".10g")
    assert row[10] == format(float(res.min_rate), ".10g")

    sidecar = read_sidecar(str(out / "optimize.csv"))
    assert sidecar["experiment"] == "optimize"
    assert sidecar["csv"] == "optimize.csv"
    assert sidecar["spec"]["m"] == 50
    assert sidecar["spec"]["master_seed"] == 12345
    assert sidecar["spec"]["distances"] == [6.0, 12.0]

    with open(out / "optimize.csv", "rb") as fh:
        data = fh.read()
    assert data.endswith(b"\r\n")


def csv_writer_bytes(header, rows):
    """The reference rendering: csv.writer over each value formatted as a
    float's '.10g' or any other value's str()."""
    import io

    def fmt(value):
        return format(float(value), ".10g") if isinstance(value, (float, np.floating)) \
            else str(value)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([fmt(v) for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


def test_csv_template_matches_csv_writer(tmp_path):
    header = ["n", "big", "label", "x", "share_%"]
    rows = [[3, np.int64(-7), "wetmm", 0.1 + 0.2, np.float64(-0.0)],
            [2 ** 40, np.int64(2 ** 62), "energy", math.nan, math.inf],
            [0, np.int64(0), "zf", -math.inf, np.float64(1.2345678901234e-300)],
            [-1, np.int64(1), "rate_bound", 16.10031444046324, np.nan]]
    for name, body in (("rows.csv", rows), ("empty.csv", [])):
        _write_csv(str(tmp_path / name), header, body)
        assert (tmp_path / name).read_bytes() == csv_writer_bytes(header, body)


QUOTED = "comma, quote or line break"


@pytest.mark.parametrize("header, rows, message", [
    (["a", "b"], [["x,y", 1.0]], QUOTED), (["a", "b"], [['say "hi"', 1.0]], QUOTED),
    (["a", "b"], [["one\ntwo", 1.0]], QUOTED), (["a", "b"], [["one\rtwo", 1.0]], QUOTED),
    (["a,b", "c"], [["x", 1.0]], QUOTED), (["a"], [[""]], QUOTED),
    (["a", "b"], [["x", 1.0], ["y"], ["z", 2.0, 3.0]], "every row must have 2 fields"),
])
def test_csv_template_refuses_what_it_cannot_write(tmp_path, header, rows, message):
    """A field csv.writer would quote, or a row of the wrong length, is
    refused before anything is written."""
    with pytest.raises(ValueError, match=message):
        _write_csv(str(tmp_path / "bad.csv"), header, rows)
    assert not (tmp_path / "bad.csv").exists()


def test_csv_blocks_match_csv_writer(tmp_path):
    """A table of three full blocks and a part writes csv.writer's bytes:
    repeated and distinct floats, both zeros, NaNs, infinities and a
    subnormal in float columns, and ints, numpy ints and strings beside."""
    n = 3 * cli._BLOCK_ROWS + 5
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, math.nan, np.float64(-np.nan), math.inf, -math.inf, 5e-324, 0.1 + 0.2]
    header = ["i", "big", "label", "special", "distinct", "repeated"]
    rows = [[i, np.int64(-3 * i), f"user{i % 3}", special[i % len(special)],
             float(rng.standard_normal()), np.float64(rng.integers(5) / 7)] for i in range(n)]
    _write_csv(str(tmp_path / "rows.csv"), header, rows)
    assert (tmp_path / "rows.csv").read_bytes() == csv_writer_bytes(header, rows)


@pytest.mark.parametrize("dtype", [float, np.int64])
def test_csv_array_rows_write_their_lists_bytes(tmp_path, dtype):
    """A 2-D array writes what its .tolist() writes, across blocks."""
    rng = np.random.default_rng(3)
    table = (rng.standard_normal((2 * cli._BLOCK_ROWS + 3, 4)) * 1e3).astype(dtype)
    if dtype is float:
        table[:7, 1] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0]
    header = ["a", "b", "c", "d"]
    _write_csv(str(tmp_path / "array.csv"), header, table)
    _write_csv(str(tmp_path / "lists.csv"), header, table.tolist())
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()
    assert (tmp_path / "array.csv").read_bytes() == csv_writer_bytes(header, table.tolist())


def test_csv_refusal_in_the_last_block_leaves_no_file(tmp_path):
    """Blocks written before a refused field are discarded with the temp file."""
    rows = [[f"user{i}", 0.5 * i] for i in range(2 * cli._BLOCK_ROWS)] + [["x,y", 1.0]]
    with pytest.raises(ValueError, match=QUOTED):
        _write_csv(str(tmp_path / "bad.csv"), ["a", "b"], rows)
    assert os.listdir(tmp_path) == []


def test_csv_writer_memory_does_not_grow_with_rows(tmp_path):
    """The writer's traced peak for 200,000 rows of 4 floats stays within
    1.5 times its peak for 20,000 rows and under 2 MB: the table, 6.4 MB as
    an array, is streamed in blocks, not formatted whole."""
    import tracemalloc
    peaks = []
    for n in (20_000, 200_000):
        table = np.random.default_rng(5).standard_normal((n, 4))
        tracemalloc.start()
        try:
            _write_csv(str(tmp_path / "big.csv"), ["a", "b", "c", "d"], table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0] and peaks[1] < 2e6, peaks


def test_optimize_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, FAST_SEARCH)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--config", cfg, "--out", str(out_a)]) == 0
    first_csv = (out_a / "optimize.csv").read_bytes()
    first_json = (out_a / "optimize.json").read_bytes()
    assert main(["optimize", "--config", cfg, "--out", str(out_a)]) == 0
    assert (out_a / "optimize.csv").read_bytes() == first_csv
    assert (out_a / "optimize.json").read_bytes() == first_json
    # CSV content does not depend on the output directory.
    assert main(["optimize", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_b / "optimize.csv").read_bytes() == first_csv


def test_flags_override_config(tmp_path):
    cfg = write_config(tmp_path, FAST_SEARCH)
    out = tmp_path / "out"
    rc = main(["optimize", "--config", cfg, "--out", str(out), "--seed", "99",
               "--m", "30", "--detector", "mrc", "--trials", "10"])
    assert rc == 0
    sidecar = read_sidecar(str(out / "optimize.csv"))
    assert sidecar["spec"]["master_seed"] == 99
    assert sidecar["spec"]["m"] == 30
    assert sidecar["spec"]["detector"] == "mrc"
    assert sidecar["spec"]["n_trials"] == 10
    header, rows = read_csv(out / "optimize.csv")
    assert rows[0][0] == "30" and rows[0][2] == "mrc"


def test_optimize_ideal_system(tmp_path):
    cfg = write_config(tmp_path, FAST_SEARCH)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out),
                 "--system", "ideal"]) == 0
    header, rows = read_csv(out / "optimize.csv")
    assert rows[0][1] == "ideal"
    assert float(rows[0][10]) > 0.0


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "m = 50\nnonsense = 3\n")
    assert main(["optimize", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "unknown config key" in captured.err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["optimize", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_table1_requires_two_users(tmp_path, capsys):
    cfg = write_config(tmp_path, "distances = 9\n")
    assert main(["table1", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "two-user" in capsys.readouterr().err


def test_rho_sweep_rows_and_fixed_point_sidecar(tmp_path):
    cfg = write_config(tmp_path, fast_search("rho_step = 0.05\n"))
    out = tmp_path / "out"
    rc = main(["rho-sweep", "--config", cfg, "--out", str(out),
               "--tau", "0.01", "--alpha", "0.08"])
    assert rc == 0
    header, rows = read_csv(out / "rho_sweep.csv")
    assert header == ["rho", "rate_user1", "rate_user2", "min_rate"]
    # interior lattice only: 0.05, 0.10, ..., 0.95
    assert len(rows) == 19
    assert np.isclose(float(rows[0][0]), 0.05, rtol=1e-12)
    assert np.isclose(float(rows[-1][0]), 0.95, rtol=1e-12)
    for row in rows:
        assert np.isclose(float(row[3]), min(float(row[1]), float(row[2])), rtol=1e-12)
    sidecar = read_sidecar(str(out / "rho_sweep.csv"))
    assert sidecar["fixed_tau"] == 0.01
    assert sidecar["fixed_alpha"] == 0.08


def test_rho_sweep_keeps_the_last_interior_point(tmp_path):
    """0.03 does not divide 1: the sweep runs 0.03, ..., 0.99, where the old
    floor(1/step - 1) rule stopped at 0.96."""
    cfg = write_config(tmp_path, fast_search("rho_step = 0.03\n"))
    out = tmp_path / "out"
    assert main(["rho-sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "rho_sweep.csv")
    assert len(rows) == 33
    assert np.isclose(float(rows[-1][0]), 0.99, rtol=1e-12)


def test_rho_sweep_rejects_infeasible_window(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["rho-sweep", "--out", str(out), "--tau", "0.6", "--alpha", "0.6"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_contour_covers_window(tmp_path):
    cfg = write_config(tmp_path, FAST_SEARCH + "contour_tau_max = 0.02\n"
                       "contour_alpha_max = 0.04\n")
    out = tmp_path / "out"
    assert main(["contour", "--config", cfg, "--out", str(out), "--rho", "0.6"]) == 0
    header, rows = read_csv(out / "contour.csv")
    assert header == ["tau", "alpha", "rate_user1", "rate_user2"]
    # tau in {0, .005, .01, .015, .02}, alpha in {0, .01, .02, .03, .04}
    assert len(rows) == 25
    taus = sorted({float(r[0]) for r in rows})
    alphas = sorted({float(r[1]) for r in rows})
    assert np.allclose(taus, [0.0, 0.005, 0.01, 0.015, 0.02], atol=1e-12)
    assert np.allclose(alphas, [0.0, 0.01, 0.02, 0.03, 0.04], atol=1e-12)
    assert read_sidecar(str(out / "contour.csv"))["fixed_rho"] == 0.6


def test_contour_axes_stop_at_the_window_edge(tmp_path):
    # rounding 3.5 and 5.6 steps up would put rows at tau = 0.04 and alpha = 0.03
    cfg = write_config(tmp_path, fast_search("contour_tau_max = 0.035\ntau_step = 0.01\n"
                                             "contour_alpha_max = 0.028\nalpha_step = 0.005\n"))
    out = tmp_path / "out"
    assert main(["contour", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "contour.csv")
    taus = sorted({float(r[0]) for r in rows})
    alphas = sorted({float(r[1]) for r in rows})
    assert np.allclose(taus, [0.0, 0.01, 0.02, 0.03], atol=1e-12)
    assert np.allclose(alphas, [0.0, 0.005, 0.01, 0.015, 0.02, 0.025], atol=1e-12)
    assert len(rows) == 4 * 6


def test_mc_validate_blocks_and_allocation_sidecar(tmp_path):
    cfg = write_config(tmp_path, fast_search("m = 20\n"))
    out = tmp_path / "out"
    assert main(["mc-validate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "mc_validate.csv")
    assert header == ["quantity", "user", "closed_form", "mc_mean", "mc_se", "z_score"]
    assert [r[0] for r in rows] == ["energy", "energy", "error_var", "error_var",
                                   "rate_bound", "rate_bound"]
    assert [r[1] for r in rows] == ["1", "2"] * 3
    for row in rows:
        assert math.isfinite(float(row[5]))
    alloc = read_sidecar(str(out / "mc_validate.csv"))["allocation"]
    assert set(alloc) == {"tau", "alpha", "rho", "xi"}
    assert len(alloc["xi"]) == 2


def test_mc_validate_rows_are_estimate_exact_rate(tmp_path):
    cfg = write_config(tmp_path, fast_search("m = 20\n"))
    out = tmp_path / "out"
    assert main(["mc-validate", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "mc_validate.csv")
    spec = ExperimentSpec(**load_config(cfg))
    alloc = read_sidecar(str(out / "mc_validate.csv"))["allocation"]
    alloc = ResourceAllocation(tau=alloc["tau"], alpha=alloc["alpha"], rho=alloc["rho"],
                               xi=np.array(alloc["xi"]))
    est = estimate_exact_rate(build_params(spec), alloc,
                              McConfig(n_trials=spec.n_trials, master_seed=spec.master_seed))
    got = {(r[0], int(r[1])): r[3:5] for r in rows}
    for kind, mean, se in (("energy", est.energy, est.energy_se),
                           ("rate_bound", est.rate, est.rate_se)):
        for k in range(2):
            assert got[(kind, k + 1)] == [format(mean[k], ".10g"), format(se[k], ".10g")]


def test_mc_validate_runs_the_ideal_system(tmp_path):
    cfg = write_config(tmp_path, fast_search("m = 20\n"))
    csvs = {}
    for system in ("wetmm", "ideal"):
        out = tmp_path / system
        assert main(["mc-validate", "--config", cfg, "--out", str(out), "--system", system]) == 0
        csvs[system] = (out / "mc_validate.csv").read_bytes()
    assert csvs["ideal"] != csvs["wetmm"]
    _, rows = read_csv(tmp_path / "ideal" / "mc_validate.csv")
    assert [r[0] for r in rows] == ["energy", "energy", "rate_bound", "rate_bound"]
    alloc = read_sidecar(str(tmp_path / "ideal" / "mc_validate.csv"))["allocation"]
    alloc = ResourceAllocation(tau=alloc["tau"], alpha=alloc["alpha"], rho=alloc["rho"],
                               xi=np.array(alloc["xi"]))
    assert alloc.tau == 0.0
    spec = ExperimentSpec(**load_config(cfg))
    est = estimate_exact_rate(build_params(spec), alloc,
                              McConfig(n_trials=spec.n_trials, master_seed=spec.master_seed,
                                       system="ideal"))
    assert [r[3] for r in rows] == [format(x, ".10g") for x in (*est.energy, *est.rate)]


@pytest.mark.parametrize("extra", [[], ["--trials", "1"], ["--system", "opmm"],
                                   ["--system", "ideal"], ["--detector", "mrc"]])
def test_mc_validate_csv_does_not_depend_on_chunk_size(tmp_path, monkeypatch, extra):
    cfg = write_config(tmp_path, fast_search("m = 20\n"))
    outputs = []
    for workers, chunk_entries in ((1, montecarlo._CHUNK_ENTRIES), (1, 1), (2, 1)):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", chunk_entries)
        out = tmp_path / f"out{workers}-{chunk_entries}"
        assert main(["mc-validate", "--config", cfg, "--out", str(out), *extra]) == 0
        outputs.append((out / "mc_validate.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


# a figure lattice coarse enough for a fairness run in the tests
FAST_FIG = FAST_SEARCH + """\
fig_tau_step = 0.01
fig_alpha_step = 0.02
fig_rho_step = 0.02
fig_coarse_factor = 2
"""


def test_fairness_csv_does_not_depend_on_chunk_size(tmp_path, monkeypatch):
    # at M = K + 1 a low condition limit makes both arms redraw trials
    monkeypatch.setattr(montecarlo, "COND_LIMIT", 30.0)
    cfg = write_config(tmp_path, FAST_FIG + "fairness_m_values = 3, 20\n")
    outputs = []
    for workers, chunk_entries in ((1, montecarlo._CHUNK_ENTRIES), (1, 1), (2, 1), (3, 100)):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", chunk_entries)
        out = tmp_path / f"out{workers}-{chunk_entries}"
        assert main(["fairness", "--config", cfg, "--out", str(out)]) == 0
        outputs.append((out / "fairness.csv").read_bytes())
    assert outputs[1:] == outputs[:1] * 3


def test_table1_csv_does_not_depend_on_chunk_size(tmp_path, monkeypatch):
    # at M = K + 1 a low condition limit makes the walk redraw trials
    monkeypatch.setattr(montecarlo, "COND_LIMIT", 30.0)
    cfg = write_config(tmp_path, FAST_SEARCH + "m_values = 3, 20\n")
    outputs = []
    for workers, chunk_entries in ((1, montecarlo._CHUNK_ENTRIES), (1, 1), (2, 1), (3, 100)):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", chunk_entries)
        out = tmp_path / f"out{workers}-{chunk_entries}"
        assert main(["table1", "--config", cfg, "--out", str(out)]) == 0
        outputs.append((out / "table1.csv").read_bytes())
    assert outputs[1:] == outputs[:1] * 3


@pytest.mark.parametrize("experiment", ["table1", "fairness"])
def test_an_experiments_walks_build_no_beam_or_harvest(tmp_path, monkeypatch, experiment):
    """table1 and fairness read only the Monte Carlo rates, so their walks
    never build a beam or a harvest, and their CSVs are unchanged."""
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    cfg = write_config(tmp_path, FAST_FIG + "m_values = 3, 20\nfairness_m_values = 3, 20\n")
    csv_name = experiment + ".csv"
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "want")]) == 0
    def forbidden(*args):
        raise AssertionError("a rate-only walk built a beam or a harvest")
    monkeypatch.setattr(montecarlo, "beamformer", forbidden)
    monkeypatch.setattr(montecarlo, "_harvest", forbidden)
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "got")]) == 0
    assert ((tmp_path / "got" / csv_name).read_bytes()
            == (tmp_path / "want" / csv_name).read_bytes())


@pytest.mark.parametrize("experiment", ["table1", "fairness"])
def test_an_experiments_walks_fork_once(tmp_path, monkeypatch, experiment):
    """All the Monte Carlo walks of one experiment, one per antenna count,
    run through one set of forked workers, and every child is reaped."""
    forks = []
    real = os.fork
    def counting():
        forks.append(os.getpid())
        return real()
    monkeypatch.setattr(os, "fork", counting)
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1)
    cfg = write_config(tmp_path, FAST_FIG + "m_values = 3, 20, 25\n"
                       "fairness_m_values = 3, 20, 25\n")
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--trials", "5"]) == 0
    assert forks == [os.getpid()]
    assert_no_child_left()


def test_fairness_arms_share_each_trials_draw(tmp_path, monkeypatch):
    """At each M, the wetmm and opmm arms derive each trial's salt-0 stream
    state, and draw its normals, once for both."""
    asked = []
    real = montecarlo._pcg64_states
    def counting(master_seed, trials, salt):
        if salt == 0:
            asked.extend(int(t) for t in trials)
        return real(master_seed, trials, salt)
    monkeypatch.setattr(montecarlo, "_pcg64_states", counting)
    cfg = write_config(tmp_path, FAST_FIG + "fairness_m_values = 20\n")
    assert main(["fairness", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--trials", "50"]) == 0
    assert sorted(asked) == list(range(50))


@pytest.mark.parametrize("argv", [["fairness", "--system", "ideal"],
                                  ["table1", "--system", "opmm"],
                                  ["rate-vs-m", "--detector", "mrc"],
                                  ["rate-vs-m", "--system", "ideal"],
                                  ["large-k", "--detector", "zf"]])
def test_flags_an_experiment_fixes_are_rejected(tmp_path, capsys, argv):
    # these experiments fix the system or detector, so the flag would be ignored
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rate_vs_m_nan_below_zf_floor(tmp_path):
    cfg = write_config(tmp_path, """
rate_vs_m_values = 2, 4
fig_tau_step = 0.01
fig_alpha_step = 0.02
fig_rho_step = 0.02
fig_coarse_factor = 2
""")
    out = tmp_path / "out"
    assert main(["rate-vs-m", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "rate_vs_m.csv")
    assert header == ["m", "wetmm_zf", "wetmm_mrc", "ideal_zf", "opmm_zf"]
    assert len(rows) == 2
    # ZF needs M >= K + 1 = 3; MRC has no such floor.
    row2 = rows[0]
    assert math.isnan(float(row2[1])) and math.isnan(float(row2[3]))
    assert math.isfinite(float(row2[2]))
    assert all(math.isfinite(float(v)) for v in rows[1][1:])
    slopes = read_sidecar(str(out / "rate_vs_m.csv"))["mm_dorg"]
    assert slopes["wetmm_zf"] is None and slopes["ideal_zf"] is None
    assert isinstance(slopes["wetmm_mrc"], float)


def test_rate_vs_m_slope_is_null_without_two_counts_in_the_top_decade(tmp_path):
    """Only M = 1000 lies in the top decade of 3, 4, 1000; the run used to
    search every point and then exit 2 without a CSV."""
    cfg = write_config(tmp_path, """
rate_vs_m_values = 3, 4, 1000
fig_tau_step = 0.01
fig_alpha_step = 0.02
fig_rho_step = 0.02
fig_coarse_factor = 2
""")
    out = tmp_path / "out"
    assert main(["rate-vs-m", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "rate_vs_m.csv")
    assert [r[0] for r in rows] == ["3", "4", "1000"]
    assert all(math.isfinite(float(v)) for r in rows for v in r[1:])
    assert read_sidecar(str(out / "rate_vs_m.csv"))["mm_dorg"] == dict.fromkeys(header[1:])


def test_large_k_c1_rows_use_path_loss(tmp_path, monkeypatch):
    """The sampled path losses come from sysmodel.path_loss, not a copy."""
    calls = []
    monkeypatch.setattr(cli, "path_loss", lambda *args: calls.append(args) or path_loss(*args))
    cfg = write_config(tmp_path, "large_k_users = 50\nzeta_step = 0.5\n")
    out = tmp_path / "out"
    assert main(["large-k", "--config", cfg, "--out", str(out)]) == 0
    assert [len(d) for _, _, d in calls] == [10, 50]
    spec = ExperimentSpec()
    d = trial_rng(spec.master_seed, 0, 1).uniform(6.0, 12.0, size=50)
    want = [c1_sample(path_loss(spec.beta0, spec.pathloss_exponent, d[:n])) for n in (10, 50)]
    assert [float(r[1]) for r in read_csv(out / "large_k_c1.csv")[1]] == \
        [float(f"{c:.10g}") for c in want]


def test_large_k_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, """
large_k_users = 500
zeta_min = 0.1
zeta_max = 0.9
zeta_step = 0.1
""")
    out = tmp_path / "out"
    assert main(["large-k", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "large_k_rates.csv (9 rows)" in captured.out
    assert "large_k_c1.csv (3 rows)" in captured.out
    header, rows = read_csv(out / "large_k_rates.csv")
    assert header == ["zeta", "rate"]
    assert np.allclose([float(r[0]) for r in rows], 0.1 * np.arange(1, 10), atol=1e-12)
    header, rows = read_csv(out / "large_k_c1.csv")
    assert header == ["n_users", "c1_sample", "c1_limit", "rel_err"]
    assert [int(r[0]) for r in rows] == [10, 100, 500]
    # sampled moment converges toward the printed limit
    assert float(rows[-1][3]) < float(rows[0][3])
    sidecar = read_sidecar(str(out / "large_k_rates.csv"))
    assert sidecar["c1_csv"] == "large_k_c1.csv"
    assert np.isclose(sidecar["c1_limit"], 846473142857.143, rtol=1e-9)


def test_large_k_at_path_loss_exponent_minus_half(tmp_path):
    """At u = -1/2 the c1 limit is log(b/a) / ((b - a) beta0^2).  It used to
    divide by 2u + 1 = 0 and exit with a ZeroDivisionError traceback."""
    cfg = write_config(tmp_path, "pathloss_exponent = -0.5\nlarge_k_users = 50\nzeta_step = 0.5\n")
    out = tmp_path / "out"
    assert main(["large-k", "--config", cfg, "--out", str(out)]) == 0
    want = math.log(12.0 / 6.0) / (6.0 * 1e-3**2)
    assert np.isclose(want, 115524.53009, rtol=1e-10)
    assert np.isclose(read_sidecar(str(out / "large_k_rates.csv"))["c1_limit"], want, rtol=1e-12)
    assert {float(r[2]) for r in read_csv(out / "large_k_c1.csv")[1]} == {float(f"{want:.10g}")}


@pytest.mark.parametrize("zeta_min, zeta_max, want", [(0.1, 0.55, [0.1, 0.4]),
                                                     (0.5, 0.95, [0.5, 0.8])])
def test_large_k_grid_stays_within_zeta_max(tmp_path, zeta_min, zeta_max, want):
    cfg = write_config(tmp_path, f"large_k_users = 50\nzeta_min = {zeta_min}\n"
                                 f"zeta_max = {zeta_max}\nzeta_step = 0.3\n")
    out = tmp_path / "out"
    assert main(["large-k", "--config", cfg, "--out", str(out)]) == 0
    zeta = [float(r[0]) for r in read_csv(out / "large_k_rates.csv")[1]]
    assert np.allclose(zeta, want, atol=1e-12)
    assert max(zeta) <= zeta_max


def test_every_experiment_reports_each_csv_once(tmp_path, capsys):
    cfg = write_config(tmp_path, fast_search("""\
m = 20
m_values = 20
fairness_m_values = 20
rate_vs_m_values = 4, 20
fig_tau_step = 0.01
fig_alpha_step = 0.02
fig_rho_step = 0.02
fig_coarse_factor = 2
contour_tau_max = 0.02
contour_alpha_max = 0.04
large_k_users = 500
"""))
    for experiment in ("optimize", "table1", "contour", "rho-sweep", "rate-vs-m",
                       "fairness", "mc-validate", "large-k"):
        out = tmp_path / experiment
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 0, experiment
        wrote = re.findall(r"^wrote (.+) \((\d+) rows\)$", capsys.readouterr().out, re.M)
        names = sorted(os.listdir(out))
        csvs = [n for n in names if n.endswith(".csv")]
        assert sorted(os.path.basename(path) for path, _ in wrote) == csvs, experiment
        for path, n_rows in wrote:
            assert os.path.dirname(path) == str(out)
            assert int(n_rows) == len(read_csv(path)[1]), path
        first = os.path.basename(wrote[0][0])
        assert [n for n in names if n.endswith(".json")] == [first[:-4] + ".json"], experiment
        sidecar = read_sidecar(wrote[0][0])
        assert sidecar["csv"] == first and sidecar["experiment"] == experiment
    assert sidecar["c1_csv"] == "large_k_c1.csv"


def test_parser_is_built_once_and_each_call_parses_afresh(tmp_path):
    """main builds its parser once per process; a flag given to one call
    does not carry over to the next, which reads the default again."""
    assert cli._build_parser() is cli._build_parser()
    for argv, m in ((["--m", "50"], "50"), ([], "200")):
        out = tmp_path / m
        assert main(["rho-sweep", *argv, "--out", str(out)]) == 0
        assert read_sidecar(str(out / "rho_sweep.csv"))["spec"]["m"] == int(m)
