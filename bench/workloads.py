"""The benchmark's workloads: ordered lists of ``wetmm`` command lines.

One pass of a workload runs its commands in order through
``wetmm.cli.main(argv)``, the entry the tests use.  An op is one command of
one pass.  Each op writes into its own output directory, so no op overwrites
another op's files.

The benchmark's ``--seed n`` selects workload seed ``n % N_SEEDS``, which is
passed to every command as ``--seed``.  Reference outputs are stored for each
of those seeds.
"""

from __future__ import annotations

import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
CONFIG_DIR = os.path.join(BENCH_DIR, "configs")
N_SEEDS = 16

# Config keys that have no CLI flag live in files next to this module; the
# argv below names them relative to the repository root.
_FIG = ["--config", "bench/configs/fig_lattice.conf"]
_SIMPLEX = ["--config", "bench/configs/simplex.conf"]

WORKLOADS = {
    # grid_search_p1 is ~99.8% of a pass and there are no Monte Carlo frames.
    "search": [
        ["optimize", "--m", "200"],
        ["optimize", "--m", "200", "--detector", "mrc"],
        ["optimize", "--m", "200", "--system", "opmm"],
        ["optimize", "--m", "200", *_SIMPLEX],
        ["rate-vs-m"],
    ],
    # Frames, channel draws and the pilot path dominate; M spans 25..1000.
    "montecarlo": [
        ["mc-validate", "--trials", "3000", "--m", "25", *_FIG],
        ["mc-validate", "--trials", "3000", "--m", "200", "--detector", "mrc", *_FIG],
        ["mc-validate", "--trials", "3000", "--m", "1000", *_FIG],
        ["fairness", "--trials", "1000"],
    ],
    # The paper-reproduction mix: search, Monte Carlo, dense maps, big CSVs.
    "tables": [
        ["table1"],
        ["contour"],
        ["rho-sweep"],
        ["large-k"],
    ],
}


def workload_seed(seed: int) -> int:
    """Workload seed for the benchmark's ``--seed``; references exist for each."""
    return seed % N_SEEDS


def op_name(index: int, argv: list) -> str:
    """Stable name of the index-th command of a workload, e.g. ``3-optimize``."""
    return f"{index}-{argv[0]}"


def op_argv(argv: list, seed: int, out_dir: str) -> list:
    """Full argv of one op: the workload's command plus seed and output dir."""
    return [*argv, "--seed", str(seed), "--out", out_dir]
