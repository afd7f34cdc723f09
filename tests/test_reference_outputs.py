"""Every benchmark command still writes its stored reference outputs.

Each workload of ``bench/workloads.py`` runs through ``wetmm.cli.main`` at
workload seed 3, and each op's files are checked against
``bench/refs/<workload>.json.xz`` by ``bench/check.py``'s rule: the same
text, or the same numbers to 10 significant digits.
"""

import importlib.util
import os

import pytest

from wetmm.cli import main

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SEED = 3


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_matches_reference_outputs(workload, tmp_path, monkeypatch, capsys):
    # the workloads name their config files relative to the repository root
    monkeypatch.chdir(workloads.ROOT)
    refs = check.load_refs(workload)[SEED]
    errors = []
    for index, argv in enumerate(workloads.WORKLOADS[workload]):
        op = workloads.op_name(index, argv)
        out = str(tmp_path / op)
        assert main(workloads.op_argv(argv, SEED, out)) == 0, capsys.readouterr().err
        errors += [f"{op}: {e}" for e in check.compare(check.read_outputs(out), refs[op])[0]]
    assert not errors, "\n".join(errors[:20])
