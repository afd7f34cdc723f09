"""The package's public surface: one tag vocabulary, consistent exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import wetmm
from wetmm.cli import ExperimentSpec
from wetmm.energy import energies
from wetmm.montecarlo import McConfig
from wetmm.optimizer import asymptotic_allocation, grid_search_p1, rate_map
from wetmm.rates import closed_form_sinr

from conftest import benchmark_params

XI = np.array([0.5, 0.5])
ENTRY_POINTS = {
    "closed_form_sinr": lambda p, s, d: closed_form_sinr(p, s, d, 0.0, 0.1, 0.5, XI),
    "grid_search_p1": lambda p, s, d: grid_search_p1(p, s, d, steps=(0.02, 0.02, 0.02)),
    "rate_map": lambda p, s, d: rate_map(p, s, d, 0.0, 0.1, 0.5, XI),
    "asymptotic_allocation": lambda p, s, d: asymptotic_allocation(p, d),
    "energies": lambda p, s, d: energies(p, s, 0.1, 0.5, XI),
    "McConfig": lambda p, s, d: McConfig(system=s, detector=d),
    "ExperimentSpec": lambda p, s, d: ExperimentSpec(system=s, detector=d),
}
# each entry point with each tag it takes
CASES = [(entry, tag) for entry in ENTRY_POINTS for tag in ("system", "detector")
         if (entry, tag) not in {("asymptotic_allocation", "system"), ("energies", "detector")}]


@pytest.mark.parametrize("entry, tag", CASES)
def test_entry_points_reject_unknown_tags(entry, tag):
    tags = {"system": "wetmm", "detector": "zf", tag: "bogus"}
    with pytest.raises(ValueError, match=f"^unknown {tag}: 'bogus'$"):
        ENTRY_POINTS[entry](benchmark_params(10), tags["system"], tags["detector"])


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
