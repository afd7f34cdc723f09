"""Time ``import wetmm.cli`` in this fresh interpreter, between host probes.

    PYTHONPATH=src python3 bench/import_time.py

``run.py`` starts it as a fresh process for each ``setup_s`` sample.  It
probes the host speed just before and just after the import, in the same
process, and prints one JSON object: ``{"import_s": ..., "probes": [...]}``.
Only ``hostspeed`` is imported before ``wetmm.cli``, and it needs no module
that the import would load otherwise.
"""

import time

import hostspeed

N_PROBES = 5

before = [hostspeed.probe() for _ in range(N_PROBES)]
t0 = time.perf_counter()
import wetmm.cli  # noqa: E402,F401
import_s = time.perf_counter() - t0
after = [hostspeed.probe() for _ in range(N_PROBES)]

import json  # noqa: E402  (after the import, which loads it too)

print(json.dumps({"import_s": import_s, "probes": before + after}))
