"""Write the reference outputs the benchmark checks every op against.

    python3 bench/make_refs.py [workload ...]

Run from the repository root.  Runs one pass of each named workload (all by
default) for every workload seed and stores what each op wrote in
``bench/refs/<workload>.json.xz``.  Regenerate only when a change is meant
to alter the outputs, and say so where the change is described.
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import worker  # noqa: E402
from workloads import N_SEEDS, ROOT, SRC_DIR, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    workloads = (argv if argv is not None else sys.argv[1:]) or sorted(WORKLOADS)
    os.chdir(ROOT)
    sys.path.insert(0, SRC_DIR)
    cli = worker._import_program()
    for workload in workloads:
        refs = {}
        for seed in range(N_SEEDS):
            with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_refs-") as tmp:
                pas = worker.run_pass(cli, workload, seed, tmp)
                bad = [op for op in pas["ops"] if op["rc"] != 0 or op["error"]]
                if bad:
                    print(f"{workload} seed {seed}: failed ops {bad}", file=sys.stderr)
                    return 1
                refs[seed] = {op["op"]: check.read_outputs(os.path.join(tmp, op["op"]))
                              for op in pas["ops"]}
            print(f"{workload} seed {seed}: {pas['wall_s']:.1f} s", flush=True)
        print(f"wrote {check.save_refs(workload, refs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
