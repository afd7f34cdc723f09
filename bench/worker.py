"""One workload process: runs passes of a workload and reports their timings.

Run from the repository root with ``src`` on ``PYTHONPATH``; ``run.py``
starts it as a fresh process.  It runs plain passes until ``--passes`` are
done or another pass would end after ``--seconds``, then ``--traced`` passes
with the layer tracer installed.  With ``--probe`` the plain passes run
under the host-speed sampler of ``hostspeed.py``: each pass's time then
excludes the probes and is also reported scaled to the reference host speed
(``scaled_s``).  Peak memory is read after the first pass,
so it does not grow with the number of passes that fit.  The worker checks
nothing itself: the parent compares the files each op wrote against the
references after the process has ended.  Its report goes to
``<out>/report.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import SRC_DIR, WORKLOADS, op_argv, op_name  # noqa: E402


def _import_program():
    """Import wetmm from this checkout's ``src``, nowhere else."""
    import wetmm.cli

    where = os.path.realpath(wetmm.cli.__file__)
    if not where.startswith(os.path.realpath(SRC_DIR) + os.sep):
        raise ImportError(f"wetmm imported from {where}, not from {SRC_DIR}")
    return wetmm.cli


def blas_info() -> dict:
    """BLAS name and version from numpy's build, and its live thread count."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_pass(cli, workload: str, seed: int, out_dir: str, tracer=None, sampler=None) -> dict:
    """Run one pass; each op writes into ``out_dir/<op>``."""
    probed = sampler.between if sampler is not None else lambda t0, t1: []
    ops = []
    c0, t0 = time.process_time(), time.perf_counter()
    for i, argv in enumerate(WORKLOADS[workload]):
        name = op_name(i, argv)
        full = op_argv(argv, seed, os.path.join(out_dir, name))
        if tracer is not None:
            tracer.begin_command(f"{os.path.basename(out_dir)}/{name}")
        err = None
        s = time.perf_counter()
        try:
            rc = cli.main(full)
        except Exception:  # an op that raises is a failed op, not a failed run
            rc, err = None, traceback.format_exc(limit=3)
        e = time.perf_counter()
        ops.append({"op": name, "argv": full, "rc": rc, "error": err,
                    "wall_s": e - s - sum(probed(s, e))})
    c1, t1 = time.process_time(), time.perf_counter()
    probes = probed(t0, t1)
    pas = {"dir": out_dir, "traced": tracer is not None, "ops": ops,
           "wall_s": t1 - t0 - sum(probes), "cpu_s": c1 - c0 - sum(probes)}
    if sampler is not None:
        probes = probes or [hostspeed.probe()]
        pas.update(probes=len(probes), probe_mean_s=statistics.fmean(probes),
                   scaled_s=hostspeed.scale(pas["wall_s"], probes))
    return pas


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="workload seed")
    ap.add_argument("--out", required=True, help="directory for outputs and report")
    ap.add_argument("--seconds", type=float, default=0.0, help="budget for plain passes")
    ap.add_argument("--passes", type=int, default=1 << 30, help="most plain passes")
    ap.add_argument("--traced", type=int, default=0, help="traced passes after them")
    ap.add_argument("--probe", type=float, default=0.0,
                    help="seconds between host-speed probes in plain passes; 0 for none")
    args = ap.parse_args(argv)

    cli = _import_program()
    passes = []
    peak_rss_mb = None
    sampler = hostspeed.Sampler(args.probe) if args.probe > 0 else None
    if sampler is not None:
        sampler.start()
    try:
        start = time.perf_counter()
        while len(passes) < args.passes:
            if passes:
                typical = statistics.median(p["wall_s"] for p in passes)
                if time.perf_counter() - start + typical > args.seconds:
                    break
            passes.append(run_pass(cli, args.workload, args.seed,
                                   os.path.join(args.out, f"p{len(passes)}"), sampler=sampler))
            peak_rss_mb = peak_rss_mb or _peak_rss_mb()
    finally:
        if sampler is not None:
            sampler.stop()
    report = {"env": blas_info(), "passes": passes}
    if args.traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        for _ in range(args.traced):
            passes.append(run_pass(cli, args.workload, args.seed,
                                   os.path.join(args.out, f"p{len(passes)}"), tracer))
        functions = tracer.summary()
        for stats in functions.values():
            stats["p50_s"] = statistics.median(stats.pop("durations"))
        report.update(functions=functions, counters=dict(tracer.counters), spans=len(tracer))
        tracer.write_jsonl(os.path.join(args.out, "spans.jsonl"))
    report["peak_rss_mb"] = peak_rss_mb or _peak_rss_mb()
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
