"""Run one workload of the wetmm benchmark and print its metrics.

    python3 bench/run.py --workload search --seed 3 --seconds 40 --trace 0

Run from the repository root.  ``--trace 0`` times the workload with tracing
off and prints the end-to-end metrics; ``--trace 1`` runs one plain pass and
one traced pass in one process, then one traced pass with BLAS pinned to one
thread in another, and prints the per-layer metrics.  Every op's output files
are checked against the stored references.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The end-to-end times are scaled to a reference host speed by the probe of
``hostspeed.py``; the raw times are printed above that line.
The whole result, with the environment it ran in, is also written under
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import hostspeed  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import BENCH_DIR, ROOT, SRC_DIR, WORKLOADS, workload_seed  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
TIME_LIMIT_S = 170.0
N_SETUP = 9
PROBE_INTERVAL_S = 0.25
PIN_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMANDS = tuple(dict.fromkeys(argv[0] for cmds in WORKLOADS.values() for argv in cmds))

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("sysmodel.trial_rng.calls", "count"),
    ("sysmodel.trial_rng.self_s", "s"),
    ("sysmodel.complex_gaussian.calls", "count"),
    ("sysmodel.complex_gaussian.samples", "count"),
    ("sysmodel.complex_gaussian.bytes", "B"),
    ("sysmodel.complex_gaussian.self_s", "s"),
    ("sysmodel.self_s", "s"),
    ("estimation.draw_realization.calls", "count"),
    ("estimation.draw_realization.pilot_calls", "count"),
    ("estimation.draw_realization.self_s", "s"),
    ("estimation.error_variance.calls", "count"),
    ("estimation.error_variance.self_s", "s"),
    ("estimation.make_pilots.calls", "count"),
    ("estimation.self_s", "s"),
    ("energy.harvested_energy_fixedpoint.calls", "count"),
    ("energy.harvested_energy_fixedpoint.self_s", "s"),
    ("energy.beamformer.calls", "count"),
    ("energy.beamformer.self_s", "s"),
    ("energy.self_s", "s"),
    ("rates.closed_form_rate.calls", "count"),
    ("rates.self_s", "s"),
    ("optimizer.grid_search_p1.calls", "count"),
    ("optimizer.grid_search_p1.self_s", "s"),
    ("optimizer.grid_search_p1.p50_s", "s"),
    ("optimizer.grid_search_p1.evaluations", "count"),
    ("optimizer.grid_search_p1.evals_per_s", "1/s"),
    ("optimizer.rate_map.self_s", "s"),
    ("optimizer.rate_vs_rho.self_s", "s"),
    ("optimizer.self_s", "s"),
    ("montecarlo.frames", "count"),
    ("montecarlo.simulate_frame.self_s", "s"),
    ("montecarlo.frames_per_s", "1/s"),
    ("montecarlo.resamples", "count"),
    ("montecarlo.resample_ratio", "ratio"),
    ("montecarlo.self_s", "s"),
    *((f"cli.{command}.wall_s", "s") for command in COMMANDS),
    ("cli.self_s", "s"),
    ("cli.rows_written", "count"),
    ("cli.bytes_written", "B"),
    ("cli.cpu_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("blas1.wall_s", "s"),
]


class BenchError(Exception):
    """The run cannot produce a result."""


def _child_env(extra=None) -> dict:
    return dict(os.environ, PYTHONPATH=SRC_DIR, **(extra or {}))


def _remaining(start: float) -> float:
    left = TIME_LIMIT_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    return left


def measure_setup(start: float, n: int) -> list:
    """Seconds for fresh interpreters to import wetmm.cli, numpy included,
    each timed inside the interpreter between host-speed probes."""
    samples = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "import_time.py")],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=_remaining(start))
        if proc.returncode != 0:
            raise BenchError(f"import wetmm.cli failed:\n{proc.stderr[-2000:]}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        samples.append({"s": sample["import_s"],
                        "scaled_s": hostspeed.scale(sample["import_s"], sample["probes"])})
    return samples


def run_worker(out: str, workload: str, seed: int, start: float, *,
               seconds: float = 0.0, passes=None, traced: int = 0, probe: float = 0.0,
               env=None) -> dict:
    """Run worker.py in a fresh process and return its report."""
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out, "--seconds", str(seconds),
           "--traced", str(traced), "--probe", str(probe)]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    with open(os.path.join(out, "stdout.log"), "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(env), stdout=log,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=_remaining(start))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"workload process passed the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(pas: dict, refs: dict) -> list:
    """Check every op of a pass; fills in its failures, work and output size."""
    failures = []
    pas["rows_written"] = pas["bytes_written"] = 0
    pas["work"] = defaultdict(int)
    for op in pas["ops"]:
        op_dir = os.path.join(pas["dir"], op["op"])
        problems = []
        if op["error"] is not None:
            problems.append(f"raised {op['error'].strip().splitlines()[-1]}")
        elif op["rc"] != 0:
            problems.append(f"exit code {op['rc']}")
        got = check.read_outputs(op_dir) if os.path.isdir(op_dir) else {}
        errors, work = check.compare(got, refs.get(op["op"], {}))
        problems += errors
        for key, value in work.items():
            pas["work"][key] += value
        for name, text in got.items():
            pas["bytes_written"] += os.path.getsize(os.path.join(op_dir, name))
            if name.endswith(".csv"):
                pas["rows_written"] += text.count("\n") - 1
        op["failed"] = bool(problems)
        failures += [f"{os.path.basename(pas['dir'])}/{op['op']}: {p}" for p in problems]
    return failures


def layer_metrics(main: dict, blas1: dict) -> dict:
    """Per-layer metrics from the traced pass, plus trace overhead."""
    plain, traced = main["passes"][0], main["passes"][1]
    funcs, counters = main["functions"], main["counters"]
    layer_self = defaultdict(float)
    for name, stats in funcs.items():
        layer_self[name.split(".")[0]] += stats["self_s"]

    def func(name, key):
        return funcs.get(name, {}).get(key, 0)

    frames = func("montecarlo.simulate_frame", "calls")
    frame_s = func("montecarlo.simulate_frame", "total_s")
    search_s = func("optimizer.grid_search_p1", "total_s")
    samples = counters.get("sysmodel.complex_gaussian.samples", 0)
    evaluations = counters.get("optimizer.grid_search_p1.evaluations", 0)
    resamples = counters.get("montecarlo.resamples", 0)
    cmd_wall = defaultdict(float)
    for op in plain["ops"]:
        cmd_wall[op["argv"][0]] += op["wall_s"]
    special = {
        "sysmodel.complex_gaussian.samples": samples,
        "sysmodel.complex_gaussian.bytes": 16 * samples,
        "estimation.draw_realization.pilot_calls":
            counters.get("estimation.draw_realization.pilot_calls", 0),
        "optimizer.grid_search_p1.evaluations": evaluations,
        "optimizer.grid_search_p1.evals_per_s": evaluations / search_s if search_s else 0.0,
        "montecarlo.frames": frames,
        "montecarlo.frames_per_s": frames / frame_s if frame_s else 0.0,
        "montecarlo.resamples": resamples,
        "montecarlo.resample_ratio": resamples / frames if frames else 0.0,
        "cli.rows_written": traced["rows_written"],
        "cli.bytes_written": traced["bytes_written"],
        "cli.cpu_s": plain["cpu_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.traced_wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.spans": main["spans"],
        "blas1.wall_s": blas1["passes"][0]["wall_s"],
        **{f"cli.{command}.wall_s": cmd_wall[command] for command in COMMANDS},
    }
    metrics = {}
    for name, unit in PER_LAYER:
        head, _, key = name.rpartition(".")
        if name in special:
            value = special[name]
        elif head in LAYERS and key == "self_s":
            value = layer_self[head]
        else:
            value = func(head, key)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _counts(report: dict) -> dict:
    calls = {name: stats["calls"] for name, stats in report["functions"].items()}
    return {**calls, **report["counters"]}


def _git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
        return lines[1]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC_DIR)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC_DIR).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform(),
            "loadavg_start": os.getloadavg(), "git_commit": _git_commit(),
            "source_sha256": _source_sha256()}


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC_DIR, "wetmm", "cli.py")):
        raise BenchError(f"no program to measure: {SRC_DIR}/wetmm/cli.py is missing")
    wseed = workload_seed(seed)
    try:
        refs = check.load_refs(workload)[wseed]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference outputs for {workload} seed {wseed}: {exc!r}") from exc
    env = environment()
    run_dir = os.path.join(OUT_DIR, f"{workload}-trace{int(traced)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    result = {"workload": workload, "seed": seed, "workload_seed": wseed,
              "seconds": seconds, "trace": int(traced), "env": env}
    if traced:
        main = run_worker(os.path.join(run_dir, "main"), workload, wseed, start,
                          passes=1, traced=1)
        blas1 = run_worker(os.path.join(run_dir, "blas1"), workload, wseed, start,
                           passes=0, traced=1, env=PIN_ONE_THREAD)
        reports = {"main": main, "blas1": blas1}
    else:
        # Half the setup samples before the workload and half after, so that
        # their median spans the run rather than a few seconds of host speed.
        setup = measure_setup(start, N_SETUP // 2)
        main = run_worker(os.path.join(run_dir, "main"), workload, wseed, start,
                          seconds=seconds, probe=PROBE_INTERVAL_S)
        setup += measure_setup(start, N_SETUP - N_SETUP // 2)
        reports = {"main": main}
        result["setup_samples"] = setup
    failures = []
    for report in reports.values():
        for pas in report["passes"]:
            failures += check_pass(pas, refs)
            shutil.rmtree(pas["dir"])
    if traced:
        if _counts(main) != _counts(blas1):
            failures.append("trace: call counts differ between the two traced passes")
        metrics = layer_metrics(main, blas1)
    else:
        passes = main["passes"]
        metrics = {"wall_s": {"value": statistics.median(p["scaled_s"] for p in passes),
                              "unit": "s"},
                   "setup_s": {"value": statistics.median(s["scaled_s"] for s in setup),
                               "unit": "s"},
                   "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"}}
        result["raw"] = {"wall_s": statistics.median(p["wall_s"] for p in passes),
                         "setup_s": statistics.median(s["s"] for s in setup),
                         "probe_mean_s": statistics.fmean(p["probe_mean_s"] for p in passes)}
    env["loadavg_end"] = os.getloadavg()
    ops = [op for report in reports.values() for pas in report["passes"] for op in pas["ops"]]
    result.update(reports=reports, failures=failures, metrics=metrics,
                  attempted=len(ops), failed=sum(op["failed"] for op in ops))
    result["correct"] = not failures
    return result


def _print_result(workload: str, seed: int, trace: int, result: dict) -> None:
    path = os.path.join(OUT_DIR, "results", f"{workload}-seed{seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    print(f"workload {workload}: ops {result['attempted']}, ops_failed {result['failed']}")
    for key, value in result["reports"]["main"]["passes"][0]["work"].items():
        print(f"  work per pass, not checked: {key} = {value}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in result.get("raw", {}).items():
        print(f"  raw {name} = {value:.6g} s, not scaled to the reference host speed")
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    print(f"blas {json.dumps(result['reports']['main']['env'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            result = run(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        _print_result(workload, args.seed, args.trace, result)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
