"""Tests of the benchmark's own code.

    python3 bench/selftest.py

Run from anywhere; takes a few seconds.  The file name keeps it out of the
repository's pytest collection, which is the program's tier-1 suite.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import CONFIG_DIR, ROOT, SRC_DIR, WORKLOADS, op_argv, op_name  # noqa: E402

sys.path.insert(0, SRC_DIR)

from wetmm import cli  # noqa: E402


def _perturb_10th_digit(text: str) -> str:
    """The number with its 10th significant digit changed by one."""
    digits = format(float(text), ".9e")  # d.ddddddddde±xx: 10 significant digits
    mantissa, exp = digits.split("e")
    last = int(mantissa[-1])
    return f"{mantissa[:-1]}{(last + 1) % 10 if last < 9 else last - 1}e{exp}"


class SelfTime(unittest.TestCase):
    def setUp(self):
        self.clock = [0.0]
        self._saved = tracing.perf_counter
        tracing.perf_counter = lambda: self.clock[0]

    def tearDown(self):
        tracing.perf_counter = self._saved

    def tick(self, dt):
        self.clock[0] += dt

    def test_nested_call(self):
        t = tracing.Tracer()

        def inner():
            self.tick(5.0)

        inner = t.wrap("layer.inner", inner)

        def outer():
            self.tick(1.0)
            inner()
            self.tick(2.0)
            inner()
            self.tick(3.0)

        outer = t.wrap("layer.outer", outer)
        t.begin_command("p0/0-cmd")
        outer()
        stats = t.summary()
        self.assertEqual(stats["layer.outer"]["calls"], 1)
        self.assertEqual(stats["layer.outer"]["total_s"], 16.0)
        self.assertEqual(stats["layer.outer"]["self_s"], 6.0)
        self.assertEqual(stats["layer.inner"]["calls"], 2)
        self.assertEqual(stats["layer.inner"]["self_s"], 10.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.jsonl")
            t.write_jsonl(path)
            with open(path, encoding="utf-8") as fh:
                spans = [json.loads(line) for line in fh]
        self.assertEqual([s["parent"] for s in spans], [-1, 0, 0])
        self.assertEqual({s["command"] for s in spans}, {"p0/0-cmd"})
        self.assertEqual((spans[0]["start"], spans[0]["end"]), (0.0, 16.0))

    def test_failed_call_still_records_its_span(self):
        t = tracing.Tracer()

        def boom():
            self.tick(1.0)
            raise RuntimeError("boom")

        boom = t.wrap("layer.boom", boom)
        with self.assertRaises(RuntimeError):
            boom()
        self.assertEqual(t.summary()["layer.boom"]["self_s"], 1.0)


class HostSpeed(unittest.TestCase):
    def test_scale_is_relative_to_the_reference_probe(self):
        ref = hostspeed.REF_PROBE_S
        self.assertAlmostEqual(hostspeed.scale(10.0, [ref, ref]), 10.0)
        self.assertAlmostEqual(hostspeed.scale(10.0, [2 * ref, 2 * ref]), 5.0)

    def test_sampler_probes_while_started_and_restores_the_handler(self):
        import signal
        import time

        saved = signal.getsignal(signal.SIGALRM)
        sampler = hostspeed.Sampler(0.01)
        t0 = time.perf_counter()
        sampler.start()
        try:
            while time.perf_counter() - t0 < 0.2:
                sum(range(1000))
        finally:
            sampler.stop()
        t1 = time.perf_counter()
        self.assertIs(signal.getsignal(signal.SIGALRM), saved)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        probes = sampler.between(t0, t1)
        self.assertGreater(len(probes), 3)
        self.assertEqual(len(probes), len(sampler.samples))
        self.assertTrue(all(p > 0 for p in probes))
        self.assertEqual(sampler.between(t1, t1 + 1), [])


class Install(unittest.TestCase):
    def test_rebinds_everywhere_and_restores(self):
        import wetmm.montecarlo
        import wetmm.sysmodel

        original = wetmm.sysmodel.trial_rng
        runner = cli._RUNNERS["optimize"]
        t = tracing.Tracer()
        uninstall = tracing.install(t)
        try:
            self.assertIs(wetmm.sysmodel.trial_rng, cli.trial_rng)
            self.assertIs(wetmm.montecarlo.trial_rng.__wrapped__, original)
            self.assertIs(cli._RUNNERS["optimize"], cli.run_optimize)
            self.assertIs(cli.run_optimize.__wrapped__, runner)
            wetmm.sysmodel.trial_rng(1, 2)
            self.assertEqual(t.summary()["sysmodel.trial_rng"]["calls"], 1)
        finally:
            uninstall()
        self.assertIs(wetmm.montecarlo.trial_rng, original)
        self.assertIs(cli._RUNNERS["optimize"], runner)


class Checker(unittest.TestCase):
    CSV = "m,rate,n_evaluations\n200,16.10031444,1000\n"

    def test_perturbed_10th_digit_is_flagged(self):
        bad = self.CSV.replace("16.10031444", _perturb_10th_digit("16.10031444"))
        self.assertNotEqual(bad, self.CSV)
        errors, _ = check.compare({"optimize.csv": bad}, {"optimize.csv": self.CSV})
        self.assertEqual(len(errors), 1)
        self.assertIn("optimize.csv: row 1 column 'rate'", errors[0])

    def test_same_value_other_spelling_passes_and_work_is_counted(self):
        good = "m,rate,n_evaluations\n200,1.610031444e1,999\n"
        errors, work = check.compare({"optimize.csv": good}, {"optimize.csv": self.CSV})
        self.assertEqual(errors, [])
        self.assertEqual(work, {"n_evaluations": 999})

    def test_sidecar_ignores_out_dir_and_flags_values(self):
        want = check.normalise("a.json", json.dumps({"spec": {"out_dir": "x", "p": 0.123456789}}))
        same = check.normalise("a.json", json.dumps({"spec": {"out_dir": "y", "p": 0.123456789}}))
        moved = check.normalise("a.json", json.dumps({"spec": {"out_dir": "y", "p": 0.1234567891}}))
        self.assertEqual(check.compare({"a.json": same}, {"a.json": want})[0], [])
        self.assertEqual(check.compare({"a.json": moved}, {"a.json": want})[0],
                         ["a.json: key spec.p: got 0.1234567891, want 0.123456789"])

    def test_missing_and_extra_files(self):
        errors, _ = check.compare({"x.csv": self.CSV}, {"y.csv": self.CSV})
        self.assertEqual(errors, ["x.csv: not in the reference", "y.csv: not written"])

    def test_op_against_stored_and_perturbed_reference(self):
        refs = check.load_refs("tables")[0]
        argv = WORKLOADS["tables"][3]
        name = op_name(3, argv)
        with tempfile.TemporaryDirectory() as tmp:
            self.assertEqual(cli.main(op_argv(argv, 0, os.path.join(tmp, name))), 0)
            ops = [{"op": name, "rc": 0, "error": None}]
            self.assertEqual(run.check_pass({"dir": tmp, "ops": ops}, refs), [])
            self.assertFalse(ops[0]["failed"])
            lines = refs[name]["large_k_rates.csv"].split("\n")
            zeta, rate = lines[3].split(",")
            lines[3] = f"{zeta},{_perturb_10th_digit(rate)}"
            refs[name]["large_k_rates.csv"] = "\n".join(lines)
            failures = run.check_pass({"dir": tmp, "ops": ops}, refs)
        self.assertTrue(ops[0]["failed"])
        self.assertEqual(len(failures), 1)
        self.assertIn("large_k_rates.csv: row 3 column 'rate'", failures[0])


class Workloads(unittest.TestCase):
    def test_every_argv_and_config_key_parses(self):
        parser = cli._build_parser()
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            for workload, commands in WORKLOADS.items():
                for i, argv in enumerate(commands):
                    with self.subTest(workload=workload, op=i):
                        args = parser.parse_args(op_argv(argv, 7, "out"))
                        spec = cli._resolve_spec(args)
                        self.assertEqual(spec.master_seed, 7)
        finally:
            os.chdir(cwd)
        for name in os.listdir(CONFIG_DIR):
            with self.subTest(config=name):
                self.assertTrue(cli.load_config(os.path.join(CONFIG_DIR, name)))

    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
