"""Tests of the sweep benchmark's own logic.

    python3 -m unittest discover -s sweepbench

The replay parity test needs the benchmark build (run run.py once
first) and is skipped without it.
"""

import json
import pathlib
import subprocess
import unittest

import run

ROOT = pathlib.Path(__file__).resolve().parent.parent


def metric(name, unit="s", better="lower"):
    return run.Metric(name, unit, better, "")


class MetricNameTest(unittest.TestCase):
    def test_declared_metrics_are_valid_and_measured(self):
        workloads, end_to_end, per_layer = run.load_spec()
        self.assertEqual(sorted(workloads), [run.FIG7, run.REPLAY])
        self.assertIn("setup_s", [m.name for m in end_to_end])
        self.assertTrue(all(m.description for m in end_to_end + per_layer))

    def test_rejects_bad_names(self):
        for name in ("", "_leading", "has space", "slash/name",
                     "colon:name", "x" * 65, "ünïcode"):
            with self.subTest(name=name), self.assertRaises(ValueError):
                run.validate_metrics([metric(name)])

    def test_accepts_letters_digits_underscore_dot_dash(self):
        run.validate_metrics([metric("sim.mem_requests.demand-read"),
                              metric("9lives"), metric("x" * 64)])

    def test_rejects_duplicates_units_and_directions(self):
        with self.assertRaises(ValueError):
            run.validate_metrics([metric("a"), metric("a")])
        with self.assertRaises(ValueError):
            run.validate_metrics([metric("a", unit="sec onds")])
        with self.assertRaises(ValueError):
            run.validate_metrics([metric("a", better="faster")])

    def test_spec_may_declare_only_what_run_py_measures(self):
        spec = json.loads(run.SPEC_PATH.read_text())
        path = run.BUILD_DIR / "test" / "BENCHMARK.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        for key, entry in (
                ("per_layer", {"name": "sim.unmeasured", "unit": "s",
                               "better": "lower"}),
                ("workloads", {"name": "fig7-fanout4", "why": "x"})):
            with self.subTest(key=key):
                path.write_text(json.dumps(
                    dict(spec, **{key: spec[key] + [entry]})))
                with self.assertRaisesRegex(run.BenchError,
                                            entry["name"]):
                    run.load_spec(path)


class FailureAccountingTest(unittest.TestCase):
    IDS = frozenset(("base", "stms"))

    def check(self, returncode=0, run_ids=("base", "stms"),
              model="abc", reference="abc"):
        return run.check_output(returncode, list(run_ids), self.IDS,
                                model, reference)

    def test_each_failure_kind_counts_once(self):
        tally = run.Tally()
        tally.record("clean", self.check())
        tally.record("crash", self.check(returncode=-9))
        tally.record("missing", self.check(run_ids=("base",)))
        tally.record("digest", self.check(model=("r", "d1"),
                                          reference=("r", "d2")))
        self.assertEqual(tally.attempted, 4)
        self.assertEqual(tally.failed, 3)
        self.assertIn("exit code -9", tally.failures[0])
        self.assertIn("missing run ids stms", tally.failures[1])
        self.assertIn("differs", tally.failures[2])

    def test_timed_out_process_is_killed_and_fails(self):
        scratch = run.BUILD_DIR / "test"
        scratch.mkdir(parents=True, exist_ok=True)
        proc = run.run_process(["sleep", "30"], scratch / "none.json",
                               scratch / "sleep.err", timeout=0.2)
        self.assertLess(proc.wall_s, 10)
        self.assertIsNone(proc.output)
        self.assertEqual(self.check(returncode=proc.returncode),
                         "exit code -9")

    def test_a_process_failing_every_check_counts_once(self):
        tally = run.Tally()
        tally.record("all", self.check(returncode=1, run_ids=(),
                                       model="x", reference="y"))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_canonical_report_ignores_timing_only(self):
        report = {"experiment": "fig7", "metrics": {"a": 1.5}}
        timed = dict(report, timing={"wall_s": 3.2})
        self.assertEqual(run.canonical_report(report),
                         run.canonical_report(timed))
        changed = {"experiment": "fig7", "metrics": {"a": 1.25}}
        self.assertNotEqual(run.canonical_report(report),
                            run.canonical_report(changed))


class FoldSweepTest(unittest.TestCase):
    def test_setup_counts_each_trace_once(self):
        # Two runs share web-apache's trace: the one that generated it
        # waited 0.30 s, the other blocked on it for 0.28 s.
        timing = {
            "records": 400, "wall_s": 1.0, "threads": 2,
            "stages": {"acquire_s": 0.63}, "simd_isa": "scalar",
            "runs": [
                {"id": "web-apache/p1.000", "acquire_s": 0.30,
                 "wall_s": 0.9},
                {"id": "web-apache/p0.125", "acquire_s": 0.28,
                 "wall_s": 0.8},
                {"id": "dss-db2/p1.000", "acquire_s": 0.05,
                 "wall_s": 0.1},
            ]}
        proc = run.Proc(0, 1.25, 1.9, 2048, {"timing": timing})
        sweep = run.fold_sweep([proc])
        self.assertAlmostEqual(sweep.setup_acquire_s, 0.35)
        self.assertAlmostEqual(sweep.startup_s, 0.25)
        self.assertAlmostEqual(sweep.longest_run_s, 0.9)
        e2e = sweep.end_to_end()
        self.assertAlmostEqual(e2e["setup_s"], 0.60)
        self.assertAlmostEqual(e2e["records_per_sec"], 400.0)
        self.assertAlmostEqual(e2e["cpu_s_per_mrec"], 1.9 / 400e-6)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 2.0)


@unittest.skipUnless(run.DRIVER.exists() and run.CLIENT.exists(),
                     "needs the benchmark build (run run.py once)")
class ReplayParityTest(unittest.TestCase):
    """Seeded replay inputs are the driver's own traces at its seed."""

    RECORDS = 8192

    def replay(self, args):
        out = run.BUILD_DIR / "test" / "report.json"
        subprocess.run([str(run.DRIVER), "--experiment", "ingest_replay",
                        *args, "--json", str(out), "--no-timing"],
                       check=True, stdout=subprocess.DEVNULL)
        return out.read_bytes()

    def generate(self, seed):
        directory = run.BUILD_DIR / "test" / f"seed-{seed}"
        directory.mkdir(parents=True, exist_ok=True)
        subprocess.run([str(run.CLIENT), "gen", "--seed", str(seed),
                        "--records", str(self.RECORDS), "--out-dir",
                        str(directory), "sci-em3d"], check=True)
        return str(directory / "sci-em3d.stms")

    def test_driver_seed_reproduces_synthetic_replay(self):
        replayed = self.replay(["--trace", self.generate(run.DRIVER_SEED)])
        synthetic = self.replay(["workload=sci-em3d",
                                 f"records={self.RECORDS}"])
        self.assertEqual(replayed, synthetic)

    def test_other_seed_is_repeatable_and_different(self):
        trace = self.generate(7)
        first = self.replay(["--trace", trace])
        self.assertEqual(first, self.replay(["--trace", trace]))
        self.assertNotEqual(
            first, self.replay(["--trace", self.generate(run.DRIVER_SEED)]))


if __name__ == "__main__":
    unittest.main()
