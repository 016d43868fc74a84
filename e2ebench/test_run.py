#!/usr/bin/env python3
"""Tests of the benchmark's gate and failure accounting.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

A stand-in diablo_run (a short Python script) plays a run that panics
and a run whose fingerprint drifts from its repeats; nothing is built.
"""

import os
import stat
import subprocess
import sys
import tempfile
import textwrap
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Writes an artifact like diablo_run's; "mode" in its directory picks
# the behaviour: ok, panic (full runs abort) or drift (the third full
# run reports another fingerprint).
FAKE = textwrap.dedent("""\
    #!/usr/bin/env python3
    import json, os, sys
    here = os.path.dirname(os.path.abspath(__file__))
    args = sys.argv[1:]
    mode = open(os.path.join(here, "mode")).read().strip()
    calls = os.path.join(here, "calls")
    n = int(open(calls).read()) if os.path.exists(calls) else 0
    open(calls, "w").write(str(n + 1))
    setup = "mc.requests=0" in args
    if mode == "panic" and not setup:
        sys.stderr.write("memcached: 1984 nodes\\n"
                         "panic: McExperiment: deadlock\\n")
        sys.exit(134)
    art = {
        "status": "ok",
        "fingerprint": "0xbad" if mode == "drift" and n == 5 else "0x1",
        "engine": {"executed_events": 10, "workers": 1},
        "results": {"requests_completed": 0 if setup else 185600,
                    "elapsed_us": 2e6},
        "latencies": {"latency_us": {"fingerprint": "0x2"}},
        "counters": {},
    }
    with open(args[args.index("--json") + 1], "w") as f:
        json.dump(art, f)
""")


class FakeBench(run.Bench):
    """Runs the stand-in directly: it needs no peak-RSS measurement, so
    these tests need no build."""

    def __init__(self, root, mode):
        super().__init__()
        self.runs = root
        self.diablo_run = os.path.join(root, "diablo_run")
        with open(self.diablo_run, "w") as f:
            f.write(FAKE)
        os.chmod(self.diablo_run, stat.S_IRWXU)
        with open(os.path.join(root, "mode"), "w") as f:
            f.write(mode)

    def run_child(self, argv, out_path, err_path):
        t0 = time.perf_counter()
        with open(out_path, "w") as out, open(err_path, "w") as err:
            code = subprocess.run(argv, stdout=out, stderr=err).returncode
        return code, time.perf_counter() - t0, 1.0


class FailureAccounting(unittest.TestCase):
    def measure(self, mode):
        with tempfile.TemporaryDirectory() as d:
            records = []
            metrics = run.measure_e2e(FakeBench(d, mode),
                                      run.WORKLOADS["memcached_2k"],
                                      seed=7, seconds=0, records=records)
            return records, run.summary(records, metrics)

    def test_passing_runs(self):
        records, res = self.measure("ok")
        self.assertTrue(res["correct"])
        self.assertEqual(res["attempted"], 2 * run.MIN_REPEATS)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(res["metrics"]["slowdown"]["unit"], "s/s")
        self.assertTrue(all("seed=7" in r["argv"] for r in records))

    def test_nonzero_exit_fails_and_is_not_retried(self):
        records, res = self.measure("panic")
        self.assertFalse(res["correct"])
        self.assertEqual(res["attempted"], 2)  # one set-up, one full run
        self.assertEqual(res["failed"], 1)
        self.assertIn("exit 134", records[1]["error"])
        self.assertIn("panic: McExperiment: deadlock", records[1]["error"])
        self.assertIsNone(res["metrics"]["wall_s"]["value"])

    def test_fingerprint_drift_fails_the_odd_repeat(self):
        records, res = self.measure("drift")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        bad = [r for r in records if r["error"]]
        self.assertEqual(bad[0]["fingerprint"], "0xbad")
        self.assertIn("differs from the repeats", bad[0]["error"])


class Gates(unittest.TestCase):
    ART = {"status": "ok", "results": {"requests_completed": 20},
           "counters": {}}

    def test_artifact_gate(self):
        self.assertIsNone(run.gate_artifact(self.ART, 20))
        self.assertIn("completed 20 + lost 0 of 40",
                      run.gate_artifact(self.ART, 40))
        lossy = dict(self.ART, counters={"app": {"udp_lost": 2}})
        self.assertIsNone(run.gate_artifact(lossy, 22))
        self.assertIsNotNone(run.gate_artifact(lossy, 20))
        partial = dict(self.ART, status="interrupted")
        self.assertIn("interrupted", run.gate_artifact(partial, 20))
        self.assertEqual(run.gate_artifact(None, 20), "no artifact")

    def test_traced_run_must_reproduce_untraced_results(self):
        trace = {"results": {"apps.requests": 20, "elapsed_us": 5.0,
                             "latency_fingerprint": "0x2"},
                 "counters": {"core.events": 10}}
        art = {"events": 10, "requests": 20, "elapsed_us": 5.0,
               "latency_fp": "0x2"}
        self.assertIsNone(run.same_sim_results(trace, art))
        art["events"] = 11
        self.assertIn("core.events 10 != 11",
                      run.same_sim_results(trace, art))

    def test_self_time_subtracts_children(self):
        spans = [{"name": "run", "parent": -1, "start_ns": 0,
                  "end_ns": 10_000_000_000},
                 {"name": "fame.window", "parent": 0, "start_ns": 0,
                  "end_ns": 3_000_000_000},
                 {"name": "fame.window", "parent": 0,
                  "start_ns": 3_000_000_000, "end_ns": 7_000_000_000}]
        t = run.self_times(spans)
        self.assertAlmostEqual(t["fame.window"], 7.0)
        self.assertAlmostEqual(t["run"], 3.0)


if __name__ == "__main__":
    unittest.main()
