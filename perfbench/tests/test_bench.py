"""The benchmark's own tests, at smoke sizes.

Run from the repository root (builds like run.py does):

    python3 -m unittest discover -s perfbench/tests -v

The Rust unit tests of the benchmark binary run with
`cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# explain_dense and serve_mixed run from run.py but are not in BENCHMARK.json
# (README.md says why); their smoke runs check they emit the same tables.
RUNNABLE = WORKLOADS + ["explain_dense", "serve_mixed"]


def run(*args, cwd=ROOT):
    """Runs run.py; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def smoke(workload, trace, *extra):
    return run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke", *extra)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_are_well_formed(self):
        names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for w in BENCH["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class Runs(unittest.TestCase):
    def check_result(self, workload, trace):
        code, result = smoke(workload, trace)
        self.assertEqual(code, 0, f"{workload} --trace {trace} failed")
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        table = BENCH["per_layer" if trace else "end_to_end"]
        expected = {m["name"]: m["unit"] for m in table}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected, f"{workload} --trace {trace}")
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, f"{workload}: {name} reads 0")

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in RUNNABLE:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_result(workload, trace)

    def test_a_perturbed_fingerprint_fails_the_run(self):
        for workload in RUNNABLE:
            with self.subTest(workload=workload):
                code, result = smoke(workload, 0, "--perturb-fingerprint")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env_free = ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                        "--trace", "0"]
            proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                                   *env_free], cwd=tmp, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=180,
                                  env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
