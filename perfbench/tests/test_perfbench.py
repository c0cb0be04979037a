"""Tests of the repo benchmark. From the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build the workload binary the way run.py does (into $CARGO_TARGET_DIR
or .bench_build) and run every workload in smoke mode.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (run.py, under test)

SECTIONS = ("serve_schedule", "stream_deltas", "fresh_values")


def load_declaration():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def sections(text):
    """Splits an `inputs` dump into its '# name' sections."""
    out, name = {}, None
    for line in text.splitlines(keepends=True):
        if line.startswith("# "):
            name = line[2:].strip()
            out[name] = ""
        elif name is not None:
            out[name] += line
    return out


def run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)


class InputsTest(unittest.TestCase):
    """The generated inputs are a pure function of the seed."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def dump(self, seed):
        proc = subprocess.run([str(self.binary), "inputs", f"--seed={seed}"],
                              stdout=subprocess.PIPE, check=True, timeout=120)
        return proc.stdout

    def test_same_seed_gives_byte_identical_inputs(self):
        self.assertEqual(self.dump(5), self.dump(5))

    def test_different_seed_gives_different_inputs(self):
        a = sections(self.dump(5).decode("latin-1"))
        b = sections(self.dump(6).decode("latin-1"))
        for name in SECTIONS:
            self.assertTrue(a[name], f"{name} is empty")
            self.assertNotEqual(a[name], b[name], name)
        self.assertNotEqual(set(a["fresh_values"].splitlines()),
                            set(b["fresh_values"].splitlines()))

    def test_fresh_values_are_distinct(self):
        dump = self.dump(5).decode("latin-1")
        fresh = sections(dump)["fresh_values"].splitlines()
        self.assertEqual(len(fresh), len(set(fresh)))


class SmokeTest(unittest.TestCase):
    """A short smoke mode runs all three workloads (serve_zipf too, which
    BENCHMARK.json leaves out), and every declared metric is printed with
    its declared unit."""

    def test_declared_workloads_are_runnable(self):
        declared = {w["name"] for w in load_declaration()["workloads"]}
        self.assertLessEqual(declared, set(run.WORKLOADS))

    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_every_workload_prints_every_end_to_end_metric(self):
        declared = load_declaration()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench("--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", "0", "--smoke")
                result = self.check_result(proc, declared["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_prints_every_per_layer_metric(self):
        declared = load_declaration()
        proc = run_bench("--workload", "serve_zipf", "--seed", "3",
                          "--seconds", "3", "--trace", "1", "--smoke")
        self.check_result(proc, declared["per_layer"])


class MissingProgramTest(unittest.TestCase):
    """Without the program's sources run.py fails without a result."""

    def test_benchmark_files_alone_fail_cleanly(self):
        scratch = run.build_root() / "tests"
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = run_bench("--workload", "offline_tax", "--seed", "1",
                              "--seconds", "1", "--trace", "0",
                              cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
