#!/usr/bin/env python3
"""Tests of the benchmark's command line and output check.

    python3 perfbench/test_run.py

The output-check tests build the harness on first use (about a minute).
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def invoke(*args, cwd=ROOT):
    """Runs the benchmark command from the root of the checkout at `cwd`."""
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class CommandLineErrors(unittest.TestCase):
    """Every bad command line exits 2 with a named error and no result."""

    def assert_usage_error(self, args, needle):
        done = invoke(*args)
        self.assertEqual(done.returncode, 2, done.stderr)
        self.assertIn("error", done.stderr)
        self.assertIn(needle, done.stderr)
        self.assertEqual(done.stdout, "")

    def test_help(self):
        self.assert_usage_error(["--help"], "help requested")

    def test_unknown_workload(self):
        self.assert_usage_error(["--workload", "nope"], "invalid choice")

    def test_unknown_flag(self):
        self.assert_usage_error(["--workload", "paper-tables", "--rows", "4"],
                                "unrecognized arguments")

    def test_missing_workload(self):
        self.assert_usage_error(["--seed", "3"], "--workload is required")

    def test_malformed_seed(self):
        for seed in ("abc", "1.5", "-3", "", str(2 ** 64)):
            with self.subTest(seed=seed):
                self.assert_usage_error(
                    ["--workload", "paper-tables", "--seed", seed], "seed")

    def test_zero_or_malformed_seconds(self):
        for seconds in ("0", "ten", "-1", "61"):
            with self.subTest(seconds=seconds):
                self.assert_usage_error(
                    ["--workload", "paper-tables", "--seconds", seconds],
                    "seconds")

    def test_zero_steady_count(self):
        self.assert_usage_error(["--workload", "paper-tables", "--steady",
                                 "0"], "steady run count")

    def test_bad_trace_flag(self):
        self.assert_usage_error(["--workload", "paper-tables", "--trace", "2"],
                                "invalid choice")


class OutputCheck(unittest.TestCase):
    """The default seed is checked against perfbench/reference.json."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def last_line(self, done):
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_reference_hashes_match(self):
        done = invoke("--workload", "paper-tables", "--seed", "1",
                      "--seconds", "1")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = self.last_line(done)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        details = json.loads(done.stdout.strip().splitlines()[-2])["details"]
        self.assertTrue(details["hashes"]["reference_checked"])
        self.assertEqual(len(details["hashes"]["ops"]), 32)

    def test_each_mismatching_op_fails(self):
        refs = json.loads(run.REFERENCE.read_text())
        refs["paper-tables.op.0"] = "0" * 16
        refs["paper-tables.op.29"] = "0" * 16
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "reference.json"
            bad.write_text(json.dumps(refs))
            done = subprocess.run(
                [str(self.binary), "--workload", "paper-tables",
                 "--seed", "1", "--seconds", "1", "--trace", "0",
                 "--out", tmp, "--reference", str(bad)],
                capture_output=True, text=True, timeout=170)
        self.assertEqual(done.returncode, 1, done.stderr)
        doc = json.loads(done.stdout)
        self.assertFalse(doc["correct"])
        self.assertEqual(doc["failed"], 2)
        self.assertLess(doc["end_to_end"]["ok_frac"]["value"], 1.0)


class BareDirectory(unittest.TestCase):
    """Without the library sources the benchmark fails and prints nothing."""

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = invoke("--workload", "paper-tables", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
