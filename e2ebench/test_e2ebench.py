#!/usr/bin/env python3
"""Self-checks of the end-to-end benchmark: determinism and a smoke run.

    python3 e2ebench/test_e2ebench.py      (from the root of a wydb checkout)

* The same seed gives a byte-identical request list (serve workloads) or
  instance set (analyze-large, runtime-farm); another seed gives another.
* The same seed gives identical exact counts: search.states_visited
  (analyze-large), sim.events (runtime-farm) and the outcome mix of the
  single-client guard pass (serve-cold, serve-resubmit).
* A smoke run of every workload, untraced and traced, passes its output
  checks and prints every metric. Each smoke run takes seconds; the whole
  file takes a few minutes, as each traced run also runs the smoke-size
  runs that fill in the layers its workload does not exercise.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BINARY = None


def bench(*args):
    r = subprocess.run([BINARY] + list(args), capture_output=True, text=True,
                       timeout=170)
    return r.returncode, r.stdout


def smoke(workload, seed, trace):
    code, out = bench("--workload", workload, "--seed", str(seed),
                      "--seconds", "2", "--trace", str(trace), "--smoke",
                      "--workdir", os.path.join(run.build_dir(), "test-work"))
    return code, out.strip().splitlines()


def fingerprint(workload, seed):
    code, out = bench("--dump-inputs", "--workload", workload, "--seed",
                      str(seed))
    assert code == 0, out
    return out.strip()


def metric(lines, name):
    return json.loads(lines[-1])["metrics"][name]["value"]


def guard_line(lines):
    return [l for l in lines if l.startswith("guard:")]


class Determinism(unittest.TestCase):
    def test_inputs_repeat_per_seed_and_differ_across_seeds(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(fingerprint(w, 5), fingerprint(w, 5))
                self.assertNotEqual(fingerprint(w, 5), fingerprint(w, 6))

    def test_exact_counts_repeat_per_seed(self):
        exact = {
            "serve-cold": lambda l: guard_line(l),
            "serve-resubmit": lambda l: guard_line(l),
            "analyze-large": lambda l: metric(l, "search.states_visited"),
            "runtime-farm": lambda l: metric(l, "sim.events"),
        }
        for w, count in exact.items():
            with self.subTest(workload=w):
                code1, first = smoke(w, 9, 1)
                code2, second = smoke(w, 9, 1)
                self.assertEqual((code1, code2), (0, 0), "\n".join(first))
                self.assertTrue(count(first))
                self.assertEqual(count(first), count(second))


class Smoke(unittest.TestCase):
    def test_every_workload_end_to_end(self):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        for w in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, lines = smoke(w, 4, trace)
                    self.assertEqual(code, 0, "\n".join(lines[-20:]))
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
