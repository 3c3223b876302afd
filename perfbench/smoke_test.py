#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload run.py knows (the ones
BENCHMARK.json gates and the ones it does not), untraced and traced, for a
very short run. Asserts that each run passes its correctness checks and
prints every metric BENCHMARK.json names, with its unit.

Usage (from the repository root): python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own workload table)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in run.WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "7",
                   "--seconds", SECONDS, "--trace", trace]
            before = len(failures)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            where = "%s trace=%s" % (workload, trace)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append("%s: no result (exit %d)\n%s"
                                % (where, proc.returncode, proc.stderr[-2000:]))
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                failures.append("%s: correctness checks failed\n%s"
                                % (where, "\n".join(lines[:-1])))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: unexpected keys %s" % (where, sorted(result)))
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    failures.append("%s: %s missing" % (where, metric["name"]))
                elif got.get("unit") != metric["unit"] or not isinstance(
                        got.get("value"), (int, float)):
                    failures.append("%s: %s printed as %s" % (where, metric["name"], got))
            extra = set(result["metrics"]) - {m["name"] for m in spec[section]}
            if extra:
                failures.append("%s: metrics not in BENCHMARK.json: %s"
                                % (where, sorted(extra)))
            print("%-34s %s" % (where, "ok" if len(failures) == before else "FAILED"), flush=True)
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
