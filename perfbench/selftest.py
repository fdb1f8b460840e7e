#!/usr/bin/env python3
"""Self-test of the pipeline benchmark.

    python3 perfbench/selftest.py

Runs every workload at the tiny scale, traced, once with GCLUS_THREADS=1 and
once with one thread per core, and fails unless

  * every run is correct with no failed operation,
  * every per-layer metric named in BENCHMARK.json is reported, and
  * every count that claims to be deterministic -- the graph.*, decomp.*,
    quotient.*, diameter.* and quality.* counts, artifact.bytes, and the
    stretch and diameter bounds -- is identical across the two thread counts.

It also runs each workload untraced once and checks that every end-to-end
metric is reported.  Takes about a minute after the first build.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC_PREFIXES = ("graph.", "decomp.", "quotient.", "diameter.",
                          "quality.", "artifact.bytes")
TIME_UNITS = {"s", "ms", "ns", "queries/s"}


def run(workload, trace, threads):
    env = dict(os.environ, GCLUS_THREADS=str(threads))
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       text=True, timeout=600)
    if r.returncode != 0:
        sys.exit(f"selftest: {workload} trace={trace} threads={threads} "
                 f"exited with {r.returncode}")
    return json.loads(r.stdout.splitlines()[-1])


def main():
    problems = []
    nproc = os.cpu_count() or 1
    names = {True: [m["name"] for m in SPEC["per_layer"]],
             False: [m["name"] for m in SPEC["end_to_end"]]}
    for w in (w["name"] for w in SPEC["workloads"]):
        results = {t: run(w, 1, t) for t in (1, nproc)}
        results["e2e"] = run(w, 0, nproc)
        for key, res in results.items():
            traced = key != "e2e"
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{w} [{key}]: correct={res['correct']} "
                                f"failed={res['failed']}")
            missing = set(names[traced]) - set(res["metrics"])
            if missing:
                problems.append(f"{w} [{key}]: missing {sorted(missing)}")
        one, many = results[1]["metrics"], results[nproc]["metrics"]
        checked = 0
        for name, m in sorted(one.items()):
            if not name.startswith(DETERMINISTIC_PREFIXES):
                continue
            if m["unit"] in TIME_UNITS:
                continue
            checked += 1
            other = many.get(name, {}).get("value")
            if other != m["value"]:
                problems.append(f"{w}: {name} = {m['value']} at 1 thread, "
                                f"{other} at {nproc}")
        print(f"{w}: {checked} deterministic counts compared at 1 and "
              f"{nproc} threads")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
