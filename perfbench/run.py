#!/usr/bin/env python3
"""Runs one workload of the end-to-end pipeline benchmark.

    python3 perfbench/run.py --workload road-build --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The script builds the benchmark
binary from source into .bench_build/perfbench (incremental after the first
run), generates the workload's input graph unless a cached copy exists in
.bench_cache/, runs the workload in a fresh process and prints that
process's report; the last line of stdout is the result object.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
CACHE_DIR = ROOT / ".bench_cache"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench"

WORKLOADS = ("road-build", "road-serve")
CACHE_BUDGET_BYTES = 3 << 30
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT / 'src'}; run from a checkout")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
           "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def digest(paths):
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:12]


def sources(*patterns):
    return [p for pat in patterns for p in ROOT.glob(pat) if p.is_file()]


def entry(name):
    """A cache entry directory; touching it marks it recently used."""
    d = CACHE_DIR / name
    if d.is_dir():
        os.utime(d)
    return d


def evict(keep):
    """Drops least recently used entries until the cache fits its budget."""
    entries = sorted((d for d in CACHE_DIR.iterdir() if d.is_dir()),
                     key=lambda d: d.stat().st_mtime)
    size = {d: sum(f.stat().st_size for f in d.iterdir()) for d in entries}
    total = sum(size.values())
    for d in entries:
        if total <= CACHE_BUDGET_BYTES:
            break
        if d not in keep:
            shutil.rmtree(d, ignore_errors=True)
            total -= size[d]


def perfbench(*args):
    """Runs a helper subcommand to completion; returns its wall time."""
    t0 = time.monotonic()
    try:
        r = subprocess.run([str(BINARY), *args], stdout=sys.stderr,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {args[0]} timed out")
    if r.returncode != 0:
        fail(f"perfbench {args[0]} exited with {r.returncode}")
    return time.monotonic() - t0


def inputs(workload, seed, scale):
    """Returns (edges, csr, orc) paths, generating what the cache lacks.

    Edge lists are keyed by seed, scale and a digest of the generator and
    writer sources; both workloads share them.  The serve workload's
    published CSR and artifact are keyed by workload, seed, scale and a
    digest of the whole library, since any library change can change the
    oracle."""
    gen_version = digest(sources("src/graph/generators.*", "src/graph/io.*",
                                 "src/graph/builder.*", "perfbench/main.cpp"))
    lib_version = digest(sources("src/**/*.cpp", "src/**/*.hpp",
                                 "perfbench/*.cpp", "perfbench/*.hpp"))
    CACHE_DIR.mkdir(exist_ok=True)
    keep = []
    gen_dir = entry(f"road-s{seed}-{scale}-g{gen_version}")
    keep.append(gen_dir)
    edges = gen_dir / "edges.txt"
    if edges.exists():
        print(f"input: cached {gen_dir.name}")
    else:
        gen_dir.mkdir(exist_ok=True)
        s = perfbench("gen", "--scale", scale, "--seed", str(seed),
                      "--out", str(edges))
        print(f"input: generated {gen_dir.name} in {s:.3f} s (not in any metric)")
    csr = orc = None
    if workload == "road-serve":
        art_dir = entry(f"{workload}-s{seed}-{scale}-a{lib_version}")
        keep.append(art_dir)
        csr, orc = art_dir / "graph.csr2", art_dir / "oracle.orc"
        if csr.exists() and orc.exists():
            print(f"artifact: cached {art_dir.name}")
        else:
            art_dir.mkdir(exist_ok=True)
            s = perfbench("publish", "--scale", scale, "--seed", str(seed),
                          "--edges", str(edges), "--csr", str(csr),
                          "--orc", str(orc))
            print(f"artifact: published {art_dir.name} in {s:.3f} s "
                  "(not in any metric)")
    evict(keep)
    os.sync()  # write-back of fresh inputs must not overlap the measurement
    return edges, csr, orc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny is for the self-test only")
    a = ap.parse_args()

    build()
    edges, csr, orc = inputs(a.workload, a.seed, a.scale)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{a.workload}-s{a.seed}-{os.getpid()}"
    cmd = [str(BINARY), "run", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--scale", a.scale, "--edges", str(edges), "--workdir", str(workdir)]
    if csr is not None:
        cmd += ["--csr", str(csr), "--orc", str(orc)]
    if a.trace:
        spans = OUT_DIR / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{a.workload}-s{a.seed}-{os.getpid()}.jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"workload exited with {r.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
