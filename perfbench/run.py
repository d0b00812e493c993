#!/usr/bin/env python3
"""The repo benchmark, as one command.

Builds perfbench/ (the cobra library from src/ plus the benchmark binary)
into .bench_build/perfbench, runs one workload, prints the binary's report
and then, as the last line of standard output, one JSON object:

  {"correct": true, "attempted": 64, "failed": 0,
   "metrics": {"solve_cpu_s": {"value": 6.41, "unit": "s"}, ...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Usage, from any directory:

  python3 perfbench/run.py --workload trials_torus --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload mis_rmat --seed 7 --seed-set holdout
  python3 perfbench/run.py --pin 0-31      # re-pin perfbench/pinned.json

Seeds of the main set that perfbench/pinned.json lists are checked against
their pinned digest; any other seed against a serial re-run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "cobra_perfbench"
PINNED = HERE / "pinned.json"
WORKLOADS = ["mis_rmat", "trials_torus"]
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("src/ is missing: the benchmark builds the cobra "
                           "library from this checkout's sources")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)


def pinned():
    return json.loads(PINNED.read_text()) if PINNED.is_file() else {}


def measure(args):
    report = BUILD / f"report_{args.workload}.json"
    report.unlink(missing_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--seed-set", args.seed_set, "--report", str(report),
           "--scratch", str(BUILD)]
    if args.seed_set == "main":
        expect = pinned().get(args.workload, {}).get(str(args.seed))
        if expect:
            cmd += ["--expect", expect]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    text = report.read_text()
    doc = json.loads(text)
    ctx = doc["context"]
    layer = "per_layer" if args.trace else "end_to_end"
    metrics = {r["name"]: {"value": r["value"], "unit": r["unit"]}
               for r in doc["records"] if r["layer"] == layer}
    print(text, end="")
    print(json.dumps({"correct": ctx["correct"] == "true",
                      "attempted": int(ctx["attempted"]),
                      "failed": int(ctx["failed"]),
                      "metrics": metrics}))


def pin(seed_range, workloads):
    """Pin each workload's digest for the main-set seeds in `seed_range`.
    The binary pins a seed only when a pooled and a serial run agree."""
    table = pinned()
    first, last = (int(x) for x in seed_range.split("-"))
    for w in workloads:
        out = subprocess.run([str(BINARY), "--workload", w, "--pin",
                              f"{first}-{last}"], check=True,
                             capture_output=True, text=True).stdout
        seeds = table.setdefault(w, {})
        for line in out.splitlines():
            seed, digest = line.split()
            seeds[seed] = digest
        table[w] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
        print(f"pinned {w} seeds {first}-{last}", file=sys.stderr)
    PINNED.write_text(json.dumps(table, indent=1) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--seed-set", choices=["main", "holdout"], default="main",
                   help="holdout: process seeds never used while tuning")
    p.add_argument("--pin", metavar="FIRST-LAST",
                   help="pin main-set digests for these seeds and exit")
    args = p.parse_args()
    if args.pin is None and args.workload is None:
        p.error("--workload is required")
    try:
        build()
        if args.pin is not None:
            pin(args.pin, [args.workload] if args.workload else WORKLOADS)
        else:
            measure(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
