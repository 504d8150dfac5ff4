#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One measured run (what BENCHMARK.json's "command" invokes):

    python3 benchmark/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

builds the reclaim library and reclaim_bench from this checkout (CMake, into
$CARGO_TARGET_DIR or .bench_build/), runs one workload, and passes the
benchmark's output through; the last line is the JSON result.

Steadiness mode runs a workload once per seed and prints each end-to-end
metric's median, quartiles and spread against its bound:

    python3 benchmark/run.py --workload batch-sweep --steady 10

--smoke shrinks every workload so a run takes seconds (used by
benchmark/test_bench.py).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["serve-warm", "serve-cold-dag", "batch-sweep", "batch-models"]


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "reclaim-bench"


def build():
    """Configures (once) and builds reclaim_bench; returns its path or None."""
    out = build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if (out / "CMakeCache.txt").exists() else [configure]
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return None
    return out / "reclaim_bench"


def run_once(binary, workload, seed, seconds, trace, smoke, echo=True):
    """Runs reclaim_bench once; returns (exit code, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", str(build_dir() / "trace")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def steady(binary, args):
    """Runs args.steady seeds and prints the spread of every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    status = 0
    for k in range(args.steady):
        seed = args.seed + k
        code, result = run_once(binary, args.workload, seed, args.seconds,
                                args.trace, args.smoke, echo=False)
        if code != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {code})")
            status = 1
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
            for m in metrics[:8]), flush=True)
    print(f"\n{args.workload}: {args.steady} seeds from {args.seed}, "
          f"{args.seconds} s each")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for m in metrics:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            verdict = ("ok" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
        print(f"{m['name']:40} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}  {verdict}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; a run takes seconds")
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N seeds (from --seed) and print spreads")
    args = parser.parse_args()

    binary = build()
    if binary is None or not binary.exists():
        return 3
    if args.steady:
        return steady(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace, args.smoke)
    return code


if __name__ == "__main__":
    sys.exit(main())
