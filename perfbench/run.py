#!/usr/bin/env python3
"""Builds and runs the Explain3D repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload explain_sparse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 10 --trace 0     # every workload

The benchmark binary (perfbench/src) and the real `explain3d-serve` are
built in release mode under $CARGO_TARGET_DIR (default `.bench_build`).
With one workload the last line of standard output is the run's JSON result.
With none, every workload runs in its own process and the last line merges
their results, each metric prefixed with its workload. Exits non-zero when a
build fails or any correctness oracle fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["explain_sparse", "explain_dense", "delta_stream", "serve_mixed"]


def build(root, target_dir):
    """Builds the benchmark and the server; returns False on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    manifests = [
        ["--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        ["--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "explain3d-service", "--bin", "explain3d-serve"],
    ]
    for args in manifests:
        if not os.path.isfile(args[1]):
            print(f"run.py: {args[1]} is missing; cannot build", file=sys.stderr)
            return False
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def run_one(binary, serve_bin, workload, args, extra):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", serve_bin, "--out-dir", args.out_dir] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", default=".bench_out",
                        help="where spans and server data directories go")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--perturb-fingerprint", action="store_true",
                        help="corrupt one fingerprint: the run must then fail")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(root, target_dir):
        return 2
    release = os.path.join(os.path.abspath(target_dir), "release")
    binary = os.path.join(release, "perfbench")
    serve_bin = os.path.join(release, "explain3d-serve")
    extra = (["--smoke"] if args.smoke else []) + (
        ["--perturb-fingerprint"] if args.perturb_fingerprint else [])

    if args.workload:
        code, result = run_one(binary, serve_bin, args.workload, args, extra)
        if result is not None:
            print(json.dumps(result))
        return code if code != 0 else (0 if result is not None else 1)

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(binary, serve_bin, workload, args, extra)
        worst = worst or code or (0 if result is not None else 1)
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
