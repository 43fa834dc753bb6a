#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see BENCHMARK.json).

    python3 bench/e2e/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout. Builds bench/e2e/clsm_bench.exe with
dune, runs the workload, and passes its output through: metric lines,
then one JSON result line. The exit code is the benchmark's (non-zero
when the build fails or a correctness check does). Store directories,
traces and the GC event ring stay under .clsm_bench/ in the checkout.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["put_compact", "get_resident", "production_mix", "durable_put"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    workdir = os.path.join(root, ".clsm_bench")
    os.makedirs(workdir, exist_ok=True)
    # Keep every file the build and the run write inside the checkout:
    # no dune cache in the home directory, and the Runtime_events ring
    # file (traced runs) next to the store directories.
    env = dict(os.environ, DUNE_CACHE="disabled", OCAML_RUNTIME_EVENTS_DIR=workdir)

    build = ["dune", "build", "--root", root, "bench/e2e/clsm_bench.exe"]
    # Build output goes to stderr: stdout's last line is the result.
    if subprocess.run(build, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
        print("build failed", file=sys.stderr)
        return 2

    exe = os.path.join(root, "_build", "default", "bench", "e2e", "clsm_bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir]
    if args.trace:
        cmd.append("--trace")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
