#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package from source
(into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs the workload
in its own process with `SPARK_MOE_THREADS` pinned (default 1). The last
line of standard output is the result JSON; a `# context` line before it
records the seed, the pinned worker count, `nproc`, `rustc -V` and the
commit. `--workload all` runs the three workloads one after another, each
in its own process.

Optional: `--threads <n>` (pinned worker count), `--scale tiny` (test
size).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["table3-campaign", "openloop-storm", "serving-firehose"]
# A run measures for --seconds and then finishes its round; anything past
# this is a hang.
RUN_TIMEOUT_S = 170


def target_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build() -> Path:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, stdout=sys.stderr, env=env, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"build failed with exit code {done.returncode}")
    return target_dir() / "release" / "perfbench"


def command_output(cmd: list) -> str:
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def context(args: argparse.Namespace, workload: str) -> dict:
    commit = command_output(["git", "-C", str(HERE), "rev-parse", "HEAD"])
    return {
        "workload": workload,
        "seed": args.seed,
        "threads": args.threads,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "commit": commit,
    }


def run_one(binary: Path, args: argparse.Namespace, workload: str) -> int:
    print("# context " + json.dumps(context(args, workload)), flush=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--trace-dir", str(HERE / "out")]
    env = dict(os.environ, SPARK_MOE_THREADS=str(args.threads))
    with subprocess.Popen(cmd, env=env) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = p.parse_args()
    try:
        binary = build()
    except (OSError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        code = run_one(binary, args, workload)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
