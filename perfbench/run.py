#!/usr/bin/env python3
"""Builds the COFS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary is built with cargo
into $CARGO_TARGET_DIR (default: .bench_build at the repository root).
Its output is passed through; the last line is the JSON result, to
which this script adds the end-to-end metric `peak_rss_mb`: the peak
resident set of the benchmark process, read from the kernel's rusage
of that one child, so the cargo build is not counted. Traced runs
write their spans to .bench_out/. Exits non-zero, without a result
line, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    )
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [os.path.join(target, "release", "cofs-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.csv")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    output = proc.stdout.read()
    proc.stdout.close()
    # wait4 reaps this one child and returns its own rusage.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = output.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(output)
        sys.exit(f"perfbench: benchmark exited with {proc.returncode}")

    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if not args.trace:
        # ru_maxrss is in KiB on Linux.
        peak_mb = usage.ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        print(f"{'peak_rss_mb':32} {peak_mb:>16.6f} MB")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
