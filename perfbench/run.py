#!/usr/bin/env python3
"""Build and run the paper-scale benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload research-month --seed 2016 --seconds 20 --trace 0

Workloads: research-month, explorer-month.
The benchmark is built from this checkout with cargo (release profile, into
$CARGO_TARGET_DIR, default .bench_build). The one-month archive the read
workloads serve is built on first use by the binary itself and cached next
to it, keyed by the binary's hash, so the archive always comes from the code
under test. With --trace 1 the spans are written to a JSON-lines file in
that cache directory. The last line of stdout is the result object.

Compare two sets of saved runs with perfbench/compare.py.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("research-month", "explorer-month")
RUN_TIMEOUT_S = 900


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def source_rev():
    """The git revision, or a digest of the sources when not in a git tree."""
    rev = tool_output(["git", "rev-parse", "HEAD"])
    if rev:
        return rev
    h = hashlib.sha256()
    for top in ("Cargo.lock", "Cargo.toml", "crates", "perfbench/src", "perfbench/Cargo.toml"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "fork-perfbench")
    if not os.path.isfile(binary):
        fail(f"no binary at {binary}")

    # Month archives built by other binaries are stale: drop them.
    key = file_digest(binary)
    cache_root = os.path.join(target, "perfbench-data")
    data = os.path.join(cache_root, key)
    os.makedirs(data, exist_ok=True)
    for other in os.listdir(cache_root):
        if other != key:
            shutil.rmtree(os.path.join(cache_root, other), ignore_errors=True)

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data", data,
        "--git-rev", source_rev(),
        "--rustc", tool_output(["rustc", "--version"]) or "unknown",
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(data, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
