#!/usr/bin/env python3
"""Build and run the Newton-ADMM host benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <admm_dense|admm_sparse|sgd_dense|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, release profile) into
$CARGO_TARGET_DIR (default: .bench_build), then runs it with the same
arguments. The benchmark's last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Build output goes to
standard error; a failed build exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end within 180 s; stop a wedged one before that.
RUN_TIMEOUT_S = 175
SOURCE_DIRS = ("crates", "shims", "perfbench")
SOURCE_SUFFIXES = (".rs", ".toml", ".lock")


def source_revision():
    """The git revision when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in filenames if f.endswith(SOURCE_SUFFIXES))
    for path in sorted(files):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target_dir, "release", "nadmm-perfbench")
    scratch = os.path.join(target_dir, "perfbench-scratch-%d" % os.getpid())
    cmd = [binary] + sys.argv[1:] + ["--scratch", scratch, "--rev", source_revision()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
