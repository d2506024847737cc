#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The Go toolchain's caches and temporary files are kept under
.bench_build/ in the repository root, so a run reads and writes nothing
outside the checkout. Results are printed as one JSON line on standard
output; the full record (provenance, checks, sample counts) and, for
traced runs, the spans are written under .bench_out/.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_DIR = os.path.join(ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT = 175  # seconds; the Go program's own watchdog fires first


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    for d in (home, os.path.join(BUILD, "tmp")):
        os.makedirs(d, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod -buildvcs=false",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def commit():
    """The checked-out commit, when the tree is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(BENCH_DIR, "go.mod")):
        sys.exit("perfbench: run from the repository root")
    env = go_env()
    if sys.argv[1:] == ["--selftest"]:
        sys.exit(subprocess.run(["go", "-C", BENCH_DIR, "test", "-count=1", "-timeout", "600s", "./..."],
                                env=env).returncode)
    build = subprocess.run(["go", "-C", BENCH_DIR, "build", "-o", BINARY, "."], env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    try:
        res = subprocess.run([BINARY, "--commit", commit()] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
