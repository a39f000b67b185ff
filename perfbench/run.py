#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/kvbench.exe with dune (the whole repository is its
source), then runs it with the given arguments; its last line of stdout is
the result object.  Exits non-zero, printing no result, when the checkout
does not hold the repository sources or the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "kvbench.exe")
RUN_TIMEOUT_S = 175


def git_rev():
    """HEAD's commit id read from .git in this directory, never above it."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "kvserve"))):
        sys.stderr.write("perfbench: run from the root of the repository checkout\n")
        return 2
    # No shared dune cache: the build reads and writes only this checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/kvbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    args = [EXE] + sys.argv[1:] + ["--git-rev", git_rev()]
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
