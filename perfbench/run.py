#!/usr/bin/env python3
"""Build the analyzer and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload batch-web --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Arguments go to the benchmark executable
(perfbench/bench.ml); the last line of its output is the JSON result. Exits
non-zero without a result when the build fails.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "_build", "default")
WORK = os.path.join(ROOT, ".perfbench-work")
RUN_TIMEOUT_S = 175


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        return [os.path.join(prefix, "bin", "dune")]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found")


def build():
    cmd = dune() + ["build", "--root", ROOT, "./perfbench/bench.exe", "./bin/ptan.exe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=880)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        sys.exit("run.py: build failed")


def code_id():
    """The git commit when there is one, else a digest of the analyzer's sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and os.path.isdir(os.path.join(ROOT, ".git")):
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for f in sorted(files):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + fh.read())
    return "src-" + h.hexdigest()[:12]


def main():
    build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench", "bench.exe"),
           "--ptan", os.path.join(BUILD, "bin", "ptan.exe"),
           "--work", WORK, "--commit", code_id()] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: benchmark timed out")
    finally:
        # the benchmark reaps its daemon; this catches anything left if it crashed
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
