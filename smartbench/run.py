#!/usr/bin/env python3
"""Build and run the SMART benchmark.

Run from the root of a checkout:

    python3 smartbench/run.py --workload cold-mix --seed 1 --seconds 20 --trace 0

Builds smartbench/main.exe with dune (shared build cache off, so nothing
is written outside the checkout), points TMPDIR at a scratch directory
inside the checkout for the daemon's on-disk solve stores, runs the
benchmark with the given arguments and removes the scratch directory.
The benchmark's last line of standard output is its JSON result.
"""

import os
import shutil
import subprocess
import sys


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "serve"))):
        print("smartbench: no SMART sources here (dune-project, lib/serve); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("smartbench: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "--display", "quiet", "./smartbench/main.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("smartbench: build failed", file=sys.stderr)
        return build.returncode or 1
    scratch = os.path.join(root, ".smartbench-tmp")
    tmp = os.path.join(scratch, str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    exe = os.path.join(root, "_build", "default", "smartbench", "main.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
