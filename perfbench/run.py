#!/usr/bin/env python3
"""Build and run the Concord end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ht_full_stack --seed 1 --seconds 5 --trace 0

It builds the Go benchmark in perfbench/ (its own module, which uses the
repository's packages through a replace directive) into .bench_build/,
with the Go build cache, module cache and tool configuration kept under
.bench_build/ as well, then runs it from the repository root and
forwards its output. The last line of output is the JSON result; on any
failure the script prints no result and exits non-zero.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, cwd, env, timeout):
    """Run cmd in its own process group; on timeout kill the whole group.

    Returns (returncode, stdout, stderr) once every process has ended.
    """
    p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        out, err = p.communicate()
        return 124, out, err + f"\ntimed out after {timeout}s"
    return p.returncode, out, err


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
    })
    return env


def source_revision():
    """The git commit when run in a clone, else a digest of the sources."""
    rc, out, _ = run(["git", "rev-parse", "HEAD"], ROOT, dict(os.environ), 30) \
        if os.path.isdir(os.path.join(ROOT, ".git")) else (1, "", "")
    if rc == 0 and out.strip():
        return out.strip()
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith((".go", ".pol", ".mod", ".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    rc, out, err = run(["go", "build", "-o", BINARY, "."],
                       os.path.join(ROOT, "perfbench"), env, BUILD_TIMEOUT_S)
    if rc != 0:
        sys.stderr.write(out + err + "\nperfbench: build failed\n")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed % 2**64),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--policies", os.path.join(ROOT, "policies"),
           "--out", os.path.join(BUILD, "results"),
           "--commit", source_revision()]
    rc, out, err = run(cmd, ROOT, dict(os.environ), RUN_TIMEOUT_S)
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    try:
        res = json.loads(lines[-1])
        ok = isinstance(res, dict) and set(res) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if rc != 0 or not ok:
        sys.stderr.write(out + f"\nperfbench: run failed (exit {rc})\n")
        return rc or 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
