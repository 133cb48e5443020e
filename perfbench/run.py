#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload plan-cold|serve-warm|native-cold \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds zapd and bench.exe with dune
(into _build), then runs bench.exe, which prints one JSON result line
as the last line of stdout.  Everything the run writes
stays under .perfbench/ in the checkout; the run's own directory is
removed when it ends.

--self-test runs a short schedule of every workload twice: once as is,
which must pass, and once with the reference checksums corrupted,
which must fail.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
STATE = os.path.join(ROOT, ".perfbench")
EXES = ["bin/zapd.exe", "perfbench/bench.exe"]
WORKLOADS = ["plan-cold", "serve-warm", "native-cold"]
TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        log("run.py: no dune-project here; run from the root of a checkout")
        return False
    dune = shutil.which("dune")
    if dune is None:
        log("run.py: dune not found on PATH")
        return False
    cmd = [dune, "build", "--root", ".", "--display", "quiet"] + [
        "./" + e for e in EXES
    ]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return r.returncode == 0


def commit():
    try:
        # look for .git in the checkout only, not in its parents
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_bench(args, env, extra=()):
    """Run bench.exe once; returns (exit code, stdout text)."""
    os.makedirs(STATE, exist_ok=True)
    workdir = os.path.join(".perfbench", "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(env, TMPDIR=os.path.abspath(workdir))
    cmd = [
        os.path.join("_build", "default", "perfbench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--zapd", os.path.join("_build", "default", "bin", "zapd.exe"),
        "--workdir", workdir,
        "--nproc", str(nproc()),
        "--commit", commit(),
    ] + list(extra)
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("run.py: benchmark exceeded %d s" % TIMEOUT_S)
        return 3, ""
    finally:
        # bench.exe stops its daemon; anything left in its process
        # group (a daemon after a crash) goes here
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, out


def self_test(env):
    ok = True
    for w in WORKLOADS:
        for corrupt in (False, True):
            a = argparse.Namespace(workload=w, seed=7, seconds=2, trace=0)
            rc, out = run_bench(a, env, ["--corrupt-oracle"] if corrupt else [])
            lines = out.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            passed = rc == 0 and res.get("correct") is True
            want = not corrupt
            verdict = "ok" if passed == want else "WRONG"
            ok = ok and passed == want
            log(
                "self-test %-12s corrupt=%-5s exit=%d correct=%s failed=%s/%s: %s"
                % (w, corrupt, rc, res.get("correct"), res.get("failed"),
                   res.get("attempted"), verdict)
            )
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    # keep dune's shared cache out of the home directory
    env = dict(os.environ, DUNE_CACHE="disabled")
    if not build(env):
        return 2
    if args.self_test:
        return self_test(env)
    if args.workload is None:
        p.error("--workload is required")
    rc, out = run_bench(args, env)
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
