#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke       # each workload once, short, both modes
    python3 perfbench/run.py --selftest    # the benchmark's statistics tests
    python3 perfbench/run.py --workload service --seconds 30   # lrdipd probe

Run it from the root of a source checkout. It builds perfbench/ (which
compiles the library sources under src/) with CMake into $CARGO_TARGET_DIR,
default .bench_build, then starts one fresh driver process for the workload.
The last line of stdout is the result object; see perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# planar-file is not in BENCHMARK.json (run time budget, see README.md);
# service is a probe, since its requests fail at this revision.
WORKLOADS = ("lr-file", "planar-file", "small-batch")
PROBES = ("service",)
DRIVER_TIMEOUT_S = 165


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else Path.cwd() / d


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    tree = build_root() / "perfbench"
    tree.mkdir(parents=True, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(tree / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (tree / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(tree), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(tree), "-j", jobs, "--target", target])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only results.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                if cmd[1] == "-S":
                    shutil.rmtree(tree, ignore_errors=True)
                log("build failed: " + " ".join(cmd))
                return None
    exe = tree / target
    return exe if exe.exists() else None


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_driver(exe, workload, seed, seconds, trace, setup_reps=None, daemon=None):
    """Runs one workload in a fresh process. Returns (exit code, stdout lines)."""
    work = build_root() / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", str(work), "--commit", git_commit()]
    if trace:
        traces = build_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if setup_reps is not None:
        cmd += ["--setup-reps", str(setup_reps)]
    if daemon is not None:
        cmd += ["--daemon", str(daemon)]
    env = dict(os.environ, LRDIP_THREADS=str(min(os.cpu_count() or 1, 4)))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s and was killed")
        return 3, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out.splitlines()


def parse_result(lines):
    """The last line as a result object, or None when it is not one."""
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def smoke():
    exe = build("perfbench_driver")
    if exe is None:
        return 2
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            code, lines = run_driver(exe, workload, seed=1, seconds=0.5, trace=trace,
                                     setup_reps=1)
            res = parse_result(lines)
            want = expected_metrics(trace)
            got = {k: v.get("unit") for k, v in res["metrics"].items()} if res else {}
            good = (code == 0 and res is not None and res["correct"] and res["failed"] == 0
                    and got == want)
            print(f"smoke {workload} trace={int(trace)}: {'ok' if good else 'FAILED'}")
            if not good:
                ok = False
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                log(f"{workload}: exit {code}, missing {missing}, unexpected {extra}")
    return 0 if ok else 1


def selftest():
    exe = build("perfbench_selftest")
    if exe is None:
        return 2
    return subprocess.run([str(exe)]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + PROBES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")

    exe = build("perfbench_driver")
    daemon = build("perfbench_lrdipd") if args.workload in PROBES else None
    if exe is None or (args.workload in PROBES and daemon is None):
        return 2
    code, lines = run_driver(exe, args.workload, args.seed, args.seconds, bool(args.trace),
                             daemon=daemon)
    res = parse_result(lines)
    if res is None:
        log(f"{args.workload}: no result (driver exit {code})")
        return code or 3
    for line in lines:
        print(line)
    sys.stdout.flush()
    return 0 if code == 0 and res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
