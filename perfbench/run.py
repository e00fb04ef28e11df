#!/usr/bin/env python3
"""Build and run the DRMS host-time benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload full_cycle|delta_chain|recover \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src) in
the build directory: $CARGO_TARGET_DIR when set, else .bench_build, taken
relative to the repository root. Later calls rebuild incrementally. The
timing decorator's self-test runs after every build that changed a binary,
and again on each call until it has passed.

The benchmark's stdout is passed through: a provenance line, then the result
object as the last line. Build output goes to stderr. The exit code is
non-zero, with no result printed, when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, **kwargs) -> bool:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, **kwargs)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")
        return False
    return True


def build(out: Path) -> bool:
    """Configure once, then build incrementally. Returns False on failure."""
    if not (out / "CMakeCache.txt").exists():
        log(f"configuring in {out}")
        if not run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                           "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(os.cpu_count() or 1)
    if not run_logged(["cmake", "--build", str(out), "--target", "drms_perfbench",
                       "perfbench_selftest", "-j", jobs]):
        return False
    # The stamp is written only when the self-test passes, so a failed test
    # reruns (and fails the run) until both binaries pass it.
    stamp = out / "selftest.passed"
    built = max((out / name).stat().st_mtime_ns
                for name in ("drms_perfbench", "perfbench_selftest"))
    if stamp.exists() and stamp.stat().st_mtime_ns >= built:
        return True
    log("new build: running the timing-decorator self-test")
    if not run_logged([str(out / "perfbench_selftest")]):
        return False
    stamp.touch()
    return True


def source_digest() -> str:
    """SHA-256 over the benchmark and library sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out = build_dir()
    if not build(out):
        return 1
    if args.selftest:
        return 0 if run_logged([str(out / "perfbench_selftest")]) else 1

    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    cmd = [str(out / "drms_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"{args.workload} exited with {proc.returncode}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
