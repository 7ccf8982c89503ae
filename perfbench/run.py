#!/usr/bin/env python3
"""Build and run the pigp end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a pigp checkout.  The first run configures and builds
the library and the benchmark program (CMake, Release) under .bench_build/
(or $CARGO_TARGET_DIR when set); later runs only re-check the build.  Build
output goes to stderr, so the last line of stdout is always the program's
JSON result.  The exit code is the program's: non-zero when a correctness
check failed, the build failed, or the run overran its time limit.

    python3 perfbench/run.py --selfcheck --workload <name> --seed <n>

runs the workload three times (seed n twice, seed n+1 once) and checks that
the same seed reproduces the final partition, cut and migration exactly and
that a different seed changes the final partition.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build() -> Path:
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configure unless an earlier configure completed (it writes the
    # generator's build file last).
    if not ((out / "build.ninja").exists() or (out / "Makefile").exists()):
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       cwd=ROOT)
    subprocess.run(["cmake", "--build", str(out), "--parallel", jobs,
                    "--target", "pigp_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    return out / "pigp_perfbench"


def commit_id() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return res.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(binary: Path, args, capture: bool):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace:
        trace_dir = build_dir().parent / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-{args.seed}.json")]
    # subprocess.run kills the program on timeout and waits for it to exit.
    return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                          capture_output=capture, text=capture)


def selfcheck(binary: Path, args) -> int:
    """Same seed -> identical results; another seed -> another partition."""
    results = []
    for seed in (args.seed, args.seed, args.seed + 1):
        args.seed, args.trace = seed, 0
        res = run(binary, args, capture=True)
        lines = res.stdout.strip().splitlines()
        final = json.loads(lines[-1])
        partition = next(l.split()[3].rstrip(",") for l in lines
                         if l.startswith("result: final partition"))
        results.append((seed, res.returncode, partition, final))
        print(f"seed {seed}: exit {res.returncode}, partition {partition}, "
              f"cut {final['metrics']['final_cut']['value']}, migrated "
              f"{final['metrics']['migrated_vertices']['value']}")
    (_, rc0, p0, f0), (_, rc1, p1, f1), (_, rc2, p2, _) = results
    same = all(f0["metrics"][k]["value"] == f1["metrics"][k]["value"]
               for k in ("final_cut", "final_imbalance", "migrated_vertices"))
    ok = rc0 == rc1 == rc2 == 0
    if args.workload != "serve_async":
        ok = ok and p0 == p1 and same
    ok = ok and p0 != p2
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1
    try:
        if args.selfcheck:
            return selfcheck(binary, args)
        return run(binary, args, capture=False).returncode
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
