#!/usr/bin/env python3
"""Build and run the lemons end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library sources plus the lemons-perfbench program) into
.bench_build/perfbench; later calls only rebuild what changed. The
program's standard output is passed through, so the last line is the
result object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = BUILD / "run"
BINARY = BUILD / "lemons-perfbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the program; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; run from a full checkout")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return False
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", str(BUILD), "--target", "lemons-perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def run_binary(args):
    """Run lemons-perfbench; return (exit code, stdout lines)."""
    WORK.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--root", str(ROOT), "--work-dir", str(WORK)] + args
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"lemons-perfbench exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The last line as a result object, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def self_test():
    """The program's self-test, then a short smoke run of every workload that
    checks each declared metric prints with its declared unit."""
    code, lines = run_binary(["--self-test"])
    print("\n".join(lines))
    ok = code == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            code, lines = run_binary(["--workload", workload, "--seed", "1",
                                      "--seconds", "1", "--trace", trace])
            result = parse_result(lines)
            problems = []
            if code != 0 or result is None:
                problems.append(f"exit {code}, no result line")
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{result['failed']} failed")
                metrics = result["metrics"]
                for metric in declared:
                    got = metrics.get(metric["name"])
                    if got is None:
                        problems.append(f"{metric['name']} missing")
                    elif got.get("unit") != metric["unit"]:
                        problems.append(f"{metric['name']} unit {got.get('unit')}")
                extra = set(metrics) - {m["name"] for m in declared}
                if extra:
                    problems.append(f"undeclared {sorted(extra)}")
            status = "ok  " if not problems else "FAIL"
            print(f"{status} smoke {workload} --trace {trace}"
                  + (f": {'; '.join(problems)}" if problems else ""))
            ok = ok and not problems
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    options = parser.parse_args()

    if not build():
        return 2
    if options.self_test:
        return self_test()
    if None in (options.workload, options.seed, options.seconds, options.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    code, lines = run_binary(["--workload", options.workload,
                              "--seed", str(options.seed),
                              "--seconds", str(options.seconds),
                              "--trace", options.trace])
    if code != 0 or parse_result(lines) is None:
        log(f"{options.workload} run failed (exit {code})")
        return code or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
