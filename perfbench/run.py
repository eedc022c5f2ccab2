#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Builds the program from source (perfbench/CMakeLists.txt compiles ../src),
runs one workload through the program's real paths, checks its output, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs (--trace 0) report the end-to-end metrics BENCHMARK.json names;
traced runs (--trace 1) report its per-layer metrics. A per-layer metric of a
layer the workload does not exercise reads 0.

    python3 perfbench/run.py --workload batch_paper --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1
    python3 perfbench/run.py --self-test

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch_paper", "live_serve", "sweep_calibration")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return out / target


def provenance():
    sha = "none"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    digest = hashlib.md5()
    for directory in (ROOT / "src", HERE):
        for path in sorted(p for p in directory.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()


def run_workload(binary, workload, args, sha, digest):
    """Runs one workload in its own process; returns its result file."""
    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    sys.stdout.flush()
    try:
        subprocess.run([str(binary), "--workload", workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--out-dir", str(out_dir), "--git-sha", sha,
                        "--source-digest", digest], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    if not result_path.is_file():
        return None
    return json.loads(result_path.read_text())


def verdict(result, names):
    """The verdict line: the named metrics, in BENCHMARK.json's units."""
    if result is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    line = {"correct": result["correct"], "attempted": max(1, result["attempted"]),
            "failed": result["failed"], "metrics": {}}
    if not result["correct"]:
        return line
    for spec in names:
        got = result["metrics"].get(spec["name"])
        if got is None:  # a layer this workload does not exercise
            if spec in BENCH["end_to_end"]:
                print(f"perfbench: end-to-end metric {spec['name']} not measured",
                      file=sys.stderr)
                line["correct"] = False
                line["metrics"] = {}
                return line
            got = {"value": 0, "unit": spec["unit"]}
        if got["unit"] != spec["unit"]:
            fail(f"{spec['name']}: unit {got['unit']} != {spec['unit']} in BENCHMARK.json")
        line["metrics"][spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return line


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(subprocess.run([str(build("perfbench_tests"))]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench")
    sha, digest = provenance()
    names = BENCH["per_layer"] if args.trace else BENCH["end_to_end"]
    if args.workload != "all":
        line = verdict(run_workload(binary, args.workload, args, sha, digest), names)
        print(json.dumps(line))
        sys.exit(0 if line["correct"] else 1)

    # Every workload in turn, each in its own process, as one table.
    results = {w: run_workload(binary, w, args, sha, digest) for w in WORKLOADS}
    lines = {w: verdict(results[w], names) for w in WORKLOADS}
    print(f"\n{'metric':32}" + "".join(f"{w:>20}" for w in WORKLOADS))
    for spec in names:
        cells = [lines[w]["metrics"].get(spec["name"], {}).get("value", "-") for w in WORKLOADS]
        print(f"{spec['name'] + ' (' + spec['unit'] + ')':32}" +
              "".join(f"{c:>20.6g}" if c != "-" else f"{c:>20}" for c in cells))
    unmeasured = [s["name"] for s in names
                  if all(s["name"] not in (results[w] or {}).get("metrics", {})
                         for w in WORKLOADS)]
    if unmeasured:
        print(f"perfbench: no workload measured {', '.join(unmeasured)}", file=sys.stderr)
    combined = {
        "correct": all(l["correct"] for l in lines.values()) and not unmeasured,
        "attempted": sum(l["attempted"] for l in lines.values()),
        "failed": sum(l["failed"] for l in lines.values()),
        "metrics": {f"{w}.{k}": v for w, l in lines.items() for k, v in l["metrics"].items()},
    }
    print(json.dumps(combined))
    sys.exit(0 if combined["correct"] else 1)


BENCH_PATH = ROOT / "BENCHMARK.json"
if not BENCH_PATH.is_file():
    fail(f"{BENCH_PATH} not found")
BENCH = json.loads(BENCH_PATH.read_text())

if __name__ == "__main__":
    main()
