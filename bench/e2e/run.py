#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: build, run, check, report.

    python3 bench/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--out DIR]

Builds bench/e2e (its own CMake project over src/) in Release into
build-perf/e2e, then runs each workload in its own process, one after
another.  Every metric is printed as `workload metric value unit`; the
full result, with its run stamp, goes to DIR/<workload>.seed<N>.json.
The last line of stdout is one JSON object: correct, attempted, failed
and the metrics BENCHMARK.json lists (end_to_end, or per_layer with
--trace 1).  The run is incorrect, and the command exits 1, when an op
fails or the simulated results differ from the digest pinned in
digests.json.  See README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-perf" / "e2e"
BINARY = BUILD / "e2e_bench"
WORKLOADS = ["paper64", "scaled512", "serve_link", "adaptive_sc"]


class BenchError(Exception):
    pass


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the repository root")
    return json.loads(path.read_text())


def build():
    """Configures (once) and builds e2e_bench; build logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources (src/CMakeLists.txt) not found")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def source_sha256():
    """Hash of every file the benchmark builds from, for the run stamp."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if path.suffix in (".cpp", ".hpp") or path.name == "CMakeLists.txt":
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD, with "+dirty" when the working tree differs from it; "unknown"
    outside a git checkout (git is not asked, so it never reads beyond it)."""
    if not (ROOT / ".git").exists():
        return "unknown"

    def git(*args):
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
        if out.returncode != 0:
            raise OSError(out.stderr)
        return out.stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        return head + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_workload(name, seed, seconds, trace, out_dir, pins):
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120 + 2 * seconds)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: timed out")
    if proc.returncode != 0:
        raise BenchError(f"{name}: e2e_bench exited {proc.returncode}: "
                         + proc.stderr.strip())
    result = json.loads(proc.stdout)
    stamp = result["stamp"]
    if stamp["build_type"] != "Release" or not stamp["ndebug"]:
        raise BenchError(f"refusing a {stamp['build_type']} build "
                         "(NDEBUG off); results need Release")

    pinned = pins.get(name, {}).get(str(seed))
    result["digest_checked"] = pinned is not None
    if pinned is not None and pinned != result["digest"]:
        result["errors"].append(f"digest {result['digest']} differs from "
                                f"the pin {pinned}")
        result["failed"] = result["attempted"]
    result["correct"] = not result["errors"] and result["failed"] == 0
    stamp["commit"] = git_commit()
    stamp["source_sha256"] = source_sha256()
    path = out_dir / f"{name}.seed{seed}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def layer_table(result):
    lines = [f"{'layer':<20}{'calls':>8}{'total_ms':>12}{'self_ms':>12}"]
    for row in result["layers"]:
        lines.append(f"{row['name']:<20}{row['calls']:>8}"
                     f"{row['total_ms']:>12.3f}{row['self_ms']:>12.3f}")
    lines.append(f"reconciliation: max error "
                 f"{result['reconcile_max_error_pct']:.4f}% of trial span")
    return "\n".join(lines)


def select(result, wanted):
    """The metrics BENCHMARK.json lists, checked against their units."""
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise BenchError(f"e2e_bench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit differs from BENCHMARK.json")
        metrics[m["name"]] = got
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BUILD / "results")
    args = parser.parse_args()

    try:
        spec = load_spec()
        build()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        pins = json.loads((HERE / "digests.json").read_text())
        args.out.mkdir(parents=True, exist_ok=True)
        results = {}
        for name in [args.workload] if args.workload else WORKLOADS:
            result = run_workload(name, args.seed, seconds, args.trace,
                                  args.out, pins)
            results[name] = result
            for metric, m in result["metrics"].items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            print(f"{name} digest {result['digest']} "
                  f"(checked against pin: {result['digest_checked']})")
            for error in result["errors"]:
                print(f"{name} ERROR {error}")
            if args.trace:
                table = layer_table(result)
                (args.out / f"{name}.seed{args.seed}.layers.txt").write_text(
                    table + "\n")
                print(table)
            sys.stdout.flush()
        if args.workload:
            metrics = select(results[args.workload], wanted)
        else:
            metrics = {f"{name}/{metric}": value
                       for name, result in results.items()
                       for metric, value in select(result, wanted).items()}
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
