#!/usr/bin/env python3
"""Regenerates bench/e2e/digests.json, the pinned simulated results.

    python3 bench/e2e/pin.py

Runs every workload for seeds 1-3 on the serial engine (des_jobs 1) and
records each run's digest.  run.py checks its runs against these pins at
each workload's own des_jobs, so scaled512 re-proves parallel == serial.
Only a change that is meant to alter simulated results may re-pin.
"""
import json
import subprocess
import sys

import run

SEEDS = (1, 2, 3)


def main():
    run.build()
    pins = {"generated_with": "des_jobs 1 (serial engine), seeds 1-3"}
    for name in run.WORKLOADS:
        pins[name] = {}
        for seed in SEEDS:
            out = subprocess.run(
                [str(run.BINARY), "--workload", name, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0", "--des-jobs", "1",
                 "--out", str(run.BUILD)],
                capture_output=True, text=True, check=True)
            result = json.loads(out.stdout)
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: {result['errors']}")
            pins[name][str(seed)] = result["digest"]
            print(name, seed, result["digest"])
    (run.HERE / "digests.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
