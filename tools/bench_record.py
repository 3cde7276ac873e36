"""Record one benchmark point: run every ttabench workload and write BENCH_<pr>.json.

    python3 tools/bench_record.py PR

Run from anywhere; it works on the checkout that holds this file.  For each
workload named in BENCHMARK.json it runs `python3 ttabench/run.py --workload W
--seed 0 --seconds S --trace 0`, S being BENCHMARK.json's run_seconds, so
every point is measured the same way.  It keeps the end-to-end medians, the
quartiles of the per-pass values, the pass count, the correctness verdict and
the environment line.  The file is written to the root of the checkout, so
successive BENCH_<pr>.json files form the committed bench trajectory.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def run_workload(workload: str, seconds: int, metrics: list[str]) -> dict:
    cmd = [sys.executable, "ttabench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    header = next(line for line in lines if line.startswith("workload "))
    env = next(line for line in lines if line.startswith("environment "))
    raw = json.loads((ROOT / ".ttabench" / "results" /
                      f"{workload}-seed{SEED}-trace0.json").read_text(encoding="utf-8"))
    # run.py makes at least three passes, enough for quartiles
    quartiles = {name: statistics.quantiles([p[name] for p in raw["passes"]], n=4)[::2]
                 for name in metrics}
    return {
        "passes": int(header.split("passes ")[1].split()[0]),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "median": {name: m["value"] for name, m in result["metrics"].items()},
        "quartiles": quartiles,
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
        "environment": json.loads(env[len("environment "):]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number of the change this point measures")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads = {}
    for w in spec["workloads"]:
        workloads[w["name"]] = run_workload(w["name"], seconds, metrics)
        print(f"{w['name']}: correct={workloads[w['name']]['correct']} "
              f"median={workloads[w['name']]['median']}", file=sys.stderr)
    record = {"pr": args.pr, "seed": SEED, "seconds": seconds,
              "command": "python3 ttabench/run.py --workload W "
                         f"--seed {SEED} --seconds {seconds} --trace 0",
              "workloads": workloads}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
