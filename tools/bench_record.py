"""Record one benchmark point: run every ttabench workload and write BENCH_<pr>.json.

    python3 tools/bench_record.py PR

Run from anywhere; it works on the checkout that holds this file.  For each
workload named in BENCHMARK.json it runs `python3 ttabench/run.py --workload W
--seed 0 --seconds S --trace 0`, S being BENCHMARK.json's run_seconds, so
every point is measured the same way.  It keeps the end-to-end medians, the
quartiles of the per-pass values, the pass count, the correctness verdict and
the environment line.  The file is written to the root of the checkout, so
successive BENCH_<pr>.json files form the committed bench trajectory.

It then compares the new file with the newest earlier BENCH_<n>.json (n < PR)
and prints one line per (workload, end-to-end metric): the previous median,
the new one, their ratio, and WORSE when the change is worse than the
metric's relative `bound` in BENCHMARK.json.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
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


def previous_record(pr: int) -> tuple[int, dict] | None:
    """(n, record) of the newest BENCH_<n>.json at the root with n < pr."""
    numbers = [int(m[1]) for path in ROOT.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)) and int(m[1]) < pr]
    if not numbers:
        return None
    n = max(numbers)
    return n, json.loads((ROOT / f"BENCH_{n}.json").read_text(encoding="utf-8"))


def comparison(previous: dict, current: dict, end_to_end: list[dict]) -> list[str]:
    """One line per (workload, end-to-end metric): previous -> new median,
    new / previous, and WORSE past the metric's relative bound."""
    lines = []
    for workload, now in current["workloads"].items():
        before = previous["workloads"].get(workload, {}).get("median", {})
        for metric in end_to_end:
            name = metric["name"]
            old, new = before.get(name), now["median"][name]
            if old is None:
                lines.append(f"{workload:<11} {name:<12} (not in the previous record) -> {new:.4g}")
                continue
            ratio = new / old if old else float("inf")
            lower = metric["better"] == "lower"
            worse = ratio > 1.0 + metric["bound"] if lower else ratio < 1.0 - metric["bound"]
            lines.append(f"{workload:<11} {name:<12} {old:.4g} -> {new:.4g}  x{ratio:.3f}"
                         + ("  WORSE" if worse else ""))
    return lines


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
    previous = previous_record(args.pr)
    if previous is None:
        print("no earlier BENCH_<n>.json to compare with")
    else:
        print(f"against BENCH_{previous[0]}.json (median; WORSE = past the bound):")
        print("\n".join(comparison(previous[1], record, spec["end_to_end"])))
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
