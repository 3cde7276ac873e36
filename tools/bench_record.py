"""Record one benchmark point: run every ttabench workload on HEAD and on the
working tree, in alternating runs, and write BENCH_<pr>.json.

    python3 tools/bench_record.py PR

Run it from anywhere, before committing the change it measures: it works on
the checkout that holds this file, and HEAD is the base.  Both sides run from
exports, so they differ in code only, not in directory or leftover files.
HEAD is exported with `git archive` into .ttabench/parent/.  The working tree
is snapshot as a git tree through a temporary index (`git add -A`, then `git
write-tree`; the checkout's own index and `git status` are left untouched) and
exported the same way into .ttabench/change/.  The snapshot holds tracked
files as edited and new files, which need not be committed or staged;
ignored files are left out.  For each workload named in BENCHMARK.json it
then makes PAIRS pairs of runs, one of each tree, alternating which runs
first; each run is `python3 ttabench/run.py --workload W --seed 0 --seconds S
--trace 0` with S BENCHMARK.json's run_seconds.  Runs of both trees in the same
minutes keep machine drift out of the comparison.

The file, at the root of the checkout, holds the working tree's numbers per
workload: the median over runs of each run's end-to-end median, the run medians,
the quartiles of the pooled per-pass values, the pass count, the correctness
verdict and the environment line; the same for the base tree under "base".
"base" at the top level is HEAD's commit id and "change" the snapshot's tree id.
Successive BENCH_<pr>.json files form the committed bench trajectory.

It prints one line per (workload, end-to-end metric): base -> working tree
median, their ratio, the pairs in which the working tree was better, and a flag.
WORSE: the ratio is past the metric's relative `bound` in BENCHMARK.json.
BETTER: the working tree is better in at least 9 in 10 of the pairs, and its
median is better by more than the spread between the quartiles of the base's
runs.  The newest earlier BENCH_<n>.json (n < PR) is printed beside them as
context only, never flagged: it was measured at another time.  Standard library
only.

A BETTER flag on a workload that runs none of the changed code is drift, not a
gain: BENCH_23.json flagged certify wall_s x0.962 (9 of 10 pairs) for a change
that touched nothing certify runs.  Read a claimed gain against the workloads
the change does not touch.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
PAIRS = 10


def git(*args: str, env: dict | None = None) -> str:
    """Run git in ROOT; return its stripped stdout."""
    return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def snapshot() -> str:
    """The id of a git tree of the working tree as `git add -A` sees it.

    The tree is built through a temporary index, so the checkout's own index
    and `git status` are left as they were."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def export(tree: str, dest: Path) -> None:
    """Write the files of tree (a commit or tree id) to dest, replacing it."""
    archive = subprocess.run(["git", "archive", "--format=tar", tree], cwd=ROOT,
                             capture_output=True, check=True).stdout
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_workload(root: Path, workload: str, seconds: int) -> dict:
    """One ttabench run of workload in the checkout at root."""
    cmd = [sys.executable, "ttabench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(line for line in lines if line.startswith("environment "))
    raw = json.loads((root / ".ttabench" / "results" /
                      f"{workload}-seed{SEED}-trace0.json").read_text(encoding="utf-8"))
    return {"result": json.loads(lines[-1]), "passes": raw["passes"],
            "environment": json.loads(env[len("environment "):])}


def summary(runs: list[dict], metrics: list[str]) -> dict:
    """One tree's numbers for one workload over its runs."""
    passes = [p for run in runs for p in run["passes"]]
    run_medians = {name: [run["result"]["metrics"][name]["value"] for run in runs]
                   for name in metrics}
    return {
        "runs": len(runs),
        "passes": len(passes),
        "correct": all(run["result"]["correct"] for run in runs),
        "attempted": sum(run["result"]["attempted"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "median": {name: statistics.median(values) for name, values in run_medians.items()},
        "run_medians": run_medians,
        # ttabench makes at least three passes per run, enough for quartiles
        "quartiles": {name: statistics.quantiles([p[name] for p in passes], n=4)[::2]
                      for name in metrics},
        "units": {name: m["unit"] for name, m in runs[0]["result"]["metrics"].items()},
        "environment": runs[-1]["environment"],
    }


def flag(metric: dict, base: list[float], new: list[float]) -> tuple[int, str]:
    """(pairs the working tree won, "WORSE" / "BETTER" / "") for one metric."""
    lower = metric["better"] == "lower"
    wins = sum((n < b) if lower else (n > b) for b, n in zip(base, new))
    old, now = statistics.median(base), statistics.median(new)
    ratio = now / old if old else float("inf")
    if ratio > 1.0 + metric["bound"] if lower else ratio < 1.0 - metric["bound"]:
        return wins, "WORSE"
    q1, q3 = statistics.quantiles(base, n=4)[::2] if len(base) > 1 else (old, old)
    gain = old - now if lower else now - old
    return wins, "BETTER" if wins >= 0.9 * len(base) and gain > q3 - q1 else ""


def previous_record(pr: int) -> tuple[int, dict] | None:
    """(n, record) of the newest BENCH_<n>.json at the root with n < pr."""
    numbers = [int(m[1]) for path in ROOT.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)) and int(m[1]) < pr]
    if not numbers:
        return None
    n = max(numbers)
    return n, json.loads((ROOT / f"BENCH_{n}.json").read_text(encoding="utf-8"))


def comparison(record: dict, end_to_end: list[dict], previous: tuple[int, dict] | None
               ) -> list[str]:
    """One line per (workload, end-to-end metric): base -> working tree median,
    ratio, pairs won, flag, and the previous record's median as context."""
    lines = []
    for workload, now in record["workloads"].items():
        before = previous[1]["workloads"].get(workload, {}).get("median", {}) if previous else {}
        for metric in end_to_end:
            name = metric["name"]
            base, new = now["base"]["run_medians"][name], now["run_medians"][name]
            wins, verdict = flag(metric, base, new)
            old, median = now["base"]["median"][name], now["median"][name]
            ratio = median / old if old else float("inf")
            context = (f"  (BENCH_{previous[0]}: {before[name]:.4g})"
                       if name in before else "")
            lines.append(f"{workload:<11} {name:<12} {old:.4g} -> {median:.4g}  x{ratio:.3f}  "
                         f"won {wins}/{len(base)}{'  ' + verdict if verdict else ''}{context}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number of the change this point measures")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = [m["name"] for m in spec["end_to_end"]]
    commit, tree = git("rev-parse", "--verify", "HEAD^{commit}"), snapshot()
    base, change = ROOT / ".ttabench" / "parent", ROOT / ".ttabench" / "change"
    export(commit, base)
    export(tree, change)
    workloads = {}
    for w in spec["workloads"]:
        runs = {base: [], change: []}
        for i in range(PAIRS):
            for root in (base, change) if i % 2 == 0 else (change, base):
                runs[root].append(run_workload(root, w["name"], seconds))
        workloads[w["name"]] = {**summary(runs[change], metrics),
                                "base": summary(runs[base], metrics)}
        print(f"{w['name']}: correct={workloads[w['name']]['correct']} "
              f"median={workloads[w['name']]['median']}", file=sys.stderr)
    record = {"pr": args.pr, "seed": SEED, "seconds": seconds, "pairs": PAIRS,
              "base": commit, "change": tree,
              "command": "python3 ttabench/run.py --workload W "
                         f"--seed {SEED} --seconds {seconds} --trace 0",
              "workloads": workloads}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    print(f"base {commit[:12]} -> working tree, median of {PAIRS} paired runs "
          "(WORSE = past the bound; BETTER = won 9 in 10 pairs, past the base's quartiles):")
    print("\n".join(comparison(record, spec["end_to_end"], previous_record(args.pr))))
    return 0 if all(w["correct"] and w["base"]["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
