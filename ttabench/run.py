"""ttalab benchmark: time one workload in fresh processes and check its outputs.

    python3 ttabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass is a fresh interpreter
(one_pass.py), because every `ttalab` call pays import and set-up.  Passes
repeat until S seconds have gone, and at least MIN_PASSES times; each
metric is the median over the passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: wall_s and cpu_s
of the workload's calls, setup_s (import plus input building) and the pass
process's peak_rss_mb.  Times are scaled by the machine-speed kernel of
calibrate.py; the raw ones are kept in the results file.  --trace 1 spends
half the time on untraced passes and half on traced ones and reports the
per-layer metrics of BENCHMARK.json, including the traced/untraced wall-time
ratio (the tracing overhead).

Every pass checks its outputs against reference.json; an operation whose
output does not match counts as failed, and fail_ratio = failed / attempted.
The last line of standard output is the JSON result; the lines before it
give each metric by name with its unit, the pass count and the environment.
Raw per-pass numbers go to .ttabench/results/ and the spans of the first
traced pass to .ttabench/trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

WORK = workloads.ROOT / ".ttabench"
MIN_PASSES = 3
# No pass starts after RUN_LIMIT_S, so a run ends well within three minutes
# even when MIN_PASSES passes do not fit in --seconds.
RUN_LIMIT_S = 90
PASS_TIMEOUT_S = 80
DEFAULT_SEED = 0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_pass(workload: str, variant: int, trace: bool, spans=None) -> dict:
    out = WORK / "out" / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(workloads.BENCH_DIR / "one_pass.py"), "--workload", workload,
           "--variant", str(variant), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"ttabench: a {workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, variant: int, trace: bool, seconds: float, run_start: float,
               spans=None):
    passes = []
    deadline = time.monotonic() + seconds
    while not passes or (
            (len(passes) < MIN_PASSES or time.monotonic() < deadline)
            and time.monotonic() - run_start < RUN_LIMIT_S):
        passes.append(run_pass(workload, variant, trace, spans if not passes else None))
    return passes


def warm_up() -> None:
    """Compile the package's bytecode once, so no pass pays for it."""
    code = (f"import sys; sys.path.insert(0, {str(workloads.BENCH_DIR)!r}); "
            "import workloads; workloads.load_package()")
    subprocess.run([sys.executable, "-c", code], cwd=workloads.ROOT, check=True,
                   capture_output=True, timeout=PASS_TIMEOUT_S)


def median_of(passes, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def layer_values(traced, untraced) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    first = traced[0]["layers"]
    for other in traced[1:]:
        moved = [k for k, v in other["layers"].items()
                 if not k.endswith(".self_s") and v != first.get(k)]
        if moved:
            print(f"ttabench: counts differ between traced passes: {moved}", file=sys.stderr)
    values = dict(first)
    for key in first:
        if key.endswith(".self_s"):
            values[key] = statistics.median(p["layers"][key] for p in traced)
    traced_wall = median_of(traced, "wall_s")
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / median_of(untraced, "wall_s")
    values["trace.uncovered_share"] = statistics.median(
        p["uncovered_s"] / p["wall_s"] for p in traced)
    return values


def environment(passes) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "machine": platform.machine(),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    run_start = time.monotonic()
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (workloads.SRC / "ttalab" / "__init__.py").is_file():
        print(f"ttabench: no ttalab package under {workloads.SRC}", file=sys.stderr)
        return 2
    variant = args.seed % workloads.VARIANTS
    warm_up()

    if args.trace:
        (WORK / "trace").mkdir(parents=True, exist_ok=True)
        spans = WORK / "trace" / f"{args.workload}-seed{args.seed}.spans.csv"
        untraced = run_passes(args.workload, variant, False, args.seconds / 2, run_start)
        traced = run_passes(args.workload, variant, True, args.seconds / 2, run_start, spans)
        passes = untraced + traced
        values = layer_values(traced, untraced)
        wanted = spec["per_layer"]
    else:
        passes = run_passes(args.workload, variant, False, args.seconds, run_start)
        values = {key: median_of(passes, key)
                  for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        wanted = spec["end_to_end"]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment(passes)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "variant": variant,
                    "environment": env, "metrics": metrics, "passes": passes}, indent=1),
        encoding="utf-8")

    for failures in {json.dumps(p["failures"], sort_keys=True) for p in passes if p["failed"]}:
        print(f"ttabench: failed operations: {failures}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed} (reference variant {variant})  "
          f"trace {args.trace}  passes {len(passes)}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<40} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
