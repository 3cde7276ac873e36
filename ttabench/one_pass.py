"""One benchmark pass of one workload, in a fresh interpreter.

    python3 ttabench/one_pass.py --workload NAME --variant V --out DIR
                                 [--trace] [--spans FILE]

Set-up (`import ttalab` plus building the inputs) is timed on its own, then
the workload's calls with the outer timers only.  The calibration kernel
(calibrate.py) runs right before and right after the timed region, and the
times are reported scaled by it, with the raw ones alongside.  With --trace
the public functions are wrapped by the span tracer before set-up, and the
per-layer numbers of the timed region are reported.  Outputs are checked
against the stored reference after the timers stop.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import warnings
from pathlib import Path

import tracing
import workloads


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    setup_start = time.perf_counter()
    tt = workloads.load_package()
    tracer = tracing.install(tt) if args.trace else None
    inputs = workload.build(tt, args.variant, args.out)
    setup_s = time.perf_counter() - setup_start
    if tracer is not None:
        tracer.reset()

    import calibrate  # imports NumPy, so only after set-up has been timed

    bytes_before = _tree_bytes(args.out)
    kernel_before = calibrate.kernel_seconds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        result = workload.run(tt, inputs)
        wall_s = time.perf_counter() - wall_start
        cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernel_after = calibrate.kernel_seconds()
    scale = calibrate.NOMINAL_S / (0.5 * (kernel_before + kernel_after))

    import numpy  # already loaded by ttalab; imported here only for its version

    reference = workloads.load_reference()["workloads"][workload.name][args.variant]
    failures = workloads.check(workload, workload.digest(result), reference)
    report = {
        "setup_s": setup_s * scale,
        "wall_s": wall_s * scale,
        "cpu_s": cpu_s * scale,
        "peak_rss_mb": peak_rss_mb,
        "raw": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
                "kernel_s": [kernel_before, kernel_after]},
        "attempted": len(reference),
        "failed": len(failures),
        "failures": failures,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        runtime_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        layers = tracing.layer_metrics(tracer, runtime_warnings,
                                       _tree_bytes(args.out) - bytes_before)
        report["layers"] = {key: value * scale if key.endswith(".self_s") else value
                            for key, value in layers.items()}
        report["uncovered_s"] = (wall_s - tracer.root_time()) * scale
        if args.spans is not None:
            tracing.write_spans(tracer, args.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
