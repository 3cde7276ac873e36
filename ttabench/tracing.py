"""In-memory span tracer for the traced benchmark passes.

`install` wraps the public ttalab functions named in SPANS in every
`ttalab.*` namespace that binds them, so calls the package makes to itself
are seen as well as calls from the benchmark.  The loss factories are wrapped
so that every loss they hand out carries traced `dpsi` and `ddpsi`.  A name
the package no longer defines is skipped and reports 0 calls.

Each call records one span: (id, parent id, name, start, end).  Spans stay in
memory and are written out by `write_spans` after the timed region.  Self time
is a span's duration minus the durations of its direct children; calls are
strictly nested because the package is single-threaded.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs that get a span; the span name is "module.function".
SPANS = (
    ("model", "sample_batch"),
    ("model", "decompose"),
    ("model", "gauss_upper_tail"),
    ("dynamics", "gd_step"),
    ("dynamics", "run_stochastic"),
    ("dynamics", "expectation_terms"),
    ("dynamics", "population_step"),
    ("dynamics", "run_population"),
    ("analysis", "verify_club"),
    ("analysis", "recursion_bound_run"),
    ("analysis", "log_rate_check"),
    ("serialize", "csv_with_meta_text"),
    ("serialize", "read_csv_with_meta"),
    ("serialize", "svg_line_chart"),
    ("serialize", "write_manifest"),
    ("presets", "reproduce_figure"),
    ("harness", "run_experiment"),
    ("harness", "grid_search"),
    ("cli", "main"),
)

# Functions that hand out SelfTrainingLoss objects, alone or in a list.
LOSS_FACTORIES = ("make_loss", "parse_loss_id", "all_losses", "club_losses")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0

    def reset(self) -> None:
        """Forget everything recorded so far (used once set-up is done)."""
        self.spans.clear()
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self._next_id = 0

    def wrap(self, name: str, fn, count=None):
        """Return fn recording a span per call; `count` adds to the pass counts."""
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                self.spans.append((span_id, parent, name, start, end))
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root_time(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent < 0)


def _count_rows(counts, args, result):
    counts["model.sample_batch.rows"] += len(result)


def _count_overflow(counts, args, result):
    if result and getattr(result[-1], "overflow", False):
        counts["dynamics.overflow_stops"] += 1


def _count_evals(key):
    def count(counts, args, result):
        counts[key] += _size(args[0])
    return count


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else 1


_COUNTERS = {
    "model.sample_batch": _count_rows,
    "dynamics.run_stochastic": _count_overflow,
    "dynamics.run_population": _count_overflow,
}


def _rebind(original, replacement) -> None:
    """Point every ttalab.* name bound to `original` at `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "ttalab" or mod_name.startswith("ttalab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _traced_loss(tracer: Tracer, loss):
    if getattr(loss.dpsi, "__wrapped__", None) is not None:
        return loss
    try:
        return dataclasses.replace(
            loss,
            dpsi=tracer.wrap("losses.dpsi", loss.dpsi, _count_evals("losses.dpsi.evals")),
            ddpsi=tracer.wrap("losses.ddpsi", loss.ddpsi, _count_evals("losses.ddpsi.evals")),
        )
    except (TypeError, ValueError, AttributeError):
        return loss


def _wrap_factory(tracer: Tracer, factory):
    def traced_factory(*args, **kwargs):
        result = factory(*args, **kwargs)
        if isinstance(result, list):
            return [_traced_loss(tracer, loss) for loss in result]
        return _traced_loss(tracer, result)

    traced_factory.__wrapped__ = factory
    return traced_factory


def install(package) -> Tracer:
    """Wrap the traced functions of an imported ttalab package; return the tracer."""
    tracer = Tracer()
    for mod_name, fn_name in SPANS:
        module = sys.modules.get(f"{package.__name__}.{mod_name}")
        original = getattr(module, fn_name, None)
        if callable(original):
            name = f"{mod_name}.{fn_name}"
            _rebind(original, tracer.wrap(name, original, _COUNTERS.get(name)))
    losses = sys.modules.get(f"{package.__name__}.losses")
    for fn_name in LOSS_FACTORIES:
        original = getattr(losses, fn_name, None)
        if callable(original):
            _rebind(original, _wrap_factory(tracer, original))
    return tracer


def layer_metrics(tracer: Tracer, warnings_caught: int, bytes_written: int) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    metrics: dict = {}
    for mod_name, fn_name in SPANS + (("losses", "dpsi"), ("losses", "ddpsi")):
        name = f"{mod_name}.{fn_name}"
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
    metrics.update(tracer.counts)
    for key in ("model.sample_batch.rows", "losses.dpsi.evals", "losses.ddpsi.evals",
                "dynamics.overflow_stops"):
        metrics.setdefault(key, 0)
    expectations = tracer.calls["dynamics.expectation_terms"]
    evals = metrics["losses.dpsi.evals"] + metrics["losses.ddpsi.evals"]
    metrics["dynamics.evals_per_expectation"] = evals / expectations if expectations else 0.0
    metrics["dynamics.quad_warnings"] = warnings_caught
    metrics["serialize.bytes_written"] = bytes_written
    return metrics


def write_spans(tracer: Tracer, path) -> None:
    """Write the recorded spans as CSV: id,parent,name,start_s,end_s."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,start_s,end_s\n")
        for span_id, parent, name, start, end in sorted(tracer.spans):
            fh.write(f"{span_id},{parent},{name},{start!r},{end!r}\n")
