"""Span recorder for the traced run.

Each layer's public function is wrapped under the name its caller looks
it up by, and every call records one span: name, start, end, parent span
and the op it belongs to.  Nothing under ``src/`` changes; the wrappers
are installed on module attributes only while a traced op (or set-up)
runs, and the originals are put back afterwards, so untraced ops run the
program exactly as users do.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import logging
import os
import statistics
import time

# (module, attribute, span name).  The module is the caller's: the
# pipeline imports topdown_postprocess by name, so its calls go through
# dasim.pipeline.topdown_postprocess, while the calibration loop calls
# dasim.topdown.topdown_postprocess the way verify check 3 does.
WRAPS = (
    ("dasim.cli", "cmd_simulate", "cli.simulate"),
    ("dasim.cli", "build_world", "pipeline.build_world"),
    ("dasim.cli", "run_replicate", "pipeline.run_replicate"),
    ("dasim.cli", "write_schema_json", "artifacts.write"),
    ("dasim.cli", "write_geocodes_csv", "artifacts.write"),
    ("dasim.cli", "write_histogram_csv", "artifacts.write"),
    ("dasim.cli", "write_nmf_csv", "artifacts.write"),
    ("dasim.cli", "write_households_csv", "artifacts.write"),
    ("dasim.cli", "write_manifest", "artifacts.manifest"),
    ("dasim.pipeline", "build_world", "pipeline.build_world"),
    ("dasim.geo", "make_synthetic_spine", "geo.spine"),
    ("dasim.pipeline", "generate_synthetic_cef", "histograms.cef"),
    ("dasim.pipeline", "make_noisy_measurements", "noise.measure"),
    ("dasim.pipeline", "topdown_postprocess", "topdown.postprocess"),
    ("dasim.pipeline", "make_household_file", "swapping.households"),
    ("dasim.pipeline", "swap_households", "swapping.swap"),
    ("dasim.swapping", "HouseholdFile.to_dataset", "swapping.rebuild"),
    ("dasim.noise", "make_noisy_measurements", "noise.measure"),
    ("dasim.topdown", "topdown_postprocess", "topdown.postprocess"),
    ("dasim.estimators", "noisy_stat_table", "estimators.noisy_table"),
    ("dasim.estimators", "dataset_stat_table", "estimators.dataset_table"),
    ("dasim.estimators", "estimate_bias_indep", "estimators.estimate"),
    ("dasim.estimators", "estimate_mse", "estimators.estimate"),
    ("dasim.estimators", "nm_statistics", "noise.nm_statistics"),
    ("dasim.noise", "QueryMatrix.paths_for_row", "noise.paths_for_row"),
    ("dasim.geo", "compose_target", "geo.compose"),
)

LAYERS = ("cli", "pipeline", "geo", "histograms", "noise", "topdown",
          "swapping", "estimators", "artifacts")

# inclusive seconds per traced op, under the metric name <span>_s
TIMED = ("cli.simulate", "pipeline.run_replicate", "topdown.postprocess",
         "noise.measure", "noise.nm_statistics", "geo.compose",
         "estimators.noisy_table", "estimators.dataset_table",
         "estimators.estimate", "swapping.households", "swapping.swap",
         "swapping.rebuild", "artifacts.write", "artifacts.manifest")
# calls per traced op, under the metric name <span>_calls
COUNTED = ("topdown.postprocess", "noise.measure", "noise.nm_statistics",
           "noise.paths_for_row", "geo.compose")
# inclusive seconds per set-up, from the spans of the set-up phase
SETUP_TIMED = ("pipeline.build_world", "geo.spine", "histograms.cef")

SETUP = "setup"


class MissingName(RuntimeError):
    """A wrapped public name no longer exists where its caller finds it."""


class _CountRecords(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *outer, leaf = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, leaf, None)):
        raise MissingName(f"traced name {module}.{attr} does not exist")
    return owner, leaf


class Tracer:
    """Spans and counters of one traced benchmark run, kept in memory."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op, error]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.cap_hits = 0
        self._stack: list[int] = []
        self._op = SETUP
        self._targets = [(*_resolve(m, a), name) for m, a, name in WRAPS]

    @contextlib.contextmanager
    def recording(self, op):
        """Wrap every traced name while the block runs, as part of ``op``."""
        self._op = op
        handler = _CountRecords()
        topdown_log = logging.getLogger("dasim.topdown")
        topdown_log.addHandler(handler)
        originals = []
        for owner, leaf, name in self._targets:
            fn = getattr(owner, leaf)
            originals.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name))
        try:
            yield
        finally:
            for owner, leaf, fn in reversed(originals):
                setattr(owner, leaf, fn)
            topdown_log.removeHandler(handler)
            if op != SETUP:
                self.cap_hits += handler.count

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self._op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if self._op != SETUP:
                self._observe(name, args, result)
            return result

        return traced

    def _bump(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "artifacts.write":
            self._bump("bytes_written", os.path.getsize(args[1]))
        elif name == "swapping.swap":
            stats = result[1]
            self._bump("flagged", stats.n_flagged)
            self._bump("swapped", stats.n_swapped)
            self._bump("unpaired", stats.n_unpaired)

    def metrics(self, traced_ops: dict, untraced_op_s: list, n_setups: int) -> dict:
        """Per-layer metrics: ``traced_ops`` maps op index to its wall
        seconds; values are per traced op unless the name says otherwise."""
        n = len(traced_ops)
        total = {name: 0.0 for *_, name in WRAPS}
        calls = dict.fromkeys(total, 0)
        setup_total = dict.fromkeys(SETUP_TIMED, 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        covered = dict.fromkeys(traced_ops, 0.0)
        postprocess_s = []
        infeasible = 0
        for i, (name, start, end, parent, op, error) in enumerate(self.spans):
            dur = end - start
            if op == SETUP:
                if name in setup_total:
                    setup_total[name] += dur
                continue
            total[name] += dur
            calls[name] += 1
            self_s[name.split(".")[0]] += dur - child[i]
            if parent < 0:
                covered[op] += dur
            if name == "topdown.postprocess":
                postprocess_s.append(dur)
                infeasible += error == "InfeasibleConstraints"

        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        for name in SETUP_TIMED:
            put(f"{name}_s", setup_total[name] / n_setups, "s")
        for name in TIMED:
            put(f"{name}_s", total[name] / n, "s")
        for name in COUNTED:
            put(f"{name}_calls", calls[name] / n, "count")
        put("topdown.postprocess_s_p50",
            statistics.median(postprocess_s) if postprocess_s else 0.0, "s")
        put("topdown.cap_hits", self.cap_hits / n, "count")
        put("topdown.infeasible", infeasible / n, "count")
        c = self.counters
        for key in ("flagged", "swapped", "unpaired"):
            put(f"swapping.{key}", c.get(key, 0) / n, "count")
        flagged = c.get("flagged", 0)
        put("swapping.paired_ratio", c.get("swapped", 0) / flagged if flagged else 0.0,
            "ratio")
        put("artifacts.bytes_written", c.get("bytes_written", 0) / n, "B")
        for layer in LAYERS:
            put(f"self.{layer}_s", self_s[layer] / n, "s")
        coverage = [covered[op] / wall for op, wall in traced_ops.items()]
        put("trace.coverage_p50", statistics.median(coverage), "ratio")
        put("trace.coverage_min", min(coverage), "ratio")
        put("trace.overhead",
            statistics.median(traced_ops.values()) / statistics.median(untraced_op_s) - 1.0,
            "ratio")
        put("trace.spans", sum(1 for s in self.spans if s[4] != SETUP) / n, "count")
        return out

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "error")
        return [dict(zip(keys, span)) for span in self.spans]
