"""End-to-end orchestration: world building, replicates, error reports.

A replicate is two statistically independent passes of the noisy
pipeline over one fixed world (seeds 2r and 2r+1 off the config seed)
plus one swapped release.  Two passes per replicate is the minimum that
identifies the post-processing run variance, which every downstream
interval needs.  The two passes share only the world, so pass b runs in a
forked worker, which writes pass b's files and sends back only its error,
if any, and its log records, while this process runs pass a and the swap.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import logging
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import geo
from .config import RunConfig
from .errors import ParameterError
from .estimators import (
    BiasEstimate,
    MseEstimate,
    dataset_stat_table,
    estimate_bias_indep,
    estimate_bias_swap,
    estimate_mse,
    nmf_rmse_exact,
    noisy_stat_table,
    pool_replicates,
    selection_for_level,
)
from .histograms import (
    AggregationMatrix,
    DESK_SCHEMA,
    HistogramDataset,
    default_statistics,
    generate_synthetic_cef,
)
from .noise import NoisyMeasurements, QueryMatrix, make_noisy_measurements
from .swapping import (
    HouseholdFile,
    SwapConfig,
    SwapStats,
    make_household_file,
    swap_households,
)
from .topdown import resolve_invariants, topdown_postprocess


@dataclass
class World:
    """One synthetic universe plus the query design applied to it."""

    config: RunConfig
    spine: geo.Spine
    cef: HistogramDataset
    query: QueryMatrix
    agg: AggregationMatrix


def build_world(cfg: RunConfig) -> World:
    """The world of a config; CoverageError unless the configured query
    groups can measure every report statistic, ParameterError unless the
    spine has units at every report level, and the post-processing's
    errors if its invariants and exact queries cannot be resolved."""
    q = QueryMatrix(DESK_SCHEMA, cfg.budget, cfg.query_groups)
    agg = default_statistics(DESK_SCHEMA)
    q.check_coverage(agg, cfg.report.statistics)
    resolve_invariants(cfg.postprocess, agg, q)
    spine = geo.make_synthetic_spine(cfg.spine, cfg.seed)
    check_report_levels(spine, cfg.report.levels)
    cef = generate_synthetic_cef(spine, cfg.seed, cfg.population)
    return World(cfg, spine, cef, q, agg)


def check_report_levels(spine: geo.Spine, levels: Sequence[geo.GeoLevel]) -> None:
    """ParameterError naming the first report level without units on the spine."""
    for level in levels:
        if not spine.units_at(level):
            raise ParameterError(f"report level {level.value} has no units on this spine")


def replicate_seeds(base_seed: int, index: int) -> tuple[int, int]:
    return base_seed + 2 * index, base_seed + 2 * index + 1


@dataclass
class Replicate:
    """What the error report reads of one replicate, in memory or off disk."""

    nms_a: NoisyMeasurements
    post_a: HistogramDataset
    post_b: HistogramDataset
    swapped: HistogramDataset


def swap_release(
    cef: HistogramDataset, cfg: SwapConfig, seed: int
) -> tuple[HouseholdFile, SwapStats, HistogramDataset]:
    """Decompose the enumeration into households, swap them, and rebuild
    the swapped block histograms."""
    swapped, stats = swap_households(make_household_file(cef, seed), cfg, seed)
    return swapped, stats, swapped.to_dataset(kind="swapped", run_seed=seed)


# emit(run, nms, post): one run's measurements and release, run "a" or "b"
Emit = Callable[[str, NoisyMeasurements, HistogramDataset], None]


def run_replicate(
    world: World, index: int, emit: Emit
) -> tuple[HouseholdFile, SwapStats, HistogramDataset]:
    """Replicate ``index``: each run's measurements and release go to
    ``emit(run, nms, post)`` in the process that computed them, run "a"
    here and run "b" in its worker, and run a's swap is returned as
    ``swap_release`` returns it."""
    seed_a, seed_b = replicate_seeds(world.config.seed, index)
    with _forked(f"run b of replicate {index}", _run, world, "b", seed_b, emit) as wait:
        _run(world, "a", seed_a, emit)
        swap = swap_release(world.cef, world.config.swap, seed_a)
        wait()
    return swap


def _run(world: World, run: str, seed: int, emit: Emit) -> None:
    """One run of a replicate: measure, post-process, hand both to ``emit``."""
    nms = make_noisy_measurements(world.cef, world.query, seed=seed)
    emit(run, nms, topdown_postprocess(nms, world.cef, world.config.postprocess, agg=world.agg))


# ----------------------------------------------------------------------
# forked worker


def _can_fork() -> bool:
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus > 1


@contextlib.contextmanager
def _forked(what: str, fn, *args):
    """Run ``fn(*args)`` in a forked worker while the body runs here, and
    yield a function that waits for it.  Only the worker's outcome comes
    back, pickled over a pipe: the exception ``fn`` raised, if any, and the
    worker's log records, which are handled here before the exception is
    raised; a worker that dies without an outcome is a ChildProcessError.
    Leaving the body early kills the worker, and the worker is always
    reaped.  Without fork, or with one usable CPU, ``fn`` runs inline
    when it is waited for.
    """
    if not _can_fork():
        yield lambda: fn(*args)
        return
    with _one_blas_thread():
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                # the worker emits nothing: its log records, made picklable as
                # a queue handler makes them, go back with the outcome; only
                # the worker imports logging.handlers, half a megabyte of RSS
                from logging.handlers import QueueHandler

                records, prepare = [], QueueHandler(None).prepare
                logging.Logger.callHandlers = lambda _, record: records.append(prepare(record))
                try:
                    fn(*args)
                    error = None
                except Exception as exc:
                    error = exc
                with open(write_fd, "wb") as pipe:
                    pickle.dump((error, records), pipe, pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        with open(read_fd, "rb") as pipe:
            status = None

            def wait():
                nonlocal status
                try:
                    outcome = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    outcome = None  # cut short by the worker's death
                status = os.waitpid(pid, 0)[1]
                code = os.waitstatus_to_exitcode(status)
                if code < 0:
                    raise ChildProcessError(f"the worker for {what} was killed by signal {-code}")
                if code != 0 or outcome is None:
                    raise ChildProcessError(
                        f"the worker for {what} exited with code {code} without a result")
                error, records = outcome
                for record in records:
                    logging.getLogger(record.name).handle(record)
                if error is not None:
                    raise error

            try:
                yield wait
            finally:
                if status is None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    or None when numpy has none."""
    for path in sorted(glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """One OpenBLAS thread in the body, and in any worker forked in it:
    the idle threads of two processes' pools would spin on each other's
    CPU."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# ----------------------------------------------------------------------
# report computation


def error_report(
    spine: geo.Spine,
    q: QueryMatrix,
    agg: AggregationMatrix,
    reps: list[Replicate],
    levels,
    statistics,
) -> tuple[list[dict], list[dict]]:
    """Error-report rows and absolute-difference quartile rows.

    One report row per (level, statistic, method): the method's
    selection-average bias estimate with a 95 percent interval, and its
    estimated mean squared error.  Quartiles summarize per-cell
    |release - measurement| magnitudes pooled over replicates (for the
    noisy measurements themselves: their exact per-cell RMSE).
    """
    rows: list[dict] = []
    quartiles: list[dict] = []
    for level in levels:
        for stat in statistics:
            sel = selection_for_level(spine, level, (stat,))
            # per method, one (bias, release, noisy) triple per replicate
            methods: dict[str, list] = {"topdown": [], "swap": []}
            for rep in reps:
                noisy = noisy_stat_table(rep.nms_a, q, agg, spine, sel)
                post_a = dataset_stat_table(rep.post_a, agg, sel)
                post_b = dataset_stat_table(rep.post_b, agg, sel)
                swapped = dataset_stat_table(rep.swapped, agg, sel)
                methods["topdown"].append(
                    (estimate_bias_indep(noisy, post_b, post_a), post_b, noisy))
                methods["swap"].append((estimate_bias_swap(swapped, noisy), swapped, noisy))

            table = []  # (method, bias, raw MSE, RMSE, per-cell error magnitudes)
            for method, items in methods.items():
                raw_mse = float(np.mean([estimate_mse(release, noisy).raw
                                         for _, release, noisy in items]))
                table.append((method, pool_replicates([bias for bias, _, _ in items]), raw_mse,
                              MseEstimate(raw_mse, len(sel)).rmse,
                              np.concatenate([np.abs(release.values - noisy.values)
                                              for _, release, noisy in items])))
            # the measurements' error is known exactly: the budget sets their
            # variances, the same in every replicate, so the first one's are read
            _, _, first_noisy = methods["topdown"][0]
            rmse = nmf_rmse_exact(first_noisy)
            table.append(("nmf", BiasEstimate(0.0, 0.0, len(sel)), rmse**2, rmse,
                          np.sqrt(first_noisy.variances)))
            for entry in table:
                row, quartile = _method_rows(level, stat, *entry)
                rows.append(row)
                quartiles.append(quartile)
    return rows, quartiles


def _method_rows(level: geo.GeoLevel, stat: str, method: str, bias: BiasEstimate,
                 raw_mse: float, rmse: float, magnitudes: np.ndarray) -> tuple[dict, dict]:
    """One method's error-report row and its quartile row of ``magnitudes``."""
    ci_lo, ci_hi = bias.ci95
    q25, q50, q75 = np.percentile(magnitudes, [25.0, 50.0, 75.0])
    return (
        {"level": level.value, "statistic": stat, "bin": "all", "method": method,
         "estimate": bias.estimate, "variance": bias.variance, "ci_lo": ci_lo, "ci_hi": ci_hi,
         "raw_mse": raw_mse, "rmse": rmse, "n": bias.n_cells},
        {"level": level.value, "statistic": stat, "method": method,
         "q25": float(q25), "q50": float(q50), "q75": float(q75), "n": int(magnitudes.size)},
    )
