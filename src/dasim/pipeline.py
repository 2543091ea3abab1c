"""End-to-end orchestration: world building, replicates, error reports.

A replicate is two statistically independent passes of the noisy
pipeline over one fixed world (seeds 2r and 2r+1 off the config seed)
plus one swapped release.  Two passes per replicate is the minimum that
identifies the post-processing run variance, which every downstream
interval needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geo
from .config import RunConfig
from .estimators import (
    dataset_stat_table,
    estimate_bias_indep,
    estimate_bias_swap,
    estimate_mse,
    nmf_rmse_exact,
    noisy_stat_table,
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
    groups can measure every report statistic, and the post-processing's
    errors if its invariants cannot be resolved."""
    q = QueryMatrix(DESK_SCHEMA, cfg.budget, cfg.query_groups)
    agg = default_statistics(DESK_SCHEMA)
    q.check_coverage(agg, cfg.report.statistics)
    resolve_invariants(cfg.postprocess, agg)
    spine = geo.make_synthetic_spine(cfg.spine, cfg.seed)
    cef = generate_synthetic_cef(spine, cfg.seed, cfg.population)
    return World(cfg, spine, cef, q, agg)


def replicate_seeds(base_seed: int, index: int) -> tuple[int, int]:
    return base_seed + 2 * index, base_seed + 2 * index + 1


@dataclass
class Replicate:
    """Everything one replicate produced, in memory or off disk."""

    index: int
    seed_a: int
    seed_b: int
    nms_a: NoisyMeasurements
    nms_b: NoisyMeasurements
    post_a: HistogramDataset
    post_b: HistogramDataset
    swapped: HistogramDataset
    households: HouseholdFile | None = None
    swap_stats: SwapStats | None = None


def swap_release(
    cef: HistogramDataset, cfg: SwapConfig, seed: int
) -> tuple[HouseholdFile, SwapStats, HistogramDataset]:
    """Decompose the enumeration into households, swap them, and rebuild
    the swapped block histograms."""
    swapped, stats = swap_households(make_household_file(cef, seed), cfg, seed)
    return swapped, stats, swapped.to_dataset(kind="swapped", run_seed=seed)


def run_replicate(world: World, index: int) -> Replicate:
    cfg = world.config
    seed_a, seed_b = replicate_seeds(cfg.seed, index)
    nms_a = make_noisy_measurements(world.cef, world.query, seed=seed_a)
    nms_b = make_noisy_measurements(world.cef, world.query, seed=seed_b)
    post_a = topdown_postprocess(nms_a, world.cef, cfg.postprocess, agg=world.agg)
    post_b = topdown_postprocess(nms_b, world.cef, cfg.postprocess, agg=world.agg)
    swapped_file, stats, swapped = swap_release(world.cef, cfg.swap, seed_a)
    return Replicate(
        index=index,
        seed_a=seed_a,
        seed_b=seed_b,
        nms_a=nms_a,
        nms_b=nms_b,
        post_a=post_a,
        post_b=post_b,
        swapped=swapped,
        households=swapped_file,
        swap_stats=stats,
    )


# ----------------------------------------------------------------------
# report computation


def _combine_replicates(estimates: list[float], variances: list[float]) -> tuple[float, float]:
    """Equal-weight pooling of iid replicate estimates."""
    r = len(estimates)
    return float(np.mean(estimates)), float(np.sum(variances)) / r**2


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
            td_est, td_var, td_mse = [], [], []
            sw_est, sw_var, sw_mse = [], [], []
            td_abs, sw_abs, nm_rmse_cells = [], [], None
            nm_rmse = 0.0
            for rep in reps:
                noisy_a = noisy_stat_table(rep.nms_a, q, agg, spine, sel)
                table_a = dataset_stat_table(rep.post_a, agg, sel)
                table_b = dataset_stat_table(rep.post_b, agg, sel)
                table_sw = dataset_stat_table(rep.swapped, agg, sel)
                best = estimate_bias_indep(noisy_a, table_b, table_a)
                td_est.append(best.estimate)
                td_var.append(best.variance)
                td_mse.append(estimate_mse(table_b, noisy_a).raw)
                sbest = estimate_bias_swap(table_sw, noisy_a)
                sw_est.append(sbest.estimate)
                sw_var.append(sbest.variance)
                sw_mse.append(estimate_mse(table_sw, noisy_a).raw)
                td_abs.append(np.abs(table_b.values - noisy_a.values))
                sw_abs.append(np.abs(table_sw.values - noisy_a.values))
                nm_rmse = nmf_rmse_exact(noisy_a)
                nm_rmse_cells = np.sqrt(noisy_a.variances)

            n = len(sel)
            for method, ests, variances, mses in (
                ("topdown", td_est, td_var, td_mse),
                ("swap", sw_est, sw_var, sw_mse),
            ):
                est, var = _combine_replicates(ests, variances)
                half = 1.96 * float(np.sqrt(max(var, 0.0)))
                raw_mse = float(np.mean(mses))
                rows.append(
                    {
                        "level": level.value,
                        "statistic": stat,
                        "bin": "all",
                        "method": method,
                        "estimate": est,
                        "variance": var,
                        "ci_lo": est - half,
                        "ci_hi": est + half,
                        "raw_mse": raw_mse,
                        "rmse": float(np.sqrt(max(raw_mse, 0.0))),
                        "n": n,
                    }
                )
            rows.append(
                {
                    "level": level.value,
                    "statistic": stat,
                    "bin": "all",
                    "method": "nmf",
                    "estimate": 0.0,
                    "variance": 0.0,
                    "ci_lo": 0.0,
                    "ci_hi": 0.0,
                    "raw_mse": nm_rmse**2,
                    "rmse": nm_rmse,
                    "n": n,
                }
            )
            for method, pools in (
                ("topdown", td_abs),
                ("swap", sw_abs),
                ("nmf", [nm_rmse_cells]),
            ):
                pooled = np.concatenate(pools)
                q25, q50, q75 = np.percentile(pooled, [25.0, 50.0, 75.0])
                quartiles.append(
                    {
                        "level": level.value,
                        "statistic": stat,
                        "method": method,
                        "q25": float(q25),
                        "q50": float(q50),
                        "q75": float(q75),
                        "n": int(pooled.size),
                    }
                )
    return rows, quartiles
