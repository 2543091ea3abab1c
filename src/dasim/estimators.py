"""Design-based error estimators for disclosure-avoidance output.

The noisy measurements are unbiased with known variance, which makes
them a free measuring stick: differencing any release against them
yields unbiased estimates of the release's bias and mean squared error
without ever touching restricted microdata.  Two independent runs of
the noise-and-post-process pipeline additionally identify the run
variance of the release itself.

All estimators operate on aligned StatTables: one value per (target
geography, statistic) cell of a selection, each table tagged with the
run it came from so dependence bugs (reusing one run's noise twice)
are caught at call time instead of silently biasing results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import geo
from .errors import EmptyInput, ParameterError, UsageError
from .histograms import AggregationMatrix, HistogramDataset, aggregate
from .noise import NoisyMeasurements, QueryMatrix, nm_statistics

# ----------------------------------------------------------------------
# selections and stat tables


@dataclass(frozen=True)
class GeoSelection:
    """Cross product of target geographies and statistic labels."""

    targets: tuple[geo.GeoId, ...]
    statistics: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.targets or not self.statistics:
            raise EmptyInput("a selection needs at least one target and one statistic")
        if len(set(self.targets)) != len(self.targets):
            raise ParameterError("duplicate targets in selection")
        if len(set(self.statistics)) != len(self.statistics):
            raise ParameterError("duplicate statistics in selection")

    @property
    def cells(self) -> tuple[tuple[geo.GeoId, str], ...]:
        return tuple((t, s) for t in self.targets for s in self.statistics)

    def __len__(self) -> int:
        return len(self.targets) * len(self.statistics)


def selection_for_level(
    spine: geo.Spine, level: geo.GeoLevel, statistics: Sequence[str]
) -> GeoSelection:
    """Every standard-census unit at one level, same statistics each."""
    targets = tuple(
        geo.GeoId(level, code) for code in sorted(spine.units_at(level))
    )
    return GeoSelection(targets, tuple(statistics))


@dataclass(frozen=True)
class StatTable:
    """Aligned statistic values for one selection from one source."""

    kind: str
    cells: tuple[tuple[geo.GeoId, str], ...]
    values: np.ndarray
    variances: Optional[np.ndarray] = None
    run_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.cells) == 0:
            raise EmptyInput("a stat table needs at least one cell")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.cells),):
            raise ParameterError("one value per cell required")
        if self.variances is not None:
            object.__setattr__(
                self, "variances", np.asarray(self.variances, dtype=float)
            )
            if self.variances.shape != self.values.shape:
                raise ParameterError("one variance per cell required")
            if (self.variances < 0).any() or not np.isfinite(self.variances).all():
                raise ParameterError("variances must be finite and non-negative")

    def __len__(self) -> int:
        return len(self.cells)


def dataset_stat_table(
    ds: HistogramDataset, agg: AggregationMatrix, selection: GeoSelection
) -> StatTable:
    """Exact statistic values of a dataset over a selection, tagged with
    the dataset's own kind and run seed."""
    rows = [agg.labels.index(s) for s in selection.statistics]
    values = np.concatenate(
        [aggregate(ds.target_histogram(t), agg)[rows] for t in selection.targets]
    )
    return StatTable(kind=ds.kind, cells=selection.cells, values=values, run_seed=ds.run_seed)


def noisy_stat_table(
    nms: NoisyMeasurements,
    q: QueryMatrix,
    agg: AggregationMatrix,
    spine: geo.Spine,
    selection: GeoSelection,
) -> StatTable:
    """Unbiased noisy statistic values with their exact variances; ``q``
    must be the measurements' own query."""
    for s in selection.statistics:
        if s not in agg.labels:
            raise ParameterError(f"statistic {s!r} not in the aggregation matrix")
    chosen = AggregationMatrix(selection.statistics,
                               agg.matrix[[agg.labels.index(s) for s in selection.statistics]])
    values, variances = zip(*(nm_statistics(nms, q, chosen, spine, target)
                              for target in selection.targets))
    return StatTable(
        kind="noisy",
        cells=selection.cells,
        values=np.concatenate(values),
        variances=np.concatenate(variances),
        run_seed=nms.seed,
    )


def _check_aligned(*tables: StatTable) -> int:
    first = tables[0]
    for t in tables[1:]:
        if t.cells != first.cells:
            raise ParameterError("stat tables cover different selections")
    return len(first)


def _require_variances(t: StatTable) -> np.ndarray:
    if t.variances is None:
        raise ParameterError(f"a {t.kind!r} table has no variances; need a noisy table")
    return t.variances


def _require_independent(a: StatTable, b: StatTable, what: str) -> None:
    if a.run_seed is not None and a.run_seed == b.run_seed:
        raise UsageError(
            f"{what} needs independent runs, but both tables carry run seed {a.run_seed}"
        )


def _require_same_run(a: StatTable, b: StatTable, what: str) -> None:
    if a.run_seed != b.run_seed:
        raise UsageError(
            f"{what} needs same-run tables, got run seeds {a.run_seed} and {b.run_seed}"
        )


# ----------------------------------------------------------------------
# results


@dataclass(frozen=True)
class BiasEstimate:
    """Selection-average bias with an unbiased variance estimate."""

    estimate: float
    variance: float
    n_cells: int

    @property
    def se(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def ci95(self) -> tuple[float, float]:
        half = 1.96 * self.se
        return (self.estimate - half, self.estimate + half)


@dataclass(frozen=True)
class MseEstimate:
    """Selection-average squared error; raw value may go negative.

    The estimator subtracts known measurement noise, so sampling
    fluctuation can push the point estimate below zero.  The raw value
    is kept (it is the unbiased one); the clamp only affects the root.
    """

    raw: float
    n_cells: int

    @property
    def clamped(self) -> float:
        return max(self.raw, 0.0)

    @property
    def rmse(self) -> float:
        return math.sqrt(self.clamped)


# ----------------------------------------------------------------------
# bias


def estimate_bias_indep(
    noisy: StatTable, release_indep: StatTable, release_same: StatTable
) -> BiasEstimate:
    """Unbiased selection-average bias with an unbiased variance.

    ``release_indep`` must come from a different run than ``noisy``
    (their difference is then free of noise-release covariance) while
    ``release_same`` shares the noisy run; the spread between the two
    releases identifies the release's own run variance.
    """
    n = _check_aligned(noisy, release_indep, release_same)
    sigma2 = _require_variances(noisy)
    _require_independent(release_indep, noisy, "the bias estimator")
    _require_same_run(release_same, noisy, "the variance term")
    _require_independent(release_indep, release_same, "the variance term")
    est = float(np.mean(release_indep.values - noisy.values))
    spread = float((release_same.values - release_indep.values).sum())
    var = spread**2 / (2.0 * n**2) + float(sigma2.sum()) / n**2
    return BiasEstimate(estimate=est, variance=var, n_cells=n)


def estimate_bias_swap(swapped: StatTable, noisy: StatTable) -> BiasEstimate:
    """Bias of a swapped release, with a conservative variance.

    Swapping never looks at the measurement noise, so independence is
    structural and any run pairing is valid.  The variance estimate
    keeps the per-cell squared differences whole, which over-covers
    whenever the swap errors and noise do not cancel in expectation.
    """
    n = _check_aligned(swapped, noisy)
    _require_variances(noisy)
    diff = swapped.values - noisy.values
    est = float(diff.mean())
    var = float((diff**2).sum()) / n**2
    return BiasEstimate(estimate=est, variance=var, n_cells=n)


def pool_replicates(estimates: Sequence[BiasEstimate]) -> BiasEstimate:
    """Equal-weight pooling of iid replicate estimates of one selection:
    their mean, whose variance is their summed variances over R**2."""
    r = len(estimates)
    return BiasEstimate(
        estimate=float(np.mean([e.estimate for e in estimates])),
        variance=float(np.sum([e.variance for e in estimates])) / r**2,
        n_cells=estimates[0].n_cells,
    )


# ----------------------------------------------------------------------
# variance and mean squared error


def estimate_mse(release: StatTable, noisy: StatTable) -> MseEstimate:
    """Unbiased selection-average MSE: mean((release - noisy)^2 - sigma^2).

    Requires the release to be independent of the measurement noise in
    the table: a different run for post-processed releases (same-run
    input raises UsageError), automatic for swapped releases.
    """
    n = _check_aligned(release, noisy)
    sigma2 = _require_variances(noisy)
    if release.kind == "postprocessed":
        _require_independent(release, noisy, "the MSE estimator")
    diff = release.values - noisy.values
    raw = float(np.mean(diff**2 - sigma2))
    return MseEstimate(raw=raw, n_cells=n)


def nmf_rmse_exact(noisy: StatTable) -> float:
    """Root mean squared error of the noisy statistics themselves.

    No estimation involved: the noise variances are known by design, so
    the selection-average RMSE is just their mean under a root.
    """
    sigma2 = _require_variances(noisy)
    return float(np.sqrt(sigma2.mean()))


# ----------------------------------------------------------------------
# diagnostics over selections


def decile_bins(values: Mapping, k: int = 10) -> dict:
    """Quantile bin index per key, ties resolved to the lower bin.

    Keys sharing a value always share a bin: the bin of a value is
    computed from its first position in the sorted order, so equal
    values cannot straddle a bin boundary.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    if not values:
        raise EmptyInput("nothing to bin")
    ids = sorted(values, key=lambda i: values[i])
    n = len(ids)
    first_pos: dict = {}
    for pos, i in enumerate(ids):
        first_pos.setdefault(values[i], pos)
    return {i: first_pos[values[i]] * k // n for i in ids}

