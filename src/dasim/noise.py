"""Discrete Gaussian noise, per-geography query measurements, and
inverse-variance combination into statistics for arbitrary targets.

Every optimized-spine geography is measured by the same query set: one
counting query per histogram cell ("detail"), a total-population query,
and one marginal query per category of every schema axis.  Each query
answer is the exact count plus integer discrete Gaussian noise whose
variance comes from a per-level budget schedule.  A statistic for any
composable target is then assembled by summing measurements over the
target's composition parts, combining alternative query paths within
each part by an inverse-variance-weighted mean.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import geo
from .errors import (
    CoverageError,
    EmptyInput,
    ParameterError,
    SchemaError,
)
from .histograms import AggregationMatrix, CellSchema, HistogramDataset

QUERY_GROUPS = ("detail", "total", "marginal")

# Round-number default noise variances by spine level, identical across
# query groups; block measurements are by far the noisiest.
DEFAULT_BUDGET = {
    geo.GeoLevel.BLOCK: 100.0,
    geo.GeoLevel.OPT_BLOCKGROUP: 64.0,
    geo.GeoLevel.TRACT: 36.0,
    geo.GeoLevel.COUNTY: 16.0,
    geo.GeoLevel.STATE: 9.0,
    geo.GeoLevel.NATION: 4.0,
}


# ----------------------------------------------------------------------
# exact integer noise


def _dgauss_batch(sigma2: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized rejection sampler for the discrete Gaussian.

    Proposal: two-sided geometric (discrete Laplace) with integer scale
    t = floor(sqrt(sigma2)) + 1, built as the difference of two iid
    geometrics.  A proposal y is kept with probability
    exp(-(|y| - sigma2/t)^2 / (2 sigma2)), which tilts the Laplace tail
    into exp(-y^2 / (2 sigma2)) exactly.
    """
    t = int(np.floor(np.sqrt(sigma2))) + 1
    p = float(-np.expm1(-1.0 / t))
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        m = int((size - filled) * 1.8) + 16
        y = (rng.geometric(p, size=m) - rng.geometric(p, size=m)).astype(np.int64)
        log_keep = -((np.abs(y) - sigma2 / t) ** 2) / (2.0 * sigma2)
        acc = y[np.log(rng.random(m)) < log_keep]
        take = min(acc.size, size - filled)
        out[filled : filled + take] = acc[:take]
        filled += take
    return out


def sample_discrete_gaussian(variance: float, rng: np.random.Generator) -> int:
    """One exact draw from the integer-valued centered discrete Gaussian."""
    if variance < 0:
        raise ParameterError(f"variance must be non-negative, got {variance}")
    if variance == 0:
        return 0
    return int(_dgauss_batch(float(variance), 1, rng)[0])


def sample_discrete_gaussian_array(
    variance: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vector of iid discrete Gaussian draws."""
    if variance < 0:
        raise ParameterError(f"variance must be non-negative, got {variance}")
    if variance == 0:
        return np.zeros(size, dtype=np.int64)
    return _dgauss_batch(float(variance), int(size), rng)


def node_seed(seed: int, node_id: str) -> np.random.SeedSequence:
    """Independent, order-insensitive RNG stream for one geography."""
    digest = hashlib.blake2b(node_id.encode(), digest_size=8).digest()
    return np.random.SeedSequence(
        entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=(int.from_bytes(digest, "big"),),
    )


# ----------------------------------------------------------------------
# query matrices and budget schedules


@dataclass(frozen=True)
class BudgetSchedule:
    """Noise variance per (spine level, query group).

    Accepts either one number per level or a full per-group mapping.
    Zero marks an exact (unnoised) query group.
    """

    table: Mapping[geo.GeoLevel, Mapping[str, float]]

    @classmethod
    def uniform(cls, per_level: Mapping[geo.GeoLevel, float]) -> "BudgetSchedule":
        return cls({lv: {g: float(v) for g in QUERY_GROUPS} for lv, v in per_level.items()})

    @classmethod
    def constant(cls, variance: float) -> "BudgetSchedule":
        return cls.uniform({lv: variance for lv in geo.NMF_LEVEL_ORDER})

    @classmethod
    def default(cls) -> "BudgetSchedule":
        return cls.uniform(DEFAULT_BUDGET)

    def __post_init__(self) -> None:
        for lv, groups in self.table.items():
            for g, v in groups.items():
                if g not in QUERY_GROUPS:
                    raise ParameterError(f"unknown query group {g!r}")
                if v < 0:
                    raise ParameterError(f"negative variance for {lv.value}/{g}")

    def variance(self, level: geo.GeoLevel, group: str) -> float:
        try:
            return float(self.table[level][group])
        except KeyError:
            raise ParameterError(
                f"budget schedule has no entry for {level.value}/{group}"
            ) from None


class QueryMatrix:
    """The per-geography query workload over a cell schema.

    Rows are 0/1 vectors over cells.  ``groups`` selects which of the
    three query families are asked; detail queries make every statistic
    derivable and are part of the default workload.
    """

    def __init__(
        self,
        schema: CellSchema,
        budget: Optional[BudgetSchedule] = None,
        groups: Sequence[str] = QUERY_GROUPS,
    ):
        for g in groups:
            if g not in QUERY_GROUPS:
                raise ParameterError(f"unknown query group {g!r}")
        if len(set(groups)) != len(groups) or not groups:
            raise ParameterError("query groups must be a non-empty set")
        self.schema = schema
        self.budget = budget or BudgetSchedule.default()
        self.groups = tuple(groups)

        size = schema.size
        shape = schema.shape
        ids: list[str] = []
        row_groups: list[str] = []
        rows: list[np.ndarray] = []
        if "detail" in self.groups:
            for i in range(size):
                e = np.zeros(size, dtype=np.int8)
                e[i] = 1
                ids.append(f"cell_{i}")
                row_groups.append("detail")
                rows.append(e)
        if "total" in self.groups:
            ids.append("total")
            row_groups.append("total")
            rows.append(np.ones(size, dtype=np.int8))
        if "marginal" in self.groups:
            for ai, (name, card) in enumerate(schema.axes):
                grid = np.indices(shape)[ai].reshape(size)
                for v in range(card):
                    ids.append(f"marginal_{name}_{v}")
                    row_groups.append("marginal")
                    rows.append((grid == v).astype(np.int8))
        self.row_ids = tuple(ids)
        self.row_groups = tuple(row_groups)
        self.matrix = np.array(rows, dtype=np.int8)
        self._row_of = {rid: i for i, rid in enumerate(ids)}
        self._detail_rows = np.array(
            [self._row_of.get(f"cell_{i}", -1) for i in range(size)], dtype=np.int64
        )

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    def variances_for(self, level: geo.GeoLevel) -> np.ndarray:
        by_group = {g: self.budget.variance(level, g) for g in self.groups}
        return np.array([by_group[g] for g in self.row_groups])

    def paths_for_row(self, stat_row: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every way to assemble one statistic from query rows.

        Returns (row_indices, coefficients) pairs; the statistic equals
        coefficients . measurements[row_indices] in expectation.  Raises
        CoverageError when no path exists under the configured groups.
        """
        stat_row = np.asarray(stat_row)
        if stat_row.shape != (self.schema.size,):
            raise SchemaError("statistic row does not match the schema")
        paths: list[tuple[np.ndarray, np.ndarray]] = []
        if "detail" in self.groups:
            support = np.nonzero(stat_row)[0]
            paths.append((self._detail_rows[support], stat_row[support].astype(float)))
        is_indicator = bool(((stat_row == 0) | (stat_row == 1)).all())
        if "total" in self.groups and is_indicator and bool((stat_row == 1).all()):
            paths.append((np.array([self._row_of["total"]]), np.array([1.0])))
        if "marginal" in self.groups and is_indicator:
            shaped = stat_row.reshape(self.schema.shape)
            axes = tuple(range(len(self.schema.shape)))
            for ai, (name, card) in enumerate(self.schema.axes):
                others = tuple(a for a in axes if a != ai)
                lo = shaped.min(axis=others)
                hi = shaped.max(axis=others)
                if (lo == hi).all():
                    values = np.nonzero(lo)[0]
                    idx = np.array(
                        [self._row_of[f"marginal_{name}_{v}"] for v in values]
                    )
                    paths.append((idx, np.ones(len(values))))
        if not paths:
            raise CoverageError("statistic is not derivable from the configured queries")
        return paths

    def check_coverage(self, agg: AggregationMatrix,
                       labels: Optional[Sequence[str]] = None) -> None:
        """Raise CoverageError unless every statistic (or every one named
        in ``labels``) has a query path."""
        for label in agg.labels if labels is None else labels:
            try:
                self.paths_for_row(agg.row(label))
            except CoverageError:
                raise CoverageError(
                    f"statistic {label!r} is not derivable from query groups {self.groups}"
                ) from None


# ----------------------------------------------------------------------
# noisy measurements


@dataclass(frozen=True)
class NoisyMeasurementSet:
    """All noisy query answers for one optimized-spine geography."""

    node_id: str
    values: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        s = np.asarray(self.variances, dtype=float)
        if v.shape != s.shape or v.ndim != 1:
            raise ParameterError("values and variances must be aligned vectors")
        if not np.isfinite(s).all() or (s < 0).any():
            raise ParameterError("query variances must be finite and non-negative")
        object.__setattr__(self, "values", v.astype(np.int64))
        object.__setattr__(self, "variances", s)


class NoisyMeasurements(Mapping[str, NoisyMeasurementSet]):
    """Mapping of node id -> measurement set, with run provenance."""

    def __init__(
        self,
        per_node: Mapping[str, NoisyMeasurementSet],
        query: QueryMatrix,
        seed: Optional[int],
    ):
        self._per_node = dict(per_node)
        self.query = query
        self.seed = seed

    def __getitem__(self, node_id: str) -> NoisyMeasurementSet:
        return self._per_node[node_id]

    def __iter__(self):
        return iter(self._per_node)

    def __len__(self) -> int:
        return len(self._per_node)


def make_noisy_measurements(
    cef: HistogramDataset,
    q: QueryMatrix,
    seed: int,
    nodes: Optional[Iterable[str]] = None,
) -> NoisyMeasurements:
    """Measure every optimized-spine geography with fresh integer noise.

    Noise streams are keyed by (seed, node id), so measurements are
    independent across geographies and reproducible regardless of the
    order nodes are generated in.  ``nodes`` restricts generation to a
    subset without changing any node's draws.
    """
    if nodes is None:
        node_list = [n for lv in geo.NMF_LEVEL_ORDER for n in cef.spine.nodes_at(lv)]
    else:
        node_list = sorted(set(nodes), key=lambda n: (len(n), n))
        for n in node_list:
            if not cef.spine.has_node(n):
                raise ParameterError(f"unknown spine node {n!r}")
    out: dict[str, NoisyMeasurementSet] = {}
    for node in node_list:
        level = geo.node_level(node)
        exact = q.matrix.astype(np.int64) @ cef.node_histogram(node)
        variances = q.variances_for(level)
        rng = np.random.default_rng(node_seed(seed, node))
        noise = np.zeros(q.n_rows, dtype=np.int64)
        for v in np.unique(variances):
            if v > 0:
                mask = variances == v
                noise[mask] = sample_discrete_gaussian_array(float(v), int(mask.sum()), rng)
        out[node] = NoisyMeasurementSet(node, exact + noise, variances)
    return NoisyMeasurements(out, q, int(seed))


# ----------------------------------------------------------------------
# combination


def combine_estimates(
    estimates: Sequence[tuple[float, float]]
) -> tuple[float, float]:
    """Inverse-variance-weighted mean of independent unbiased estimates.

    Output variance 1 / sum(1/v_i) never exceeds the smallest input
    variance.  Raises EmptyInput on an empty list and ParameterError on
    non-positive variances.
    """
    if len(estimates) == 0:
        raise EmptyInput("no estimates to combine")
    values = np.array([e[0] for e in estimates], dtype=float)
    variances = np.array([e[1] for e in estimates], dtype=float)
    if (variances <= 0).any() or not np.isfinite(variances).all():
        raise ParameterError("combination requires finite positive variances")
    weights = 1.0 / variances
    return float((weights * values).sum() / weights.sum()), float(1.0 / weights.sum())


@dataclass(frozen=True)
class StatEstimate:
    """A combined noisy estimate of one statistic for one geography."""

    geography: str
    statistic: str
    value: float
    variance: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.variance) or self.variance < 0:
            raise ParameterError("estimate variance must be finite and non-negative")


def nm_statistics(
    nms: Mapping[str, NoisyMeasurementSet],
    q: QueryMatrix,
    agg: AggregationMatrix,
    spine: geo.Spine,
    target: geo.GeoId,
    paths: Optional[Mapping[str, list]] = None,
) -> list[StatEstimate]:
    """Unbiased noisy statistics for any composable target.

    Within each composition part, every query path to a statistic is
    combined by inverse-variance weighting (an exact, zero-variance path
    short-circuits the combination); part estimates then add, and so do
    their variances, because parts are disjoint geographies with
    independent noise.  ``paths`` maps labels to their
    ``q.paths_for_row``, so that a caller measuring many targets finds
    them once; only those statistics are returned then, in its order.
    """
    comp = geo.compose_target(spine, target)
    if paths is None:
        paths = {label: q.paths_for_row(row) for label, row in zip(agg.labels, agg.matrix)}
    parts = []
    for part in comp.parts:
        if part not in nms:
            raise CoverageError(
                f"no measurements for composition part {part!r} of "
                f"{target.level.value} {target.code}"
            )
        parts.append(nms[part])
    out: list[StatEstimate] = []
    for label, label_paths in paths.items():
        value = 0.0
        variance = 0.0
        for ms in parts:
            cands = [(float(coef @ ms.values[idx]), float((coef ** 2) @ ms.variances[idx]))
                     for idx, coef in label_paths]
            exact = [c for c in cands if c[1] == 0.0]
            pv, pvar = exact[0] if exact else combine_estimates(cands)
            value += pv
            variance += pvar
        out.append(StatEstimate(target.code, label, value, variance))
    return out
