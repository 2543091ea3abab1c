"""Discrete Gaussian noise, per-geography query measurements, and
inverse-variance combination into statistics for arbitrary targets.

Every optimized-spine geography is measured by the same query set: each
query group partitions the cells, with one counting query per part.  An
answer is the exact count plus integer discrete Gaussian noise whose
variance comes from a per-level budget schedule.  A statistic for any
composable target is the sum over the target's composition parts of
each part's estimate: the inverse-variance-weighted mean of one path per
partition on whose parts the statistic is constant.
"""

from __future__ import annotations

import hashlib
import weakref
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
from .histograms import (
    STREAM_CHUNK,
    AggregationMatrix,
    CellSchema,
    HistogramDataset,
    streams,
)

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

# Largest variance the sampler draws exactly.  Its proposals are
# geometrics of scale t = floor(sd) + 1 that numpy computes in float64,
# so a draw is an exact integer only below 2**53; one passes it with
# probability exp(-2**53 / t), about 1e-39 for sd <= 1e14.  At sd = 1e17
# most draws are even, and past sd = 1e18 they overflow int64.
MAX_VARIANCE = 1e28

# Smallest positive variance.  TopDown weighs a query row by 1/variance,
# and a Hessian or G entry sums at most one term per row, each at most
# 2 * 2**53 (the population bound) times that weight.  With fewer than
# 2**12 rows (FULL_SCHEMA's query has 2,092) no such entry overflows
# float64 above this floor, about 4.1e-289.
MIN_VARIANCE = 2.0 ** (1 + 53 + 12) / np.finfo(float).max


def _proposal(sigma2: float) -> tuple[int, float]:
    """Integer scale t and success probability of the geometric proposal."""
    t = int(np.floor(np.sqrt(sigma2))) + 1
    return t, float(-np.expm1(-1.0 / t))


def _keep(y: np.ndarray, u: np.ndarray, sigma2: float, t: int) -> np.ndarray:
    """Which proposals y the uniforms u accept."""
    return np.log(u) < -((np.abs(y) - sigma2 / t) ** 2) / (2.0 * sigma2)


def _dgauss_fill(out: np.ndarray, filled: int, sigma2: float, rng: np.random.Generator) -> None:
    """Fill ``out[filled:]`` with further rejection rounds from ``rng``."""
    t, p = _proposal(sigma2)
    size = out.size
    while filled < size:
        m = int((size - filled) * 1.8) + 16
        y = (rng.geometric(p, size=m) - rng.geometric(p, size=m)).astype(np.int64)
        acc = y[_keep(y, rng.random(m), sigma2, t)]
        take = min(acc.size, size - filled)
        out[filled : filled + take] = acc[:take]
        filled += take


def _dgauss_streams(sigma2: float, size: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Rejection sampler for the discrete Gaussian: one row of ``size``
    draws per stream.

    Proposal: two-sided geometric (discrete Laplace) with integer scale
    t = floor(sqrt(sigma2)) + 1, built as the difference of two iid
    geometrics.  A proposal y is kept with probability
    exp(-(|y| - sigma2/t)^2 / (2 sigma2)), which tilts the Laplace tail
    into exp(-y^2 / (2 sigma2)) exactly.  Each stream draws rounds of
    about 1.8 proposals per missing draw until ``size`` are kept.  The
    first rounds of all streams are drawn and judged as one matrix; only
    the streams that come up short go on alone.
    """
    t, p = _proposal(sigma2)
    m = int(size * 1.8) + 16
    y = np.empty((len(rngs), m), dtype=np.int64)
    u = np.empty((len(rngs), m))
    for i, rng in enumerate(rngs):
        y[i] = rng.geometric(p, size=m) - rng.geometric(p, size=m)
        u[i] = rng.random(m)
    keep = _keep(y, u, sigma2, t)
    # each accepted proposal's place among its row's accepted ones
    rank = np.cumsum(keep, axis=1) - 1
    keep &= rank < size
    out = np.empty((len(rngs), size), dtype=np.int64)
    out[np.nonzero(keep)[0], rank[keep]] = y[keep]
    filled = keep.sum(axis=1)
    for i in np.flatnonzero(filled < size).tolist():
        _dgauss_fill(out[i], int(filled[i]), sigma2, rngs[i])
    return out


def _check_variance(variance: float, of: str = "") -> None:
    if not (variance == 0 or MIN_VARIANCE <= variance <= MAX_VARIANCE):
        raise ParameterError(f"variance {variance}{of} is not 0 or in "
                             f"[{MIN_VARIANCE:.3g}, {MAX_VARIANCE:g}]")


def sample_discrete_gaussian_array(
    variance: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vector of iid discrete Gaussian draws."""
    _check_variance(variance)
    if variance == 0:
        return np.zeros(size, dtype=np.int64)
    return _dgauss_streams(float(variance), int(size), [rng])[0]


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
                _check_variance(v, f" for {lv.value}/{g}")

    def variance(self, level: geo.GeoLevel, group: str) -> float:
        try:
            return float(self.table[level][group])
        except KeyError:
            raise ParameterError(
                f"budget schedule has no entry for {level.value}/{group}"
            ) from None


class QueryMatrix:
    """The per-geography query workload over a cell schema.

    Each query group is partitions of the cells, one 0/1 query row per
    part: detail is the partition into single cells, total the one with
    one part, and marginal one partition per schema axis, by category.
    ``groups`` selects the groups asked; detail queries make every
    statistic derivable and are part of the default workload.
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
        # per group, each partition as every cell's part and its parts' row ids
        partitions = {
            "detail": [(np.arange(size), [f"cell_{i}" for i in range(size)])],
            "total": [(np.zeros(size, dtype=np.intp), ["total"])],
            "marginal": [(schema.categories(name), [f"marginal_{name}_{v}" for v in range(card)])
                         for name, card in schema.axes],
        }
        ids, row_groups, cell_rows = [], [], []
        # per partition: its first row, its cells in part order, where each part
        # starts in that order, and whether its rows may weigh other than 0 or 1
        self._partitions: list[tuple[int, np.ndarray, np.ndarray, bool]] = []
        for g in (g for g in QUERY_GROUPS if g in self.groups):
            for part_of, names in partitions[g]:
                order = np.argsort(part_of, kind="stable")
                starts = np.searchsorted(part_of[order], np.arange(len(names)))
                self._partitions.append((len(ids), order, starts, g == "detail"))
                cell_rows.append(len(ids) + part_of)
                ids.extend(names)
                row_groups.extend([g] * len(names))
        self.row_ids, self.row_groups = tuple(ids), tuple(row_groups)
        self.matrix = np.zeros((len(ids), size), dtype=np.int8)
        self.matrix[np.concatenate(cell_rows), np.tile(np.arange(size), len(cell_rows))] = 1
        self.matrix.flags.writeable = False
        # the one source of every measurement's variance: a (spine level
        # x query row) table in NMF_LEVEL_ORDER, fixed by the budget
        by_group = np.array([[self.budget.variance(lv, g) for g in self.groups]
                             for lv in geo.NMF_LEVEL_ORDER])
        self.variances = by_group[:, [self.groups.index(g) for g in row_groups]]
        self.variances.flags.writeable = False
        self._noise_groups = {
            lv: [(float(v), np.flatnonzero(row == v)) for v in np.unique(row) if v > 0]
            for lv, row in zip(geo.NMF_LEVEL_ORDER, self.variances)
        }
        self._statistics: dict[bytes, tuple[np.ndarray, dict]] = {}  # by int64 row bytes

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    def variances_for(self, level: geo.GeoLevel) -> np.ndarray:
        """Variance of each query row at one optimized-spine level."""
        return self.variances[geo.NMF_LEVEL_ORDER.index(level)]

    def noise_groups(self, level: geo.GeoLevel) -> list[tuple[float, np.ndarray]]:
        """The noised query rows at one level, grouped by variance: one
        (variance, rows) pair per positive variance, in ascending order."""
        return self._noise_groups[level]

    def paths_for_row(self, stat_row: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every way to assemble one statistic from query rows: one path
        per partition on whose parts the statistic is constant, with each
        part's constant as its row's coefficient and zero parts dropped.
        Only detail takes a statistic that is not 0/1.  Returns
        (row_indices, coefficients) pairs; the statistic equals
        coefficients . measurements[row_indices] in expectation.  Raises
        CoverageError when no path exists under the configured groups.
        """
        stat_row = np.asarray(stat_row)
        if stat_row.shape != (self.schema.size,):
            raise SchemaError("statistic row does not match the schema")
        is_indicator = bool(((stat_row == 0) | (stat_row == 1)).all())
        paths: list[tuple[np.ndarray, np.ndarray]] = []
        for first, order, starts, weighted in self._partitions:
            by_part = stat_row[order]
            lo = np.minimum.reduceat(by_part, starts)
            if (weighted or is_indicator) and (lo == np.maximum.reduceat(by_part, starts)).all():
                parts = np.flatnonzero(lo)
                paths.append((first + parts, lo[parts].astype(float)))
        if not paths:
            raise CoverageError("statistic is not derivable from the configured queries")
        return paths

    def _statistic(self, stat_row: np.ndarray) -> tuple[np.ndarray, dict]:
        """One statistic's paths as a (query row x path) coefficient matrix
        and each path's variance at every level, found once per row."""
        key = stat_row.tobytes()
        if key not in self._statistics:
            paths = self.paths_for_row(stat_row)
            coefs = np.zeros((self.n_rows, len(paths)))
            for k, (idx, coef) in enumerate(paths):
                coefs[idx, k] = coef
            self._statistics[key] = coefs, {
                lv: [float((coef ** 2) @ variances[idx]) for idx, coef in paths]
                for lv, variances in zip(geo.NMF_LEVEL_ORDER, self.variances)}
        return self._statistics[key]

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


@dataclass(frozen=True, eq=False)
class NoisyMeasurements:
    """Noisy query answers for a set of optimized-spine geographies.

    ``values`` is a read-only (len(nodes) x query.n_rows) int64 matrix
    whose row i answers every query for ``nodes[i]``.  No variance is
    stored: each answer's variance is ``query.variances_for`` the level
    of its node.
    """

    query: QueryMatrix
    seed: Optional[int]
    nodes: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        want = (len(self.nodes), self.query.n_rows)
        if arr.shape != want or not np.issubdtype(arr.dtype, np.integer):
            raise ParameterError(
                f"measurements must be integers of shape {want}, got {arr.dtype} {arr.shape}"
            )
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        row_of = {n: i for i, n in enumerate(self.nodes)}
        if len(row_of) != len(self.nodes):
            raise ParameterError("a node is measured twice")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_row_of", row_of)

    def rows(self, nodes: Iterable[str]) -> np.ndarray:
        """Row of each node in ``values``; CoverageError names the first
        node without measurements."""
        try:
            return np.array([self._row_of[n] for n in nodes], dtype=np.int64)
        except KeyError as exc:
            raise CoverageError(f"no measurements for node {exc.args[0]!r}") from None


def make_noisy_measurements(
    cef: HistogramDataset,
    q: QueryMatrix,
    seed: int,
    nodes: Optional[Iterable[str]] = None,
) -> NoisyMeasurements:
    """Measure every optimized-spine geography with fresh integer noise.

    Each node's noise stream has the low 64 bits of ``seed`` as its
    entropy and an 8-byte blake2b digest of the node id as its spawn key,
    so measurements are independent across geographies and reproducible
    regardless of the order nodes are generated in.  A stream draws one
    noise group after another, in ascending variance order.  ``nodes``
    restricts generation to a subset without changing any node's draws.
    The first call per (enumeration, query, subset) builds its plan, and
    later calls draw only the noise.
    """
    subset = None if nodes is None else frozenset(nodes)
    plans = _PLANS.setdefault(cef, weakref.WeakKeyDictionary()).setdefault(q, {})
    plan = plans.get(subset)
    if plan is None:
        plan = plans[subset] = _MeasurePlan(cef, q, subset)
    values = plan.exact.astype(np.int64)
    key = int(seed) & 0xFFFFFFFFFFFFFFFF
    for spawn, by_level in plan.chunks:
        rngs = streams([(key,)] * len(spawn), spawn)
        for level, rows, at in by_level:
            sub = [rngs[i] for i in at]
            for v, cols in q.noise_groups(level):
                values[rows, cols] += _dgauss_streams(v, cols.size, sub)
    return NoisyMeasurements(q, int(seed), plan.nodes, values)


# plans by enumeration, then by query, each dropped with its key, then by
# node subset
_PLANS: "weakref.WeakKeyDictionary[HistogramDataset, weakref.WeakKeyDictionary]" = (
    weakref.WeakKeyDictionary())


class _MeasurePlan:
    """What measuring ``subset`` (None for every node) of one enumeration
    with one query needs besides the noise: the node list, the exact
    answers, read-only and in the narrowest unsigned type that holds
    them, and per chunk of noisy nodes their spawn keys and their rows
    grouped by level, each with its streams' places in the chunk."""

    def __init__(self, cef: HistogramDataset, q: QueryMatrix, subset: Optional[frozenset]):
        if subset is None:
            node_list = [n for lv in geo.NMF_LEVEL_ORDER for n in cef.spine.nodes_at(lv)]
        else:
            node_list = sorted(subset, key=lambda n: (len(n), n))
            for n in node_list:
                if not cef.spine.has_node(n):
                    raise ParameterError(f"unknown spine node {n!r}")
        # every answer is at most the total population, below 2**53, so the
        # float64 product is exact; assigning it casts it back to int64
        qmat = q.matrix.T.astype(float)
        exact = np.empty((len(node_list), q.n_rows), dtype=np.int64)
        levels = [geo.node_level(n) for n in node_list]
        at_level: dict[geo.GeoLevel, list[int]] = {}
        for i, level in enumerate(levels):
            at_level.setdefault(level, []).append(i)
        for level, idx in at_level.items():
            exact[idx] = cef.node_histograms([node_list[i] for i in idx]).astype(float) @ qmat
        # kept for the whole run, so in the narrowest type that holds them
        exact = exact.astype(np.min_scalar_type(exact.max(initial=0)))
        exact.flags.writeable = False
        self.nodes, self.exact, self.chunks = tuple(node_list), exact, []
        noisy = [i for i, level in enumerate(levels) if q.noise_groups(level)]
        for start in range(0, len(noisy), STREAM_CHUNK):
            chunk = noisy[start : start + STREAM_CHUNK]
            by_level: dict[geo.GeoLevel, list[int]] = {}
            for at, i in enumerate(chunk):
                by_level.setdefault(levels[i], []).append(at)
            self.chunks.append((
                [(_digest(node_list[i]),) for i in chunk],
                [(level, np.array(chunk)[at][:, None], at) for level, at in by_level.items()],
            ))


def _digest(node_id: str) -> int:
    """The spawn key of a node's noise stream: an 8-byte blake2b digest
    of its id."""
    return int.from_bytes(hashlib.blake2b(node_id.encode(), digest_size=8).digest(), "big")


# ----------------------------------------------------------------------
# combination


def combine_estimates(values, variances) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-variance-weighted mean of independent unbiased estimates,
    taken along the last axis.

    Output variance 1 / sum(1/v_i) never exceeds the smallest input
    variance.  Raises EmptyInput on no estimates and ParameterError on
    non-positive variances.
    """
    variances = np.asarray(variances, dtype=float)
    if variances.size == 0:
        raise EmptyInput("no estimates to combine")
    if (variances <= 0).any() or not np.isfinite(variances).all():
        raise ParameterError("combination requires finite positive variances")
    weights = 1.0 / variances
    total = weights.sum(axis=-1)
    return (weights * values).sum(axis=-1) / total, 1.0 / total


def nm_statistics(
    nms: NoisyMeasurements,
    q: QueryMatrix,
    agg: AggregationMatrix,
    spine: geo.Spine,
    target: geo.GeoId,
) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased noisy statistics for any composable target, and their
    variances, in label order.

    Within each composition part, every query path to a statistic is
    combined by inverse-variance weighting (an exact, zero-variance path
    short-circuits the combination); part estimates then add, in
    composition order, and so do their variances, because parts are
    disjoint geographies with independent noise.  ``q`` must be the
    measurements' own query.  The query finds each statistic's paths
    once and the spine composes each target once, so a call repeats
    only the work on the measurements.
    """
    if q is not nms.query and (q.row_ids != nms.query.row_ids
                               or not np.array_equal(q.variances, nms.query.variances)):
        raise ParameterError("q is not the query the measurements were taken with")
    q = nms.query
    parts = geo.compose_target(spine, target)
    part_values = nms.values[nms.rows(parts)].astype(float)
    at_level: dict[geo.GeoLevel, list[int]] = {}
    for i, part in enumerate(parts):
        at_level.setdefault(geo.node_level(part), []).append(i)
    out = np.empty((len(parts), 2, len(agg.labels)))  # per part: estimates, variances
    for j, stat_row in enumerate(agg.matrix):
        coefs, path_var = q._statistic(stat_row)  # one column per path
        cands = part_values @ coefs
        for level, rows in at_level.items():
            cand_var = path_var[level]
            if 0.0 in cand_var:
                out[rows, 0, j], out[rows, 1, j] = cands[rows, cand_var.index(0.0)], 0.0
            else:
                out[rows, 0, j], out[rows, 1, j] = combine_estimates(cands[rows], cand_var)
    total = np.zeros((2, len(agg.labels)))
    for part in out:  # in composition order, one part after another
        total += part
    return total[0], total[1]
