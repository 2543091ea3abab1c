"""End-to-end verification checks behind the ``dasim verify`` subcommand.

Nine numbered checks exercise the guarantees the package makes: the
exact distribution of the integer noise sampler, unbiasedness of noisy
measurements over on- and off-spine geographies, calibration of the
bias, variance, and error estimators, conservativeness of the swap
variance estimate, bit-exact swap invariants, the constraint contract
of hierarchical post-processing (including an exhaustive-search
oracle), geocode handling, the error ordering between raw measurements
and the post-processed release, and sane behavior on degenerate
inputs.

Every check runs from fixed seeds, so results are reproducible.  The
statistical tolerances are sized so that a correct implementation
passes dependably while real defects (a biased sampler, a wrong
weight, a leaked invariant, a broken composition) fail by a wide
margin: means are tested at four standard errors and variance ratios
at ten percent, with Monte Carlo sample sizes chosen to make those
bands several times tighter than any plausible bug.

A check's time budget, if it has one, lives in its row of
``_CRITERIA``; ``run_all`` times every check and fails one that
reaches its budget.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import stats as _sps

from . import geo
from .config import RunConfig
from .errors import (
    EmptyInput,
    InconsistentGeocode,
    MalformedGeocode,
    ParameterError,
)
from .estimators import (
    GeoSelection,
    StatTable,
    dataset_stat_table,
    decile_bins,
    estimate_bias_indep,
    estimate_bias_swap,
    estimate_mse,
    nmf_rmse_exact,
    noisy_stat_table,
    selection_for_level,
)
from .histograms import (
    AggregationMatrix,
    CellSchema,
    DESK_SCHEMA,
    HistogramDataset,
)
from .noise import (
    BudgetSchedule,
    NoisyMeasurements,
    QueryMatrix,
    make_noisy_measurements,
    nm_statistics,
    sample_discrete_gaussian_array,
)
from .pipeline import World, build_world, swap_release
from .swapping import SwapConfig
from .topdown import PostProcessConfig, topdown_postprocess


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one numbered verification check."""

    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] check {self.number} ({self.name}): "
            f"{self.detail} [{self.seconds:.1f}s]"
        )


class _Checks:
    """Accumulates sub-check failures and pass-side diagnostics."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.notes: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def expect_rows(self, ok: np.ndarray, message: Callable[[int], str]) -> None:
        """One failure, ``message(i)``, per false entry ``ok[i]``, in order."""
        self.failures.extend(message(i) for i in np.flatnonzero(~ok))

    def note(self, message: str) -> None:
        self.notes.append(message)

    def outcome(self) -> tuple[bool, str]:
        if self.failures:
            return False, "; ".join(self.failures)
        return True, "; ".join(self.notes) if self.notes else "ok"


# ----------------------------------------------------------------------
# shared fixtures (built lazily, sized for minutes-not-hours runtimes)

# two blocks under one parent: small enough to search exhaustively
_PAIR_SCHEMA = CellSchema((("flavor", 2),))
_PAIR_AGG = AggregationMatrix(("total",), np.ones((1, 2), dtype=np.int64))

# sixteen blocks over two states: two instances of the invariant level
_TWO_STATE_SPEC = geo.SpineSpec(
    states=2,
    counties_per_state=1,
    tracts_per_county=2,
    blockgroups_per_tract=2,
    blocks_per_blockgroup=2,
    obg_size=2,
    aian_tract_prob=0.25,
    vtds_per_county=2,
    places_per_state=1,
)

# exactly two hundred blocks for the measurement unbiasedness sweep
_WIDE_SPEC = geo.SpineSpec(
    states=1,
    counties_per_state=2,
    tracts_per_county=5,
    blockgroups_per_tract=5,
    blocks_per_blockgroup=4,
    obg_size=4,
    aian_tract_prob=0.3,
    vtds_per_county=2,
    places_per_state=1,
)


@functools.cache
def _desk_world() -> World:
    """The default 24-block world at seed 7, built once and shared by
    every check that uses it, so no check may change it."""
    return build_world(RunConfig(seed=7))


def _pair_world():
    spine = geo.make_synthetic_spine(
        geo.SpineSpec(
            states=1,
            counties_per_state=1,
            tracts_per_county=1,
            blockgroups_per_tract=1,
            blocks_per_blockgroup=2,
            obg_size=2,
            aian_tract_prob=0.0,
            vtds_per_county=1,
            places_per_state=0,
        ),
        seed=11,
    )
    return spine, HistogramDataset(spine, _PAIR_SCHEMA, np.array([[2, 4], [3, 5]]),
                                   "enumeration")


def _pair_query(block_variance: float) -> QueryMatrix:
    table = {lv: {"detail": 0.0} for lv in geo.NMF_LEVEL_ORDER}
    table[geo.GeoLevel.BLOCK] = {"detail": float(block_variance)}
    return QueryMatrix(_PAIR_SCHEMA, BudgetSchedule(table), groups=("detail",))


def _pair_measurements(cef, q, block_values) -> NoisyMeasurements:
    """Hand-built measurements: exact everywhere except the two blocks."""
    nodes = [n for lv in geo.NMF_LEVEL_ORDER for n in cef.spine.nodes_at(lv)]
    values = [block_values.get(n, cef.node_histogram(n)) for n in nodes]
    return NoisyMeasurements(q, None, tuple(nodes), np.array(values, dtype=np.int64))


def _brute_force_split(parent, m1, m2):
    """Enumerate every pair of child tables summing to the parent per
    cell and return the least-squares minimizer (equal weights)."""
    best, best_obj = None, None
    for combo in itertools.product(*(range(int(c) + 1) for c in parent)):
        x1 = np.array(combo, dtype=np.int64)
        x2 = parent - x1
        obj = float(((x1 - m1) ** 2).sum() + ((x2 - m2) ** 2).sum())
        if best_obj is None or obj < best_obj - 1e-12:
            best, best_obj = (x1, x2), obj
    return best


def _dgauss_pmf(sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact pmf of the centered integer Gaussian; the support radius of
    forty standard deviations leaves truncated mass below 1e-300."""
    radius = int(math.ceil(40.0 * math.sqrt(sigma2) + 10.0))
    ks = np.arange(-radius, radius + 1)
    w = np.exp(-(ks.astype(float) ** 2) / (2.0 * sigma2))
    return ks, w / w.sum()


def _combined_variance(q: QueryMatrix, level: geo.GeoLevel, stat_row) -> float:
    """Variance of the inverse-variance path combination for one node.

    Independent re-derivation of the combination rule used by the
    measurement reader, so the two can cross-check each other.
    """
    variances = q.variances_for(level)
    inv = 0.0
    for rows, coefs in q.paths_for_row(np.asarray(stat_row)):
        path_var = float((coefs.astype(float) ** 2 * variances[rows]).sum())
        if path_var == 0.0:
            return 0.0
        inv += 1.0 / path_var
    return 1.0 / inv


# ----------------------------------------------------------------------
# check 1: the noise sampler has exactly the advertised distribution


def check_sampler_distribution() -> tuple[bool, str]:
    """Chi-square goodness of fit at four noise scales.

    One million draws per scale against the exact integer-Gaussian
    probabilities.  Integers whose expected count falls below five are
    pooled into the tails, degrees of freedom are bins minus one, and
    every test must clear p > 0.01.  A sampler with the right variance
    but the wrong shape (a rounded continuous Gaussian, for instance)
    fails this at these sample sizes.
    """
    checks = _Checks()
    draws_per = 1_000_000
    rng = np.random.default_rng(20260819)
    pvalues = []
    for sigma2 in (0.25, 1.0, 4.0, 25.0):
        x = sample_discrete_gaussian_array(sigma2, draws_per, rng)
        ks, p = _dgauss_pmf(sigma2)
        expected = p * draws_per
        keep = expected >= 5.0
        lo = int(np.argmax(keep))
        hi = len(keep) - int(np.argmax(keep[::-1]))
        # pool everything outside [ks[lo], ks[hi-1]] into the edge bins
        probs = np.concatenate(
            ([p[: lo + 1].sum()], p[lo + 1 : hi - 1], [p[hi - 1 :].sum()])
        )
        clipped = np.clip(x, ks[lo], ks[hi - 1]) - ks[lo]
        observed = np.bincount(clipped, minlength=hi - lo).astype(float)
        checks.expect(
            (probs * draws_per >= 5.0).all(),
            f"variance {sigma2}: pooled bins still expect fewer than 5 draws",
        )
        chi2 = float(((observed - probs * draws_per) ** 2 / (probs * draws_per)).sum())
        pval = float(_sps.chi2.sf(chi2, df=len(probs) - 1))
        pvalues.append(pval)
        checks.expect(
            pval > 0.01,
            f"variance {sigma2}: chi-square GOF rejected (p={pval:.4f})",
        )
    checks.note(
        f"GOF p-values {min(pvalues):.3f}..{max(pvalues):.3f} "
        f"at 4 noise scales, 1e6 draws each"
    )
    return checks.outcome()


# ----------------------------------------------------------------------
# check 2: noisy measurements are exact at zero budget and unbiased
# with correctly reported variances otherwise


def check_measurement_unbiasedness() -> tuple[bool, str]:
    """Exactness and unbiasedness of combined noisy statistics.

    On a 200-block spine: with the budget at zero, every statistic of
    every geography level reproduces the enumeration exactly with zero
    reported variance.  With the default budget, ten thousand fresh
    measurement runs of three targets (a block total, a tract Hispanic
    count, and a standard block group's voting-age count whose
    optimized-spine cover has several parts) yield standardized errors
    z = (estimate - truth) / sigma with |mean z| <= 4/sqrt(R), and
    each target's empirical noise variance (the sum of z^2) lands in
    the central 99% chi-square band, so the reported variances match
    the delivered noise.
    """
    checks = _Checks()
    world = build_world(RunConfig(seed=42, spine=_WIDE_SPEC))
    spine, cef, q, agg = world.spine, world.cef, world.query, world.agg

    # exactness: zero budget must reproduce the enumeration verbatim
    q0 = QueryMatrix(DESK_SCHEMA, BudgetSchedule.constant(0.0))
    nms0 = make_noisy_measurements(cef, q0, seed=0)
    exact_levels = (
        geo.GeoLevel.NATION,
        geo.GeoLevel.STATE,
        geo.GeoLevel.COUNTY,
        geo.GeoLevel.TRACT,
        geo.GeoLevel.BLOCKGROUP,
        geo.GeoLevel.VTD,
        geo.GeoLevel.PLACE,
        geo.GeoLevel.BLOCK,
    )
    for level in exact_levels:
        units = spine.units_at(level)
        if not units:
            checks.expect(False, f"test spine has no {level.value} units")
            continue
        target = geo.GeoId(level, sorted(units)[0])
        truth = agg.matrix @ cef.target_histogram(target)
        values, variances = nm_statistics(nms0, q0, agg, spine, target)
        for label, value, variance, want in zip(agg.labels, values, variances, truth):
            checks.expect(
                value == want and variance == 0.0,
                f"zero budget not exact at {level.value} {label}",
            )

    # unbiasedness: fixed targets, fresh noise each replicate
    block = geo.GeoId(geo.GeoLevel.BLOCK, sorted(spine.units_at(geo.GeoLevel.BLOCK))[0])
    tract = geo.GeoId(geo.GeoLevel.TRACT, sorted(spine.units_at(geo.GeoLevel.TRACT))[0])
    bgroup = None
    for code in sorted(spine.units_at(geo.GeoLevel.BLOCKGROUP)):
        gid = geo.GeoId(geo.GeoLevel.BLOCKGROUP, code)
        if len(geo.compose_target(spine, gid)) >= 2:
            bgroup = gid
            break
    checks.expect(
        bgroup is not None, "no multi-part standard block group on the test spine"
    )
    pairs = [(block, "total"), (tract, "hispanic"), (bgroup, "voting_age")]
    truths = [float(agg.row(s) @ cef.target_histogram(t)) for t, s in pairs]
    needed = set().union(*(geo.compose_target(spine, target) for target, _ in pairs))

    reps = 10_000
    z = np.empty((reps, len(pairs)))
    for r in range(reps):
        nms = make_noisy_measurements(cef, q, seed=r, nodes=needed)
        for j, ((target, stat), truth) in enumerate(zip(pairs, truths)):
            values, variances = nm_statistics(nms, q, agg, spine, target)
            i = agg.labels.index(stat)
            z[r, j] = (values[i] - truth) / math.sqrt(variances[i])

    mean_limit = 4.0 / math.sqrt(reps)
    band_lo = float(_sps.chi2.ppf(0.005, df=reps))
    band_hi = float(_sps.chi2.ppf(0.995, df=reps))
    for j, (target, stat) in enumerate(pairs):
        label = f"{target.level.value} {stat}"
        m = float(z[:, j].mean())
        checks.expect(
            abs(m) <= mean_limit,
            f"{label}: |mean z| = {abs(m):.4f} exceeds {mean_limit:.4f}",
        )
        ss = float((z[:, j] ** 2).sum())
        checks.expect(
            band_lo <= ss <= band_hi,
            f"{label}: sum z^2 = {ss:.0f} outside the 99% chi-square band "
            f"[{band_lo:.0f}, {band_hi:.0f}], reported variance does not "
            f"match delivered noise",
        )
    checks.note(
        f"exact at 8 levels under zero budget; over {reps} runs "
        f"max |mean z| = {np.abs(z.mean(axis=0)).max():.4f} "
        f"(limit {mean_limit:.4f}), max |sum z^2/R - 1| = "
        f"{np.abs((z ** 2).sum(axis=0) / reps - 1).max():.4f} "
        f"(band half-width {(band_hi - band_lo) / (2 * reps):.4f})"
    )
    return checks.outcome()


# ----------------------------------------------------------------------
# check 3: the bias, variance, and error estimators are calibrated


def check_estimator_calibration() -> tuple[bool, str]:
    """Monte Carlo calibration of the release-error estimators.

    Two thousand replicate pairs (independent measurement runs a and b,
    each post-processed) on the 24-block world, evaluated on block
    totals over half the blocks.  Blocks keep the estimator's
    independence premise exact and give the error estimator power (the
    release error at blocks is comparable to the measurement noise);
    half the blocks so the selection sum is not pinned to the state
    invariant, which would silence the release-variance term.  Three
    tolerances: the mean of the bias estimates within four standard
    errors of the empirical release bias (the replicate oracle against
    the known enumeration), the mean of the variance estimates within
    ten percent of the observed variance of the bias estimates, and
    the mean of the raw error estimates within ten percent of the
    empirical mean squared error.
    """
    checks = _Checks()
    world = _desk_world()
    spine, cef, q, agg = world.spine, world.cef, world.query, world.agg

    codes = sorted(spine.units_at(geo.GeoLevel.BLOCK))
    half = tuple(geo.GeoId(geo.GeoLevel.BLOCK, c) for c in codes[: len(codes) // 2])
    sel = GeoSelection(half, ("total",))
    truth = dataset_stat_table(cef, agg, sel).values

    reps = 2000
    pts = np.empty(reps)
    vhat = np.empty(reps)
    mse = np.empty(reps)
    pool = []
    for r in range(reps):
        nms_a = make_noisy_measurements(cef, q, seed=2 * r)
        nms_b = make_noisy_measurements(cef, q, seed=2 * r + 1)
        post_a = topdown_postprocess(nms_a, cef)
        post_b = topdown_postprocess(nms_b, cef)
        noisy_a = noisy_stat_table(nms_a, q, agg, spine, sel)
        ta = dataset_stat_table(post_a, agg, sel)
        tb = dataset_stat_table(post_b, agg, sel)
        est = estimate_bias_indep(noisy_a, tb, ta)
        pts[r] = est.estimate
        vhat[r] = est.variance
        mse[r] = estimate_mse(tb, noisy_a).raw
        pool.append(ta.values)
        pool.append(tb.values)

    released = np.array(pool)
    bias_emp = float((released.mean(axis=0) - truth).mean())
    mse_emp = float(((released - truth) ** 2).mean())

    se = float(pts.std(ddof=1)) / math.sqrt(reps)
    gap = abs(float(pts.mean()) - bias_emp)
    checks.expect(
        gap <= 4.0 * se + 1e-12,
        f"bias estimate off by {gap:.4f} (4 SE = {4 * se:.4f})",
    )

    vratio = float(vhat.mean()) / float(pts.var(ddof=1))
    checks.expect(
        0.9 <= vratio <= 1.1,
        f"variance estimate ratio {vratio:.3f} outside [0.9, 1.1]",
    )

    mratio = float(mse.mean()) / mse_emp
    checks.expect(
        0.9 <= mratio <= 1.1,
        f"raw MSE estimate ratio {mratio:.3f} outside [0.9, 1.1]",
    )

    checks.note(
        f"{reps} replicate pairs: bias gap {gap:.4f} (4 SE = {4 * se:.4f}), "
        f"variance ratio {vratio:.3f}, MSE ratio {mratio:.3f}"
    )
    return checks.outcome()


# ----------------------------------------------------------------------
# check 4: the swap variance estimate is conservative


def check_swap_variance_conservative() -> tuple[bool, str]:
    """The swap bias estimator's variance never understates the truth.

    Eight hundred independent swap runs against fresh measurement noise
    on the 24-block world, tract-level Hispanic counts.  The estimator
    keeps per-cell squared differences whole, which over-covers unless
    errors correlate positively across cells; swapping conserves
    households within the pairing scope, so cross-tract errors can only
    anticorrelate.  Both facts are measured: the mean off-diagonal
    covariance of the per-cell differences must be non-positive, and
    the mean variance estimate must be at least the observed variance
    of the bias estimates minus two Monte Carlo standard errors of
    that observed variance.
    """
    checks = _Checks()
    world = _desk_world()
    spine, cef, q, agg = world.spine, world.cef, world.query, world.agg
    sel = selection_for_level(spine, geo.GeoLevel.TRACT, ("hispanic",))
    needed = set().union(*(geo.compose_target(spine, t) for t in sel.targets))
    cfg = SwapConfig(base_rate=0.35, risk_multiplier=4.0)

    reps = 800
    pts = np.empty(reps)
    vhat = np.empty(reps)
    diffs = np.empty((reps, len(sel.cells)))
    swapped_total = 0
    for r in range(reps):
        _, stats, sw = swap_release(cef, cfg, seed=r)
        swapped_total += stats.n_swapped
        nms = make_noisy_measurements(cef, q, seed=1_000_000 + r, nodes=needed)
        noisy = noisy_stat_table(nms, q, agg, spine, sel)
        table = dataset_stat_table(sw, agg, sel)
        est = estimate_bias_swap(table, noisy)
        pts[r] = est.estimate
        vhat[r] = est.variance
        diffs[r] = table.values - noisy.values

    checks.expect(swapped_total > 0, "no household was ever swapped; check is vacuous")

    cov = np.cov(diffs, rowvar=False)
    diag_mean = float(np.trace(cov)) / cov.shape[0]
    off = cov[~np.eye(cov.shape[0], dtype=bool)]
    checks.expect(
        float(off.mean()) <= 0.0,
        f"mean cross-cell covariance {off.mean():.3f} is positive, "
        f"conservativeness premise broken",
    )

    observed = float(pts.var(ddof=1))
    # Monte Carlo standard error of the observed variance, from the
    # fourth central moment of the bias estimates
    centered = pts - pts.mean()
    m4 = float((centered**4).mean())
    se_var = math.sqrt(
        max(m4 - (reps - 3) / (reps - 1) * observed**2, 0.0) / reps
    )
    floor = observed - 2.0 * se_var
    checks.expect(
        float(vhat.mean()) >= floor,
        f"mean variance estimate {vhat.mean():.3f} underruns the observed "
        f"variance {observed:.3f} minus 2 MC SE ({floor:.3f})",
    )
    checks.note(
        f"mean estimate {vhat.mean():.2f} vs observed {observed:.2f} "
        f"(+-{se_var:.2f}) over {reps} runs, mean cross-cell covariance "
        f"{off.mean():.3f} vs diagonal {diag_mean:.3f}"
    )
    return checks.outcome()


# ----------------------------------------------------------------------
# check 5: swapping preserves its invariants bit-exactly


def check_swap_invariants() -> tuple[bool, str]:
    """Block totals, voting-age counts, and group-quarters cells are
    untouched by swapping, at every block, under every policy tried.

    Three seeds times three policies (default, aggressive, tract-scope)
    on the 24-block world.  The aggressive runs must actually move
    households, so the invariance is not satisfied vacuously.
    """
    checks = _Checks()
    world = _desk_world()
    spine, cef = world.spine, world.cef
    va_mask = DESK_SCHEMA.categories("voting_age") == 1
    gq_mask = DESK_SCHEMA.categories("housing") != 0

    policies = (
        SwapConfig(),
        SwapConfig(base_rate=0.5, risk_multiplier=4.0),
        SwapConfig(base_rate=0.25, risk_multiplier=2.0,
                   pairing_scope=geo.GeoLevel.TRACT),
    )
    moved_any = False
    aggressive_swaps = 0
    for cfg in policies:
        for seed in (1, 5, 9):
            _, stats, sw = swap_release(cef, cfg, seed=seed)
            if cfg.base_rate == 0.5:
                aggressive_swaps += stats.n_swapped
            before, after = cef.counts, sw.counts
            moved_any = moved_any or not np.array_equal(before, after)
            # per block: total, voting-age count, group-quarters cells
            changed = np.stack([
                before.sum(axis=1) != after.sum(axis=1),
                before[:, va_mask].sum(axis=1) != after[:, va_mask].sum(axis=1),
                (before[:, gq_mask] != after[:, gq_mask]).any(axis=1),
            ], axis=1)
            bad = np.flatnonzero(changed.any(axis=1))
            if bad.size:  # report the first changed block, as a walk would
                what = ("block total", "voting-age count", "group-quarters cells")
                for name, hit in zip(what, changed[bad[0]]):
                    checks.expect(not hit, f"{name} changed at {spine.blocks[bad[0]]} "
                                           f"(rate {cfg.base_rate}, seed {seed})")
                return checks.outcome()
    checks.expect(aggressive_swaps > 0, "aggressive policy never swapped anything")
    checks.expect(moved_any, "no histogram ever changed; invariance is vacuous")
    checks.note(
        f"bit-exact at {len(spine.blocks)} blocks x 9 runs, "
        f"{aggressive_swaps} household moves under the aggressive policy"
    )
    return checks.outcome()


# ----------------------------------------------------------------------
# check 6: post-processing satisfies its constraint contract and finds
# the true constrained optimum where exhaustive search can verify it


def check_postprocessing_constraints() -> tuple[bool, str]:
    """Constraint contract and an exhaustive-search optimality oracle.

    Two two-block fixtures are solved by brute-force enumeration of all
    integer tables consistent with the parent; the hierarchical solver
    must land on the same (unique) optimum, including one case whose
    unconstrained optimum is negative so the bound must clamp.  In
    three independent runs on a 16-block noisy world the release must
    be non-negative integer everywhere, declared invariants (state
    totals by default, plus an opt-in county voting-age invariant) must
    hold bit-exactly while undeclared aggregates move, and a zero-noise
    run must reproduce the enumeration verbatim.
    """
    checks = _Checks()

    # exhaustive-search oracle on the two-block fixture
    spine, cef = _pair_world()
    b0, b1 = spine.blocks
    q = _pair_query(1.0)
    free_cfg = PostProcessConfig(invariants=(), nonneg=True, integerize=True)
    cases = {
        "interior optimum": {b0: [1, 2], b1: [2, 5]},
        "clamped optimum": {b0: [0, 1], b1: [3, 12]},
    }
    parent = cef.node_histogram(spine.nodes_at(geo.GeoLevel.OPT_BLOCKGROUP)[0])
    for name, m in cases.items():
        got = topdown_postprocess(_pair_measurements(cef, q, m), cef, free_cfg,
                                  agg=_PAIR_AGG).counts
        want = np.array(_brute_force_split(parent, np.array(m[b0]), np.array(m[b1])))
        checks.expect_rows(
            (got == want).all(axis=1),
            lambda i: f"{name}: solver found {got[i].tolist()} at {spine.blocks[i]}, "
                      f"exhaustive search found {want[i].tolist()}",
        )

    # constraint contract on a noisy 16-block world, several replicates
    world = build_world(RunConfig(seed=3, spine=_TWO_STATE_SPEC))
    spine2, cef2, q2, agg = world.spine, world.cef, world.query, world.agg
    va_mask = DESK_SCHEMA.categories("voting_age") == 1
    extra = PostProcessConfig(
        invariants=(
            (geo.GeoLevel.STATE, "total"),
            (geo.GeoLevel.COUNTY, "voting_age"),
        ),
        nonneg=True,
        integerize=True,
    )
    states = spine2.nodes_at(geo.GeoLevel.STATE)
    counties = spine2.nodes_at(geo.GeoLevel.COUNTY)
    state_totals = cef2.level_histograms(geo.GeoLevel.STATE).sum(axis=1)
    county_cells = cef2.level_histograms(geo.GeoLevel.COUNTY)
    county_moved = False
    for seed in (9, 10, 11):
        nms2 = make_noisy_measurements(cef2, q2, seed=seed)
        out2 = topdown_postprocess(nms2, cef2)

        checks.expect(
            out2.counts.dtype == np.int64 and (out2.counts >= 0).all(),
            f"release is not non-negative integer everywhere (seed {seed})",
        )

        checks.expect_rows(
            out2.level_histograms(geo.GeoLevel.STATE).sum(axis=1) == state_totals,
            lambda i: f"state total invariant broken at {states[i]} (seed {seed})",
        )
        checks.expect(
            out2.total_population == cef2.total_population,
            f"national total invariant broken (seed {seed})",
        )
        county_moved = county_moved or not np.array_equal(
            out2.level_histograms(geo.GeoLevel.COUNTY).sum(axis=1), county_cells.sum(axis=1))

        out3 = topdown_postprocess(nms2, cef2, extra, agg=agg)
        checks.expect_rows(
            out3.level_histograms(geo.GeoLevel.COUNTY)[:, va_mask].sum(axis=1)
            == county_cells[:, va_mask].sum(axis=1),
            lambda i: f"opt-in county voting-age invariant broken at {counties[i]} "
                      f"(seed {seed})",
        )
    checks.expect(
        county_moved, "every county total matched the enumeration; noise suspect"
    )

    q0 = QueryMatrix(DESK_SCHEMA, BudgetSchedule.constant(0.0))
    out0 = topdown_postprocess(make_noisy_measurements(cef2, q0, seed=1), cef2)
    checks.expect(
        np.array_equal(out0.counts, cef2.counts),
        "zero-noise run did not reproduce the enumeration",
    )

    checks.note(
        "matches exhaustive search on both fixtures; non-negative integer "
        "hierarchy with exact declared invariants on the noisy world"
    )
    return checks.outcome()


# ----------------------------------------------------------------------
# check 7: geocode parsing, crosswalks, and spine composition


def check_geocode_crosswalk() -> tuple[bool, str]:
    """Geocode handling end to end.

    A worked 31-digit example must split into exactly the documented
    fields and reassemble into the documented 15-digit GEOID; one
    hundred thousand random well-formed geocodes must round-trip
    through parse and reassembly; malformed and inconsistent inputs
    must raise their dedicated errors; on a synthetic spine every
    standard level must partition (or, for places, disjointly cover)
    the blocks, every optimized-spine node's blocks must be the disjoint
    union of its children's, both block-group systems must genuinely
    disagree, and every composable target must be covered by disjoint
    spine parts exactly.
    """
    checks = _Checks()

    raw = "0531000100011065300195010011010"
    code = geo.parse_geocode(raw)
    fields = {
        "aian_flag": "0",
        "state_fips": "53",
        "spine_opt_code": "10",
        "county_fips": "001",
        "tract_equiv": "0001",
        "opt_blockgroup_equiv": "106",
        "geoid_state": "53",
        "geoid_county": "001",
        "geoid_tract": "950100",
        "bg_digit": "1",
        "block_fips": "1010",
    }
    for name, want in fields.items():
        got = getattr(code, name)
        checks.expect(got == want, f"worked example: {name} = {got!r}, want {want!r}")
    checks.expect(
        code.geoid == "530019501001010",
        f"worked example: GEOID = {code.geoid!r}",
    )
    checks.expect(code.raw == raw, "worked example does not reassemble")

    rng = np.random.default_rng(77)
    digits = rng.integers(0, 10, size=(100_000, 31))
    digits[:, 0] = rng.integers(0, 2, size=100_000)  # AI/AN flag
    digits[:, 26] = digits[:, 27]  # digit 27 repeats the block FIPS head
    bad_roundtrip = 0
    for row in digits:
        s = "".join(chr(48 + d) for d in row)
        c = geo.parse_geocode(s)
        if c.raw != s or c.geoid != s[15:26] + s[27:31]:
            bad_roundtrip += 1
    checks.expect(
        bad_roundtrip == 0, f"{bad_roundtrip} random geocodes failed to round-trip"
    )

    malformed = ("", "123", "x" * 31, "0" * 30, "0" * 32, "05310001000110653001950100110a")
    for s in malformed:
        try:
            geo.parse_geocode(s)
            checks.expect(False, f"malformed geocode {s!r} was accepted")
        except MalformedGeocode:
            pass
    inconsistent = ("7" + raw[1:], raw[:26] + "9" + raw[27:])
    for s in inconsistent:
        try:
            geo.parse_geocode(s)
            checks.expect(False, f"inconsistent geocode {s!r} was accepted")
        except InconsistentGeocode:
            pass

    spine = _desk_world().spine
    all_blocks = set(spine.blocks)
    partition_levels = (
        geo.GeoLevel.STATE,
        geo.GeoLevel.COUNTY,
        geo.GeoLevel.TRACT,
        geo.GeoLevel.BLOCKGROUP,
        geo.GeoLevel.BLOCK,
        geo.GeoLevel.VTD,
    )
    for lv in partition_levels:
        units = spine.units_at(lv)
        sizes = sum(len(b) for b in units.values())
        union = set().union(*units.values())
        checks.expect(
            sizes == len(union) == len(all_blocks),
            f"{lv.value} units do not partition the blocks",
        )
    places = spine.units_at(geo.GeoLevel.PLACE)
    psizes = sum(len(b) for b in places.values())
    punion = set().union(*places.values()) if places else set()
    checks.expect(
        len(places) >= 1 and psizes == len(punion) and punion <= all_blocks,
        "places are not a disjoint partial cover",
    )
    for lv in geo.NMF_LEVEL_ORDER:
        nodes = spine.nodes_at(lv)
        sizes = sum(len(spine.nmf_blocks(n)) for n in nodes)
        union = set().union(*(spine.nmf_blocks(n) for n in nodes))
        checks.expect(
            sizes == len(union) == len(all_blocks),
            f"optimized-spine {lv.value} nodes do not partition the blocks",
        )
    for n in (n for lv in geo.NMF_LEVEL_ORDER[:-1] for n in spine.nodes_at(lv)):
        kids = [spine.nmf_blocks(k) for k in spine.children(n)]
        checks.expect(
            sum(map(len, kids)) == len(spine.nmf_blocks(n))
            and set().union(*kids) == spine.nmf_blocks(n),
            f"optimized-spine node {n} is not the disjoint union of its children",
        )
    obg_sets = {spine.nmf_blocks(n) for n in spine.nodes_at(geo.GeoLevel.OPT_BLOCKGROUP)}
    bg_sets = {frozenset(b) for b in spine.units_at(geo.GeoLevel.BLOCKGROUP).values()}
    checks.expect(
        obg_sets != bg_sets,
        "optimized block groups coincide with standard ones; spine is not optimized",
    )

    targets = [geo.GeoId(geo.GeoLevel.NATION, "US")]
    for lv in partition_levels + (geo.GeoLevel.PLACE,):
        targets.extend(geo.GeoId(lv, c) for c in sorted(spine.units_at(lv)))
    multi_part = 0
    for target in targets:
        parts = [spine.nmf_blocks(p) for p in geo.compose_target(spine, target)]
        covered = set().union(*parts)
        multi_part += len(parts) > 1
        checks.expect(sum(map(len, parts)) == len(covered),
                      f"composition parts overlap for {target}")
        checks.expect(
            covered == spine.blocks_of_target(target),
            f"composition does not cover {target} exactly",
        )
    checks.expect(multi_part > 0, "every target was a single spine node; vacuous")
    checks.note(
        f"worked example, 100000 round trips, and exact disjoint covers "
        f"for {len(targets)} targets"
    )
    return checks.outcome()


# ----------------------------------------------------------------------
# check 8: raw measurements cost more error than the release at small
# areas, and off-spine targets pay for every composition part


def check_error_ordering() -> tuple[bool, str]:
    """Error ordering and the off-spine variance law.

    On the 24-block world with the default budget: three hundred
    post-processed runs measure the empirical block-level RMSE of
    released totals, which must come in below the exact RMSE of the
    raw block measurements (hierarchical pooling must help, not hurt).
    For every voting district the reported variance must equal the sum
    of its composition parts' variances exactly; for a district
    composed of k whole blocks that sum is k times the block variance.
    Two thousand fresh measurement runs of the largest such district
    must land its empirical RMSE within ten percent of the reported
    value, confirming the parts really are independent.
    """
    checks = _Checks()
    world = _desk_world()
    spine, cef, q, agg = world.spine, world.cef, world.query, world.agg
    total = agg.labels.index("total")
    sel_blocks = selection_for_level(spine, geo.GeoLevel.BLOCK, ("total",))

    # exact RMSE of the raw block measurements (variances are by design)
    nms0 = make_noisy_measurements(cef, q, seed=0)
    rmse_nmf = nmf_rmse_exact(noisy_stat_table(nms0, q, agg, spine, sel_blocks))

    truth_blocks = cef.counts.sum(axis=1)
    reps_td = 300
    sq = 0.0
    for r in range(reps_td):
        nms = make_noisy_measurements(cef, q, seed=5000 + r)
        released = topdown_postprocess(nms, cef).counts.sum(axis=1)
        sq += float(((released - truth_blocks) ** 2).sum())
    rmse_td = math.sqrt(sq / (reps_td * truth_blocks.size))
    checks.expect(
        rmse_td < rmse_nmf,
        f"released block totals (RMSE {rmse_td:.2f}) are no better than raw "
        f"measurements (RMSE {rmse_nmf:.2f})",
    )

    # off-spine variance additivity, checked against an independent
    # re-derivation of the path-combination rule
    level_var = {lv: _combined_variance(q, lv, agg.matrix[total]) for lv in geo.NMF_LEVEL_ORDER}
    block_var = level_var[geo.GeoLevel.BLOCK]
    vtds = sorted(spine.units_at(geo.GeoLevel.VTD))
    pure = None
    for code in vtds:
        target = geo.GeoId(geo.GeoLevel.VTD, code)
        parts = geo.compose_target(spine, target)
        variance = nm_statistics(nms0, q, agg, spine, target)[1][total]
        predicted = sum(level_var[geo.node_level(p)] for p in parts)
        checks.expect(
            math.isclose(variance, predicted, rel_tol=1e-9),
            f"vtd {code}: reported variance {variance:.3f} is not the "
            f"sum of its {len(parts)} parts ({predicted:.3f})",
        )
        all_blocks = all(geo.node_level(p) is geo.GeoLevel.BLOCK for p in parts)
        if all_blocks and len(parts) >= 2:
            if pure is None or len(parts) > len(pure[1]):
                pure = (target, parts, variance)
    checks.expect(
        pure is not None,
        "no voting district decomposes into two or more whole blocks; "
        "the k-block variance law cannot be exercised on this spine",
    )

    if pure is not None:
        target, parts, reported = pure
        k = len(parts)
        checks.expect(
            math.isclose(reported, k * block_var, rel_tol=1e-9),
            f"{k}-block district variance {reported:.3f} != k x block "
            f"variance {k * block_var:.3f}",
        )
        truth = float(cef.target_histogram(target).sum())
        reps_nm = 2000
        errs = np.empty(reps_nm)
        for r in range(reps_nm):
            nms = make_noisy_measurements(cef, q, seed=9000 + r, nodes=parts)
            errs[r] = nm_statistics(nms, q, agg, spine, target)[0][total] - truth
        emp = math.sqrt(float((errs ** 2).mean()))
        ratio = emp / math.sqrt(reported)
        checks.expect(
            0.9 <= ratio <= 1.1,
            f"empirical off-spine RMSE is {ratio:.3f} of the reported value",
        )
        checks.note(
            f"raw {rmse_nmf:.2f} vs released {rmse_td:.2f} block RMSE; "
            f"{k}-block district pays exactly {k}x block variance, "
            f"empirical/reported RMSE ratio {ratio:.3f}"
        )
    return checks.outcome()


# ----------------------------------------------------------------------
# check 9: degenerate inputs behave sanely


def check_degenerate_inputs() -> tuple[bool, str]:
    """Edge behavior: zero noise, zero rates, ties, and empty inputs.

    A zero-budget pipeline reproduces the enumeration through
    post-processing; a zero-rate swap is the identity; zero-variance
    sampling returns zeros; empty selections are rejected rather than
    silently producing empty tables; all-tied values share one
    quantile bin; and a negative raw error estimate survives
    clamping (the clamped RMSE is zero, the raw value keeps its sign).
    """
    checks = _Checks()
    spine, cef = _pair_world()

    q0 = _pair_query(0.0)
    nms0 = make_noisy_measurements(cef, q0, seed=4)
    out = topdown_postprocess(
        nms0, cef, PostProcessConfig(invariants=(), nonneg=True, integerize=True),
        agg=_PAIR_AGG,
    )
    checks.expect(
        np.array_equal(out.counts, cef.counts),
        "zero-budget pipeline did not reproduce the enumeration",
    )

    cef2 = _desk_world().cef
    _, stats, sw = swap_release(cef2, SwapConfig(base_rate=0.0), seed=13)
    checks.expect(
        stats.n_swapped == 0 and np.array_equal(sw.counts, cef2.counts),
        "zero-rate swap is not the identity",
    )

    rng = np.random.default_rng(0)
    checks.expect(
        (sample_discrete_gaussian_array(0.0, 64, rng) == 0).all(),
        "zero-variance sampler returned nonzero noise",
    )

    tract = geo.GeoId(geo.GeoLevel.TRACT, sorted(spine.units_at(geo.GeoLevel.TRACT))[0])
    for targets, stats in (((), ("total",)), ((tract,), ())):
        try:
            GeoSelection(targets, stats)
            checks.expect(False, "empty selection was accepted")
        except EmptyInput:
            pass

    bins = decile_bins({f"unit{i}": 3.25 for i in range(12)})
    checks.expect(
        set(bins.values()) == {0},
        "tied values did not collapse into the lowest quantile bin",
    )

    cells = tuple((geo.GeoId(geo.GeoLevel.BLOCK, g), "total") for g in spine.unit_ids("block"))
    values = np.array([5.0, 5.0])
    noisy = StatTable("noisy", cells, values, variances=np.full(2, 4.0), run_seed=3)
    release = StatTable("postprocessed", cells, values, run_seed=8)
    est = estimate_mse(release, noisy)
    checks.expect(
        est.raw == -4.0 and est.clamped == 0.0 and est.rmse == 0.0,
        f"negative error estimate mishandled (raw {est.raw}, rmse {est.rmse})",
    )
    checks.note("identity pipelines, rejected empties, tied bins, signed raw MSE")
    return checks.outcome()


# ----------------------------------------------------------------------
# runner

# number, name, check, and time budget in seconds (None: unbudgeted)
_CRITERIA: tuple[tuple[int, str, Callable[[], tuple[bool, str]], Optional[float]], ...] = (
    (1, "noise sampler distribution", check_sampler_distribution, 30.0),
    (2, "measurement unbiasedness", check_measurement_unbiasedness, None),
    (3, "estimator calibration", check_estimator_calibration, 600.0),
    (4, "swap variance conservativeness", check_swap_variance_conservative, None),
    (5, "swap invariants", check_swap_invariants, None),
    (6, "post-processing constraints", check_postprocessing_constraints, None),
    (7, "geocode crosswalk", check_geocode_crosswalk, None),
    (8, "error ordering and composition cost", check_error_ordering, 300.0),
    (9, "degenerate inputs", check_degenerate_inputs, None),
)


def run_all(wanted: Optional[set] = None) -> list[CriterionResult]:
    """Run the numbered checks (all of them, or just ``wanted``).

    A check that raises is reported as failed rather than aborting the
    rest of the suite, and one that reaches its time budget fails with
    that overrun after any failure of its own.
    """
    if wanted is not None:
        known = {row[0] for row in _CRITERIA}
        bad = set(wanted) - known
        if bad:
            raise ParameterError(
                f"unknown check numbers {sorted(bad)}; valid numbers are "
                f"{sorted(known)}"
            )
    results = []
    for number, name, fn, budget in _CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if budget is not None and seconds >= budget:
            over = f"took {seconds:.1f}s, budget is {budget:.0f}s"
            passed, detail = False, f"{detail}; {over}" if not passed else over
        results.append(CriterionResult(number, name, passed, detail, seconds))
    return results
