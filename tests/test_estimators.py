"""Error estimators: formulas, guard rails, and Monte Carlo calibration."""

import numpy as np
import pytest

from dasim import geo
from dasim.errors import EmptyInput, ParameterError, UsageError
from dasim.estimators import (
    BiasEstimate,
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
from dasim.histograms import DESK_SCHEMA, default_statistics, generate_synthetic_cef
from dasim.noise import BudgetSchedule, QueryMatrix, make_noisy_measurements, nm_statistics
from dasim.pipeline import swap_release
from dasim.swapping import SwapConfig
from dasim.topdown import topdown_postprocess

from oracles import decile_bins_oracle

TINY = geo.SpineSpec(
    states=1,
    counties_per_state=1,
    tracts_per_county=2,
    blockgroups_per_tract=1,
    blocks_per_blockgroup=2,
    obg_size=2,
    aian_tract_prob=0.0,
)
AGG = default_statistics(DESK_SCHEMA)


@pytest.fixture(scope="module")
def world():
    spine = geo.make_synthetic_spine(TINY, seed=21)
    cef = generate_synthetic_cef(spine, seed=21)
    q = QueryMatrix(DESK_SCHEMA, BudgetSchedule.default())
    return spine, cef, q


@pytest.fixture(scope="module")
def tract_selection(world):
    spine, _, _ = world
    return selection_for_level(spine, geo.GeoLevel.TRACT, ("hispanic", "voting_age"))


# ----------------------------------------------------------------------
# selections and tables


def test_selection_rejects_empty_and_duplicates(world):
    spine, _, _ = world
    with pytest.raises(EmptyInput):
        GeoSelection((), ("total",))
    t = geo.GeoId(geo.GeoLevel.NATION, "US")
    with pytest.raises(EmptyInput):
        GeoSelection((t,), ())
    with pytest.raises(ParameterError):
        GeoSelection((t, t), ("total",))
    with pytest.raises(ParameterError):
        GeoSelection((t,), ("total", "total"))


def test_selection_for_level_covers_all_units(world):
    spine, _, _ = world
    sel = selection_for_level(spine, geo.GeoLevel.TRACT, ("total",))
    assert len(sel.targets) == len(spine.units_at(geo.GeoLevel.TRACT))
    assert len(sel) == len(sel.targets)
    assert sel.cells[0][1] == "total"


def test_dataset_table_matches_direct_aggregation(world, tract_selection):
    spine, cef, _ = world
    table = dataset_stat_table(cef, AGG, tract_selection)
    assert table.kind == "enumeration"
    labels = list(AGG.labels)
    i = 0
    for target in tract_selection.targets:
        stats = AGG.matrix @ cef.target_histogram(target)
        for s in tract_selection.statistics:
            assert table.values[i] == stats[labels.index(s)]
            i += 1


def test_noiseless_table_equals_enumeration(world, tract_selection):
    spine, cef, _ = world
    q0 = QueryMatrix(DESK_SCHEMA, BudgetSchedule.constant(0.0))
    nms = make_noisy_measurements(cef, q0, seed=3)
    noisy = noisy_stat_table(nms, q0, AGG, spine, tract_selection)
    truth = dataset_stat_table(cef, AGG, tract_selection)
    np.testing.assert_allclose(noisy.values, truth.values)
    assert (noisy.variances == 0).all()
    assert noisy.run_seed == 3


def test_noisy_table_rejects_another_query(world, tract_selection):
    # the table is built from the measurements' own query; a q with other
    # rows or other variances must not index them silently
    spine, cef, q = world
    nms = make_noisy_measurements(cef, q, seed=3)
    other_rows = QueryMatrix(DESK_SCHEMA, q.budget, groups=("detail", "total"))
    other_budget = QueryMatrix(DESK_SCHEMA, BudgetSchedule.constant(1.0))
    for other in (other_rows, other_budget):
        with pytest.raises(ParameterError):
            noisy_stat_table(nms, other, AGG, spine, tract_selection)
        with pytest.raises(ParameterError):
            nm_statistics(nms, other, AGG, spine, tract_selection.targets[0])
    same = QueryMatrix(DESK_SCHEMA, q.budget, q.groups)
    got = noisy_stat_table(nms, same, AGG, spine, tract_selection)
    want = noisy_stat_table(nms, q, AGG, spine, tract_selection)
    np.testing.assert_array_equal(got.values, want.values)


def test_noisy_tables_find_each_statistics_paths_once(world, monkeypatch):
    spine, cef, _ = world
    q = QueryMatrix(DESK_SCHEMA)
    nms = make_noisy_measurements(cef, q, seed=4)
    sel = selection_for_level(spine, geo.GeoLevel.TRACT, ("total", "voting_age", "hispanic"))
    found = []
    paths_for_row = QueryMatrix.paths_for_row
    monkeypatch.setattr(QueryMatrix, "paths_for_row",
                        lambda self, row: found.append(row) or paths_for_row(self, row))
    tables = [noisy_stat_table(nms, q, AGG, spine, sel) for _ in range(3)]
    assert len(found) == len(sel.statistics)
    assert all(np.array_equal(t.values, tables[0].values) for t in tables)


def test_misaligned_tables_are_rejected(world, tract_selection):
    spine, cef, _ = world
    other = selection_for_level(spine, geo.GeoLevel.TRACT, ("total",))
    a = dataset_stat_table(cef, AGG, tract_selection)
    b = dataset_stat_table(cef, AGG, other)
    with pytest.raises(ParameterError):
        estimate_mse(a, b)


def test_stat_table_validation():
    t = geo.GeoId(geo.GeoLevel.NATION, "US")
    cells = ((t, "total"),)
    with pytest.raises(ParameterError):
        StatTable("x", cells, np.zeros(2))
    with pytest.raises(ParameterError):
        StatTable("x", cells, np.zeros(1), variances=np.array([-1.0]))
    with pytest.raises(EmptyInput):
        StatTable("x", (), np.zeros(0))


# ----------------------------------------------------------------------
# formula spot checks on hand-built tables

_T = geo.GeoId(geo.GeoLevel.NATION, "US")
_CELLS = ((_T, "total"), (_T, "hispanic"))


def _table(kind, values, variances=None, run_seed=None):
    return StatTable(kind, _CELLS, np.asarray(values, float),
                     None if variances is None else np.asarray(variances, float),
                     run_seed)


def test_independent_bias_formula_matches_arithmetic():
    noisy = _table("noisy", [10.0, 4.0], [4.0, 4.0], run_seed=1)
    indep = _table("postprocessed", [12.0, 4.0], run_seed=2)
    same = _table("postprocessed", [11.0, 5.0], run_seed=1)
    out = estimate_bias_indep(noisy, indep, same)
    assert out.estimate == pytest.approx((2.0 + 0.0) / 2)
    # spread = (11-12) + (5-4) = 0, so only the noise term remains
    assert out.variance == pytest.approx(0.0 / 8 + 8.0 / 4)
    assert out.n_cells == 2
    lo, hi = out.ci95
    assert lo < out.estimate < hi


def test_independent_bias_rejects_same_run_tables():
    noisy = _table("noisy", [10.0, 4.0], [4.0, 4.0], run_seed=1)
    same = _table("postprocessed", [11.0, 5.0], run_seed=1)
    other = _table("postprocessed", [12.0, 4.0], run_seed=2)
    with pytest.raises(UsageError):
        estimate_bias_indep(noisy, same, same)
    with pytest.raises(UsageError):
        estimate_bias_indep(noisy, other, other)


def test_swap_bias_formula():
    noisy = _table("noisy", [10.0, 4.0], [4.0, 4.0], run_seed=1)
    swap = _table("swapped", [13.0, 3.0], run_seed=1)
    out = estimate_bias_swap(swap, noisy)
    assert out.estimate == pytest.approx(1.0)
    assert out.variance == pytest.approx((9.0 + 1.0) / 4)


def test_mse_estimator_guards_run_reuse():
    noisy = _table("noisy", [10.0, 4.0], [4.0, 4.0], run_seed=1)
    post_same = _table("postprocessed", [12.0, 5.0], run_seed=1)
    post_other = _table("postprocessed", [12.0, 5.0], run_seed=2)
    with pytest.raises(UsageError):
        estimate_mse(post_same, noisy)
    out = estimate_mse(post_other, noisy)
    assert out.raw == pytest.approx(((4.0 - 4.0) + (1.0 - 4.0)) / 2)
    assert out.clamped == 0.0 and out.rmse == 0.0
    # swapped releases never share noise with the measurements
    swap = _table("swapped", [12.0, 5.0], run_seed=1)
    assert estimate_mse(swap, noisy).raw == out.raw


def test_nmf_rmse_is_exact():
    noisy = _table("noisy", [1.0, 2.0], [9.0, 16.0])
    assert nmf_rmse_exact(noisy) == pytest.approx(np.sqrt(12.5))


# ----------------------------------------------------------------------
# binning diagnostics


def test_decile_bins_match_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 40))
        vals = {f"u{i}": float(rng.integers(0, 6)) for i in range(n)}
        assert decile_bins(vals) == decile_bins_oracle(vals)


def test_decile_bins_all_ties_share_bin_zero():
    vals = {f"u{i}": 7.0 for i in range(13)}
    out = decile_bins(vals)
    assert set(out.values()) == {0}


def test_decile_bins_guards():
    with pytest.raises(EmptyInput):
        decile_bins({})
    with pytest.raises(ParameterError):
        decile_bins({"a": 1.0}, k=0)


# ----------------------------------------------------------------------
# Monte Carlo calibration on a tiny world


@pytest.mark.slow
def test_bias_and_mse_estimators_are_calibrated(world, tract_selection):
    spine, cef, q = world
    truth = dataset_stat_table(cef, AGG, tract_selection).values
    reps = 150
    bias_pts, bias_vars, mse_pts = [], [], []
    post_values = []
    for r in range(reps):
        nms_a = make_noisy_measurements(cef, q, seed=2 * r)
        nms_b = make_noisy_measurements(cef, q, seed=2 * r + 1)
        post_a = topdown_postprocess(nms_a, cef)
        post_b = topdown_postprocess(nms_b, cef)
        noisy_a = noisy_stat_table(nms_a, q, AGG, spine, tract_selection)
        ta = dataset_stat_table(post_a, AGG, tract_selection)
        tb = dataset_stat_table(post_b, AGG, tract_selection)
        est = estimate_bias_indep(noisy_a, tb, ta)
        bias_pts.append(est.estimate)
        bias_vars.append(est.variance)
        mse_pts.append(estimate_mse(tb, noisy_a).raw)
        post_values.append(ta.values)
        post_values.append(tb.values)

    post_values = np.array(post_values)
    true_bias = float((post_values.mean(axis=0) - truth).mean())
    true_mse = float(((post_values - truth) ** 2).mean())

    bias_pts = np.array(bias_pts)
    se_mean = bias_pts.std(ddof=1) / np.sqrt(reps)
    assert abs(bias_pts.mean() - true_bias) < 4.5 * se_mean + 1e-12

    # the variance estimator should track the observed spread of the
    # point estimates (wide band: only 150 replicates)
    ratio = np.mean(bias_vars) / bias_pts.var(ddof=1)
    assert 0.5 < ratio < 2.0

    mse_pts = np.array(mse_pts)
    mse_se = mse_pts.std(ddof=1) / np.sqrt(reps)
    assert abs(mse_pts.mean() - true_mse) < 4.5 * mse_se


def test_swap_bias_runs_end_to_end(world, tract_selection):
    spine, cef, q = world
    nms = make_noisy_measurements(cef, q, seed=17)
    noisy = noisy_stat_table(nms, q, AGG, spine, tract_selection)
    _, _, sw = swap_release(cef, SwapConfig(base_rate=0.3), seed=17)
    table = dataset_stat_table(sw, AGG, tract_selection)
    assert table.kind == "swapped"
    out = estimate_bias_swap(table, noisy)
    assert isinstance(out, BiasEstimate)
    assert out.variance >= 0.0
