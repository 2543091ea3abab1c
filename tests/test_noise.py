import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dasim import noise
from dasim.errors import CoverageError, ParameterError
from dasim.geo import NMF_LEVEL_ORDER, GeoId, GeoLevel, SpineSpec, make_synthetic_spine
from dasim.histograms import (
    DESK_SCHEMA,
    FULL_SCHEMA,
    AggregationMatrix,
    CellSchema,
    GenerationProfile,
    HistogramDataset,
    aggregate,
    default_statistics,
    generate_synthetic_cef,
    streams,
)
from dasim.noise import (
    MAX_VARIANCE,
    MIN_VARIANCE,
    BudgetSchedule,
    QueryMatrix,
    make_noisy_measurements,
    nm_statistics,
    sample_discrete_gaussian_array,
)

from conftest import SWEEP_SEEDS
from oracles import (
    dgauss_loop,
    dgauss_pmf,
    dgauss_variance,
    measurements_loop,
    nm_statistics_loop,
    node_seed,
    paths_for_row_loop,
)


# ----------------------------------------------------------------------
# sampler


def test_sampler_zero_variance_is_exact_zero():
    rng = np.random.default_rng(0)
    zeros = sample_discrete_gaussian_array(0.0, 100, rng)
    assert zeros.dtype == np.int64 and (zeros == 0).all()


def test_sampler_rejects_negative_variance():
    with pytest.raises(ParameterError):
        sample_discrete_gaussian_array(-1.0, 1, np.random.default_rng(0))


def test_sampler_delivers_up_to_its_bound():
    """At MAX_VARIANCE the draws keep the asked-for spread and their low
    bits (half are odd); just above it the sampler and the budget refuse."""
    rng = np.random.default_rng(3)
    xs = sample_discrete_gaussian_array(MAX_VARIANCE, 4000, rng)
    assert abs(xs.astype(float).std() / np.sqrt(MAX_VARIANCE) - 1.0) < 0.05
    assert abs((xs % 2).mean() - 0.5) < 0.05
    above = float(np.nextafter(MAX_VARIANCE, np.inf))
    with pytest.raises(ParameterError):
        sample_discrete_gaussian_array(above, 3, rng)
    with pytest.raises(ParameterError):
        BudgetSchedule.constant(above)
    BudgetSchedule.constant(MAX_VARIANCE)


def test_budget_variances_stop_at_the_floor():
    below = float(np.nextafter(MIN_VARIANCE, 0.0))
    for variance in (below, 5e-324):
        with pytest.raises(ParameterError, match=r"is not 0 or in \[4.1e-289, 1e\+28\]"):
            BudgetSchedule.constant(variance)
        with pytest.raises(ParameterError):
            sample_discrete_gaussian_array(variance, 3, np.random.default_rng(0))
    BudgetSchedule.constant(MIN_VARIANCE)
    BudgetSchedule.constant(0.0)


def test_sampler_returns_integers():
    rng = np.random.default_rng(1)
    xs = sample_discrete_gaussian_array(2.5, 1000, rng)
    assert xs.dtype == np.int64


@pytest.mark.parametrize("sigma2", [0.3, 1.0, 4.0, 12.25])
def test_sampler_moments_match_analytic(sigma2):
    rng = np.random.default_rng(42)
    n = 200_000
    xs = sample_discrete_gaussian_array(sigma2, n, rng)
    true_var = dgauss_variance(sigma2)
    se_mean = np.sqrt(true_var / n)
    assert abs(xs.mean()) < 4.5 * se_mean
    # fourth-moment bound on the variance-of-variance
    ks, p = dgauss_pmf(sigma2)
    m4 = float((p * ks.astype(float) ** 4).sum())
    se_var = np.sqrt((m4 - true_var**2) / n)
    assert abs(xs.var() - true_var) < 4.5 * se_var


@pytest.mark.parametrize("sigma2", [0.3, 1.0, 12.25, 1e6])
def test_sampler_matches_the_one_stream_loop(sigma2):
    for seed in range(20):
        got = sample_discrete_gaussian_array(sigma2, 61, np.random.default_rng(seed))
        want = dgauss_loop(sigma2, 61, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)


def test_sampler_deterministic_per_stream():
    a = sample_discrete_gaussian_array(5.0, 50, np.random.default_rng(7))
    b = sample_discrete_gaussian_array(5.0, 50, np.random.default_rng(7))
    assert (a == b).all()


def test_node_seed_streams_differ():
    a = node_seed(3, "US")
    b = node_seed(3, "01")
    assert a.spawn_key != b.spawn_key
    x, y = streams([(a.entropy,), (b.entropy,)], [a.spawn_key, b.spawn_key])
    assert (x.integers(0, 2**32, 4) != y.integers(0, 2**32, 4)).any()


# ----------------------------------------------------------------------
# the statistics reader

_VARIANCE = st.one_of(st.just(0.0), st.floats(MIN_VARIANCE, MAX_VARIANCE))


@given(st.lists(st.tuples(_VARIANCE, _VARIANCE, _VARIANCE), min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_reader_never_reads_a_statistic_worse_than_its_best_path(table):
    # one (detail, total, marginal) variance triple per level, zeros included
    budget = BudgetSchedule({lv: dict(zip(noise.QUERY_GROUPS, row))
                             for lv, row in zip(NMF_LEVEL_ORDER, table)})
    q = QueryMatrix(DESK_SCHEMA, budget)
    agg = default_statistics(DESK_SCHEMA)
    _, weights, summed, read_variances = q.reader(agg.matrix)
    np.testing.assert_array_equal(weights.sum(axis=-1), summed)
    for variances, stat_variances in zip(q.variances, read_variances):
        for row, variance in zip(agg.matrix, stat_variances):
            path_var = [(coef ** 2) @ variances[idx] for idx, coef in q.paths_for_row(row)]
            assert variance <= min(path_var) * (1 + 1e-12)
            assert (variance == 0.0) == (0.0 in path_var)


# ----------------------------------------------------------------------
# query matrix and paths


def test_query_matrix_row_inventory():
    q = QueryMatrix(DESK_SCHEMA)
    # 48 detail + 1 total + (2+2+6+2) marginals
    assert q.n_rows == 48 + 1 + 12
    assert q.matrix.shape == (61, 48)
    assert set(q.row_groups) == {"detail", "total", "marginal"}


def test_query_matrix_is_read_only():
    q = QueryMatrix(DESK_SCHEMA)
    with pytest.raises(ValueError):
        q.matrix[0, 0] = 0


def test_paths_for_total_statistic():
    q = QueryMatrix(DESK_SCHEMA)
    agg = default_statistics(DESK_SCHEMA)
    paths = q.paths_for_row(agg.row("total"))
    # detail, total, and one marginal-sum per axis
    assert len(paths) == 2 + len(DESK_SCHEMA.axes)


def test_paths_for_axis_statistic():
    q = QueryMatrix(DESK_SCHEMA)
    agg = default_statistics(DESK_SCHEMA)
    paths = q.paths_for_row(agg.row("voting_age"))
    assert len(paths) == 2
    idx, coef = paths[1]
    assert q.row_ids[idx[0]] == "marginal_voting_age_1"
    assert coef.tolist() == [1.0]


def test_paths_raise_when_underivable():
    q = QueryMatrix(DESK_SCHEMA, groups=("total",))
    agg = default_statistics(DESK_SCHEMA)
    with pytest.raises(CoverageError):
        q.paths_for_row(agg.row("hispanic"))
    with pytest.raises(CoverageError):
        q.check_coverage(agg)
    # but the total statistic is fine
    assert len(q.paths_for_row(agg.row("total"))) == 1


def _path_signature(paths):
    return [(idx.tolist(), idx.dtype, coef.tolist(), coef.dtype) for idx, coef in paths]


@pytest.mark.parametrize("schema", [DESK_SCHEMA, FULL_SCHEMA], ids=["desk", "full"])
def test_paths_for_row_matches_the_per_group_rule(schema):
    agg = default_statistics(schema)
    doubled = [2 * agg.row("total"), 2 * agg.row("hispanic")]
    uncovered = 0
    for k in (1, 2, 3):
        for groups in itertools.combinations(noise.QUERY_GROUPS, k):
            q = QueryMatrix(schema, groups=groups)
            for row in [*agg.matrix, *doubled]:
                try:
                    want = _path_signature(paths_for_row_loop(q, row))
                except CoverageError:
                    uncovered += 1
                    with pytest.raises(CoverageError):
                        q.paths_for_row(row)
                    continue
                assert _path_signature(q.paths_for_row(row)) == want
    assert uncovered > 0
    # a statistic that is not 0/1 keeps only its detail path
    q = QueryMatrix(schema)
    for row in doubled:
        (idx, coef), = q.paths_for_row(row)
        assert {q.row_groups[i] for i in idx} == {"detail"} and set(coef) == {2.0}


# ----------------------------------------------------------------------
# noisy measurements
# ----------------------------------------------------------------------
# noisy measurements


@pytest.fixture(scope="module")
def tiny_world():
    spine = make_synthetic_spine(SpineSpec(), seed=9)
    cef = generate_synthetic_cef(spine, seed=9)
    q = QueryMatrix(DESK_SCHEMA)
    return spine, cef, q


def test_measurements_cover_all_nodes(tiny_world):
    spine, cef, q = tiny_world
    nms = make_noisy_measurements(cef, q, seed=1)
    for level in (GeoLevel.NATION, GeoLevel.STATE, GeoLevel.COUNTY,
                  GeoLevel.TRACT, GeoLevel.OPT_BLOCKGROUP, GeoLevel.BLOCK):
        nms.rows(spine.nodes_at(level))
    assert nms.seed == 1
    assert nms.query is q


def test_measurements_deterministic_and_subset_stable(tiny_world):
    spine, cef, q = tiny_world
    a = make_noisy_measurements(cef, q, seed=4)
    b = make_noisy_measurements(cef, q, seed=4)
    block = [spine.blocks[0]]
    assert (a.values[a.rows(block)] == b.values[b.rows(block)]).all()
    # restricting to a node subset must not change that node's draws
    c = make_noisy_measurements(cef, q, seed=4, nodes=block)
    assert (c.values == a.values[a.rows(block)]).all()
    d = make_noisy_measurements(cef, q, seed=5)
    assert (d.values[d.rows(block)] != a.values[a.rows(block)]).any()


def test_measurement_plans_serve_interleaved_calls_byte_for_byte(tiny_world):
    """Plans per (query, node subset) on one enumeration give every call
    the bytes it gets on a fresh enumeration and query, which have none."""
    spine, cef, q = tiny_world
    # other rows, so other exact answers, and counties measured exactly
    q1 = QueryMatrix(DESK_SCHEMA, BudgetSchedule.uniform(
        {lv: 0.0 if lv is GeoLevel.COUNTY else 1.0 for lv in NMF_LEVEL_ORDER}),
        groups=("total", "marginal"))
    subset = [spine.blocks[0], *spine.nodes_at(GeoLevel.TRACT)]
    calls = [(q, None), (q1, subset), (q, subset), (q1, None)] * 2
    for seed, (query, nodes) in enumerate(calls):
        got = make_noisy_measurements(cef, query, seed, nodes=nodes)
        fresh = HistogramDataset(spine, DESK_SCHEMA, cef.counts)
        want = make_noisy_measurements(fresh, QueryMatrix(DESK_SCHEMA, query.budget, query.groups),
                                       seed, nodes=nodes)
        assert got.nodes == want.nodes
        np.testing.assert_array_equal(got.values, want.values)


@pytest.mark.parametrize("subset_first", [True, False])
def test_subset_measurements_match_the_full_run(tiny_world, subset_first):
    spine, cef, _ = tiny_world
    world, q = HistogramDataset(spine, DESK_SCHEMA, cef.counts), QueryMatrix(DESK_SCHEMA)
    subset = ["US", spine.blocks[-1], *spine.nodes_at(GeoLevel.COUNTY)]
    if subset_first:
        part = make_noisy_measurements(world, q, 3, nodes=subset)
    full = make_noisy_measurements(world, q, 3)
    if not subset_first:
        part = make_noisy_measurements(world, q, 3, nodes=subset)
    np.testing.assert_array_equal(part.values, full.values[full.rows(part.nodes)])


def test_a_dropped_enumeration_is_collectable():
    spine = make_synthetic_spine(SpineSpec(), seed=2)
    cef = generate_synthetic_cef(spine, 2)
    q = QueryMatrix(DESK_SCHEMA)
    make_noisy_measurements(cef, q, 1)
    make_noisy_measurements(cef, q, 1, nodes=[spine.blocks[0]])
    refs = [weakref.ref(cef), weakref.ref(q)]
    del cef, q
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_zero_budget_measurements_are_exact(tiny_world):
    spine, cef, q = tiny_world
    q0 = QueryMatrix(DESK_SCHEMA, budget=BudgetSchedule.constant(0.0))
    nms = make_noisy_measurements(cef, q0, seed=1)
    node = spine.nodes_at(GeoLevel.TRACT)[0]
    exact = q0.matrix.astype(np.int64) @ cef.node_histogram(node)
    assert (nms.values[nms.rows([node])] == exact).all()
    assert (q0.variances_for(GeoLevel.TRACT) == 0).all()


def test_exact_answers_hold_up_to_the_population_bound():
    """Exact answers come from a float64 product, exact while the total
    population stays below 2**53, which HistogramDataset enforces."""
    spine = make_synthetic_spine(SpineSpec(counties_per_state=1, tracts_per_county=1,
                                           blockgroups_per_tract=1, blocks_per_blockgroup=2),
                                 seed=1)
    counts = np.zeros((len(spine.blocks), DESK_SCHEMA.size), dtype=np.int64)
    counts[0, 0] = 2**53 - 3
    counts[1, 7] = 2
    cef = HistogramDataset(spine, DESK_SCHEMA, counts)
    q0 = QueryMatrix(DESK_SCHEMA, budget=BudgetSchedule.constant(0.0))
    nms = make_noisy_measurements(cef, q0, seed=1)
    want = [q0.matrix.astype(np.int64) @ cef.node_histogram(n) for n in nms.nodes]
    np.testing.assert_array_equal(nms.values, want)
    assert nms.values.max() == 2**53 - 1
    assert noise._PLANS[cef][q0][None].exact.dtype == np.uint64


def test_measure_plans_keep_exact_answers_narrow(tiny_world):
    """A plan keeps its exact answers while the world lives, so in the
    narrowest type that holds the largest; measurements are int64."""
    spine, cef, q = tiny_world
    nms = make_noisy_measurements(cef, q, seed=1)
    exact = noise._PLANS[cef][q][None].exact
    assert cef.total_population.bit_length() in range(9, 17)
    assert exact.dtype == np.uint16
    assert nms.values.dtype == np.int64
    np.testing.assert_array_equal(make_noisy_measurements(cef, QueryMatrix(
        DESK_SCHEMA, budget=BudgetSchedule.constant(0.0)), seed=1).values, exact)


def test_nm_statistics_exact_when_noiseless(tiny_world):
    spine, cef, q = tiny_world
    q0 = QueryMatrix(DESK_SCHEMA, budget=BudgetSchedule.constant(0.0))
    nms = make_noisy_measurements(cef, q0, seed=1)
    agg = default_statistics(DESK_SCHEMA)
    vtd = sorted(spine.units_at(GeoLevel.VTD))[0]
    target = GeoId(GeoLevel.VTD, vtd)
    values, variances = nm_statistics(nms, q0, agg, spine, target)
    np.testing.assert_allclose(values, aggregate(cef.target_histogram(target), agg))
    assert (variances == 0.0).all()


def test_nm_statistics_combined_variance_example():
    # a single on-spine tract, a 4-cell schema, and variance 9 everywhere:
    # total query gives variance 9, the 4-cell detail sum gives 36,
    # and the inverse-variance combination lands at 1/(1/9 + 1/36) = 7.2
    schema = CellSchema((("voting_age", 2), ("hispanic", 2)))
    spec = SpineSpec(counties_per_state=1, tracts_per_county=1,
                     blockgroups_per_tract=1, blocks_per_blockgroup=2,
                     aian_tract_prob=0.0, vtds_per_county=1, places_per_state=0)
    spine = make_synthetic_spine(spec, seed=2)
    cef = generate_synthetic_cef(spine, seed=2, schema=schema)
    q = QueryMatrix(schema, budget=BudgetSchedule.constant(9.0),
                    groups=("detail", "total"))
    nms = make_noisy_measurements(cef, q, seed=3)
    agg = AggregationMatrix(("total",), np.ones((1, 4), dtype=np.int64))
    tract_geoid = sorted(spine.units_at(GeoLevel.TRACT))[0]
    _, (variance,) = nm_statistics(nms, q, agg, spine, GeoId(GeoLevel.TRACT, tract_geoid))
    assert variance == pytest.approx(7.2)


def test_nm_statistics_unbiased_and_calibrated(tiny_world):
    spine, cef, q = tiny_world
    agg = default_statistics(DESK_SCHEMA)
    block = spine.blocks[0]
    target = GeoId(GeoLevel.BLOCK, spine.unit_ids("block")[spine.block_index[block]])
    truth = float(aggregate(cef.target_histogram(target), agg)[0])
    reps = 400
    vals = np.empty(reps)
    reported = None
    for r in range(reps):
        nms = make_noisy_measurements(cef, q, seed=1000 + r, nodes=[block])
        values, variances = nm_statistics(nms, q, agg, spine, target)
        vals[r] = values[0]
        reported = variances[0]
    se = np.sqrt(reported / reps)
    assert abs(vals.mean() - truth) < 4 * se
    # empirical variance within a generous band of the reported variance
    assert 0.7 * reported < vals.var(ddof=1) < 1.4 * reported


def test_nm_statistics_matches_the_loop_form_bit_for_bit(tiny_world):
    # uneven budgets, an exact total at tracts, and many-part targets make
    # the summation order visible in the last bits
    spine, cef, _ = tiny_world
    table = {lv: {"detail": 0.37 + i, "total": 1.1 * i, "marginal": 2.3}
             for i, lv in enumerate(NMF_LEVEL_ORDER)}
    table[GeoLevel.TRACT]["total"] = 0.0
    for groups in (("detail", "total", "marginal"), ("detail",)):
        q = QueryMatrix(DESK_SCHEMA, BudgetSchedule(table), groups)
        nms = make_noisy_measurements(cef, q, seed=8)
        agg = default_statistics(DESK_SCHEMA)
        for level in (GeoLevel.BLOCK, GeoLevel.TRACT, GeoLevel.VTD, GeoLevel.PLACE):
            for code in sorted(spine.units_at(level)):
                target = GeoId(level, code)
                values, variances = nm_statistics(nms, q, agg, spine, target)
                assert (values.tolist(), variances.tolist()) == nm_statistics_loop(
                    nms, agg, spine, target)


def test_nm_statistics_variance_adds_across_parts(tiny_world):
    spine, cef, q = tiny_world
    agg = default_statistics(DESK_SCHEMA)
    nms = make_noisy_measurements(cef, q, seed=11)
    # a VTD crossing tract lines decomposes into several parts
    vtds = sorted(spine.units_at(GeoLevel.VTD))
    from dasim.geo import compose_target
    target = GeoId(GeoLevel.VTD, vtds[0])
    parts = compose_target(spine, target)
    _, variances = nm_statistics(nms, q, agg, spine, target)
    per_part = []
    for part in parts:
        level = GeoLevel.BLOCK if len(part) == 31 else None
        sub = nm_statistics(nms, q, agg, spine,
                            GeoId(GeoLevel.BLOCK, spine.unit_ids("block")[spine.block_index[part]])
                            ) if level else None
        if sub is not None:
            per_part.append(sub[1][0])
    if len(per_part) == len(parts):
        assert variances[0] == pytest.approx(sum(per_part))


# ----------------------------------------------------------------------
# the array-pass measurement against the per-node loop


def _assert_same_measurements(cef, q, seed, nodes=None):
    got = make_noisy_measurements(cef, q, seed, nodes=nodes)
    want_nodes, want_values = measurements_loop(cef, q, seed, nodes)
    assert got.nodes == want_nodes
    np.testing.assert_array_equal(got.values, want_values)


def test_measurements_match_the_node_loop(sweep_world):
    _, cef = sweep_world
    q = QueryMatrix(DESK_SCHEMA)
    for seed in SWEEP_SEEDS:
        _assert_same_measurements(cef, q, seed)


def test_measurement_subsets_match_the_node_loop(sweep_world):
    spine, cef = sweep_world
    q = QueryMatrix(DESK_SCHEMA)
    # "US" sorts after the states, so a level's nodes need not be adjacent
    subsets = [
        [spine.blocks[0]],
        ["US", spine.blocks[-1], *spine.nodes_at(GeoLevel.STATE)],
        list(spine.nodes_at(GeoLevel.OPT_BLOCKGROUP)[::3]) + list(spine.blocks[1::4]),
    ]
    for nodes in subsets:
        _assert_same_measurements(cef, q, 5, nodes)


def test_per_group_budgets_match_the_node_loop(sweep_world):
    """Several noise groups per level, drawn one after another from each
    node's stream, and an exact group that draws nothing."""
    _, cef = sweep_world
    table = {lv: {"detail": 9.0 + i, "total": 0.0, "marginal": 2.5}
             for i, lv in enumerate(NMF_LEVEL_ORDER)}
    table[GeoLevel.NATION]["marginal"] = 0.0
    table[GeoLevel.STATE]["total"] = table[GeoLevel.STATE]["detail"]  # one group of both
    q = QueryMatrix(DESK_SCHEMA, BudgetSchedule(table))
    _assert_same_measurements(cef, q, 2)
    q0 = QueryMatrix(DESK_SCHEMA, BudgetSchedule.constant(0.0))
    _assert_same_measurements(cef, q0, 2)


@pytest.mark.parametrize("schema", [
    FULL_SCHEMA,
    CellSchema((("voting_age", 2), ("language", 3), ("race", 6), ("housing", 2))),
], ids=["full", "custom-axis"])
def test_measurements_match_the_node_loop_on_other_schemas(schema):
    spine = make_synthetic_spine(SpineSpec(), seed=3)
    profile = GenerationProfile(zero_pop_prob=0.3)
    cef = generate_synthetic_cef(spine, 3, profile, schema)
    for groups in (("detail", "total", "marginal"), ("total", "marginal")):
        _assert_same_measurements(cef, QueryMatrix(schema, groups=groups), 4)


def test_short_first_rounds_continue_as_the_loop_does(monkeypatch):
    """At variance 1.0 about 9% of 61-row streams keep fewer than 61
    proposals in their first round and draw more rounds alone."""
    spine = make_synthetic_spine(SpineSpec(counties_per_state=3, tracts_per_county=4), seed=2)
    cef = generate_synthetic_cef(spine, 2)
    q = QueryMatrix(DESK_SCHEMA, BudgetSchedule.constant(1.0))
    assert q.n_rows == 61
    continued = []
    fill = noise._dgauss_fill

    def spy(out, filled, sigma2, rng):
        continued.append(filled)
        fill(out, filled, sigma2, rng)

    monkeypatch.setattr(noise, "_dgauss_fill", spy)
    got = make_noisy_measurements(cef, q, 6)
    monkeypatch.undo()
    n_nodes = len(got.nodes)
    assert 0.03 * n_nodes < len(continued) < 0.2 * n_nodes
    assert all(0 < filled < 61 for filled in continued)
    _, want = measurements_loop(cef, q, 6)
    np.testing.assert_array_equal(got.values, want)
