import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dasim.errors import CoverageError, EmptyInput, ParameterError
from dasim.geo import NMF_LEVEL_ORDER, GeoId, GeoLevel, SpineSpec, make_synthetic_spine
from dasim.histograms import (
    DESK_SCHEMA,
    AggregationMatrix,
    CellSchema,
    default_statistics,
    generate_synthetic_cef,
)
from dasim.noise import (
    MAX_VARIANCE,
    BudgetSchedule,
    QueryMatrix,
    combine_estimates,
    make_noisy_measurements,
    nm_statistics,
    node_seed,
    sample_discrete_gaussian,
    sample_discrete_gaussian_array,
)

from oracles import dgauss_pmf, dgauss_variance, nm_statistics_loop


# ----------------------------------------------------------------------
# sampler


def test_sampler_zero_variance_is_exact_zero():
    rng = np.random.default_rng(0)
    assert sample_discrete_gaussian(0.0, rng) == 0
    assert (sample_discrete_gaussian_array(0.0, 100, rng) == 0).all()


def test_sampler_rejects_negative_variance():
    with pytest.raises(ParameterError):
        sample_discrete_gaussian(-1.0, np.random.default_rng(0))


def test_sampler_delivers_up_to_its_bound():
    """At MAX_VARIANCE the draws keep the asked-for spread and their low
    bits (half are odd); just above it the sampler and the budget refuse."""
    rng = np.random.default_rng(3)
    xs = sample_discrete_gaussian_array(MAX_VARIANCE, 4000, rng)
    assert abs(xs.astype(float).std() / np.sqrt(MAX_VARIANCE) - 1.0) < 0.05
    assert abs((xs % 2).mean() - 0.5) < 0.05
    above = float(np.nextafter(MAX_VARIANCE, np.inf))
    with pytest.raises(ParameterError):
        sample_discrete_gaussian(above, rng)
    with pytest.raises(ParameterError):
        sample_discrete_gaussian_array(above, 3, rng)
    with pytest.raises(ParameterError):
        BudgetSchedule.constant(above)
    BudgetSchedule.constant(MAX_VARIANCE)


def test_sampler_returns_integers():
    rng = np.random.default_rng(1)
    xs = sample_discrete_gaussian_array(2.5, 1000, rng)
    assert xs.dtype == np.int64
    assert isinstance(sample_discrete_gaussian(2.5, rng), int)


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


def test_sampler_deterministic_per_stream():
    a = sample_discrete_gaussian_array(5.0, 50, np.random.default_rng(7))
    b = sample_discrete_gaussian_array(5.0, 50, np.random.default_rng(7))
    assert (a == b).all()


def test_node_seed_streams_differ():
    a = node_seed(3, "US")
    b = node_seed(3, "01")
    assert a.spawn_key != b.spawn_key
    x = np.random.default_rng(a).integers(0, 2**32, 4)
    y = np.random.default_rng(b).integers(0, 2**32, 4)
    assert (x != y).any()


# ----------------------------------------------------------------------
# combination


def test_combine_two_equal_variances():
    assert combine_estimates([10.0, 14.0], [4.0, 4.0]) == (12.0, 2.0)


def test_combine_unequal_variances():
    value, variance = combine_estimates([10.0, 20.0], [1.0, 4.0])
    assert value == pytest.approx(12.0)
    assert variance == pytest.approx(0.8)


def test_combine_errors():
    with pytest.raises(EmptyInput):
        combine_estimates([], [])
    with pytest.raises(ParameterError):
        combine_estimates([1.0], [0.0])
    with pytest.raises(ParameterError):
        combine_estimates([1.0], [-2.0])


@given(
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6),
            st.floats(0.01, 1e6),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=100)
def test_combine_variance_never_exceeds_best_input(estimates):
    _, variance = combine_estimates(*zip(*estimates))
    assert variance <= min(v for _, v in estimates) + 1e-9


# ----------------------------------------------------------------------
# query matrix and paths


def test_query_matrix_row_inventory():
    q = QueryMatrix(DESK_SCHEMA)
    # 48 detail + 1 total + (2+2+6+2) marginals
    assert q.n_rows == 48 + 1 + 12
    assert q.matrix.shape == (61, 48)
    assert set(q.row_groups) == {"detail", "total", "marginal"}


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


def test_zero_budget_measurements_are_exact(tiny_world):
    spine, cef, q = tiny_world
    q0 = QueryMatrix(DESK_SCHEMA, budget=BudgetSchedule.constant(0.0))
    nms = make_noisy_measurements(cef, q0, seed=1)
    node = spine.nodes_at(GeoLevel.TRACT)[0]
    exact = q0.matrix.astype(np.int64) @ cef.node_histogram(node)
    assert (nms.values[nms.rows([node])] == exact).all()
    assert (q0.variances_for(GeoLevel.TRACT) == 0).all()


def test_nm_statistics_exact_when_noiseless(tiny_world):
    spine, cef, q = tiny_world
    q0 = QueryMatrix(DESK_SCHEMA, budget=BudgetSchedule.constant(0.0))
    nms = make_noisy_measurements(cef, q0, seed=1)
    agg = default_statistics(DESK_SCHEMA)
    vtd = sorted(spine.units_at(GeoLevel.VTD))[0]
    target = GeoId(GeoLevel.VTD, vtd)
    values, variances = nm_statistics(nms, q0, agg, spine, target)
    np.testing.assert_allclose(values, cef.statistics(target, agg))
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
    target = GeoId(GeoLevel.BLOCK, spine.block_geoid(block))
    truth = float(cef.statistics(target, agg)[0])
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
    comp = compose_target(spine, target)
    _, variances = nm_statistics(nms, q, agg, spine, target)
    per_part = []
    for part in comp.parts:
        level = GeoLevel.BLOCK if len(part) == 31 else None
        sub = nm_statistics(nms, q, agg, spine,
                            GeoId(GeoLevel.BLOCK, spine.block_geoid(part))
                            ) if level else None
        if sub is not None:
            per_part.append(sub[1][0])
    if len(per_part) == len(comp.parts):
        assert variances[0] == pytest.approx(sum(per_part))
