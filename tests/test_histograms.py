import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import SWEEP_SEEDS
from oracles import cef_loop

from dasim.errors import SchemaError
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
)


def test_schema_sizes():
    assert DESK_SCHEMA.size == 48
    assert FULL_SCHEMA.size == 2 * 2 * 63 * 8 == 2016


def test_schema_validation():
    with pytest.raises(SchemaError):
        CellSchema((("a", 2), ("a", 3)))
    with pytest.raises(SchemaError):
        CellSchema((("a", 1),))
    with pytest.raises(SchemaError):
        CellSchema(())


def test_histogram_validation():
    spine = make_synthetic_spine(SpineSpec(), seed=5)
    schema = CellSchema((("a", 2), ("b", 2)))
    shape = (len(spine.blocks), 4)
    for bad in (-np.ones(shape, dtype=int), np.full(shape, np.nan),
                np.ones(shape, dtype=bool), np.ones((shape[0] - 1, 4), dtype=int)):
        with pytest.raises(SchemaError):
            HistogramDataset(spine, schema, bad)
    ints = HistogramDataset(spine, schema, np.ones(shape, dtype=np.int32))
    assert ints.counts.dtype == np.int64 and ints.total_population == 4 * shape[0]
    floats = HistogramDataset(spine, schema, np.full(shape, 0.5), "postprocessed", 3)
    assert floats.counts.dtype == float
    assert (floats.kind, floats.run_seed) == ("postprocessed", 3)
    with pytest.raises(ValueError):
        ints.counts[0, 0] = 7  # validated once, so the matrix is read-only


def test_aggregate_simple_total():
    schema = CellSchema((("voting_age", 2), ("hispanic", 2)))
    agg = default_statistics(schema)
    vals = dict(zip(agg.labels, aggregate(np.array([1, 2, 3, 4]), agg)))
    assert vals["total"] == 10
    # voting_age axis is the first, adults are indices 2,3 of the flat vector
    assert vals["voting_age"] == 7
    assert vals["hispanic"] == 2 + 4


def test_default_statistics_desk():
    agg = default_statistics(DESK_SCHEMA)
    assert agg.labels[:3] == ("total", "voting_age", "hispanic")
    assert "white" in agg.labels and "nhpi" in agg.labels
    assert agg.matrix.shape == (9, 48)
    # race rows partition the total row
    race_rows = agg.matrix[3:]
    assert (race_rows.sum(axis=0) == 1).all()


def test_default_statistics_full_scale():
    agg = default_statistics(FULL_SCHEMA)
    assert "white_alone" in agg.labels and "two_or_more" in agg.labels
    row = agg.row("white_alone")
    grid = np.indices(FULL_SCHEMA.shape)[FULL_SCHEMA.axis_index("race")].reshape(-1)
    assert (row == (grid == 0).astype(int)).all()
    # alone + two_or_more partition the race axis
    race_rows = agg.matrix[3:]
    assert (race_rows.sum(axis=0) == 1).all()


def test_default_statistics_is_built_once_per_schema_and_read_only():
    agg = default_statistics(DESK_SCHEMA)
    same = CellSchema(tuple(DESK_SCHEMA.axes))
    assert default_statistics(same) is agg
    assert default_statistics(FULL_SCHEMA) is not agg
    with pytest.raises(ValueError):
        agg.matrix[0, 0] = 5
    with pytest.raises(ValueError):
        agg.row("total")[0] = 5


def test_aggregation_matrix_validation():
    with pytest.raises(SchemaError):
        AggregationMatrix(("a", "a"), np.ones((2, 4), dtype=int))
    with pytest.raises(SchemaError):
        AggregationMatrix(("a", "b"), np.array([[1, 1], [0, 0]]))


@given(
    arrays(np.int64, 48, elements=st.integers(0, 1000)),
    arrays(np.int64, 48, elements=st.integers(0, 1000)),
)
@settings(max_examples=50)
def test_aggregate_linear(c1, c2):
    agg = default_statistics(DESK_SCHEMA)
    assert (
        aggregate(c1 + c2, agg) == aggregate(c1, agg) + aggregate(c2, agg)
    ).all()


@pytest.fixture(scope="module")
def small_world():
    spine = make_synthetic_spine(SpineSpec(), seed=5)
    cef = generate_synthetic_cef(spine, seed=5)
    return spine, cef


def test_cef_parent_sums(small_world):
    spine, cef = small_world
    for level in (GeoLevel.NATION, GeoLevel.STATE, GeoLevel.COUNTY, GeoLevel.TRACT, GeoLevel.OPT_BLOCKGROUP):
        for node in spine.nodes_at(level):
            kids = spine.children(node)
            total = sum(cef.node_histogram(k) for k in kids)
            assert (cef.node_histogram(node) == total).all()


def test_cef_target_histogram_is_block_sum(small_world):
    spine, cef = small_world
    vtd = sorted(spine.units_at(GeoLevel.VTD))[0]
    target = GeoId(GeoLevel.VTD, vtd)
    manual = sum(cef.block_histogram(b) for b in spine.blocks_of_target(target))
    assert (cef.target_histogram(target) == manual).all()


def test_cef_deterministic(small_world):
    spine, cef = small_world
    again = generate_synthetic_cef(spine, seed=5)
    for raw in spine.blocks:
        assert (cef.block_histogram(raw) == again.block_histogram(raw)).all()
    other = generate_synthetic_cef(spine, seed=6)
    assert any(
        (cef.block_histogram(raw) != other.block_histogram(raw)).any()
        for raw in spine.blocks
    )


def test_cef_rejects_wrong_blocks(small_world):
    spine, cef = small_world
    with pytest.raises(SchemaError):
        HistogramDataset(spine, DESK_SCHEMA, cef.counts[1:])


def test_node_sums_with_non_contiguous_state_rows():
    # with two states and AI/AN tracts, the AI/AN flag leads the sort key,
    # so each state's blocks split into two runs of rows
    spine = make_synthetic_spine(SpineSpec(states=2, aian_tract_prob=1.0), seed=2)
    rows = spine.node_rows("01")
    assert (np.diff(rows) > 1).any()
    cef = generate_synthetic_cef(spine, seed=2)
    for level in NMF_LEVEL_ORDER:
        by_level = cef.level_histograms(level)
        for node, hist in zip(spine.nodes_at(level), by_level):
            manual = sum(cef.block_histogram(b) for b in spine.nmf_blocks(node))
            np.testing.assert_array_equal(cef.node_histogram(node), manual)
            np.testing.assert_array_equal(hist, manual)
        assert by_level.sum() == cef.total_population


def test_block_population_median_matches_published_skew():
    # ~10k blocks; the published distribution has median block size 23
    spec = SpineSpec(counties_per_state=2, tracts_per_county=25,
                     blockgroups_per_tract=9, blocks_per_blockgroup=23)
    spine = make_synthetic_spine(spec, seed=1)
    assert len(spine.blocks) == 2 * 25 * 9 * 23
    cef = generate_synthetic_cef(spine, seed=1)
    pops = np.array([cef.block_histogram(b).sum() for b in spine.blocks])
    assert 15 <= np.median(pops) <= 35
    # long right tail and a zero-population point mass
    assert pops.max() > 200
    assert (pops == 0).mean() > 0.01


# ----------------------------------------------------------------------
# the array-pass enumeration against the per-block loop

# a schema with an axis the generator knows nothing about, which draws
# its shares from a flat dirichlet
LANGUAGE_SCHEMA = CellSchema(
    (("voting_age", 2), ("language", 3), ("hispanic", 2), ("race", 6), ("housing", 2))
)


def test_cef_matches_the_block_loop(sweep_world):
    spine, _ = sweep_world
    for seed in SWEEP_SEEDS:
        got = generate_synthetic_cef(spine, seed)
        want = cef_loop(spine, seed, GenerationProfile(), DESK_SCHEMA)
        np.testing.assert_array_equal(got.counts, want.counts)
        assert got.kind == want.kind == "enumeration"


@pytest.mark.parametrize("schema", [DESK_SCHEMA, FULL_SCHEMA, LANGUAGE_SCHEMA],
                         ids=["desk", "full", "custom-axis"])
@pytest.mark.parametrize("profile", [
    GenerationProfile(),
    # most blocks unpopulated, the rest tiny: chunks with few or no draws
    GenerationProfile(zero_pop_prob=0.9, median_block_pop=1.5, race_concentration=0.3),
], ids=["default", "mostly-empty"])
def test_cef_matches_the_block_loop_on_other_schemas_and_profiles(schema, profile):
    spine = make_synthetic_spine(SpineSpec(counties_per_state=3), seed=3)
    for seed in (1, 2):
        got = generate_synthetic_cef(spine, seed, profile, schema)
        want = cef_loop(spine, seed, profile, schema)
        np.testing.assert_array_equal(got.counts, want.counts)
    if profile.zero_pop_prob > 0.5:
        assert (got.counts.sum(axis=1) == 0).mean() > 0.5


def test_level_histograms_match_node_histograms(sweep_world):
    spine, cef = sweep_world
    for level in NMF_LEVEL_ORDER:
        want = np.array([cef.node_histogram(n) for n in spine.nodes_at(level)])
        got = cef.level_histograms(level)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    nodes = [spine.blocks[-1], spine.nodes_at(GeoLevel.COUNTY)[0], "US"]
    np.testing.assert_array_equal(cef.node_histograms(nodes),
                                  [cef.node_histogram(n) for n in nodes])
