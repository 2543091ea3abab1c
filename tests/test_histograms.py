import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import SWEEP_SEEDS
from oracles import cef_loop

from dasim.errors import ParameterError, SchemaError
from dasim.geo import NMF_LEVEL_ORDER, GeoId, GeoLevel, SpineSpec, make_synthetic_spine
from dasim.histograms import (
    DESK_SCHEMA,
    FULL_SCHEMA,
    STREAM_CHUNK,
    AggregationMatrix,
    CellSchema,
    GenerationProfile,
    HistogramDataset,
    aggregate,
    default_statistics,
    generate_synthetic_cef,
    streams,
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
    # a float release sums in one order too, bit for bit
    released = HistogramDataset(spine, cef.schema, cef.counts / 3.0, "postprocessed")
    for level in NMF_LEVEL_ORDER:
        got = released.level_histograms(level)
        want = np.array([released.node_histogram(n) for n in spine.nodes_at(level)])
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# RNG streams

# key ints of one to four 32-bit words, at the edges between word counts
# and up to the largest 31-digit geocode
_EDGE_INTS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96, 10**30, 10**31 - 1)


def _draws(rng):
    return rng.bit_generator.random_raw(2).tolist() + [rng.random()]


def _numpy_draws(key, spawn=()):
    return _draws(np.random.default_rng(np.random.SeedSequence(entropy=key, spawn_key=spawn)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(1, 12), st.just(STREAM_CHUNK + 5)),
    key_width=st.integers(1, 3),
    spawn_width=st.integers(0, 2),
    picks=st.lists(st.one_of(st.sampled_from(_EDGE_INTS), st.integers(0, 10**31 - 1)),
                   min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_streams_draw_what_numpy_seeds(n, key_width, spawn_width, picks, seed):
    """Every stream of one call, keys of mixed word counts included, draws
    as default_rng(SeedSequence(entropy=key, spawn_key=spawn)) does."""
    rng = np.random.default_rng(seed)

    def rows(width):
        return [tuple(picks[i] for i in rng.integers(0, len(picks), width)) for _ in range(n)]

    keys = rows(key_width)
    spawn = rows(spawn_width) if spawn_width else None
    got = streams(keys, spawn)
    assert len(got) == n
    for i, stream in enumerate(got):
        assert _draws(stream) == _numpy_draws(keys[i], spawn[i] if spawn else ())


def test_streams_pin_numpy_seedsequence_and_pcg64():
    """First draws of an enumeration, a household and a measurement stream,
    recorded from numpy's own seeding: a numpy release that changes
    SeedSequence or PCG64 changes every stream dasim draws, and fails here."""
    block = 1011000100011010100100010011003
    us = int.from_bytes(hashlib.blake2b(b"US", digest_size=8).digest(), "big")
    want = [
        [1070342749845958678, 67511506827487455],
        [14295110239698827647, 1326035449257558957],
        [7520017742565640201, 10363351805822707299],
    ]
    assert [_numpy_draws((3, block))[:2], _numpy_draws((3, block, 0x11D))[:2],
            _numpy_draws((3,), (us,))[:2]] == want
    got = streams([(3, block)]) + streams([(3, block, 0x11D)]) + streams([(3,)], [(us,)])
    assert [stream.bit_generator.random_raw(2).tolist() for stream in got] == want


def test_streams_reject_keys_numpy_would_refuse_or_misread():
    assert streams([]) == []
    with pytest.raises(ValueError):
        streams([(3, -1)])
    with pytest.raises(ValueError):
        streams([(3, 1), (3,)])
    with pytest.raises(ValueError):
        streams([(3,), (4,)], [(1,)])
    with pytest.raises(ValueError):
        streams([()])


def test_histogram_totals_stay_below_2_to_the_53():
    """Measurement sums counts in float64, exact up to the bound."""
    spine = make_synthetic_spine(SpineSpec(counties_per_state=1, tracts_per_county=1,
                                           blockgroups_per_tract=1, blocks_per_blockgroup=2),
                                 seed=1)
    counts = np.zeros((len(spine.blocks), DESK_SCHEMA.size), dtype=np.int64)
    counts[0, 0] = 2**53 - 2
    counts[1, 5] = 1
    HistogramDataset(spine, DESK_SCHEMA, counts)
    counts[1, 5] = 2
    with pytest.raises(ParameterError, match="2\\*\\*53"):
        HistogramDataset(spine, DESK_SCHEMA, counts)
    counts[:] = 2**62
    with pytest.raises(ParameterError):
        HistogramDataset(spine, DESK_SCHEMA, counts)
