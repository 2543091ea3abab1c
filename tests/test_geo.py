import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dasim import geo
from dasim.errors import EmptyTarget, InconsistentGeocode, MalformedGeocode, ParameterError
from dasim.geo import (
    GeoId,
    GeoLevel,
    Spine,
    SpineSpec,
    compose_target,
    make_synthetic_spine,
    node_level,
    parse_geocode,
)

from oracles import SpineLoop

# Published worked example: a Washington state block geocode and its GEOID.
EXAMPLE_RAW = "0531000100011065300195010011010"
EXAMPLE_GEOID = "530019501001010"


def test_parse_worked_example():
    c = parse_geocode(EXAMPLE_RAW)
    assert c.aian_flag == "0"
    assert c.state_fips == "53"
    assert c.spine_opt_code == "10"
    assert c.county_fips == "001"
    assert c.tract_equiv == "0001"
    assert c.opt_blockgroup_equiv == "106"
    assert c.geoid_state == "53"
    assert c.geoid_county == "001"
    assert c.geoid_tract == "950100"
    assert c.bg_digit == "1"
    assert c.block_fips == "1010"
    assert c.raw == EXAMPLE_RAW


def test_block_geoid_worked_example():
    assert parse_geocode(EXAMPLE_RAW).geoid == EXAMPLE_GEOID
    spine = Spine([(EXAMPLE_RAW, None, None)])
    assert spine.unit_ids("block")[spine.block_index[EXAMPLE_RAW]] == EXAMPLE_GEOID
    assert set(spine.units_at(GeoLevel.BLOCK)) == {EXAMPLE_GEOID}


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "123",
        EXAMPLE_RAW[:-1],
        EXAMPLE_RAW + "0",
        EXAMPLE_RAW[:-1] + "x",
        "05310001000110653001950100110a0",
        # a non-ASCII decimal digit (ARABIC-INDIC DIGIT THREE)
        EXAMPLE_RAW[:5] + "\u0663" + EXAMPLE_RAW[6:],
        5310001000110653001950100110100,
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(MalformedGeocode):
        parse_geocode(bad)


def test_parse_rejects_bg_digit_mismatch():
    # digit 27 must repeat the first digit of the block FIPS
    bad = EXAMPLE_RAW[:26] + "2" + EXAMPLE_RAW[27:]
    with pytest.raises(InconsistentGeocode):
        parse_geocode(bad)


def test_parse_rejects_bad_aian_flag():
    bad = "9" + EXAMPLE_RAW[1:]
    with pytest.raises(InconsistentGeocode):
        parse_geocode(bad)


@st.composite
def geocodes(draw):
    aian = draw(st.sampled_from("01"))
    state = f"{draw(st.integers(1, 99)):02d}"
    opt = f"{draw(st.integers(0, 99)):02d}"
    county = f"{draw(st.integers(1, 999)):03d}"
    tract_eq = f"{draw(st.integers(0, 9999)):04d}"
    obg = f"{draw(st.integers(0, 999)):03d}"
    g_state = f"{draw(st.integers(1, 99)):02d}"
    g_county = f"{draw(st.integers(1, 999)):03d}"
    g_tract = f"{draw(st.integers(0, 999999)):06d}"
    block = f"{draw(st.integers(1000, 9999)):04d}"
    return aian + state + opt + county + tract_eq + obg + g_state + g_county + g_tract + block[0] + block


@given(geocodes())
@settings(max_examples=200)
def test_parse_round_trip(raw):
    c = parse_geocode(raw)
    assert c.raw == raw
    assert len(c.geoid) == 15
    assert parse_geocode(c.raw) == c


def test_geoid_validation():
    with pytest.raises(ParameterError):
        GeoId(GeoLevel.TRACT, "123")
    with pytest.raises(ParameterError):
        GeoId(GeoLevel.NATION, "01")
    GeoId(GeoLevel.NATION, "US")
    GeoId(GeoLevel.VTD, "53001000001")


# ----------------------------------------------------------------------
# fixture spine: one county, two standard tracts, with the second tract
# split into AI/AN and non-AI/AN fragments on the optimized spine.


def _raw(aian, state, county, tract_eq, obg, g_tract, block):
    return aian + state + "10" + county + tract_eq + obg + state + county + g_tract + block[0] + block


@pytest.fixture
def split_spine():
    rows = [
        # tract 000100, all non-AIAN, one OBG spanning both standard BGs
        (_raw("0", "53", "001", "0001", "101", "000100", "1001"), "53001000001", None),
        (_raw("0", "53", "001", "0001", "101", "000100", "2001"), "53001000001", None),
        # tract 000200: blocks 1001/1002 non-AIAN, 2001 AIAN
        (_raw("0", "53", "001", "0002", "101", "000200", "1001"), "53001000002", "5360000"),
        (_raw("0", "53", "001", "0002", "101", "000200", "1002"), "53001000002", "5360000"),
        (_raw("1", "53", "001", "0001", "101", "000200", "2001"), "53001000002", None),
    ]
    return Spine(rows), [r[0] for r in rows]


def test_spine_membership(split_spine):
    spine, raws = split_spine
    i = spine.block_index[raws[0]]
    assert spine.unit_ids("state")[i] == "53"
    assert spine.unit_ids("county")[i] == "53001"
    assert spine.unit_ids("tract")[i] == "53001000100"
    assert spine.unit_ids("blockgroup")[i] == "530010001001"
    assert spine.unit_ids("block")[i] == "530010001001001"
    assert spine.unit_ids("vtd")[i] == "53001000001"
    assert spine.unit_ids("opt_blockgroup")[i] == raws[0][:15]
    assert node_level(spine.unit_ids("opt_blockgroup")[i]) is GeoLevel.OPT_BLOCKGROUP


def test_spine_units_partition(split_spine):
    spine, raws = split_spine
    # standard levels partition the block set
    for lv in (GeoLevel.BLOCKGROUP, GeoLevel.TRACT, GeoLevel.COUNTY, GeoLevel.STATE):
        units = spine.units_at(lv)
        seen = [b for blocks in units.values() for b in blocks]
        assert sorted(seen) == sorted(raws)
    # optimized-spine levels partition it too
    for lv in (GeoLevel.OPT_BLOCKGROUP, GeoLevel.TRACT, GeoLevel.COUNTY, GeoLevel.STATE):
        nodes = spine.nodes_at(lv)
        seen = [b for n in nodes for b in spine.nmf_blocks(n)]
        assert sorted(seen) == sorted(raws)


def test_aian_split_separates_nmf_tracts(split_spine):
    spine, raws = split_spine
    # standard tract 000200 has three blocks but two optimized-spine tracts
    tract_blocks = spine.blocks_of_target(GeoId(GeoLevel.TRACT, "53001000200"))
    assert len(tract_blocks) == 3
    nmf_tracts = {raw[:12] for raw in tract_blocks}
    assert len(nmf_tracts) == 2


def test_compose_on_spine_tract_is_single_part(split_spine):
    spine, _ = split_spine
    parts = compose_target(spine, GeoId(GeoLevel.TRACT, "53001000100"))
    assert len(parts) == 1
    assert node_level(parts[0]) is GeoLevel.TRACT


def test_compose_split_tract_uses_both_sides(split_spine):
    spine, _ = split_spine
    parts = compose_target(spine, GeoId(GeoLevel.TRACT, "53001000200"))
    sides = {p[0] for p in parts}
    assert sides == {"0", "1"}


def test_compose_block_target(split_spine):
    spine, raws = split_spine
    parts = compose_target(spine, GeoId(GeoLevel.BLOCK, "530010001001001"))
    assert parts == (raws[0],)


def test_compose_partition_property(split_spine):
    spine, raws = split_spine
    for level in (GeoLevel.BLOCKGROUP, GeoLevel.VTD, GeoLevel.PLACE, GeoLevel.COUNTY):
        for code in spine.units_at(level):
            parts = compose_target(spine, GeoId(level, code))
            covered: set[str] = set()
            for p in parts:
                pb = spine.nmf_blocks(p)
                assert not (covered & pb), "parts must be disjoint"
                covered |= pb
            assert covered == set(spine.blocks_of_target(GeoId(level, code)))


def test_compose_never_worse_than_blocks(split_spine):
    spine, _ = split_spine
    for code in spine.units_at(GeoLevel.VTD):
        target = GeoId(GeoLevel.VTD, code)
        parts = compose_target(spine, target)
        assert len(parts) <= len(spine.blocks_of_target(target))


def test_compose_unknown_target_raises(split_spine):
    spine, _ = split_spine
    with pytest.raises(EmptyTarget):
        compose_target(spine, GeoId(GeoLevel.TRACT, "99999999999"))


def test_obg_spans_standard_blockgroups(split_spine):
    spine, raws = split_spine
    # the fixture's first OBG contains blocks from two standard BGs
    obg = raws[0][:15]
    bgs = {spine.unit_ids("blockgroup")[spine.block_index[b]] for b in spine.nmf_blocks(obg)}
    assert len(bgs) == 2
    # so composing a standard BG cannot use that OBG whole
    parts = compose_target(spine, GeoId(GeoLevel.BLOCKGROUP, "530010001001"))
    assert all(node_level(p) is GeoLevel.BLOCK for p in parts)


def test_synthetic_spine_deterministic():
    spec = SpineSpec()
    s1 = make_synthetic_spine(spec, seed=7)
    s2 = make_synthetic_spine(spec, seed=7)
    assert s1.blocks == s2.blocks
    assert make_synthetic_spine(spec, seed=8).blocks != s1.blocks


def test_synthetic_spine_shape_and_partitions():
    spec = SpineSpec(
        states=2,
        counties_per_state=2,
        tracts_per_county=3,
        blockgroups_per_tract=2,
        blocks_per_blockgroup=4,
        obg_size=3,
        aian_tract_prob=0.5,
        vtds_per_county=2,
        places_per_state=2,
    )
    spine = make_synthetic_spine(spec, seed=11)
    n_blocks = 2 * 2 * 3 * 2 * 4
    assert len(spine.blocks) == n_blocks
    # every block parses and round-trips through its own geocode
    for raw in spine.blocks:
        c = parse_geocode(raw)
        assert c.raw == raw
        assert c.state_fips == c.geoid_state
        assert c.county_fips == c.geoid_county
    # VTDs partition every county
    vtd_blocks = [b for blocks in spine.units_at(GeoLevel.VTD).values() for b in blocks]
    assert sorted(vtd_blocks) == list(spine.blocks)
    # optimized spine children partition parents level by level
    for level in (GeoLevel.NATION, GeoLevel.STATE, GeoLevel.COUNTY, GeoLevel.TRACT, GeoLevel.OPT_BLOCKGROUP):
        for node in spine.nodes_at(level):
            kids = spine.children(node)
            union = set()
            for k in kids:
                kb = spine.nmf_blocks(k)
                assert not (union & kb)
                union |= kb
            assert union == set(spine.nmf_blocks(node))
    # some standard tract is split across AI/AN sides at this probability
    flags = {raw[:1] for raw in spine.blocks}
    assert flags == {"0", "1"}


def test_synthetic_spine_obgs_differ_from_blockgroups():
    spine = make_synthetic_spine(SpineSpec(blocks_per_blockgroup=4, obg_size=3), seed=3)
    mismatch = False
    for obg in spine.nodes_at(GeoLevel.OPT_BLOCKGROUP):
        bgs = {spine.unit_ids("blockgroup")[spine.block_index[b]] for b in spine.nmf_blocks(obg)}
        if len(bgs) > 1:
            mismatch = True
    assert mismatch, "optimized block groups should regroup blocks across standard BGs"


def test_spine_spec_keeps_every_code_within_its_digits():
    # optimized block groups are coded 101 + position // obg_size, three digits
    wide = dict(blockgroups_per_tract=9, blocks_per_blockgroup=100, tracts_per_county=1,
                counties_per_state=1)
    with pytest.raises(ParameterError, match="obg_size"):
        SpineSpec(**wide, obg_size=1)
    for spec in (SpineSpec(**wide, obg_size=2),
                 SpineSpec(blockgroups_per_tract=1, blocks_per_blockgroup=899,
                           tracts_per_county=1, counties_per_state=1, obg_size=1,
                           aian_tract_prob=0.0)):
        spine = make_synthetic_spine(spec, seed=1)
        assert all(parse_geocode(raw).raw == raw for raw in spine.blocks)
    assert max(n[-3:] for n in spine.nodes_at(GeoLevel.OPT_BLOCKGROUP)) == "999"
    # places are coded 60000 + index, five digits
    SpineSpec(places_per_state=40000)
    with pytest.raises(ParameterError, match="places_per_state"):
        SpineSpec(places_per_state=40001)


# ----------------------------------------------------------------------
# the array-built spine against the per-record loop


def _records(spine):
    return [(b, vtd or None, place or None)
            for b, vtd, place in zip(spine.blocks, spine.unit_ids("vtd"), spine.unit_ids("place"))]


def _assert_same_spine(spine, loop):
    assert spine.blocks == loop.blocks
    assert spine.block_index == loop.block_index
    for level in geo.NMF_LEVEL_ORDER:
        assert spine.nodes_at(level) == loop.nodes_at(level)
        for node in spine.nodes_at(level):
            rows = spine.node_rows(node)
            assert rows.dtype == np.intp
            np.testing.assert_array_equal(rows, loop.node_rows(node))
            assert spine.children(node) == loop.children(node)
    for level in GeoLevel:
        if level is not GeoLevel.OPT_BLOCKGROUP:
            got, want = spine.units_at(level), loop.units_at(level)
            assert list(got) == list(want) and got == want
    for raw in spine.blocks:
        assert spine.unit_ids("block")[spine.block_index[raw]] == loop.block_geoid(raw)
    for key in (*geo.enclosing_units(spine.blocks[0]), "vtd", "place"):
        assert spine.unit_ids(key) == tuple(loop.membership(raw).get(key, "")
                                            for raw in spine.blocks)


@pytest.mark.parametrize("spec", [
    SpineSpec(),
    SpineSpec(states=3, aian_tract_prob=1.0, places_per_state=2),
    SpineSpec(counties_per_state=3, tracts_per_county=4, vtds_per_county=5, places_per_state=0),
], ids=["default", "three-states-all-aian", "no-places"])
def test_spine_matches_the_record_loop(spec):
    records = _records(make_synthetic_spine(spec, seed=4))
    # input order must not matter
    shuffled = [records[i] for i in np.random.default_rng(0).permutation(len(records))]
    for recs in (records, shuffled):
        _assert_same_spine(Spine(recs), SpineLoop(recs))


def test_sweep_world_spines_match_the_record_loop(sweep_world):
    spine, _ = sweep_world
    _assert_same_spine(spine, SpineLoop(_records(spine)))


def test_spine_matches_the_record_loop_with_blocks_outside_every_vtd(split_spine):
    spine, raws = split_spine
    vtd, place = (spine.unit_ids(key) for key in ("vtd", "place"))
    records = [(raw, vtd[spine.block_index[raw]] or None if i % 2 else None,
                place[spine.block_index[raw]] or None) for i, raw in enumerate(raws)]
    _assert_same_spine(Spine(records), SpineLoop(records))


def _good(i):
    return _raw("0", "53", "001", "0001", "101", "000100", f"1{i:03d}")


@pytest.mark.parametrize("bad", [
    (_good(50)[:-1], None, None),
    (_good(50)[:-1] + "x", None, None),
    (_good(50)[:5] + "\u0663" + _good(50)[6:], None, None),
    (int(_good(50)), None, None),
    ("7" + _good(50)[1:], None, None),
    (_good(50)[:26] + "2" + _good(50)[27:], None, None),
    (_good(1), None, None),
    (_good(50), "5300100001", None),
    (_good(50), "53001x00001", None),
    (_good(50), None, "536000"),
    (_good(50), "53001000001", "53600 0"),
    # two faults in one record: the geocode's, then the duplicate's,
    # then the VTD's
    ("7" + _good(1)[1:], "123", None),
    (_good(1), "123", "1"),
], ids=["short", "letter", "non-ascii", "not-a-string", "aian-flag", "digit-27",
        "duplicate", "vtd-short", "vtd-letter", "place-short", "place-space",
        "flag-and-vtd", "duplicate-and-vtd"])
def test_spine_errors_match_the_record_loop(bad):
    """The first bad record in input order raises what the per-record
    loop raises, with the same message, whatever comes after it."""
    later_bad = [("x" * 31, None, None), (_good(2), "1", None), (_good(3), None, None)]
    records = [(_good(i), "53001000001", None) for i in range(1, 4)] + [bad] + later_bad
    with pytest.raises(Exception) as want:
        SpineLoop(records)
    with pytest.raises(want.type) as got:
        Spine(records)
    assert str(got.value) == str(want.value)
    assert want.type in (MalformedGeocode, InconsistentGeocode, ParameterError)


def test_empty_spine_raises():
    with pytest.raises(EmptyTarget):
        Spine([])
