"""Household decomposition and swapping invariants."""

import dataclasses

import numpy as np
import pytest

from dasim import geo
from dasim.errors import ParameterError
from dasim.histograms import (
    DESK_SCHEMA,
    FULL_SCHEMA,
    CellSchema,
    GenerationProfile,
    HistogramDataset,
    default_statistics,
    generate_synthetic_cef,
)
from dasim.swapping import (
    DEFAULT_SIZE_PMF,
    HouseholdFile,
    SwapConfig,
    make_household_file,
    risk_score,
    swap_households,
)
from dasim.pipeline import swap_release

from conftest import SWEEP_SEEDS
from oracles import households_loop, swap_loop

WORLD_SPEC = geo.SpineSpec(
    states=1,
    counties_per_state=2,
    tracts_per_county=2,
    blockgroups_per_tract=2,
    blocks_per_blockgroup=3,
    obg_size=3,
    aian_tract_prob=0.25,
)


@pytest.fixture(scope="module")
def world():
    spine = geo.make_synthetic_spine(WORLD_SPEC, seed=7)
    cef = generate_synthetic_cef(spine, seed=7)
    return spine, cef


def _households(hhfile):
    """(block, member cells, adults) per household, in file order."""
    members = np.split(hhfile.cells, np.cumsum(hhfile.sizes)[:-1])
    return [
        (hhfile.spine.blocks[row], tuple(cells.tolist()), adults)
        for row, cells, adults in zip(
            hhfile.block_rows.tolist(), members, hhfile.adults.tolist()
        )
    ]


# ----------------------------------------------------------------------
# decomposition


def test_household_file_reassembles_the_enumeration(world):
    spine, cef = world
    hhfile = make_household_file(cef, seed=1)
    back = hhfile.to_dataset()
    for raw in spine.blocks:
        np.testing.assert_array_equal(back.block_histogram(raw), cef.block_histogram(raw))


def test_households_have_sane_structure(world):
    _, cef = world
    hhfile = make_household_file(cef, seed=1)
    housing = np.indices(DESK_SCHEMA.shape)[DESK_SCHEMA.axis_index("housing")].reshape(
        DESK_SCHEMA.size
    )
    voting = np.indices(DESK_SCHEMA.shape)[
        DESK_SCHEMA.axis_index("voting_age")
    ].reshape(DESK_SCHEMA.size)
    sizes, adults = hhfile.sizes, hhfile.adults
    assert len(sizes) and int(sizes.sum()) == len(hhfile.cells)
    assert ((1 <= sizes) & (sizes <= 7)).all()
    assert ((0 <= adults) & (adults <= sizes)).all()
    for _, cells, n_adults in _households(hhfile):
        assert n_adults == int(voting[list(cells)].sum())
    assert (housing[hhfile.cells] == 0).all()


def test_group_quarters_persons_never_join_households(world):
    spine, cef = world
    hhfile = make_household_file(cef, seed=1)
    housing = np.indices(DESK_SCHEMA.shape)[DESK_SCHEMA.axis_index("housing")].reshape(
        DESK_SCHEMA.size
    )
    total_gq = int(hhfile.gq_counts.sum())
    want = sum(
        int(cef.block_histogram(raw)[housing != 0].sum()) for raw in spine.blocks
    )
    assert total_gq == want > 0


def test_decomposition_is_deterministic_per_block(world):
    _, cef = world
    a = make_household_file(cef, seed=4)
    b = make_household_file(cef, seed=4)
    assert _households(a) == _households(b)
    c = make_household_file(cef, seed=5)
    assert _households(a) != _households(c)


def test_household_file_rejects_unknown_blocks(world):
    spine, _ = world
    gq = np.zeros((len(spine.blocks), DESK_SCHEMA.size), dtype=np.int64)
    with pytest.raises(ParameterError, match="block row"):
        HouseholdFile(spine, DESK_SCHEMA, [len(spine.blocks)], [1], [0], [0], gq)
    with pytest.raises(ParameterError, match="cell"):
        HouseholdFile(spine, DESK_SCHEMA, [0], [1], [0], [DESK_SCHEMA.size], gq)


def test_bad_size_pmf_is_rejected(world):
    _, cef = world
    with pytest.raises(ParameterError):
        make_household_file(cef, seed=1, size_pmf=[0.5, 0.4])


# ----------------------------------------------------------------------
# risk scoring


def test_lone_household_scores_maximal_risk():
    assert risk_score(3, 1, 1) == 1.0


def test_risk_falls_with_crowding_and_duplication():
    base = risk_score(10, 1, 5)
    assert risk_score(100, 1, 5) < base
    assert risk_score(10, 3, 5) < base
    assert 0.0 < risk_score(10**6, 50, 80) < base <= 1.0


def test_risk_rejects_empty_blocks():
    with pytest.raises(ParameterError):
        risk_score(5, 0, 3)


def test_flag_probability_caps_at_one():
    cfg = SwapConfig(base_rate=0.5, risk_multiplier=4.0)
    assert cfg.flag_probability(1.0) == 1.0
    assert cfg.flag_probability(0.0) == pytest.approx(0.5)


def test_config_validation():
    with pytest.raises(ParameterError):
        SwapConfig(base_rate=1.5)
    with pytest.raises(ParameterError):
        SwapConfig(risk_multiplier=-1.0)
    with pytest.raises(ParameterError):
        SwapConfig(pairing_scope=geo.GeoLevel.BLOCK)


# ----------------------------------------------------------------------
# swapping


AGGRESSIVE = SwapConfig(base_rate=0.5, risk_multiplier=4.0)


def test_swap_preserves_block_totals_and_voting_age_exactly(world):
    spine, cef = world
    _, _, out = swap_release(cef, AGGRESSIVE, seed=2)
    agg = default_statistics(DESK_SCHEMA)
    total = agg.row("total").astype(bool)
    voting = agg.row("voting_age").astype(bool)
    for raw in spine.blocks:
        got = out.block_histogram(raw)
        want = cef.block_histogram(raw)
        assert int(got[total].sum()) == int(want[total].sum())
        assert int(got[voting].sum()) == int(want[voting].sum())


def test_swap_actually_moves_attributes(world):
    spine, cef = world
    _, stats, out = swap_release(cef, AGGRESSIVE, seed=2)
    assert stats.n_swapped > 0
    moved = any(
        not np.array_equal(out.block_histogram(raw), cef.block_histogram(raw))
        for raw in spine.blocks
    )
    assert moved


def test_block_composition_multisets_are_preserved(world):
    _, cef = world
    hhfile = make_household_file(cef, seed=2)
    swapped, stats = swap_households(hhfile, AGGRESSIVE, seed=2)
    assert stats.n_swapped > 0

    def comps(file):
        table: dict[int, list] = {}
        for row, size, adults in zip(file.block_rows, file.sizes, file.adults):
            table.setdefault(int(row), []).append((int(size), int(adults)))
        return {row: sorted(v) for row, v in table.items()}

    assert comps(hhfile) == comps(swapped)


def test_partners_really_changed_blocks(world):
    _, cef = world
    hhfile = make_household_file(cef, seed=2)
    swapped, stats = swap_households(hhfile, AGGRESSIVE, seed=2)
    moved = hhfile.block_rows != swapped.block_rows
    assert int(moved.sum()) == stats.n_swapped
    for name in ("sizes", "adults", "cells"):
        np.testing.assert_array_equal(getattr(swapped, name), getattr(hhfile, name))


def test_flag_accounting_balances(world):
    _, cef = world
    hhfile = make_household_file(cef, seed=3)
    _, stats = swap_households(hhfile, AGGRESSIVE, seed=3)
    assert stats.n_flagged == stats.n_swapped + stats.n_unpaired
    assert stats.n_swapped % 2 == 0
    assert 0 < stats.n_swapped <= stats.n_households
    assert 0 <= stats.pairs_in_tract <= stats.n_swapped // 2


def test_local_pairing_is_preferred(world):
    _, cef = world
    hhfile = make_household_file(cef, seed=2)
    _, local = swap_households(hhfile, AGGRESSIVE, seed=2)
    assert local.pairs_in_tract > 0


def test_swapping_is_deterministic(world):
    spine, cef = world
    a = swap_release(cef, AGGRESSIVE, seed=6)[2]
    b = swap_release(cef, AGGRESSIVE, seed=6)[2]
    for raw in spine.blocks:
        np.testing.assert_array_equal(a.block_histogram(raw), b.block_histogram(raw))
    c = swap_release(cef, AGGRESSIVE, seed=7)[2]
    assert any(
        not np.array_equal(a.block_histogram(raw), c.block_histogram(raw))
        for raw in spine.blocks
    )


def test_zero_rate_swaps_nothing(world):
    spine, cef = world
    cfg = SwapConfig(base_rate=0.0)
    _, stats, out = swap_release(cef, cfg, seed=2)
    assert stats.n_flagged == stats.n_swapped == 0
    for raw in spine.blocks:
        np.testing.assert_array_equal(out.block_histogram(raw), cef.block_histogram(raw))


def test_seed_provenance(world):
    _, cef = world
    out = swap_release(cef, AGGRESSIVE, seed=11)[2]
    assert out.run_seed == 11
    assert out.kind == "swapped"


# ----------------------------------------------------------------------
# the loop form


def test_households_match_the_loop_form_on_the_sweep_worlds(sweep_world):
    _, cef = sweep_world
    for seed in SWEEP_SEEDS:
        want = households_loop(cef, seed, DEFAULT_SIZE_PMF)
        assert _households(make_household_file(cef, seed)) == want


@pytest.mark.parametrize("size_pmf", [
    DEFAULT_SIZE_PMF,
    (0.0, 0.5, 0.0, 0.5),
    (0.5, 0.5, 0.0, 0.0),
    (0.0, 0.0, 1.0),
    (1.0,),
], ids=["default", "zeros-between", "zeros-at-the-end", "one-size", "singles"])
@pytest.mark.parametrize("schema", [
    DESK_SCHEMA,
    FULL_SCHEMA,
    CellSchema((("language", 3), ("voting_age", 2), ("race", 6), ("housing", 3))),
], ids=["desk", "full", "custom-axis"])
def test_households_match_the_loop_form_on_other_pmfs_and_schemas(size_pmf, schema):
    """Also on a world where most blocks are empty or hold one person."""
    spine = geo.make_synthetic_spine(WORLD_SPEC, seed=3)
    for profile in (GenerationProfile(), GenerationProfile(zero_pop_prob=0.6, median_block_pop=1.0)):
        cef = generate_synthetic_cef(spine, 3, profile, schema)
        for seed in (1, 2):
            want = households_loop(cef, seed, size_pmf)
            assert _households(make_household_file(cef, seed, size_pmf)) == want
    assert (cef.counts.sum(axis=1) == 0).any()


@pytest.mark.parametrize("policy", [SwapConfig(), AGGRESSIVE], ids=["default", "aggressive"])
@pytest.mark.parametrize("prefer_local", [True, False])
@pytest.mark.parametrize(
    "scope", [geo.GeoLevel.STATE, geo.GeoLevel.COUNTY, geo.GeoLevel.TRACT]
)
def test_households_and_swaps_match_the_loop_form(world, scope, prefer_local, policy):
    """Decomposition, risk scores, relocated blocks and SwapStats equal the
    per-household loop bit for bit: on the test world, on a sparse world
    where many blocks hold a single household (risk 1), and on one whose
    block populations are integers where np.log10 and math.log10 differ
    in the last bit."""
    cfg = dataclasses.replace(policy, pairing_scope=scope, prefer_local=prefer_local)
    spine, cef = world
    sparse = generate_synthetic_cef(spine, 8, GenerationProfile(median_block_pop=2.0))
    mix = cef.counts.sum(axis=0) / cef.total_population
    rng = np.random.default_rng(9)
    pops = np.resize([11, 40, 43, 53, 85, 90, 113, 119], len(spine.blocks))
    awkward = HistogramDataset(spine, DESK_SCHEMA, [rng.multinomial(p, mix) for p in pops])
    lone = 0
    for data in (cef, sparse, awkward):
        for seed in range(3):
            hhfile = make_household_file(data, seed)
            want = households_loop(data, seed, DEFAULT_SIZE_PMF)
            assert _households(hhfile) == want
            gq_pop = dict(zip(spine.blocks, hhfile.gq_counts.sum(axis=1).tolist()))
            moved, inputs, scores, want_stats = swap_loop(want, gq_pop, cfg, seed)
            got = risk_score(*np.array(inputs, dtype=np.int64).reshape(-1, 3).T)
            assert got.tolist() == scores
            lone += scores.count(1.0)
            swapped, stats = swap_households(hhfile, cfg, seed)
            assert _households(swapped) == moved
            assert dataclasses.astuple(stats) == want_stats
    assert lone > 0
