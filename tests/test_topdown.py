"""Hierarchical post-processing: optimality, constraints, rounding."""

import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dasim import geo, topdown
from dasim.config import RunConfig
from dasim.errors import InfeasibleConstraints
from dasim.histograms import (
    AggregationMatrix,
    CellSchema,
    DESK_SCHEMA,
    HistogramDataset,
    default_statistics,
    generate_synthetic_cef,
)
from dasim.noise import (
    BudgetSchedule,
    NoisyMeasurements,
    QueryMatrix,
    make_noisy_measurements,
)
from dasim.pipeline import build_world, replicate_seeds
from dasim.topdown import (
    PostProcessConfig,
    _Batch,
    _dual_active_set,
    _invert,
    _largest_remainder,
    _repair_invariants,
    _round_root,
    _solve_level,
    resolve_invariants,
    topdown_postprocess,
)

from oracles import brute_force_integer_fit, kkt_active_set_oracle


# ----------------------------------------------------------------------
# controlled rounding primitives


def test_largest_remainder_keeps_exact_integers():
    v = np.array([3.0, 0.0, 5.0])
    out = _largest_remainder(v, 8)
    assert out.tolist() == [3, 0, 5]


def test_largest_remainder_breaks_ties_by_index():
    out = _largest_remainder(np.array([0.5, 0.5, 1.0]), 2)
    assert out.tolist() == [1, 0, 1]


def test_largest_remainder_spreads_need_beyond_one_per_cell():
    out = _largest_remainder(np.zeros(3), 7)
    assert out.tolist() == [3, 2, 2]


def test_largest_remainder_ignores_float_noise_at_ties():
    # a tie disturbed at the level of solver noise still rounds as a tie
    for noise in (1e-12, -1e-12):
        for at in (0, 1):
            tie = np.array([0.5, 0.5, 1.0])
            tie[at] += noise
            assert _largest_remainder(tie, 2).tolist() == [1, 0, 1]
        out = _largest_remainder(np.array([2.0 - noise, 1.0 + noise]), 3)
        assert out.tolist() == [2, 1]


def test_largest_remainder_rounds_columns_independently():
    X = np.array([[0.5, 2.25, 0.0], [0.5, 0.75, 1.0]])
    out = _largest_remainder(X, np.array([1, 3, 0]))
    assert out.tolist() == [[1, 2, 0], [0, 1, 0]]
    for c in range(3):
        np.testing.assert_array_equal(out[:, c], _largest_remainder(X[:, c], out[:, c].sum()))


def test_largest_remainder_can_round_down():
    out = _largest_remainder(np.array([3.0, 0.0]), 2)
    assert out.tolist() == [2, 0]
    assert out.sum() == 2


def test_largest_remainder_rejects_impossible_target():
    with pytest.raises(InfeasibleConstraints):
        _largest_remainder(np.zeros(2), -1)


def test_invariant_repair_moves_single_units():
    X = np.array([[2, 0], [0, 3]], dtype=np.int64)
    supports = np.array([[True, False]])
    targets = np.array([[1], [1]], dtype=np.int64)  # one column per support
    _repair_invariants(X, ["total_cell0"], supports, targets, nonneg=True)
    assert X[:, 0].tolist() == [1, 1]
    assert X[:, 1].tolist() == [0, 3]  # untouched cells stay put
    assert X.sum() == 5


def test_root_rounding_holds_every_support_of_a_nesting_chain():
    # a inside b inside c, cells 5 and 6 under no invariant
    rows = np.array([[1, 1, 0, 0, 0, 0, 0], [1, 1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 0, 0]])
    agg = AggregationMatrix(("a", "b", "c"), rows)
    cfg = PostProcessConfig(invariants=tuple((geo.GeoLevel.NATION, lb) for lb in "abc"))
    labels, supports = resolve_invariants(cfg, agg)[geo.GeoLevel.NATION]
    assert labels == ("a", "b", "c")  # smallest support first, as TopDown ranks them
    truth = np.array([3, 1, 4, 1, 5, 9, 2])
    x = np.array([2.6, 1.7, 4.4, 0.2, 6.3, 8.5, 2.2])
    out = _round_root(x, labels, supports, supports @ truth)
    assert (supports @ out).tolist() == (supports @ truth).tolist() == [4, 9, 14]
    assert out[5:].sum() == 11  # the rest rounds to its rounded continuous total
    assert (out >= 0).all()


# ----------------------------------------------------------------------
# two-block fixture with a hand-checkable optimum

TWO_CELL = CellSchema((("flavor", 2),))
TWO_CELL_AGG = AggregationMatrix(("total",), np.ones((1, 2), dtype=np.int64))


def _two_block_world():
    spec = geo.SpineSpec(
        states=1,
        counties_per_state=1,
        tracts_per_county=1,
        blockgroups_per_tract=1,
        blocks_per_blockgroup=2,
        obg_size=2,
        aian_tract_prob=0.0,
        vtds_per_county=1,
        places_per_state=0,
    )
    spine = geo.make_synthetic_spine(spec, seed=11)
    cef = HistogramDataset(spine, TWO_CELL, np.array([[2, 4], [3, 5]]), "enumeration")
    return spine, cef, list(spine.blocks)


def _detail_query(block_variance: float) -> QueryMatrix:
    table = {lv: {"detail": 0.0} for lv in geo.NMF_LEVEL_ORDER}
    table[geo.GeoLevel.BLOCK] = {"detail": float(block_variance)}
    return QueryMatrix(TWO_CELL, BudgetSchedule(table), groups=("detail",))


def _handmade_measurements(cef, q, block_values):
    nodes = [n for lv in geo.NMF_LEVEL_ORDER for n in cef.spine.nodes_at(lv)]
    values = [block_values.get(n, cef.node_histogram(n)) for n in nodes]
    return NoisyMeasurements(q, None, tuple(nodes), np.array(values, dtype=np.int64))


def test_two_block_solve_matches_exhaustive_search():
    spine, cef, blocks = _two_block_world()
    q = _detail_query(1.0)
    m = {blocks[0]: [1, 2], blocks[1]: [2, 5]}
    nms = _handmade_measurements(cef, q, m)
    cfg = PostProcessConfig(invariants=(), nonneg=True, integerize=True)
    out = topdown_postprocess(nms, cef, cfg, agg=TWO_CELL_AGG)

    parent = cef.node_histogram(spine.nodes_at(geo.GeoLevel.OPT_BLOCKGROUP)[0])
    oracle = brute_force_integer_fit(
        parent, [np.array(m[b]) for b in blocks], [1.0, 1.0]
    )
    got = [out.block_histogram(b) for b in blocks]
    assert got[0].tolist() == oracle[0].tolist() == [2, 3]
    assert got[1].tolist() == oracle[1].tolist() == [3, 6]


def test_bound_clamps_match_exhaustive_search():
    # the unconstrained optimum puts -1 in one cell; the solver must pin
    # it at zero and land on the same table the brute force finds
    spine, cef, blocks = _two_block_world()
    q = _detail_query(1.0)
    m = {blocks[0]: [0, 1], blocks[1]: [3, 12]}
    nms = _handmade_measurements(cef, q, m)
    cfg = PostProcessConfig(invariants=(), nonneg=True, integerize=True)
    out = topdown_postprocess(nms, cef, cfg, agg=TWO_CELL_AGG)
    parent = cef.node_histogram(spine.nodes_at(geo.GeoLevel.OPT_BLOCKGROUP)[0])
    oracle = brute_force_integer_fit(
        parent, [np.array(m[b]) for b in blocks], [1.0, 1.0]
    )
    assert oracle[0].tolist() == [1, 0] and oracle[1].tolist() == [4, 9]
    for b, want in zip(blocks, oracle):
        assert out.block_histogram(b).tolist() == want.tolist()


# ----------------------------------------------------------------------
# end-to-end constraint contract

SMALL_SPEC = geo.SpineSpec(
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


@pytest.fixture(scope="module")
def noisy_world():
    spine = geo.make_synthetic_spine(SMALL_SPEC, seed=3)
    cef = generate_synthetic_cef(spine, seed=3)
    q = QueryMatrix(DESK_SCHEMA, BudgetSchedule.default())
    nms = make_noisy_measurements(cef, q, seed=9)
    return cef, q, nms


def test_zero_noise_reproduces_enumeration_exactly(noisy_world):
    cef, _, _ = noisy_world
    q0 = QueryMatrix(DESK_SCHEMA, BudgetSchedule.constant(0.0))
    nms0 = make_noisy_measurements(cef, q0, seed=1)
    out = topdown_postprocess(nms0, cef)
    for raw in cef.spine.blocks:
        np.testing.assert_array_equal(out.block_histogram(raw), cef.block_histogram(raw))


def test_released_blocks_are_nonnegative_integers(noisy_world):
    cef, _, nms = noisy_world
    out = topdown_postprocess(nms, cef)
    for raw in cef.spine.blocks:
        h = out.block_histogram(raw)
        assert h.dtype == np.int64
        assert (h >= 0).all()


def test_children_sum_to_parents_everywhere(noisy_world):
    cef, _, nms = noisy_world
    out = topdown_postprocess(nms, cef)
    for lv in geo.NMF_LEVEL_ORDER[:-1]:
        for node in out.spine.nodes_at(lv):
            kids = out.spine.children(node)
            stacked = sum(out.node_histogram(k) for k in kids)
            np.testing.assert_array_equal(stacked, out.node_histogram(node))


def test_state_totals_are_held_exactly(noisy_world):
    cef, _, nms = noisy_world
    out = topdown_postprocess(nms, cef)
    agg = default_statistics(DESK_SCHEMA)
    row = agg.row("total").astype(bool)
    for lv in (geo.GeoLevel.NATION, geo.GeoLevel.STATE):
        for node in out.spine.nodes_at(lv):
            got = int(out.node_histogram(node)[row].sum())
            want = int(cef.node_histogram(node)[row].sum())
            assert got == want
    # below the invariant level totals are free to move with the noise
    county_match = all(
        int(out.node_histogram(n).sum()) == int(cef.node_histogram(n).sum())
        for n in out.spine.nodes_at(geo.GeoLevel.COUNTY)
    )
    tract_match = all(
        int(out.node_histogram(n).sum()) == int(cef.node_histogram(n).sum())
        for n in out.spine.nodes_at(geo.GeoLevel.TRACT)
    )
    assert not (county_match and tract_match)


def test_extra_invariants_are_honored(noisy_world):
    cef, _, nms = noisy_world
    cfg = PostProcessConfig(
        invariants=(
            (geo.GeoLevel.STATE, "total"),
            (geo.GeoLevel.COUNTY, "voting_age"),
        )
    )
    out = topdown_postprocess(nms, cef, cfg)
    agg = default_statistics(DESK_SCHEMA)
    va = agg.row("voting_age").astype(bool)
    for node in out.spine.nodes_at(geo.GeoLevel.COUNTY):
        got = int(out.node_histogram(node)[va].sum())
        assert got == int(cef.node_histogram(node)[va].sum())


def test_postprocessing_is_deterministic(noisy_world):
    cef, _, nms = noisy_world
    a = topdown_postprocess(nms, cef)
    b = topdown_postprocess(nms, cef)
    for raw in cef.spine.blocks:
        np.testing.assert_array_equal(a.block_histogram(raw), b.block_histogram(raw))


def test_float_mode_keeps_constraints_continuously(noisy_world):
    cef, _, nms = noisy_world
    cfg = PostProcessConfig(integerize=False)
    out = topdown_postprocess(nms, cef, cfg)
    h = out.block_histogram(sorted(cef.spine.blocks)[0])
    assert h.dtype == float
    for node in out.spine.nodes_at(geo.GeoLevel.STATE):
        got = float(out.node_histogram(node).sum())
        assert got == pytest.approx(float(cef.node_histogram(node).sum()), abs=1e-6)
    for raw in cef.spine.blocks:
        assert (out.block_histogram(raw) >= -1e-9).all()


def test_run_seed_provenance_flows_from_measurements(noisy_world):
    cef, _, nms = noisy_world
    out = topdown_postprocess(nms, cef)
    assert out.run_seed == nms.seed == 9


# ----------------------------------------------------------------------
# the structured group solver against the exhaustive KKT oracle


def _draw_level(draw, C, kids):
    """One generation over C cells: a TopDown-shaped Hessian and
    exact-query or invariant rows shared by every group, and per group
    (one per entry of kids, its child count) zero parent cells and noisy
    measurements that push cells negative.  Returns H, E and each
    group's (G, e, parent)."""
    mask = st.lists(st.booleans(), min_size=C, max_size=C)
    # weighted queries: one per cell plus 0/1 rows that couple cells, like
    # the total and marginal queries of a level
    Q = np.vstack([np.eye(C)] + [np.array(draw(mask), dtype=float)[None]
                                 for _ in range(draw(st.integers(1, 3)))])
    w = np.array(draw(st.lists(st.sampled_from((0.1, 1.0, 10.0)),
                               min_size=Q.shape[0], max_size=Q.shape[0])))
    E = np.array([draw(mask) for _ in range(draw(st.integers(0, 2)))], dtype=float)
    E = E.reshape(-1, C)
    groups = []
    for k in kids:
        truth = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=C, max_size=C),
                                       min_size=k, max_size=k)), dtype=float)
        truth[:, np.array(draw(mask))] = 0.0  # cells whose parent is zero
        noise = np.array(draw(st.lists(st.integers(-10, 10), min_size=k * Q.shape[0],
                                       max_size=k * Q.shape[0]))).reshape(k, Q.shape[0])
        G = 2.0 * ((truth @ Q.T + noise) * w) @ Q
        groups.append((G, truth @ E.T, truth.sum(axis=0)))
    return 2.0 * (Q.T * w) @ Q, E, groups


@st.composite
def node_groups(draw):
    """A feasible node group: 1-3 children, at most 8 unknowns, a
    TopDown-shaped Hessian, exact-query and invariant rows, zero parent
    cells, and noisy measurements that push cells negative."""
    k = draw(st.integers(1, 3))
    H, E, [(G, e, parent)] = _draw_level(draw, draw(st.integers(1, 8 // k)), [k])
    if k == 1 and draw(st.booleans()):
        parent = None
    return H, G, E, e, parent


@st.composite
def levels(draw):
    """2-6 feasible node groups of one generation over at most 4 cells,
    each with its own child count, zero parent cells (so its own kept
    cells and rows of E) and measurements; at most 8 unknowns a group."""
    C = draw(st.integers(1, 4))
    kids = draw(st.lists(st.integers(1, 8 // C), min_size=2, max_size=6))
    H, E, groups = _draw_level(draw, C, kids)
    if max(kids) == 1 and draw(st.booleans()):
        groups = [(G, e, None) for G, e, _ in groups]
    return H, E, groups


def _parents(parent):
    """One group's parent sums as the level solver takes them."""
    return None if parent is None else parent[None]


# a root whose pinned cell must be released once the invariant holds the rest
NEEDS_RELEASE = (np.array([[0.2, 0.0, 0.0], [0.0, 2.2, 0.2], [0.0, 0.2, 0.4]]),
                 np.array([[0.0, 16.0, 0.8]]), np.array([[1.0, 1.0, 0.0]]),
                 np.array([[1.0]]), None)
# three children with totals and a zero-parent cell: raising one multiplier
# drives another pin's multiplier to zero on the way
NEEDS_DROP = (np.diag([2.0, 20.2]),
              np.array([[-8.0, 81.8], [24.0, -101.6], [2.0, -180.0]]),
              np.array([[1.0, 1.0]]), np.array([[2.0], [2.0], [4.0]]), np.array([8.0, 0.0]))
# two children with parent sums and no rows (the form below the invariant
# levels): one cell negative in each, and a zero-parent cell to drop
NEEDS_PINS_NO_ROWS = (np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 2.0]]),
                      np.array([[16.0, -6.0, 3.0], [-4.0, 8.0, 1.0]]), np.zeros((0, 3)),
                      np.zeros((2, 0)), np.array([4.0, 1.0, 0.0]))
# two children whose exact rows repeat one another (rows 0 and 2), so the
# rows' Schur matrix is singular from the start; a cell goes negative
REDUNDANT_ROWS = (np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]]),
                  np.array([[4.0, 12.0, 3.0], [8.0, -10.0, 14.0]]),
                  np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),
                  np.array([[3.0, 2.0, 3.0], [1.0, 1.0, 1.0]]), np.array([3.0, 1.0, 4.0]))


@settings(max_examples=300, deadline=None)
@given(node_groups())
@example(NEEDS_RELEASE)
@example(NEEDS_DROP)
@example(NEEDS_PINS_NO_ROWS)
@example(REDUNDANT_ROWS)
def test_group_solver_matches_exhaustive_kkt_search(group):
    H, G, E, e, parent = group
    want = kkt_active_set_oracle(H, G, E, e, parent)
    got = _solve_level(H, E, G, e, _parents(parent), np.zeros(len(G), dtype=int), True,
                       ["test group"])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


def _as_level(*groups):
    """Groups drawn alone, as one generation; they share H and E."""
    H, _, E, _, _ = groups[0]
    return H, E, [(G, e, parent) for _, G, _, e, parent in groups]


def _solve_together(H, E, groups):
    """Solve the groups in one level call; returns x and each child's group."""
    seg = np.repeat(np.arange(len(groups)), [len(G) for G, _, _ in groups])
    parents = None if groups[0][2] is None else np.array([p for _, _, p in groups])
    x = _solve_level(H, E, np.vstack([G for G, _, _ in groups]),
                     np.vstack([e for _, e, _ in groups]), parents, seg, True,
                     [f"group {b}" for b in range(len(groups))])
    return x, seg


@settings(max_examples=200, deadline=None)
@given(levels())
@example(_as_level(NEEDS_RELEASE, NEEDS_RELEASE))
@example(_as_level(NEEDS_DROP, (NEEDS_DROP[0], NEEDS_DROP[1][::-1], NEEDS_DROP[2],
                                NEEDS_DROP[3][::-1], NEEDS_DROP[4])))
@example(_as_level(NEEDS_PINS_NO_ROWS, (NEEDS_PINS_NO_ROWS[0], NEEDS_PINS_NO_ROWS[1][::-1],
                                        *NEEDS_PINS_NO_ROWS[2:])))
@example(_as_level(REDUNDANT_ROWS, (*REDUNDANT_ROWS[:2], REDUNDANT_ROWS[2],
                                    REDUNDANT_ROWS[3][::-1], REDUNDANT_ROWS[4])))
def test_level_solver_matches_exhaustive_kkt_search_per_group(level):
    H, E, groups = level
    x, seg = _solve_together(H, E, groups)
    for b, (G, e, parent) in enumerate(groups):
        want = kkt_active_set_oracle(H, G, E, e, parent)
        np.testing.assert_allclose(x[seg == b], want, rtol=0, atol=1e-8)


@pytest.fixture
def dual_calls(monkeypatch):
    """The names of the groups sent to the dual active set, in order."""
    sent, dual = [], topdown._dual_active_set

    def counted(one):
        sent.append(one.where[0])
        return dual(one)

    monkeypatch.setattr(topdown, "_dual_active_set", counted)
    return sent


def test_a_group_sent_to_the_safeguard_leaves_its_batch_mates_alone(dual_calls, monkeypatch,
                                                                     caplog):
    # three groups of one width: two solve in one step, the middle one
    # needs pins, so a cap of one step sends it alone to the dual method
    Q = np.vstack([np.eye(3), np.ones((1, 3))])
    H, E = 2.0 * Q.T @ Q, np.array([[1.0, 1.0, 0.0]])
    # noise that the parent sums must absorb, so that every group has
    # parent-sum multipliers of its own
    noise = {0: np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
             1: np.array([[-6.0, 5.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])}
    groups = []
    for b, truth in enumerate(([[1, 2, 3], [2, 1, 1]], [[0, 1, 2], [3, 1, 1]],
                               [[4, 0, 1], [1, 3, 2], [2, 2, 2]])):
        truth = np.array(truth, dtype=float)
        G = 2.0 * (truth @ Q.T + noise.get(b, 0.0)) @ Q
        groups.append((G, truth @ E.T, truth.sum(axis=0)))
    monkeypatch.setattr(topdown, "_CAP", 1)
    with caplog.at_level("WARNING", logger="dasim.topdown"):
        x, seg = _solve_together(H, E, groups)
    assert dual_calls == ["group 1"]
    assert [r.getMessage().split(" after")[0] for r in caplog.records] == [
        "active-set iteration cap hit at group 1"]
    G, e, parent = groups[1]
    want = kkt_active_set_oracle(H, G, E, e, parent)
    np.testing.assert_allclose(x[seg == 1], want, rtol=0, atol=1e-8)
    for b in (0, 2):
        alone, _ = _solve_together(H, E, [groups[b]])
        np.testing.assert_array_equal(x[seg == b], alone)
    assert dual_calls == ["group 1"]  # alone, too, they solve in one step


@settings(max_examples=300, deadline=None)
@given(node_groups())
@example(NEEDS_RELEASE)
@example(NEEDS_DROP)
@example(NEEDS_PINS_NO_ROWS)
def test_dual_active_set_alone_matches_exhaustive_kkt_search(group):
    # the safeguard on its own, zero-parent cells left in: they can only
    # be met by pins that are dependent on the parent sums
    H, G, E, e, parent = group
    want = kkt_active_set_oracle(H, G, E, e, parent)
    one = _Batch(H[None], E[None], np.zeros((1, G.shape[1]), dtype=bool),
                 np.zeros(len(G), dtype=int), G, e, _parents(parent), np.array([1e-8]),
                 ["test group"])
    got = _dual_active_set(one)
    np.testing.assert_allclose(np.clip(got, 0.0, None), want, rtol=0, atol=1e-8)


def test_cap_hit_is_attributed_and_the_safeguard_agrees(noisy_world, monkeypatch, caplog):
    cef, _, nms = noisy_world
    want = topdown_postprocess(nms, cef)
    monkeypatch.setattr(topdown, "_CAP", 1)
    with caplog.at_level("WARNING", logger="dasim.topdown"):
        got = topdown_postprocess(nms, cef)
    # every warning names its node group and the iteration count
    hits = [r.getMessage() for r in caplog.records]
    levels = "|".join(lv.value for lv in geo.NMF_LEVEL_ORDER)
    attributed = re.compile(
        rf"cap hit at (parent \w+ \(({levels}) children\)|US \(root\)) after 1 iterations")
    assert hits and all(attributed.search(msg) for msg in hits)
    for raw in cef.spine.blocks:
        np.testing.assert_array_equal(got.block_histogram(raw), want.block_histogram(raw))


def test_the_dual_safeguard_stays_idle_on_the_default_and_check_3_worlds(dual_calls):
    cfg = RunConfig()
    world = build_world(cfg)
    for seed in replicate_seeds(cfg.seed, 0):
        nms = make_noisy_measurements(world.cef, world.query, seed=seed)
        topdown_postprocess(nms, world.cef, cfg.postprocess, agg=world.agg)
    # check 3's world and the measurements of its first hundred pairs
    spine = geo.make_synthetic_spine(geo.SpineSpec(), seed=7)
    cef = generate_synthetic_cef(spine, seed=7)
    q = QueryMatrix(DESK_SCHEMA, BudgetSchedule.default())
    for seed in range(200):
        topdown_postprocess(make_noisy_measurements(cef, q, seed=seed), cef)
    assert dual_calls == []


@pytest.mark.parametrize("budget", [{}, {"nation": 0.0, "state": 0.0}],
                         ids=["default", "exact-top"])
def test_only_definite_blocks_are_inverted(monkeypatch, budget):
    # whatever rows border a child's KKT matrix, _invert inverts only its
    # block A of the level Hessian, identity at pins and pads, which a
    # Cholesky factor shows definite.  Only the root has rows: the
    # state-total invariant, and with exact nation queries 61 more, of
    # which all but the 48 detail rows are redundant
    world = build_world(RunConfig.from_dict({"config_version": 1, "budget": budget}))
    level, inverted = [None], []
    invert, solve_level = topdown._invert, topdown._solve_level

    def tagged(H, E, G, e, parents, seg, nonneg, where):
        level[0] = "root" if parents is None else where[0].split("(")[1].split()[0]
        return solve_level(H, E, G, e, parents, seg, nonneg, where)

    def watched(A, E):
        np.testing.assert_array_equal(A, A.transpose(0, 2, 1))
        np.linalg.cholesky(A)
        inverted.append((level[0], E.shape[1] > 0))
        return invert(A, E)

    monkeypatch.setattr(topdown, "_solve_level", tagged)
    monkeypatch.setattr(topdown, "_invert", watched)
    for seed in replicate_seeds(world.config.seed, 0):
        nms = make_noisy_measurements(world.cef, world.query, seed=seed)
        topdown_postprocess(nms, world.cef, world.config.postprocess, agg=world.agg)
    assert {lv for lv, _ in inverted} == {"root"} | {lv.value for lv in geo.NMF_LEVEL_ORDER[2:]}
    assert {lv for lv, bordered in inverted if bordered} == {"root"}


def _bordered(A, E):
    """The KKT matrix [[A, E'], [E, 0]]."""
    m = len(E)
    return np.block([[A, E.T], [E, np.zeros((m, m))]])


def test_invert_borders_through_the_schur_matrix_of_the_rows():
    # against inv of the KKT matrix for independent rows, and against its
    # pinv where rows are redundant (their least-squares multipliers)
    rng = np.random.default_rng(5)
    n = 5
    Q = np.vstack([np.eye(n), np.ones((1, n)), rng.integers(0, 2, (3, n))])
    A = 2.0 * (Q.T * rng.choice([1 / 4, 1 / 16, 1 / 100], len(Q))) @ Q
    rows = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0, 1.0]])
    got = _invert(A[None], rows[None])[0]
    want = np.linalg.inv(_bordered(A, rows))
    for block in np.s_[:n, :n], np.s_[:n, n:], np.s_[n:, :n], np.s_[n:, n:]:
        np.testing.assert_allclose(got[block], want[block], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(_invert(A[None], np.zeros((1, 0, n))), np.linalg.inv(A[None]))
    # a nearly exact total query (weight 1000 against 0.001-0.25) on three
    # cells: eigh, as pinv's hermitian=True takes it, leaves that level's
    # detail-and-total Schur matrix a null eigenvalue above pinv's cutoff
    Q3 = np.vstack([np.eye(3), np.ones((1, 3)), [[1, 0, 1], [1, 0, 0], [0, 0, 1]]])
    A3 = 2.0 * (Q3.T * [0.01, 0.01, 0.25, 1000.0, 0.001, 0.001, 0.25]) @ Q3
    for A, rows in (A, rows), (A3, rows[:, :3]):
        n = len(A)
        redundant = {"repeated row": np.vstack([rows, rows[:1]]),
                     "zero row": np.vstack([rows, np.zeros((1, n))]),
                     "detail and total rows": np.vstack([np.eye(n), np.ones((1, n))])}
        for name, E in redundant.items():
            want = np.linalg.pinv(_bordered(A, E))
            got = _invert(A[None], E[None])[0]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max(),
                                       err_msg=f"{n} cells, {name}")


def test_infeasible_group_is_reported():
    # a child whose invariant needs 3 units where its parent has 1
    H = 2.0 * np.eye(2)
    E = np.array([[1.0, 0.0]])
    with pytest.raises(InfeasibleConstraints):
        _solve_level(H, E, np.zeros((2, 2)), np.array([[3.0], [-2.0]]),
                     np.array([[1.0, 4.0]]), np.zeros(2, dtype=int), True, ["test group"])


@pytest.mark.parametrize("label", ["total", "voting_age"])
def test_block_level_invariants_solve(label):
    # every one of these runs once ended in InfeasibleConstraints: the
    # active set cycled until its cap on a feasible group
    spine = geo.make_synthetic_spine(geo.SpineSpec(), seed=7)  # check 3's world
    cef = generate_synthetic_cef(spine, seed=7)
    q = QueryMatrix(DESK_SCHEMA, BudgetSchedule.default())
    cfg = PostProcessConfig(invariants=((geo.GeoLevel.BLOCK, label),))
    row = default_statistics(DESK_SCHEMA).row(label).astype(bool)
    for seed in range(10):
        out = topdown_postprocess(make_noisy_measurements(cef, q, seed=seed), cef, cfg)
        for raw in spine.blocks:
            h = out.block_histogram(raw)
            assert (h >= 0).all()
            assert int(h[row].sum()) == int(cef.block_histogram(raw)[row].sum())


def test_queries_without_detail_still_solve(noisy_world):
    # totals and marginals alone leave the level Hessian singular
    cef, _, _ = noisy_world
    q = QueryMatrix(DESK_SCHEMA, BudgetSchedule.default(), groups=("total", "marginal"))
    out = topdown_postprocess(make_noisy_measurements(cef, q, seed=2), cef)
    for node in out.spine.nodes_at(geo.GeoLevel.STATE):
        assert int(out.node_histogram(node).sum()) == int(cef.node_histogram(node).sum())


# ----------------------------------------------------------------------
# plans and batches


def test_plans_serve_interleaved_calls_byte_for_byte(noisy_world):
    """Plans per (query, config, aggregation) on one enumeration give every
    call the bytes it gets on fresh objects, which have no plan."""
    cef, q, _ = noisy_world
    q25 = QueryMatrix(DESK_SCHEMA, BudgetSchedule.constant(25.0))
    base = default_statistics(DESK_SCHEMA)
    # the same labels with "hispanic" on the other cells, so that an
    # invariant on it holds other targets
    m = base.matrix.copy()
    m[base.labels.index("hispanic")] ^= 1
    flipped = AggregationMatrix(base.labels, m)
    cfgs = [PostProcessConfig(), PostProcessConfig(invariants=(
        (geo.GeoLevel.STATE, "total"), (geo.GeoLevel.TRACT, "hispanic")))]
    calls = [(query, cfg, agg) for cfg in cfgs for agg in (base, flipped) for query in (q, q25)]
    released = {}
    for seed, (query, cfg, agg) in enumerate(calls + calls[::-1]):
        nms = make_noisy_measurements(cef, query, seed=seed % len(calls))
        got = topdown_postprocess(nms, cef, cfg, agg)
        fresh = HistogramDataset(cef.spine, cef.schema, cef.counts)
        fresh_q = QueryMatrix(DESK_SCHEMA, query.budget)
        want = topdown_postprocess(make_noisy_measurements(fresh, fresh_q, seed=seed % len(calls)),
                                   fresh, cfg, AggregationMatrix(agg.labels, agg.matrix))
        np.testing.assert_array_equal(got.counts, want.counts)
        released[query, cfg, id(agg), seed % len(calls)] = got.counts
    # the two matrices release differently under the second config
    assert not np.array_equal(released[q, cfgs[1], id(base), 4],
                              topdown_postprocess(make_noisy_measurements(cef, q, seed=4), cef,
                                                  cfgs[1], flipped).counts)


def test_a_dropped_world_is_collectable():
    spine = geo.make_synthetic_spine(SMALL_SPEC, seed=5)
    cef = generate_synthetic_cef(spine, seed=5)
    q = QueryMatrix(DESK_SCHEMA, BudgetSchedule.default())
    nms = make_noisy_measurements(cef, q, seed=1)
    topdown_postprocess(nms, cef)
    topdown_postprocess(nms, cef, PostProcessConfig(integerize=False))
    refs = [weakref.ref(cef), weakref.ref(q)]
    del cef, q, nms
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("chunk", [2**8, 2**20])
def test_releases_do_not_depend_on_the_batch_size(monkeypatch, chunk):
    """Batches hold at most _CHUNK KKT entries: 2**8 splits a generation
    into many small batches, 2**20 stacks it into few."""
    cfg = RunConfig()
    world = build_world(cfg)
    nms = [make_noisy_measurements(world.cef, world.query, seed=s)
           for r in range(3) for s in replicate_seeds(cfg.seed, r)]

    def releases():
        return [topdown_postprocess(m, world.cef, cfg.postprocess, agg=world.agg).counts
                for m in nms]

    want = releases()
    monkeypatch.setattr(topdown, "_CHUNK", chunk)
    for got, expected in zip(releases(), want):
        np.testing.assert_array_equal(got, expected)
