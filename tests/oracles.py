"""Independent reference implementations used only by tests.

These are deliberately written from the definitions, not from the
library code they check.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from dasim import geo
from dasim.errors import CoverageError, EmptyTarget, InconsistentGeocode
from dasim.geo import GeoLevel, compose_target, node_level
from dasim.histograms import HistogramDataset, _race_base_shares


# the RNG streams the library keys, seeded by numpy's own SeedSequence


def block_seed(seed: int, raw_geocode: str) -> tuple[int, int]:
    """Entropy of one block's enumeration stream."""
    return (int(seed), int(raw_geocode))


def node_seed(seed: int, node_id: str) -> np.random.SeedSequence:
    """One node's measurement stream: the seed's low 64 bits, spawned by
    a blake2b digest of the node id."""
    digest = hashlib.blake2b(node_id.encode(), digest_size=8).digest()
    return np.random.SeedSequence(
        entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=(int.from_bytes(digest, "big"),),
    )


def dgauss_support(sigma2: float) -> np.ndarray:
    """Integer support wide enough that the truncated tail is below 1e-300."""
    radius = int(math.ceil(40.0 * math.sqrt(sigma2) + 10.0))
    return np.arange(-radius, radius + 1)


def dgauss_pmf(sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """(support, probabilities) of the centered discrete Gaussian."""
    ks = dgauss_support(sigma2)
    w = np.exp(-(ks.astype(float) ** 2) / (2.0 * sigma2))
    return ks, w / w.sum()


def dgauss_variance(sigma2: float) -> float:
    ks, p = dgauss_pmf(sigma2)
    return float((p * ks.astype(float) ** 2).sum())


def decile_bins_oracle(values: dict[str, float], k: int = 10) -> dict[str, int]:
    """Sort-and-slice quantile bins, ties pushed to the lower bin."""
    ids = sorted(values, key=lambda i: (values[i], i))
    n = len(ids)
    first_pos: dict[float, int] = {}
    for pos, i in enumerate(ids):
        first_pos.setdefault(values[i], pos)
    return {i: first_pos[values[i]] * k // n for i in ids}


def brute_force_integer_fit(
    parent: np.ndarray, measurements: list[np.ndarray], weights: list[float]
) -> list[np.ndarray]:
    """Enumerate all child tables summing to parent per cell; return the
    weighted-least-squares minimizer.  Two children only."""
    assert len(measurements) == 2
    C = parent.size
    best, best_obj = None, None
    ranges = [range(int(parent[c]) + 1) for c in range(C)]
    import itertools

    for combo in itertools.product(*ranges):
        x1 = np.array(combo)
        x2 = parent - x1
        obj = 0.0
        for x, m, w in zip((x1, x2), measurements, weights):
            obj += w * float(((x - m) ** 2).sum())
        if best_obj is None or obj < best_obj - 1e-12:
            best, best_obj = (x1, x2), obj
    return list(best)


def kkt_active_set_oracle(H, G, E, e, parent):
    """Exhaustive active-set reference for one TopDown node group.

    Minimizes sum_i 1/2 x_i'H x_i - G_i'x_i over x >= 0 subject to
    E x_i = e_i for every child i and, unless parent is None,
    sum_i x_i = parent.  Every set of cells held at zero is tried: its
    equality-constrained problem is solved from the full KKT system, and
    the first point that is feasible with non-negative multipliers on
    the held cells is returned.  That point satisfies the KKT conditions,
    so it is the optimum.  Exponential in the unknowns; at most eight.
    """
    import itertools

    k, C = G.shape
    N = k * C
    assert N <= 8
    rows = [np.kron(np.eye(k), E)]
    rhs = [np.asarray(e, dtype=float).reshape(-1)]
    if parent is not None:
        rows.append(np.tile(np.eye(C), (1, k)))
        rhs.append(np.asarray(parent, dtype=float))
    A, b = np.vstack(rows), np.concatenate(rhs)
    Hb, g = np.kron(np.eye(k), H), np.asarray(G, dtype=float).reshape(-1)
    x_scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    g_scale = max(1.0, float(np.abs(g).max(initial=0.0)))
    for held in itertools.product((False, True), repeat=N):
        P = np.eye(N)[list(held)]
        Aw = np.vstack([A, P])
        m = Aw.shape[0]
        kkt = np.block([[Hb, Aw.T], [Aw, np.zeros((m, m))]])
        full_rhs = np.concatenate([g, b, np.zeros(P.shape[0])])
        sol = np.linalg.lstsq(kkt, full_rhs, rcond=None)[0]
        if np.abs(kkt @ sol - full_rhs).max() > 1e-9 * max(x_scale, g_scale):
            continue  # the held cells contradict the equalities
        x = sol[:N]
        # stationarity Hx - g + A'lam + P'eta = 0, so the bound multiplier is -eta
        bound_mult = -sol[N + A.shape[0]:]
        if (x < -1e-9 * x_scale).any() or (bound_mult < -1e-9 * g_scale).any():
            continue
        return x.reshape(k, C)
    raise ValueError("no KKT point: the group is infeasible")


def l1_rounding_oracle(x, parent, supports, targets) -> float:
    """The least L1 distance from an integer X >= 0 to x-hat, the
    (children x cells) x clipped at 0 and snapped to the 1e-6 grid, under
    the per-cell sums parent and the per-child support sums targets
    (children x supports), by a linear program (HiGHS).

    Each X = floor(x-hat) + p + q - m, with p in [0, 1] at cost 1 - 2 frac,
    q >= 0 at cost 1 and m in [0, floor] at cost 1, prices exactly the L1
    distance of every integer X.  Parent sums and nested or disjoint
    support sums are two laminar families, so the constraint matrix is
    totally unimodular (Schrijver, Combinatorial Optimization, 2003), its
    copies and negation too, and the LP optimum is the integer optimum."""
    from scipy.optimize import linprog

    xhat = np.rint(np.clip(np.asarray(x, dtype=float), 0.0, None) * 1e6) / 1e6
    low = np.floor(xhat)
    frac = (xhat - low).ravel()
    k, C = xhat.shape
    cols = np.vstack([np.tile(np.eye(C), (1, k)),  # per-cell sums, then per-child supports
                      np.kron(np.eye(k), np.asarray(supports, dtype=float))])
    rhs = np.concatenate([parent, np.asarray(targets).ravel()]) - cols @ low.ravel()
    n = k * C
    res = linprog(np.concatenate([1.0 - 2.0 * frac, np.ones(2 * n)]),
                  A_eq=np.hstack([cols, cols, -cols]), b_eq=rhs,
                  bounds=[(0, 1)] * n + [(0, None)] * n + [(0, f) for f in low.ravel()],
                  method="highs")
    if res.status != 0:
        raise ValueError(f"no integer point meets the constraints: {res.message}")
    return float(frac.sum() + res.fun)


def paths_for_row_loop(q, stat_row) -> list[tuple[np.ndarray, np.ndarray]]:
    """The query paths of one statistic by one rule per query group, with
    rows looked up by id: a detail path over the statistic's support, the
    total query for an all-ones row, and one marginal path per axis along
    which a 0/1 row does not vary.  ``QueryMatrix.paths_for_row`` must
    return the same rows, coefficients, dtypes and order."""
    row_of = {rid: i for i, rid in enumerate(q.row_ids)}
    detail_rows = np.array([row_of.get(f"cell_{i}", -1) for i in range(q.schema.size)],
                           dtype=np.int64)
    stat_row = np.asarray(stat_row)
    paths = []
    if "detail" in q.groups:
        support = np.nonzero(stat_row)[0]
        paths.append((detail_rows[support], stat_row[support].astype(float)))
    is_indicator = bool(((stat_row == 0) | (stat_row == 1)).all())
    if "total" in q.groups and is_indicator and bool((stat_row == 1).all()):
        paths.append((np.array([row_of["total"]]), np.array([1.0])))
    if "marginal" in q.groups and is_indicator:
        shaped = stat_row.reshape(q.schema.shape)
        axes = tuple(range(len(q.schema.shape)))
        for ai, (name, card) in enumerate(q.schema.axes):
            others = tuple(a for a in axes if a != ai)
            lo = shaped.min(axis=others)
            hi = shaped.max(axis=others)
            if (lo == hi).all():
                values = np.nonzero(lo)[0]
                idx = np.array([row_of[f"marginal_{name}_{v}"] for v in values])
                paths.append((idx, np.ones(len(values))))
    if not paths:
        raise CoverageError("statistic is not derivable from the configured queries")
    return paths


def nm_statistics_loop(nms, agg, spine, target) -> tuple[list[float], list[float]]:
    """Per-part, per-path loop form of noisy statistics: the reference the
    vectorized ``nm_statistics`` must match bit for bit.  Within a part the
    query paths are combined by inverse-variance weights (a zero-variance
    path wins outright); parts then add one after another."""
    q = nms.query
    parts = compose_target(spine, target)
    values, variances = [], []
    for stat_row in agg.matrix:
        value = variance = 0.0
        for part in parts:
            answers = nms.values[nms.rows([part])[0]]
            noise = q.variances_for(node_level(part))
            cands = [(float(coef @ answers[idx]), float((coef ** 2) @ noise[idx]))
                     for idx, coef in q.paths_for_row(stat_row)]
            exact = [c for c in cands if c[1] == 0.0]
            if exact:
                part_value, part_variance = exact[0]
            else:
                weights = 1.0 / np.array([v for _, v in cands])
                total = weights.sum()
                part_value = float((weights * np.array([e for e, _ in cands])).sum() / total)
                part_variance = float(1.0 / total)
            value += part_value
            variance += part_variance
        values.append(value)
        variances.append(variance)
    return values, variances


# households and swapping, one household at a time: (block, member
# cells, adults) tuples in place of the library's arrays


def households_loop(cef, seed: int, size_pmf) -> list[tuple[str, tuple[int, ...], int]]:
    """Per block, shuffle the household persons and cut them into runs
    of drawn sizes, the last run cut short at the block's population."""
    schema = cef.schema
    grid = np.indices(schema.shape)
    housing = grid[schema.axis_index("housing")].reshape(schema.size)
    voting = grid[schema.axis_index("voting_age")].reshape(schema.size)
    sizes = np.arange(1, len(size_pmf) + 1)
    households = []
    for raw, counts in zip(cef.spine.blocks, cef.counts):
        hh_part = np.where(housing == 0, counts, 0)
        n = int(hh_part.sum())
        if n == 0:
            continue
        rng = np.random.default_rng((int(seed), int(raw), 0x11D))
        persons = np.repeat(np.arange(schema.size), hh_part)
        rng.shuffle(persons)
        draws = rng.choice(sizes, size=n, p=np.asarray(size_pmf, dtype=float))
        i = 0
        for s in draws:
            if i >= n:
                break
            take = min(int(s), n - i)
            cells = tuple(int(c) for c in persons[i:i + take])
            households.append((raw, cells, int(voting[list(cells)].sum())))
            i += take
    return households


_SCOPE_KEY = {
    GeoLevel.STATE: lambda raw: raw[1:3],
    GeoLevel.COUNTY: lambda raw: raw[:8],
    GeoLevel.TRACT: lambda raw: raw[:12],
}


def _pair_pool_loop(pool, households, rng):
    order = list(pool)
    rng.shuffle(order)
    pairs, leftovers = [], []
    while order:
        a = order.pop(0)
        partner_pos = None
        for pos, b in enumerate(order):
            if households[b][0] != households[a][0]:
                partner_pos = pos
                break
        if partner_pos is None:
            leftovers.append(a)
        else:
            pairs.append((a, order.pop(partner_pos)))
    return pairs, leftovers


def swap_loop(households, gq_pop: dict[str, int], cfg, seed: int):
    """Flag by risk, pair within (unit, composition) pools, relocate.

    Returns the relocated households, each household's risk inputs
    ``(block population, same-composition households, block
    households)`` and score, and the ``SwapStats`` fields in order.
    """
    rng = np.random.default_rng((int(seed), 0x5A9))
    pop, n_in_block, n_same = dict(gq_pop), {}, {}
    for blk, cells, adults in households:
        pop[blk] = pop.get(blk, 0) + len(cells)
        n_in_block[blk] = n_in_block.get(blk, 0) + 1
        key = (blk, len(cells), adults)
        n_same[key] = n_same.get(key, 0) + 1

    inputs, scores, flagged = [], [], []
    draws = rng.random(len(households))
    for i, (blk, cells, adults) in enumerate(households):
        inputs.append((pop[blk], n_same[(blk, len(cells), adults)], n_in_block[blk]))
        if n_in_block[blk] == 1:
            score = 1.0
        else:
            score = 1.0 / (inputs[-1][1] * (1.0 + math.log10(max(pop[blk], 1))))
        scores.append(score)
        if draws[i] < min(1.0, cfg.base_rate * (1.0 + cfg.risk_multiplier * score)):
            flagged.append(i)

    def composition(i):
        return (len(households[i][1]), households[i][2])

    pairs, unpaired, pairs_in_tract = [], [], 0
    candidates = list(flagged)
    if cfg.prefer_local and cfg.pairing_scope is not GeoLevel.TRACT:
        pools = {}
        for i in flagged:
            pools.setdefault((households[i][0][:12], composition(i)), []).append(i)
        candidates = []
        for key in sorted(pools):
            got, rest = _pair_pool_loop(pools[key], households, rng)
            pairs.extend(got)
            pairs_in_tract += len(got)
            candidates.extend(rest)
    pools = {}
    for i in candidates:
        key = (_SCOPE_KEY[cfg.pairing_scope](households[i][0]), composition(i))
        pools.setdefault(key, []).append(i)
    for key in sorted(pools):
        got, rest = _pair_pool_loop(pools[key], households, rng)
        pairs_in_tract += sum(households[a][0][:12] == households[b][0][:12] for a, b in got)
        pairs.extend(got)
        unpaired.extend(rest)

    moved = list(households)
    for a, b in pairs:
        moved[a] = (households[b][0],) + households[a][1:]
        moved[b] = (households[a][0],) + households[b][1:]
    stats = (len(households), len(flagged), 2 * len(pairs), len(unpaired), pairs_in_tract)
    return moved, inputs, scores, stats


# world building and measurement, one block or node at a time: the
# library's array passes must match these bit for bit


def _group_rows_loop(ids):
    rows = {}
    for i, key in enumerate(ids):
        if key is not None:
            rows.setdefault(key, []).append(i)
    return {key: np.array(rows[key], dtype=np.intp) for key in sorted(rows)}


_NMF_KEY = {
    GeoLevel.STATE: "nmf_state",
    GeoLevel.COUNTY: "nmf_county",
    GeoLevel.TRACT: "nmf_tract",
    GeoLevel.OPT_BLOCKGROUP: "opt_blockgroup",
}


class SpineLoop:
    """Per-record spine index: every record parsed and checked in input
    order, every grouping a dict of row lists.  Exposes the same
    accessors as ``geo.Spine``."""

    def __init__(self, records):
        self._members = {}
        for raw, vtd, place in records:
            member = geo.enclosing_units(raw)
            if raw in self._members:
                raise InconsistentGeocode(f"duplicate block geocode {raw}")
            for level, code_ in ((GeoLevel.VTD, vtd), (GeoLevel.PLACE, place)):
                if code_ is not None:
                    geo.GeoId(level, code_)
                    member[level.value] = code_
            self._members[raw] = member
        if not self._members:
            raise EmptyTarget("a spine needs at least one block")
        self.blocks = tuple(sorted(self._members))
        self.block_index = {raw: i for i, raw in enumerate(self.blocks)}
        members = [self._members[raw] for raw in self.blocks]
        ids = {GeoLevel.NATION: [geo.NATION_ID] * len(members), GeoLevel.BLOCK: self.blocks}
        ids.update({lv: [m[key] for m in members] for lv, key in _NMF_KEY.items()})
        self._rows = {}
        self._nodes_by_level = {}
        for lv in geo.NMF_LEVEL_ORDER:
            groups = _group_rows_loop(ids[lv])
            self._rows.update(groups)
            self._nodes_by_level[lv] = tuple(groups)
        children = {node: [] for node in self._rows}
        for parent_lv, child_lv in zip(geo.NMF_LEVEL_ORDER, geo.NMF_LEVEL_ORDER[1:]):
            for child in self._nodes_by_level[child_lv]:
                children[ids[parent_lv][self._rows[child][0]]].append(child)
        self._children = {node: tuple(kids) for node, kids in children.items()}
        self._units = {
            lv: _group_rows_loop([m.get(lv.value) for m in members])
            for lv in GeoLevel if lv not in (GeoLevel.NATION, GeoLevel.OPT_BLOCKGROUP)
        }
        self._units[GeoLevel.NATION] = {geo.NATION_ID: self._rows[geo.NATION_ID]}

    def block_geoid(self, raw):
        return self._members[raw]["block"]

    def membership(self, raw):
        return dict(self._members[raw])

    def nodes_at(self, level):
        return self._nodes_by_level[level]

    def children(self, node_id):
        return self._children[node_id]

    def node_rows(self, node_id):
        return self._rows[node_id]

    def units_at(self, level):
        return {code_: frozenset(self.blocks[i] for i in rows)
                for code_, rows in self._units[level].items()}

    def target_rows(self, target):
        return self._units[target.level][target.code]


def cef_loop(spine, seed, profile, schema):
    """Per block: its own stream draws the population and the axis
    shares, and the cell probabilities are their outer product."""
    shape = schema.shape
    mu = float(np.log(profile.median_block_pop))
    counts = np.zeros((len(spine.blocks), schema.size), dtype=np.int64)
    for i, raw in enumerate(spine.blocks):
        rng = np.random.default_rng(block_seed(seed, raw))
        if rng.random() < profile.zero_pop_prob:
            continue
        pop = max(1, int(round(float(rng.lognormal(mu, profile.log_sigma)))))
        probs = np.ones(shape)
        for ai, (name, card) in enumerate(schema.axes):
            if name == "voting_age":
                p = rng.beta(*profile.adult_beta)
                axis_p = np.array([1.0 - p, p])
            elif name == "hispanic":
                p = rng.beta(*profile.hispanic_beta)
                axis_p = np.array([1.0 - p, p])
            elif name == "race":
                base = _race_base_shares(card)
                axis_p = rng.dirichlet(base * profile.race_concentration * card)
            elif name == "housing":
                gq = profile.group_quarters_share
                axis_p = np.full(card, gq / (card - 1))
                axis_p[0] = 1.0 - gq
            else:
                axis_p = rng.dirichlet(np.ones(card))
            view = [1] * len(shape)
            view[ai] = card
            probs = probs * axis_p.reshape(view)
        counts[i] = rng.multinomial(pop, probs.reshape(-1))
    return HistogramDataset(spine, schema, counts, kind="enumeration")


def dgauss_loop(sigma2: float, size: int, rng) -> np.ndarray:
    """Discrete Gaussian draws from one stream by rejection from a
    two-sided geometric, in rounds of about 1.8 proposals per missing
    draw until ``size`` are kept."""
    t = int(np.floor(np.sqrt(sigma2))) + 1
    p = float(-np.expm1(-1.0 / t))
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        m = int((size - filled) * 1.8) + 16
        y = (rng.geometric(p, size=m) - rng.geometric(p, size=m)).astype(np.int64)
        log_keep = -((np.abs(y) - sigma2 / t) ** 2) / (2.0 * sigma2)
        acc = y[np.log(rng.random(m)) < log_keep]
        take = min(acc.size, size - filled)
        out[filled : filled + take] = acc[:take]
        filled += take
    return out


def measurements_loop(cef, q, seed, nodes=None):
    """Per node: exact answers from its own histogram, then one noise
    draw per noise group from the node's own stream, groups in
    ascending variance order.  Returns (nodes, values)."""
    if nodes is None:
        node_list = [n for lv in geo.NMF_LEVEL_ORDER for n in cef.spine.nodes_at(lv)]
    else:
        node_list = sorted(set(nodes), key=lambda n: (len(n), n))
    qmat = q.matrix.astype(np.int64)
    noise_groups = {}
    values = np.empty((len(node_list), q.n_rows), dtype=np.int64)
    for i, node in enumerate(node_list):
        level = node_level(node)
        if level not in noise_groups:
            variances = q.variances_for(level)
            noise_groups[level] = [(float(v), np.nonzero(variances == v)[0])
                                   for v in np.unique(variances) if v > 0]
        rng = np.random.default_rng(node_seed(seed, node))
        values[i] = qmat @ cef.node_histogram(node)
        for v, cols in noise_groups[level]:
            values[i, cols] += dgauss_loop(v, cols.size, rng)
    return tuple(node_list), values
