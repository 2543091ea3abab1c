"""Household swapping, the pre-2020 disclosure-avoidance mechanism.

A fraction of households is flagged with probability increasing in
re-identification risk, then flagged households are paired with a
partner of identical composition (household size, voting-age count) in
a different block and the two swap locations.  Because partners match
on exactly the published invariants, every block keeps its total and
voting-age population bit for bit; other attributes (Hispanic origin,
race) travel with the household, which is where the protection and the
error come from.

Group-quarters persons never swap; they are carried through unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import geo
from .errors import ParameterError
from .histograms import STREAM_CHUNK, CellSchema, HistogramDataset, streams

# household size pmf for the synthetic decomposition, sizes 1..7;
# roughly census-shaped (many singles and couples, a thin large tail)
DEFAULT_SIZE_PMF = (0.28, 0.34, 0.15, 0.13, 0.06, 0.03, 0.01)


@dataclass(frozen=True)
class SwapStats:
    n_households: int
    n_flagged: int
    n_swapped: int
    n_unpaired: int
    pairs_in_tract: int


class HouseholdFile:
    """Household decomposition of a dataset, plus unswappable persons.

    Household ``i`` lives in block row ``block_rows[i]`` (``spine.blocks``
    order) and has ``sizes[i]`` members, ``adults[i]`` of them of voting
    age.  ``cells`` holds every member's schema cell, household after
    household.  ``gq_counts`` is a (blocks x cells) matrix holding the
    group-quarters persons, who never join a household.  The arrays are
    read-only; a swap permutes ``block_rows`` and keeps the rest.
    """

    def __init__(
        self,
        spine: geo.Spine,
        schema: CellSchema,
        block_rows: np.ndarray,
        sizes: np.ndarray,
        adults: np.ndarray,
        cells: np.ndarray,
        gq_counts: np.ndarray,
    ):
        arrays = []
        for a in (block_rows, sizes, adults, cells, gq_counts):
            a = np.array(a, dtype=np.int64)
            a.flags.writeable = False
            arrays.append(a)
        self.block_rows, self.sizes, self.adults, self.cells, self.gq_counts = arrays
        self.spine = spine
        self.schema = schema
        n = len(self.sizes)
        if (len(self.block_rows) != n or len(self.adults) != n
                or (self.sizes < 1).any() or int(self.sizes.sum()) != len(self.cells)):
            raise ParameterError("household arrays disagree in length")
        if ((self.block_rows < 0) | (self.block_rows >= len(spine.blocks))).any():
            raise ParameterError("household in a block row outside the spine")
        if ((self.cells < 0) | (self.cells >= schema.size)).any():
            raise ParameterError("household member in a cell outside the schema")

    def to_dataset(self, kind: str = "dataset", run_seed: Optional[int] = None) -> HistogramDataset:
        counts = np.array(self.gq_counts, dtype=np.int64)
        np.add.at(counts, (np.repeat(self.block_rows, self.sizes), self.cells), 1)
        return HistogramDataset(self.spine, self.schema, counts, kind, run_seed)


def make_household_file(
    cef: HistogramDataset,
    seed: int,
    size_pmf: Sequence[float] = DEFAULT_SIZE_PMF,
) -> HouseholdFile:
    """Partition each block's household population into households.

    The enumeration only carries person counts, so household structure
    is synthesized: per block, persons are shuffled and cut into runs
    with sizes drawn from ``size_pmf``, the last run cut short at the
    block's population.  Block streams are keyed by (seed, geocode) so
    any block's decomposition is reproducible in isolation.
    """
    pmf = np.asarray(size_pmf, dtype=float)
    if pmf.ndim != 1 or pmf.size == 0 or (pmf < 0).any():
        raise ParameterError("size_pmf must be a non-negative vector")
    if not math.isclose(float(pmf.sum()), 1.0, rel_tol=0, abs_tol=1e-9):
        raise ParameterError("size_pmf must sum to 1")
    schema = cef.schema
    housing = schema.categories("housing")
    voting = schema.categories("voting_age")
    # numpy's Generator.choice(p=pmf) draws one uniform per value and
    # looks it up in this normalized cdf
    cdf = pmf.cumsum()
    cdf /= cdf[-1]

    hh_counts = np.where(housing == 0, cef.counts, 0)
    block_pop = hh_counts.sum(axis=1)
    blocks = cef.spine.blocks
    rows, sizes, cells = [], [], []
    for start in range(0, len(blocks), STREAM_CHUNK):
        chunk = np.arange(start, min(start + STREAM_CHUNK, len(blocks)))
        n = block_pop[chunk]
        # every household person of the chunk, block after block, by cell
        persons = np.repeat(np.tile(np.arange(schema.size), len(chunk)),
                            hh_counts[chunk].reshape(-1))
        uniforms = np.empty(persons.size)
        offsets = np.cumsum(n) - n
        populated = np.flatnonzero(n).tolist()
        rngs = streams([(int(seed), int(blocks[start + i]), 0x11D) for i in populated])
        for rng, lo, hi in zip(rngs, offsets[populated].tolist(),
                               (offsets + n)[populated].tolist()):
            rng.shuffle(persons[lo:hi])
            rng.random(out=uniforms[lo:hi])
        # a block's persons fill runs of drawn sizes until the block is
        # full, the last run cut short: draw j of a block opens a run if
        # the draws before it leave room
        first = np.repeat(offsets, n)
        room = np.repeat(n, n)
        draws = np.searchsorted(cdf, uniforms, side="right") + 1
        begin = np.cumsum(draws) - draws
        begin -= begin[first]
        opens = begin < room
        sizes.append(np.minimum(draws, room - begin)[opens])
        rows.append(np.repeat(chunk, n)[opens])
        cells.append(persons)
    sizes, cells = np.concatenate(sizes), np.concatenate(cells)
    adults = np.add.reduceat(voting[cells], np.cumsum(sizes) - sizes)
    gq_counts = np.where(housing != 0, cef.counts, 0)
    return HouseholdFile(cef.spine, schema, np.concatenate(rows), sizes, adults, cells, gq_counts)


def risk_score(block_pop, n_same_composition, n_households) -> np.ndarray:
    """Re-identification risk proxy in [0, 1], elementwise.

    The lone household of a block is fully identifiable and scores 1.
    Otherwise risk falls with the number of same-composition households
    in the block (direct hiding) and with block population (crowding).
    """
    pop, same, n = (np.asarray(a) for a in (block_pop, n_same_composition, n_households))
    if (pop < 0).any() or (same < 1).any() or (n < 1).any():
        raise ParameterError("risk_score needs a populated block")
    # math.log10 once per distinct population, not np.log10: the two
    # differ in the last bit for some integers (11, 40, 43, ...)
    values, inverse = np.unique(np.maximum(pop, 1), return_inverse=True)
    log_pop = np.array([math.log10(v) for v in values.tolist()])[inverse]
    return np.where(n == 1, 1.0, 1.0 / (same * (1.0 + log_pop)))


@dataclass(frozen=True)
class SwapConfig:
    """Flagging and pairing policy."""

    base_rate: float = 0.02
    risk_multiplier: float = 4.0
    pairing_scope: geo.GeoLevel = geo.GeoLevel.COUNTY
    prefer_local: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.base_rate <= 1.0):
            raise ParameterError("base_rate must be in [0, 1]")
        if self.risk_multiplier < 0:
            raise ParameterError("risk_multiplier must be non-negative")
        if self.pairing_scope not in (
            geo.GeoLevel.STATE,
            geo.GeoLevel.COUNTY,
            geo.GeoLevel.TRACT,
        ):
            raise ParameterError("pairing scope must be state, county, or tract")

    def flag_probability(self, score):
        return np.minimum(1.0, self.base_rate * (1.0 + self.risk_multiplier * score))


def _pools(members: np.ndarray, keys: np.ndarray) -> list[list[int]]:
    """Group ``members`` by ``keys[member]``: pools in ascending key
    order, each keeping its members' order."""
    member_keys = keys[members]
    order = np.argsort(member_keys, kind="stable")
    cuts = np.flatnonzero(np.diff(member_keys[order])) + 1
    return [pool.tolist() for pool in np.split(members[order], cuts)]


def _pair_pool(
    pool: list[int], block_rows: list[int], rng: np.random.Generator
) -> tuple[list[tuple[int, int]], list[int]]:
    """Pair households so partners sit in different blocks.

    The pool is shuffled once; then repeatedly the first household is
    paired with the earliest later one from another block.  Whatever
    cannot be paired is returned for a wider pool or left unswapped.
    """
    order = list(pool)
    rng.shuffle(order)
    pairs: list[tuple[int, int]] = []
    leftovers: list[int] = []
    while order:
        a = order.pop(0)
        b = next((b for b in order if block_rows[b] != block_rows[a]), None)
        if b is None:
            leftovers.append(a)
        else:
            order.remove(b)
            pairs.append((a, b))
    return pairs, leftovers


def swap_households(
    hhfile: HouseholdFile,
    cfg: Optional[SwapConfig] = None,
    seed: int = 0,
) -> tuple[HouseholdFile, SwapStats]:
    """Flag, pair, and relocate households; returns the swapped file.

    Deterministic given (file, config, seed).  Flagged households that
    find no identical-composition partner in a different block within
    the pairing scope stay where they are and are reported unpaired.
    """
    cfg = cfg or SwapConfig()
    rng = np.random.default_rng((int(seed), 0x5A9))
    blocks = hhfile.spine.blocks
    rows, sizes, adults = hhfile.block_rows, hhfile.sizes, hhfile.adults

    # composition (size, adults) as one code in the same sort order
    comp = sizes * (np.max(adults, initial=0) + 1) + adults
    n_comp = np.max(comp, initial=0) + 1
    _, same, n_same = np.unique(rows * n_comp + comp, return_inverse=True, return_counts=True)
    n_in_block = np.bincount(rows, minlength=len(blocks))
    block_pop = hhfile.gq_counts.sum(axis=1)
    np.add.at(block_pop, rows, sizes)
    score = risk_score(block_pop[rows], n_same[same], n_in_block[rows])
    flagged = np.flatnonzero(rng.random(len(rows)) < cfg.flag_probability(score))

    tract = hhfile.spine.node_index(geo.GeoLevel.TRACT)[rows]
    row_list = rows.tolist()
    pairs: list[tuple[int, int]] = []
    unpaired: list[int] = []
    candidates = flagged
    if cfg.prefer_local and cfg.pairing_scope is not geo.GeoLevel.TRACT:
        widened: list[int] = []
        for pool in _pools(flagged, tract * n_comp + comp):
            got, rest = _pair_pool(pool, row_list, rng)
            pairs.extend(got)
            widened.extend(rest)
        candidates = np.array(widened, dtype=np.int64)
    unit = hhfile.spine.node_index(cfg.pairing_scope)[rows]
    for pool in _pools(candidates, unit * n_comp + comp):
        got, rest = _pair_pool(pool, row_list, rng)
        pairs.extend(got)
        unpaired.extend(rest)

    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    new_rows = rows.copy()
    new_rows[a], new_rows[b] = rows[b], rows[a]
    stats = SwapStats(
        n_households=len(rows),
        n_flagged=len(flagged),
        n_swapped=2 * len(pairs),
        n_unpaired=len(unpaired),
        pairs_in_tract=int((tract[a] == tract[b]).sum()),
    )
    out = HouseholdFile(
        hhfile.spine, hhfile.schema, new_rows, sizes, adults, hhfile.cells, hhfile.gq_counts
    )
    return out, stats
