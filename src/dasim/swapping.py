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

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import geo
from .errors import ParameterError
from .histograms import CellSchema, HistogramDataset

# household size pmf for the synthetic decomposition, sizes 1..7;
# roughly census-shaped (many singles and couples, a thin large tail)
DEFAULT_SIZE_PMF = (0.28, 0.34, 0.15, 0.13, 0.06, 0.03, 0.01)


@dataclass(frozen=True)
class Household:
    """One household: its block and the schema cell of each member."""

    block: str
    cells: tuple[int, ...]
    adults: int

    @property
    def size(self) -> int:
        return len(self.cells)

    @property
    def composition(self) -> tuple[int, int]:
        return (len(self.cells), self.adults)


@dataclass(frozen=True)
class SwapStats:
    n_households: int
    n_flagged: int
    n_swapped: int
    n_unpaired: int
    pairs_in_tract: int

    @property
    def n_pairs(self) -> int:
        return self.n_swapped // 2

    @property
    def achieved_rate(self) -> float:
        if self.n_households == 0:
            return 0.0
        return self.n_swapped / self.n_households


class HouseholdFile:
    """Household decomposition of a dataset, plus unswappable persons.

    ``gq_counts`` is a (blocks x cells) matrix in ``spine.blocks`` order
    holding the group-quarters persons, who never join a household.
    """

    def __init__(
        self,
        spine: geo.Spine,
        schema: CellSchema,
        households: Sequence[Household],
        gq_counts: np.ndarray,
    ):
        self.spine = spine
        self.schema = schema
        self.households = tuple(households)
        self.gq_counts = gq_counts
        for hh in self.households:
            if hh.block not in spine.block_index:
                raise ParameterError(f"household in unknown block {hh.block!r}")

    def to_dataset(self, kind: str = "dataset", run_seed: Optional[int] = None) -> HistogramDataset:
        counts = np.array(self.gq_counts, dtype=np.int64)
        index = self.spine.block_index
        rows = [index[hh.block] for hh in self.households for _ in hh.cells]
        cells = [c for hh in self.households for c in hh.cells]
        np.add.at(counts, (np.array(rows, dtype=np.intp), np.array(cells, dtype=np.intp)), 1)
        return HistogramDataset(self.spine, self.schema, counts, kind, run_seed)


def _axis_category(schema: CellSchema, axis: str) -> np.ndarray:
    """Category index along one axis for every flat cell."""
    ai = schema.axis_index(axis)
    return np.indices(schema.shape)[ai].reshape(schema.size)


def make_household_file(
    cef: HistogramDataset,
    seed: int,
    size_pmf: Sequence[float] = DEFAULT_SIZE_PMF,
) -> HouseholdFile:
    """Partition each block's household population into households.

    The enumeration only carries person counts, so household structure
    is synthesized: per block, persons are shuffled and cut into runs
    with sizes drawn from ``size_pmf``.  Block streams are keyed by
    (seed, geocode) so any block's decomposition is reproducible in
    isolation.
    """
    pmf = np.asarray(size_pmf, dtype=float)
    if pmf.ndim != 1 or pmf.size == 0 or (pmf < 0).any():
        raise ParameterError("size_pmf must be a non-negative vector")
    if not math.isclose(float(pmf.sum()), 1.0, rel_tol=0, abs_tol=1e-9):
        raise ParameterError("size_pmf must sum to 1")
    schema = cef.schema
    housing = _axis_category(schema, "housing")
    voting = _axis_category(schema, "voting_age")
    sizes = np.arange(1, pmf.size + 1)

    households: list[Household] = []
    for raw, hh_part in zip(cef.spine.blocks, np.where(housing == 0, cef.counts, 0)):
        n = int(hh_part.sum())
        if n == 0:
            continue
        rng = np.random.default_rng((int(seed), int(raw), 0x11D))
        persons = np.repeat(np.arange(schema.size), hh_part)
        rng.shuffle(persons)
        draws = rng.choice(sizes, size=n, p=pmf)
        i = 0
        for s in draws:
            if i >= n:
                break
            take = min(int(s), n - i)
            cells = tuple(int(c) for c in persons[i:i + take])
            adults = int(voting[list(cells)].sum())
            households.append(Household(raw, cells, adults))
            i += take
    gq_counts = np.where(housing != 0, cef.counts, 0)
    return HouseholdFile(cef.spine, schema, households, gq_counts)


def risk_score(block_pop: int, n_same_composition: int, n_households: int) -> float:
    """Re-identification risk proxy in [0, 1].

    The lone household of a block is fully identifiable and scores 1.
    Otherwise risk falls with the number of same-composition households
    in the block (direct hiding) and with block population (crowding).
    """
    if block_pop < 0 or n_same_composition < 1 or n_households < 1:
        raise ParameterError("risk_score needs a populated block")
    if n_households == 1:
        return 1.0
    return 1.0 / (n_same_composition * (1.0 + math.log10(max(block_pop, 1))))


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

    def flag_probability(self, score: float) -> float:
        return min(1.0, self.base_rate * (1.0 + self.risk_multiplier * score))


_SCOPE_KEY = {
    geo.GeoLevel.STATE: lambda raw: raw[1:3],
    geo.GeoLevel.COUNTY: lambda raw: raw[:8],
    geo.GeoLevel.TRACT: lambda raw: raw[:12],
}


def _pair_pool(
    pool: list[int], households: Sequence[Household], rng: np.random.Generator
) -> tuple[list[tuple[int, int]], list[int]]:
    """Pair indices so partners sit in different blocks.

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
        partner_pos = None
        for pos, b in enumerate(order):
            if households[b].block != households[a].block:
                partner_pos = pos
                break
        if partner_pos is None:
            leftovers.append(a)
        else:
            pairs.append((a, order.pop(partner_pos)))
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
    hhs = hhfile.households
    rng = np.random.default_rng((int(seed), 0x5A9))

    rows = np.array([hhfile.spine.block_index[hh.block] for hh in hhs], dtype=np.intp)
    n_in_block = np.bincount(rows, minlength=len(hhfile.spine.blocks))
    block_pop = hhfile.gq_counts.sum(axis=1)
    np.add.at(block_pop, rows, [hh.size for hh in hhs])
    comp_in_block: dict[tuple[str, tuple[int, int]], int] = {}
    for i, hh in enumerate(hhs):
        key = (hh.block, hh.composition)
        comp_in_block[key] = comp_in_block.get(key, 0) + 1

    flagged: list[int] = []
    draws = rng.random(len(hhs))
    for i, hh in enumerate(hhs):
        score = risk_score(
            int(block_pop[rows[i]]),
            comp_in_block[(hh.block, hh.composition)],
            int(n_in_block[rows[i]]),
        )
        if draws[i] < cfg.flag_probability(score):
            flagged.append(i)

    scope_key = _SCOPE_KEY[cfg.pairing_scope]
    pairs: list[tuple[int, int]] = []
    unpaired: list[int] = []
    pairs_in_tract = 0

    pools: dict[tuple, list[int]] = {}
    if cfg.prefer_local and cfg.pairing_scope is not geo.GeoLevel.TRACT:
        for i in flagged:
            key = (hhs[i].block[:12], hhs[i].composition)
            pools.setdefault(key, []).append(i)
        widened: list[int] = []
        for key in sorted(pools):
            got, rest = _pair_pool(pools[key], hhs, rng)
            pairs.extend(got)
            pairs_in_tract += len(got)
            widened.extend(rest)
        candidates = widened
    else:
        candidates = list(flagged)

    pools = {}
    for i in candidates:
        key = (scope_key(hhs[i].block), hhs[i].composition)
        pools.setdefault(key, []).append(i)
    for key in sorted(pools):
        got, rest = _pair_pool(pools[key], hhs, rng)
        for a, b in got:
            if hhs[a].block[:12] == hhs[b].block[:12]:
                pairs_in_tract += 1
        pairs.extend(got)
        unpaired.extend(rest)

    new_hhs = list(hhs)
    for a, b in pairs:
        new_hhs[a] = dataclasses.replace(hhs[a], block=hhs[b].block)
        new_hhs[b] = dataclasses.replace(hhs[b], block=hhs[a].block)

    stats = SwapStats(
        n_households=len(hhs),
        n_flagged=len(flagged),
        n_swapped=2 * len(pairs),
        n_unpaired=len(unpaired),
        pairs_in_tract=pairs_in_tract,
    )
    out = HouseholdFile(hhfile.spine, hhfile.schema, new_hhs, hhfile.gq_counts)
    return out, stats
