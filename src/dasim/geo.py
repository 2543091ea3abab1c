"""Geographic spines, block geocode parsing, and off-spine composition.

Two spines matter here.  The standard census spine is
nation > state > county > tract > block group > block, with voting
districts and places as off-spine unions of whole blocks.  The noisy
measurement file is published on its own optimized spine: sub-state
units are split into AI/AN and non-AI/AN portions, tracts are replaced
by tract-equivalents, and block groups are replaced by optimized block
groups that regroup blocks without regard to the standard block-group
digit.

A block geocode is a fixed-width 31-digit string, and its layout is
written once: ``GeoCode`` lists the fields in geocode order with their
widths, and ``_UNITS`` cuts the id of every unit on both spines (the
crosswalk's columns) from those fields.  Parsing, node levels, the
crosswalk and every grouping of a ``Spine`` derive from these two tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptyTarget, InconsistentGeocode, MalformedGeocode, ParameterError

NATION_ID = "US"


class GeoLevel(enum.Enum):
    BLOCK = "block"
    OPT_BLOCKGROUP = "optimized_blockgroup"
    BLOCKGROUP = "blockgroup"
    TRACT = "tract"
    COUNTY = "county"
    STATE = "state"
    VTD = "vtd"
    PLACE = "place"
    NATION = "nation"

    @classmethod
    def from_name(cls, name: str) -> "GeoLevel":
        try:
            return cls(name)
        except ValueError:
            raise ParameterError(f"unknown geographic level {name!r}") from None


# Optimized-spine levels ordered root first; composition descends this.
NMF_LEVEL_ORDER = (
    GeoLevel.NATION,
    GeoLevel.STATE,
    GeoLevel.COUNTY,
    GeoLevel.TRACT,
    GeoLevel.OPT_BLOCKGROUP,
    GeoLevel.BLOCK,
)


def _digits(n: int):
    return field(metadata={"digits": n})


@dataclass(frozen=True)
class GeoCode:
    """Parsed fields of a 31-digit block geocode, all kept as strings, in
    geocode order; a field's ``digits`` metadata is its width."""

    aian_flag: str = _digits(1)  # 0 or 1
    state_fips: str = _digits(2)
    spine_opt_code: str = _digits(2)  # "10" = on spine, county or below
    county_fips: str = _digits(3)
    tract_equiv: str = _digits(4)  # tract FIPS-equivalent
    opt_blockgroup_equiv: str = _digits(3)  # optimized block-group FIPS-equivalent
    geoid_state: str = _digits(2)  # GEOID parts from here on
    geoid_county: str = _digits(3)
    geoid_tract: str = _digits(6)
    bg_digit: str = _digits(1)  # repeats the first digit of the block FIPS
    block_fips: str = _digits(4)

    @property
    def raw(self) -> str:
        """Reassemble the original 31-digit string."""
        return "".join(getattr(self, name) for name in _FIELD)

    @property
    def geoid(self) -> str:
        """15-digit census block GEOID (drops the redundant bg_digit)."""
        return _cut(self.raw, "block")


_WIDTH = {f.name: f.metadata["digits"] for f in fields(GeoCode)}
GEOCODE_LENGTH = sum(_WIDTH.values())
# each GeoCode field's digits in the geocode
_FIELD = {name: slice(end - _WIDTH[name], end)
          for name, end in zip(_WIDTH, accumulate(_WIDTH.values()))}


def _span(first: str, last: Optional[str] = None) -> slice:
    """The digits of GeoCode fields first through last (or first alone)."""
    return slice(_FIELD[first].start, _FIELD[last or first].stop)


# Per crosswalk column, in column order: its level, whether it names an
# optimized-spine node (else a census unit), and the geocode digits whose
# concatenation is its id.  A node id is a geocode prefix, bar the
# state's; the block GEOID skips the redundant bg_digit, which ends the
# block group's.  The geocode holds no VTD or place: they come with it.
_UNITS: dict[str, tuple[GeoLevel, bool, tuple[slice, ...]]] = {
    "geocode": (GeoLevel.BLOCK, True, (_span("aian_flag", "block_fips"),)),
    "state": (GeoLevel.STATE, False, (_span("geoid_state"),)),
    "county": (GeoLevel.COUNTY, False, (_span("geoid_state", "geoid_county"),)),
    "tract": (GeoLevel.TRACT, False, (_span("geoid_state", "geoid_tract"),)),
    "blockgroup": (GeoLevel.BLOCKGROUP, False, (_span("geoid_state", "bg_digit"),)),
    "block": (GeoLevel.BLOCK, False, (_span("geoid_state", "geoid_tract"), _span("block_fips"))),
    "vtd": (GeoLevel.VTD, False, ()),
    "place": (GeoLevel.PLACE, False, ()),
    "nmf_state": (GeoLevel.STATE, True, (_span("state_fips"),)),
    "nmf_county": (GeoLevel.COUNTY, True, (_span("aian_flag", "county_fips"),)),
    "nmf_tract": (GeoLevel.TRACT, True, (_span("aian_flag", "tract_equiv"),)),
    "opt_blockgroup": (GeoLevel.OPT_BLOCKGROUP, True,
                       (_span("aian_flag", "opt_blockgroup_equiv"),)),
}
CROSSWALK_COLUMNS = tuple(_UNITS)


def _width(key: str) -> int:
    return sum(s.stop - s.start for s in _UNITS[key][2])


def _cut(raw: str, key: str) -> str:
    """The id of a block's unit under one crosswalk column."""
    return "".join(raw[s] for s in _UNITS[key][2])


# GEOID widths for standard census identifiers.  VTD is state+county+6,
# place is state+5.  Nation uses the literal "US".
GEOID_WIDTH = {
    **{lv: _width(key) for key, (lv, nmf, cut) in _UNITS.items() if cut and not nmf},
    GeoLevel.VTD: 11,
    GeoLevel.PLACE: 7,
    GeoLevel.NATION: len(NATION_ID),
}
# optimized-spine levels below the nation by the length of their node ids
_NODE_LEVEL = {_width(key): lv for key, (lv, nmf, _) in _UNITS.items() if nmf}


@dataclass(frozen=True)
class GeoId:
    """A standard census identifier: level plus fixed-width code."""

    level: GeoLevel
    code: str

    def __post_init__(self) -> None:
        if self.level is GeoLevel.OPT_BLOCKGROUP:
            raise ParameterError("optimized block groups carry spine node ids, not GEOIDs")
        width = GEOID_WIDTH[self.level]
        if self.level is GeoLevel.NATION:
            if self.code != NATION_ID:
                raise ParameterError(f"nation GeoId code must be {NATION_ID!r}")
            return
        if len(self.code) != width or not (self.code.isascii() and self.code.isdigit()):
            raise ParameterError(
                f"{self.level.value} GeoId must be {width} digits, got {self.code!r}"
            )


def parse_geocode(raw: str) -> GeoCode:
    """Split a 31-digit geocode into its fixed-width fields.

    Raises MalformedGeocode unless ``raw`` is exactly 31 decimal digits,
    and InconsistentGeocode if digit 27 does not repeat the first digit
    of the block FIPS.
    """
    if (not isinstance(raw, str) or len(raw) != GEOCODE_LENGTH
            or not (raw.isascii() and raw.isdigit())):
        raise MalformedGeocode(
            f"geocode must be a {GEOCODE_LENGTH}-digit decimal string, got {raw!r}"
        )
    code = GeoCode(**{name: raw[at] for name, at in _FIELD.items()})
    if code.aian_flag not in ("0", "1"):
        raise InconsistentGeocode(f"AI/AN flag must be 0 or 1, got {code.aian_flag!r}")
    if code.bg_digit != code.block_fips[0]:
        raise InconsistentGeocode(
            f"digit 27 ({code.bg_digit}) must repeat the first block-FIPS digit "
            f"({code.block_fips[0]}) in {raw}"
        )
    return code


def node_level(node_id: str) -> GeoLevel:
    """Level of an optimized-spine node id (geocode prefix scheme)."""
    if node_id == NATION_ID:
        return GeoLevel.NATION
    if len(node_id) not in _NODE_LEVEL:
        raise ParameterError(f"not an optimized-spine node id: {node_id!r}")
    return _NODE_LEVEL[len(node_id)]


def enclosing_units(raw: str) -> dict[str, str]:
    """Every enclosing unit of a block on both spines, keyed like the
    crosswalk columns.  Raises like parse_geocode."""
    parse_geocode(raw)
    return {key: _cut(raw, key) for key, (_, _, cut) in _UNITS.items()
            if cut and key != "geocode"}


def _digit_rows(codes: Sequence, width: int) -> Optional[np.ndarray]:
    """The codes as a (codes x width) matrix of ASCII digit bytes, or None
    unless every code is a string of exactly ``width`` decimal digits."""
    try:
        text = "".join(codes)
    except TypeError:
        return None
    if set(map(len, codes)) - {width} or not text.isascii():
        return None
    digits = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(len(codes), width)
    # below "0" wraps around to large uint8 values
    return digits if (digits - ord("0") <= 9).all() else None


def _raise_first_error(records: Sequence[tuple[str, Optional[str], Optional[str]]]) -> None:
    """Check the records one at a time in input order and raise the first
    bad one's error: parse_geocode's, a duplicate's, or GeoId's."""
    seen: set[str] = set()
    for raw, vtd, place in records:
        parse_geocode(raw)
        if raw in seen:
            raise InconsistentGeocode(f"duplicate block geocode {raw}")
        seen.add(raw)
        for level, code_ in ((GeoLevel.VTD, vtd), (GeoLevel.PLACE, place)):
            if code_ is not None:
                GeoId(level, code_)


def _group_rows(keys: np.ndarray) -> tuple[tuple[str, ...], np.ndarray, list[np.ndarray]]:
    """Group rows by a fixed-width byte key: the distinct keys in sorted
    order, each row's group, and each group's rows in ascending order."""
    ids, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    rows = np.argsort(inverse, kind="stable")
    ends = np.cumsum(counts).tolist()
    return (tuple(ids.astype(str).tolist()), inverse,
            [rows[a:b] for a, b in zip([0] + ends[:-1], ends)])


def _byte_keys(digits: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """One fixed-width byte string per row, from some columns of a digit matrix."""
    part = np.ascontiguousarray(digits[:, cols])
    return part.view(f"S{part.shape[1]}").ravel()


class Spine:
    """Immutable index of blocks on both the standard and optimized spines.

    Built from block geocodes plus optional VTD/place assignments; every
    grouping on either spine is derived from the geocode digits, so the
    parser and the pipeline share one code path.  Blocks are sorted by
    geocode, and every optimized-spine node and standard unit is an
    array of row indices into that order.  The rows of a node need not
    be contiguous: the geocode sorts on the AI/AN flag before the state
    digits, so a state's AI/AN blocks sit apart from its other blocks.
    """

    def __init__(self, records: Iterable[tuple[str, Optional[str], Optional[str]]]):
        records = list(records)
        if not records:
            raise EmptyTarget("a spine needs at least one block")
        raws, vtds, places = (list(col) for col in zip(*records, strict=True))
        # every check at once on digit matrices; on any failure the checks
        # run again record by record, so that the first bad record in
        # input order raises its own error
        digits = _digit_rows(raws, GEOCODE_LENGTH)
        extra: dict[GeoLevel, tuple[list[int], Optional[np.ndarray]]] = {}
        for lv, codes_ in ((GeoLevel.VTD, vtds), (GeoLevel.PLACE, places)):
            given = [i for i, c in enumerate(codes_) if c is not None]
            extra[lv] = given, _digit_rows([codes_[i] for i in given], GEOID_WIDTH[lv])
        ok = digits is not None and all(d is not None for _, d in extra.values())
        if ok:
            keys = digits.view(f"S{GEOCODE_LENGTH}").ravel()
            order = np.argsort(keys, kind="stable")
            flag, bg, fips = (_FIELD[f].start for f in ("aian_flag", "bg_digit", "block_fips"))
            ok = ((digits[:, flag] <= ord("1")).all() and (digits[:, bg] == digits[:, fips]).all()
                  and not (keys[order[1:]] == keys[order[:-1]]).any())
        if not ok:
            _raise_first_error(records)
        digits = digits[order]
        n = len(raws)

        # all block geocodes, sorted: the row order of every dataset
        self.blocks: tuple[str, ...] = tuple(raws[i] for i in order.tolist())
        self.block_index = {raw: i for i, raw in enumerate(self.blocks)}
        self._rows: dict[str, np.ndarray] = {NATION_ID: np.arange(n)}
        self._nodes_by_level: dict[GeoLevel, tuple[str, ...]] = {GeoLevel.NATION: (NATION_ID,)}
        self._units: dict[GeoLevel, dict[str, np.ndarray]] = {
            GeoLevel.NATION: {NATION_ID: self._rows[NATION_ID]}
        }
        # per level: each row's node, as an index into the level's nodes
        node_of = {GeoLevel.NATION: np.zeros(n, dtype=np.intp)}
        # optimized-spine nodes, standard units, and per crosswalk column
        # every block's unit id; a block outside every VTD or place has the
        # empty key and id
        self._member_ids: dict[str, tuple[str, ...]] = {}
        for key, (lv, nmf, cut) in _UNITS.items():
            if cut:
                keys = _byte_keys(digits, np.r_[cut])
            else:
                given, unit_digits = extra[lv]
                keys = np.zeros(n, dtype=f"S{GEOID_WIDTH[lv]}")
                keys[given] = unit_digits.view(keys.dtype).ravel()
                keys = keys[order]
            ids, unit_of, rows = _group_rows(keys)
            if nmf:
                self._nodes_by_level[lv], node_of[lv] = ids, unit_of
                self._rows.update(zip(ids, rows))
            else:
                self._units[lv] = {unit: r for unit, r in zip(ids, rows) if unit}
            if key != "geocode":  # a block's geocode is its own id
                self._member_ids[key] = tuple(np.array(ids, dtype=object)[unit_of].tolist())
        self._node_of = node_of
        self._children: dict[str, tuple[str, ...]] = {}
        for parent_lv, child_lv in zip(NMF_LEVEL_ORDER, NMF_LEVEL_ORDER[1:]):
            kids = self._nodes_by_level[child_lv]
            # all rows of a child share its parent
            parent_of = np.empty(len(kids), dtype=np.intp)
            parent_of[node_of[child_lv]] = node_of[parent_lv]
            by_parent = [[] for _ in self._nodes_by_level[parent_lv]]
            for kid, p in zip(kids, parent_of.tolist()):
                by_parent[p].append(kid)
            self._children.update(zip(self._nodes_by_level[parent_lv], map(tuple, by_parent)))
        for block in self._nodes_by_level[GeoLevel.BLOCK]:
            self._children[block] = ()
        self._compositions: dict[GeoId, tuple[str, ...]] = {}  # filled by compose_target

    def _block_set(self, rows: np.ndarray) -> frozenset[str]:
        return frozenset(self.blocks[i] for i in rows)

    # ------------------------------------------------------------------
    # block accessors

    def unit_ids(self, key: str) -> tuple[str, ...]:
        """Per block row, the id of its enclosing unit under one
        ``enclosing_units`` key, ``vtd`` or ``place`` (every crosswalk
        column but the geocode); empty for a block outside every VTD or
        place."""
        return self._member_ids[key]

    # ------------------------------------------------------------------
    # optimized-spine accessors

    def nodes_at(self, level: GeoLevel) -> tuple[str, ...]:
        """Sorted optimized-spine node ids at one level."""
        if level not in self._nodes_by_level:
            raise ParameterError(f"{level.value} is not an optimized-spine level")
        return self._nodes_by_level[level]

    def node_index(self, level: GeoLevel) -> np.ndarray:
        """Per block row, the index of its node in ``nodes_at(level)``."""
        return self._node_of[level]

    def children(self, node_id: str) -> tuple[str, ...]:
        return self._children[node_id]

    def node_rows(self, node_id: str) -> np.ndarray:
        """Sorted block rows under an optimized-spine node."""
        return self._rows[node_id]

    def nmf_blocks(self, node_id: str) -> frozenset[str]:
        """Block geocodes under an optimized-spine node."""
        return self._block_set(self._rows[node_id])

    def has_node(self, node_id: str) -> bool:
        return node_id in self._rows

    # ------------------------------------------------------------------
    # standard-spine accessors

    def units_at(self, level: GeoLevel) -> dict[str, frozenset[str]]:
        """Map of GEOID -> block geocodes for a standard level."""
        if level not in GEOID_WIDTH:
            raise ParameterError("optimized block groups are spine nodes, not GEOID units")
        return {code_: self._block_set(rows) for code_, rows in self._units[level].items()}

    def target_rows(self, target: GeoId) -> np.ndarray:
        """Sorted block rows of a standard-census target; EmptyTarget if unknown."""
        rows = self._units[target.level].get(target.code)
        if rows is None:
            raise EmptyTarget(
                f"unknown {target.level.value} {target.code!r} (not on this spine)"
            )
        return rows

    def blocks_of_target(self, target: GeoId) -> frozenset[str]:
        """Block set of a standard-census target; EmptyTarget if unknown."""
        return self._block_set(self.target_rows(target))


def compose_target(spine: Spine, target: GeoId) -> tuple[str, ...]:
    """Disjoint optimized-spine units whose union is a target geography.

    Greedy hierarchical fill: descend the optimized spine root-down and
    take every node whose blocks all lie in the target and are not yet
    covered, level by level in node order; only nodes that straddle the
    target's edge are opened further, down to single blocks.
    Summation-only by construction — no unit is ever subtracted — so the
    parts stay disjoint and their noisy measurements stay independent.
    A spine never changes, so it keeps each target's parts.
    """
    known = spine._compositions.get(target)
    if known is not None:
        return known
    inside = np.zeros(len(spine.blocks), dtype=bool)
    inside[spine.target_rows(target)] = True
    parts: list[str] = []
    frontier = [NATION_ID]
    for _ in NMF_LEVEL_ORDER:
        taken, straddling = [], []
        for node in frontier:
            hit = inside[spine.node_rows(node)]
            if hit.all():
                taken.append(node)
            elif hit.any():
                straddling.extend(spine.children(node))
        parts.extend(sorted(taken))
        frontier = straddling
    spine._compositions[target] = tuple(parts)
    return spine._compositions[target]


# ----------------------------------------------------------------------
# synthetic spine generation


@dataclass(frozen=True)
class SpineSpec:
    """Shape parameters for a synthetic test spine.

    Standard block groups are encoded in the block-FIPS leading digit;
    optimized block groups regroup a shuffled block order, so the two
    spines genuinely disagree.  A fraction of tracts is split into AI/AN
    and non-AI/AN fragments on the optimized spine.  VTDs partition each
    county's blocks across tract boundaries; places cover part of each
    state.
    """

    states: int = 1
    counties_per_state: int = 2
    tracts_per_county: int = 2
    blockgroups_per_tract: int = 2
    blocks_per_blockgroup: int = 3
    obg_size: int = 3
    aian_tract_prob: float = 0.3
    aian_block_frac: float = 0.4
    vtds_per_county: int = 2
    places_per_state: int = 1

    def __post_init__(self) -> None:
        if not (1 <= self.states <= 99):
            raise ParameterError("states must be in 1..99")
        if not (1 <= self.counties_per_state <= 499):
            raise ParameterError("counties_per_state must be in 1..499")
        if not (1 <= self.tracts_per_county <= 9999):
            raise ParameterError("tracts_per_county must be in 1..9999")
        if not (1 <= self.blockgroups_per_tract <= 9):
            raise ParameterError("blockgroups_per_tract must be in 1..9")
        if not (1 <= self.blocks_per_blockgroup <= 999):
            raise ParameterError("blocks_per_blockgroup must be in 1..999")
        if self.obg_size < 1:
            raise ParameterError("obg_size must be positive")
        # optimized block-group codes run 101 + pos // obg_size up to 999
        if (self.blockgroups_per_tract * self.blocks_per_blockgroup - 1) // self.obg_size > 898:
            raise ParameterError("a tract's blocks need more than 899 optimized block groups; "
                                 "raise obg_size")
        if not (0.0 <= self.aian_tract_prob <= 1.0):
            raise ParameterError("aian_tract_prob must be in [0, 1]")
        if not (0.0 < self.aian_block_frac < 1.0) and self.aian_tract_prob > 0:
            raise ParameterError("aian_block_frac must be in (0, 1)")
        if self.vtds_per_county < 1:
            raise ParameterError("vtds_per_county must be positive")
        if not (0 <= self.places_per_state <= 40000):  # place codes 60000 + pi
            raise ParameterError("places_per_state must be in 0..40000")


def make_synthetic_spine(spec: SpineSpec, seed: int) -> Spine:
    """Deterministically generate a spine matching ``spec``."""
    rng = np.random.default_rng((int(seed), 0x5B1E))
    records: list[tuple[str, Optional[str], Optional[str]]] = []

    for si in range(spec.states):
        state = f"{si + 1:02d}"
        state_blocks: list[str] = []
        for ci in range(spec.counties_per_state):
            county = f"{2 * ci + 1:03d}"
            county_blocks: list[str] = []
            # one tract-equivalent counter per (aian side, state, county)
            eq_counter = {"0": 0, "1": 0}
            for ti in range(spec.tracts_per_county):
                geoid_tract = f"{(ti + 1) * 100:06d}"
                # standard block FIPS codes, grouped by leading digit
                block_codes = [
                    f"{bg + 1}{bi + 1:03d}"
                    for bg in range(spec.blockgroups_per_tract)
                    for bi in range(spec.blocks_per_blockgroup)
                ]
                n = len(block_codes)
                aian_mask = np.zeros(n, dtype=bool)
                if rng.random() < spec.aian_tract_prob and n >= 2:
                    k = max(1, round(spec.aian_block_frac * n))
                    k = min(k, n - 1)
                    aian_mask[rng.choice(n, size=k, replace=False)] = True
                for side in ("0", "1"):
                    idx = np.flatnonzero(aian_mask == (side == "1"))
                    if not idx.size:
                        continue
                    eq_counter[side] += 1
                    # the side's geocode in field order, block fields as placeholders
                    fixed = dict(aian_flag=side, state_fips=state, spine_opt_code="10",
                                 county_fips=county, tract_equiv=f"{eq_counter[side]:04d}",
                                 geoid_state=state, geoid_county=county, geoid_tract=geoid_tract)
                    template = "".join(fixed.get(name, f"%({name})s") for name in _FIELD)
                    # optimized block groups chop a shuffled order
                    order = rng.permutation(idx.size)
                    for pos, i in enumerate(idx[order].tolist()):
                        obg, bf = f"{101 + pos // spec.obg_size:03d}", block_codes[i]
                        county_blocks.append(template % dict(
                            opt_blockgroup_equiv=obg, bg_digit=bf[0], block_fips=bf))
            # VTDs partition the county's blocks across tract boundaries
            county_blocks.sort()
            perm = rng.permutation(len(county_blocks))
            vtd_of = {}
            for vi, chunk in enumerate(np.array_split(perm, spec.vtds_per_county)):
                vtd = state + county + f"{vi + 1:06d}"
                for j in chunk.tolist():
                    vtd_of[county_blocks[j]] = vtd
            for raw in county_blocks:
                records.append((raw, vtd_of[raw], None))
            state_blocks.extend(county_blocks)
        # places cover consecutive chunks of a shuffled state block list,
        # leaving a remainder in no place at all
        if spec.places_per_state > 0 and len(state_blocks) > 1:
            perm = rng.permutation(len(state_blocks))
            chunk = max(1, len(state_blocks) // (spec.places_per_state + 1))
            pos = 0
            for pi in range(spec.places_per_state):
                place = state + f"{60000 + pi:05d}"
                for j in perm[pos : pos + chunk].tolist():
                    raw, vtd, _ = records[-len(state_blocks) + j]
                    records[-len(state_blocks) + j] = (raw, vtd, place)
                pos += chunk
    return Spine(records)
