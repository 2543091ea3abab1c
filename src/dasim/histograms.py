"""Demographic cell schemas, histograms, aggregation, and synthetic
enumeration data.

A histogram is a flat non-negative integer count vector over the cross
product of schema axes.  The production-scale schema is voting age (2)
x Hispanic origin (2) x race (63) x housing type (8) = 2016 cells; the
desk-scale default shrinks race to 6 major categories and housing to 2,
which keeps every code path intact at 48 cells.  Published statistics
are integer linear combinations of cells, collected in an aggregation
matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import geo
from .errors import ParameterError, SchemaError


@dataclass(frozen=True)
class CellSchema:
    """Ordered demographic axes, each a (name, cardinality) pair."""

    axes: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.axes:
            raise SchemaError("schema needs at least one axis")
        names = [n for n, _ in self.axes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate axis names in {names}")
        for name, card in self.axes:
            if card < 2:
                raise SchemaError(f"axis {name!r} must have at least 2 categories")

    @property
    def size(self) -> int:
        out = 1
        for _, card in self.axes:
            out *= card
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(card for _, card in self.axes)

    def axis_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.axes):
            if n == name:
                return i
        raise SchemaError(f"no axis named {name!r}")

    def categories(self, axis: str) -> np.ndarray:
        """The category along one axis of every flat cell."""
        return np.indices(self.shape)[self.axis_index(axis)].reshape(self.size)


DESK_SCHEMA = CellSchema(
    (("voting_age", 2), ("hispanic", 2), ("race", 6), ("housing", 2))
)
FULL_SCHEMA = CellSchema(
    (("voting_age", 2), ("hispanic", 2), ("race", 63), ("housing", 8))
)

# Category labels for the 6-way race axis.  At full scale the race axis
# is the 63 non-empty subsets of these six base groups, indexed by
# bitmask - 1 (so index 0 = white alone, index 2 = white+black, ...).
RACE_BASE = ("white", "black", "aian", "asian", "nhpi", "other")


@dataclass(frozen=True)
class AggregationMatrix:
    """Published statistics as small-integer rows over schema cells."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != len(self.labels):
            raise SchemaError("one matrix row per statistic label required")
        if len(set(self.labels)) != len(self.labels):
            raise SchemaError("statistic labels must be unique")
        if not np.issubdtype(m.dtype, np.integer):
            raise SchemaError("aggregation entries must be integers")
        if (m == 0).all(axis=1).any():
            raise SchemaError("every statistic must touch at least one cell")
        m = m.astype(np.int64)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def row(self, label: str) -> np.ndarray:
        try:
            return self.matrix[self.labels.index(label)]
        except ValueError:
            raise SchemaError(f"no statistic named {label!r}") from None


@functools.cache
def default_statistics(schema: CellSchema) -> AggregationMatrix:
    """Total, voting-age, Hispanic, and per-race-category statistics.

    With a 63-way race axis the race statistics are the six alone
    categories plus a pooled two_or_more; otherwise one statistic per
    race category, named from RACE_BASE when the cardinality matches.
    Built once per schema; the result is immutable.
    """
    labels: list[str] = []
    rows: list[np.ndarray] = []

    def axis_rows(axis_name: str, wanted: Mapping[str, Sequence[int]]) -> None:
        grid = schema.categories(axis_name)
        for label, values in wanted.items():
            labels.append(label)
            rows.append(np.isin(grid, values).astype(np.int64))

    labels.append("total")
    rows.append(np.ones(schema.size, dtype=np.int64))
    axis_rows("voting_age", {"voting_age": [1]})
    axis_rows("hispanic", {"hispanic": [1]})

    race_card = dict(schema.axes).get("race")
    if race_card == 63:
        alone = {RACE_BASE[i] + "_alone": [(1 << i) - 1] for i in range(6)}
        multi = [m - 1 for m in range(1, 64) if bin(m).count("1") >= 2]
        axis_rows("race", {**alone, "two_or_more": multi})
    elif race_card is not None:
        names = RACE_BASE if race_card == len(RACE_BASE) else tuple(
            f"race_{i}" for i in range(race_card)
        )
        axis_rows("race", {names[v]: [v] for v in range(race_card)})
    return AggregationMatrix(tuple(labels), np.array(rows, dtype=np.int64))


def aggregate(counts: np.ndarray, agg: AggregationMatrix) -> np.ndarray:
    """Statistic values of one histogram, aligned to ``agg.labels``."""
    counts = np.asarray(counts)
    if counts.shape[0] != agg.matrix.shape[1]:
        raise SchemaError(
            f"histogram has {counts.shape[0]} cells, aggregation expects {agg.matrix.shape[1]}"
        )
    return agg.matrix @ counts


class HistogramDataset:
    """Block histograms of one dataset: a (blocks x cells) matrix whose
    row i is the histogram of ``spine.blocks[i]``.

    The dtype is validated once: non-negative int64 counts summing to
    less than 2**53, or finite floats for a continuous release.  Every
    node and target histogram is a sum of whole rows, so hierarchy
    consistency is automatic.  ``kind`` and ``run_seed`` record the
    provenance the estimators check.
    """

    def __init__(self, spine: geo.Spine, schema: CellSchema, counts: np.ndarray,
                 kind: str = "dataset", run_seed: Optional[int] = None):
        arr = np.asarray(counts)
        want = (len(spine.blocks), schema.size)
        if arr.shape != want:
            raise SchemaError(f"block counts have shape {arr.shape}, want {want}")
        if np.issubdtype(arr.dtype, np.integer):
            if (arr < 0).any():
                raise SchemaError("histogram counts must be non-negative")
            # measurement sums counts in float64, exact below 2**53; a
            # float sum of non-negative counts reaches 2**53 just when the
            # exact total does
            if arr.sum(dtype=float) >= 2**53:
                raise ParameterError("the total population must be below 2**53")
            arr = arr.astype(np.int64)
        elif np.issubdtype(arr.dtype, np.floating):
            if not np.isfinite(arr).all():
                raise SchemaError("histogram counts must be finite")
            arr = arr.astype(float)
        else:
            raise SchemaError(f"histogram counts must be integers or floats, not {arr.dtype}")
        arr.flags.writeable = False
        self.spine = spine
        self.schema = schema
        self.counts = arr
        self.kind = kind
        self.run_seed = run_seed

    def block_histogram(self, raw: str) -> np.ndarray:
        return self.counts[self.spine.block_index[raw]]

    def node_histogram(self, node_id: str) -> np.ndarray:
        """Histogram of an optimized-spine node (sum of its blocks)."""
        return self.node_histograms([node_id])[0]

    def node_histograms(self, nodes: Sequence[str]) -> np.ndarray:
        """Histograms of optimized-spine nodes, one row per node: one
        gather of their block rows and one segment sum."""
        rows = [self.spine.node_rows(n) for n in nodes]
        starts = np.cumsum([0] + [len(r) for r in rows[:-1]])
        return np.add.reduceat(self.counts[np.concatenate(rows)], starts, axis=0)

    def level_histograms(self, level: geo.GeoLevel) -> np.ndarray:
        """Histograms of every optimized-spine node at one level, one row
        per node in ``spine.nodes_at(level)`` order."""
        return self.node_histograms(self.spine.nodes_at(level))

    def target_histogram(self, target: geo.GeoId) -> np.ndarray:
        """Histogram of any standard-census target (sum of whole blocks)."""
        return self.counts[self.spine.target_rows(target)].sum(axis=0)

    @property
    def total_population(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class GenerationProfile:
    """Knobs for the synthetic enumeration generator.

    Block populations are rounded lognormals, skewed like real block
    counts (median near 23 with a long right tail), with a point mass
    of unpopulated blocks.  Demographic mixes vary block to block so
    that per-block shares span a wide range.
    """

    median_block_pop: float = 23.0
    log_sigma: float = 1.25
    zero_pop_prob: float = 0.05
    adult_beta: tuple[float, float] = (15.0, 5.0)
    hispanic_beta: tuple[float, float] = (2.0, 8.0)
    race_concentration: float = 2.0
    group_quarters_share: float = 0.03

    def __post_init__(self) -> None:
        if self.median_block_pop <= 0 or self.log_sigma <= 0:
            raise ParameterError("median_block_pop and log_sigma must be positive")
        if not (0.0 <= self.zero_pop_prob < 1.0):
            raise ParameterError("zero_pop_prob must be in [0, 1)")
        for a, b in (self.adult_beta, self.hispanic_beta):
            if a <= 0 or b <= 0:
                raise ParameterError("beta parameters must be positive")
        if self.race_concentration <= 0:
            raise ParameterError("race_concentration must be positive")
        if not (0.0 <= self.group_quarters_share < 1.0):
            raise ParameterError("group_quarters_share must be in [0, 1)")


def _race_base_shares(card: int) -> np.ndarray:
    if card == 6:
        return np.array([0.60, 0.12, 0.01, 0.05, 0.002, 0.218])
    if card == 63:
        # alone categories carry most of the mass; combinations split a
        # small remainder, thinning with the number of groups combined
        six = _race_base_shares(6)
        out = np.zeros(63)
        for mask in range(1, 64):
            bits = [i for i in range(6) if mask >> i & 1]
            if len(bits) == 1:
                out[mask - 1] = six[bits[0]] * 0.95
            else:
                out[mask - 1] = 0.05 / (len(bits) ** 2)
        return out / out.sum()
    return np.full(card, 1.0 / card)


# blocks or nodes per chunk of the passes that draw from one RNG stream
# each: it bounds the chunk's arrays, and the generators kept alive
# (about 1.1 KB each) where a stream draws again after an array step
STREAM_CHUNK = 1024

# numpy's SeedSequence is the seed_seq_fe hash of O'Neill's randutils: a
# pool of four 32-bit words, filled and cross-mixed by hash steps whose
# xor and multiply constants run through a fixed chain, whatever the data
_POOL = 4
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hash_steps(init: int, mult: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiply) constants of hash steps ``first`` to ``first +
    count - 1`` as columns: step k xors the chain's k-th value and
    multiplies by the next, the chain starting at ``init`` and multiplied
    by ``mult`` at every step."""
    chain = [init]
    for _ in range(first + count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    c = np.array(chain[first:], dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _pool_steps(first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    return _hash_steps(0x43B0D7E5, 0x931E8875, first, count)


# steps 0-3 hash the first four entropy words into the pool; steps 4-15
# mix every pool word into the three others, source by source.  A round's
# constants are laid out by destination, with a filler at the source,
# which keeps its word.
_FILL = _pool_steps(0, _POOL)
_ROUNDS = [tuple(c[np.insert(np.arange(3), src, 0)] for c in _pool_steps(_POOL + 3 * src, 3))
           for src in range(_POOL)]
# generate_state's steps, one per 32-bit output word, cycling the pool twice
_OUT = _hash_steps(0x8B51F9DD, 0x58F38DED, 0, 2 * _POOL)


@functools.cache
def _word_steps(word: int) -> tuple[np.ndarray, np.ndarray]:
    """Constants of the four steps that mix entropy word ``word`` >= 4
    into the pool words."""
    return _pool_steps(_POOL + _POOL * (_POOL - 1) + _POOL * (word - _POOL), _POOL)


@functools.cache
def _layout(widths: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For key columns of ``widths`` words each, laid side by side: each
    word's column, its place in the column (as a column vector), and
    where each column starts."""
    col_of = np.repeat(np.arange(len(widths)), widths)
    within = np.concatenate([np.arange(w) for w in widths])[:, None]
    return col_of, within, np.cumsum(widths) - widths


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _SHIFT)


class _Seeded(ISeedSequence):
    """Hands PCG64 the four state words a SeedSequence would have made."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("holds the state of a PCG64 only")
        return self.words


def streams(
    keys: Sequence[Sequence[int]], spawn: Optional[Sequence[Sequence[int]]] = None
) -> list[np.random.Generator]:
    """One generator per row of ``keys``, drawing exactly what
    ``np.random.default_rng(np.random.SeedSequence(entropy=keys[i],
    spawn_key=spawn[i]))`` draws (no spawn key without ``spawn``).

    ``keys`` rows hold the same number of non-negative Python ints, and
    so do ``spawn`` rows.  numpy's hash runs once over the whole call, a
    (entropy words x streams) array: each int becomes its fewest
    little-endian 32-bit words (0 is one word), the run entropy is
    zero-padded to the pool size when a spawn key follows it, and
    streams whose entropy is shorter skip the later mixing steps.
    """
    n = len(keys)
    if n == 0:
        return []
    run_lens = set(map(len, keys))
    spawn_lens = {0} if spawn is None else set(map(len, spawn))
    if (len(run_lens) != 1 or len(spawn_lens) != 1 or 0 in run_lens
            or spawn is not None and len(spawn) != n):
        raise ValueError("every stream needs a key row of one or more ints, all rows "
                         "as long, and a spawn row when any has one")
    rows = keys if spawn is None else [tuple(k) + tuple(s) for k, s in zip(keys, spawn)]
    columns = list(zip(*rows))
    if min(map(min, columns)) < 0:
        raise ValueError("expected non-negative integer")
    widths = tuple(max(1, -(-max(column).bit_length() // 32)) for column in columns)
    nbytes = [4 * w for w in widths]
    blob = b"".join(v.to_bytes(b, "little") for row in rows for v, b in zip(row, nbytes))
    words = np.frombuffer(blob, dtype="<u4").reshape(n, -1).T.astype(np.uint32, copy=False)

    # each int's word count, and where its words go in its stream's entropy
    col_of, within, starts = _layout(widths)
    count = np.maximum.reduceat((words != 0) * (within + 1), starts)
    np.maximum(count, 1, out=count)
    lead = np.cumsum(count, axis=0)
    lead -= count
    (run,), (spawned,) = run_lens, spawn_lens
    if spawned:  # numpy pads the run entropy to the pool size
        lead[run:] += np.maximum(_POOL - lead[run], 0)
    ends = lead[-1] + count[-1]
    at, stream = np.nonzero(within < count[col_of])
    entropy = np.zeros((max(_POOL, int(ends.max())), n), dtype=np.uint32)
    entropy[lead[col_of[at], stream] + within[at, 0], stream] = words[at, stream]

    pool = _hashmix(entropy[:_POOL], *_FILL)
    for src, steps in enumerate(_ROUNDS):
        mixed = _mix(pool, _hashmix(pool[src], *steps))
        mixed[src] = pool[src]
        pool = mixed
    short = int(ends.min())
    for word in range(_POOL, len(entropy)):
        mixed = _mix(pool, _hashmix(entropy[word], *_word_steps(word)))
        pool = mixed if word < short else np.where(ends > word, mixed, pool)
    state = _hashmix(np.concatenate([pool, pool]), *_OUT).astype(np.uint64)
    # generate_state(4, uint64) pairs the 32-bit words low word first.
    # PCG64 reads the array's buffer as is, so each stream's four words
    # must lie together: a strided row would seed another stream.
    seeds = np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return [generator(pcg64(_Seeded(row))) for row in seeds]


def _axis_draws(
    schema: CellSchema, profile: GenerationProfile
) -> list[tuple[str, tuple[float, float] | np.ndarray]]:
    """How a block's stream draws its shares along each axis: ("beta",
    parameters) for a two-way split, ("dirichlet", concentrations), or
    ("fixed", shares) for the housing axis, which draws nothing."""
    out = []
    for name, card in schema.axes:
        if name == "voting_age":
            out.append(("beta", profile.adult_beta))
        elif name == "hispanic":
            out.append(("beta", profile.hispanic_beta))
        elif name == "race":
            out.append(("dirichlet", _race_base_shares(card) * profile.race_concentration * card))
        elif name == "housing":
            gq = profile.group_quarters_share
            shares = np.full(card, gq / (card - 1))
            shares[0] = 1.0 - gq
            out.append(("fixed", shares))
        else:
            out.append(("dirichlet", np.ones(card)))
    return out


def generate_synthetic_cef(
    spine: geo.Spine,
    seed: int,
    profile: Optional[GenerationProfile] = None,
    schema: CellSchema = DESK_SCHEMA,
) -> HistogramDataset:
    """Draw a deterministic synthetic enumeration for ``spine``.

    Each block gets its own RNG stream keyed by (seed, geocode), so
    a block's truth does not depend on spine iteration order.  A stream
    draws, in order: the zero-population coin, the population, the
    shares along each axis, and last the multinomial cell counts over
    the outer product of those shares.
    """
    profile = profile or GenerationProfile()
    shape = schema.shape
    mu = float(np.log(profile.median_block_pop))
    axes = _axis_draws(schema, profile)
    counts = np.zeros((len(spine.blocks), schema.size), dtype=np.int64)
    for start in range(0, len(spine.blocks), STREAM_CHUNK):
        chunk = range(start, min(start + STREAM_CHUNK, len(spine.blocks)))
        rngs = streams([(int(seed), int(spine.blocks[row])) for row in chunk])
        populated, rows, pops = [], [], []
        drawn: list[list] = [[] for _ in axes]
        for row, rng in zip(chunk, rngs):
            if rng.random() < profile.zero_pop_prob:
                continue
            pops.append(max(1, int(round(float(rng.lognormal(mu, profile.log_sigma))))))
            for (kind, param), got in zip(axes, drawn):
                if kind == "beta":
                    got.append(rng.beta(*param))
                elif kind == "dirichlet":
                    got.append(rng.dirichlet(param))
            populated.append(rng)
            rows.append(row)
        # every populated block's cell probabilities at once, each the
        # product of its axis shares taken in axis order
        probs = np.ones((len(rows),) + shape)
        for ai, ((kind, param), got) in enumerate(zip(axes, drawn)):
            if kind == "beta":
                p = np.array(got)
                shares = np.column_stack([1.0 - p, p])
            else:
                shares = np.array(got) if kind == "dirichlet" else param[None, :]
            view = [-1] + [1] * len(shape)
            view[ai + 1] = shape[ai]
            probs = probs * shares.reshape(view)
        probs = probs.reshape(len(rows), schema.size)
        for rng, row, pop, p in zip(populated, rows, pops, probs):
            counts[row] = rng.multinomial(pop, p)
    return HistogramDataset(spine, schema, counts, kind="enumeration")
