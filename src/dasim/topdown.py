"""TopDown-style hierarchical post-processing of noisy measurements.

The production optimizer is proprietary and cluster-scale; this is a
faithful desk-scale analog with the same contract: starting from the
root of the optimized spine, each generation of children is fitted
jointly to its own noisy measurements by weighted least squares (weights
are inverse noise variances, zero-variance measurements become hard
equalities), subject to summing exactly per cell to the already-fixed
parent, configured invariant statistics held exactly to the enumeration
truth, and non-negativity.

The Hessian of a generation is block diagonal, one level Hessian per
child, and only the parent sums couple the children.  So each child's
own KKT matrix is factored alone, and the parent-sum multipliers of a
node group come from the C x C Schur complement.  Under non-negativity
a cell whose parent is 0 is 0 in every child and is dropped before
solving (exact, and most block-level cells are such zeros).  Given the
parents, a generation's groups are independent, so they are sorted by
kept-cell count and stacked into bounded batches, each padded to its
widest group.  A primal-dual active set steps every group of a batch at
once and refactors only re-pinned children; a group that cycles, meets
an inconsistent pin set or reaches its cap is re-solved alone by a
Goldfarb-Idnani dual active set, which terminates and reports
infeasibility only when no non-negative solution exists.  Only levels
with equality rows (invariants, exact queries: by default the root
alone) border their children's KKT matrices, and ``_invert`` reaches a
border through its rows' small Schur matrix, so it inverts only definite ones.

A controlled largest-remainder rounding then integerizes each
generation, all of its groups at once, while preserving parent sums, and
a unit reallocation pass restores invariant statistics exactly.
Rounding snaps to a 1e-6 grid first, so released integers do not follow
solver float noise, and breaks ties by index order, never at random: the
map is a deterministic, constraint-satisfying function of the noisy
measurements, which is all the estimators downstream require.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import geo
from .errors import InfeasibleConstraints, SchemaError
from .histograms import AggregationMatrix, HistogramDataset, default_statistics
from .noise import NoisyMeasurements, QueryMatrix

logger = logging.getLogger(__name__)

_LEVEL_INDEX = {lv: i for i, lv in enumerate(geo.NMF_LEVEL_ORDER)}
_GRID = 10**6  # rounding snaps continuous values to multiples of 1/_GRID
_CAP = 200  # batched active-set steps before the dual method takes over
_EQ_TOL = 1e3  # equality residual allowed, in units of the bound tolerance
# KKT entries (children x dim^2) a batch stacks, 0.5 MB an array: 2**17 cost
# the 1,200-block world 7% more peak RSS than one group at a time, 2**16 2%
_CHUNK = 2**16


@dataclass(frozen=True)
class PostProcessConfig:
    """Constraints the post-processing must honor.

    Invariants are (optimized-spine level, statistic label) pairs held
    exactly to the enumeration value at that level and, by aggregation,
    at every level above it.  Invariant statistics must be 0/1 rows of
    the aggregation matrix, and for integer output their supports must be
    nested or disjoint (``resolve_invariants``).
    """

    invariants: tuple[tuple[geo.GeoLevel, str], ...] = ((geo.GeoLevel.STATE, "total"),)
    nonneg: bool = True
    integerize: bool = True

    def __post_init__(self) -> None:
        for level, _ in self.invariants:
            if level not in _LEVEL_INDEX:
                raise SchemaError(f"invariants: {level.value} is not an optimized-spine level")


# ----------------------------------------------------------------------
# structured constrained weighted least squares


class _Batch:
    """Equality-constrained solves of node groups stacked to one width, with
    their G and e per child, parent sums (None at the root), tolerances and
    names.  Group b's children share the inverse of one KKT matrix, A[b]
    (H[b] of its kept cells) bordered by its rows E[b], if any; a child whose
    pins change is refactored alone, each pinned (or pad) cell held at zero
    by identity in A and out of E.  The per-child copies of H, E, pad and
    tol, and each group's E'E, are gathered once, for every active-set step."""

    def __init__(self, H, E, pad, seg, G, e, parent, tol, where):
        self.H, self.E, self.pad, self.seg, self.G, self.e = H, E, pad, seg, G, e
        self.parent, self.tol, self.where = parent, tol, where
        self.start, self.sizes = np.searchsorted(seg, np.arange(len(where))), np.bincount(seg)
        reach = np.arange(self.sizes.max(initial=0))  # each group's children as slots
        self.slots = np.minimum(self.start[:, None] + reach, (self.start + self.sizes - 1)[:, None])
        self.full = (reach < self.sizes[:, None])[:, :, None, None]
        self.kid_H, self.kid_kept, self.kid_tol = H[seg], ~pad[seg], tol[seg, None]
        self.A = H + pad[:, :, None] * np.eye(pad.shape[1])
        self.bordered = E.shape[1] > 0  # else the KKT matrix is A alone
        if self.bordered:
            self.kid_E, self.EtE = E[seg], E.transpose(0, 2, 1) @ E
        self.pins = np.zeros(G.shape, dtype=bool)
        self.inv = _invert(self.A, E)[seg]

    def group(self, b: int) -> "_Batch":
        """Group b alone and unpinned, as a batch of its own."""
        kids, one = self.seg == b, slice(b, b + 1)
        return _Batch(self.H[one], self.E[one], self.pad[one], self.seg[kids] * 0, self.G[kids],
                      self.e[kids], None if self.parent is None else self.parent[one],
                      self.tol[one], self.where[one])

    def repin(self, pins: np.ndarray) -> None:
        changed = np.nonzero((pins != self.pins).any(axis=1))[0]
        self.pins = pins
        if changed.size:
            free, groups = ~pins[changed], self.seg[changed]
            A = self.A[groups]
            A *= free[:, :, None] & free[:, None, :]
            np.einsum("kii->ki", A)[...] += ~free
            E = self.E[groups] * free[:, None, :] if self.bordered else self.E
            self.inv[changed] = _invert(A, E)

    def solve(self, G: np.ndarray, e: np.ndarray,
              parent: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Minimize sum_i 1/2 x_i'H x_i - G_i'x_i over each group's children
        subject to E x_i = e_i, its parent sums (unless None) and the pins.
        Returns x and the multiplier of every pin (zero on free cells)."""
        n, seg = self.H.shape[1], self.seg
        free, mu = ~self.pins & self.kid_kept, 0.0
        sol = np.einsum("kij,kj->ki", self.inv,
                        np.concatenate([G * free, e], axis=1) if self.bordered else G * free)
        if parent is not None:
            # the parent-sum multipliers mu solve the Schur complement S.  A
            # shift of mu along a row of E is absorbed by the children's own
            # multipliers, so adding E'E makes S definite without changing
            # x.  Pins that empty a cell in every child leave S singular,
            # and the least-squares answer shows up as an inconsistent x.
            S = np.add.reduce((self.inv[:, :n, :n] * free[:, None])[self.slots], 1, where=self.full)
            if self.bordered:
                top = np.maximum(S.diagonal(axis1=1, axis2=2).max(axis=1, initial=0.0), 1.0)
                S += top[:, None, None] * self.EtE
            np.einsum("kii->ki", S)[...] += self.pad
            mu = _solve(S, np.add.reduceat(sol[:, :n], self.start, axis=0) - parent)[seg]
            sol -= np.einsum("kij,kj->ki", self.inv[:, :, :n], mu * free)
        x = sol[:, :n]
        grad = np.einsum("kj,kij->ki", x, self.kid_H) - G
        if self.bordered:
            grad += np.einsum("ki,kij->kj", sol[:, n:], self.kid_E)
        return x, np.where(self.pins, grad + mu, 0.0)

    def violation(self, x: np.ndarray, e: np.ndarray,
                  parent: Optional[np.ndarray]) -> np.ndarray:
        """Largest equality residual of each group's solution."""
        Ex = np.einsum("kj,kij->ki", x, self.kid_E) if self.bordered else None
        return _residual(Ex, e, x, parent, self.start)


def _invert(A: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Stacked inverses of the definite matrices A, bordered by their rows E
    into KKT matrices [[A, E'], [E, 0]] if E has rows, through the m x m
    Schur matrix T = E A^-1 E': [[A^-1 - Q E A^-1, Q], [Q', -T+]] with
    Q = A^-1 E' T+ (Benzi, Golub and Liesen, Acta Numerica 2005).  With T's
    pseudo-inverse T+ that is the KKT matrix's pseudo-inverse when rows are
    redundant: repeated, or with every cell pinned.  Redundant rows leave T
    singular values of about eps times its largest by SVD (by eigh, as
    ``hermitian=True`` takes them, up to 1e-11), so a 1e-10 cutoff drops them."""
    inv = np.linalg.inv(A)
    if E.shape[1] == 0:
        return inv
    AEt = inv @ E.transpose(0, 2, 1)
    Tp = np.linalg.pinv(E @ AEt, rcond=1e-10)
    Q = AEt @ Tp
    return np.concatenate([np.concatenate([inv - Q @ AEt.transpose(0, 2, 1), Q], axis=2),
                           np.concatenate([Q.transpose(0, 2, 1), -Tp], axis=2)], axis=1)


def _solve(A: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Stacked solves; a singular matrix gets the least-squares answer."""
    try:
        return np.linalg.solve(A, r[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # one singular matrix fails the whole stack
        if len(A) > 1:
            return np.concatenate([_solve(a[None], b[None]) for a, b in zip(A, r)])
        return np.linalg.lstsq(A[0], r[0], rcond=None)[0][None]


def _residual(Ex: Optional[np.ndarray], e: np.ndarray, x: np.ndarray,
              parent: Optional[np.ndarray], start: np.ndarray) -> np.ndarray:
    """Largest equality residual per group, from the children's E x (if any)."""
    worst = (np.zeros(len(start)) if Ex is None else
             np.maximum.reduceat(np.abs(Ex - e).max(axis=1, initial=0.0), start))
    if parent is not None:
        worst = np.maximum(worst, np.abs(np.add.reduceat(x, start, axis=0) - parent).max(axis=1))
    return worst


def _active_set(batch: _Batch) -> np.ndarray:
    """Primal-dual active set, every group of a batch at once: each step
    pins every negative free cell and releases every pin whose multiplier
    is negative.  A group whose steps cycle, meet an inconsistent pin set
    or reach the cap is re-solved alone by the dual active set."""
    ends = batch.start + batch.sizes
    seen = [{batch.pins[lo:hi].tobytes()} for lo, hi in zip(batch.start, ends)]
    live, failed = np.ones(len(batch.where), dtype=bool), np.zeros(len(batch.where), dtype=bool)
    low, most = -batch.kid_tol, _EQ_TOL * batch.tol
    for step in range(1, _CAP + 1):
        x, nu = batch.solve(batch.G, batch.e, batch.parent)
        pins = (batch.pins & (nu >= low)) | (x < low)
        moved = np.logical_or.reduceat((pins != batch.pins).any(axis=1), batch.start) & live
        stop = live & (batch.violation(x, batch.e, batch.parent) > most)
        for b in np.nonzero(moved & ~stop)[0]:
            key = pins[batch.start[b]:ends[b]].tobytes()
            stop[b] = key in seen[b]
            seen[b].add(key)
            if step == _CAP and not stop[b]:
                logger.warning("active-set iteration cap hit at %s after %d iterations; "
                               "re-solving by the dual active set", batch.where[b], _CAP)
                stop[b] = True
        failed, live = failed | stop, moved & ~stop
        if not live.any():
            break
        # converged and failed groups keep their pins, so their x stays put
        batch.repin(np.where(live[batch.seg, None], pins, batch.pins))
    for b in np.nonzero(failed)[0]:
        x[batch.seg == b] = _dual_active_set(batch.group(b))
    return x


def _dual_active_set(kids: _Batch) -> np.ndarray:
    """Dual active set over the bounds of a one-group batch, after
    Goldfarb and Idnani.

    Starts from the solution without pins, which is dual feasible, and
    raises the multiplier of the most negative free cell until that cell
    reaches zero and is pinned, dropping on the way every pin whose
    multiplier falls to zero.  A pin enters only when it is linearly
    independent of the active rows, and each one raises the dual
    objective, so no pin set repeats and the loop ends.  A negative cell
    that no step can lift proves that the group has no non-negative
    solution.
    """
    G, e, parent, tol, where = kids.G, kids.e, kids.parent, kids.tol[0], kids.where[0]
    kids.repin(np.zeros_like(kids.pins))
    x, nu = kids.solve(G, e, parent)
    if kids.violation(x, e, parent)[0] > _EQ_TOL * tol:
        raise InfeasibleConstraints(
            f"equality constraints are mutually inconsistent at {where}"
        )
    zero_e, zero_p = np.zeros_like(e), None if parent is None else np.zeros_like(parent)
    lift_tol = 1e-10 / max(float(kids.H[0].diagonal().max()), 1e-12)
    cap = _CAP + 2 * G.shape[0] * int((~kids.pad).sum())
    steps = 0
    while True:
        viol = np.where(kids.pins, 0.0, x)
        j = np.unravel_index(np.argmin(viol), viol.shape)
        if viol[j] >= -tol:
            return x
        unit = np.zeros_like(G)
        unit[j] = 1.0
        while True:  # raise cell j's multiplier until the cell reaches zero
            steps += 1
            if steps > cap:
                logger.warning("active-set iteration cap hit at %s after %d "
                               "dual iterations; keeping last iterate", where, cap)
                return x
            z, dnu = kids.solve(unit, zero_e, zero_p)
            full = -x[j] / z[j] if z[j] > lift_tol else np.inf
            falling = kids.pins & (dnu < -1e-12)
            ratio = np.where(falling, np.maximum(nu, 0.0) / np.where(falling, -dnu, 1.0), np.inf)
            drop = np.unravel_index(np.argmin(ratio), ratio.shape)
            pins = kids.pins.copy()
            if min(full, ratio[drop]) == np.inf:
                raise InfeasibleConstraints(f"no non-negative solution at {where}")
            if full <= ratio[drop]:
                pins[j] = True
                kids.repin(pins)
                x, nu = kids.solve(G, e, parent)
                break
            x, nu = x + ratio[drop] * z, nu + ratio[drop] * dnu
            pins[drop], nu[drop] = False, 0.0
            kids.repin(pins)


def _solve_level(H: np.ndarray, E: np.ndarray, G: np.ndarray, e: np.ndarray,
                 parents: Optional[np.ndarray], seg: np.ndarray, nonneg: bool,
                 where: Sequence[str]) -> np.ndarray:
    """Solve every node group of one generation: group b, the rows i of G
    with seg[i] == b (seg ascending), minimizes sum_i 1/2 x_i'H x_i - G_i'x_i
    subject to E x_i = e_i, sum_i x_i = parents[b] (no parents at the root)
    and optionally x >= 0.  Raises InfeasibleConstraints naming a group
    with no such x."""
    B, start = len(where), np.searchsorted(seg, np.arange(len(where)))
    tol = 1e-8 * np.maximum.reduceat(np.abs(e).max(axis=1, initial=1.0), start)
    if parents is not None:
        tol = np.maximum(tol, 1e-8 * np.abs(parents).max(axis=1, initial=0.0))
    keep = parents > 0 if nonneg and parents is not None else np.ones((B, G.shape[1]), bool)
    # a group's unknowns are its kept cells, its rows those that touch one
    rows = keep.astype(float) @ (E != 0).T > 0
    kept, n_rows = keep.sum(axis=1), rows.sum(axis=1)
    cell_order = np.argsort(~keep, axis=1, kind="stable")
    row_order = np.argsort(~rows, axis=1, kind="stable")
    # batches of one row count and at most _CHUNK KKT entries (children
    # times dimension squared; a larger group goes alone), groups taken by
    # row count and then kept cells, so that a batch's widths are alike
    order = np.lexsort((kept, n_rows))
    order = order[kept[order] > 0]
    sizes, widths, heights = (a[order].tolist() for a in (np.bincount(seg), kept, n_rows))
    cuts, stacked = [], 0
    for i, (k, w, m) in enumerate(zip(sizes, widths, heights)):
        stacked += k
        if i and (m != heights[i - 1] or stacked * (w + m) ** 2 > _CHUNK):
            cuts.append(i)
            stacked = k
    x = np.zeros(G.shape)
    for gs in map(np.sort, np.split(order, cuts) if order.size else ()):
        # a batch's narrower groups are padded with dropped cells, zeroed
        w, m = kept[gs].max(), n_rows[gs[0]]
        cells, rix, pad = cell_order[gs, :w], row_order[gs, :m], np.arange(w) >= kept[gs, None]
        member = np.zeros(B, dtype=bool)
        member[gs] = True
        kids = np.nonzero(member[seg])[0]
        sub = (np.cumsum(member) - 1)[seg[kids]]
        batch = _Batch(
            H[cells[:, :, None], cells[:, None, :]] * ~(pad[:, :, None] | pad[:, None, :]),
            E[rix[:, :, None], cells[:, None, :]] * ~pad[:, None, :], pad, sub,
            G[kids[:, None], cells[sub]], e[kids[:, None], rix[sub]],
            None if parents is None else parents[gs[:, None], cells], tol[gs],
            [where[b] for b in gs])
        x[kids[:, None], cells[sub]] = (_active_set(batch) if nonneg else
                                        batch.solve(batch.G, batch.e, batch.parent)[0])
    bad = np.nonzero(_residual(x @ E.T, e, x, parents, start) > _EQ_TOL * tol)[0]
    if bad.size:
        raise InfeasibleConstraints(
            f"equality constraints are mutually inconsistent at {where[bad[0]]}"
        )
    return np.clip(x, 0.0, None) if nonneg else x


# ----------------------------------------------------------------------
# controlled rounding


def _largest_remainder(values: np.ndarray, target,
                       seg: Optional[np.ndarray] = None) -> np.ndarray:
    """Round non-negative values to integers summing exactly to target.

    The classic controlled rounding: snap to the 1e-6 grid, floor
    everything, then hand out the missing units in order of largest
    fractional part, ties broken by index order.  A 2-D array is
    rounded column by column against one target per column, and each run
    of rows with one (ascending) ``seg`` id against its own targets.
    """
    shape = np.shape(values)
    units = np.clip(np.asarray(values, dtype=float).reshape(shape[0], -1), 0.0, None) * _GRID
    out, frac = np.divmod(np.rint(units).astype(np.int64), _GRID)
    seg = np.zeros(len(out), dtype=np.intp) if seg is None else np.asarray(seg)
    targets = np.asarray(target, dtype=np.int64).reshape(-1, out.shape[1])
    sizes = np.bincount(seg, minlength=len(targets))
    start = np.cumsum(sizes) - sizes
    need = targets - np.add.reduceat(out, start, axis=0)
    whole, rem = np.divmod(np.maximum(need, 0), sizes[:, None])
    # rank within the segment: largest fraction first, ties by index order
    order = np.argsort(seg[:, None] * _GRID + (_GRID - 1 - frac), axis=0, kind="stable")
    rank = np.argsort(order, axis=0) - start[seg, None]
    out += whole[seg] + (rank < rem[seg])
    for g, c in zip(*np.nonzero(need < 0)):
        rows = slice(start[g], start[g] + sizes[g])
        col, take = out[rows, c], int(-need[g, c])
        if col.sum() < take:
            raise InfeasibleConstraints(
                f"cannot round to non-negative integers with target {targets[g, c]}"
            )
        order = np.argsort(frac[rows, c], kind="stable")  # smallest fraction first
        while take:
            hit = order[col[order] > 0][:take]
            col[hit] -= 1
            take -= hit.size
    return out.reshape(shape)


def _repair_invariants(X: np.ndarray, labels: Sequence[str], supports: np.ndarray,
                       targets: np.ndarray, nonneg: bool) -> None:
    """Unit moves between siblings, inside one invariant's exclusive
    cells, until every invariant statistic is exact.  Supports come
    smallest first, targets one column per support.  Moves happen at a
    single cell at a time, so per-cell parent sums are untouched."""
    done = np.zeros(X.shape[1], dtype=bool)
    for label, support, target in zip(labels, supports, targets.T):
        free = np.nonzero(support & ~done)[0]
        s = X[:, support].sum(axis=1).astype(np.int64) - target
        if s.sum() != 0:
            raise InfeasibleConstraints(
                f"invariant {label!r} targets do not sum to the parent value"
            )
        while (s > 0).any():
            i = int(np.nonzero(s > 0)[0][0])
            j = int(np.nonzero(s < 0)[0][0])
            movable = free[X[i, free] >= 1]
            if movable.size == 0 and nonneg:
                raise InfeasibleConstraints(
                    f"no movable mass to repair invariant {label!r}"
                )
            cell = movable[0] if movable.size else free[np.argmax(X[i, free])]
            X[[i, j], cell] += (-1, 1)
            s[[i, j]] += (-1, 1)
        done |= support


def _round_root(x: np.ndarray, labels: Sequence[str], supports: np.ndarray,
                target: np.ndarray) -> np.ndarray:
    """Integerize the root against its invariant partition.

    Supports come smallest first and are nested or disjoint.  Cells are
    grouped by the smallest support containing them; each group is
    rounded to its exclusive integer target, cells under no invariant
    round to the rounded continuous total.
    """
    k = len(labels)
    # the smallest support holding each cell, k for none; inner[j, i]: j inside i
    owner = np.vstack([supports, np.ones((1, x.size), dtype=bool)]).argmax(axis=0)
    inner = (supports.astype(np.int64) @ supports.T) == supports.sum(axis=1)[:, None]
    exclusive = np.zeros(k + 1, dtype=np.int64)
    for i, label in enumerate(labels):
        # exclusive targets of inner supports partition their mass, so
        # subtracting them never double-counts on deeper nesting chains
        exclusive[i] = int(target[i]) - exclusive[:i][inner[:i, i]].sum()
        if exclusive[i] < 0 or (not (owner == i).any() and exclusive[i] != 0):
            raise InfeasibleConstraints(
                f"invariant {label!r} leaves an unroundable exclusive target"
            )
    rest = np.nonzero(owner == k)[0]
    if rest.size:
        exclusive[k] = int(round(float(x[rest].sum())))
    cells = np.argsort(owner, kind="stable")
    used, seg = np.unique(owner[cells], return_inverse=True)
    out = np.zeros(x.size, dtype=np.int64)
    out[cells] = _largest_remainder(x[cells], exclusive[used], seg)
    return out


# ----------------------------------------------------------------------
# the post-processing map


def resolve_invariants(
    cfg: PostProcessConfig, agg: AggregationMatrix
) -> dict[geo.GeoLevel, tuple[tuple[str, ...], np.ndarray]]:
    """Statistics to hold exact, per spine level: their labels in
    declaration order and a read-only (labels x cells) bool support
    matrix.  A level inherits every invariant declared at or below it, so
    the nation holds them all, and integer rounding needs them nested or
    disjoint there (and so at every level)."""
    rows = {}
    for _, label in cfg.invariants:
        rows[label] = agg.row(label)
        if ((rows[label] != 0) & (rows[label] != 1)).any():
            raise SchemaError(f"invariant statistic {label!r} must be a 0/1 row")
    table = {}
    for lv in geo.NMF_LEVEL_ORDER:
        labels = tuple(dict.fromkeys(label for level, label in cfg.invariants
                                     if _LEVEL_INDEX[level] >= _LEVEL_INDEX[lv]))
        supports = np.array([rows[label] for label in labels], dtype=bool).reshape(
            len(labels), agg.matrix.shape[1])
        supports.flags.writeable = False
        table[lv] = (labels, supports)
    supports = table[geo.GeoLevel.NATION][1].astype(np.int64)
    common, size = supports @ supports.T, supports.sum(axis=1)
    if cfg.integerize and ((common > 0) & (common < np.minimum.outer(size, size))).any():
        raise InfeasibleConstraints("overlapping invariant supports must be nested or disjoint")
    return table


def _level_hessian(H: np.ndarray) -> np.ndarray:
    """The level Hessian, made definite where the weighted queries leave
    it singular (no detail queries, or none noisy).  Only then is the
    solution not unique, and the small ridge picks one."""
    top = float(H.diagonal().max(initial=0.0))
    if top > 0.0 and np.linalg.eigvalsh(H)[0] > 1e-9 * top:
        return H
    return H + (1e-6 * top if top > 0.0 else 1.0) * np.eye(H.shape[0])


def topdown_postprocess(
    nms: NoisyMeasurements,
    cef: HistogramDataset,
    cfg: Optional[PostProcessConfig] = None,
    agg: Optional[AggregationMatrix] = None,
) -> HistogramDataset:
    """Map noisy measurements to a consistent synthetic population.

    Each generation is one (nodes x cells) array in ``spine.nodes_at``
    order.  The map is fully deterministic: rounding ties are resolved
    by index order.  The first call per (enumeration, query, config,
    aggregation) builds its ``_Plan``, and later calls reuse it.
    """
    cfg = cfg or PostProcessConfig()
    agg = agg or default_statistics(cef.schema)
    q = nms.query
    if q.schema.size != cef.schema.size:
        raise SchemaError("query matrix and enumeration schema disagree")
    # an AggregationMatrix holds an array, so it is keyed by identity; the
    # plan holds it, so its id names no other matrix while the plan lives
    plans = _PLANS.setdefault(cef, weakref.WeakKeyDictionary()).setdefault(q, {})
    plan = plans.get((cfg, id(agg)))
    if plan is None:
        plan = plans[cfg, id(agg)] = _Plan(cef, q, cfg, agg)
    per_level = plan.levels
    measured = {lv: nms.values[nms.rows(lvdat["nodes"])] for lv, lvdat in per_level.items()}

    def fit(level, rows, parents, seg, where) -> np.ndarray:
        lvdat = per_level[level]
        vals = measured[level][rows].astype(float)
        e = np.concatenate([vals[:, ~lvdat["wmask"]], lvdat["targets"][rows]], axis=1)
        G = vals[:, lvdat["wmask"]] @ lvdat["QtW2"].T
        return _solve_level(lvdat["H"], lvdat["E"], G, e, parents, seg, cfg.nonneg, where)

    solved = fit(geo.GeoLevel.NATION, [0], None, np.zeros(1, dtype=int),
                 [f"{geo.NATION_ID} (root)"])
    if cfg.integerize:
        labels, supports, targets = per_level[geo.GeoLevel.NATION]["ranked"]
        solved = _round_root(solved[0], labels, supports, targets[0])[None, :].astype(float)

    # descend one generation at a time, every node group of it at once
    for gen in plan.generations:
        kids_solved = np.empty((gen.size, cef.schema.size))
        kids_solved[gen.only] = solved[gen.only_parent]
        if gen.multi.size:
            multi, rows, seg = gen.multi, gen.rows, gen.seg
            x = fit(gen.level, rows, solved[multi], seg, gen.where)
            if cfg.integerize:
                x = _largest_remainder(x, solved[multi].astype(np.int64), seg)
                labels, supports, targets = per_level[gen.level]["ranked"]
                for lo, hi in zip(gen.bounds[:-1], gen.bounds[1:]) if labels else ():
                    _repair_invariants(x[lo:hi], labels, supports, targets[rows[lo:hi]], cfg.nonneg)
            kids_solved[rows] = x
        solved = kids_solved

    out = HistogramDataset(
        cef.spine, cef.schema, solved.astype(np.int64) if cfg.integerize else solved,
        kind="postprocessed", run_seed=nms.seed,
    )
    if cfg.integerize:
        _validate_postprocessed(out, per_level)
    return out


# plans by enumeration, then by query, each dropped with its key, then by
# (config, id(agg))
_PLANS: "weakref.WeakKeyDictionary[HistogramDataset, weakref.WeakKeyDictionary]" = (
    weakref.WeakKeyDictionary())


@dataclass(frozen=True)
class _Generation:
    """The ``size`` nodes at ``level``, children of the level above.  The
    only child at row ``only[i]`` copies its parent, row ``only_parent[i]``.
    Each parent in ``multi`` has a node group of its children: their rows
    are ``rows``, their group numbers ``seg``, and group b is
    ``rows[bounds[b]:bounds[b + 1]]``, named ``where[b]``."""

    level: geo.GeoLevel
    size: int
    only: np.ndarray
    only_parent: np.ndarray
    multi: np.ndarray
    rows: np.ndarray
    seg: np.ndarray
    bounds: np.ndarray
    where: list[str]

    def __post_init__(self) -> None:
        for a in (self.only, self.only_parent, self.multi, self.rows, self.seg, self.bounds):
            a.flags.writeable = False  # shared by every call


class _Plan:
    """What post-processing one enumeration's measurements under one
    query, config and aggregation needs besides the measurements.

    Per level: its nodes, the invariants with their targets per node (in
    declaration order, and ranked smallest support first for rounding),
    and the query split into weighted rows vs exact rows, which with the
    invariant supports form every child's equality rows, and the level
    Hessian of the weighted rows.  Per generation, a ``_Generation``.
    Nothing here holds the enumeration, so the plan never keeps it alive.
    """

    def __init__(self, cef: HistogramDataset, q: QueryMatrix, cfg: PostProcessConfig,
                 agg: AggregationMatrix):
        self.agg = agg
        spine, levels = cef.spine, geo.NMF_LEVEL_ORDER
        invariants = resolve_invariants(cfg, agg)
        self.levels: dict[geo.GeoLevel, dict] = {}
        qmat = q.matrix.astype(float)
        for lv in levels:
            labels, supports = invariants[lv]
            targets = (cef.level_histograms(lv) @ supports.T if labels
                       else np.zeros((len(spine.nodes_at(lv)), 0), dtype=np.int64))
            rank = sorted(range(len(labels)), key=lambda i: (int(supports[i].sum()), labels[i]))
            variances = q.variances_for(lv)
            wmask = variances > 0
            Qw = qmat[wmask]
            QtW = Qw.T * (1.0 / variances[wmask])
            ranked = ([labels[i] for i in rank], supports[rank], targets[:, rank])
            E, QtW2 = np.vstack([qmat[~wmask], supports]), 2.0 * QtW
            H = _level_hessian(2.0 * (QtW @ Qw))
            for a in (targets, *ranked[1:], wmask, E, H, QtW2):  # shared by every call
                a.flags.writeable = False
            self.levels[lv] = {
                "nodes": spine.nodes_at(lv),
                "labels": labels,
                "supports": supports,
                "targets": targets,
                "ranked": ranked,
                "wmask": wmask,
                "E": E,
                "H": H,
                "QtW2": QtW2,
            }
        position = {n: i for lv in levels for i, n in enumerate(spine.nodes_at(lv))}
        self.generations = []
        for parent_level, child_level in zip(levels, levels[1:]):
            parents = spine.nodes_at(parent_level)
            families = [[position[k] for k in spine.children(p)] for p in parents]
            only = [i for i, rows in enumerate(families) if len(rows) == 1]
            multi = [i for i, rows in enumerate(families) if len(rows) > 1]
            seg = np.repeat(np.arange(len(multi)), [len(families[i]) for i in multi])
            self.generations.append(_Generation(
                child_level, len(spine.nodes_at(child_level)),
                np.array([families[i][0] for i in only], dtype=np.intp),
                np.array(only, dtype=np.intp), np.array(multi, dtype=np.intp),
                np.array([k for i in multi for k in families[i]], dtype=np.intp), seg,
                np.searchsorted(seg, np.arange(len(multi) + 1)),
                [f"parent {parents[i]} ({child_level.value} children)" for i in multi]))


def _validate_postprocessed(ds: HistogramDataset, per_level: Mapping[geo.GeoLevel, dict]) -> None:
    for lv, lvdat in per_level.items():
        if not lvdat["labels"]:
            continue
        got, want = ds.level_histograms(lv) @ lvdat["supports"].T, lvdat["targets"]
        bad = np.argwhere(got.T != want.T)
        if bad.size:
            k, i = bad[0]
            raise InfeasibleConstraints(
                f"invariant {lvdat['labels'][k]!r} broken at {ds.spine.nodes_at(lv)[i]}: "
                f"{got[i, k]} != {want[i, k]}"
            )
