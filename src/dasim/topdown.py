"""TopDown-style hierarchical post-processing of noisy measurements.

The production optimizer is proprietary and cluster-scale; this is a
faithful desk-scale analog with the same contract: starting from the
root of the optimized spine, each generation of children is fitted
jointly to its own noisy measurements by weighted least squares (weights
are inverse noise variances), subject to summing exactly per cell to the
already-fixed parent, non-negativity, and one table of statistics held
exactly to the enumeration truth: the configured invariants and the
zero-variance queries, each at its own level and every level above.

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
with equality rows (by default the root alone) border their children's
KKT matrices, and ``_invert`` reaches a border through its rows' small
Schur matrix, so it inverts only definite ones.
Each level's objective is first scaled, exactly, by a power of two, so
that tolerances in count units do not depend on the scale of the budget,
and a solve whose equality residual is large is refined once.

Rounding releases the integer point nearest in L1 to the solution under
the same constraints.  A level's cells fall into regions, the smallest
held support over each, which round alone: the root by largest
remainder, and a generation by largest remainder per column, then
successive shortest paths between siblings that miss a region's target.
Values snap to a 1e-6 grid first and ties go by index order, so released
integers follow neither solver float noise nor chance.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import geo
from .errors import InfeasibleConstraints, SchemaError
from .histograms import AggregationMatrix, HistogramDataset, default_statistics
from .noise import NoisyMeasurements, QueryMatrix

logger = logging.getLogger(__name__)

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
    at every level above it, as a query of zero variance is.  Invariant
    statistics must be 0/1 rows of the aggregation matrix, and for
    integer output the supports held at each level must be nested or
    disjoint (``resolve_invariants``).
    """

    invariants: tuple[tuple[geo.GeoLevel, str], ...] = ((geo.GeoLevel.STATE, "total"),)
    nonneg: bool = True
    integerize: bool = True

    def __post_init__(self) -> None:
        for level, _ in self.invariants:
            if level not in geo.NMF_LEVEL_ORDER:
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
              parent: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Minimize sum_i 1/2 x_i'H x_i - G_i'x_i over each group's children
        subject to E x_i = e_i, its parent sums (unless None) and the pins.
        Returns x, the multiplier of every pin (zero on free cells) and each
        group's largest equality residual.  A group whose residual exceeds
        1e-3 of its tolerance gets one step of iterative refinement: the
        solve again with G = 0 on the residuals, its correction added."""
        x, nu = self._step(G, e, parent)
        r_e, r_p, worst = self._residuals(x, e, parent)
        refine = worst > 1e-3 * self.tol
        if refine.any():
            dx, dnu = self._step(np.zeros_like(G), r_e * refine[self.seg, None],
                                 None if r_p is None else r_p * refine[:, None])
            x, nu = x + dx, nu + dnu
            worst = self._residuals(x, e, parent)[2]
        return x, nu, worst

    def _step(self, G: np.ndarray, e: np.ndarray,
              parent: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """One solve of ``solve``'s problem, without refinement."""
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

    def _residuals(self, x: np.ndarray, e: np.ndarray, parent: Optional[np.ndarray]
                   ) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        Ex = np.einsum("kj,kij->ki", x, self.kid_E) if self.bordered else None
        return _residuals(Ex, e, x, parent, self.start)


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


def _residuals(Ex: Optional[np.ndarray], e: np.ndarray, x: np.ndarray,
               parent: Optional[np.ndarray], start: np.ndarray
               ) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """The residuals e - E x per child, from its E x (None without rows),
    and parent - sum x per group (None at the root), and each group's
    largest."""
    r_e, r_p, worst = e, None, np.zeros(len(start))
    if Ex is not None:
        r_e = e - Ex
        worst = np.maximum.reduceat(np.abs(r_e).max(axis=1, initial=0.0), start)
    if parent is not None:
        r_p = parent - np.add.reduceat(x, start, axis=0)
        worst = np.maximum(worst, np.abs(r_p).max(axis=1))
    return r_e, r_p, worst


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
        x, nu, worst = batch.solve(batch.G, batch.e, batch.parent)
        pins = (batch.pins & (nu >= low)) | (x < low)
        moved = np.logical_or.reduceat((pins != batch.pins).any(axis=1), batch.start) & live
        stop = live & (worst > most)
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
    # whether the rows are consistent does not depend on G, and without it
    # x stays on the scale of the data
    if kids.solve(np.zeros_like(G), e, parent)[2][0] > _EQ_TOL * tol:
        raise InfeasibleConstraints(
            f"equality constraints are mutually inconsistent at {where}"
        )
    x, nu, _ = kids.solve(G, e, parent)
    zero_e, zero_p = np.zeros_like(e), None if parent is None else np.zeros_like(parent)
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
            z, dnu, _ = kids.solve(unit, zero_e, zero_p)
            full = -x[j] / z[j] if z[j] > 1e-10 else np.inf
            falling = kids.pins & (dnu < -1e-12)
            ratio = np.where(falling, np.maximum(nu, 0.0) / np.where(falling, -dnu, 1.0), np.inf)
            drop = np.unravel_index(np.argmin(ratio), ratio.shape)
            pins = kids.pins.copy()
            if min(full, ratio[drop]) == np.inf:
                raise InfeasibleConstraints(f"no non-negative solution at {where}")
            if full <= ratio[drop]:
                pins[j] = True
                kids.repin(pins)
                x, nu, _ = kids.solve(G, e, parent)
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
    # the minimizer does not depend on the scale of H and G, but the pin
    # multipliers, which the active set holds to tolerances in count units,
    # do: scaling by the power of two that brings H's diagonal near 1 is exact
    scale = 2.0 ** -round(math.log2(H.diagonal().max()))
    H, G = H * scale, G * scale
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
    bad = np.nonzero(_residuals(x @ E.T, e, x, parents, start)[2] > _EQ_TOL * tol)[0]
    if bad.size:
        raise InfeasibleConstraints(
            f"equality constraints are mutually inconsistent at {where[bad[0]]}"
        )
    return np.clip(x, 0.0, None) if nonneg else x


# ----------------------------------------------------------------------
# controlled rounding


def _units(values) -> np.ndarray:
    """Non-negative values snapped to the 1e-6 grid, in integer grid units."""
    return np.rint(np.clip(np.asarray(values, dtype=float), 0.0, None) * _GRID).astype(np.int64)


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
    out, frac = np.divmod(_units(values).reshape(shape[0], -1), _GRID)
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


def _regions(supports: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A level's rounding partition: each cell's region, the smallest of the
    supports (smallest first, nested or disjoint) holding it, len(supports)
    for none; and per node each support's exclusive target, its target less
    those of the supports directly inside it.  Support sums hold exactly
    when every region sums to its exclusive target, so regions round alone."""
    owner = np.vstack([supports, np.ones((1, supports.shape[1]), dtype=bool)]).argmax(axis=0)
    # inside[j, i]: support j lies in the larger i; the first such i holds j directly
    inside = np.triu(supports.astype(np.int64) @ supports.T == supports.sum(axis=1)[:, None], 1)
    return owner, targets - targets @ (inside & (np.cumsum(inside, axis=1) == 1))


def _round_root(x: np.ndarray, owner: np.ndarray, ex: np.ndarray) -> np.ndarray:
    """Integerize the root x: each of its ``_regions`` to its exclusive
    target, ex[0], and the cells under none to their snapped total."""
    rest = (_units(x[owner == ex.shape[1]]).sum() + _GRID // 2) // _GRID  # half up
    cells = np.argsort(owner, kind="stable")
    used, seg = np.unique(owner[cells], return_inverse=True)
    out = np.zeros(x.size, dtype=np.int64)
    out[cells] = _largest_remainder(x[cells], np.append(ex[0], rest)[used], seg)
    return out


def _round_generation(x: np.ndarray, parents: np.ndarray, gen: "_Generation",
                      owner: np.ndarray, ex: np.ndarray) -> np.ndarray:
    """Integerize a generation's node groups x against their parents' rows,
    each child meeting its exclusive targets of ``_regions``, ex per node,
    at the least L1 distance to the snapped x.  Columns round by largest
    remainder, L1-optimal per column, and a (group, region) that misses a
    target gets successive shortest paths on its siblings: an edge i -> j
    costs the least change of L1, in grid units, of moving a unit from i
    to j at one cell where X[i] has one, and each step moves a unit along a
    cheapest path, by Bellman-Ford from every child over its target, to
    the nearest one under it, ties to the lowest index.  No edge is
    negative at the start, so no cycle ever is, and the end is the nearest
    integer point (Ahuja, Magnanti and Orlin, *Network Flows*, 1993, ch. 9)."""
    X, bounds = _largest_remainder(x, parents, gen.seg), gen.bounds
    region = owner[:, None] == np.arange(ex.shape[1])
    over = X @ region - ex[gen.rows]
    for b, r in np.argwhere(np.logical_or.reduceat(over != 0, bounds[:-1], axis=0)):
        rows, cells = slice(bounds[b], bounds[b + 1]), region[:, r]
        Y, units, excess = X[rows, cells], _units(x[rows, cells]), over[rows, r]
        while (excess > 0).any():
            gap = _GRID * Y - units
            give = np.where(Y >= 1, np.abs(gap - _GRID) - np.abs(gap), np.inf)
            move = give + (np.abs(gap + _GRID) - np.abs(gap))[:, None]  # [j, i, c]: i to j at c
            cell, cost = move.argmin(axis=2), move.min(axis=2)
            dist, prev = np.where(excess > 0, 0.0, np.inf), np.full(len(Y), -1)
            for _ in range(len(Y)):  # Bellman-Ford from every child over its target
                via = cost + dist
                new, best = via.min(axis=1), via.argmin(axis=1)
                dist, prev = np.minimum(dist, new), np.where(new < dist, best, prev)
            j = int(np.where(excess < 0, dist, np.inf).argmin())
            if excess[j] >= 0 or dist[j] == np.inf:
                raise InfeasibleConstraints(f"no integer point meets exact rows at {gen.where[b]}")
            excess[j] += 1
            while prev[j] >= 0:
                Y[[prev[j], j], cell[j, prev[j]]] += (-1, 1)
                j = prev[j]
            excess[j] -= 1
        X[rows, cells] = Y
    return X


# ----------------------------------------------------------------------
# the post-processing map


def resolve_invariants(
    cfg: PostProcessConfig, agg: AggregationMatrix, q: QueryMatrix
) -> dict[geo.GeoLevel, tuple[tuple[str, ...], np.ndarray]]:
    """Statistics to hold exact, per spine level: labels and a read-only
    (labels x cells) bool support matrix, smallest support first, ties by
    label.  Two sources, the config's invariants and the zero-variance
    query rows, each held at its own level and every level above, each
    support once; where every cell's singleton is held, they alone are
    the table, as they imply every other row.  Integer rounding needs
    each level's supports nested or disjoint."""
    declared = [(level, label, agg.row(label)) for level, label in cfg.invariants]
    for _, label, row in declared:
        if ((row != 0) & (row != 1)).any():
            raise SchemaError(f"invariant statistic {label!r} must be a 0/1 row")
    declared += [(geo.NMF_LEVEL_ORDER[i], q.row_ids[r], q.matrix[r])
                 for i, r in np.argwhere(q.variances == 0)]
    n, table, held, last = agg.matrix.shape[1], {}, {}, None
    for lv in reversed(geo.NMF_LEVEL_ORDER):  # the block first, each level adding its own
        known = len(held)
        for level, label, row in declared:
            if level == lv:
                held.setdefault(row.astype(bool).tobytes(), (label, row))
        if last is None or len(held) > known:  # else the level below's table
            rows = sorted(held.values(), key=lambda r: (int(r[1].sum()), r[0]))
            singles = [r for r in rows if r[1].sum() == 1]
            rows = singles if len(singles) == n else rows
            supports = np.array([row for _, row in rows], dtype=bool).reshape(len(rows), n)
            supports.flags.writeable = False
            last = tuple(label for label, _ in rows), supports
            common, size = supports.astype(np.int64) @ supports.T, supports.sum(axis=1)
            if cfg.integerize and ((common > 0) & (common < np.minimum.outer(size, size))).any():
                raise InfeasibleConstraints(
                    "overlapping invariant supports must be nested or disjoint")
        table[lv] = last
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
    aggregation) builds its ``_Plan``, and later calls reuse it.  A
    zero-variance measurement must be the enumeration's answer.
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
    for lv, lvdat in per_level.items():
        _check_exact("zero-variance measurement", measured[lv][:, ~lvdat["wmask"]],
                     *lvdat["exact"], lvdat["nodes"])

    def fit(level, rows, parents, seg, where) -> np.ndarray:
        lvdat = per_level[level]
        G = measured[level][rows][:, lvdat["wmask"]].astype(float) @ lvdat["QtW2"].T
        e = lvdat["table"][2][rows].astype(float)
        return _solve_level(lvdat["H"], lvdat["E"], G, e, parents, seg, cfg.nonneg, where)

    solved = fit(geo.GeoLevel.NATION, [0], None, np.zeros(1, dtype=int),
                 [f"{geo.NATION_ID} (root)"])
    if cfg.integerize:
        solved[0] = _round_root(solved[0], *per_level[geo.GeoLevel.NATION]["regions"])

    # descend one generation at a time, every node group of it at once
    for gen in plan.generations:
        kids_solved = np.empty((gen.size, cef.schema.size))
        kids_solved[gen.only] = solved[gen.only_parent]
        if gen.multi.size:
            multi, rows, seg = gen.multi, gen.rows, gen.seg
            x = fit(gen.level, rows, solved[multi], seg, gen.where)
            if cfg.integerize:
                x = _round_generation(x, solved[multi], gen, *per_level[gen.level]["regions"])
            kids_solved[rows] = x
        solved = kids_solved

    out = HistogramDataset(
        cef.spine, cef.schema, solved.astype(np.int64) if cfg.integerize else solved,
        kind="postprocessed", run_seed=nms.seed,
    )
    for lv, lvdat in per_level.items() if cfg.integerize else ():
        labels, supports, targets = lvdat["table"]
        _check_exact("invariant", out.level_histograms(lv) @ supports.T, labels, targets,
                     lvdat["nodes"])
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

    Per level: its nodes; its ``resolve_invariants`` table with targets
    per node, which alone gives every child's equality rows; the query's
    weighted rows and their level Hessian; the labels and enumerated
    answers of its zero-variance rows; for integer output, its
    ``_regions``.  Per generation, a ``_Generation``.  Nothing
    here holds the enumeration, so the plan never keeps it alive.
    """

    def __init__(self, cef: HistogramDataset, q: QueryMatrix, cfg: PostProcessConfig,
                 agg: AggregationMatrix):
        self.agg = agg
        spine, levels = cef.spine, geo.NMF_LEVEL_ORDER
        table = resolve_invariants(cfg, agg, q)
        self.levels: dict[geo.GeoLevel, dict] = {}
        qmat = q.matrix.astype(float)
        for lv in levels:
            labels, supports = table[lv]
            hist = cef.level_histograms(lv)
            variances = q.variances_for(lv)
            wmask = variances > 0
            Qw = qmat[wmask]
            QtW = Qw.T * (1.0 / variances[wmask])
            targets, exact = hist @ supports.T, hist @ q.matrix[~wmask].T
            E, H, QtW2 = supports.astype(float), _level_hessian(2.0 * (QtW @ Qw)), 2.0 * QtW
            regions = _regions(supports, targets) if cfg.integerize else ()
            for a in (targets, exact, wmask, E, H, QtW2, *regions):  # shared by every call
                a.flags.writeable = False
            self.levels[lv] = dict(
                nodes=spine.nodes_at(lv), table=(labels, supports, targets), wmask=wmask,
                exact=([r for r, w in zip(q.row_ids, wmask) if not w], exact), E=E, H=H, QtW2=QtW2,
                regions=regions)
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


def _check_exact(what: str, got: np.ndarray, labels: Sequence[str], want: np.ndarray,
                 nodes: Sequence[str]) -> None:
    """InfeasibleConstraints at the first (label, node) where got != want."""
    bad = np.argwhere(got.T != want.T)
    if bad.size:
        k, i = bad[0]
        raise InfeasibleConstraints(
            f"{what} {labels[k]!r} broken at {nodes[i]}: {got[i, k]} != {want[i, k]}"
        )
