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
own KKT matrix is factored alone, and the parent-sum multipliers come
from the C x C Schur complement.  Under non-negativity a cell whose
parent is 0 is 0 in every child and is dropped before solving (exact,
and most block-level cells are such zeros).  Bounds are handled by a
batched primal-dual active set that refactors only re-pinned children;
should it cycle, meet an inconsistent pin set or reach its cap, a
Goldfarb-Idnani dual active set re-solves the group, which terminates
and reports infeasibility only when no non-negative solution exists.

A controlled largest-remainder rounding then integerizes each generation
while preserving parent sums, and a unit reallocation pass restores
invariant statistics exactly.  Rounding snaps to a 1e-6 grid first, so
released integers do not follow solver float noise, and breaks ties by
index order, never at random: the map is a deterministic,
constraint-satisfying function of the noisy measurements, which is all
the estimators downstream require.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import geo
from .errors import InfeasibleConstraints, SchemaError
from .histograms import AggregationMatrix, HistogramDataset, default_statistics
from .noise import NoisyMeasurements

logger = logging.getLogger(__name__)

_LEVEL_INDEX = {lv: i for i, lv in enumerate(geo.NMF_LEVEL_ORDER)}
_GRID = 10**6  # rounding snaps continuous values to multiples of 1/_GRID
_CAP = 200  # batched active-set steps before the dual method takes over
_EQ_TOL = 1e3  # equality residual allowed, in units of the bound tolerance


@dataclass(frozen=True)
class PostProcessConfig:
    """Constraints the post-processing must honor.

    Invariants are (level, statistic label) pairs held exactly to the
    enumeration value at that level and, by aggregation, at every level
    above it.  Invariant statistics must be 0/1 rows of the aggregation
    matrix.
    """

    invariants: tuple[tuple[geo.GeoLevel, str], ...] = ((geo.GeoLevel.STATE, "total"),)
    nonneg: bool = True
    integerize: bool = True


# ----------------------------------------------------------------------
# structured constrained weighted least squares


class _Children:
    """Equality-constrained solves of one node group for any pin set.

    Child i's KKT matrix is the level Hessian H bordered by the rows E;
    a pinned cell's row and column are replaced by the identity, which
    holds it at zero.  Each child keeps the inverse of its own matrix,
    so re-pinning one child refactors that child alone.
    """

    def __init__(self, H: np.ndarray, E: np.ndarray, k: int):
        self.H, self.E = H, E
        self.kkt = np.block([[H, E.T], [E, np.zeros((E.shape[0],) * 2)]])
        self.pins = np.zeros((k, H.shape[0]), dtype=bool)
        # unpinned children share one matrix, so one inverse serves them all
        self.inv = np.repeat(self._invert(self.kkt[None]), k, axis=0)

    def _invert(self, K: np.ndarray) -> np.ndarray:
        try:
            inv = np.linalg.inv(K)
            bad = np.abs(K @ inv - np.eye(K.shape[1])).max(axis=(1, 2)) > 1e-8
        except np.linalg.LinAlgError:
            inv, bad = np.empty_like(K), np.ones(K.shape[0], dtype=bool)
        for b in np.nonzero(bad)[0]:
            # redundant rows, e.g. exact queries that repeat an invariant
            inv[b] = np.linalg.pinv(K[b])
        return inv

    def _factor(self, rows: np.ndarray) -> None:
        n = self.H.shape[0]
        keep = np.ones((rows.size, self.kkt.shape[0]), dtype=bool)
        keep[:, :n] = ~self.pins[rows]
        K = self.kkt * (keep[:, :, None] & keep[:, None, :])
        K[:, np.arange(n), np.arange(n)] += ~keep[:, :n]
        self.inv[rows] = self._invert(K)

    def repin(self, pins: np.ndarray) -> None:
        changed = np.nonzero((pins != self.pins).any(axis=1))[0]
        self.pins = pins.copy()
        if changed.size:
            self._factor(changed)

    def solve(self, G: np.ndarray, e: np.ndarray,
              parent: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Minimize sum_i 1/2 x_i'H x_i - G_i'x_i subject to E x_i = e_i,
        sum_i x_i = parent (unless None) and the pins.  Returns x and the
        multiplier of every pin (zero on free cells)."""
        n, free = self.H.shape[0], ~self.pins
        sol = np.einsum("kij,kj->ki", self.inv, np.concatenate([G * free, e], axis=1))
        mu = np.zeros(n)
        if parent is not None:
            # response of each child's [x; lambda] to the parent-sum multipliers
            R = self.inv[:, :, :n] * free[:, None, :]
            mu = _schur_solve(R[:, :n].sum(axis=0), self.E, sol[:, :n].sum(axis=0) - parent)
            sol -= R @ mu
        x, lam = sol[:, :n], sol[:, n:]
        return x, np.where(self.pins, x @ self.H - G + lam @ self.E + mu, 0.0)


def _schur_solve(S: np.ndarray, E: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve S mu = r for the parent-sum multipliers.  A shift of mu along
    any row of E is absorbed by the children's own multipliers, so those
    rows span null directions of S; adding E'E makes S definite without
    changing x.  Pins that empty a cell in every child leave S singular,
    and the least-squares answer then shows up as an inconsistent x."""
    A = S + max(S.diagonal().max(initial=0.0), 1.0) * (E.T @ E)
    try:
        return np.linalg.solve(A, r)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(A, r, rcond=None)[0]


def _violation(x: np.ndarray, E: np.ndarray, e: np.ndarray,
               parent: Optional[np.ndarray]) -> float:
    """Largest equality residual of a group solution."""
    worst = float(np.abs(x @ E.T - e).max(initial=0.0))
    if parent is not None:
        worst = max(worst, float(np.abs(x.sum(axis=0) - parent).max(initial=0.0)))
    return worst


def _batched_active_set(kids: _Children, G, e, parent, tol: float, where: str):
    """Primal-dual active set: each step pins every negative free cell
    and releases every pin whose multiplier is negative.  Returns None
    when the steps cycle, meet an inconsistent pin set or hit the cap."""
    seen = {kids.pins.tobytes()}
    for _ in range(_CAP):
        x, nu = kids.solve(G, e, parent)
        if _violation(x, kids.E, e, parent) > _EQ_TOL * tol:
            return None
        pins = (kids.pins & (nu >= -tol)) | (x < -tol)
        if (pins == kids.pins).all():
            return x
        if pins.tobytes() in seen:
            return None
        seen.add(pins.tobytes())
        kids.repin(pins)
    logger.warning("active-set iteration cap hit at %s after %d iterations; "
                   "re-solving by the dual active set", where, _CAP)
    return None


def _dual_active_set(kids: _Children, G, e, parent, tol: float, where: str):
    """Dual active set over the bounds, after Goldfarb and Idnani.

    Starts from the solution without pins, which is dual feasible, and
    raises the multiplier of the most negative free cell until that cell
    reaches zero and is pinned, dropping on the way every pin whose
    multiplier falls to zero.  A pin enters only when it is linearly
    independent of the active rows, and each one raises the dual
    objective, so no pin set repeats and the loop ends.  A negative cell
    that no step can lift proves that the group has no non-negative
    solution.
    """
    kids.repin(np.zeros_like(kids.pins))
    x, nu = kids.solve(G, e, parent)
    if _violation(x, kids.E, e, parent) > _EQ_TOL * tol:
        raise InfeasibleConstraints(
            f"equality constraints are mutually inconsistent at {where}"
        )
    zero_e, zero_p = np.zeros_like(e), None if parent is None else np.zeros_like(parent)
    lift_tol = 1e-10 / max(float(kids.H.diagonal().max()), 1e-12)
    cap = _CAP + 2 * G.size
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


def _solve_group(H: np.ndarray, G: np.ndarray, E: np.ndarray, e: np.ndarray,
                 parent: Optional[np.ndarray], nonneg: bool, where: str) -> np.ndarray:
    """Minimize sum_i 1/2 x_i'H x_i - G_i'x_i over the k rows of x subject
    to E x_i = e_i, sum_i x_i = parent (None at the root) and optionally
    x >= 0.  Raises InfeasibleConstraints if no such x exists."""
    k, C = G.shape
    scale = max(1.0, float(np.abs(e).max(initial=0.0)),
                0.0 if parent is None else float(np.abs(parent).max(initial=0.0)))
    tol = 1e-8 * scale
    cells = np.arange(C)
    if nonneg and parent is not None:
        cells = np.nonzero(parent > 0)[0]
    rows = np.nonzero(E[:, cells].any(axis=1))[0]
    x = np.zeros((k, C))
    if cells.size:
        sub = (G[:, cells], e[:, rows], None if parent is None else parent[cells])
        kids = _Children(H[np.ix_(cells, cells)], E[np.ix_(rows, cells)], k)
        if not nonneg:
            x[:, cells] = kids.solve(*sub)[0]
        else:
            xs = _batched_active_set(kids, *sub, tol, where)
            x[:, cells] = _dual_active_set(kids, *sub, tol, where) if xs is None else xs
    if _violation(x, E, e, parent) > _EQ_TOL * tol:
        raise InfeasibleConstraints(
            f"equality constraints are mutually inconsistent at {where}"
        )
    return np.clip(x, 0.0, None) if nonneg else x


# ----------------------------------------------------------------------
# controlled rounding


def _largest_remainder(values: np.ndarray, target) -> np.ndarray:
    """Round non-negative values to integers summing exactly to target.

    The classic controlled rounding: snap to the 1e-6 grid, floor
    everything, then hand out the missing units in order of largest
    fractional part, ties broken by index order.  A 2-D array is
    rounded column by column against one target per column.
    """
    v = np.clip(np.asarray(values, dtype=float), 0.0, None)
    units = np.rint(v.reshape(v.shape[0], -1) * _GRID).astype(np.int64)
    out, frac = np.divmod(units, _GRID)
    targets = np.asarray(target, dtype=np.int64).reshape(-1)
    need = targets - out.sum(axis=0)
    n = units.shape[0]
    whole, rem = np.divmod(np.maximum(need, 0), n)
    order = np.argsort(-frac, axis=0, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n)[:, None], axis=0)
    out += whole + (rank < rem)
    for c in np.nonzero(need < 0)[0]:
        col, take = out[:, c], int(-need[c])
        if col.sum() < take:
            raise InfeasibleConstraints(
                f"cannot round to non-negative integers with target {targets[c]}"
            )
        order = np.argsort(frac[:, c], kind="stable")  # smallest fraction first
        while take:
            hit = order[col[order] > 0][:take]
            col[hit] -= 1
            take -= hit.size
    return out.reshape(v.shape)


@dataclass(frozen=True)
class _Invariant:
    label: str
    support: np.ndarray  # bool mask over cells
    targets: np.ndarray  # one per node of the group being processed


def _check_nested(invariants: Sequence[_Invariant]) -> None:
    for a, b in itertools.combinations([inv.support for inv in invariants], 2):
        if (a & b).any() and not (a <= b).all() and not (b <= a).all():
            raise InfeasibleConstraints(
                "overlapping invariant supports must be nested or disjoint"
            )


def _repair_invariants(X: np.ndarray, invariants: Sequence[_Invariant], nonneg: bool) -> None:
    """Unit moves between siblings, inside one invariant's exclusive
    cells, until every invariant statistic is exact.  Moves happen at a
    single cell at a time, so per-cell parent sums are untouched."""
    if not invariants:
        return
    _check_nested(invariants)
    done = np.zeros(X.shape[1], dtype=bool)
    for inv in sorted(invariants, key=lambda e: (int(e.support.sum()), e.label)):
        free = np.nonzero(inv.support & ~done)[0]
        s = X[:, inv.support].sum(axis=1).astype(np.int64) - inv.targets
        if s.sum() != 0:
            raise InfeasibleConstraints(
                f"invariant {inv.label!r} targets do not sum to the parent value"
            )
        while (s > 0).any():
            i = int(np.nonzero(s > 0)[0][0])
            j = int(np.nonzero(s < 0)[0][0])
            movable = free[X[i, free] >= 1]
            if movable.size == 0 and nonneg:
                raise InfeasibleConstraints(
                    f"no movable mass to repair invariant {inv.label!r}"
                )
            cell = movable[0] if movable.size else free[np.argmax(X[i, free])]
            X[[i, j], cell] += (-1, 1)
            s[[i, j]] += (-1, 1)
        done |= inv.support


def _round_group(X: np.ndarray, parent: np.ndarray,
                 invariants: Sequence[_Invariant], nonneg: bool) -> np.ndarray:
    """Integerize children jointly: per-cell largest remainder against
    the parent's (already integer) cell values, then invariant repair."""
    out = _largest_remainder(X, parent)
    _repair_invariants(out, invariants, nonneg)
    return out


def _round_root(x: np.ndarray, invariants: Sequence[_Invariant]) -> np.ndarray:
    """Integerize the root against its invariant partition.

    Cells are grouped by the smallest invariant support containing them
    (supports must be nested or disjoint); each group is rounded to its
    exclusive integer target, cells under no invariant round to the
    rounded continuous total.
    """
    C = x.size
    _check_nested(invariants)
    order = sorted(invariants, key=lambda e: (int(e.support.sum()), e.label))
    assigned = np.zeros(C, dtype=bool)
    groups: list[tuple[np.ndarray, int]] = []
    seen: list[tuple[np.ndarray, int]] = []  # (support, exclusive target)
    for inv in order:
        cells = np.nonzero(inv.support & ~assigned)[0]
        target = int(inv.targets[0])
        # exclusive targets of inner supports partition their mass, so
        # subtracting them never double-counts on deeper nesting chains
        for supp, t in seen:
            if (supp <= inv.support).all():
                target -= t
        if target < 0 or (cells.size == 0 and target != 0):
            raise InfeasibleConstraints(
                f"invariant {inv.label!r} leaves an unroundable exclusive target"
            )
        groups.append((cells, target))
        seen.append((inv.support.copy(), target))
        assigned[cells] = True
    rest = np.nonzero(~assigned)[0]
    if rest.size:
        groups.append((rest, int(round(float(x[rest].sum())))))
    out = np.zeros(C, dtype=np.int64)
    for cells, target in groups:
        if cells.size:
            out[cells] = _largest_remainder(x[cells], target)
    return out


# ----------------------------------------------------------------------
# the post-processing map


def _resolve_invariants(
    cfg: PostProcessConfig, agg: AggregationMatrix
) -> dict[geo.GeoLevel, list[tuple[str, np.ndarray]]]:
    """Rows to hold exact, per spine level (a level inherits every
    invariant declared at or below it)."""
    by_level: dict[geo.GeoLevel, list[tuple[str, np.ndarray]]] = {
        lv: [] for lv in geo.NMF_LEVEL_ORDER
    }
    for level, label in cfg.invariants:
        if level not in _LEVEL_INDEX:
            raise SchemaError(f"{level.value} is not an optimized-spine level")
        row = agg.row(label)
        if not np.isin(row, (0, 1)).all():
            raise SchemaError(f"invariant statistic {label!r} must be a 0/1 row")
        for lv in geo.NMF_LEVEL_ORDER[: _LEVEL_INDEX[level] + 1]:
            if label not in [lb for lb, _ in by_level[lv]]:
                by_level[lv].append((label, row.astype(bool)))
    return by_level


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
    by index order.
    """
    cfg = cfg or PostProcessConfig()
    agg = agg or default_statistics(cef.schema)
    q = nms.query
    if q.schema.size != cef.schema.size:
        raise SchemaError("query matrix and enumeration schema disagree")
    spine = cef.spine
    levels = geo.NMF_LEVEL_ORDER
    inv_by_level = _resolve_invariants(cfg, agg)
    position = {n: i for lv in levels for i, n in enumerate(spine.nodes_at(lv))}

    # per-level data: measurements, invariant targets per node, and the
    # query split into weighted rows vs exact rows, which with the
    # invariant supports form every child's equality rows
    per_level: dict[geo.GeoLevel, dict] = {}
    qmat = q.matrix.astype(float)
    for lv in levels:
        variances = q.variances_for(lv)
        wmask = variances > 0
        Qw = qmat[wmask]
        QtW = Qw.T * (1.0 / variances[wmask])
        truth = cef.level_histograms(lv) if inv_by_level[lv] else None
        per_level[lv] = {
            "vals": nms.values[nms.rows(spine.nodes_at(lv))].astype(float),
            "targets": [truth[:, s].sum(axis=1) for _, s in inv_by_level[lv]],
            "wmask": wmask,
            "E": np.vstack([qmat[~wmask]] + [s[None, :] for _, s in inv_by_level[lv]]),
            "H": _level_hessian(2.0 * (QtW @ Qw)),
            "QtW2": 2.0 * QtW,
        }

    def fit(level, rows, parent, where) -> tuple[np.ndarray, list[_Invariant]]:
        lvdat = per_level[level]
        vals = lvdat["vals"][rows]
        invs = [_Invariant(label, support, t[rows])
                for (label, support), t in zip(inv_by_level[level], lvdat["targets"])]
        e = np.column_stack([vals[:, ~lvdat["wmask"]]] + [inv.targets for inv in invs])
        G = vals[:, lvdat["wmask"]] @ lvdat["QtW2"].T
        return _solve_group(lvdat["H"], G, lvdat["E"], e, parent, cfg.nonneg, where), invs

    x, invs = fit(geo.GeoLevel.NATION, [0], None, f"{geo.NATION_ID} (root)")
    solved = _round_root(x[0], invs)[None, :].astype(float) if cfg.integerize else x

    # descend one generation at a time
    for parent_level, child_level in zip(levels, levels[1:]):
        kids_solved = np.empty((len(spine.nodes_at(child_level)), cef.schema.size))
        for parent, pvec in zip(spine.nodes_at(parent_level), solved):
            rows = [position[k] for k in spine.children(parent)]
            if len(rows) == 1:
                kids_solved[rows[0]] = pvec
                continue
            where = f"parent {parent} ({child_level.value} children)"
            x, invs = fit(child_level, rows, pvec, where)
            if cfg.integerize:
                x = _round_group(x, pvec.astype(np.int64), invs, cfg.nonneg)
            kids_solved[rows] = x
        solved = kids_solved

    out = HistogramDataset(
        spine, cef.schema, solved.astype(np.int64) if cfg.integerize else solved,
        kind="postprocessed", run_seed=nms.seed,
    )
    if cfg.integerize:
        _validate_postprocessed(out, inv_by_level, per_level)
    return out


def _validate_postprocessed(
    ds: HistogramDataset,
    inv_by_level: Mapping[geo.GeoLevel, list[tuple[str, np.ndarray]]],
    per_level: Mapping[geo.GeoLevel, dict],
) -> None:
    for lv, invs in inv_by_level.items():
        if not invs:
            continue
        hist = ds.level_histograms(lv)
        for (label, support), want in zip(invs, per_level[lv]["targets"]):
            got = hist[:, support].sum(axis=1)
            bad = np.nonzero(got != want)[0]
            if bad.size:
                i = bad[0]
                raise InfeasibleConstraints(
                    f"invariant {label!r} broken at {ds.spine.nodes_at(lv)[i]}: "
                    f"{got[i]} != {want[i]}"
                )
