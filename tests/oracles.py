"""Independent reference implementations used only by tests.

These are deliberately written from the definitions, not from the
library code they check.
"""

from __future__ import annotations

import math

import numpy as np

from dasim.geo import compose_target, node_level


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


def nm_statistics_loop(nms, agg, spine, target) -> tuple[list[float], list[float]]:
    """Per-part, per-path loop form of noisy statistics: the reference the
    vectorized ``nm_statistics`` must match bit for bit.  Within a part the
    query paths are combined by inverse-variance weights (a zero-variance
    path wins outright); parts then add one after another."""
    q = nms.query
    parts = compose_target(spine, target).parts
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
