"""Exact 1-Wasserstein distance between finitely supported measures.

A Measure validates its atoms and weights in one pass and keeps them as
read-only float arrays, which array() and weight_array() return without
copying. The solver runs the transportation variant of the network simplex
on the complete bipartite graph between the two supports. Its basis is a
spanning tree kept from pivot to pivot (parent, depth and node potentials,
as in Bonneel et al. 2011): pricing is one pass over the reduced costs, on
Python lists up to _LIST_PRICING_CELLS cells and vectorized above, the
entering arc is the most negative with lexicographic ties, with a Bland
fallback after degenerate streaks, and each pivot re-hangs only the subtree
that the leaving arc cuts off.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, SizeLimit
from .euclid import as_floats, as_point, as_points, coincident_pair, square_distances

_MAX_ATOMS = 64
_ZERO_WEIGHT = 1e-14
_RENORM_DRIFT = 1e-10
# largest m * n whose reduced costs are priced on Python lists, not numpy
_LIST_PRICING_CELLS = 64


@dataclass(frozen=True)
class Measure:
    """Finitely supported probability measure: distinct atoms (apart by more
    than 1e-12 in some coordinate), positive weights summing to 1. Near-zero
    weights are dropped at construction and the rest renormalized (drift
    capped at 1e-10)."""

    support: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.support) == 0:
            raise InvalidInput("measure needs at least one atom")
        try:
            pts = np.asarray(self.support, dtype=float)
        except ValueError:
            # ragged or non-numeric: the per-atom checks name the first bad atom
            pts = as_points([as_point(p) for p in self.support])
        if pts.ndim != 2 or pts.shape[1] == 0:
            raise DimensionMismatch(f"point must be 1-D and nonempty, got shape {pts.shape[1:]}")
        if not np.isfinite(pts).all():
            raise DimensionMismatch("point has non-finite coordinates")
        w = as_floats(self.weights, "weights")
        if w.ndim != 1 or w.shape[0] != pts.shape[0]:
            raise InvalidInput("weights must match support length")
        if not np.isfinite(w).all():
            raise InvalidInput("weights must be finite")
        if (w < 0).any():
            raise InvalidInput(f"negative weight {w.min()}")
        keep = w > _ZERO_WEIGHT
        pts, w = pts[keep], w[keep]  # boolean indexing copies, so the caller's array is not kept
        if pts.shape[0] == 0:
            raise InvalidInput("measure needs at least one atom with positive weight")
        if pts.shape[0] > _MAX_ATOMS:
            raise SizeLimit(f"at most {_MAX_ATOMS} atoms, got {pts.shape[0]}")
        total = float(w.sum())
        if abs(total - 1.0) > _RENORM_DRIFT:
            raise InvalidInput(f"weights sum to {total!r}, off by more than {_RENORM_DRIFT}")
        w = w / total
        pair = coincident_pair(pts)
        if pair is not None:
            raise InvalidInput("support atoms %d and %d coincide" % pair)
        pts.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "support", tuple(map(tuple, pts.tolist())))
        object.__setattr__(self, "weights", tuple(w.tolist()))
        object.__setattr__(self, "_points", pts)
        object.__setattr__(self, "_weights", w)

    def array(self) -> np.ndarray:
        """The atoms as a read-only (k, n) float array, built once."""
        return self._points

    def weight_array(self) -> np.ndarray:
        """The weights as a read-only float array, built once."""
        return self._weights

    @property
    def dim(self) -> int:
        return len(self.support[0])


@dataclass(frozen=True)
class TransportPlan:
    entries: tuple

    def array(self) -> np.ndarray:
        return as_floats(self.entries, "transport plan")


def _cost_matrix(mu: Measure, nu: Measure) -> np.ndarray:
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"measure dimensions differ: {mu.dim} vs {nu.dim}")
    return np.sqrt(square_distances(mu.array(), nu.array()))


def plan_cost(plan: TransportPlan, mu: Measure, nu: Measure) -> float:
    """Total mass-times-distance cost of a feasible plan."""
    P = plan.array()
    if not np.isfinite(P).all():
        raise InvalidInput("transport plan has non-finite entries")
    a, b = mu.weight_array(), nu.weight_array()
    if P.shape != (a.size, b.size):
        raise DimensionMismatch(f"plan shape {P.shape} does not match supports {(a.size, b.size)}")
    if np.any(P < -1e-12):
        raise InvalidInput(f"negative plan entry {P.min()}")
    if np.max(np.abs(P.sum(axis=1) - a)) > 1e-10:
        raise InvalidInput("plan row sums do not reproduce the first measure")
    if np.max(np.abs(P.sum(axis=0) - b)) > 1e-10:
        raise InvalidInput("plan column sums do not reproduce the second measure")
    if abs(P.sum() - 1.0) > 1e-10:
        raise InvalidInput(f"plan total mass {P.sum()!r} is not 1")
    return float(np.sum(P * _cost_matrix(mu, nu)))


def _entering_arc(C, rows, pot, basic, tol, bland):
    """The entering arc as its flat cell i * n + j, by the reduced costs
    (C_ij - pot[i]) - pot[m + j], zero on the `basic` cells: the most
    negative, first in row-major order, or with `bland` the first below -tol;
    None if there is none. Up to _LIST_PRICING_CELLS cells, where numpy's
    fixed cost per call would dominate, it prices on Python lists, with
    numpy's floats and tie-break."""
    m, n = C.shape
    if m * n <= _LIST_PRICING_CELLS:
        cols = pot[m:]
        reduced = [(c - u) - v for row, u in zip(rows, pot) for c, v in zip(row, cols)]
        for k in basic:
            reduced[k] = 0.0
        if bland:
            return next((k for k, r in enumerate(reduced) if r < -tol), None)
        best = min(reduced)  # min and index both keep the first occurrence
        return reduced.index(best) if best < -tol else None
    duals = np.array(pot)
    reduced = (C - duals[:m, None] - duals[None, m:]).ravel()
    reduced[basic] = 0.0
    if bland:
        neg = np.flatnonzero(reduced < -tol)
        return int(neg[0]) if neg.size else None
    k = int(np.argmin(reduced))  # ties resolve to the lowest index
    return k if reduced[k] < -tol else None


def wasserstein1(mu: Measure, nu: Measure, *, plan: bool = True) -> tuple:
    """Exact optimum of the transportation linear program and an optimal
    plan; with plan=False, (optimum, None), without building the plan.

    The basis tree is kept between pivots: node k < m is row k, node m + j is
    column j, and the tree hangs from row 0 by `parent`/`depth` with each
    node's potential `pot` set from its parent as C_ij - pot[parent]. A pivot
    reads its cycle off the two climbs to the common ancestor, then re-hangs
    only the subtree that the leaving arc cut off under the entering arc.
    Flows and the basic cells are flat over the cells i * n + j.
    Raises SizeLimit past 20000 pivots."""
    C = _cost_matrix(mu, nu)
    a, b = mu.weight_array(), nu.weight_array()
    m, n = C.shape
    if m == 1 or n == 1:
        P = np.outer(a, b)
        return float(np.sum(P * C)), TransportPlan(tuple(map(tuple, P.tolist()))) if plan else None

    # northwest-corner initial basic feasible solution, as a tree on m + n nodes
    F = [0.0] * (m * n)
    basic = []
    adj = [set() for _ in range(m + n)]
    ra, rb = a.tolist(), b.tolist()
    i = j = 0
    while True:
        q = min(ra[i], rb[j])
        F[i * n + j] = q
        basic.append(i * n + j)
        adj[i].add(m + j)
        adj[m + j].add(i)
        ra[i] -= q
        rb[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if ra[i] <= rb[j] and i < m - 1:
            i += 1
        else:
            j += 1

    # node_cost[x][y] is the cost of the arc between nodes x and y
    rows = C.tolist()
    node_cost = [[0.0] * m + row for row in rows] + C.T.tolist()

    def hang(x, up):
        """Hang node x under `up`, and x's side of the tree under x; sets
        parent, depth and potential on that side only."""
        parent[x], stack = up, [x]
        while stack:
            x = stack.pop()
            up = parent[x]
            depth[x] = depth[up] + 1
            pot[x] = node_cost[x][up] - pot[up]
            for y in adj[x]:
                if y != up:
                    parent[y] = x
                    stack.append(y)

    parent, depth, pot = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)
    for y in adj[0]:
        hang(y, 0)

    tol = 1e-13 * max(1.0, float(C.max()))
    degenerate_streak = 0
    for _ in range(20000):
        # Bland's rule after 50 degenerate pivots in a row
        enter = _entering_arc(C, rows, pot, basic, tol, degenerate_streak >= 50)
        if enter is None:
            break
        i0, j0 = divmod(enter, n)
        # cycle: (i0, j0), then the tree path from row i0 to column j0, each
        # path arc named by its lower node; signs alternate +,-,+,...
        x, y, ups, downs = i0, m + j0, [], []
        while depth[x] > depth[y]:
            ups.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            downs.append(y)
            y = parent[y]
        while x != y:
            ups.append(x)
            downs.append(y)
            x, y = parent[x], parent[y]
        kids = ups + downs[::-1]
        cells = [enter] + [k * n + parent[k] - m if k < m else parent[k] * n + k - m for k in kids]
        minus = cells[1::2]
        theta = min([F[c] for c in minus])
        # ties leave by the lowest cell, i.e. the lexicographically lowest (i, j)
        leave = min([c for c in minus if F[c] <= theta])
        at = cells.index(leave)
        for c in cells[::2]:
            F[c] += theta
        for c in minus:
            F[c] -= theta
        F[leave] = 0.0
        basic[basic.index(leave)] = enter
        cut = kids[at - 1]
        adj[cut].discard(parent[cut])
        adj[parent[cut]].discard(cut)
        adj[i0].add(m + j0)
        adj[m + j0].add(i0)
        # the cut-off side holds i0 when the leaving arc lies on i0's climb
        if at <= len(ups):
            hang(i0, m + j0)
        else:
            hang(m + j0, i0)
        degenerate_streak = degenerate_streak + 1 if theta <= tol else 0
    else:
        raise SizeLimit("network simplex exceeded its 20000-pivot cap")

    F = np.array(F).reshape(m, n)
    F[F < 0] = 0.0
    return float(np.sum(F * C)), TransportPlan(tuple(map(tuple, F.tolist()))) if plan else None


def parse_measure_text(text: str) -> Measure:
    """One atom per line: weight then coordinates, whitespace-separated.
    Blank lines and #-comments are skipped."""
    support, weights = [], []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 2:
            raise InvalidInput(f"line {lineno}: need weight and at least one coordinate")
        try:
            vals = [float(f) for f in fields]
        except ValueError as exc:
            raise InvalidInput(f"line {lineno}: {exc}") from None
        weights.append(vals[0])
        support.append(tuple(vals[1:]))
    if not support:
        raise InvalidInput("no atoms found")
    return Measure(tuple(support), tuple(weights))
