"""Simplex membership predicates and skeleton enumeration.

Two families of scale-parameter complexes over a finite point set:

* Vietoris-Rips: a subset is a simplex when its diameter fits the scale.
* Cech: a subset is a simplex when some ball of radius scale/2 covers it,
  centered anywhere in ambient space (ambient flavor) or restricted to a
  reference shape (intrinsic flavor, decided over a finite witness set).

Each flavor decides by one quantity of the support against one threshold
(membership_quantity): the diameter against the scale, or the smallest
enclosing ball radius or the least on-shape cover against scale/2. decide
answers definitively only outside a relative EPS_GEO band around the
threshold, raises AmbiguousPredicate inside it and answers a value exactly
at the threshold by strictness. The predicates take a Simplex or a (k, n)
float array of distinct rows; the ambient one first tries the exact bounds
of bound_verdicts, which answer as decide does. is_simplex picks by flavor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AmbiguousPredicate, InvalidInput, SizeLimit
from .euclid import (as_point, as_points, band, coincident_pair, dot_norms, norm, row_norms,
                     square_distances, threshold_compare)
from .shapes import project_rows

FLAVORS = ("vr", "cech-ambient", "cech-intrinsic")

_MAX_DIM = 6
_MAX_VR_POINTS = 2000
_MAX_CECH_POINTS = 300
_MAX_BALL_DIM = 10
_MAX_BALL_COORD = 1e150  # square distances stay finite in R^_MAX_BALL_DIM


@dataclass(frozen=True)
class Simplex:
    """Nonempty set of pairwise-distinct vertices, stored in given order."""

    vertices: tuple

    def __post_init__(self):
        pts = as_points([as_point(v) for v in self.vertices])
        pair = coincident_pair(pts)
        if pair is not None:
            raise InvalidInput("vertices %d and %d coincide" % pair)
        object.__setattr__(self, "vertices", tuple(tuple(map(float, v)) for v in pts))

    def array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class ComplexSpec:
    """Which complex: flavor in {"vr", "cech-ambient", "cech-intrinsic"},
    scale r > 0, strict (<) versus non-strict (<=) threshold, and the
    reference shape (required for the intrinsic flavor)."""

    flavor: str
    scale: float
    strict: bool = False
    shape: object = None

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise InvalidInput(f"flavor must be one of {FLAVORS}, got {self.flavor!r}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise InvalidInput(f"scale must be positive and finite, got {self.scale}")
        if self.flavor == "cech-intrinsic" and self.shape is None:
            raise InvalidInput("cech-intrinsic requires a shape")


@dataclass(frozen=True)
class MinBallResult:
    center: tuple
    radius: float


def _ball_from_support(pts: np.ndarray, support: tuple) -> tuple:
    """Smallest ball with the rows `support` of pts all on its boundary.

    center = p0 + sum alpha_i (p_i - p0) where the Gram system
    (V V^T) alpha = |v_i|^2 / 2 places the center equidistant from all
    support points; least squares keeps the center in the affine hull when
    the support is degenerate. A pair's 1x1 system is LAPACK's one division.
    """
    if not support:
        return None, -1.0
    p0 = pts[support[0]]
    if len(support) == 1:
        return p0.copy(), 0.0
    V = pts[list(support[1:])] - p0
    gram = V @ V.T
    rhs = 0.5 * np.einsum("ij,ij->i", V, V)
    try:
        alpha = rhs / gram[0, 0] if len(support) == 2 and gram[0, 0] else np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        alpha, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    center = p0 + alpha @ V
    return center, norm(center - p0)


def _welzl(pts: np.ndarray) -> tuple:
    """Welzl's smallest-enclosing-ball with move-to-front, in Gaertner's loop
    form: recursion only adds a support point, so its depth stays below the
    dimension + 2 however many points there are."""
    n = pts.shape[1]
    order = list(range(pts.shape[0]))

    def solve(end: int, support: tuple) -> tuple:
        center, radius = _ball_from_support(pts, support)
        if len(support) == n + 1:
            return center, radius
        for i in range(end):
            idx = order[i]
            if center is not None and norm(pts[idx] - center) <= radius * (1 + 1e-12) + 1e-14:
                continue
            center, radius = solve(i, support + (idx,))
            # move-to-front: boundary points get examined early next time
            order.remove(idx)
            order.insert(0, idx)
        return center, radius

    return solve(pts.shape[0], ())


def min_enclosing_ball(points: Sequence) -> MinBallResult:
    """Unique smallest ball enclosing the points (a sequence or a (k, n) array)."""
    if not (isinstance(points, np.ndarray) and points.ndim == 2):
        points = [as_point(p) for p in points]
    pts = _check_ball_dim(as_points(points))
    if np.abs(pts).max() > _MAX_BALL_COORD:
        raise SizeLimit(f"min_enclosing_ball supports coordinates up to {_MAX_BALL_COORD:g}")
    if pts.shape[0] < 3:  # the midpoint, which is the point itself for one row
        center = 0.5 * (pts[0] + pts[-1])
        return MinBallResult(tuple(map(float, center)), norm(pts[0] - center))
    center, radius = _welzl(pts)
    # sharpen the radius to the farthest point actually enclosed
    radius = float(row_norms(pts - center).max())
    return MinBallResult(tuple(map(float, center)), radius)


def _check_ball_dim(pts: np.ndarray) -> np.ndarray:
    if pts.shape[1] > _MAX_BALL_DIM:
        raise SizeLimit(f"min_enclosing_ball supports dimension <= {_MAX_BALL_DIM}")
    return pts


def _vertices(s, spec: ComplexSpec, flavor: str) -> np.ndarray:
    """Vertex rows of a Simplex, or a validated (k, n) array of points, for
    the predicate of `flavor`, which must be the flavor of `spec`."""
    if spec.flavor != flavor:
        raise InvalidInput(f"the {flavor} predicate needs flavor {flavor!r}, got {spec.flavor!r}")
    return s.array() if isinstance(s, Simplex) else as_points(s)


def cover_radius(centers: np.ndarray, pts: np.ndarray):
    """Least over the rows of `centers` of the largest distance to a row of
    `pts`, inf without centers; one per pair of stacked (c, n) and (k, n)."""
    return np.sqrt(square_distances(centers, pts).max(axis=-1).min(axis=-1, initial=math.inf))


def _radius_bounds(stacks: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Upper bounds on min_enclosing_ball(pts).radius for each support pts of
    a (g, k, n) array, d2 their square distances: below three rows the radius
    itself; else the lesser of the largest distances from the centroid and
    from _welzl's center for a diametral pair in either order (the farther).
    A support's bound has the same bits alone as in a stack."""
    g, k, _ = stacks.shape
    if k < 3:  # min_enclosing_ball's closed form, with norm's bits
        return dot_norms(stacks[:, 0] - 0.5 * (stacks[:, 0] + stacks[:, -1]))
    rows = np.arange(g)
    i, j = np.divmod(d2.reshape(g, -1).argmax(axis=1), k)
    # _ball_from_support's centers, pts[i] + step and pts[j] - step exactly:
    # not below the rounded radius where _welzl ends on that pair
    pi, pj = stacks[rows, i], stacks[rows, j]
    V = pj - pi
    step = (0.5 * np.einsum("ij,ij->i", V, V) / (V[:, None, :] @ V[:, :, None])[:, 0, 0])[:, None] * V

    def far(centers):
        return np.sqrt(((stacks - centers[:, None, :]) ** 2).sum(axis=2).max(axis=1))

    pair = np.maximum(far(pi + step), far(pj - step))
    return np.minimum(far(stacks.sum(axis=1) / k), pair)


def membership_quantity(pts: np.ndarray, spec: ComplexSpec, witnesses: Sequence = ()) -> tuple:
    """The quantity that decides whether the (k, n) array pts of distinct
    rows is a simplex of `spec`, and the threshold it must stay within: the
    diameter and the scale, the smallest enclosing ball radius and scale/2,
    or intrinsic_cover over the witnesses (inf when there is no on-shape
    center) and scale/2."""
    if spec.flavor == "vr":
        return math.sqrt(square_distances(pts).max()), spec.scale
    half = spec.scale / 2.0
    if spec.flavor == "cech-ambient":
        return min_enclosing_ball(pts).radius, half
    n = _check_ball_dim(pts).shape[1]
    centers = as_points(witnesses, dim=n) if len(witnesses) > 0 else np.empty((0, n))
    return intrinsic_cover(pts, centers, spec.shape, half), half


def decide(pts: np.ndarray, spec: ComplexSpec, witnesses: Sequence = ()) -> bool:
    """threshold_compare on membership_quantity, strictness-aware; no
    on-shape center means no simplex."""
    value, threshold = membership_quantity(pts, spec, witnesses)
    return value != math.inf and threshold_compare(value, threshold, spec.strict)


def is_vr_simplex(s, spec: ComplexSpec) -> bool:
    """Diameter within scale, strictness-aware."""
    return decide(_vertices(s, spec, "vr"), spec)


def is_cech_simplex_ambient(s, spec: ComplexSpec) -> bool:
    """Smallest enclosing ball radius within scale/2, strictness-aware. The
    ball itself is computed only where bound_verdicts leaves the support open."""
    pts = _vertices(s, spec, "cech-ambient")
    bound = int(bound_verdicts(pts[None], spec, None)[0])
    return bound == 1 if bound >= 0 else decide(pts, spec)


def intrinsic_cover(verts: np.ndarray, centers: np.ndarray, shape, half: float) -> float:
    """Least largest distance from an on-shape center to the rows of `verts`,
    inf when there is no center. The centers are the rows of `centers` and,
    unless those already cover within half - 2 * band(half), which decides
    the cover against `half`, the shape projection of the ambient
    smallest-ball center where that projection is defined."""
    cover = float(cover_radius(centers, verts))
    if cover <= half - 2.0 * band(half):
        return cover
    feet, tied = project_rows(shape, [min_enclosing_ball(verts).center])
    return cover if tied[0] else min(cover, float(row_norms(feet[0] - verts).max()))


def is_cech_simplex_intrinsic(s, spec: ComplexSpec, witnesses: Sequence) -> bool:
    """Some on-shape candidate center covers all vertices within scale/2.

    Candidates are the provided witnesses plus the shape projection of the
    ambient smallest-ball center (see intrinsic_cover). This is a finite
    under-approximation of the existential over the whole shape; use dense
    witness sets for tight answers.
    """
    return decide(_vertices(s, spec, "cech-intrinsic"), spec, witnesses)


def bound_verdicts(stacks: np.ndarray, spec: ComplexSpec, witnesses: np.ndarray) -> np.ndarray:
    """Exact bounds on membership_quantity for every support of a (g, k, n)
    array at once, support i witnessed by witnesses[i]: 1 where an upper
    bound proves membership, 0 where a lower bound disproves it, -1 where
    decide must run. A deciding bound lies beyond twice the band, so decide
    answers the same. The bounds: the diameter itself (vr); half of it, and
    the best vertex's and _radius_bounds (cech-ambient); one witness's cover
    (cech-intrinsic). A dimension past the min-ball limit decides nothing,
    so that decide raises."""
    g, k, n = stacks.shape
    out = np.full(g, -1, dtype=np.int8)
    if spec.flavor != "vr" and n > _MAX_BALL_DIM:
        return out
    threshold = spec.scale if spec.flavor == "vr" else spec.scale / 2.0
    band2 = 2.0 * band(threshold)
    if spec.flavor == "cech-intrinsic":
        lower = np.zeros(g)
        upper = np.sqrt(square_distances(witnesses[:, None, :], stacks).max(axis=(1, 2)))
    else:
        d2 = square_distances(stacks)
        lower = upper = np.sqrt(d2.max(axis=(1, 2)))
        if spec.flavor == "cech-ambient":
            lower, upper = 0.5 * lower, np.sqrt(d2.max(axis=2).min(axis=1))
            # _radius_bounds only where half the diameter and the best vertex leave it open
            rest = (lower < threshold + band2) & (upper > threshold - band2)
            if rest.any():
                upper[rest] = np.minimum(upper[rest], _radius_bounds(stacks[rest], d2[rest]))
    out[lower >= threshold + band2] = 0
    out[upper <= threshold - band2] = 1
    return out


def is_simplex(s, spec: ComplexSpec, witnesses: Sequence = ()) -> bool:
    """Membership in the complex of `spec` by its flavor's predicate; the
    witnesses serve the intrinsic flavor only."""
    if spec.flavor == "vr":
        return is_vr_simplex(s, spec)
    if spec.flavor == "cech-ambient":
        return is_cech_simplex_ambient(s, spec)
    return is_cech_simplex_intrinsic(s, spec, witnesses)


def _cliques(adj: np.ndarray, max_size: int) -> list:
    """All cliques of the adjacency matrix with 1..max_size vertices, as
    sorted index tuples in lexicographic order."""
    m = adj.shape[0]
    out = []

    def extend(clique: list, cands: np.ndarray):
        out.append(tuple(clique))
        if len(clique) == max_size:
            return
        for v in cands:
            extend(clique + [int(v)], cands[(cands > v) & adj[v, cands]])

    all_idx = np.arange(m)
    for v in range(m):
        extend([v], all_idx[(all_idx > v) & adj[v]])
    return sorted(out, key=lambda t: (len(t), t))


def enumerate_skeleton(points: Sequence, spec: ComplexSpec, max_dim: int,
                       witnesses: Sequence = ()) -> list:
    """All simplices on the given points up to max_dim that satisfy the
    flavor's predicate. Vietoris-Rips is the clique complex of its
    1-skeleton; Cech flavors test each candidate subset, pruned by the
    Rips 1-skeleton at the same scale (every Cech simplex is one of its
    cliques)."""
    pts, idx_simplices = _skeleton_indices(points, spec, max_dim, witnesses)
    return [Simplex(tuple(map(tuple, pts[list(t)]))) for t in idx_simplices]


def _skeleton_indices(points: Sequence, spec: ComplexSpec, max_dim: int,
                      witnesses: Sequence = ()) -> tuple:
    """The points as a (m, n) array, and the skeleton's simplices as sorted
    index tuples."""
    if not (1 <= max_dim <= _MAX_DIM):
        raise SizeLimit(f"max_dim must be in 1..{_MAX_DIM}, got {max_dim}")
    pts = as_points([as_point(p) for p in points])
    m = pts.shape[0]
    limit = _MAX_VR_POINTS if spec.flavor == "vr" else _MAX_CECH_POINTS
    if m > limit:
        raise SizeLimit(f"{spec.flavor} skeleton supports at most {limit} points, got {m}")
    pair = coincident_pair(pts)
    if pair is not None:
        raise InvalidInput("points %d and %d coincide" % pair)
    dist = np.sqrt(square_distances(pts))
    half_width = band(spec.scale)

    if spec.flavor == "vr":
        off = np.triu(np.ones((m, m), dtype=bool), 1)
        gap = np.abs(dist - spec.scale)
        bad = off & (gap <= half_width) & (gap > 0)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise AmbiguousPredicate(
                f"edge ({i},{j}) length {dist[i, j]!r} within EPS_GEO of scale {spec.scale!r}")
        adj = dist < spec.scale if spec.strict else dist <= spec.scale
        np.fill_diagonal(adj, False)
        return pts, _cliques(adj, max_dim + 1)

    # Cech: candidate subsets are cliques of a loose Rips prefilter, which
    # never prunes a true simplex; each candidate runs the real predicate
    adj = dist <= spec.scale + 2.0 * half_width
    np.fill_diagonal(adj, False)
    if len(witnesses) > 0:
        witnesses = as_points(witnesses, dim=pts.shape[1])
    return pts, [t for t in _cliques(adj, max_dim + 1)
                 if is_simplex(pts[list(t)], spec, witnesses)]


def format_skeleton(points: Sequence, spec: ComplexSpec, max_dim: int,
                    witnesses: Sequence = ()) -> str:
    """Plain-text skeleton: header `dim <n> scale <r> flavor <f> strict <0|1>`
    then one simplex per line as space-separated vertex indices."""
    pts, idx_simplices = _skeleton_indices(points, spec, max_dim, witnesses)
    lines = [f"dim {pts.shape[1]} scale {format(spec.scale, '.12g')} "
             f"flavor {spec.flavor} strict {1 if spec.strict else 0}"]
    lines.extend(" ".join(str(i) for i in t) for t in idx_simplices)
    return "\n".join(lines) + "\n"
