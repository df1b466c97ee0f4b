"""Simplex membership predicates and skeleton enumeration.

Two families of scale-parameter complexes over a finite point set:

* Vietoris-Rips: a subset is a simplex when its diameter fits the scale.
* Cech: a subset is a simplex when some ball of radius scale/2 covers it,
  centered anywhere in ambient space (ambient flavor) or restricted to a
  reference shape (intrinsic flavor, decided over a finite witness set).

Each predicate takes a Simplex or a (k, n) float array of distinct rows and
decides by exact bounds on its measured quantity first (pairwise distances,
or one witness's cover), running the exact kernel (threshold_compare on the
diameter, the smallest enclosing ball, the candidate-center cover) only when
the bounds straddle the threshold. It answers definitively only outside a
relative EPS_GEO band around its threshold and raises AmbiguousPredicate
inside the band; a value exactly at the threshold answers by strictness.
is_simplex dispatches on the flavor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AmbiguousPredicate, InvalidInput, MedialAxisProximity, SizeLimit
from .euclid import (as_point, as_points, band, coincident_pair, max_row_norm, norm,
                     threshold_compare)
from .shapes import project

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
    radius = max_row_norm(pts - center)
    return MinBallResult(tuple(map(float, center)), radius)


def _ball_radius_bound(pts: np.ndarray) -> float:
    """Upper bound on min_enclosing_ball(pts).radius, the radius itself for one
    or two rows: the lesser of the largest distances from the centroid and
    from _welzl's center for a diametral pair in either order (the farther),
    which is not below the rounded radius where the ball lies on that pair."""
    if pts.shape[0] < 3:  # min_enclosing_ball's closed form
        return norm(pts[0] - 0.5 * (pts[0] + pts[-1]))
    i, j = divmod(int(_square_distances(pts).argmax()), pts.shape[0])
    # _ball_from_support's centers: pts[i] + step, and pts[j] - step exactly
    V = pts[[j]] - pts[i]
    step = (0.5 * np.einsum("ij,ij->i", V, V) / (V @ V.T)[0, 0]) @ V
    pair = max(max_row_norm(pts - (pts[i] + step)), max_row_norm(pts - (pts[j] - step)))
    return min(max_row_norm(pts - pts.sum(axis=0) / pts.shape[0]), pair)


def _check_ball_dim(pts: np.ndarray) -> np.ndarray:
    if pts.shape[1] > _MAX_BALL_DIM:
        raise SizeLimit(f"min_enclosing_ball supports dimension <= {_MAX_BALL_DIM}")
    return pts


def _vertices(s) -> np.ndarray:
    """Vertex rows of a Simplex, or a validated (k, n) array of points."""
    return s.array() if isinstance(s, Simplex) else as_points(s)


def _square_distances(pts: np.ndarray) -> np.ndarray:
    """Square distances between the rows of a (k, n) array, or within each
    stack of a (g, k, n) array."""
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    return (diff * diff).sum(axis=-1)


def cover_radius(centers: np.ndarray, pts: np.ndarray) -> float:
    """Least over the rows of `centers` of the largest distance to a row of
    `pts`; inf when there are no centers."""
    diff = centers[:, None, :] - pts[None, :, :]
    return math.sqrt((diff * diff).sum(axis=2).max(axis=1).min(initial=math.inf))


def _radius_bounds(stacks: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Upper bounds on the smallest enclosing ball radius of each support of
    a (g, k, n) array, d2 their square distances: the lesser of the largest
    distances from the centroid and from the midpoint of a diametral pair."""
    g, k, _ = stacks.shape
    i, j = np.divmod(d2.reshape(g, -1).argmax(axis=1), k)
    rows = np.arange(g)
    centers = (stacks.sum(axis=1) / k, (stacks[rows, i] + stacks[rows, j]) / 2)
    far = [np.sqrt(((stacks - c[:, None, :]) ** 2).sum(axis=2).max(axis=1)) for c in centers]
    return np.minimum(*far)


def is_vr_simplex(s, spec: ComplexSpec) -> bool:
    """Diameter within scale, strictness-aware."""
    if spec.flavor != "vr":
        raise InvalidInput(f"is_vr_simplex needs flavor 'vr', got {spec.flavor!r}")
    pts = _vertices(s)
    diam = math.sqrt(_square_distances(pts).max()) if pts.shape[0] > 1 else 0.0
    band2 = 2.0 * band(spec.scale)
    if diam <= spec.scale - band2:
        return True
    if diam >= spec.scale + band2:
        return False
    return threshold_compare(diam, spec.scale, spec.strict)


def is_cech_simplex_ambient(s, spec: ComplexSpec) -> bool:
    """Smallest enclosing ball radius within scale/2, strictness-aware.

    Rigorous radius bounds come first, in this order: the largest distance
    from the best vertex (above), half the diameter (below), _radius_bounds
    (above), which finds the ball on short arcs and small patches: there it
    lies on a diametral pair. The ball itself is computed only when they
    straddle the threshold, and bound_verdicts computes the same bounds."""
    if spec.flavor != "cech-ambient":
        raise InvalidInput(f"is_cech_simplex_ambient needs flavor 'cech-ambient', got {spec.flavor!r}")
    pts = _check_ball_dim(_vertices(s))
    half = spec.scale / 2.0
    band2 = 2.0 * band(half)
    d2 = _square_distances(pts)
    if math.sqrt(d2.max(axis=1).min()) <= half - band2:
        return True
    if 0.5 * math.sqrt(d2.max()) >= half + band2:
        return False
    if _radius_bounds(pts[None], d2[None])[0] <= half - band2:
        return True
    ball = min_enclosing_ball(pts)
    return threshold_compare(ball.radius, half, spec.strict)


def intrinsic_cover(verts: np.ndarray, centers: np.ndarray, shape, half: float) -> float:
    """Least largest distance from an on-shape center to the rows of `verts`,
    inf when there is no center. The centers are the rows of `centers` and,
    unless those already cover within half - 2 * band(half), which decides
    the cover against `half`, the shape projection of the ambient
    smallest-ball center where that projection is defined."""
    cover = cover_radius(centers, verts)
    if cover <= half - 2.0 * band(half):
        return cover
    try:
        center = project(shape, np.asarray(min_enclosing_ball(verts).center))
        cover = min(cover, max_row_norm(center - verts))
    except MedialAxisProximity:
        pass
    return cover


def is_cech_simplex_intrinsic(s, spec: ComplexSpec, witnesses: Sequence) -> bool:
    """Some on-shape candidate center covers all vertices within scale/2.

    Candidates are the provided witnesses plus the shape projection of the
    ambient smallest-ball center (see intrinsic_cover). This is a finite
    under-approximation of the existential over the whole shape; use dense
    witness sets for tight answers.
    """
    if spec.flavor != "cech-intrinsic":
        raise InvalidInput(f"is_cech_simplex_intrinsic needs flavor 'cech-intrinsic', got {spec.flavor!r}")
    verts = _check_ball_dim(_vertices(s))
    n, half = verts.shape[1], spec.scale / 2.0
    centers = as_points(witnesses, dim=n) if len(witnesses) > 0 else np.empty((0, n))
    cover = intrinsic_cover(verts, centers, spec.shape, half)
    return cover != math.inf and threshold_compare(cover, half, spec.strict)


def bound_verdicts(stacks: np.ndarray, spec: ComplexSpec, witnesses: np.ndarray) -> np.ndarray:
    """The bound shortcuts of is_simplex on every support of a (g, k, n)
    array of g supports at once, support i witnessed by witnesses[i] (read
    by the intrinsic flavor only): 1 where the bounds prove membership, 0
    where they disprove it, -1 where is_simplex must decide. Each bound is
    computed with the scalar predicate's operations, so a decided support
    gets the answer is_simplex gives; a dimension past the min-ball limit
    decides nothing, so that is_simplex raises."""
    g, k, n = stacks.shape
    out = np.full(g, -1, dtype=np.int8)
    if spec.flavor != "vr" and n > _MAX_BALL_DIM:
        return out
    if spec.flavor == "cech-intrinsic":
        half = spec.scale / 2.0
        diff = witnesses[:, None, :] - stacks
        cover = np.sqrt((diff * diff).sum(axis=2).max(axis=1))
        out[cover <= half - 2.0 * band(half)] = 1
        return out
    d2 = _square_distances(stacks)
    if spec.flavor == "vr":
        diam = np.sqrt(d2.max(axis=(1, 2)))
        band2 = 2.0 * band(spec.scale)
        out[diam >= spec.scale + band2] = 0
        out[diam <= spec.scale - band2] = 1
        return out
    half = spec.scale / 2.0
    band2 = 2.0 * band(half)
    # in is_cech_simplex_ambient's order: best vertex, half diameter, _radius_bounds
    out[_radius_bounds(stacks, d2) <= half - band2] = 1
    out[0.5 * np.sqrt(d2.max(axis=(1, 2))) >= half + band2] = 0
    out[np.sqrt(d2.max(axis=2).min(axis=1)) <= half - band2] = 1
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
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
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
