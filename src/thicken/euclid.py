"""Euclidean primitives: points, norms, diameters, coincidence, thresholds.

Points are plain float64 numpy arrays. Every public operation validates
finiteness and dimension agreement. Every predicate shares one tolerance
policy: EPS_GEO sets the ambiguity band around a threshold (see band) and
EPS_MED the medial-axis guard of the shape projections.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AmbiguousPredicate, DimensionMismatch, InvalidInput

__all__ = [
    "EPS_GEO",
    "EPS_MED",
    "band",
    "as_point",
    "as_points",
    "diameter",
    "nearest_distance_query",
    "coincident_rows",
    "coincident_pair",
    "threshold_compare",
]


# relative half-width of the ambiguity band around predicate thresholds
EPS_GEO = 1e-9
# relative guard (of reach) for nearest-point uniqueness
EPS_MED = 1e-6


def band(threshold: float) -> float:
    """Half-width EPS_GEO * max(1, |threshold|) of the ambiguity band: a
    value farther than this from the threshold is on a trusted side."""
    return EPS_GEO * max(1.0, abs(threshold))


def as_floats(x, what: str) -> np.ndarray:
    """np.asarray(x, dtype=float); non-numbers or ragged rows raise InvalidInput."""
    try:
        return np.asarray(x, dtype=float)
    except ValueError as exc:
        raise InvalidInput(f"malformed {what}: {exc}") from None


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally checking dimension."""
    p = as_floats(x, "point")
    if p.ndim != 1 or p.size == 0:
        raise DimensionMismatch(f"point must be 1-D and nonempty, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise DimensionMismatch("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


def as_points(xs, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite (k, n) float64 array of row points."""
    a = as_floats(xs, "points")
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2 or a.shape[1] == 0 or a.shape[0] == 0:
        raise DimensionMismatch(f"expected (k, n) points, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionMismatch("points have non-finite coordinates")
    if dim is not None and a.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {a.shape[1]}")
    return a


def norm(v: np.ndarray) -> float:
    """float(np.linalg.norm(v)) without its dispatch, which dominates on few-point arrays."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def row_norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm(d, axis=-1) for a (..., n) float array, without its dispatch."""
    return np.sqrt((d * d).sum(axis=-1))


def dot_norms(v: np.ndarray) -> np.ndarray:
    """norm of each row of the (k, n) array v, bit for bit: np.vecdot gives
    ndarray.dot's bits, which a sum of squares does not."""
    return np.sqrt(np.vecdot(v, v))


def nearest_distance_query(points):
    """query(c) -> the distance from c to the nearest row of the (k, n) array
    `points`: the root of the least sum of squared differences over a row,
    bit for bit what a scan of every row gives.

    A query screens every row x by v(x) = |x|^2 - 2<x, c>, which orders the
    rows as |x - c|^2 = v(x) + |c|^2 does, and sums the squared differences
    only for the rows whose v is within a rounding slack of the least."""
    pts = as_points(points)
    n = pts.shape[1]
    cols = np.ascontiguousarray(pts.T)
    minus_2x = -2.0 * cols
    sq_norms = (pts * pts).sum(axis=1)
    max_norm = math.sqrt(sq_norms.max())

    def query(c: np.ndarray) -> float:
        v = c @ minus_2x
        v += sq_norms
        # Slack, for any summation order, with or without fused multiply-adds
        # (u = 2^-53, g_m = m u / (1 - m u), B = (max|x| + |c|)^2): the
        # computed |x|^2 and <x, c> lie within g_n |x|^2 and g_n |x||c| of
        # their values and the sum adds u |v|, so a computed v is within
        # e = g_(n+1) B of its value; a computed |x - c|^2 (n rounded
        # differences, squares and sums) is within e' = g_(n+2) B of its
        # value. The row x* of least computed distance and the row x_m of
        # least computed v then have v(x*) <= v(x_m) + 2e + 2e' < v(x_m) +
        # 4 (n + 2) u B (1 + 1e-15); twice that also covers the rounding of
        # B and of the threshold, and the 2^-1074 term covers underflow.
        b = max_norm + math.sqrt(c.dot(c))
        slack = 8 * (n + 2) * (2.0 ** -53 * b * b + 2.0 ** -1074)
        # Python's sum adds the squares in coordinate order whichever rows
        # are kept (ndarray.sum adds a lone row pairwise from 8 coordinates)
        d = cols.take(np.flatnonzero(v <= v.min() + slack), axis=1) - c[:, None]
        return math.sqrt(sum(d * d).min())

    return query


def square_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Square distances between the rows of a and those of b (of a itself
    when b is None): (..., k, m) for (..., k, n) and (..., m, n) arrays. The
    one pairwise kernel: every pairwise distance is its root."""
    d = a[..., :, None, :] - (a if b is None else b)[..., None, :, :]
    return (d * d).sum(axis=-1)


def diameter(points) -> float:
    """Max pairwise distance of a point set; 0.0 for a singleton."""
    return math.sqrt(square_distances(as_points(points)).max())


# per-coordinate distance below which two points count as one
_COINCIDENCE_TOL = 1e-12


def coincident_rows(a, b) -> np.ndarray:
    """(..., k, m) boolean array for (..., k, n) and (..., m, n) arrays: rows
    a[..., i, :] and b[..., j, :] agree within 1e-12 in every coordinate."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (np.abs(a[..., :, None, :] - b[..., None, :, :]) <= _COINCIDENCE_TOL).all(axis=-1)


def apart_by_first_coordinate(stacks: np.ndarray) -> np.ndarray:
    """Mask of the (g, k, n) array's stacks whose sorted first coordinates
    all differ by more than 1e-12, so that their rows are distinct: the
    quick test of coincident_pair, on every stack at once."""
    xs = np.sort(stacks[:, :, 0], axis=1)
    return ((xs[:, 1:] - xs[:, :-1]) > _COINCIDENCE_TOL).all(axis=1)


def coincident_pair(points):
    """First pair (i, j), i < j in row-major order, of coinciding rows of
    `points`; None when all rows are distinct."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 2 and points.shape[1] and apart_by_first_coordinate(points[None])[0]:
        return None
    i, j = np.nonzero(coincident_rows(points, points))
    upper = np.flatnonzero(i < j)
    if upper.size == 0:
        return None
    return int(i[upper[0]]), int(j[upper[0]])


def threshold_compare(value: float, threshold: float, strict: bool) -> bool:
    """Decide ``value <= threshold`` (or ``<`` when strict) with a guard band.

    Exact float equality answers definitively by strictness. Otherwise a
    value within band(threshold) of the threshold raises
    AmbiguousPredicate: the arithmetic cannot be trusted to pick a side.
    """
    if not (math.isfinite(value) and math.isfinite(threshold)):
        raise InvalidInput("threshold comparison on non-finite values")
    if value == threshold:
        return not strict
    half_width = band(threshold)
    if abs(value - threshold) <= half_width:
        raise AmbiguousPredicate(
            f"value {value!r} within +/-{half_width:g} of threshold {threshold!r}"
        )
    return value < threshold
