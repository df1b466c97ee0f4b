"""Euclidean primitives: coercion, norms, diameters, coincidence, threshold bands."""
import math

import numpy as np
import pytest

from thicken import AmbiguousPredicate, DimensionMismatch, InvalidInput
from thicken.euclid import (
    as_point,
    as_points,
    coincident_pair,
    coincident_rows,
    diameter,
    max_row_norm,
    nearest_distance_query,
    norm,
    row_norms,
    threshold_compare,
)


def test_as_point_rejects_bad_inputs():
    with pytest.raises(DimensionMismatch):
        as_point([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        as_point([])
    with pytest.raises(DimensionMismatch):
        as_point([1.0, np.nan])
    with pytest.raises(DimensionMismatch):
        as_point([1.0, 2.0], dim=3)
    assert as_point([1, 2]).dtype == np.float64


def test_as_points_promotes_single_point():
    a = as_points([1.0, 2.0])
    assert a.shape == (1, 2)
    with pytest.raises(DimensionMismatch):
        as_points(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatch):
        as_points([[1.0], [2.0]], dim=2)
    with pytest.raises(InvalidInput, match="malformed points"):
        as_points([[0.0, 0.0], [1.0]])
    with pytest.raises(InvalidInput, match="malformed point"):
        as_point(["x", 1.0])


def test_distance_and_diameter_small_cases():
    # a pair's diameter is its distance
    assert diameter([[0, 0], [3, 4]]) == 5.0
    assert diameter([[0, 0, 0], [1, 1, 1]]) == pytest.approx(np.sqrt(3.0), abs=1e-15)
    assert diameter([[1.0, 1.0]]) == 0.0
    assert diameter([[0, 0], [1, 0], [0, 1]]) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    # unit square: diagonal wins
    sq = [[0, 0], [1, 0], [0, 1], [1, 1]]
    assert diameter(sq) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_diameter_matches_pairwise_scan():
    rng = np.random.default_rng(0)
    # one big flat instance plus assorted shapes/dims
    pts = rng.random(size=(100, 2))
    slow = max(float(np.linalg.norm(a - b)) for a in pts for b in pts)
    assert diameter(pts) == pytest.approx(slow, abs=1e-12)
    for _ in range(50):
        pts = rng.normal(size=(rng.integers(2, 9), rng.integers(1, 5)))
        slow = max(float(np.linalg.norm(a - b)) for a in pts for b in pts)
        assert diameter(pts) == pytest.approx(slow, abs=1e-12)


def test_triangle_inequality_randomized():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = rng.normal(size=(3, int(rng.integers(1, 5))))
        assert norm(a - c) <= norm(a - b) + norm(b - c) + 1e-12


def test_hull_point_outside_convex_set_forces_a_generator_outside():
    # if the combination escapes a convex set (half-space complement or
    # ball), some generator must have escaped too
    rng = np.random.default_rng(3)
    for _ in range(300):
        pts = rng.normal(size=(int(rng.integers(1, 6)), 2))
        w = rng.random(pts.shape[0])
        w /= w.sum()
        y = w @ pts
        if rng.random() < 0.5:
            # closed ball
            center, radius = rng.normal(size=2), rng.random() * 2
            if np.linalg.norm(y - center) > radius:
                assert np.any(np.linalg.norm(pts - center, axis=1) > radius)
        else:
            # closed half-space {z : <z - anchor, normal> <= 0}
            anchor, normal = rng.normal(size=2), rng.normal(size=2)
            if (y - anchor) @ normal > 0:
                assert np.any((pts - anchor) @ normal > 0)


def test_coincident_pair_matches_full_scan():
    # the sorted-first-coordinate shortcut answers as the pairwise scan does,
    # near the 1e-12 tolerance and with ties in the first coordinate
    rng = np.random.default_rng(6)
    for _ in range(3000):
        k, n = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        pts = rng.normal(size=(k, n))
        if rng.random() < 0.3:
            pts[:, 0] = rng.integers(0, 2, size=k)
        if k > 1 and rng.random() < 0.5:
            i, j = rng.choice(k, 2, replace=False)
            pts[j] = pts[i] + rng.choice([0.0, 5e-13, 2e-12]) * rng.normal(size=n)
        i, j = np.nonzero(coincident_rows(pts, pts))
        upper = [(int(a), int(b)) for a, b in zip(i, j) if a < b]
        assert coincident_pair(pts) == (upper[0] if upper else None)


def test_norm_helpers_match_numpy():
    rng = np.random.default_rng(8)
    for _ in range(500):
        a = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 4))) * 10.0 ** rng.integers(-5, 6)
        assert norm(a[0]) == float(np.linalg.norm(a[0]))
        assert norm(a[:, 0]) == float(np.linalg.norm(a[:, 0]))
        assert norm(a) == float(np.linalg.norm(a))
        assert (row_norms(a) == np.linalg.norm(a, axis=1)).all()
        assert max_row_norm(a) == float(np.linalg.norm(a, axis=1).max())


def test_threshold_compare_exact_equality_decides_by_strictness():
    assert threshold_compare(1.0, 1.0, strict=False)
    assert not threshold_compare(1.0, 1.0, strict=True)


def test_threshold_compare_band_raises():
    with pytest.raises(AmbiguousPredicate):
        threshold_compare(1.0 + 1e-10, 1.0, strict=False)
    with pytest.raises(AmbiguousPredicate):
        threshold_compare(1.0 - 1e-10, 1.0, strict=True)
    # outside the band both sides resolve
    assert threshold_compare(1.0 - 1e-8, 1.0, strict=True)
    assert not threshold_compare(1.0 + 1e-8, 1.0, strict=False)


def test_threshold_compare_band_scales_with_threshold():
    # band = eps * max(1, |thr|): at thr=1000 the band is 1e-6 wide
    with pytest.raises(AmbiguousPredicate):
        threshold_compare(1000.0 + 5e-7, 1000.0, strict=False)
    assert not threshold_compare(1000.0 + 5e-6, 1000.0, strict=False)
    with pytest.raises(ValueError):
        threshold_compare(np.inf, 1.0, strict=False)


def _point_sets(rng, dim):
    # random clouds over six decades, a coarse grid with exact ties and
    # duplicate rows, and a round sphere whose center ties with every row
    for scale in (1e-3, 1.0, 1e3):
        yield rng.normal(size=(int(rng.integers(50, 1500)), dim)) * scale
    grid = rng.integers(-3, 4, size=(400, dim)).astype(float)
    yield grid
    sphere = rng.normal(size=(1000, dim))
    yield sphere / np.linalg.norm(sphere, axis=1, keepdims=True) * 2.5


def _queries(rng, pts):
    n = pts.shape[1]
    spread = float(np.abs(pts).max())
    return np.concatenate((
        rng.normal(size=(3000, n)) * spread,
        pts[rng.integers(0, pts.shape[0], 500)],                  # distance 0
        rng.integers(-3, 4, size=(500, n)) * 0.5,                  # grid ties
        rng.normal(size=(300, n)) * 1e-16,                         # at the sphere's center
        rng.normal(size=(200, n)) * 1e3 * spread))


def test_nearest_distance_query_matches_ckdtree_bit_for_bit():
    # the screen must never drop the nearest row: the query gives the least
    # per-row sum of squares, added in coordinate order, over every row, bit
    # for bit, in dims 1-12; below dim 8 cKDTree adds in that order too, so
    # its floats agree
    from scipy.spatial import cKDTree

    from thicken import FinitePointSet, ZeroSphere
    from thicken.shapes import finite_points

    rng = np.random.default_rng(2024)
    sets = [pts for dim in range(1, 7) for pts in _point_sets(rng, dim)]
    sets += [rng.normal(size=(300, dim)) for dim in (7, 8, 9, 12)]
    sets += [finite_points(ZeroSphere()),
             finite_points(FinitePointSet(((0.0, 0.0), (3.0, 0.0), (0.0, 4.0), (1.0, 1.0))))]
    checked = 0
    for pts in sets:
        queries = _queries(rng, pts)
        want = []
        for c in queries:
            d = pts - c
            want.append(math.sqrt(np.cumsum(d * d, axis=1)[:, -1].min()))
        query = nearest_distance_query(pts)
        got = np.array([query(c) for c in queries])
        assert (got == np.array(want)).all()
        if pts.shape[1] < 8:
            assert (got == cKDTree(pts).query(queries)[0]).all()
        checked += queries.shape[0]
    assert checked >= 10**5
