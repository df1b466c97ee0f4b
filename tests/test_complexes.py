"""Simplex predicates, smallest enclosing balls, skeleton enumeration.

The enclosing-ball oracle below is independent of the library's Welzl
solver: it scans every boundary-support subset of size <= dim+1, solves the
circumcenter least-squares system directly, keeps the candidates that enclose
all points, and returns the smallest. Frozen values below were produced by
that oracle.
"""
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from thicken import (
    AmbiguousPredicate,
    ComplexSpec,
    Circle,
    DimensionMismatch,
    InvalidInput,
    Simplex,
    SizeLimit,
    ZeroSphere,
    enumerate_skeleton,
    format_skeleton,
    is_cech_simplex_ambient,
    is_cech_simplex_intrinsic,
    is_vr_simplex,
    min_enclosing_ball,
    sample,
)
from thicken.euclid import diameter


def oracle_min_ball(pts: np.ndarray) -> tuple:
    """Brute-force smallest enclosing ball via boundary-support enumeration."""
    pts = np.asarray(pts, dtype=float)
    n, d = pts.shape
    best_c, best_r = None, np.inf
    for size in range(1, min(n, d + 1) + 1):
        for idx in combinations(range(n), size):
            sub = pts[list(idx)]
            p0 = sub[0]
            if size == 1:
                c = p0.copy()
            else:
                V = sub[1:] - p0
                rhs = 0.5 * (V * V).sum(axis=1)
                alpha, *_ = np.linalg.lstsq(V @ V.T, rhs, rcond=None)
                c = p0 + alpha @ V
            r = float(np.max(np.linalg.norm(pts - c, axis=1)))
            # candidate must have the chosen subset on (or inside) its boundary
            if r < best_r - 1e-14:
                best_c, best_r = c, r
    return best_c, best_r


def test_min_ball_agrees_with_subset_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        pts = rng.normal(size=(n, d)) * (10.0 ** rng.integers(-2, 3))
        got = min_enclosing_ball(pts)
        _, want_r = oracle_min_ball(pts)
        worst = max(worst, abs(got.radius - want_r) / max(1.0, want_r))
    assert worst < 1e-9


def test_min_ball_frozen_cases():
    # values frozen from oracle_min_ball
    got = min_enclosing_ball([[-1.0], [1.0]])
    assert got.center == (0.0,)
    assert got.radius == 1.0
    got = min_enclosing_ball([[0.0, 0.0], [2.0, 0.0]])
    assert got.center == (1.0, 0.0)
    assert got.radius == 1.0
    got = min_enclosing_ball([[5.0, 5.0]])
    assert got.center == (5.0, 5.0)
    assert got.radius == 0.0
    # 3-4-5 right triangle: hypotenuse midpoint, radius 2.5
    got = min_enclosing_ball([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert np.allclose(got.center, [1.5, 2.0], atol=1e-12)
    assert got.radius == pytest.approx(2.5, abs=1e-12)
    # equilateral triangle, side 1: circumradius 1/sqrt(3)
    eq = [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]
    got = min_enclosing_ball(eq)
    assert got.radius == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    # obtuse triangle: ball spans only the longest edge
    got = min_enclosing_ball([[0.0, 0.0], [4.0, 0.0], [2.0, 0.1]])
    assert got.radius == pytest.approx(2.0, abs=1e-12)


def test_min_ball_enclosure_and_degeneracy():
    rng = np.random.default_rng(11)
    for _ in range(100):
        pts = rng.normal(size=(int(rng.integers(1, 12)), int(rng.integers(1, 4))))
        if rng.random() < 0.3:
            pts = np.vstack([pts, pts[0], pts[0]])  # duplicates allowed here
        got = min_enclosing_ball(pts)
        dists = np.linalg.norm(pts - np.asarray(got.center), axis=1)
        assert np.max(dists) <= got.radius + 1e-9  # encloses everything
    with pytest.raises(SizeLimit):
        min_enclosing_ball(np.zeros((2, 11)))


@pytest.mark.parametrize("pts", (
    [[1e154, 1e154], [-1e154, 1e154], [1e154, -1e154]],
    [[1e200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1e200], [-1e200, -1e200, -1e200]],
    [[1e300], [-1e300]],
    [[1e160, 0.0], [0.0, 1e160], [-1e160, 0.0], [0.0, -1e160]],
), ids=("three-1e154", "four-1e200-R3", "pair-1e300", "four-1e160"))
def test_min_ball_refuses_coordinates_whose_squares_overflow(pts):
    # square distances of these points overflow: the ball would come out NaN
    # or infinite
    with pytest.raises(SizeLimit, match="coordinates up to"):
        min_enclosing_ball(pts)


def test_min_ball_jung_bound():
    # classical bound in R^d: radius <= diameter * sqrt(d / (2(d+1)));
    # independent sanity check on the solver
    rng = np.random.default_rng(13)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        pts = rng.normal(size=(int(rng.integers(2, 9)), d))
        got = min_enclosing_ball(pts)
        bound = diameter(pts) * np.sqrt(d / (2.0 * (d + 1)))
        assert got.radius <= bound + 1e-9
        assert got.radius >= diameter(pts) / 2.0 - 1e-9


@pytest.mark.parametrize("dim", (2, 3))
def test_min_ball_on_a_thousand_points(dim):
    # the solver's recursion depth is bounded by the dimension, not the
    # point count
    pts = np.random.default_rng(0).random((1000, dim))
    got = min_enclosing_ball(pts)
    dists = np.linalg.norm(pts - np.asarray(got.center), axis=1)
    assert (dists <= got.radius).all()
    assert got.radius == dists.max()


def test_pair_support_solve_is_one_division():
    # min_enclosing_ball answers a two-point support's 1x1 Gram system with
    # the quotient that LAPACK's LU solve returns
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        for _ in range(2000):
            V = rng.normal(size=(1, dim)) * rng.uniform(1e-3, 1e3)
            gram = V @ V.T
            rhs = 0.5 * np.einsum("ij,ij->i", V, V)
            assert np.linalg.solve(gram, rhs)[0] == rhs[0] / gram[0, 0]


def test_min_ball_array_and_point_sequence_agree():
    rng = np.random.default_rng(4)
    for k in range(1, 8):
        pts = rng.normal(size=(k, 3))
        assert min_enclosing_ball(pts) == min_enclosing_ball([tuple(p) for p in pts])


def test_simplex_requires_distinct_vertices():
    with pytest.raises(ValueError):
        Simplex(((0.0, 0.0), (0.0, 0.0)))
    s = Simplex(((0.0, 0.0), (1.0, 0.0)))
    assert s.dim == 1


def test_vr_predicate_and_strictness():
    spec = ComplexSpec("vr", 1.0)
    strict = ComplexSpec("vr", 1.0, strict=True)
    s = Simplex(((0.0, 0.0), (1.0, 0.0)))  # diameter exactly 1
    assert is_vr_simplex(s, spec)
    assert not is_vr_simplex(s, strict)
    far = Simplex(((0.0, 0.0), (1.5, 0.0)))
    assert not is_vr_simplex(far, spec)
    with pytest.raises(ValueError):
        is_vr_simplex(s, ComplexSpec("cech-ambient", 1.0))


def test_cech_ambient_predicate():
    spec = ComplexSpec("cech-ambient", 1.0)
    # three points pairwise ~1 apart: MEB radius 1/sqrt(3) > 1/2, rejected
    eq = Simplex(((0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)))
    assert not is_cech_simplex_ambient(eq, spec)
    assert is_cech_simplex_ambient(eq, ComplexSpec("cech-ambient", 2 / np.sqrt(3) + 1e-6))
    pair = Simplex(((0.0, 0.0), (1.0, 0.0)))  # radius exactly 1/2
    assert is_cech_simplex_ambient(pair, spec)
    assert not is_cech_simplex_ambient(pair, ComplexSpec("cech-ambient", 1.0, strict=True))


def test_cech_ambient_one_dimensional_pair():
    # {-1, 1}: enclosing radius exactly 1, so the pair enters at scale 2
    pair = Simplex(((-1.0,), (1.0,)))
    assert is_cech_simplex_ambient(pair, ComplexSpec("cech-ambient", 2.0))
    assert not is_cech_simplex_ambient(pair, ComplexSpec("cech-ambient", 1.9))


def test_cech_ambient_equilateral_enters_at_twice_circumradius():
    eq = Simplex(((0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)))
    # circumradius 1/sqrt(3) ~ 0.577, so scale 1.2 > 2/sqrt(3) admits it
    assert is_cech_simplex_ambient(eq, ComplexSpec("cech-ambient", 1.2))


def test_min_ball_radius_is_minimal():
    # no concentric shrink can still cover: some point escapes the smaller ball
    rng = np.random.default_rng(23)
    for _ in range(60):
        pts = rng.normal(size=(int(rng.integers(2, 9)), int(rng.integers(1, 4))))
        got = min_enclosing_ball(pts)
        shrunk = got.radius * (1 - 1e-7)
        dists = np.linalg.norm(pts - np.asarray(got.center), axis=1)
        assert float(dists.max()) > shrunk


def test_vr_matches_pairwise_scan_on_random_subsets():
    rng = np.random.default_rng(29)
    for _ in range(50):
        pts = rng.normal(size=(int(rng.integers(2, 6)), 2)) * 2
        scale = float(rng.random() * 3 + 0.1)
        expected = max(
            float(np.linalg.norm(a - b)) for a, b in combinations(pts, 2)
        ) <= scale
        spec = ComplexSpec("vr", scale)
        try:
            assert is_vr_simplex(Simplex(tuple(map(tuple, pts))), spec) == expected
        except AmbiguousPredicate:
            pass  # only near-threshold draws land here


def test_predicates_take_point_arrays():
    circle = Circle(1.0)
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    assert is_vr_simplex(eq, ComplexSpec("vr", 1.0))
    assert not is_cech_simplex_ambient(eq, ComplexSpec("cech-ambient", 1.0))
    assert is_cech_simplex_ambient(eq, ComplexSpec("cech-ambient", 1.2))
    near = np.array([[1.0, 0.0], [np.cos(0.2), np.sin(0.2)]])
    assert is_cech_simplex_intrinsic(near, ComplexSpec("cech-intrinsic", 0.5, shape=circle),
                                     near[:1])
    bad = np.array([[0.0, 0.0], [np.inf, 0.0]])
    with pytest.raises(DimensionMismatch):
        is_vr_simplex(bad, ComplexSpec("vr", 1.0))
    with pytest.raises(DimensionMismatch):
        is_cech_simplex_ambient(bad, ComplexSpec("cech-ambient", 1.0))
    with pytest.raises(DimensionMismatch):
        is_cech_simplex_intrinsic(np.array([[np.nan, 0.0]]),
                                  ComplexSpec("cech-intrinsic", 1.0, shape=circle), ())


def test_cech_predicates_cap_dimension_before_bounds():
    # a single point passes every radius bound, yet the ball dimension cap
    # still applies
    point = np.zeros((1, 11))
    with pytest.raises(SizeLimit):
        is_cech_simplex_ambient(point, ComplexSpec("cech-ambient", 1.0))
    with pytest.raises(SizeLimit):
        is_cech_simplex_intrinsic(point, ComplexSpec("cech-intrinsic", 1.0, shape=Circle(1.0)),
                                  point)
    with pytest.raises(ValueError):
        is_cech_simplex_ambient(point, ComplexSpec("vr", 1.0))


def test_predicates_raise_in_ambiguity_band():
    spec = ComplexSpec("vr", 1.0)
    s = Simplex(((0.0, 0.0), (1.0 + 1e-10, 0.0)))
    with pytest.raises(AmbiguousPredicate):
        is_vr_simplex(s, spec)


def test_cech_intrinsic_witness_semantics():
    shape = Circle(1.0)
    # antipodal pair: ambient center is the origin (medial); the best
    # on-circle cover point is (0, +-1) at distance sqrt(2) from both, so
    # membership needs r/2 >= sqrt(2)
    s = Simplex(((1.0, 0.0), (-1.0, 0.0)))
    wit = sample(shape, 512, seed=5)
    spec = ComplexSpec("cech-intrinsic", 2.7, shape=shape)
    assert not is_cech_simplex_intrinsic(s, spec, wit)
    spec = ComplexSpec("cech-intrinsic", 2.9, shape=shape)
    assert is_cech_simplex_intrinsic(s, spec, wit)
    # nearby pair: projected ambient center suffices, no witnesses needed
    th = 0.2
    near = Simplex(((1.0, 0.0), (np.cos(th), np.sin(th))))
    spec = ComplexSpec("cech-intrinsic", 0.5, shape=shape)
    assert is_cech_simplex_intrinsic(near, spec, ())
    # with no witnesses and a medial ambient center the answer is False
    spec = ComplexSpec("cech-intrinsic", 2.9, shape=shape)
    assert not is_cech_simplex_intrinsic(s, spec, ())


def test_intrinsic_cover_candidates_and_context(monkeypatch):
    import thicken.complexes as complexes
    from thicken.complexes import intrinsic_cover

    shape = Circle(1.0)
    near = np.array([[1.0, 0.0], [np.cos(0.2), np.sin(0.2)]])
    chord = 2.0 * np.sin(0.05)  # from the arc midpoint to either vertex
    calls = []
    real = complexes.project
    monkeypatch.setattr(complexes, "project", lambda s, x: calls.append(x) or real(s, x))
    # a center covering far below the threshold decides without the projection
    mid = np.array([[np.cos(0.1), np.sin(0.1)]])
    assert intrinsic_cover(near, mid, shape, 1.0) == pytest.approx(chord, abs=1e-15)
    assert calls == []
    # with no centers the projected smallest-ball center is the candidate
    assert intrinsic_cover(near, np.empty((0, 2)), shape, 0.25) == pytest.approx(chord, abs=1e-15)
    # a medial smallest-ball center leaves no candidate
    antipodal = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert intrinsic_cover(antipodal, np.empty((0, 2)), shape, 1.5) == np.inf


def test_cech_intrinsic_requires_shape():
    with pytest.raises(ValueError):
        ComplexSpec("cech-intrinsic", 1.0)


def test_cech_intrinsic_degenerate_cases():
    shape = ZeroSphere()
    # a singleton on the shape is its own witness at any positive scale
    single = Simplex(((1.0,),))
    spec = ComplexSpec("cech-intrinsic", 0.5, shape=shape)
    assert is_cech_simplex_intrinsic(single, spec, ((1.0,),))
    # the antipodal pair has no on-shape point within distance 1 of both:
    # each candidate witness sits at distance 2 from the other endpoint
    pair = Simplex(((-1.0,), (1.0,)))
    spec = ComplexSpec("cech-intrinsic", 2.0, shape=shape)
    assert not is_cech_simplex_intrinsic(pair, spec, ((-1.0,), (1.0,)))
    # yet the same pair at the same scale is an ambient simplex (center 0)
    assert is_cech_simplex_ambient(pair, ComplexSpec("cech-ambient", 2.0))


def test_cech_intrinsic_matches_dense_witness_scan():
    # oracle: exhaustive min-over-witnesses of the max distance to vertices
    shape = Circle(1.0)
    wit = sample(shape, 2000, seed=31)
    warr = np.asarray(wit)
    rng = np.random.default_rng(37)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        ang = rng.random(k) * 2 * np.pi
        pts = np.c_[np.cos(ang), np.sin(ang)]
        if len(np.unique(pts, axis=0)) < k:
            continue
        scale = float(rng.random() * 3 + 0.1)
        cover = np.linalg.norm(warr[:, None, :] - pts[None, :, :], axis=2).max(axis=1)
        expected = float(cover.min()) <= scale / 2
        spec = ComplexSpec("cech-intrinsic", scale, shape=shape)
        try:
            got = is_cech_simplex_intrinsic(Simplex(tuple(map(tuple, pts))), spec, wit)
        except AmbiguousPredicate:
            continue
        # library may also use the projected ambient center, so it can only
        # accept more than the pure witness scan, never less
        if expected:
            assert got


def test_cech_intrinsic_subset_of_ambient():
    shape = Circle(1.0)
    wit = sample(shape, 512, seed=41)
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(60):
        k = int(rng.integers(1, 4))
        ang = rng.random(k) * 2 * np.pi
        pts = np.c_[np.cos(ang), np.sin(ang)]
        if len(np.unique(pts, axis=0)) < k:
            continue
        scale = float(rng.random() * 3 + 0.1)
        s = Simplex(tuple(map(tuple, pts)))
        try:
            intr = is_cech_simplex_intrinsic(
                s, ComplexSpec("cech-intrinsic", scale, shape=shape), wit
            )
            amb = is_cech_simplex_ambient(s, ComplexSpec("cech-ambient", scale))
        except AmbiguousPredicate:
            continue
        if intr:
            # an on-shape witness within scale/2 of every vertex is in
            # particular an ambient center, so intrinsic membership is rarer
            assert amb
            checked += 1
    assert checked >= 10


def test_skeleton_unit_square_vr():
    # unit square, scale 1: edges of the square but not the diagonals
    pts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    sk = enumerate_skeleton(pts, ComplexSpec("vr", 1.0), max_dim=2)
    tuples = {tuple(sorted(map(tuple, s.vertices))) for s in sk}
    assert len([t for t in tuples if len(t) == 1]) == 4
    assert len([t for t in tuples if len(t) == 2]) == 4  # no diagonals
    assert len([t for t in tuples if len(t) == 3]) == 0
    # scale sqrt(2)+eps: diagonals and all four triangles and the tetra appear
    sk2 = enumerate_skeleton(pts, ComplexSpec("vr", np.sqrt(2) + 1e-6), max_dim=3)
    sizes = sorted(len(s.vertices) for s in sk2)
    assert sizes.count(2) == 6
    assert sizes.count(3) == 4
    assert sizes.count(4) == 1


def test_skeleton_collinear_triple():
    # 0, 1, 2 on a line: at scale 1 the VR skeleton has the two short edges
    # but not {0,2} and hence no triangle
    pts = [[0.0], [1.0], [2.0]]
    sk = enumerate_skeleton(pts, ComplexSpec("vr", 1.0), max_dim=2)
    tuples = {tuple(sorted(v[0] for v in s.vertices)) for s in sk}
    assert tuples == {(0.0,), (1.0,), (2.0,), (0.0, 1.0), (1.0, 2.0)}
    # ambient flavor at scale 2: enclosing radius of {0,1,2} is 1 = scale/2,
    # so the full triangle enters
    sk2 = enumerate_skeleton(pts, ComplexSpec("cech-ambient", 2.0), max_dim=2)
    tuples2 = {tuple(sorted(v[0] for v in s.vertices)) for s in sk2}
    assert (0.0, 1.0, 2.0) in tuples2
    # scale below the smallest gap: vertices only
    sk3 = enumerate_skeleton(pts, ComplexSpec("vr", 0.5), max_dim=2)
    assert {len(s.vertices) for s in sk3} == {1}


def test_skeleton_cech_is_subset_of_vr_and_downward_closed():
    rng = np.random.default_rng(19)
    for _ in range(20):
        pts = rng.normal(size=(int(rng.integers(4, 8)), 2))
        scale = float(rng.random() * 2 + 0.2)
        vr = enumerate_skeleton(pts, ComplexSpec("vr", scale), max_dim=3)
        cech = enumerate_skeleton(pts, ComplexSpec("cech-ambient", scale), max_dim=3)
        vr_set = {tuple(sorted(map(tuple, s.vertices))) for s in vr}
        cech_set = {tuple(sorted(map(tuple, s.vertices))) for s in cech}
        assert cech_set <= vr_set  # radius <= scale/2 forces diameter <= scale
        for simplex_set in (vr_set, cech_set):
            for t in simplex_set:
                for face_size in range(1, len(t)):
                    for face in combinations(t, face_size):
                        assert tuple(sorted(face)) in simplex_set


def test_format_skeleton_shape():
    pts = [[0.0, 0.0], [1.0, 0.0]]
    text = format_skeleton(pts, ComplexSpec("vr", 1.0), max_dim=1)
    lines = text.splitlines()
    assert lines[0] == "dim 2 scale 1 flavor vr strict 0"
    assert lines[1:] == ["0", "1", "0 1"]


def test_skeleton_rejects_coincident_points():
    # a duplicated point would be listed as an edge of itself
    pts = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    for flavor in ("vr", "cech-ambient"):
        with pytest.raises(InvalidInput, match="points 0 and 1 coincide"):
            enumerate_skeleton(pts, ComplexSpec(flavor, 1.5), 2)
        with pytest.raises(InvalidInput, match="points 0 and 1 coincide"):
            format_skeleton(pts, ComplexSpec(flavor, 1.5), 2)
    with pytest.raises(InvalidInput, match="points 1 and 2 coincide"):
        format_skeleton([[0.0], [1.0], [1.0 + 1e-13]], ComplexSpec("vr", 0.5), 1)


def test_skeleton_text_is_pinned():
    # 40 circle points at scale 0.6 up to dimension 3, each flavor; the
    # expected text is frozen output, and no predicate shortcut may change it
    ang = np.random.default_rng(2017).random(40) * 2 * np.pi
    pts = np.c_[np.cos(ang), np.sin(ang)].tolist()
    wang = np.random.default_rng(1709).random(1024) * 2 * np.pi
    witnesses = [tuple(w) for w in np.c_[np.cos(wang), np.sin(wang)]]
    text = "".join(
        format_skeleton(pts, ComplexSpec(flavor, 0.6, shape=Circle(1.0)), 3,
                        witnesses=witnesses if flavor == "cech-intrinsic" else ())
        for flavor in ("vr", "cech-ambient", "cech-intrinsic"))
    assert text == (Path(__file__).parent / "data" / "skeleton_circle40.txt").read_text()
