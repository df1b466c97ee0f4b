"""Positive-reach shapes: reach values, projection vs dense oracle, sampling,
medial-axis detection, brute-force reach estimation."""
import math

import numpy as np
import pytest

from thicken import (
    Circle,
    Ellipse,
    FinitePointSet,
    InvalidInput,
    MedialAxisProximity,
    Sphere,
    SizeLimit,
    Torus,
    UnsupportedShape,
    ZeroSphere,
    ambient_dim,
    distance_to_shape,
    estimate_reach,
    project,
    reach,
    sample,
    sample_rng,
    shape_label,
)
from thicken.euclid import row_norms
from thicken.shapes import sample_stacked

ALL_SHAPES = (
    Circle(1.0),
    Circle(2.5),
    Ellipse(2.0, 1.0),
    Sphere(3, 1.0),
    Sphere(4, 0.7),
    Torus(3.0, 1.0),
    ZeroSphere(),
    FinitePointSet(((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))),
)


def test_constructor_guards():
    with pytest.raises(UnsupportedShape):
        Circle(0.0)
    with pytest.raises(UnsupportedShape):
        Ellipse(1.0, 2.0)  # needs a >= b
    with pytest.raises(UnsupportedShape):
        Sphere(1, 1.0)  # ambient dim >= 2
    with pytest.raises(UnsupportedShape):
        Torus(1.0, 2.0)  # needs major > minor
    with pytest.raises(UnsupportedShape):
        FinitePointSet(((0.0,),))  # needs 2 points
    with pytest.raises(UnsupportedShape):
        FinitePointSet(((0.0,), (0.0,)))  # duplicates
    # non-finite or non-real parameters, or ones whose reach or bounding
    # box overflows: the thinned samplers would never accept a draw
    inf = float("inf")
    for make in (lambda: Circle(inf), lambda: Circle("1"), lambda: Circle(10**400),
                 lambda: Sphere(3, inf), lambda: Sphere(3.0, 1.0), lambda: Ellipse(inf, 1.0),
                 lambda: Ellipse(1e200, 1e200), lambda: Ellipse(1.0, 1e-200),
                 lambda: Torus(inf, 1.0), lambda: Torus(3.0, 1j), lambda: Torus(1.5e308, 1e308),
                 lambda: FinitePointSet(((1e308,), (-1e308,)))):
        with pytest.raises(UnsupportedShape):
            make()
    assert reach(Sphere(np.int64(3), 2.0)) == 2.0
    # one sphere point costs dim normals: the dimension is capped
    for dim in (65, 1000000000):
        with pytest.raises(SizeLimit):
            Sphere(dim, 1.0)
    assert ambient_dim(Sphere(64, 1.0)) == 64


@pytest.mark.parametrize("call", (
    lambda s: ambient_dim(s),
    lambda s: reach(s),
    lambda s: shape_label(s),
    lambda s: distance_to_shape(s, [0.0, 0.0]),
    lambda s: project(s, [1.0, 0.0]),
    lambda s: sample_rng(s, 3, np.random.default_rng(0)),
    lambda s: sample_stacked(s, [np.random.default_rng(0)], 3, np.zeros((1, 2)), 1.0),
    lambda s: estimate_reach(s, 10),
), ids=("ambient_dim", "reach", "shape_label", "distance_to_shape", "project",
        "sample_rng", "sample_stacked", "estimate_reach"))
def test_shape_functions_reject_non_shapes(call):
    with pytest.raises(UnsupportedShape):
        call(object())


def test_reach_closed_forms():
    assert reach(Circle(1.0)) == 1.0
    assert reach(Circle(2.0)) == 2.0
    assert reach(Sphere(5, 0.5)) == 0.5
    assert reach(Ellipse(2.0, 1.0)) == pytest.approx(0.5)  # b^2/a
    assert reach(Torus(3.0, 1.0)) == 1.0  # min(minor, major - minor)
    assert reach(Torus(3.0, 2.0)) == 1.0
    assert reach(ZeroSphere()) == 1.0
    assert reach(FinitePointSet(((0.0,), (3.0,)))) == 1.5  # half min gap


def test_ambient_dims_and_labels():
    assert ambient_dim(Circle(1.0)) == 2
    assert ambient_dim(Sphere(4, 1.0)) == 4
    assert ambient_dim(Torus(3.0, 1.0)) == 3
    assert ambient_dim(ZeroSphere()) == 1
    assert shape_label(Circle(1.0)) == "circle(R=1)"
    assert shape_label(Ellipse(2.0, 1.0)) == "ellipse(a=2,b=1)"
    assert shape_label(Sphere(3, 1.0)) == "sphere(dim=3,R=1)"
    assert shape_label(Torus(3.0, 1.0)) == "torus(R=3,rho=1)"
    assert shape_label(ZeroSphere()) == "zerosphere"
    assert shape_label(FinitePointSet(((0.0,), (1.0,)))) == "finite(n=2)"


def test_distance_to_shape_known_values():
    assert distance_to_shape(Circle(1.0), [2.0, 0.0]) == 1.0
    # radially inward in the z=0 plane lands on the tube's inner equator
    assert distance_to_shape(Torus(3.0, 1.0), [3.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    # ZeroSphere is the finite set {-1, +1}
    for shape in (ZeroSphere(), FinitePointSet(((-1.0,), (1.0,)))):
        assert distance_to_shape(shape, [0.25]) == 0.75
        assert distance_to_shape(shape, [-3e6]) == 3e6 - 1.0


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=shape_label)
def test_samples_lie_on_shape(shape):
    pts = sample(shape, 200, seed=3)
    assert pts.shape == (200, ambient_dim(shape))
    for p in pts:
        assert distance_to_shape(shape, p) < 1e-12


def test_sample_exactness_special_cases():
    zs = sample(ZeroSphere(), 16, seed=4)
    assert set(map(float, zs.ravel())) <= {-1.0, 1.0}
    sp = sample(Sphere(3, 1.0), 1000, seed=4)
    assert np.max(np.abs(np.linalg.norm(sp, axis=1) - 1.0)) < 1e-12


def test_sample_count_must_be_positive():
    for count in (0, -1, 1.5, 2.5, 3.0, "3"):
        with pytest.raises(InvalidInput, match="count must be >= 1"):
            sample(Circle(1.0), count, seed=1)
        with pytest.raises(InvalidInput, match="count must be >= 1"):
            sample_rng(Circle(1.0), count, np.random.default_rng(1))
        with pytest.raises(InvalidInput, match="count must be >= 1"):
            sample_stacked(Torus(3.0, 1.0), [np.random.default_rng(1)], count,
                           np.zeros((1, 3)), 1.0)
    for count in ([1, 0], [1.0, 2.0], [1, 2, 3], [[1, 2]]):
        with pytest.raises(InvalidInput, match="count must be >= 1"):
            sample_stacked(Torus(3.0, 1.0), [np.random.default_rng(1)] * 2, count)
    # the seed rule of sample is the checkers' (tests/test_retraction.py)
    for seed in (-1, 1.5, None, "1", 2**64):
        with pytest.raises(InvalidInput, match="seed must be >= 0"):
            sample(Circle(1.0), 3, seed)
    assert sample(Circle(1.0), np.int64(2), np.int64(3)).shape == (2, 2)


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=shape_label)
def test_sample_patch_is_sample_then_filter(shape):
    # the patch sampler draws the law of sampling the whole shape and keeping
    # the points within the radius: a seeded two-sample Kolmogorov-Smirnov
    # test of the distance to the center and of a coordinate, at patch radii
    # from a third of the reach to past the shape; a finite kind picks
    # uniform rows of the rows within the radius, checked exactly
    # (tests/test_shape_properties.py covers the torus window's edges)
    from scipy.stats import ks_2samp

    fin = shape.finite_points()
    for seed, share in enumerate((0.3, 0.9, 3.0)):
        center = sample_rng(shape, 1, np.random.default_rng(seed))[0]
        radius = share * reach(shape)
        rng, ref = np.random.default_rng((seed, 1)), np.random.default_rng((seed, 1))
        got = sample_stacked(shape, [rng], 2000, center[None], radius)[0]
        if fin is not None:
            pool = fin[row_norms(fin - center) <= radius]
            assert got.tobytes() == pool[ref.integers(0, len(pool), size=2000)].tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state
            continue
        assert got.shape == (2000, ambient_dim(shape))
        want = np.empty((0, ambient_dim(shape)))
        while want.shape[0] < 2000:
            cand = sample_rng(shape, 200_000, ref)
            want = np.concatenate((want, cand[row_norms(cand - center) <= radius]))
        axis = np.random.default_rng(seed).normal(size=ambient_dim(shape))
        for stat in (lambda x: row_norms(x - center), lambda x: x @ axis):
            assert ks_2samp(stat(got), stat(want[:2000])).pvalue > 1e-4


def test_sample_is_seed_deterministic():
    a = sample(Torus(3.0, 1.0), 64, seed=11)
    b = sample(Torus(3.0, 1.0), 64, seed=11)
    c = sample(Torus(3.0, 1.0), 64, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=shape_label)
def test_projection_against_dense_argmin(shape):
    # oracle: nearest of 20000 on-shape samples; the exact projection must be
    # at least as close, and agree with distance_to_shape
    rng = np.random.default_rng(5)
    dense = sample_rng(shape, 20000, np.random.default_rng(99))
    tau = reach(shape)
    for _ in range(40):
        s = sample_rng(shape, 1, rng)[0]
        u = rng.normal(size=s.size)
        u /= np.linalg.norm(u)
        x = s + (0.8 * tau * rng.random()) * u
        try:
            p = project(shape, x)
        except MedialAxisProximity:
            continue  # the random offset can legitimately land near the axis
        d_exact = float(np.linalg.norm(x - p))
        assert d_exact == pytest.approx(distance_to_shape(shape, x), abs=1e-9)
        assert distance_to_shape(shape, p) < 1e-9
        d_dense = float(np.min(np.linalg.norm(dense - x, axis=1)))
        assert d_exact <= d_dense + 1e-12


def test_projection_known_values():
    assert np.allclose(project(Circle(1.0), [2.0, 0.0]), [1.0, 0.0])
    assert np.allclose(project(Sphere(3, 2.0), [0.0, 0.0, 5.0]), [0.0, 0.0, 2.0])
    assert np.allclose(project(Ellipse(2.0, 1.0), [3.0, 0.0]), [2.0, 0.0])
    # near the major axis but past the evolute cusp |x0| = (a^2 - b^2)/a = 1.5
    # the nearest point is unique, inside and outside the ellipse alike
    for x in ([1.9533, 9.2e-6], [1.6, 1e-5], [2.5, 1e-8]):
        p = project(Ellipse(2.0, 1.0), x)
        assert np.allclose(p, [2.0, 0.0], atol=1e-4)
        assert float(np.linalg.norm(p - x)) == pytest.approx(
            distance_to_shape(Ellipse(2.0, 1.0), x), abs=1e-12)
    # torus: radially outward in the z=0 plane hits the outer equator
    assert np.allclose(project(Torus(3.0, 1.0), [5.0, 0.0, 0.0]), [4.0, 0.0, 0.0])
    for shape in (ZeroSphere(), FinitePointSet(((-1.0,), (1.0,)))):
        assert project(shape, [0.2]).tolist() == [1.0]
        assert project(shape, [-1e6]).tolist() == [-1.0]
    fp = FinitePointSet(((0.0, 0.0), (3.0, 0.0)))
    assert np.allclose(project(fp, [1.0, 1.0]), [0.0, 0.0])


def test_projection_medial_axis_raises():
    with pytest.raises(MedialAxisProximity):
        project(Circle(1.0), [0.0, 0.0])
    with pytest.raises(MedialAxisProximity):
        project(Sphere(3, 1.0), [0.0, 0.0, 0.0])
    # a finite set ties within EPS_MED * max(d1, reach): {-1, +1} at 0, and
    # from |x| ~ 2e6 on, where its two distances are 2 apart, up to 1e200,
    # where both overflow
    for shape in (ZeroSphere(), FinitePointSet(((-1.0,), (1.0,)))):
        for x in (0.0, 3e6, -3e6, 1e200):
            with pytest.raises(MedialAxisProximity), np.errstate(over="ignore", invalid="ignore"):
                project(shape, [x])
    with pytest.raises(MedialAxisProximity):
        project(Torus(3.0, 1.0), [0.0, 0.0, 5.0])  # points on the z-axis tie
    with pytest.raises(MedialAxisProximity):
        project(FinitePointSet(((0.0,), (2.0,))), [1.0])
    # ellipse: the center lies between the two curvature centers, still medial
    with pytest.raises(MedialAxisProximity):
        project(Ellipse(2.0, 1.0), [0.0, 0.0])
    # points just off the medial segment |x0| < 1.5 still tie numerically
    for x in ([1.49, 1e-7], [1.0, 1e-9]):
        with pytest.raises(MedialAxisProximity):
            project(Ellipse(2.0, 1.0), x)


def test_projection_is_idempotent_on_shape_points():
    rng = np.random.default_rng(17)
    for shape in ALL_SHAPES:
        for s in sample_rng(shape, 25, rng):
            assert np.allclose(project(shape, s), s, atol=1e-12)


@pytest.mark.parametrize("shape", (Circle(1.0), Ellipse(2.0, 1.0), Sphere(3, 1.0)),
                         ids=shape_label)
def test_projection_federer_contraction_quick(shape):
    # inside the tube at radius r, projection is tau/(tau-r)-Lipschitz
    rng = np.random.default_rng(23)
    tau = reach(shape)
    r = 0.5 * tau
    factor = tau / (tau - r)
    for _ in range(200):
        ss = sample_rng(shape, 2, rng)
        us = rng.normal(size=ss.shape)
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        x, y = ss + (r * rng.random(2))[:, None] * us
        px, py = project(shape, x), project(shape, y)
        lhs = float(np.linalg.norm(px - py))
        rhs = factor * float(np.linalg.norm(x - y))
        assert lhs <= rhs + 1e-9


def test_empty_interior_ball_property_circle():
    # tangent ball of radius tau at any shape point contains no shape point
    # in its interior
    shape = Circle(1.0)
    dense = sample(shape, 4000, seed=31)
    rng = np.random.default_rng(37)
    for _ in range(100):
        s = sample_rng(shape, 1, rng)[0]
        n = s / np.linalg.norm(s)
        c = s - n  # inward tangent ball center for the unit circle
        assert np.min(np.linalg.norm(dense - c, axis=1)) >= 1.0 - 1e-9


@pytest.mark.parametrize("shape,density,rel_tol", (
    (Circle(1.0), 200, 0.01),
    (Ellipse(2.0, 1.0), 400, 0.02),
    (FinitePointSet(((0.0,), (3.0,))), 50, 1e-9),
), ids=("circle", "ellipse", "finite-pair"))
def test_estimate_reach_cheap_densities(shape, density, rel_tol):
    # the torus case runs in the acceptance gate (its 3-D grid is slow)
    est = estimate_reach(shape, density)
    assert abs(est - reach(shape)) <= rel_tol * reach(shape)


def test_estimate_reach_density_must_be_an_integer():
    for density in (2.5, "a", 1, None):
        with pytest.raises(InvalidInput, match="grid_density must be an integer >= 2"):
            estimate_reach(Circle(1.0), density)
