"""The torus patch sampler's angle window against whole-shape sampling, and
the shapes' row forms against their one-row calls.

Given a center, the torus's sample_stacked proposes its candidates only in a
(theta, phi) window around the center. Its law is that of sample-then-filter
when every torus point within the radius lies in the window: checked for
every point that sample-then-filter keeps, for centers on both sides of the
theta and phi wrap, on the axis and on the spine, and radii from tiny to
past the window's saturation. The patch rows must lie within the radius.
"""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from thicken import (Circle, Ellipse, FinitePointSet, MedialAxisProximity, Sphere,  # noqa: E402
                     Torus, ZeroSphere, ambient_dim, distance_to_shape, project, project_rows,
                     reach, sample_rng)
from thicken.euclid import row_norms  # noqa: E402
from thicken.shapes import sample_stacked  # noqa: E402

TORI = (Torus(3.0, 1.0), Torus(1.2, 1.0), Torus(5.0, 0.5))
TWO_PI = 2.0 * math.pi
# angles at and next to the wrap, besides any angle
angles = st.one_of(st.sampled_from((0.0, 1e-300, -1e-300, 1e-12, -1e-12, math.pi, -math.pi,
                                    TWO_PI - 1e-15, math.pi / 2)),
                   st.floats(-math.pi, math.pi))
# distance from the spine circle: on it, on the torus, inside, outside, far
offsets = st.one_of(st.sampled_from((0.0, 1e-12, 1.0, 0.5, 2.0)), st.floats(0.0, 8.0))
# the radius as a multiple of a window's saturation radius (see _radius), or absolute
radius_kinds = st.one_of(
    st.tuples(st.sampled_from(("theta", "phi")),
              st.sampled_from((1.0 - 1e-12, 1.0, 1.0 + 1e-12, 0.999, 2.0))),
    st.tuples(st.just("abs"), st.one_of(st.sampled_from((1e-300, 1e-12, 1e-6)),
                                         st.floats(0.0, 12.0))))
counts = st.one_of(st.sampled_from((1, 4096)), st.integers(1, 600))


def _center(torus, th, ph, off_share):
    # off_share scales the offset by the tube radius: 1.0 lies on the torus
    off = off_share * torus.minor
    ring = torus.major + off * math.cos(ph)
    return np.array([ring * math.cos(th), ring * math.sin(th), off * math.sin(ph)])


def _radius(torus, center, kind, value):
    # 2 sqrt(q q') is where a window's asin bound reaches the full turn
    axial = math.hypot(center[0], center[1])
    if kind == "theta":
        return value * 2.0 * math.sqrt((torus.major - torus.minor) * axial)
    if kind == "phi":
        return value * 2.0 * math.sqrt(torus.minor * math.hypot(axial - torus.major, center[2]))
    return value


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(TORI))), angles, angles, offsets, radius_kinds, counts,
       st.integers(0, 2**32 - 1))
@example(0, 0.0, 0.0, 1.0, ("abs", 0.45), 4096, 1)          # on the torus at both wraps
@example(0, -1e-300, 1e-300, 1.0, ("abs", 0.9), 1, 2)
@example(0, 0.3, math.pi, 3.0, ("abs", 4.0), 128, 3)       # on the axis: no theta window
@example(1, 0.3, 1.0, 0.0, ("phi", 1.0), 300, 4)           # on the spine: no phi window
@example(2, 2.0, -math.pi, 1.0, ("theta", 1.0), 4096, 5)
@example(2, 2.0, 0.0, 1.0, ("abs", 1e-300), 4096, 6)
def test_torus_sample_patch_is_sample_then_filter(which, th, ph, off, radius_kind, count, seed):
    torus = TORI[which]
    center = _center(torus, th, ph, off)
    radius = _radius(torus, center, *radius_kind)
    cand = sample_rng(torus, 50 * count, np.random.default_rng(seed))
    near = cand[row_norms(cand - center) <= radius]
    th_lo, th_span, ph_lo, ph_span = torus._window(center[None], radius)[0]
    theta = np.arctan2(near[:, 1], near[:, 0])
    phi = np.arctan2(near[:, 2], np.hypot(near[:, 0], near[:, 1]) - torus.major)
    assert ((theta - th_lo) % TWO_PI <= th_span).all()
    assert ((phi - ph_lo) % TWO_PI <= ph_span).all()
    rows, got = sample_stacked(torus, [np.random.default_rng(seed)], count, center[None], radius)
    assert rows.shape == (got[0], 3) and got[0] <= count
    assert (row_norms(rows - center) <= radius).all()
    if near.shape[0] >= 5 * count + 20:   # a patch of a fair share of the torus fills
        assert got[0] == count


# the six shapes, each with rows where the nearest point ties or nearly
# ties: the circle's and sphere's center, the torus axis and spine, the
# ellipse's major axis inside and beyond the cusp |x| = 1.5 and its minor
# axis, and the finite set's midpoints
ROW_SHAPES = (
    (Circle(1.0), [[0.0, 0.0], [1e-7, 0.0], [0.0, -1e-300], [2.0, 0.0]]),
    (Sphere(3, 1.0), [[0.0, 0.0, 0.0], [0.0, 1e-6, 0.0], [-1e-300, 0.0, 0.0]]),
    (Torus(3.0, 1.0), [[0.0, 0.0, 0.5], [1e-9, 0.0, -2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0],
                       [0.0, -3.0, 1e-8], [3.0 + 1e-7, 0.0, 0.0]]),
    (Ellipse(2.0, 1.0), [[0.0, 0.0], [1.0, 0.0], [-1.49, 0.0], [1.49, 1e-9], [1.0, -1e-7],
                         [1.5, 0.0], [1.6, 0.0], [-2.5, 0.0], [1.6, 1e-10], [0.0, 0.5],
                         [0.0, -3.0], [0.0, 1e-300]]),
    (ZeroSphere(), [[0.0], [1e-7], [-1.0], [3e6], [1e200]]),
    (FinitePointSet(((0.0, 0.0), (1.0, 0.0), (0.3, 0.8), (1.4, 0.9), (-0.5, 0.6),
                     (0.7, -0.7))), None),
)


@st.composite
def stacked_rows(draw):
    """A shape and up to 12 rows: its hard rows, and points off the shape at
    scales from 1e-9 to 3 of the reach."""
    shape, hard = draw(st.sampled_from(ROW_SHAPES))
    fin = shape.finite_points()
    if hard is None:
        hard = [0.5 * (p + q) for p in fin for q in fin]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            rows.append(np.asarray(draw(st.sampled_from(hard)), dtype=float))
        else:
            u = rng.normal(size=ambient_dim(shape))
            scale = 10.0 ** draw(st.floats(-9.0, 0.5)) * reach(shape)
            rows.append(sample_rng(shape, 1, rng)[0] + scale * u / np.linalg.norm(u))
    return shape, np.array(rows)


@settings(max_examples=400, deadline=None)
@given(stacked_rows())
def test_row_forms_match_the_scalar_forms_bit_for_bit(case):
    # each row's answer in a stack is the one-row call's, and tied is set
    # exactly where that call raises MedialAxisProximity
    shape, X = case
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        feet, tied = project_rows(shape, X)
        dist = shape.distance_rows(X)
    assert feet.shape == X.shape and tied.shape == dist.shape == (len(X),)
    for x, foot, t, d in zip(X, feet, tied.tolist(), dist):
        assert d.tobytes() == np.float64(distance_to_shape(shape, x)).tobytes()
        try:
            p = project(shape, x)
        except MedialAxisProximity:
            assert t
        else:
            assert not t
            assert foot.tobytes() == p.tobytes()
