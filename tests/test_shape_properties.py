"""The torus patch sampler's angle window against whole-shape sampling.

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

from thicken import Torus, sample_rng  # noqa: E402
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
