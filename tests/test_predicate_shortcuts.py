"""The simplex predicates' bound shortcuts against the exact computation.

Each predicate decides most inputs by exact bounds before its kernel runs.
Here scales sit at the decisive value shifted by a few ambiguity bands on
either side of the shortcut cut-off (twice the band), and far from it, and
every answer, or AmbiguousPredicate, must be the one threshold_compare gives
on the quantity itself: the diameter, the smallest enclosing ball radius, or
the cover over the witnesses plus the projected ball center. The stacked
form of the bounds (bound_verdicts), where it decides, must decide the
same. Each predicate is also monotone in the scale: True at one scale stays
True, or turns ambiguous, at every larger one.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from thicken import (  # noqa: E402
    AmbiguousPredicate,
    Circle,
    ComplexSpec,
    MedialAxisProximity,
    Simplex,
    Sphere,
    ZeroSphere,
    is_cech_simplex_ambient,
    is_cech_simplex_intrinsic,
    is_vr_simplex,
    min_enclosing_ball,
    project,
    sample,
)
from thicken import complexes, euclid  # noqa: E402
from thicken.complexes import bound_verdicts  # noqa: E402
from thicken.euclid import coincident_pair, diameter, threshold_compare  # noqa: E402

SHAPES = {1: ZeroSphere(), 2: Circle(1.0), 3: Sphere(3, 1.0)}
# offsets in ambiguity bands: inside the band, at and around the shortcut
# cut-off of two bands, and far enough out for the coarse bounds to decide
BANDS = (-1e6, -1e3, -4.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0,
         1e3, 1e6)


@st.composite
def point_sets(draw):
    k = draw(st.integers(1, 7))
    d = draw(st.integers(1, 3))
    pts = draw(arrays(np.float64, (k, d), elements=st.floats(
        -3.0, 3.0, allow_nan=False, allow_subnormal=False)))
    assume(coincident_pair(pts) is None)
    return pts


offsets = st.one_of(st.sampled_from(BANDS), st.floats(-4.0, 4.0))


def _threshold(value: float, bands: float) -> float:
    t = value + bands * euclid.EPS_GEO * max(1.0, value)
    assume(t > 0.0)
    return t


def _outcome(decide):
    try:
        return decide()
    except AmbiguousPredicate:
        return "ambiguous"


def _answers(predicate, pts):
    """Outcomes on the point array and on the same Simplex."""
    return (_outcome(lambda: predicate(pts)),
            _outcome(lambda: predicate(Simplex(tuple(map(tuple, pts))))))


def _check(predicate, pts, expected, spec, witness):
    assert _answers(predicate, pts) == (expected, expected)
    # the same bounds on a stack of supports; a second, shifted copy of the
    # support must not change the first one's verdict
    stacks = np.stack((pts, pts + 0.5))
    verdict = bound_verdicts(stacks, spec, np.stack((witness, witness + 0.5)))[0]
    assert verdict == -1 or bool(verdict == 1) == expected


@settings(max_examples=400, deadline=None)
@given(point_sets(), offsets, st.booleans())
def test_vr_shortcuts_match_diameter_compare(pts, bands, strict):
    diam = diameter(pts)
    spec = ComplexSpec("vr", _threshold(diam, bands), strict=strict)
    expected = _outcome(lambda: threshold_compare(diam, spec.scale, strict))
    _check(lambda s: is_vr_simplex(s, spec), pts, expected, spec, pts[0])


@settings(max_examples=400, deadline=None)
@given(point_sets(), offsets, st.booleans())
# the middle vertex's farthest distance is the ball radius: the best-vertex
# bound meets the threshold as closely as the radius does
@example(np.array([[0.0], [1.0], [2.0]]), -1.0, False)
@example(np.array([[0.0], [1.0], [2.0]]), -2.0, True)
def test_cech_ambient_shortcuts_match_min_ball_compare(pts, bands, strict):
    radius = min_enclosing_ball(pts).radius
    half = _threshold(radius, bands)
    spec = ComplexSpec("cech-ambient", 2.0 * half, strict=strict)
    expected = _outcome(lambda: threshold_compare(radius, half, strict))
    _check(lambda s: is_cech_simplex_ambient(s, spec), pts, expected, spec, pts[0])


def _full_cover(pts, shape, witnesses) -> float:
    cands = [witnesses]
    try:
        cands.append(project(shape, np.asarray(min_enclosing_ball(pts).center))[None, :])
    except MedialAxisProximity:
        pass
    cand = np.vstack(cands)
    return float(np.linalg.norm(cand[:, None, :] - pts[None, :, :], axis=2).max(axis=1).min())


@settings(max_examples=400, deadline=None)
@given(point_sets(), offsets, st.booleans(), st.integers(1, 64), st.integers(0, 2**16))
def test_cech_intrinsic_shortcut_matches_full_cover_compare(pts, bands, strict, count, seed):
    shape = SHAPES[pts.shape[1]]
    witnesses = sample(shape, count, seed)
    cover = _full_cover(pts, shape, witnesses)
    half = _threshold(cover, bands)
    spec = ComplexSpec("cech-intrinsic", 2.0 * half, strict=strict, shape=shape)
    expected = _outcome(lambda: threshold_compare(cover, half, strict))
    _check(lambda s: is_cech_simplex_intrinsic(s, spec, witnesses), pts, expected, spec,
           witnesses[0])


def _monotone(answer_at, quantity, low, high):
    # True at a scale stays True, or turns ambiguous, at every larger scale
    s, s_up = sorted((_threshold(quantity, low), _threshold(quantity, high)))
    assume(s_up > s)
    for before, after in zip(answer_at(s), answer_at(s_up)):
        if before is True:
            assert after in (True, "ambiguous")


@settings(max_examples=300, deadline=None)
@given(point_sets(), offsets, offsets, st.booleans())
def test_vr_predicate_is_monotone_in_scale(pts, low, high, strict):
    def answers(scale):
        spec = ComplexSpec("vr", scale, strict=strict)
        return _answers(lambda x: is_vr_simplex(x, spec), pts)

    _monotone(answers, diameter(pts), low, high)


@settings(max_examples=300, deadline=None)
@given(point_sets(), offsets, offsets, st.booleans())
def test_cech_ambient_predicate_is_monotone_in_scale(pts, low, high, strict):
    def answers(scale):
        spec = ComplexSpec("cech-ambient", scale, strict=strict)
        return _answers(lambda x: is_cech_simplex_ambient(x, spec), pts)

    _monotone(answers, 2.0 * min_enclosing_ball(pts).radius, low, high)


@settings(max_examples=300, deadline=None)
@given(point_sets(), offsets, offsets, st.booleans(), st.integers(1, 64), st.integers(0, 2**16))
def test_cech_intrinsic_predicate_is_monotone_in_scale(pts, low, high, strict, count, seed):
    shape = SHAPES[pts.shape[1]]
    witnesses = sample(shape, count, seed)

    def answers(scale):
        spec = ComplexSpec("cech-intrinsic", scale, strict=strict, shape=shape)
        return _answers(lambda x: is_cech_simplex_intrinsic(x, spec, witnesses), pts)

    _monotone(answers, 2.0 * _full_cover(pts, shape, witnesses), low, high)


def _arc(n):
    t = np.linspace(-0.3, 0.3, n)
    return np.stack((np.cos(t), np.sin(t)), axis=1)


def _cap(n):
    s, c = np.sin(0.3), np.cos(0.3)
    return np.array(((s, 0.0, c), (-s, 0.0, c), (0.0, np.sin(0.2), np.cos(0.2)), (0.0, 0.0, 1.0),
                     (0.1, -0.1, np.sqrt(0.98)), (-0.15, 0.1, np.sqrt(0.9675)))[:n])


@pytest.mark.parametrize("pts", [f(n) for f in (_arc, _cap) for n in range(3, 7)],
                         ids=[f"{f.__name__[1:]}-{n}" for f in (_arc, _cap) for n in range(3, 7)])
def test_diametral_midpoint_decides_short_arcs_and_small_caps(monkeypatch, pts):
    # the ball lies on the pair at angles -0.3 and 0.3 (radius sin 0.3); the
    # best-vertex and centroid distances both exceed the scale chosen here,
    # so only the midpoint of the diametral pair can decide
    half = np.sin(0.3) * (1.0 + 1e-4)
    spec = ComplexSpec("cech-ambient", 2.0 * half)
    assert np.sqrt(((pts - pts.mean(axis=0)) ** 2).sum(axis=1).max()) > half
    assert min(np.linalg.norm(pts - v, axis=1).max() for v in pts) > half

    def no_ball(points):
        raise AssertionError("min_enclosing_ball called")

    monkeypatch.setattr(complexes, "min_enclosing_ball", no_ball)
    assert is_cech_simplex_ambient(pts, spec) is True
    assert bound_verdicts(pts[None], spec, pts[:1])[0] == 1


@st.composite
def collinear_sets(draw):
    k = draw(st.integers(1, 7))
    d = draw(st.integers(1, 3))
    coord = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    base = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    direction = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    ts = np.array(draw(st.lists(coord, min_size=k, max_size=k, unique=True)))
    pts = base + ts[:, None] * direction
    assume(coincident_pair(pts) is None)
    return pts


ARCS_AND_CAPS = [f(n) for f in (_arc, _cap) for n in range(1, 7)] + [_arc(7)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(point_sets(), collinear_sets(), st.sampled_from(ARCS_AND_CAPS)),
       st.integers(1, 4), st.integers(0, 2**16))
# collinear, where _welzl ends on three support points: its least-squares
# center is off the pair's, and its radius exceeds the bound by an ulp
@example(np.array([[-4.841983812080069, -2.119102087769799, -1.1556881532824894],
                   [-6.872990260754514, -1.9846949536387448, -1.6220312663579304],
                   [-2.8109773634056245, -2.2535092219008526, -0.6893450402070487]]), 1, 0)
# _welzl takes (1e-6, 0) as enclosed by the ball on the pair (0, -2), (0, 0)
# and its sharpened radius is 5e-13 above 1, the centroid's distance 1.25e-13
@example(np.array([[0.0, -1.0], [0.0, -2.0], [0.0, 0.0], [1e-6, 0.0]]), 1, 0)
def test_radius_bounds_cover_the_ball_and_ignore_the_stack(pts, g, seed):
    # _radius_bounds is one bound for the ambient predicate, bound_verdicts
    # and the CechSimplexAmbient lazy margin. It bounds the least radius, and
    # the kernel's radius can exceed that by its acceptance tolerance
    # (_welzl encloses a point within radius * (1 + 1e-12) + 1e-14): far
    # less than the two bands the predicates keep, and the lazy margin takes
    # min(kernel, ub). A support's bound must not depend on the other
    # supports stacked with it (shifted, scaled copies of this one here).
    rng = np.random.default_rng(seed)
    stacks = np.concatenate((pts[None], pts * rng.uniform(0.5, 2.0, (g - 1, 1, 1))
                             + rng.normal(size=(g - 1, 1, pts.shape[1]))))
    bounds = complexes._radius_bounds(stacks, euclid.square_distances(stacks))
    for support, bound in zip(stacks, bounds):
        alone = complexes._radius_bounds(support[None], euclid.square_distances(support[None]))
        assert alone[0].tobytes() == bound.tobytes()
        assert min_enclosing_ball(support).radius <= bound * (1.0 + 1e-12) + 1e-14
    if pts.shape[0] < 3:  # the closed form is the radius itself
        assert bounds[0] == min_enclosing_ball(pts).radius


def test_host_arithmetic_that_radius_bounds_relies_on():
    # A stacked @ of (1, n) by (n, 1) rows gives ndarray.dot's bits, and
    # with einsum's row sums it reproduces _ball_from_support's pair center
    # exactly; this is why _radius_bounds keeps the kernel's operations.
    # Neither einsum nor the plain sum of squares gives dot's bits on every
    # vector, so neither could stand in for the other.
    rng = np.random.default_rng(19)
    differs = 0
    for d in range(1, 11):
        a, b = rng.normal(size=(2, 2000, d)) * 10.0 ** rng.integers(-3, 3, size=(2, 2000, 1))
        V = b - a
        stacked = (V[:, None, :] @ V[:, :, None])[:, 0, 0]
        assert all(s == v.dot(v) for s, v in zip(stacked.tolist(), V))
        einsum = np.einsum("ij,ij->i", V, V)
        centers = a + (0.5 * einsum / stacked)[:, None] * V
        for p, q, c in zip(a[:200], b[:200], centers):
            assert complexes._ball_from_support(np.stack((p, q)), (0, 1))[0].tobytes() == c.tobytes()
        differs += int((einsum != stacked).any() and ((V * V).sum(axis=1) != stacked).any())
    assert differs > 0
