"""The stacked samplers against one-generator sampling.

Shape.sample_stacked draws for many generators at once: each generator
makes its own draws in its own order, and only the elementwise work
between draws is stacked. Over N generators it must give the rows of N
separate calls, in order, and leave every generator in the state those
calls leave it. The oracle below is the scalar form of each sampler, one
generator at a time, kept here independent of the library's code.

Stacking relies on numpy's elementwise functions giving each element the
same result whatever array it sits in; the first test names that
assumption about the host's numpy.
"""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from thicken import (Circle, Ellipse, FinitePointSet, Sphere, Torus, ZeroSphere,  # noqa: E402
                     sample_rng)
from thicken.shapes import sample_stacked  # noqa: E402

TWO_PI = 2.0 * math.pi
ROUNDS = 64     # rounds before a patch generator still short gives up


def test_host_elementwise_functions_do_not_depend_on_the_array():
    # lockstep sampling computes these on stacked arrays of candidates or
    # windows, on rows gathered out of them, or on forward-strided columns,
    # where one generator alone would compute them on its own rows: the
    # results must agree bit for bit. The samplers never pass them a
    # reversed view, where numpy may leave its vector loops: only cos, sin
    # and sqrt are held to that too
    rng = np.random.default_rng(2024)
    reversible = (np.cos, np.sin, np.sqrt)
    unary = reversible + (np.arcsin, np.arccos) + tuple(
        (lambda x, e=e: x ** e) for e in (0, 1, 2, 3, 4, 7, 62))
    binary = (np.arctan2, np.hypot)
    for m in (1, 3, 64, 257, 4096):
        stacked = 2.0 * rng.random((9, m)) - 1.0
        other = TWO_PI * rng.random((9, m)) - math.pi
        for fn in unary + binary:
            args = (np.abs(stacked),) if fn is np.sqrt else (
                (stacked,) if fn in unary else (stacked, other))
            whole = fn(*args)
            for i, out in enumerate(whole):
                row = [a[i] for a in args]
                assert fn(*row).tobytes() == out.tobytes()
                pick = np.flatnonzero(rng.random(m) < 0.3)
                assert fn(*[r[pick] for r in row]).tobytes() == out[pick].tobytes()
                if fn in reversible:
                    assert fn(*[r[::-1] for r in row]).tobytes() == out[::-1].tobytes()
            for j in range(min(m, 5)):
                assert fn(*[a[:, j] for a in args]).tobytes() == whole[:, j].tobytes()


def _norms(d):
    return np.sqrt((d * d).sum(axis=1))


def _angle_window(dist, scale):
    with np.errstate(divide="ignore"):
        x = dist / (2.0 * np.sqrt(scale))
    return np.minimum(2.0 * np.arcsin(np.minimum(x, 1.0)) + 1e-9, math.pi)


def _window(shape, c, radius):
    """One generator's window about the center c, as the sampler proposes in."""
    c = c[None, :]
    if isinstance(shape, Torus):
        R, rho = shape.major, shape.minor
        axial = np.hypot(c[:, 0], c[:, 1])
        dist = radius + 1e-9 * (R + rho + axial + np.abs(c[:, 2]))
        th = _angle_window(dist, (R - rho) * axial)
        ph = _angle_window(dist, rho * np.hypot(axial - R, c[:, 2]))
        return (np.arctan2(c[:, 1], c[:, 0]) - th, 2.0 * th,
                np.arctan2(c[:, 2], axial - R) - ph, 2.0 * ph)
    if isinstance(shape, Ellipse):
        a, b = shape.a, shape.b
        t = np.arctan2(a * c[:, 1], b * c[:, 0])
        foot = np.stack([a * np.cos(t), b * np.sin(t)], axis=1)
        half = _angle_window(radius + _norms(c - foot) + 1e-9 * (a + _norms(c)), b * b)
        return t - half, 2.0 * half
    n, R = shape.ambient_dim, shape.radius
    norm = _norms(c)
    pole = c / norm if norm[0] > 0 else np.eye(n)[:1]
    psi0 = _angle_window(radius + 1e-9 * (R + norm), R * norm)
    top = np.sin(psi0) ** (n - 2) if psi0[0] < 0.5 * math.pi else np.ones(1)
    return pole, psi0, top


def _candidates(shape, rng, m, window):
    """m candidates on rng in the window: their thinning mask and points."""
    if isinstance(shape, Torus):
        R, rho = shape.major, shape.minor
        u = rng.random((m, 3))
        th = window[0] + window[1] * u[:, 0]
        ph = window[2] + window[3] * u[:, 1]
        ring = R + rho * np.cos(ph)
        pts = np.stack([ring * np.cos(th), ring * np.sin(th), rho * np.sin(ph)], axis=1)
        return (R + rho) * u[:, 2] < ring, pts
    if isinstance(shape, Ellipse):
        a, b = shape.a, shape.b
        u = rng.random((m, 2))
        t = window[0] + window[1] * u[:, 0]
        speed = np.sqrt((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)
        return a * u[:, 1] < speed, np.stack([a * np.cos(t), b * np.sin(t)], axis=1)
    n = shape.ambient_dim
    pole, psi0, top = window
    u = rng.random((m, 2))
    g = rng.standard_normal((m, n))
    psi = psi0 * u[:, 0]
    perp = g - (g * pole).sum(axis=1)[:, None] * pole
    perp *= (np.sin(psi) / _norms(perp))[:, None]
    pts = shape.radius * (np.cos(psi)[:, None] * pole + perp)
    return top * u[:, 1] < np.sin(psi) ** (n - 2), pts


WHOLE = {Torus: (-math.pi, TWO_PI, -math.pi, TWO_PI), Ellipse: (-math.pi, TWO_PI)}


def oracle_sample(shape, count, rng, center=None, radius=None):
    """One generator's rows: count uniform points on the shape, or on its
    patch within radius of center, fewer if a patch's rounds run out."""
    fin = shape.finite_points()
    if fin is not None:
        if center is not None:
            fin = fin[_norms(fin - center) <= radius]
        return fin[rng.integers(0, len(fin), size=count)] if len(fin) else fin
    if center is None and isinstance(shape, (Circle, Sphere)):
        g = rng.standard_normal((count, shape.ambient_dim))
        return g * (shape.radius / _norms(g))[:, None]
    window = WHOLE[type(shape)] if center is None else _window(shape, center, radius)
    parts = []
    rounds = 0
    while count and (center is None or rounds < ROUNDS):
        rounds += 1
        accept, pts = _candidates(shape, rng, 2 * count + 4, window)
        if center is not None:
            accept &= _norms(pts - center) <= radius
        parts.append(pts[accept][:count])
        count -= len(parts[-1])
    return np.concatenate(parts)


SHAPES = (Circle(1.0), Circle(2.5), Ellipse(2.0, 1.0), Ellipse(3.0, 0.4), Sphere(3, 1.0),
          Sphere(5, 2.0), Torus(3.0, 1.0), Torus(1.2, 1.0), Torus(5.0, 0.5), ZeroSphere(),
          FinitePointSet(((0.0, 0.0), (1.0, 0.0), (0.3, 0.8), (1.4, 0.9))))
counts = st.one_of(st.sampled_from((1, 2, 5, 128)), st.integers(1, 40))
# one count for every generator, or one each
count_specs = st.one_of(counts, st.lists(counts, min_size=7, max_size=7))
# angles at and next to the wrap, besides any angle
angles = st.one_of(st.sampled_from((0.0, 1e-300, -1e-300, 1e-12, -1e-12, math.pi, -math.pi,
                                    TWO_PI - 1e-15)),
                   st.floats(-math.pi, math.pi))
# distance of a torus center from the spine circle, as a share of the tube
# radius: on the spine, on the torus, inside, outside, far
offsets = st.one_of(st.sampled_from((0.0, 1e-12, 1.0, 0.5, 2.0)), st.floats(0.0, 8.0))
# a radius as a multiple of a torus window's saturation radius, or absolute
radius_kinds = st.one_of(
    st.tuples(st.sampled_from(("theta", "phi")),
              st.sampled_from((1.0 - 1e-12, 1.0, 1.0 + 1e-12, 0.999, 2.0))),
    st.tuples(st.just("abs"), st.one_of(st.sampled_from((1e-300, 1e-12, 1e-6)),
                                         st.floats(0.0, 12.0))))


def _per_generator(spec, n):
    return [spec] * n if isinstance(spec, int) else spec[:n]


def _center(shape, th, ph, off):
    """A center by two angles and an offset: around the torus spine, or
    off the circle, ellipse or sphere along a radial line, or off a finite
    shape's first point."""
    if shape.finite_points() is not None:
        c = shape.finite_points()[0].copy()
        c[0] += off * math.cos(th)
        return c
    if isinstance(shape, Torus):
        d = off * shape.minor
        ring = shape.major + d * math.cos(ph)
        return np.array([ring * math.cos(th), ring * math.sin(th), d * math.sin(ph)])
    scale = shape.a if isinstance(shape, Ellipse) else shape.radius
    u = np.zeros(shape.ambient_dim)
    u[0], u[1] = math.cos(th), math.sin(th)
    if u.size > 2:
        u[:2] *= math.cos(ph)
        u[2] = math.sin(ph)
    return off * scale * u


def _radius(shape, center, kind, value):
    if kind == "abs" or not isinstance(shape, Torus):
        return value
    # 2 sqrt(q q') is where a window's asin bound reaches the full turn
    axial = math.hypot(center[0], center[1])
    if kind == "theta":
        return value * 2.0 * math.sqrt((shape.major - shape.minor) * axial)
    return value * 2.0 * math.sqrt(shape.minor * math.hypot(axial - shape.major, center[2]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(SHAPES))), st.lists(st.integers(0, 2**32 - 1), min_size=1,
                                                      max_size=7), count_specs)
@example(6, [1, 2, 3], 4096)
@example(2, [5] * 4, 1)
@example(7, [1, 2, 3, 4, 5, 6], [50, 1, 2, 300, 7, 1, 1])    # second rounds
@example(3, [7, 8, 9], 60)
@example(9, [7, 8], [1, 5, 1, 1, 1, 1, 1])
def test_stacked_sample_is_one_call_per_generator(which, seeds, count):
    shape = SHAPES[which]
    gens = [np.random.default_rng(s) for s in seeds]
    refs = [np.random.default_rng(s) for s in seeds]
    each = _per_generator(count, len(seeds))
    rows, got = sample_stacked(shape, gens, count if isinstance(count, int) else each)
    want = [oracle_sample(shape, n, ref) for n, ref in zip(each, refs)]
    assert got.tolist() == each
    assert rows.tobytes() == np.concatenate(want).tobytes()
    for gen, ref in zip(gens, refs):
        assert gen.bit_generator.state == ref.bit_generator.state
    one = np.random.default_rng(seeds[0])
    assert sample_rng(shape, each[0], one).tobytes() == want[0].tobytes()
    assert one.bit_generator.state == refs[0].bit_generator.state


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(SHAPES))),
       st.lists(st.tuples(st.integers(0, 2**32 - 1), angles, angles, offsets), min_size=1,
                max_size=6),
       radius_kinds, count_specs)
@example(6, [(1, 0.0, 0.0, 1.0), (2, -1e-300, 1e-300, 1.0)], ("abs", 0.45), 128)
@example(6, [(3, 0.3, math.pi, 3.0)], ("abs", 4.0), 128)        # on the axis
@example(7, [(4, 0.3, 1.0, 0.0), (5, 2.0, -math.pi, 1.0)], ("phi", 1.0), 300)
@example(8, [(6, 2.0, -math.pi, 1.0)] * 3, ("theta", 1.0), [1, 2, 3, 1, 1, 1, 1])
@example(8, [(7, 2.0, 0.0, 1.0)], ("abs", 1e-300), 1)
@example(2, [(8, 0.0, 0.0, 1.0), (9, math.pi, 0.0, 0.3)], ("abs", 0.5), 128)
@example(7, [(10, 0.5, 0.5, 1.0), (11, 2.5, 3.0, 1.0), (12, 0.0, 0.0, 0.0)], ("abs", 1.0), 50)
@example(4, [(13, 0.5, 0.5, 0.0), (14, 0.5, 0.5, 1.0)], ("abs", 1.0), 5)   # center at 0
@example(5, [(15, 0.5, 0.5, 1.0), (16, 0.5, 0.5, 9.0)], ("abs", 0.5), [3, 4, 1, 1, 1, 1, 1])
def test_stacked_patches_are_one_patch_per_generator(which, gens_spec, radius_kind, count):
    shape = SHAPES[which]
    centers = np.array([_center(shape, th, ph, off) for _, th, ph, off in gens_spec])
    radius = _radius(shape, centers[0], *radius_kind)
    seeds = [s for s, *_ in gens_spec]
    gens = [np.random.default_rng(s) for s in seeds]
    refs = [np.random.default_rng(s) for s in seeds]
    each = _per_generator(count, len(seeds))
    rows, got = sample_stacked(shape, gens, count if isinstance(count, int) else each,
                               centers, radius)
    want = [oracle_sample(shape, n, ref, center, radius)
            for n, ref, center in zip(each, refs, centers)]
    assert got.tolist() == [w.shape[0] for w in want]
    assert all(w.shape[0] <= n for w, n in zip(want, each))
    assert rows.tobytes() == np.concatenate(want).tobytes()
    for gen, ref in zip(gens, refs):
        assert gen.bit_generator.state == ref.bit_generator.state
    one = np.random.default_rng(seeds[0])
    alone = sample_stacked(shape, [one], each[0], centers[:1], radius)[0]
    assert alone.tobytes() == want[0].tobytes()
    assert one.bit_generator.state == refs[0].bit_generator.state


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.label)
def test_patch_sampler_gives_up_on_an_empty_patch(shape):
    # a center farther than the radius from the shape: the sampler ends
    # after its rounds with no rows, and a center beside it still fills
    far = 10.0 * np.max(np.abs(shape.bounding_box())) * np.ones(shape.ambient_dim)
    near = sample_rng(shape, 1, np.random.default_rng(0))[0]
    gens = [np.random.default_rng(i) for i in range(3)]
    rows, got = sample_stacked(shape, gens, [2, 40, 3], np.array([far, near, far]), 0.5)
    assert got.tolist() == [0, 40, 0]
    assert rows.shape == (40, shape.ambient_dim)
    assert (np.sqrt(((rows - near) ** 2).sum(axis=1)) <= 0.5).all()
