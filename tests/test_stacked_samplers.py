"""The stacked samplers against one-generator sampling.

Shape.sample_stacked draws for many generators at once: each generator
makes its own draws in its own order, and only the elementwise work
between draws is stacked. Over N generators it must give the rows of N
separate calls, in order, and leave every generator in the state those
calls leave it. The oracle below is the scalar form of each sampler, one
generator at a time, kept here independent of the library's code.

Stacking relies on numpy's elementwise cos, sin and sqrt giving each
element the same result whatever array it sits in; the first test names
that assumption about the host's numpy.
"""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from thicken import Circle, Ellipse, Sphere, Torus, sample_rng  # noqa: E402
from thicken.euclid import row_norms  # noqa: E402
from thicken.shapes import sample_stacked  # noqa: E402

TWO_PI = 2.0 * math.pi


def test_host_elementwise_functions_do_not_depend_on_the_array():
    # lockstep sampling computes cos, sin and sqrt on a stacked (trials, m)
    # array, or on rows gathered out of it, where one trial alone would
    # compute them on its own row: the results must agree bit for bit
    rng = np.random.default_rng(2024)
    for m in (1, 3, 64, 257, 4096):
        stacked = TWO_PI * rng.random((9, m))
        for fn in (np.cos, np.sin, np.sqrt):
            whole = fn(stacked)
            for row, out in zip(stacked, whole):
                assert fn(row).tobytes() == out.tobytes()
                pick = np.flatnonzero(rng.random(m) < 0.3)
                assert fn(row[pick]).tobytes() == out[pick].tobytes()
                assert fn(row[::-1]).tobytes() == out[::-1].tobytes()


def _thinned(count, rng, draw):
    """The rejection loop of the thinned samplers, one generator: rounds of
    m = max(64, 2 * short) candidates until count are accepted."""
    parts, got = [], 0
    while got < count:
        m = max(64, 2 * (count - got))
        pts = draw(m)[:count - got]
        got += pts.shape[0]
        parts.append(pts)
    return np.concatenate(parts)


def oracle_sample(shape, count, rng):
    if isinstance(shape, Circle):
        th = 2.0 * math.pi * rng.random(count)
        return np.column_stack([shape.radius * np.cos(th), shape.radius * np.sin(th)])
    if isinstance(shape, Sphere):
        g = rng.normal(size=(count, shape.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return g * shape.radius
    if isinstance(shape, Ellipse):
        a, b = shape.a, shape.b

        def draw(m):
            th = 2.0 * math.pi * rng.random(m)
            speed = np.sqrt((a * np.sin(th)) ** 2 + (b * np.cos(th)) ** 2)
            keep = th[a * rng.random(m) < speed]
            return np.column_stack([a * np.cos(keep), b * np.sin(keep)])
        return _thinned(count, rng, draw)
    R, rho = shape.major, shape.minor

    def draw(m):
        th = 2.0 * math.pi * rng.random(m)
        ph = 2.0 * math.pi * rng.random(m)
        cos_ph = np.cos(ph)
        sel = (R + rho) * rng.random(m) < (R + rho * cos_ph)
        ring = R + rho * cos_ph[sel]
        return np.column_stack([ring * np.cos(th[sel]), ring * np.sin(th[sel]),
                                rho * np.sin(ph[sel])])
    return _thinned(count, rng, draw)


SHAPES = (Circle(1.0), Circle(2.5), Ellipse(2.0, 1.0), Ellipse(3.0, 0.4), Sphere(3, 1.0),
          Sphere(5, 2.0), Torus(3.0, 1.0), Torus(1.2, 1.0), Torus(5.0, 0.5))
counts = st.one_of(st.sampled_from((1, 128, 4096)), st.integers(1, 300))
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


def _center(shape, th, ph, off):
    """A center by two angles and an offset: around the torus spine, or
    off the circle, ellipse or sphere along a radial line."""
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
                                                      max_size=7), counts)
@example(6, [1, 2, 3], 4096)
@example(2, [5] * 4, 1)
@example(7, [1, 2, 3, 4, 5, 6], 50)      # 64 candidates for 50 points: second rounds
@example(3, [7, 8, 9], 60)
def test_stacked_sample_is_one_call_per_generator(which, seeds, count):
    shape = SHAPES[which]
    gens = [np.random.default_rng(s) for s in seeds]
    refs = [np.random.default_rng(s) for s in seeds]
    rows, got = sample_stacked(shape, gens, count)
    want = [oracle_sample(shape, count, ref) for ref in refs]
    assert got.tolist() == [count] * len(seeds)
    assert rows.tobytes() == np.concatenate(want).tobytes()
    for gen, ref in zip(gens, refs):
        assert gen.bit_generator.state == ref.bit_generator.state
    one = np.random.default_rng(seeds[0])
    assert sample_rng(shape, count, one).tobytes() == want[0].tobytes()
    assert one.bit_generator.state == refs[0].bit_generator.state


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(SHAPES))),
       st.lists(st.tuples(st.integers(0, 2**32 - 1), angles, angles, offsets), min_size=1,
                max_size=6),
       radius_kinds, counts, st.one_of(st.none(), st.integers(0, 5)))
@example(6, [(1, 0.0, 0.0, 1.0), (2, -1e-300, 1e-300, 1.0)], ("abs", 0.45), 4096, None)
@example(6, [(3, 0.3, math.pi, 3.0)], ("abs", 4.0), 128, 2)        # on the axis
@example(7, [(4, 0.3, 1.0, 0.0), (5, 2.0, -math.pi, 1.0)], ("phi", 1.0), 300, None)
@example(8, [(6, 2.0, -math.pi, 1.0)] * 3, ("theta", 1.0), 4096, 1)
@example(8, [(7, 2.0, 0.0, 1.0)], ("abs", 1e-300), 1, None)
@example(2, [(8, 0.0, 0.0, 1.0), (9, math.pi, 0.0, 0.3)], ("abs", 0.5), 128, 3)
@example(7, [(10, 0.5, 0.5, 1.0), (11, 2.5, 3.0, 1.0), (12, 0.0, 0.0, 0.0)], ("abs", 1.0), 50,
         None)
def test_stacked_patches_are_one_patch_per_generator(which, gens_spec, radius_kind, count, first):
    shape = SHAPES[which]
    centers = np.array([_center(shape, th, ph, off) for _, th, ph, off in gens_spec])
    radius = _radius(shape, centers[0], *radius_kind)
    seeds = [s for s, *_ in gens_spec]
    gens = [np.random.default_rng(s) for s in seeds]
    refs = [np.random.default_rng(s) for s in seeds]
    keep = None if first is None else np.array([first + i for i in range(len(seeds))])
    rows, got = sample_stacked(shape, gens, count, centers, radius, keep)
    near = []
    for ref, center in zip(refs, centers):
        cand = oracle_sample(shape, count, ref)
        near.append(cand[row_norms(cand - center) <= radius])
    want = near if keep is None else [n[:f] for n, f in zip(near, keep)]
    assert got.tolist() == [w.shape[0] for w in want]
    assert rows.tobytes() == np.concatenate(want).tobytes()
    for gen, ref in zip(gens, refs):
        assert gen.bit_generator.state == ref.bit_generator.state
    one = np.random.default_rng(seeds[0])
    alone = sample_stacked(shape, [one], count, centers[:1], radius)[0]
    assert alone.tobytes() == near[0].tobytes()
    assert one.bit_generator.state == refs[0].bit_generator.state


@pytest.mark.parametrize("cap", (1, 3, 64, 1 << 20))
def test_pass_cap_changes_no_row(monkeypatch, cap):
    # the cap on a pass's draws splits the generators into passes; the rows
    # and the generators' states stay those of a single pass
    from thicken import shapes
    for shape in (Circle(1.0), Ellipse(2.0, 1.0), Sphere(3, 1.0), Torus(3.0, 1.0)):
        center = sample_rng(shape, 5, np.random.default_rng(0))
        base = [np.random.default_rng((7, i)) for i in range(5)]
        want = sample_stacked(shape, base, 200, center, 0.9)
        monkeypatch.setattr(shapes, "_PASS_DRAWS", cap)
        gens = [np.random.default_rng((7, i)) for i in range(5)]
        got = sample_stacked(shape, gens, 200, center, 0.9)
        monkeypatch.undo()
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tolist() == want[1].tolist()
        assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in base]
