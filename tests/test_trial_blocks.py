"""Lockstep trial blocks: the simplex suites draw a block of trials at once,
each trial on its own stream, and must give the rows that trials run one
by one give. Also the two shortcuts of the homotopy path: one projection
per thickening point, and transport values without the plan."""
import hashlib

import numpy as np
import pytest

from thicken import (Circle, ComplexSpec, Ellipse, FinitePointSet, Measure, MedialAxisProximity,
                     Sphere, Torus, ZeroSphere, homotopy_H, make_thickening_point, reach,
                     retract, thickening_distance, wasserstein1)
from thicken import retraction, shapes
from thicken.retraction import SUITES

from test_thickening import vr_measure_on
from test_transport import random_measure

SIMPLEX_SUITES = ("VrTub", "VrSimplex", "CechRadius", "CechTub", "CechSimplexAmbient",
                  "CechSimplexIntrinsic")
SHAPES = (Circle(1.0), Ellipse(2.0, 1.0), Sphere(3, 1.0), Torus(3.0, 1.0), ZeroSphere(),
          FinitePointSet(((0.0, 0.0), (1.0, 0.0), (0.3, 0.8), (1.4, 0.9), (-0.5, 0.6),
                          (0.7, -0.7))))


def _rows(shapes_, seeds, trials):
    """CSV rows of every simplex suite, at two scales per shape: 0.5 and 0.9
    of the reach for the suites that need the reach gap, 0.9 and 3 of it
    for the others, which then also see supports wider than the reach."""
    for shape in shapes_:
        for suite in SIMPLEX_SUITES:
            shares = (0.5, 0.9) if SUITES[suite].needs_reach_gap else (0.9, 3.0)
            for share in shares:
                for seed in seeds:
                    rep = SUITES[suite].run(shape, share * reach(shape), 5, trials, seed, False)
                    yield ",".join(rep.csv_fields().values())


def test_simplex_suite_rows_are_pinned():
    # 216 rows over the six simplex suites, six shapes, three seeds and two
    # scales; the digest was taken from the trial-by-trial loop that lockstep
    # blocks replaced
    digest = hashlib.sha256()
    for row in _rows(SHAPES, (1, 2, 3), 150):
        digest.update(row.encode() + b"\n")
    assert digest.hexdigest() == "99e944edbc74d5eb9dd4598ebf3b47cb154c742e5cacd06625c08890699639f6"


@pytest.mark.parametrize("size", (1, 3))
def test_block_size_and_pass_cap_change_no_row(monkeypatch, size):
    want = list(_rows(SHAPES, (4,), 40))
    monkeypatch.setattr(retraction, "_BLOCK", size)
    monkeypatch.setattr(shapes, "_PASS_DRAWS", size)
    assert list(_rows(SHAPES, (4,), 40)) == want


def test_trial_generators_of_a_block_are_distinct():
    streams = retraction._trial_rngs(3, 2 * retraction._BLOCK + 5)
    block = [next(streams) for _ in range(retraction._BLOCK)]
    assert len(set(map(id, block))) == len(block)
    states = [g.bit_generator.state for g in block]
    assert states == [np.random.default_rng((3, t)).bit_generator.state
                      for t in range(len(block))]


def test_one_projection_per_thickening_point(monkeypatch):
    shape = Torus(3.0, 1.0)
    spec = ComplexSpec("vr", 0.9, shape=shape)
    mu = vr_measure_on(shape, 0.9, 4, np.random.default_rng(5))
    fresh = [make_thickening_point(Measure(mu.support, mu.weights), spec) for _ in range(5)]
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    want = [homotopy_H(tp, t) for tp, t in zip(fresh, grid)]

    calls = []
    real = retraction.project
    monkeypatch.setattr(retraction, "project", lambda *a: calls.append(1) or real(*a))
    tp = make_thickening_point(mu, spec)
    p = retract(tp)
    got = [homotopy_H(tp, t) for t in grid]
    assert len(calls) == 1
    assert not p.flags.writeable
    assert retract(tp) is p
    for a, b in zip(got, want):
        assert a.measure.array().tobytes() == b.measure.array().tobytes()
        assert a.measure.weight_array().tobytes() == b.measure.weight_array().tobytes()


def test_medial_axis_tie_is_raised_on_every_call(monkeypatch):
    calls = []
    real = retraction.project
    monkeypatch.setattr(retraction, "project", lambda *a: calls.append(1) or real(*a))
    tp = make_thickening_point(Measure(((1.0, 0.0), (-1.0, 0.0)), (0.5, 0.5)),
                               ComplexSpec("vr", 2.5, shape=Circle(1.0)))
    for _ in range(2):
        with pytest.raises(MedialAxisProximity):
            retract(tp)
    assert len(calls) == 2


def test_thickening_distance_is_the_w1_value():
    rng = np.random.default_rng(8)
    spec = ComplexSpec("vr", 100.0)
    for _ in range(60):
        mu = random_measure(rng, max_atoms=7, dim=3)
        nu = random_measure(rng, max_atoms=7, dim=3)
        value = wasserstein1(mu, nu)[0]
        a, b = make_thickening_point(mu, spec), make_thickening_point(nu, spec)
        assert thickening_distance(a, b) == value
        assert wasserstein1(mu, nu, plan=False) == (value, None)
