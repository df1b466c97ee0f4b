"""Lockstep trial blocks: every suite draws a block of trials at once,
each trial on its own stream, and must give the rows that trials run one
by one give. Also the two shortcuts of the homotopy path: one projection
per thickening point, and transport values without the plan."""
import hashlib

import numpy as np
import pytest

from thicken import (Circle, ComplexSpec, Ellipse, FinitePointSet, Measure, MedialAxisProximity,
                     Sphere, Torus, ZeroSphere, homotopy_H, make_thickening_point, reach,
                     retract, thickening_distance, wasserstein1)
from thicken import retraction
from thicken.retraction import SUITES

from test_retraction import philox_state
from test_thickening import vr_measure_on
from test_transport import random_measure

SIMPLEX_SUITES = ("VrTub", "VrSimplex", "CechRadius", "CechTub", "CechSimplexAmbient",
                  "CechSimplexIntrinsic")
# the suites that draw their points whole-shape, not as simplices
OTHER_SUITES = ("Convex", "EmptyBall", "FedererLipschitz")
SHAPES = (Circle(1.0), Ellipse(2.0, 1.0), Sphere(3, 1.0), Torus(3.0, 1.0), ZeroSphere(),
          FinitePointSet(((0.0, 0.0), (1.0, 0.0), (0.3, 0.8), (1.4, 0.9), (-0.5, 0.6),
                          (0.7, -0.7))))


def _rows(shapes_, seeds, trials, suites=SIMPLEX_SUITES):
    """CSV rows of every suite of `suites`, at two scales per shape: 0.9 and
    3 of the reach for the simplex suites that do not need the reach gap,
    which then also see supports wider than the reach, else 0.5 and 0.9."""
    for shape in shapes_:
        for suite in suites:
            wide = suite in SIMPLEX_SUITES and not SUITES[suite].needs_reach_gap
            shares = (0.9, 3.0) if wide else (0.5, 0.9)
            for share in shares:
                for seed in seeds:
                    rep = SUITES[suite].run(shape, share * reach(shape), 5, trials, seed, False)
                    yield ",".join(rep.csv_fields().values())


def test_simplex_suite_rows_are_pinned():
    # 216 rows over the six simplex suites, six shapes, three seeds and two
    # scales; the digest was taken on the Philox trial streams and the
    # window samplers
    digest = hashlib.sha256()
    for row in _rows(SHAPES, (1, 2, 3), 150):
        digest.update(row.encode() + b"\n")
    assert digest.hexdigest() == "c05e2252893c858f231bacdfb698e4f5fb8524a259dcf94f7146b60376e19156"


def test_other_suite_rows_are_pinned():
    # 108 rows of Convex, EmptyBall and FedererLipschitz over the six
    # shapes, three seeds and two scales; the digest was taken when these
    # suites ran one trial at a time on a one-generator sampler
    digest = hashlib.sha256()
    for row in _rows(SHAPES, (1, 2, 3), 150, OTHER_SUITES):
        digest.update(row.encode() + b"\n")
    assert digest.hexdigest() == "b510073d35d108a240f789cb86ee52c17ab6d8a235b164c5ab714db395585efb"


def test_lazy_margins_run_few_kernels_and_change_no_row(monkeypatch):
    # the CechSimplex cells of acceptance criterion 4 at 500 trials; the
    # digest was taken before the margins turned lazy, when every trial ran
    # its exact kernel
    calls = dict.fromkeys(("min_enclosing_ball", "intrinsic_cover"), 0)
    for name in calls:
        def spy(*args, real=getattr(retraction, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(retraction, name, spy)
    digest = hashlib.sha256()
    for shape, r in ((Circle(1.0), 0.9), (Ellipse(2.0, 1.0), 0.45), (Sphere(3, 1.0), 0.9),
                     (Torus(3.0, 1.0), 0.9)):
        for strict in (False, True):
            for suite, kernel in (("CechSimplexAmbient", "min_enclosing_ball"),
                                  ("CechSimplexIntrinsic", "intrinsic_cover")):
                before = calls[kernel]
                rep = SUITES[suite].run(shape, r, 5, 500, 12, strict)
                assert calls[kernel] - before < rep.trials / 2
                digest.update(",".join(rep.csv_fields().values()).encode() + b"\n")
    assert digest.hexdigest() == "9c9e7d5cc6f97379c57503f6a8542d6ebcb260f0e9750c860916e18968ae0e68"


@pytest.mark.parametrize("size", (1, 3))
def test_block_size_and_pass_cap_change_no_row(monkeypatch, size):
    # each trial keeps its own stream and draws, whatever block it runs in
    def rows():
        return [*_rows(SHAPES, (4,), 40), *_rows(SHAPES, (4,), 40, OTHER_SUITES)]
    want = rows()
    monkeypatch.setattr(retraction, "_BLOCK", size)
    assert rows() == want


def test_trial_generators_of_a_block_are_distinct():
    streams = retraction._trial_rngs(3, 2 * retraction._BLOCK + 5)
    block = [next(streams) for _ in range(retraction._BLOCK)]
    assert len(set(map(id, block))) == len(block)
    states = [philox_state(g) for g in block]
    assert states == [philox_state(retraction._stream(3, t)) for t in range(len(block))]


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
