"""Thickening points: membership validation, Dirac inclusion as an isometry,
barycenter projection as a 1-Lipschitz map, scale-thickening properties."""
import numpy as np
import pytest

from thicken import (
    Circle,
    ComplexSpec,
    Measure,
    SimplexViolation,
    SpecMismatch,
    Sphere,
    ThickeningPoint,
    distance_to_shape,
    inclusion_iota,
    is_vr_simplex,
    linear_projection_f,
    make_thickening_point,
    sample_rng,
    thickening_distance,
)

from test_transport import oracle_wasserstein1


def vr_measure_on(shape, scale, natoms, rng) -> Measure:
    """Random measure whose support provably spans a diameter-<=scale simplex:
    atoms drawn within scale/2 of an anchor (triangle inequality)."""
    while True:
        anchor = sample_rng(shape, 1, rng)[0]
        pool = sample_rng(shape, 4096, rng)
        near = pool[np.linalg.norm(pool - anchor, axis=1) <= scale / 2 * 0.98]
        if near.shape[0] >= natoms:
            pts = np.vstack([anchor, near[: natoms - 1]]) if natoms > 1 else anchor[None]
            pts = np.unique(pts, axis=0)
            if pts.shape[0] == natoms:
                w = rng.random(natoms) + 0.05
                return Measure(tuple(map(tuple, pts)), tuple(w / w.sum()))


def test_validation_matches_direct_predicate():
    rng = np.random.default_rng(21)
    shape = Circle(1.0)
    spec = ComplexSpec("vr", 0.8)
    accepted = rejected = 0
    for _ in range(200):
        pts = sample_rng(shape, int(rng.integers(1, 5)), rng)
        pts = np.unique(pts, axis=0)
        w = rng.random(pts.shape[0]) + 0.05
        m = Measure(tuple(map(tuple, pts)), tuple(w / w.sum()))
        try:
            ok = is_vr_simplex(m_simplex(m), spec)
        except Exception:
            continue
        if ok:
            tp = make_thickening_point(m, spec)
            assert tp.measure is m
            accepted += 1
        else:
            with pytest.raises(SimplexViolation):
                make_thickening_point(m, spec)
            rejected += 1
    assert accepted > 20 and rejected > 20  # both branches exercised


def m_simplex(m: Measure):
    from thicken import Simplex
    return Simplex(m.support)


def test_violation_report_is_diagnostic():
    # each report names the flavor's quantity and prints it with the
    # threshold the predicate compared it against, strictness as < or <=
    m = Measure(((0.0, 0.0), (2.0, 0.0)), (0.5, 0.5))
    with pytest.raises(SimplexViolation, match=r"diameter 2 is not <= 1 \(flavor vr"):
        make_thickening_point(m, ComplexSpec("vr", 1.0))
    with pytest.raises(SimplexViolation, match=r"diameter 2 is not < 1.5 \(flavor vr"):
        make_thickening_point(m, ComplexSpec("vr", 1.5, strict=True))
    with pytest.raises(SimplexViolation, match=r"min-ball radius 1 is not <= 0.5 \("):
        make_thickening_point(m, ComplexSpec("cech-ambient", 1.0))
    with pytest.raises(SimplexViolation, match=r"min-ball radius 1 is not < 0.9 \("):
        make_thickening_point(m, ComplexSpec("cech-ambient", 1.8, strict=True))
    shape = Circle(1.0)
    m2 = Measure(((1.0, 0.0), (-1.0, 0.0)), (0.5, 0.5))
    # the witness (0, 1) covers both atoms within sqrt(2); the projected
    # ball center, the origin, is on the medial axis and adds no candidate
    with pytest.raises(SimplexViolation,
                       match=r"witness 1.41421356237 is not <= 0.5 .*1 candidate witnesses"):
        make_thickening_point(m2, ComplexSpec("cech-intrinsic", 1.0, shape=shape),
                              witnesses=((0.0, 1.0),))
    with pytest.raises(SimplexViolation, match=r"witness inf is not <= 0.5 .*0 candidate"):
        make_thickening_point(m2, ComplexSpec("cech-intrinsic", 1.0, shape=shape))


def test_membership_worked_examples():
    shape = Circle(1.0)
    spec = ComplexSpec("vr", 0.9, shape=shape)
    # antipodal atoms span diameter 2, far beyond scale 0.9
    anti = Measure(((1.0, 0.0), (-1.0, 0.0)), (0.5, 0.5))
    with pytest.raises(SimplexViolation):
        make_thickening_point(anti, spec)
    # a singleton is a simplex at any positive scale
    for r in (1e-6, 0.1, 0.9):
        tp = make_thickening_point(
            Measure(((0.0, 1.0),), (1.0,)), ComplexSpec("vr", r, shape=shape)
        )
        assert tp.measure.weights == (1.0,)
    # three atoms within an arc of 0.5 radians: max chord 2*sin(0.25) < 0.9
    ang = (0.0, 0.25, 0.5)
    pts = tuple((float(np.cos(t)), float(np.sin(t))) for t in ang)
    tp = make_thickening_point(Measure(pts, (1 / 3, 1 / 3, 1 / 3)), spec)
    assert len(tp.measure.support) == 3


def test_barycenter_worked_examples():
    # a Dirac projects to its own atom
    tp = inclusion_iota([0.6, -0.8], ComplexSpec("vr", 0.5, shape=Circle(1.0)))
    assert np.allclose(linear_projection_f(tp), [0.6, -0.8], rtol=0, atol=0)
    # an even split projects to the chord midpoint
    a = (1.0, 0.0)
    b = (float(np.cos(0.4)), float(np.sin(0.4)))
    m = Measure((a, b), (0.5, 0.5))
    tp = make_thickening_point(m, ComplexSpec("vr", 0.9, shape=Circle(1.0)))
    mid = 0.5 * (np.asarray(a) + np.asarray(b))
    assert np.allclose(linear_projection_f(tp), mid, rtol=0, atol=1e-15)


def test_iota_then_barycenter_is_identity():
    rng = np.random.default_rng(33)
    shape = Sphere(3, 1.0)
    spec = ComplexSpec("vr", 0.9, shape=shape)
    for x in sample_rng(shape, 25, rng):
        assert np.allclose(linear_projection_f(inclusion_iota(x, spec)), x, rtol=0, atol=0)


def test_distance_examples_and_oracle_agreement():
    shape = Circle(1.0)
    spec = ComplexSpec("vr", 0.9, shape=shape)
    rng = np.random.default_rng(35)
    tp = make_thickening_point(vr_measure_on(shape, 0.9, 3, rng), spec)
    assert thickening_distance(tp, tp) == pytest.approx(0.0, abs=1e-12)
    for _ in range(20):
        a = make_thickening_point(vr_measure_on(shape, 0.9, int(rng.integers(1, 4)), rng), spec)
        b = make_thickening_point(vr_measure_on(shape, 0.9, int(rng.integers(1, 4)), rng), spec)
        got = thickening_distance(a, b)
        want = oracle_wasserstein1(a.measure, b.measure)
        assert got == pytest.approx(want, abs=1e-9)


def test_thickening_point_constructor_type_checks():
    with pytest.raises(TypeError):
        ThickeningPoint("nope", ComplexSpec("vr", 1.0))
    with pytest.raises(TypeError):
        ThickeningPoint(Measure(((0.0,),), (1.0,)), "nope")


def test_near_coincident_atoms_fail_in_the_measure():
    # atoms 1e-13 apart coincide under the one 1e-12 tolerance: the measure
    # refuses them, so make_thickening_point never builds their simplex
    with pytest.raises(ValueError, match="support atoms 0 and 1 coincide"):
        make_thickening_point(Measure(((1.0, 0.0), (1.0 + 1e-13, 0.0)), (0.5, 0.5)),
                              ComplexSpec("vr", 0.5))


def test_inclusion_iota_on_and_off_shape():
    shape = Circle(1.0)
    spec = ComplexSpec("vr", 0.5, shape=shape)
    tp = inclusion_iota([1.0, 0.0], spec)
    assert tp.measure.support == ((1.0, 0.0),)
    assert tp.measure.weights == (1.0,)
    with pytest.raises(ValueError, match="off-shape"):
        inclusion_iota([1.5, 0.0], spec)
    # shapeless spec accepts any point
    tp2 = inclusion_iota([7.0, -3.0], ComplexSpec("vr", 0.5))
    assert tp2.measure.support == ((7.0, -3.0),)


def test_iota_is_an_isometry():
    # Dirac distances are plain Euclidean distances
    rng = np.random.default_rng(25)
    shape = Sphere(3, 1.0)
    spec = ComplexSpec("vr", 0.9, shape=shape)
    for _ in range(50):
        x, y = sample_rng(shape, 2, rng)
        dw = thickening_distance(inclusion_iota(x, spec), inclusion_iota(y, spec))
        assert dw == pytest.approx(float(np.linalg.norm(x - y)), abs=1e-12)


def test_barycenter_projection_is_1_lipschitz():
    rng = np.random.default_rng(27)
    shape = Circle(1.0)
    spec = ComplexSpec("vr", 0.9, shape=shape)
    for _ in range(100):
        a = make_thickening_point(vr_measure_on(shape, 0.9, int(rng.integers(1, 5)), rng), spec)
        b = make_thickening_point(vr_measure_on(shape, 0.9, int(rng.integers(1, 5)), rng), spec)
        lhs = float(np.linalg.norm(linear_projection_f(a) - linear_projection_f(b)))
        assert lhs <= thickening_distance(a, b) + 1e-9


def test_barycenter_lands_within_scale_of_shape():
    # support diameter <= r and atoms on the shape force the barycenter
    # within r of the shape
    rng = np.random.default_rng(29)
    for shape, r in ((Circle(1.0), 0.9), (Sphere(3, 1.0), 0.9)):
        spec = ComplexSpec("vr", r, shape=shape)
        for _ in range(50):
            tp = make_thickening_point(vr_measure_on(shape, r, int(rng.integers(1, 5)), rng), spec)
            y = linear_projection_f(tp)
            assert distance_to_shape(shape, y) <= r + 1e-9


def test_point_stays_within_scale_of_any_dirac_atom():
    # diameter <= r: transporting everything onto one atom moves mass at
    # most r, so the Wasserstein distance to that Dirac is at most r
    rng = np.random.default_rng(31)
    shape = Circle(1.0)
    r = 0.9
    spec = ComplexSpec("vr", r, shape=shape)
    for _ in range(50):
        tp = make_thickening_point(vr_measure_on(shape, r, int(rng.integers(2, 5)), rng), spec)
        x0 = tp.measure.support[0]
        d = thickening_distance(tp, inclusion_iota(x0, spec))
        assert d <= r + 1e-9


def test_distance_requires_matching_specs():
    a = inclusion_iota([0.0, 0.0], ComplexSpec("vr", 1.0))
    b = inclusion_iota([0.0, 0.0], ComplexSpec("vr", 2.0))
    with pytest.raises(SpecMismatch):
        thickening_distance(a, b)
