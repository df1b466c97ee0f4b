"""Retraction and homotopy maps plus the randomized lemma checkers."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from thicken import (
    Circle,
    ComplexSpec,
    Ellipse,
    FinitePointSet,
    InvalidInput,
    LemmaReport,
    Measure,
    MedialAxisProximity,
    Sphere,
    Torus,
    ZeroSphere,
    check_cech_radius_lemma,
    check_cech_simplex_lemma,
    check_cech_tub_lemma,
    check_convex_lemma,
    check_empty_ball,
    check_federer,
    check_vr_simplex_lemma,
    check_vr_tub_lemma,
    homotopy_H,
    inclusion_iota,
    make_thickening_point,
    reach,
    retract,
    sample_rng,
    thickening_distance,
)
from thicken.retraction import (CSV_COLUMNS, SUITES, _ambient_margin, _draw_patches,
                                _intrinsic_margin, _stream, _trial_rngs, reach_limit)

from test_thickening import vr_measure_on


def test_retract_known_value():
    # two quarter-turn atoms on the unit circle: barycenter (.5,.5),
    # projecting back out to the diagonal point of the circle
    shape = Circle(1.0)
    spec = ComplexSpec("vr", 1.5, shape=shape)
    m = Measure(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5))
    tp = make_thickening_point(m, spec)
    p = retract(tp)
    assert np.allclose(p, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)


def test_retract_requires_shape():
    tp = inclusion_iota([0.3, 0.4], ComplexSpec("vr", 1.0))
    with pytest.raises(ValueError, match="shape"):
        retract(tp)


def test_retract_after_iota_is_identity():
    rng = np.random.default_rng(41)
    for shape in (Circle(1.0), Sphere(3, 1.0), Ellipse(2.0, 1.0)):
        spec = ComplexSpec("vr", 0.5, shape=shape)
        for x in sample_rng(shape, 30, rng):
            tp = inclusion_iota(x, spec)
            assert np.linalg.norm(retract(tp) - x) <= 1e-10


def test_retract_balanced_antipodes_hits_medial_axis():
    # mass split across the two points of the 0-sphere: barycenter at the
    # origin, equidistant from both, so the projection must refuse
    shape = ZeroSphere()
    spec = ComplexSpec("cech-ambient", 2.0, shape=shape)
    tp = make_thickening_point(Measure(((-1.0,), (1.0,)), (0.5, 0.5)), spec)
    with pytest.raises(MedialAxisProximity):
        retract(tp)


def test_homotopy_endpoints():
    rng = np.random.default_rng(43)
    shape = Circle(1.0)
    r = 0.9
    spec = ComplexSpec("vr", r, shape=shape)
    for _ in range(30):
        tp = make_thickening_point(vr_measure_on(shape, r, int(rng.integers(1, 5)), rng), spec)
        # t=1 reproduces the point, t=0 is the Dirac at the retraction
        assert thickening_distance(homotopy_H(tp, 1.0), tp) <= 1e-10
        end = homotopy_H(tp, 0.0)
        assert len(end.measure.weights) == 1
        assert np.allclose(end.measure.array()[0], retract(tp), atol=1e-12)
        assert thickening_distance(end, inclusion_iota(retract(tp), spec)) <= 1e-10


def test_homotopy_midpoint_adds_the_retraction_atom():
    # two atoms plus the off-support retraction point: three atoms at t=1/2,
    # and the blend itself passes membership validation
    shape = Circle(1.0)
    spec = ComplexSpec("vr", 0.9, shape=shape)
    a = (1.0, 0.0)
    b = (float(np.cos(0.7)), float(np.sin(0.7)))
    tp = make_thickening_point(Measure((a, b), (0.5, 0.5)), spec)
    mid = homotopy_H(tp, 0.5)
    assert len(mid.measure.weights) == 3
    assert sorted(mid.measure.weights) == pytest.approx([0.25, 0.25, 0.5])
    assert any(np.allclose(x, retract(tp), atol=1e-12) for x in mid.measure.array())


def test_homotopy_t_bounds():
    tp = inclusion_iota([1.0, 0.0], ComplexSpec("vr", 0.5, shape=Circle(1.0)))
    with pytest.raises(ValueError):
        homotopy_H(tp, -0.1)
    with pytest.raises(ValueError):
        homotopy_H(tp, 1.1)


def test_homotopy_is_lipschitz_in_t():
    # coupling that moves only the reweighted mass: distance between H(s)
    # and H(t) is at most |t-s| * sum_i w_i d(x_i, p)
    rng = np.random.default_rng(47)
    shape = Circle(1.0)
    r = 0.9
    spec = ComplexSpec("vr", r, shape=shape)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for _ in range(10):
        tp = make_thickening_point(vr_measure_on(shape, r, int(rng.integers(2, 5)), rng), spec)
        p = retract(tp)
        spread = sum(w * float(np.linalg.norm(np.asarray(x) - p))
                     for x, w in zip(tp.measure.support, tp.measure.weights))
        for s in grid:
            for t in grid:
                d = thickening_distance(homotopy_H(tp, s), homotopy_H(tp, t))
                assert d <= abs(t - s) * spread + 1e-9


def test_homotopy_distance_is_kantorovich_rubinstein_exact():
    # H_t - H_s = (t - s)(mu - delta_p), so W1(H_t, H_s) = |t - s| sum_i w_i |x_i - p|
    # exactly: the coupling along each ray to p gives <=, and the 1-Lipschitz
    # test function |y - p| gives >=; the reference never calls the solver
    rng = np.random.default_rng(59)
    gate = ((Circle(1.0), 0.9), (Ellipse(2.0, 1.0), 0.45), (Sphere(3, 1.0), 0.9),
            (Torus(3.0, 1.0), 0.9))
    for shape, r in gate:
        spec = ComplexSpec("vr", r, shape=shape)
        for natoms in range(1, 7):
            tp = make_thickening_point(vr_measure_on(shape, r, natoms, rng), spec)
            p = retract(tp)
            spread = sum(w * math.dist(x, p)
                         for x, w in zip(tp.measure.support, tp.measure.weights))
            for s, t in ((0.0, 1.0), (0.25, 0.75), (0.9, 0.1), (1.0, 0.4)):
                d = thickening_distance(homotopy_H(tp, s), homotopy_H(tp, t))
                assert d == pytest.approx(abs(t - s) * spread, abs=1e-9)


def test_homotopy_is_lipschitz_across_points():
    # spot check: moving the input point moves every slice of the homotopy by
    # at most (1 + (1-t) * tau/(tau-r)) times as much, since the barycenter is
    # 1-Lipschitz and the on-shape projection expands by at most tau/(tau-r)
    rng = np.random.default_rng(49)
    shape = Circle(1.0)
    tau, r = 1.0, 0.45
    factor = tau / (tau - r)
    spec = ComplexSpec("vr", r, shape=shape)
    for _ in range(15):
        a = make_thickening_point(vr_measure_on(shape, r, int(rng.integers(1, 4)), rng), spec)
        b = make_thickening_point(vr_measure_on(shape, r, int(rng.integers(1, 4)), rng), spec)
        dab = thickening_distance(a, b)
        for t in (0.0, 0.3, 0.8, 1.0):
            d = thickening_distance(homotopy_H(a, t), homotopy_H(b, t))
            assert d <= dab + (1 - t) * factor * dab + 1e-6


def test_hull_point_vertex_bound_boundary_case():
    # the two-point shape {-1, 1}: its pair spans an enclosing ball of radius
    # exactly 1, and the hull midpoint 0 sits at distance exactly 1 from each
    # vertex, meeting the bound with zero slack
    m = Measure(((-1.0,), (1.0,)), (0.5, 0.5))
    hull_point = m.array().T @ m.weight_array()
    gaps = np.linalg.norm(m.array() - hull_point, axis=1)
    assert float(gaps.min()) == 1.0  # <= r = half the pair's scale 2


def test_projection_collapses_radially_aligned_pairs():
    # two points on one normal ray project to the same shape point, so the
    # projected gap is 0 regardless of the tube-radius expansion factor
    from thicken import project
    shape = Circle(1.0)
    rng = np.random.default_rng(51)
    for _ in range(20):
        u = sample_rng(shape, 1, rng)[0]
        px = project(shape, 1.2 * u)
        py = project(shape, 0.7 * u)
        assert np.allclose(px, py, atol=1e-12)
        assert np.allclose(px, u, atol=1e-12)


def test_homotopy_stays_in_complex_below_reach():
    # the retraction point extends every simplex below the reach; any
    # SimplexViolation here would be a counterexample
    rng = np.random.default_rng(53)
    for shape, r in ((Circle(1.0), 0.9), (Sphere(3, 1.0), 0.9), (Ellipse(2.0, 1.0), 0.45)):
        spec = ComplexSpec("vr", r, shape=shape)
        for _ in range(25):
            tp = make_thickening_point(
                vr_measure_on(shape, r, int(rng.integers(1, 5)), rng), spec)
            for t in (0.0, 0.37, 1.0):
                homotopy_H(tp, t)  # must not raise


# ---------------------------------------------------------------------------
# checker harness behavior


def test_checkers_pass_on_circle_smoke():
    shape = Circle(1.0)
    reports = [
        check_convex_lemma(shape, 0.5, 3, 60, seed=1),
        check_vr_tub_lemma(shape, 0.5, 3, 60, seed=1),
        check_vr_simplex_lemma(shape, 0.5, 3, 60, seed=1),
        check_cech_radius_lemma(shape, 0.5, 3, 60, seed=1),
        check_cech_tub_lemma(shape, 0.5, 3, 60, seed=1),
        check_cech_simplex_lemma(shape, 0.5, 3, 60, seed=1, flavor="ambient"),
        check_cech_simplex_lemma(shape, 0.5, 3, 60, seed=1, flavor="intrinsic"),
        check_empty_ball(shape, 60, seed=1),
        check_federer(shape, 0.5, 60, seed=1),
    ]
    for rep in reports:
        assert isinstance(rep, LemmaReport)
        assert rep.violations == 0
        assert rep.starved == 0
        assert rep.trials > 0
        assert rep.trials + 0 <= 60
        if rep.trials > rep.ambiguous:
            assert math.isfinite(rep.worst_margin)
            # margins at exact tangency can poke above zero by float noise;
            # stay below the loosest per-lemma tolerance
            assert rep.worst_margin <= 1e-6


def test_checker_reports_are_seed_deterministic():
    shape = Ellipse(2.0, 1.0)
    a = check_vr_simplex_lemma(shape, 0.45, 4, 80, seed=9)
    b = check_vr_simplex_lemma(shape, 0.45, 4, 80, seed=9)
    c = check_vr_simplex_lemma(shape, 0.45, 4, 80, seed=10)
    assert a == b
    assert a != c


# These rows fix the checkers' output bytes; a faster trial loop must
# reproduce every one of them exactly. They were taken on the Philox trial
# streams and the window samplers.
PINNED_ROWS = {
    "CechRadius,torus(R=3,rho=1),0.9,4,200,0,0,-0.133225946723,7":
        lambda: check_cech_radius_lemma(Torus(3.0, 1.0), 0.9, 4, 200, 7),
    "CechSimplexAmbient,torus(R=3,rho=1),0.9,4,200,0,0,-0.00403135632857,7":
        lambda: check_cech_simplex_lemma(Torus(3.0, 1.0), 0.9, 4, 200, 7, flavor="ambient"),
    "CechSimplexIntrinsic,torus(R=3,rho=1),0.9,4,200,0,0,-0.00210153553805,7":
        lambda: check_cech_simplex_lemma(Torus(3.0, 1.0), 0.9, 4, 200, 7, flavor="intrinsic"),
    "CechSimplexIntrinsic,circle(R=1),0.9,4,200,0,0,-0.00932506638732,7":
        lambda: check_cech_simplex_lemma(Circle(1.0), 0.9, 4, 200, 7, flavor="intrinsic",
                                         strict=True),
    "CechSimplexIntrinsic,zerosphere,0.75,4,200,0,0,-0.75,7":
        lambda: check_cech_simplex_lemma(ZeroSphere(), 0.75, 4, 200, 7, flavor="intrinsic"),
    "VrSimplex,ellipse(a=2,b=1),0.45,4,200,0,0,-0.0673696406435,7":
        lambda: check_vr_simplex_lemma(Ellipse(2.0, 1.0), 0.45, 4, 200, 7),
    "Convex,sphere(dim=3,R=1),0.5,4,200,0,0,-0.0323968624244,7":
        lambda: check_convex_lemma(Sphere(3, 1.0), 0.5, 4, 200, 7),
    "EmptyBall,torus(R=3,rho=1),1,0,200,0,0,-5.46946932189e-11,7":
        lambda: check_empty_ball(Torus(3.0, 1.0), 200, 7),
    "FedererLipschitz,sphere(dim=3,R=1),0.5,0,200,0,0,-0.26428284105,7":
        lambda: check_federer(Sphere(3, 1.0), 0.5, 200, 7),
    "VrSimplex,torus(R=3,rho=1),0.5,4,200,0,0,-0.0388119347496,7":
        lambda: check_vr_simplex_lemma(Torus(3.0, 1.0), 0.5, 4, 200, 7),
    "VrTub,ellipse(a=2,b=1),0.25,4,200,0,0,-0.239597202472,7":
        lambda: check_vr_tub_lemma(Ellipse(2.0, 1.0), 0.25, 4, 200, 7),
    "CechTub,circle(R=1),0.45,4,200,0,0,-0.345875845797,7":
        lambda: check_cech_tub_lemma(Circle(1.0), 0.45, 4, 200, 7),
    "EmptyBall,sphere(dim=5,R=2),2,0,200,0,0,1.62092561595e-13,7":
        lambda: check_empty_ball(Sphere(5, 2.0), 200, 7),
}


@pytest.mark.parametrize("row", PINNED_ROWS)
def test_checker_rows_are_pinned(row):
    assert ",".join(PINNED_ROWS[row]().csv_fields().values()) == row


def philox_state(rng):
    """A Philox generator's state as comparable lists."""
    st = rng.bit_generator.state
    return (st["state"]["key"].tolist(), st["state"]["counter"].tolist(), st["buffer"].tolist(),
            st["buffer_pos"], st["has_uint32"], st["uinteger"])


def test_trial_streams_match_default_rng():
    # the rekeyed pooled generator of trial t is on the stream of Philox
    # keyed by (seed, t), across its 256-trial blocks and over the whole
    # seed range
    for seed in (0, 12, 2**32 - 1, 2**40, 2**64 - 1):
        for t, rng in enumerate(_trial_rngs(seed, 600)):
            if t % 97 and t not in (255, 256, 599):
                continue
            ref = np.random.Generator(np.random.Philox(key=np.array([seed, t], np.uint64)))
            assert philox_state(rng) == philox_state(ref) == philox_state(_stream(seed, t))
            assert rng.bit_generator.state["state"]["key"].tolist() == [seed, t]
            assert rng.integers(0, 7, size=3).tolist() == ref.integers(0, 7, size=3).tolist()
            assert rng.normal() == ref.normal()
    with pytest.raises(InvalidInput, match="seed must be >= 0"):
        next(_trial_rngs(-1, 3))
    with pytest.raises(InvalidInput, match="seed must be >= 0 and an integer"):
        next(_trial_rngs(1.5, 3))
    with pytest.raises(InvalidInput, match="below 2"):
        next(_trial_rngs(2**64, 3))


@pytest.mark.parametrize("seed", (1027, 1028))
def test_ellipse_cech_simplex_has_no_false_medial_ties(seed):
    # these seeds project barycenters just off the major axis past the
    # evolute cusp, where the projection is unique and must not raise
    rep = check_cech_simplex_lemma(Ellipse(2.0, 1.0), 0.45, 5, 200, seed, flavor="ambient")
    assert rep.violations == 0
    assert math.isfinite(rep.worst_margin)


def test_checkers_guard_scale_against_reach():
    # SUITES alone records the reach gap: at reach_limit a gated suite
    # raises and an ungated one runs
    shape = Circle(1.0)
    for lemma, suite in SUITES.items():
        if suite.needs_reach_gap:
            with pytest.raises(InvalidInput, match="reach"):
                suite.run(shape, reach_limit(shape), 3, 10, 1, False)
        else:
            rep = suite.run(shape, reach_limit(shape), 3, 10, 1, False)
            assert rep.lemma_id == lemma and rep.trials == 10 and rep.violations == 0
    with pytest.raises(ValueError, match="reach"):
        check_vr_simplex_lemma(Circle(1.0), 1.0, 3, 10, seed=1)
    with pytest.raises(ValueError, match="reach"):
        check_federer(Circle(1.0), 1.0, 10, seed=1)


def test_finite_shape_caps_simplex_size_instead_of_starving():
    # two atoms 3 apart, scale 0.5: only singletons fit, but every trial
    # must still run
    shape = FinitePointSet(((0.0, 0.0), (3.0, 0.0)))
    rep = check_vr_tub_lemma(shape, 0.5, 4, 50, seed=3)
    assert rep.trials == 50
    assert rep.starved == 0
    assert rep.violations == 0


def test_csv_row_and_header():
    assert CSV_COLUMNS == ("lemma_id", "shape", "r", "k", "trials", "violations",
                           "ambiguous", "worst_margin", "seed")
    rep = check_convex_lemma(Circle(1.0), 0.5, 2, 10, seed=2)
    fields = rep.csv_fields()
    assert tuple(fields) == CSV_COLUMNS
    assert fields["lemma_id"] == "Convex"
    assert fields["shape"] == "circle(R=1)"
    assert fields["trials"] == "10"
    timed = rep.csv_fields(include_timing=True)
    assert tuple(timed) == CSV_COLUMNS + ("wall_time_ms",)
    assert timed["wall_time_ms"] == ""


# each checker taking k and r, called as (r, k, seed); check_federer takes no k
RANGED_CHECKERS = {
    "Convex": lambda r, k, seed: check_convex_lemma(Circle(1.0), r, k, 3, seed),
    "VrTub": lambda r, k, seed: check_vr_tub_lemma(Circle(1.0), r, k, 3, seed),
    "VrSimplex": lambda r, k, seed: check_vr_simplex_lemma(Circle(1.0), r, k, 3, seed),
    "CechRadius": lambda r, k, seed: check_cech_radius_lemma(Circle(1.0), r, k, 3, seed),
    "CechTub": lambda r, k, seed: check_cech_tub_lemma(Circle(1.0), r, k, 3, seed),
    "CechSimplexAmbient": lambda r, k, seed: check_cech_simplex_lemma(
        Circle(1.0), r, k, 3, seed, flavor="ambient"),
    "CechSimplexIntrinsic": lambda r, k, seed: check_cech_simplex_lemma(
        Circle(1.0), r, k, 3, seed, flavor="intrinsic"),
    "FedererLipschitz": lambda r, k, seed: check_federer(Circle(1.0), r, 3, seed),
}


@pytest.mark.parametrize("lemma, r, k, seed", [
    pytest.param(lemma, r, k, 1, id=f"{lemma}-{r}-{k}") for lemma in RANGED_CHECKERS
    for r, k in ((0.5, -1), (0.0, 2), (-0.5, 2), (math.inf, 2))
    if k >= 0 or lemma != "FedererLipschitz"] + [
    pytest.param(lemma, 0.5, 2, seed, id=f"{lemma}-seed={seed}") for lemma in RANGED_CHECKERS
    for seed in (-1, 1.5, 2**64)])
def test_checkers_reject_negative_k_and_nonpositive_r(lemma, r, k, seed):
    # ... an infinite r, whose inf - inf margins the running max would drop
    # as NaN, and a seed that is not an integer in [0, 2**64), sample's own
    # seed rule
    with pytest.raises(InvalidInput):
        RANGED_CHECKERS[lemma](r, k, seed)


# arguments the checkers must reject before drawing a dense sample, a
# witness pool or a simplex-size cap from them
BAD_ARGUMENTS = {
    "empty-ball trials": lambda: check_empty_ball(Torus(3.0, 1.0), -1, 1),
    "empty-ball seed": lambda: check_empty_ball(Circle(1.0), 5, -1),
    "empty-ball seed 2**64": lambda: check_empty_ball(Circle(1.0), 5, 2**64),
    "empty-ball fractional trials": lambda: check_empty_ball(Circle(1.0), 2.5, 1),
    "intrinsic trials": lambda: check_cech_simplex_lemma(Circle(1.0), 0.5, 3, -2, 1,
                                                         flavor="intrinsic"),
    "intrinsic seed": lambda: check_cech_simplex_lemma(Circle(1.0), 0.5, 3, 2, -1,
                                                       flavor="intrinsic"),
    "intrinsic seed 2**64": lambda: check_cech_simplex_lemma(Circle(1.0), 0.5, 3, 2, 2**64,
                                                             flavor="intrinsic"),
    "fractional k": lambda: check_vr_tub_lemma(Circle(1.0), 0.5, 2.5, 5, 1),
    "fractional k, finite": lambda: check_vr_tub_lemma(
        FinitePointSet(((0.0, 0.0), (0.3, 0.0), (0.0, 0.4))), 0.5, 2.5, 5, 1),
    "fractional trials": lambda: check_convex_lemma(Circle(1.0), 0.5, 2, 5.0, 1),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_checkers_validate_arguments_before_set_up(case):
    with pytest.raises(InvalidInput):
        BAD_ARGUMENTS[case]()


def test_strict_variant_runs_clean():
    rep = check_cech_simplex_lemma(Circle(1.0), 0.5, 3, 40, seed=5,
                                   flavor="ambient", strict=True)
    assert rep.violations == 0


LAZY_SHAPES = (Circle(1.0), Sphere(3, 1.0), Torus(3.0, 1.0), Ellipse(2.0, 1.0))


@st.composite
def lazy_margin_cases(draw):
    """A shape, r below its reach, a generator and a support of 1-6 atoms
    around an on-shape y with weights: on-shape atoms in a patch of y, atoms
    on a line through y, or on-shape atoms whose weight all sits on one
    vertex, so that the retraction point p coincides with it and _augment
    merges it."""
    shape = draw(st.sampled_from(LAZY_SHAPES))
    kind = draw(st.sampled_from(("patch", "collinear", "vertex")))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    r = draw(st.floats(0.05, 0.9)) * reach(shape)
    y = sample_rng(shape, 1, rng)[0]
    if kind == "collinear":
        u = rng.normal(size=y.size)
        pts = y + np.outer(rng.uniform(-r, r, n), u / np.linalg.norm(u))
    elif n == 1:
        pts = y[None, :]
    else:
        rest = _draw_patches(shape, [rng], y[None, :], draw(st.floats(0.01, 2.0)) * r, [n - 1],
                             exclude_center=True)[0]
        assume(rest is not None)
        pts = np.concatenate((y[None, :], rest))
    lam = rng.exponential(size=n)
    if kind == "vertex":
        lam = np.eye(n)[rng.integers(0, n)]
    return shape, r, pts, lam / lam.sum(), y, rng


@settings(max_examples=300, deadline=None)
@given(lazy_margin_cases())
def test_lazy_margins_never_exceed_their_bound(case):
    # the cell runner skips exact() when ub already decides the row, which
    # is sound only if exact() <= ub holds in floats
    shape, r, pts, lam, y, rng = case
    for margin in (_ambient_margin(shape, r), _intrinsic_margin(shape, r, rng)):
        try:
            ub, exact = margin(pts, lam, y)
        except MedialAxisProximity:
            continue
        assert exact() <= ub
