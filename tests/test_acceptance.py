"""Acceptance gate: eleven scripted criteria, each with stated tolerances and
wall-clock budgets, each printing one PASS/FAIL line. Run with -s to see the
lines as they happen; `pytest -v` shows one verdict per criterion either way.
"""
import math
import time

import numpy as np
import pytest

from thicken import (
    Circle,
    ComplexSpec,
    Ellipse,
    Measure,
    Sphere,
    Torus,
    check_cech_radius_lemma,
    check_cech_simplex_lemma,
    check_empty_ball,
    check_federer,
    check_vr_simplex_lemma,
    estimate_reach,
    homotopy_H,
    inclusion_iota,
    linear_projection_f,
    make_thickening_point,
    min_enclosing_ball,
    reach,
    retract,
    thickening_distance,
    wasserstein1,
)
from thicken.harness import s0_tightness_experiment

from test_complexes import oracle_min_ball
from test_thickening import vr_measure_on
from test_transport import oracle_wasserstein1, random_measure

# the four standard shapes with the near-reach scale 0.9 * reach
SHAPES4 = (
    (Circle(1.0), 0.9),
    (Ellipse(2.0, 1.0), 0.45),
    (Sphere(3, 1.0), 0.9),
    (Torus(3.0, 1.0), 0.9),
)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d} [{name}]: {detail}",
          flush=True)
    assert ok, f"criterion {num} [{name}]: {detail}"


def test_criterion_01_wasserstein_matches_oracle():
    # 1000 random instances, |support| product <= 16, relative error <= 1e-9,
    # under 10 s
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        mu = random_measure(rng, max_atoms=4, dim=dim)
        nu = random_measure(rng, max_atoms=4, dim=dim)
        got, _ = wasserstein1(mu, nu)
        want = oracle_wasserstein1(mu, nu)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 10.0
    _report(1, "wasserstein-vs-oracle", ok,
            f"1000 instances, worst rel err {worst:.3g} (tol 1e-9), {dt:.1f}s (budget 10s)")


def test_criterion_02_min_ball_matches_oracle():
    # 1000 random point sets of <= 8 points in R^2 and R^3, radius error
    # <= 1e-9, under 10 s
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 4))
        pts = rng.normal(size=(n, d)) * (10.0 ** rng.integers(-2, 3))
        got = min_enclosing_ball(pts)
        _, want = oracle_min_ball(pts)
        worst = max(worst, abs(got.radius - want) / max(1.0, want))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 10.0
    _report(2, "min-ball-vs-oracle", ok,
            f"1000 instances, worst rel err {worst:.3g} (tol 1e-9), {dt:.1f}s (budget 10s)")


def test_criterion_03_vr_simplex_retraction_zero_violations():
    # 10^4 trials per shape at 0.9 * reach, simplices up to 6 vertices:
    # adjoining the retraction point never breaks the diameter bound
    t0 = time.perf_counter()
    total = viol = starved = 0
    for shape, r in SHAPES4:
        rep = check_vr_simplex_lemma(shape, r, 5, 10000, seed=11)
        total += rep.trials
        viol += rep.violations
        starved += rep.starved
    dt = time.perf_counter() - t0
    ok = viol == 0 and starved == 0 and total >= 4 * 9900 and dt < 60.0
    _report(3, "vr-simplex-stability", ok,
            f"{total} trials over 4 shapes, {viol} violations, {starved} starved, "
            f"{dt:.1f}s (budget 60s)")


def test_criterion_04_cech_suites_strict_and_nonstrict():
    # min-ball flavor at radius bound 0.9 * reach: hull-point coverage plus
    # ambient and intrinsic retraction stability, both strictness modes,
    # 10^4 trials per cell, intrinsic witness pools of 1024 >= 10^3
    t0 = time.perf_counter()
    total = viol = starved = 0
    for shape, r in SHAPES4:
        for strict in (False, True):
            for rep in (
                check_cech_radius_lemma(shape, r, 5, 10000, seed=12, strict=strict),
                check_cech_simplex_lemma(shape, r, 5, 10000, seed=12,
                                         flavor="ambient", strict=strict),
                check_cech_simplex_lemma(shape, r, 5, 10000, seed=12,
                                         flavor="intrinsic", strict=strict),
            ):
                total += rep.trials
                viol += rep.violations
                starved += rep.starved
    dt = time.perf_counter() - t0
    ok = viol == 0 and starved == 0 and total >= 24 * 9900 and dt < 120.0
    _report(4, "cech-suites", ok,
            f"{total} trials over 24 cells (4 shapes x 3 suites x 2 strictness), "
            f"{viol} violations, {starved} starved, {dt:.1f}s (budget 120s)")


def test_criterion_05_federer_projection_lipschitz():
    # 10^4 tube-point pairs per shape at r = reach/2: projection is
    # reach/(reach - r)-Lipschitz
    t0 = time.perf_counter()
    total = viol = 0
    for shape, _ in SHAPES4:
        rep = check_federer(shape, 0.5 * reach(shape), 10000, seed=13)
        total += rep.trials
        viol += rep.violations
    dt = time.perf_counter() - t0
    ok = viol == 0 and total >= 4 * 9900 and dt < 20.0
    _report(5, "federer-lipschitz", ok,
            f"{total} pairs over 4 shapes, {viol} violations, {dt:.1f}s (budget 20s)")


def test_criterion_06_empty_tangent_ball():
    # 10^4 trials per shape against 10^4-point dense samples: the open
    # tangent ball of radius reach contains no sampled shape point beyond
    # tolerance 1e-6
    t0 = time.perf_counter()
    total = viol = 0
    worst = -math.inf
    for shape, _ in SHAPES4:
        rep = check_empty_ball(shape, 10000, seed=14)
        total += rep.trials
        viol += rep.violations
        if math.isfinite(rep.worst_margin):
            worst = max(worst, rep.worst_margin)
    dt = time.perf_counter() - t0
    ok = viol == 0 and total >= 4 * 9900 and dt < 30.0
    _report(6, "empty-tangent-ball", ok,
            f"{total} trials over 4 shapes, {viol} violations (tol 1e-6), "
            f"worst margin {worst:.3g}, {dt:.1f}s (budget 30s)")


def test_criterion_07_barycenter_1_lipschitz():
    # 10^3 random pairs of thickening points per shape: barycenter
    # displacement never exceeds the Wasserstein distance (slack 1e-9)
    rng = np.random.default_rng(107)
    t0 = time.perf_counter()
    checked = bad = 0
    for shape, r in SHAPES4:
        spec = ComplexSpec("vr", r, shape=shape)
        for _ in range(1000):
            a = make_thickening_point(
                vr_measure_on(shape, r, int(rng.integers(1, 6)), rng), spec)
            b = make_thickening_point(
                vr_measure_on(shape, r, int(rng.integers(1, 6)), rng), spec)
            lhs = float(np.linalg.norm(linear_projection_f(a) - linear_projection_f(b)))
            if lhs > thickening_distance(a, b) + 1e-9:
                bad += 1
            checked += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and checked == 4000 and dt < 20.0
    _report(7, "barycenter-1-lipschitz", ok,
            f"{checked} pairs over 4 shapes, {bad} exceedances (slack 1e-9), "
            f"{dt:.1f}s (budget 20s)")


def test_criterion_08_homotopy_endpoints_and_continuity():
    # 10^3 thickening points per shape: t=1 reproduces the point and t=0 the
    # included retraction within 1e-10; any two t-grid values move the point
    # at most |t - s| * r + 1e-9; every intermediate validates
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    checked = bad = 0
    for shape, r in SHAPES4:
        spec = ComplexSpec("vr", r, shape=shape)
        for _ in range(1000):
            tp = make_thickening_point(
                vr_measure_on(shape, r, int(rng.integers(1, 6)), rng), spec)
            p = retract(tp)
            hs = [homotopy_H(tp, t) for t in grid]  # SimplexViolation = FAIL
            good = thickening_distance(hs[-1], tp) <= 1e-10
            good &= thickening_distance(hs[0], inclusion_iota(p, spec)) <= 1e-10
            for i, (s, ha) in enumerate(zip(grid, hs)):
                for t, hb in zip(grid[i + 1:], hs[i + 1:]):
                    good &= thickening_distance(ha, hb) <= (t - s) * r + 1e-9
            bad += not good
            checked += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and checked == 4000 and dt < 30.0
    _report(8, "homotopy-endpoints-continuity", ok,
            f"{checked} points over 4 shapes, {bad} failures "
            f"(endpoint tol 1e-10, step bound |t-s|*r + 1e-9), {dt:.1f}s (budget 30s)")


def test_criterion_09_zero_sphere_tightness():
    # the two-point shape: the balanced pair enters the min-ball complex
    # exactly at scale 2 = 2 * reach, its barycenter projection is medial,
    # and every suite passes strictly below
    t0 = time.perf_counter()
    res = s0_tightness_experiment()
    dt = time.perf_counter() - t0
    ok = res.verdict == "PASS" and dt < 1.0
    _report(9, "zero-sphere-tightness", ok,
            f"verdict {res.verdict}, {len(res.rows)} facts, {dt:.2f}s (budget 1s)")


def test_criterion_10_reach_estimation():
    # grid-based medial-axis estimate vs closed forms: 1% on circle and
    # ellipse, 5% on torus, under 60 s
    t0 = time.perf_counter()
    errs = {}
    for shape, density, tol in ((Circle(1.0), 200, 0.01),
                                (Ellipse(2.0, 1.0), 400, 0.01),
                                (Torus(3.0, 1.0), 60, 0.05)):
        est = estimate_reach(shape, density)
        errs[type(shape).__name__] = (abs(est - reach(shape)) / reach(shape), tol)
    dt = time.perf_counter() - t0
    ok = all(err <= tol for err, tol in errs.values()) and dt < 60.0
    detail = ", ".join(f"{k} {err:.3%} (tol {tol:.0%})" for k, (err, tol) in errs.items())
    _report(10, "reach-estimation", ok, f"{detail}, {dt:.1f}s (budget 60s)")


def test_criterion_11_csv_byte_determinism(monkeypatch):
    # the criterion-3 cells rerun under different worker counts must emit
    # byte-identical CSV rows
    t0 = time.perf_counter()
    rows = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("THICKEN_THREADS", threads)
        rows[threads] = "\n".join(
            ",".join(check_vr_simplex_lemma(shape, r, 5, 10000, seed=11).csv_fields().values())
            for shape, r in SHAPES4)
    dt = time.perf_counter() - t0
    ok = rows["1"] == rows["4"] and len(rows["1"].splitlines()) == 4
    _report(11, "csv-byte-determinism", ok,
            f"4 rows x threads {{1,4}} identical: {rows['1'] == rows['4']}, {dt:.1f}s")
