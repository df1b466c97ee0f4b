"""Microbenchmarks of single layers: median microseconds per call of the
program's public functions on benchmark-generated inputs."""
from __future__ import annotations

import statistics
import time

import numpy as np

from inputs import GATE_SHAPES, near_false_tie, on_shape, patch

BATCH_S = 0.01      # a batch runs at least this long
BATCHES = 5         # median over batches; 3 when one call takes over 0.1 s


def per_call_us(fn, inputs) -> float:
    """Median over batches of the mean time per call, cycling through inputs."""
    k = 1
    while True:                     # calibration doubles as warm-up
        t0 = time.perf_counter()
        for j in range(k):
            fn(inputs[j % len(inputs)])
        dt = time.perf_counter() - t0
        if dt >= BATCH_S:
            break
        k *= 2
    samples = []
    for b in range(3 if dt / k > 0.1 else BATCHES):
        t0 = time.perf_counter()
        for j in range(k):
            fn(inputs[(b * k + j) % len(inputs)])
        samples.append(1e6 * (time.perf_counter() - t0) / k)
    return statistics.median(samples)


def _tube_points(name, reach, rng, count):
    """Points within half the reach of the shape (unique projection),
    clear of the ellipse's false-tie band."""
    out = []
    while len(out) < count:
        x = on_shape(name, rng, 1)[0]
        u = rng.normal(size=x.size)
        x = x + 0.5 * reach * rng.random() * u / np.linalg.norm(u)
        if not (name == "ellipse" and near_false_tie(x)):
            out.append(x)
    return out


def _measure_args(rng, n, r=0.9):
    pts = patch("sphere3", rng, n, 0.49 * r)
    w = rng.random(n) + 0.05
    return tuple(map(tuple, pts)), tuple(w / w.sum())


def microbenchmarks(thicken, seed: int) -> dict:
    th = thicken
    rng = np.random.default_rng([seed, 5])
    out = {}

    def put(name, fn, inputs):
        out[name] = (per_call_us(fn, inputs), "us")

    for gs in GATE_SHAPES:
        shape = gs.build(th)
        pts = _tube_points(gs.name, gs.reach, rng, 64)
        put(f"shapes.project_us.{gs.name}", lambda x: th.project(shape, x), pts)
        put(f"shapes.distance_to_shape_us.{gs.name}",
            lambda x: th.distance_to_shape(shape, x), pts)
        srng = np.random.default_rng([seed, 6])
        for n in (1, 128):
            put(f"shapes.sample_rng_us.{gs.name}.n{n}",
                lambda n: th.sample_rng(shape, n, srng), [n])

    for n, d in ((3, 2), (3, 3), (7, 2), (7, 3), (64, 3)):
        sets = [rng.random((n, d)) for _ in range(16)]
        put(f"complexes.min_ball_us.n{n}.d{d}", th.min_enclosing_ball, sets)

    sphere, r = th.Sphere(3, 1.0), 0.9
    simplices = [th.Simplex(_measure_args(rng, 6)[0]) for _ in range(16)]
    vr = th.ComplexSpec("vr", r, shape=sphere)
    ambient = th.ComplexSpec("cech-ambient", 2 * r, shape=sphere)
    intrinsic = th.ComplexSpec("cech-intrinsic", 2 * r, shape=sphere)
    witnesses = tuple(map(tuple, on_shape("sphere3", rng, 1024)))
    put("complexes.is_vr_simplex_us.n6", lambda s: th.is_vr_simplex(s, vr), simplices)
    put("complexes.is_cech_ambient_us.n6",
        lambda s: th.is_cech_simplex_ambient(s, ambient), simplices)
    put("complexes.is_cech_intrinsic_us.n6.w1024",
        lambda s: th.is_cech_simplex_intrinsic(s, intrinsic, witnesses), simplices)

    for n in (7, 64):
        put(f"transport.measure_build_us.n{n}", lambda a: th.Measure(*a),
            [_measure_args(rng, n) for _ in range(16)])
    measures = [th.Measure(*_measure_args(rng, 6)) for _ in range(16)]
    put("thickening.make_thickening_point_us.vr.n6",
        lambda m: th.make_thickening_point(m, vr), measures)
    points = [th.make_thickening_point(m, vr) for m in measures]
    put("retraction.homotopy_H_us.n6", lambda tp: th.homotopy_H(tp, 0.5), points)

    for n in (4, 7, 16, 32, 64):
        pairs = [(th.Measure(*_measure_args(rng, n)), th.Measure(*_measure_args(rng, n)))
                 for _ in range(16 if n <= 16 else 3)]
        put(f"transport.w1_us.n{n}", lambda ab: th.wasserstein1(*ab), pairs)

    text = (f"{GATE_SHAPES[3].descriptor} r=0.5,0.9 k=5 trials=200 seed={seed} flavor=vr "
            "lemmas=Convex,VrTub,VrSimplex,EmptyBall,FedererLipschitz")
    put("harness.parse_config_us", th.parse_config, [text])
    return out
