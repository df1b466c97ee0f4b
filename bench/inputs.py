"""Seeded inputs for the benchmark, generated without the program.

The four gate shapes carry their own parametrizations and closed forms here,
so that inputs and reference values stay independent of the library's
samplers and projections.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GateShape:
    name: str          # metric suffix: circle, ellipse, sphere3, torus
    descriptor: str    # campaign config tokens
    reach: float       # closed form

    def build(self, thicken):
        """The program's shape object for this descriptor."""
        return {
            "circle": lambda: thicken.Circle(1.0),
            "ellipse": lambda: thicken.Ellipse(2.0, 1.0),
            "sphere3": lambda: thicken.Sphere(3, 1.0),
            "torus": lambda: thicken.Torus(3.0, 1.0),
        }[self.name]()


GATE_SHAPES = (
    GateShape("circle", "shape=circle radius=1", 1.0),
    GateShape("ellipse", "shape=ellipse a=2 b=1", 0.5),   # b^2 / a
    GateShape("sphere3", "shape=sphere dim=3 radius=1", 1.0),
    GateShape("torus", "shape=torus major=3 minor=1", 1.0),
)


def on_shape(name: str, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` points on the shape, from its parametrization."""
    if name == "circle":
        th = rng.uniform(0.0, 2.0 * math.pi, count)
        return np.column_stack([np.cos(th), np.sin(th)])
    if name == "ellipse":
        th = rng.uniform(0.0, 2.0 * math.pi, count)
        return np.column_stack([2.0 * np.cos(th), np.sin(th)])
    if name == "sphere3":
        g = rng.normal(size=(count, 3))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    th, ph = rng.uniform(0.0, 2.0 * math.pi, (2, count))
    return _torus(th, ph)


def _torus(th, ph):
    ring = 3.0 + np.cos(ph)
    return np.column_stack([ring * np.cos(th), ring * np.sin(th), np.sin(ph)])


def patch(name: str, rng: np.random.Generator, natoms: int, radius: float) -> np.ndarray:
    """`natoms` distinct on-shape points, each within `radius` of the first.

    Companions come from parameter steps whose image is provably within
    `radius` of the anchor (speed bound of the parametrization), so the
    sampler never rejects and never starves, whatever the support size."""
    if name in ("circle", "ellipse"):
        a = 1.0 if name == "circle" else 2.0          # max |d/dθ (a cos θ, sin θ)| = a
        dth = rng.uniform(-1.0, 1.0, natoms) * radius / a
        dth[0] = 0.0
        th = rng.uniform(0.0, 2.0 * math.pi) + dth
        pts = np.column_stack([a * np.cos(th), np.sin(th)])
    elif name == "sphere3":
        anchor = on_shape("sphere3", rng, 1)[0]
        steps = rng.normal(size=(natoms, 3))
        steps -= np.outer(steps @ anchor, anchor)     # tangent at the anchor
        steps *= (radius * rng.random(natoms) / np.linalg.norm(steps, axis=1))[:, None]
        steps[0] = 0.0
        pts = anchor + steps                          # normalizing shortens the chord
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    else:
        # |dX| <= 4|dθ| + |dφ| on the 3/1 torus
        th0, ph0 = rng.uniform(0.0, 2.0 * math.pi, 2)
        dth = rng.uniform(-1.0, 1.0, natoms) * radius / 8.0
        dph = rng.uniform(-1.0, 1.0, natoms) * radius / 2.0
        dth[0] = dph[0] = 0.0
        pts = _torus(th0 + dth, ph0 + dph)
    gaps = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    if natoms > 1 and gaps[np.triu_indices(natoms, 1)].min() <= 1e-9 * radius:
        return patch(name, rng, natoms, radius)       # coincident draw: redraw
    return pts


def near_false_tie(x: np.ndarray) -> bool:
    """Within 1e-3 of the ellipse's major axis beyond the evolute cusp
    (|x| > (a^2 - b^2) / a = 1.5), where the program's ellipse projection
    reports a medial-axis tie that is not there (observed up to |y| = 1.6e-4)."""
    return abs(x[0]) > 1.5 and abs(x[1]) < 1e-3
