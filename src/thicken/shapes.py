"""Parametric positive-reach subsets of R^n.

Each shape kind carries exact closed forms for reach, nearest-point
projection, and distance-to-set, plus a seeded on-shape sampler. A
brute-force grid estimator of reach (medial-axis near-tie scan) serves as
an independent oracle for the closed forms.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, InvalidInput, MedialAxisProximity, SizeLimit,
                     UnsupportedShape)
from .euclid import (EPS_MED, as_point, as_points, coincident_pair, dot_norms, row_norms,
                     square_distances)

__all__ = [
    "Shape",
    "Circle",
    "Ellipse",
    "Sphere",
    "Torus",
    "ZeroSphere",
    "FinitePointSet",
    "SHAPE_KINDS",
    "ambient_dim",
    "reach",
    "project",
    "project_rows",
    "distance_to_shape",
    "finite_points",
    "sample",
    "sample_rng",
    "sample_stacked",
    "estimate_reach",
    "shape_label",
]

# the largest ambient dimension of a Sphere: one point costs dim normals
MAX_SPHERE_DIM = 64


class Shape:
    """A closed subset of R^n with positive reach.

    Each kind is a frozen dataclass whose fields are its descriptor
    parameters (``kind`` names it in configs). It supplies ``ambient_dim``,
    ``reach`` and ``label``; the row forms ``distance_rows(X)`` and
    ``project_rows(X)`` on validated (k, n) rows (see project_rows), whose
    one-row case are ``distance(p)`` and ``project(p)``; ``bounding_box()``;
    and either ``finite_points()`` (finite kinds) or ``intrinsic_measure()``
    (continuous kinds), which size the reach estimator's witness pool.
    Callers go through the module functions, which check the argument is a
    shape and validate points.

    Sampling: ``sample_stacked(rngs, count, centers=None, radius=None)``
    gives, for each generator in turn, ``count`` uniform points on the shape
    (one count for all, or one per generator), or with ``centers`` (one row
    per generator) uniform points on the patch within Euclidean ``radius``
    of that generator's center. A continuous kind proposes candidates in a
    window of its parameters about the center (``_window``), or in its
    ``_whole`` window, from ``_width`` uniforms and ``_normals`` normals
    each, and ``_propose`` thins them to the area element. Each
    round, every generator still short of its count by `need` draws 2 need
    + 4 candidates and keeps the first `need` that pass the thinning and the
    exact distance test. Whole-shape draws go on until every generator is
    full; a patch generator still short after _ROUNDS rounds gives fewer
    rows, which the counts show. Each generator makes its own draws in its
    own order whatever else is stacked with it; only the elementwise work
    between draws is stacked. A finite kind picks uniform rows of itself, or
    of its patch.
    """

    _normals = 0

    def distance(self, p) -> float:
        return float(self.distance_rows(p[None])[0])

    def project(self, p):
        feet, tied = self.project_rows(p[None])
        if tied[0]:
            raise MedialAxisProximity("nearest points tie: the input is on or near the medial axis")
        return feet[0]

    def finite_points(self):
        """The shape's points as a (k, n) array when it is finite, else None."""
        return None

    def sample_stacked(self, rngs, count, centers=None, radius=None):
        """(rows, counts): the rows of every generator of ``rngs`` in turn,
        counts[i] of them from rngs[i]."""
        need = np.broadcast_to(count, len(rngs)).astype(np.intp)
        fin = self.finite_points()
        if fin is not None or not len(rngs):
            pools = ([fin] * len(rngs) if centers is None
                     else [fin[row_norms(fin - c) <= radius] for c in centers])
            parts = [_pick(pool, n, rng) for pool, n, rng in zip(pools, need.tolist(), rngs)]
            return (np.concatenate(parts) if parts else np.empty((0, self.ambient_dim)),
                    np.array([p.shape[0] for p in parts], np.intp))
        window = self._whole if centers is None else self._window(centers, radius)
        rows, owners = [], []
        todo = np.arange(len(rngs))
        rounds = 0
        while todo.size and (centers is None or rounds < _ROUNDS):
            rounds += 1
            m = 2 * need[todo] + 4
            owner = np.repeat(todo, m)
            u, g = _draws([rngs[i] for i in todo.tolist()], m, self._width, self._normals)
            accept, pts = self._propose(u, g, window if centers is None else window[owner])
            if centers is not None:
                accept &= row_norms(pts - centers[owner]) <= radius
            # each generator keeps its first `need` accepted candidates
            taken = np.cumsum(accept)
            ends = np.cumsum(m) - 1
            before = np.concatenate(([0], taken[ends[:-1]]))
            keep = accept & (taken - np.repeat(before, m) <= need[owner])
            rows.append(pts[keep])
            owners.append(owner[keep])
            need[todo] -= np.minimum(taken[ends] - before, need[todo])
            todo = todo[need[todo] > 0]
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        return np.concatenate(rows)[order], np.bincount(owner, minlength=len(rngs))


class _RoundSphere(Shape):
    """Closed forms and the sampler shared by Circle and Sphere: the round
    sphere of ``radius`` about the origin of R^ambient_dim.

    Whole-sphere draws are normalized Gaussians. A patch is drawn from the
    cap about the pole c/|c| that holds every point within radius of the
    center c: the polar angle is uniform on [0, psi0] and thinned to
    sin^(n-2), the area element, and the direction is a Gaussian made normal
    to the pole."""

    _width = 2

    @property
    def _normals(self):
        return self.ambient_dim

    @property
    def reach(self) -> float:
        return self.radius

    def distance_rows(self, X):
        return np.abs(dot_norms(X) - self.radius)

    def project_rows(self, X):
        nrm = dot_norms(X)
        tied = nrm <= self.radius * EPS_MED
        return X * (self.radius / (nrm + tied))[:, None], tied  # a tie divides by nrm + 1

    def bounding_box(self):
        r = self.radius
        return np.array([[-r] * self.ambient_dim, [r] * self.ambient_dim])

    def intrinsic_measure(self):
        """(dimension, area) of the (n-1)-sphere of this radius."""
        n = self.ambient_dim
        return n - 1, 2.0 * math.pi ** (n / 2) / math.gamma(n / 2) * self.radius ** (n - 1)

    def sample_stacked(self, rngs, count, centers=None, radius=None):
        if centers is not None:
            return super().sample_stacked(rngs, count, centers, radius)
        counts = np.broadcast_to(count, len(rngs)).astype(np.intp)
        return self._on_sphere(_draws(rngs, counts, 0, self.ambient_dim)[1]), counts

    def _on_sphere(self, g):
        return g * (self.radius / row_norms(g))[:, None]

    def _window(self, centers, radius):
        # rows (pole, psi0, the largest sin^(n-2) on [0, psi0]). A point an
        # angle psi from the pole lies at least 2 sqrt(R |c|) sin(psi / 2)
        # from c; a center at the origin takes the first axis as its pole
        n = self.ambient_dim
        norms = row_norms(centers)
        pole = np.zeros_like(centers)
        pole[:, 0] = 1.0
        np.divide(centers, norms[:, None], out=pole, where=norms[:, None] > 0)
        psi0 = _angle_window(radius + 1e-9 * (self.radius + norms), self.radius * norms)
        top = np.where(psi0 < 0.5 * math.pi, np.sin(psi0) ** (n - 2), 1.0)
        return np.column_stack([pole, psi0, top])

    def _propose(self, u, g, w):
        n = self.ambient_dim
        pole = w[:, :n]
        psi = w[:, n] * u[:, 0]
        sin = np.sin(psi)
        perp = g - (g * pole).sum(axis=1)[:, None] * pole
        perp *= (sin / row_norms(perp))[:, None]
        return w[:, n + 1] * u[:, 1] < sin ** (n - 2), self.radius * (
            np.cos(psi)[:, None] * pole + perp)


@dataclass(frozen=True)
class Circle(_RoundSphere):
    """Circle of given radius centered at the origin of R^2."""

    radius: float = 1.0
    kind = "circle"
    ambient_dim = 2

    def __post_init__(self):
        _check_finite(self, "radius")
        if not (self.radius > 0):
            raise UnsupportedShape(f"circle radius must be > 0, got {self.radius}")

    @property
    def label(self) -> str:
        return f"circle(R={self.radius:g})"


@dataclass(frozen=True)
class Sphere(_RoundSphere):
    """Sphere of given radius about the origin of R^dim, 2 <= dim <= MAX_SPHERE_DIM."""

    dim: int = 3
    radius: float = 1.0
    kind = "sphere"

    def __post_init__(self):
        if not isinstance(self.dim, numbers.Integral) or self.dim < 2:  # bools are < 2
            raise UnsupportedShape(f"sphere ambient dim must be an int >= 2, got {self.dim!r}")
        if self.dim > MAX_SPHERE_DIM:
            raise SizeLimit(f"sphere ambient dim must be <= {MAX_SPHERE_DIM}, got {self.dim}")
        _check_finite(self, "radius")
        if not (self.radius > 0):
            raise UnsupportedShape(f"sphere radius must be > 0, got {self.radius}")

    @property
    def ambient_dim(self) -> int:
        return self.dim

    @property
    def label(self) -> str:
        return f"sphere(dim={self.dim},R={self.radius:g})"


@dataclass(frozen=True)
class Ellipse(Shape):
    """Ellipse x^2/a^2 + y^2/b^2 = 1 in R^2 with a >= b > 0."""

    a: float
    b: float
    kind = "ellipse"
    ambient_dim = 2
    _width = 2
    _whole = np.array([[-math.pi, 2.0 * math.pi]])

    def __post_init__(self):
        _check_finite(self, "a", "b")
        if not (self.a >= self.b > 0):
            raise UnsupportedShape(f"ellipse needs a >= b > 0, got a={self.a}, b={self.b}")
        if not 0.0 < self.reach < math.inf:
            raise UnsupportedShape(f"ellipse reach b^2/a = {self.reach} is out of range")

    @property
    def reach(self) -> float:
        return self.b * self.b / self.a

    @property
    def label(self) -> str:
        return f"ellipse(a={self.a:g},b={self.b:g})"

    def _nearest(self, x0, x1):
        """(foot x, foot y, distance, tied) for the point (x0, x1), in Python
        floats: numpy's cost per call exceeds a row's work. Works in the
        first quadrant by symmetry. On the major axis, or so near it that
        b*u2 is lost against b^2, the segment inside the cusp (a^2 - b^2)/a,
        the medial axis, ties, and beyond it the vertex is nearest.
        Elsewhere safeguarded Newton (bisection fallback, 80 iterations,
        residual 1e-12) solves F(t) = (a*u1/(t+a^2))^2 + (b*u2/(t+b^2))^2 - 1
        = 0 on (-b^2, inf), where F strictly decreases; within EPS_MED *
        reach of the medial axis the foot's mirror image ties."""
        a, b = self.a, self.b
        u1, u2 = abs(x0), abs(x1)
        s1 = 1.0 if x0 >= 0 else -1.0
        cusp = (a * a - b * b) / a
        lo = b * u2 - b * b          # F(lo) >= 0 (second term equals 1 there)
        if lo == -b * b:  # on the major axis, or too near it for t to part from -b^2
            if u1 >= cusp:
                return s1 * a, 0.0, abs(u1 - a), False
            c = a * u1 / (a * a - b * b)
            y2 = b * math.sqrt(max(0.0, 1.0 - c * c))
            return s1 * a * c, y2, math.hypot(a * c - u1, y2), True
        hi = math.hypot(a * u1, b * u2) - b * b   # F(hi) <= 0
        if hi <= lo:
            hi = lo + max(1.0, abs(lo))
        t = 0.5 * (lo + hi)
        for _ in range(80):
            p = a * u1 / (t + a * a)
            q = b * u2 / (t + b * b)
            f = p * p + q * q - 1.0
            if abs(f) <= 1e-12:
                break
            if f > 0:
                lo = t
            else:
                hi = t
            df = -2.0 * (p * p / (t + a * a) + q * q / (t + b * b))
            t_new = t - f / df if df != 0 else t
            if not (lo < t_new < hi):
                t_new = 0.5 * (lo + hi)
            if t_new == t:
                break
            t = t_new

        f0 = s1 * a * a * u1 / (t + a * a)
        f1 = (1.0 if x1 >= 0 else -1.0) * b * b * u2 / (t + b * b)
        d = math.hypot(f0 - x0, f1 - x1)
        return f0, f1, d, (f1 != 0.0 and u1 < cusp
                           and math.hypot(f0 - x0, -f1 - x1) - d <= EPS_MED * self.reach)

    def _nearest_rows(self, X):
        rows = map(self._nearest, X[:, 0].tolist(), X[:, 1].tolist())
        return np.array(list(rows), dtype=float).reshape(-1, 4)

    def distance_rows(self, X):
        return self._nearest_rows(X)[:, 2]

    def project_rows(self, X):
        rows = self._nearest_rows(X)
        return rows[:, :2].copy(), rows[:, 3] != 0.0

    def _window(self, centers, radius):
        # rows (first angle, span). Ellipse points an angle t apart lie at
        # least 2 b sin(|t| / 2) apart, so a window about the point c' of c's
        # angle holds every point within radius + |c - c'| of c'
        a, b = self.a, self.b
        t = np.arctan2(a * centers[:, 1], b * centers[:, 0])
        gap = row_norms(centers - np.column_stack([a * np.cos(t), b * np.sin(t)]))
        half = _angle_window(radius + gap + 1e-9 * (a + row_norms(centers)), b * b)
        return np.column_stack([t - half, 2.0 * half])

    def _propose(self, u, g, w):
        # the angle, thinned to arc length
        a, b = self.a, self.b
        t = w[:, 0] + w[:, 1] * u[:, 0]
        cos, sin = np.cos(t), np.sin(t)
        return (a * u[:, 1] < np.sqrt((a * sin) ** 2 + (b * cos) ** 2),
                np.column_stack([a * cos, b * sin]))

    def bounding_box(self):
        return np.array([[-self.a, -self.b], [self.a, self.b]])

    def intrinsic_measure(self):
        """(1, perimeter) by Ramanujan's second approximation."""
        a, b = self.a, self.b
        h = ((a - b) / (a + b)) ** 2
        return 1, math.pi * (a + b) * (1.0 + 3.0 * h / (10.0 + math.sqrt(4.0 - 3.0 * h)))


@dataclass(frozen=True)
class Torus(Shape):
    """Torus of revolution about the z-axis in R^3: tube radius minor around
    a circle of radius major in the z=0 plane. Requires major > minor > 0."""

    major: float
    minor: float
    kind = "torus"
    ambient_dim = 3
    _width = 3
    _whole = np.array([[-math.pi, 2.0 * math.pi, -math.pi, 2.0 * math.pi]])

    def __post_init__(self):
        _check_finite(self, "major", "minor")
        if not (self.major > self.minor > 0):
            raise UnsupportedShape(
                f"torus needs major > minor > 0, got major={self.major}, minor={self.minor}"
            )
        if self.major + self.minor == math.inf:
            raise UnsupportedShape("torus major + minor overflows")

    @property
    def reach(self) -> float:
        return min(self.minor, self.major - self.minor)

    @property
    def label(self) -> str:
        return f"torus(R={self.major:g},rho={self.minor:g})"

    def distance_rows(self, X):
        return np.abs(_hypot(_hypot(X[:, 0], X[:, 1]) - self.major, X[:, 2]) - self.minor)

    def project_rows(self, X):
        # ties on the axis and on the spine circle; a tie divides by its norm + 1
        rho_xy = _hypot(X[:, 0], X[:, 1])
        tied = rho_xy <= self.major * EPS_MED
        spine = X * (self.major / (rho_xy + tied))[:, None]
        spine[:, 2] = 0.0
        v = X - spine
        vn = dot_norms(v)
        tied |= vn <= self.minor * EPS_MED
        return spine + v * (self.minor / (vn + tied))[:, None], tied

    def _window(self, centers, radius):
        # rows (first theta, span, first phi, span). theta: pivot the z-axis,
        # in the xy-plane, where the torus point is at least R - rho out and
        # distances only shrink. phi: pivot the spine point in the meridian
        # half-plane of the torus point, where it is rho away and the center,
        # rotated into that half-plane, no farther than before. The distance
        # takes a 1e-9 relative slack past the rounding of the coordinates
        # and of the exact test.
        R, rho = self.major, self.minor
        cx, cy, cz = centers.T
        axial = np.hypot(cx, cy)
        dist = radius + 1e-9 * (R + rho + axial + np.abs(cz))
        th = _angle_window(dist, (R - rho) * axial)
        ph = _angle_window(dist, rho * np.hypot(axial - R, cz))
        return np.column_stack([np.arctan2(cy, cx) - th, 2.0 * th,
                                np.arctan2(cz, axial - R) - ph, 2.0 * ph])

    def _propose(self, u, g, w):
        # the two angles, thinned to the area element
        R, rho = self.major, self.minor
        th = w[:, 0] + w[:, 1] * u[:, 0]
        ph = w[:, 2] + w[:, 3] * u[:, 1]
        ring = R + rho * np.cos(ph)
        return (R + rho) * u[:, 2] < ring, np.column_stack(
            [ring * np.cos(th), ring * np.sin(th), rho * np.sin(ph)])

    def bounding_box(self):
        e = self.major + self.minor
        return np.array([[-e, -e, -self.minor], [e, e, self.minor]])

    def intrinsic_measure(self):
        return 2, 4.0 * math.pi ** 2 * self.major * self.minor


class _FiniteShape(Shape):
    """Closed forms shared by ZeroSphere and FinitePointSet: the finite set
    of the rows of ``points``. Its reach is half the least distance between
    two of them, and a point ties when its second-nearest row is within
    EPS_MED * max(d1, reach) of its nearest, d1 away. The array of the rows
    and the reach are built once per shape."""

    @cached_property
    def _array(self) -> np.ndarray:
        pts = np.asarray(self.points, dtype=float)
        pts.flags.writeable = False
        return pts

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0])

    @cached_property
    def reach(self) -> float:
        d2 = square_distances(self._array)
        return 0.5 * float(np.sqrt(d2[np.triu_indices(d2.shape[0], k=1)].min()))

    def _distances(self, X):
        """(len(X), k) distances from the rows of X to the points. A square
        distance that overflows is taken again from the difference scaled
        by its largest coordinate, inf where the difference overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = square_distances(X, self._array)
            d = np.sqrt(d2)
            over = np.isinf(d2)
            if over.any():
                diff = (X[:, None] - self._array)[over]
                scale = np.abs(diff).max(axis=1)
                d[over] = np.nan_to_num(scale * row_norms(diff / scale[:, None]), nan=math.inf)
        return d

    def distance_rows(self, X):
        return self._distances(X).min(axis=1)

    def project_rows(self, X):
        d = self._distances(X)
        near = d.argmin(axis=1)
        d.sort(axis=1)
        with np.errstate(invalid="ignore"):  # inf - inf: both distances overflow, a tie
            tied = ~(d[:, 1] - d[:, 0] > EPS_MED * np.maximum(d[:, 0], self.reach))
        return self._array[near], tied

    def finite_points(self):
        return self._array.copy()

    def bounding_box(self):
        return np.vstack([self._array.min(axis=0), self._array.max(axis=0)])


@dataclass(frozen=True)
class ZeroSphere(_FiniteShape):
    """The two-point set {-1, +1} in R^1."""

    kind = "zerosphere"
    points = ((-1.0,), (1.0,))
    label = "zerosphere"


@dataclass(frozen=True)
class FinitePointSet(_FiniteShape):
    """A finite set of at least two distinct points in R^n."""

    points: tuple = field(default=())
    kind = "finite"

    def __post_init__(self):
        pts = as_points(self.points)
        if pts.shape[0] < 2:
            raise UnsupportedShape("finite point set needs at least 2 points")
        object.__setattr__(self, "points", tuple(tuple(p) for p in pts))
        with np.errstate(over="ignore"):  # points 1e308 apart have an infinite reach
            if coincident_pair(pts) is not None:
                raise UnsupportedShape("finite point set has duplicate points")
            if self.reach == math.inf:
                raise UnsupportedShape("finite point set reach overflows")

    @property
    def label(self) -> str:
        return f"finite(n={len(self.points)})"


def _check_finite(shape, *names):
    """Raise UnsupportedShape unless the named fields of shape are finite
    real numbers. Finite parameters keep the whole-shape thinning's
    acceptance above b/a (ellipse) and (R - rho)/(R + rho) (torus), so
    whole-shape sampling ends."""
    for name in names:
        value = getattr(shape, name)
        if not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
            raise UnsupportedShape(f"{shape.kind} {name} must be a finite real, got {value!r}")


# rounds of a patch sampler before a generator still short gives up
_ROUNDS = 64


def _draws(rngs, m, width, normals):
    """(u, g): generator i's m[i] candidates take the rows of
    rngs[i].random((m[i], width)), then of rngs[i].standard_normal((m[i],
    normals)), the generators in turn; u is None at width 0, g at normals 0."""
    total = int(np.sum(m))
    u = np.empty((total, width)) if width else None
    g = np.empty((total, normals)) if normals else None
    start = 0
    for rng, stop in zip(rngs, np.cumsum(m).tolist()):
        if width:
            rng.random(out=u[start:stop])
        if normals:
            rng.standard_normal(out=g[start:stop])
        start = stop
    return u, g


def _angle_window(dist, scale):
    """Half-widths, plus 1e-9, of the angle windows about centers that hold
    every point within `dist` of them. Two points at distances q and q' from
    a pivot, an angle t apart about it, lie at least 2 sqrt(q q') sin(|t| / 2)
    apart, so a point within dist has |t| <= 2 asin(dist / (2 sqrt(scale)))
    for any scale <= q q'; pi (no window) where that bound covers the turn."""
    with np.errstate(divide="ignore"):
        x = dist / (2.0 * np.sqrt(scale))
    return np.minimum(2.0 * np.arcsin(np.minimum(x, 1.0)) + 1e-9, math.pi)


def _hypot(x, y):
    """math.hypot of each pair of entries: np.hypot differs on some pairs."""
    return np.array(list(map(math.hypot, x.tolist(), y.tolist())))


def _pick(points, count, rng):
    """`count` uniform rows, none of none."""
    if not points.shape[0]:
        return points
    return points[rng.integers(0, points.shape[0], size=count)]


# descriptor kind -> shape class
SHAPE_KINDS = {cls.kind: cls
               for cls in (Circle, Ellipse, Sphere, Torus, ZeroSphere, FinitePointSet)}


# ---------------------------------------------------------------------------
# module functions: the one kind check, then the shape's own closed form


def _shape(obj) -> Shape:
    if not isinstance(obj, Shape):
        raise UnsupportedShape(f"unsupported shape {obj!r}")
    return obj


def ambient_dim(shape) -> int:
    return _shape(shape).ambient_dim


def reach(shape) -> float:
    """Exact reach by closed form."""
    return _shape(shape).reach


def shape_label(shape) -> str:
    """Canonical short label used in CSV rows and reports."""
    return _shape(shape).label


def finite_points(shape):
    """The points of a finite shape as a (k, n) array; None for a continuous one."""
    return _shape(shape).finite_points()


def distance_to_shape(shape, x) -> float:
    """Distance from x to the shape; defined everywhere."""
    return _shape(shape).distance(as_point(x, dim=shape.ambient_dim))


def project(shape, x) -> np.ndarray:
    """Unique nearest point on the shape.

    Raises MedialAxisProximity when two nearest-point candidates tie within
    relative EPS_MED, i.e. when x sits at (or numerically near) the medial
    axis. Uniqueness everywhere else follows from each kind's geometry;
    inside the reach tube it is guaranteed for every kind.
    """
    return _shape(shape).project(as_point(x, dim=shape.ambient_dim))


def project_rows(shape, X) -> tuple:
    """(feet, tied) for the (k, n) points X: tied[i] where project(shape,
    X[i]) raises MedialAxisProximity, else feet[i] is its answer, with the
    same bits whatever rows are stacked with X[i]."""
    return _shape(shape).project_rows(as_points(X, dim=shape.ambient_dim))


def _check_count(count) -> None:
    if (type(count) is not int and not isinstance(count, numbers.Integral)) or count < 1:
        raise InvalidInput(f"count must be >= 1 and an integer, got {count!r}")


def _check_seed(seed) -> None:
    """The one rule on a seed, of sample and of the checkers' trial streams:
    an integer in [0, 2**64), the first word of a trial's Philox key."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise InvalidInput(f"seed must be >= 0 and an integer below 2**64, got {seed!r}")


def sample_rng(shape, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` on-shape points using the supplied generator."""
    _check_count(count)
    return _shape(shape).sample_stacked((rng,), count)[0]


def sample_stacked(shape, rngs, count, centers=None, radius=None) -> tuple:
    """(rows, counts): for each generator of the sequence `rngs` in turn,
    `count` (an integer, or one per generator) uniform points on the shape,
    as sample_rng draws them; or with `centers` (one row per generator)
    uniform points on the patch within Euclidean `radius` of the
    generator's center. counts[i] rows come from rngs[i]; a generator
    whose patch sampler runs out of rounds gives fewer (see Shape)."""
    if np.ndim(count) == 0:
        _check_count(count)
    else:
        counts = np.asarray(count)
        if counts.shape != (len(rngs),) or counts.dtype.kind not in "iu" or (
                counts.size and counts.min() < 1):
            raise InvalidInput(f"count must be >= 1 and an integer, or one per generator, "
                               f"got {count!r}")
    return _shape(shape).sample_stacked(rngs, count, centers, radius)


def sample(shape, count: int, seed: int) -> np.ndarray:
    """Deterministic on-shape sampler; same seed, same points."""
    _check_seed(seed)
    return sample_rng(shape, count, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# brute-force reach estimation (oracle)


def _lattice_points(center, lo, hi, h):
    """Lattice center + k*h clipped to [lo, hi]; returns (points, int keys).

    Anchoring every level's grid to the same lattice center keeps the
    shape's symmetry rows/planes exactly on-grid, where true nearest-point
    ties are exact and the tie test needs only sampling-noise tolerance.
    """
    axes = []
    for i in range(center.size):
        k_lo = math.ceil((lo[i] - center[i]) / h - 1e-12)
        k_hi = math.floor((hi[i] - center[i]) / h + 1e-12)
        axes.append(np.arange(k_lo, k_hi + 1, dtype=np.int64))
    mesh = np.meshgrid(*axes, indexing="ij")
    keys = np.column_stack([m.ravel() for m in mesh])
    return center + keys * h, keys


def _sep_hit(wd, wi, pool, tie, sep_lo, gamma):
    """Vector sep test: some witness ties the nearest distance while sitting
    well away from the nearest foot."""
    d1 = wd[:, 0]
    feet = pool[wi[:, 0]]
    sep = np.linalg.norm(pool[wi] - feet[:, None, :], axis=2)
    sep_req = np.minimum(np.maximum(gamma * np.sqrt(d1 * tie), sep_lo), 1.4 * d1)
    near = wd <= (d1 + tie)[:, None]
    return (near & (sep >= sep_req[:, None])).any(axis=1)


def _flag_ties(grid_pts, tree, pool, tie, sep_lo, gamma, floor):
    """One tie scan. A grid point is a medial-axis candidate when some pool
    witness, well separated from its nearest foot, lies within tie of the
    nearest distance. Points where all k nearest witnesses tie at once get
    deeper witness queries before the same test. Returns mask, d1."""
    m = grid_pts.shape[0]
    flagged = np.empty(m, dtype=bool)
    d1 = np.empty(m)
    for start in range(0, m, 65536):
        block = grid_pts[start:start + 65536]
        hit = np.zeros(block.shape[0], dtype=bool)
        b_d1 = None
        todo = np.arange(block.shape[0])
        for k in (16, 128, 1024):
            k = min(k, pool.shape[0])
            wd, wi = tree.query(block[todo], k=k, workers=-1)
            if b_d1 is None:
                b_d1 = wd[:, 0].copy()
                eligible = b_d1 >= floor
            sub_hit = _sep_hit(wd, wi, pool, tie, sep_lo, gamma) & eligible[todo]
            hit[todo[sub_hit]] = True
            crowded = eligible[todo] & ~sub_hit & (wd[:, -1] <= wd[:, 0] + tie)
            todo = todo[crowded]
            if todo.size == 0 or k == pool.shape[0]:
                break
        flagged[start:start + 65536] = hit
        d1[start:start + 65536] = b_d1
    return flagged, d1


def estimate_reach(shape, grid_density: int) -> float:
    """Grid-scan estimate of reach.

    Scans an ambient lattice, marks points whose nearest-shape distance is
    nearly tied by a well-separated second witness (medial-axis candidates),
    and returns the smallest nearest-shape distance over the marked set,
    zooming the scan around the best candidates for three refinement levels.
    Converges to the reach as density grows.
    """
    from scipy.spatial import cKDTree

    n = ambient_dim(shape)
    if n > 3:
        raise DimensionMismatch(f"estimate_reach supports ambient dim <= 3, got {n}")
    if not isinstance(grid_density, numbers.Integral) or grid_density < 2:
        raise InvalidInput(f"grid_density must be an integer >= 2, got {grid_density!r}")

    box = shape.bounding_box()
    center = 0.5 * (box[0] + box[1])
    extent = box[1] - box[0]
    span = float(extent.max())
    pad = 0.06 * span
    lo0, hi0 = box[0] - pad, box[1] + pad
    h0 = float((hi0 - lo0).max()) / grid_density

    rng = np.random.default_rng(20260813)
    pool = shape.finite_points()
    if pool is not None:
        spacing = 0.0
    else:
        idim, size = shape.intrinsic_measure()
        if idim == 1:
            pool = sample_rng(shape, 12000, rng)
            spacing = size / pool.shape[0]
        else:
            pool = sample_rng(shape, 60000, rng)
            spacing = math.sqrt(size / pool.shape[0])
    tree = cKDTree(pool)

    tau_hat = 0.5 * float(extent.min())
    gamma = 70.0
    best = math.inf
    windows = [(lo0, hi0)]
    h = h0
    for level in range(4):
        parts = []
        seen = set()
        for w_lo, w_hi in windows:
            pts, keys = _lattice_points(center, np.maximum(w_lo, lo0), np.minimum(w_hi, hi0), h)
            if pts.shape[0] == 0:
                continue
            fresh = [i for i, key in enumerate(map(tuple, keys)) if key not in seen]
            seen.update(map(tuple, keys[fresh]))
            parts.append((pts[fresh], keys[fresh]))
        if not parts:
            h /= 6.0
            continue
        grid_pts = np.vstack([p for p, _ in parts])
        grid_keys = np.vstack([k for _, k in parts])
        noise = spacing * spacing / (2.0 * max(tau_hat, 1e-9))
        tie = 3.0 * noise + 1e-12 * max(1.0, span)
        floor = max(4.0 * tie, 3.0 * spacing,
                    0.35 * (best if math.isfinite(best) else 0.0))
        mask, d1 = _flag_ties(grid_pts, tree, pool, tie, 6.0 * spacing, gamma, floor)
        if not mask.any():
            # no exact-symmetry ties on this lattice; allow grid-offset slack
            tie = max(tie, 0.45 * h)
            mask, d1 = _flag_ties(grid_pts, tree, pool, tie, 6.0 * spacing, gamma, floor)
        if not mask.any():
            h /= 6.0
            continue
        cand_pts = grid_pts[mask]
        cand_keys = grid_keys[mask]
        cand_d1 = d1[mask]
        prev = best
        best = float(cand_d1.min())
        tau_hat = best
        if math.isfinite(prev) and abs(prev - best) <= 0.25 * tie:
            break
        keep = cand_d1 <= best * 1.35 + 2.0 * tie
        cand_pts, cand_keys, cand_d1 = cand_pts[keep], cand_keys[keep], cand_d1[keep]
        order = np.argsort(cand_d1, kind="stable")
        cand_pts, cand_keys = cand_pts[order], cand_keys[order]
        # cluster kept candidates on an 8-cell lattice, 64 windows max
        # widen windows by the structural bias scale when the separation
        # requirement is below the antipodal cap (cusp-style minimizers)
        sep_est = gamma * math.sqrt(best * tie)
        ext = 1.5 * h
        if sep_est < 1.4 * best:
            ext += 0.6 * sep_est * sep_est / max(best, 1e-9)
        boxes = {}
        for p, key in zip(cand_pts, cand_keys):
            ck = tuple(key // 8)
            if ck in boxes:
                b_lo, b_hi = boxes[ck]
                boxes[ck] = (np.minimum(b_lo, p), np.maximum(b_hi, p))
            else:
                boxes[ck] = (p.copy(), p.copy())
            if len(boxes) > 64:
                break
        h /= 6.0
        # budget the next level's lattice points: drop worst windows first,
        # then coarsen the step if even the best window alone is too big
        raw = [(b_lo - ext, b_hi + ext) for b_lo, b_hi in boxes.values()]
        while True:
            windows = []
            total = 0
            for w_lo, w_hi in raw:
                count = int(np.prod(np.floor((w_hi - w_lo) / h) + 1))
                if windows and total + count > 300000:
                    break
                total += count
                windows.append((w_lo, w_hi))
            if total <= 300000 or h >= h0:
                break
            h *= 1.5

    if not math.isfinite(best):
        raise InvalidInput("no medial-axis candidates found; increase grid_density")
    return best
