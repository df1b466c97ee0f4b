"""Points of metric thickenings: finitely supported measures whose support
sets pass a complex's simplex predicate, together with the linear barycenter
projection, the Dirac inclusion, and the Wasserstein distance between points
of the same thickening.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import ComplexSpec, is_simplex, membership_quantity
from .errors import InvalidInput, SimplexViolation, SpecMismatch
from .euclid import as_point, band, norm
from .shapes import distance_to_shape
from .transport import Measure, wasserstein1


@dataclass(frozen=True)
class ThickeningPoint:
    """A validated point of a metric thickening. Construct via
    make_thickening_point; the constructor itself only checks types."""

    measure: Measure
    spec: ComplexSpec

    def __post_init__(self):
        if not isinstance(self.measure, Measure):
            raise TypeError("measure must be a Measure")
        if not isinstance(self.spec, ComplexSpec):
            raise TypeError("spec must be a ComplexSpec")


_QUANTITY_NAMES = {"vr": "diameter", "cech-ambient": "min-ball radius",
                   "cech-intrinsic": "least cover by an on-shape witness"}


def _failure_report(pts: np.ndarray, spec: ComplexSpec, witnesses) -> str:
    """The quantity and the threshold that the predicate compared."""
    value, threshold = membership_quantity(pts, spec, witnesses)
    count = f", {len(witnesses)} candidate witnesses" if spec.flavor == "cech-intrinsic" else ""
    return (f"support {_QUANTITY_NAMES[spec.flavor]} {value:.12g} is not "
            f"{'<' if spec.strict else '<='} {threshold:.12g} "
            f"(flavor {spec.flavor}, scale {spec.scale:.12g}{count})")


def make_thickening_point(measure: Measure, spec: ComplexSpec, witnesses=()) -> ThickeningPoint:
    """Validate that the measure's support is a simplex of the complex and
    wrap it. Raises SimplexViolation with a diagnostic report on failure;
    AmbiguousPredicate propagates from the underlying predicate."""
    pts = measure.array()  # Measure's atoms are finite and pairwise distinct
    if not is_simplex(pts, spec, witnesses):
        raise SimplexViolation(_failure_report(pts, spec, witnesses))
    return ThickeningPoint(measure, spec)


def linear_projection_f(tp: ThickeningPoint) -> np.ndarray:
    """Euclidean barycenter of the measure: sum of weight times atom (the
    Measure has validated its weights)."""
    return tp.measure.weight_array() @ tp.measure.array()


def inclusion_iota(x, spec: ComplexSpec) -> ThickeningPoint:
    """The Dirac measure at x as a thickening point. When ``spec`` carries a
    shape, x must lie on it."""
    p = as_point(x)
    if spec.shape is not None:
        gap = distance_to_shape(spec.shape, p)
        if gap > band(norm(p)):
            raise InvalidInput(f"point is off-shape by {gap:.3g}, cannot include")
    measure = Measure((tuple(map(float, p)),), (1.0,))
    return make_thickening_point(measure, spec, witnesses=(tuple(map(float, p)),))


def thickening_distance(a: ThickeningPoint, b: ThickeningPoint) -> float:
    """1-Wasserstein distance between two points of the same thickening."""
    if a.spec != b.spec:
        raise SpecMismatch(f"cannot compare points of {a.spec} and {b.spec}")
    return wasserstein1(a.measure, b.measure, plan=False)[0]
