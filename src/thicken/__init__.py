"""Metric thickenings of positive-reach subsets of Euclidean space.

Library layers, bottom up: euclid (points, coincidence, the tolerance policy),
shapes (positive-reach sets with exact projection), complexes (simplex
predicates, minimum enclosing balls, skeleton enumeration), transport
(exact 1-Wasserstein on finite measures), thickening (measures as points
of a thickened complex), retraction (projection/homotopy maps and their
randomized verification kernels), harness (campaign driver, experiments,
CSV reports). The `thicken` CLI fronts the harness.
"""

from .errors import (
    AmbiguousPredicate,
    ConfigError,
    DimensionMismatch,
    InvalidInput,
    MedialAxisProximity,
    SimplexViolation,
    SizeLimit,
    SpecMismatch,
    ThickenError,
    UnsupportedShape,
)
from .euclid import diameter
from .shapes import (
    Circle,
    Ellipse,
    FinitePointSet,
    Shape,
    Sphere,
    Torus,
    ZeroSphere,
    ambient_dim,
    distance_to_shape,
    estimate_reach,
    project,
    reach,
    sample,
    sample_rng,
    shape_label,
)
from .complexes import (
    FLAVORS,
    ComplexSpec,
    MinBallResult,
    Simplex,
    enumerate_skeleton,
    format_skeleton,
    is_cech_simplex_ambient,
    is_cech_simplex_intrinsic,
    is_vr_simplex,
    min_enclosing_ball,
)
from .transport import (
    Measure,
    TransportPlan,
    parse_measure_text,
    plan_cost,
    wasserstein1,
)
from .thickening import (
    ThickeningPoint,
    inclusion_iota,
    linear_projection_f,
    make_thickening_point,
    thickening_distance,
)
from .retraction import (
    CSV_COLUMNS,
    LEMMA_IDS,
    LemmaReport,
    check_cech_radius_lemma,
    check_cech_simplex_lemma,
    check_cech_tub_lemma,
    check_convex_lemma,
    check_empty_ball,
    check_federer,
    check_vr_simplex_lemma,
    check_vr_tub_lemma,
    homotopy_H,
    retract,
)
from .harness import (
    EXPERIMENTS,
    CampaignConfig,
    ExperimentResult,
    parse_config,
    parse_shape,
    run_campaign,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousPredicate", "ConfigError", "DimensionMismatch", "InvalidInput",
    "MedialAxisProximity", "SimplexViolation", "SizeLimit", "SpecMismatch",
    "ThickenError", "UnsupportedShape",
    "diameter",
    "Circle", "Ellipse", "FinitePointSet", "Shape", "Sphere", "Torus",
    "ZeroSphere", "ambient_dim", "distance_to_shape", "estimate_reach",
    "project", "reach", "sample", "sample_rng", "shape_label",
    "FLAVORS", "ComplexSpec", "MinBallResult", "Simplex", "enumerate_skeleton",
    "format_skeleton", "is_cech_simplex_ambient", "is_cech_simplex_intrinsic",
    "is_vr_simplex", "min_enclosing_ball",
    "Measure", "TransportPlan",
    "parse_measure_text", "plan_cost", "wasserstein1",
    "ThickeningPoint", "inclusion_iota", "linear_projection_f",
    "make_thickening_point", "thickening_distance",
    "CSV_COLUMNS", "LEMMA_IDS", "LemmaReport", "check_cech_radius_lemma",
    "check_cech_simplex_lemma", "check_cech_tub_lemma", "check_convex_lemma",
    "check_empty_ball", "check_federer", "check_vr_simplex_lemma",
    "check_vr_tub_lemma", "homotopy_H", "retract",
    "EXPERIMENTS", "CampaignConfig", "ExperimentResult",
    "parse_config", "parse_shape", "run_campaign",
    "__version__",
]
