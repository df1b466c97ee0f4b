"""Campaign configuration, the campaign driver, and scripted experiments.

A campaign reads a flat key=value config, runs the requested lemma suites
over a grid of scales, and emits one CSV row per (lemma, scale) cell. Rows
are generated in a fixed order from per-trial RNG streams, so output bytes
depend only on config and seed.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass

from .complexes import ComplexSpec, Simplex, is_cech_simplex_ambient
from .errors import ConfigError, InvalidInput, MedialAxisProximity, ThickenError
from .retraction import (CAMPAIGN_FLAVORS, CSV_COLUMNS, LEMMA_IDS, SUITES, LemmaReport,
                         _check_cell_args, below_reach, reach_limit, retract)
from .shapes import (
    SHAPE_KINDS,
    Circle,
    Ellipse,
    FinitePointSet,
    Torus,
    ZeroSphere,
    estimate_reach,
    reach,
    shape_label,
)
from .thickening import linear_projection_f, make_thickening_point
from .transport import Measure

_GLOBAL_KEYS = ("r", "k", "trials", "seed", "strict", "lemmas",
                "flavor", "tightness", "out", "timing")


@dataclass(frozen=True)
class CampaignConfig:
    shape: object
    rs: tuple
    k: int = 4
    trials: int = 1000
    seed: int = 42
    strict: bool = False
    lemmas: tuple = LEMMA_IDS
    tightness: bool = False
    out: str | None = None
    timing: bool = False

    def __post_init__(self):
        """The checkers' rules on k, trials, seed and each r (_check_cell_args),
        raised as ConfigError, and the campaign's own: a float r for each of
        a non-empty grid, k <= 6, known suites, and r below the reach of the
        shape unless tightness is set."""
        if not self.rs:
            raise ConfigError("need at least one scale r")
        for r in self.rs:
            if not isinstance(r, float):
                raise ConfigError(f"scale r must be a float, got {r!r}")
            try:
                _check_cell_args(r, self.k, self.trials, self.seed)
            except InvalidInput as exc:
                raise ConfigError(str(exc)) from None
        if self.k > 6:
            raise ConfigError(f"k must be in 0..6, got {self.k}")
        if not self.lemmas:
            raise ConfigError("need at least one lemma suite")
        bad = [m for m in self.lemmas if m not in LEMMA_IDS]
        if bad:
            raise ConfigError(f"unknown lemma suites {bad}; valid: {list(LEMMA_IDS)}")
        for r in self.rs:
            if not (self.tightness or below_reach(self.shape, r)):
                raise ConfigError(
                    f"r={r:g} is not below reach*(1-1e-3)={reach_limit(self.shape):g}; "
                    "set tightness=1 to probe the boundary")


@dataclass(frozen=True)
class ExperimentResult:
    experiment_id: str
    verdict: str
    columns: tuple
    rows: tuple

    def to_csv(self) -> str:
        """Header and rows as CSV, quoting cells that hold a comma."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows([row.get(c, "") for c in self.columns] for row in self.rows)
        return buf.getvalue()

    def to_json_lines(self) -> str:
        lines = []
        for row in self.rows:
            obj = {c: row.get(c, "") for c in self.columns}
            obj["experiment_id"] = self.experiment_id
            lines.append(json.dumps(obj, sort_keys=True))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config parsing


def _parse_pairs(text: str) -> dict:
    """Flat key=value tokens (whitespace-separated, # comments) as a dict;
    a repeated key is an error."""
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            if "=" not in token:
                raise ConfigError(f"line {lineno}: expected key=value, got {token!r}")
            key, _, value = token.partition("=")
            if not key or not value:
                raise ConfigError(f"line {lineno}: malformed pair {token!r}")
            if key in seen:
                raise ConfigError(f"duplicate key {key!r}")
            seen[key] = value
    return seen


def _parse_points(text: str) -> tuple:
    return tuple(tuple(float(c) for c in chunk.split(",")) for chunk in text.split(";"))


# descriptor value parsers by shape field type
_FIELD_PARSERS = {"float": float, "int": int, "tuple": _parse_points}


def _pop_shape(seen: dict):
    """Remove `shape` and the named kind's parameters from `seen` and build
    the shape. The parameters are the kind's dataclass fields."""
    if "shape" not in seen:
        raise ConfigError("config needs a shape")
    kind = seen.pop("shape")
    cls = SHAPE_KINDS.get(kind)
    if cls is None:
        raise ConfigError(f"unknown shape kind {kind!r}; expected one of {sorted(SHAPE_KINDS)}")
    params = {}
    for f in dataclasses.fields(cls):
        if f.name in seen:
            text = seen.pop(f.name)
            try:
                params[f.name] = _FIELD_PARSERS[f.type](text)
            except ValueError as exc:
                raise ConfigError(f"invalid {kind!r} parameter {f.name}={text!r}: {exc}") from None
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"shape {kind!r} needs parameter {f.name!r}")
    try:
        return cls(**params)
    except (ValueError, ThickenError) as exc:
        raise ConfigError(f"invalid {kind!r} parameters: {exc}") from None


def parse_shape(text: str):
    """Shape from descriptor tokens, e.g. 'shape=ellipse a=2 b=1'."""
    seen = _parse_pairs(text)
    shape = _pop_shape(seen)
    if seen:
        raise ConfigError(f"unknown shape keys {sorted(seen)}")
    return shape


def _parse_bool(key: str, value: str) -> bool:
    if value in ("0", "false", "no"):
        return False
    if value in ("1", "true", "yes"):
        return True
    raise ConfigError(f"{key} must be a boolean (0/1), got {value!r}")


def parse_config(text: str) -> CampaignConfig:
    """Parse flat key=value campaign configuration text: a shape
    descriptor (see parse_shape) plus campaign keys."""
    seen = _parse_pairs(text)
    shape = _pop_shape(seen)
    unknown = [k for k in seen if k not in _GLOBAL_KEYS]
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")

    if "r" not in seen:
        raise ConfigError("config needs at least one scale r")
    try:
        rs = tuple(float(tok) for tok in seen["r"].split(","))
    except ValueError:
        raise ConfigError(f"could not parse r grid {seen['r']!r}") from None

    flavor = seen.get("flavor", "all")
    if flavor not in CAMPAIGN_FLAVORS:
        raise ConfigError(f"flavor must be one of {list(CAMPAIGN_FLAVORS)}, got {flavor!r}")
    lemmas = tuple(m for m in LEMMA_IDS if flavor in SUITES[m].flavors)
    if "lemmas" in seen:
        lemmas = tuple(tok for tok in seen["lemmas"].split(",") if tok)

    # keys left out take CampaignConfig's defaults
    try:
        fields = {key: int(seen[key]) for key in ("k", "trials", "seed") if key in seen}
        fields.update((key, _parse_bool(key, seen[key]))
                      for key in ("strict", "tightness", "timing") if key in seen)
        if "out" in seen:
            fields["out"] = seen["out"]
        config = CampaignConfig(shape=shape, rs=rs, lemmas=lemmas, **fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # the config has checked that each requested suite is known
    outside = [m for m in config.lemmas if flavor not in SUITES[m].flavors]
    if outside:
        raise ConfigError(f"lemma suites {outside} are not in flavor {flavor!r}")
    return config


# ---------------------------------------------------------------------------
# campaign driver


def _campaign_reports(config: CampaignConfig) -> list:
    """Report of every requested (lemma, r) cell, r by r; a suite ignoring r runs once."""
    reports = []
    done = {}
    for r in config.rs:
        for lemma in config.lemmas:
            suite = SUITES[lemma]
            if config.tightness and suite.needs_reach_gap and not below_reach(config.shape, r):
                reports.append(LemmaReport(
                    lemma_id=lemma, shape=shape_label(config.shape), r=float(r),
                    k=config.k, trials=0, violations=0, ambiguous=0,
                    worst_margin=math.nan, seed=config.seed))
                continue
            key = (lemma, r if suite.uses_r else None)
            if key not in done:
                t0 = time.perf_counter()
                rep = suite.run(config.shape, r, config.k, config.trials,
                                config.seed, config.strict)
                if config.timing:
                    rep = dataclasses.replace(
                        rep, wall_time_ms=(time.perf_counter() - t0) * 1e3)
                done[key] = rep
            reports.append(done[key])
    return reports


def _verdict(reports) -> str:
    """FAIL on any violation, SKIP if every cell is empty, WARN if one starved, else PASS."""
    if any(rep.violations > 0 for rep in reports):
        return "FAIL"
    if all(rep.trials == 0 for rep in reports):
        return "SKIP"
    return "WARN" if any(rep.starved > 0 for rep in reports) else "PASS"


def run_campaign(config: CampaignConfig) -> ExperimentResult:
    """Run every requested (lemma, r) cell and judge them (see _verdict)."""
    reports = _campaign_reports(config)
    columns = CSV_COLUMNS + (("wall_time_ms",) if config.timing else ())
    rows = tuple(rep.csv_fields(config.timing) for rep in reports)
    return ExperimentResult("campaign", _verdict(reports), columns, rows)


# ---------------------------------------------------------------------------
# scripted experiments


def s0_tightness_experiment(trials: int = 300, seed: int = 42) -> ExperimentResult:
    """Boundary behaviour of the two-point set {-1, +1} at scale 2, where its
    min-ball radius equals half the scale exactly: membership holds, the
    barycenter projection hits the midpoint tie, and every smaller scale has
    no pair simplex while all lemma suites keep passing."""
    shape = ZeroSphere()
    pair = Simplex(((-1.0,), (1.0,)))
    rows = []
    all_ok = True

    spec2 = ComplexSpec("cech-ambient", 2.0, strict=False)
    fact_a = is_cech_simplex_ambient(pair, spec2)
    rows.append({"fact": "pair-in-minball-complex-at-2",
                 "detail": "min-ball radius 1 <= 2/2", "outcome": str(fact_a),
                 "ok": str(fact_a)})
    all_ok &= fact_a

    mu = Measure(((-1.0,), (1.0,)), (0.5, 0.5))
    tp = make_thickening_point(mu, ComplexSpec("cech-ambient", 2.0, strict=False, shape=shape))
    bary = linear_projection_f(tp)
    bary_zero = abs(float(bary[0])) <= 1e-15
    try:
        retract(tp)
        tie_raised = False
    except MedialAxisProximity:
        tie_raised = True
    ok_b = bary_zero and tie_raised
    rows.append({"fact": "balanced-pair-projects-to-tie",
                 "detail": f"barycenter {float(bary[0]):g}; tie {'raised' if tie_raised else 'missed'}",
                 "outcome": str(tie_raised), "ok": str(ok_b)})
    all_ok &= ok_b

    # one campaign over every scale, so the suite that ignores r runs once
    scales = (0.5, 1.0, 1.5, 1.9)
    reports = _campaign_reports(CampaignConfig(
        shape=shape, rs=tuple(scale / 2.0 for scale in scales), k=2, trials=trials, seed=seed))
    per_scale = len(reports) // len(scales)
    for n, scale in enumerate(scales):
        member = is_cech_simplex_ambient(pair, ComplexSpec("cech-ambient", scale, strict=False))
        ok_member = not member
        rows.append({"fact": f"pair-not-member-below-2@{scale:g}",
                     "detail": f"min-ball radius 1 > {scale / 2:g}",
                     "outcome": str(member), "ok": str(ok_member)})
        all_ok &= ok_member
        cells = reports[n * per_scale:(n + 1) * per_scale]
        verdict = _verdict(cells)
        viol = sum(rep.violations for rep in cells)
        rows.append({"fact": f"all-suites-pass@{scale:g}",
                     "detail": f"9 suites; {viol} violations; verdict {verdict}",
                     "outcome": verdict, "ok": str(verdict == "PASS")})
        all_ok &= verdict == "PASS"

    return ExperimentResult("s0-tightness", "PASS" if all_ok else "FAIL",
                            ("fact", "detail", "outcome", "ok"), tuple(rows))


_REACH_CASES = (
    ("circle", Circle(1.0), 200, 0.01),
    ("ellipse", Ellipse(2.0, 1.0), 400, 0.02),
    ("torus", Torus(3.0, 1.0), 60, 0.05),
    ("finite-pair", FinitePointSet(((0.0,), (3.0,))), 50, 1e-9),
)


def reach_validation_experiment() -> ExperimentResult:
    """Closed-form reach against the grid-search estimator, within a per-shape
    relative tolerance (tightest for the circle, loosest for the torus; the
    finite pair must hit the midpoint tie exactly)."""
    rows = []
    all_ok = True
    for name, shape, density, tol in _REACH_CASES:
        true_tau = reach(shape)
        est = estimate_reach(shape, density)
        rel = abs(est - true_tau) / true_tau
        ok = rel <= tol
        rows.append({"shape": shape_label(shape), "true_reach": format(true_tau, ".12g"),
                     "estimate": format(est, ".12g"), "rel_error": format(rel, ".3e"),
                     "tolerance": format(tol, ".0e"), "ok": str(ok)})
        all_ok &= ok
    return ExperimentResult("reach-validation", "PASS" if all_ok else "FAIL",
                            ("shape", "true_reach", "estimate", "rel_error",
                             "tolerance", "ok"), tuple(rows))


# experiment id -> the function that runs it; its docstring states the claim
EXPERIMENTS = {
    "s0-tightness": s0_tightness_experiment,
    "reach-validation": reach_validation_experiment,
}
