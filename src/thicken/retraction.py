"""Retraction and homotopy maps on metric thickenings, plus randomized
verifiers for the geometric facts they rest on.

Each checker runs seeded trials: it samples a valid input (simplex, tube
point, or pair), evaluates the claimed inequality, and reports the count of
violations beyond tolerance together with the worst margin seen. Trial t
draws on its own counter-based stream, numpy's Philox keyed by (seed, t)
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011), so
results do not depend on the order trials run in or on how they are
blocked. Set-up draws take the stream (seed, trials), which no trial uses.
SUITES tables the checkers for the campaign driver.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice
from typing import Callable

import numpy as np

from .complexes import (ComplexSpec, _radius_bounds, bound_verdicts, cover_radius, decide,
                        intrinsic_cover, is_simplex, min_enclosing_ball)
from .errors import AmbiguousPredicate, InvalidInput
from .euclid import (apart_by_first_coordinate, band, coincident_pair, coincident_rows,
                     dot_norms, nearest_distance_query, norm, row_norms, square_distances)
from .shapes import (
    _check_seed,
    ambient_dim,
    finite_points,
    project,
    reach,
    sample_rng,
    sample_stacked,
    shape_label,
)
from .thickening import ThickeningPoint, linear_projection_f, make_thickening_point
from .transport import Measure

CSV_COLUMNS = ("lemma_id", "shape", "r", "k", "trials", "violations",
               "ambiguous", "worst_margin", "seed")


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one randomized verification cell."""

    lemma_id: str
    shape: str
    r: float
    k: int
    trials: int
    violations: int
    ambiguous: int
    worst_margin: float
    seed: int
    starved: int = 0
    wall_time_ms: float | None = None

    def __post_init__(self):
        if self.lemma_id not in LEMMA_IDS:
            raise InvalidInput(f"unknown lemma_id {self.lemma_id!r}")

    def csv_fields(self, include_timing: bool = False) -> dict:
        """Column name -> formatted cell, in CSV_COLUMNS order, plus
        wall_time_ms when asked (empty when the cell was not timed)."""
        cells = dict(zip(CSV_COLUMNS, (
            self.lemma_id, self.shape, format(self.r, ".12g"), str(self.k),
            str(self.trials), str(self.violations), str(self.ambiguous),
            format(self.worst_margin, ".12g"), str(self.seed))))
        if include_timing:
            cells["wall_time_ms"] = ("" if self.wall_time_ms is None
                                     else format(self.wall_time_ms, ".3f"))
        return cells


# ---------------------------------------------------------------------------
# maps


def retract(tp: ThickeningPoint) -> np.ndarray:
    """Nearest-point projection of the barycenter: the on-shape point that the
    straight-line homotopy contracts toward, as a read-only array.

    Guaranteed defined when the scale stays below the reach (twice the reach
    for the min-ball flavors); beyond that the projection may hit a nearest-
    point tie and MedialAxisProximity propagates to the caller. The point
    is frozen, so the projection is computed once and kept on it; a
    MedialAxisProximity is raised again on every call."""
    spec = tp.spec
    if spec.shape is None:
        raise InvalidInput("retract needs a spec with a shape")
    p = getattr(tp, "_retraction", None)
    if p is None:
        p = project(spec.shape, linear_projection_f(tp))
        p.flags.writeable = False
        object.__setattr__(tp, "_retraction", p)
    return p


def homotopy_H(tp: ThickeningPoint, t: float) -> ThickeningPoint:
    """Straight-line homotopy between the identity (t=1) and the retraction
    composed with inclusion (t=0): reweight the atoms by t and put mass 1-t on
    the retraction point p. The result is validated, with p as the witness
    of the intrinsic flavor; a failing validation is a genuine counterexample
    and propagates as SimplexViolation."""
    if not (0.0 <= t <= 1.0):
        raise InvalidInput(f"t must lie in [0, 1], got {t}")
    p = retract(tp)
    atoms = list(tp.measure.support)
    weights = [t * w for w in tp.measure.weights]
    hits = np.flatnonzero(coincident_rows(tp.measure.array(), p[None, :])[:, 0])
    if hits.size:
        weights[hits[0]] += 1.0 - t
    else:
        atoms.append(tuple(map(float, p)))
        weights.append(1.0 - t)
    measure = Measure(tuple(atoms), tuple(weights))
    return make_thickening_point(measure, tp.spec, witnesses=(tuple(map(float, p)),))


# ---------------------------------------------------------------------------
# sampling helpers

_MAX_ATTEMPTS = 64


def _finite_patch(fin, center, radius, count, rng, exclude_center):
    """`count` of the rows of `fin` within Euclidean `radius` of `center`,
    center itself left out with `exclude_center`, picked on rng without
    replacement; None when fewer exist."""
    keep = row_norms(fin - center) <= radius
    if exclude_center:
        keep &= ~coincident_rows(fin, center[None, :])[:, 0]
    sel = fin[keep]
    if sel.shape[0] < count:
        return None
    return sel[rng.choice(sel.shape[0], size=count, replace=False)]


def _draw_patches(shape, rngs, centers, radius, needs, exclude_center=False):
    """For each trial i, needs[i] on-shape points within Euclidean `radius`
    of centers[i], drawn on rngs[i], or None if the patch sampler runs out
    of rounds (continuous) / too few exist (finite)."""
    fin = finite_points(shape)
    if fin is not None:
        return [_finite_patch(fin, c, radius, n, rng, exclude_center)
                for rng, c, n in zip(rngs, centers, needs)]
    rows, got = sample_stacked(shape, rngs, needs, centers, radius)
    return [rows[end - n:end] if n == need else None
            for n, need, end in zip(got.tolist(), needs, np.cumsum(got).tolist())]


def _retry(n, attempt):
    """For each of n trials, the first outcome of `attempt` other than False,
    or None when all _MAX_ATTEMPTS attempts give False. attempt(a, todo) runs
    attempt a of the trials still open, the indices todo, and gives their
    outcomes in that order. The trials advance in lockstep; each makes its
    own draws in its own order, so its outcome is the one it has run alone."""
    out = [None] * n
    todo = list(range(n))
    for a in range(_MAX_ATTEMPTS):
        if not todo:
            break
        still = []
        for i, outcome in zip(todo, attempt(a, todo)):
            if outcome is False:
                still.append(i)
            else:
                out[i] = outcome
        todo = still
    return out


def _sample_simplices(shape, natoms, spec: ComplexSpec, rngs):
    """For each trial i, a support of natoms[i] distinct on-shape points
    that is a simplex of `spec`, drawn on rngs[i] around a fresh on-shape
    point y, as (points, y); None when the attempts run out; or the
    AmbiguousPredicate that the membership test raised.

    Intrinsic flavor: the support lies in the radius-scale/2 patch of y, so
    y witnesses it by construction. Other flavors: y is the first vertex;
    odd attempts draw companions from the tight patch (radius scale/2, valid
    by the triangle inequality), even attempts from the full patch (radius
    scale) so every valid simplex containing y stays reachable. An attempt
    draws the y of every trial still open, then their companions, in
    stacked draws."""
    intrinsic = spec.flavor == "cech-intrinsic"

    def attempt(a, todo):
        sub = [rngs[i] for i in todo]
        ys = sample_stacked(shape, sub, 1)[0]
        sizes = [natoms[i] for i in todo]
        if intrinsic:
            supports = _draw_patches(shape, sub, ys, spec.scale / 2, sizes)
        else:
            radius = spec.scale if a % 2 == 0 else spec.scale / 2
            supports = [ys[j:j + 1] for j in range(len(todo))]
            multi = [j for j, n in enumerate(sizes) if n > 1]
            if multi:
                rests = _draw_patches(shape, [sub[j] for j in multi], ys[multi], radius,
                                      [sizes[j] - 1 for j in multi], exclude_center=True)
                for j, rest in zip(multi, rests):
                    supports[j] = None if rest is None else np.concatenate((supports[j], rest))
        return [(pts, y) if verdict is True else verdict
                for y, pts, verdict in zip(ys, supports, _simplex_verdicts(supports, spec, ys))]

    return _retry(len(rngs), attempt)


def _simplex_verdicts(supports, spec: ComplexSpec, ys):
    """For each candidate support (None where there is none), drawn around
    the row of ys: True if its rows are distinct and it is a simplex of
    `spec` witnessed by that row, False if not, or the AmbiguousPredicate
    that decide raised. The coincidence test and bound_verdicts run stacked
    over the supports of each size; only the supports they leave open go to
    coincident_pair and decide one by one."""
    verdicts = [False] * len(supports)
    for js in _groups([None if pts is None else pts.shape[0] for pts in supports]):
        stacks = np.array([supports[j] for j in js])
        apart = apart_by_first_coordinate(stacks).tolist()
        bounds = bound_verdicts(stacks, spec, ys[js]).tolist()
        for j, distinct, bound in zip(js, apart, bounds):
            pts = supports[j]
            if not distinct and coincident_pair(pts) is not None:
                continue
            if bound >= 0:
                verdicts[j] = bound == 1
                continue
            try:
                verdicts[j] = bool(decide(pts, spec, ys[j:j + 1]))
            except AmbiguousPredicate as exc:
                verdicts[j] = exc
    return verdicts


def _groups(sizes):
    """Index lists of the equal entries of `sizes`, None entries left out."""
    out = {}
    for j, size in enumerate(sizes):
        if size is not None:
            out.setdefault(size, []).append(j)
    return out.values()


def _redraws(shape, count, shots):
    """run_block (see _run_cell) for trials that redraw until a shot lands:
    each attempt draws `count` on-shape points for every open trial in one
    stacked draw, and shots(rngs, points) gives the outcomes of the trials
    on rngs from their (len(rngs), count, n) points, False to draw again; a
    trial whose attempts run out is starved."""
    def run_block(rngs):
        def attempt(a, todo):
            sub = [rngs[i] for i in todo]
            rows = sample_stacked(shape, sub, count)[0]
            return shots(sub, rows.reshape(len(sub), count, -1))
        return _retry(len(rngs), attempt)
    return run_block


def _max_feasible_atoms(shape, spec: ComplexSpec, cap: int) -> int:
    """Largest support size (up to cap) for which some simplex of `spec`
    exists, with the shape's points as witnesses. Exact subset search on
    finite shapes; continuous shapes always admit arbitrarily small patches,
    so the cap itself is returned."""
    fin = finite_points(shape)
    if fin is None:
        return cap
    n = fin.shape[0]
    for size in range(min(cap, n), 1, -1):
        for comb in combinations(range(n), size):
            try:
                if is_simplex(fin[list(comb)], spec, fin):
                    return size
            except AmbiguousPredicate:
                continue
    return 1


# ---------------------------------------------------------------------------
# cell runner

# trials run in lockstep blocks of _BLOCK
_BLOCK = 256
# free generator pools of _trial_rngs, each a list rekeyed trial by trial
_POOLS = []


def _stream(seed: int, t: int) -> np.random.Generator:
    """Trial t's generator: Philox keyed by (seed, t)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, t], np.uint64)))


def _trial_rngs(seed: int, trials: int):
    """Yield for t in range(trials) a generator on the stream _stream(seed,
    t). The generators of a block of _BLOCK trials (t // _BLOCK) are
    distinct, so a block's can be held at once; they come from a pool kept
    between calls and rekeyed by setting the Philox state, as building a
    generator costs more than a typical trial."""
    _check_seed(seed)
    state = {"bit_generator": "Philox", "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0,
             "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed, 0], np.uint64)}}
    key = state["state"]["key"]
    pool = _POOLS.pop() if _POOLS else []
    try:
        for t in range(trials):
            i = t % _BLOCK
            if i == len(pool):
                pool.append(_stream(0, 0))
            key[1] = t
            pool[i].bit_generator.state = state
            yield pool[i]
    finally:
        _POOLS.append(pool)


def _check_cell_args(r, k, trials, seed, lemma_id=None, shape=None) -> None:
    """The one rule on a checker's arguments: integers k >= 0 and trials >= 0,
    a finite r > 0, a seed the trial streams take and, for a suite that
    SUITES marks needs_reach_gap, r below reach_limit(shape). Checkers that
    draw a set-up from them call it first; _run_cell calls it for every
    checker, and CampaignConfig, without a suite, for each scale."""
    for name, value in (("k", k), ("trials", trials), ("seed", seed)):
        if not isinstance(value, numbers.Integral) or value < 0:
            raise InvalidInput(f"{name} must be an integer >= 0, got {value!r}")
    if not (r > 0 and math.isfinite(r)):
        raise InvalidInput(f"r must be positive and finite, got {r!r}")
    _check_seed(seed)
    if lemma_id is not None and SUITES[lemma_id].needs_reach_gap and not below_reach(shape, r):
        raise InvalidInput(f"need r < reach*(1-1e-3) = {reach_limit(shape):g}, got {r:g}")


def _run_cell(lemma_id, shape, r, k, trials, seed, run_block) -> LemmaReport:
    """Check the arguments, the reach gap of lemma_id's suite included, run
    the trials in blocks of _BLOCK and aggregate their outcomes.
    run_block(rngs) gives the outcomes of one block's trials, whose
    generators rngs are on the streams (seed, t): (margin, tol), None for a
    starved trial, or the AmbiguousPredicate of an ambiguous one. A lazy
    margin is a pair (ub, exact) whose exact() <= ub: exact runs only when
    ub could raise the worst margin or be a violation, so the row is the one
    the exact margins give."""
    _check_cell_args(r, k, trials, seed, lemma_id, shape)
    amb = starved = viol = 0
    worst = -math.inf
    streams = _trial_rngs(seed, trials)
    while rngs := list(islice(streams, _BLOCK)):
        for outcome in run_block(rngs):
            if isinstance(outcome, AmbiguousPredicate):
                amb += 1
            elif outcome is None:
                starved += 1
            else:
                margin, tol = outcome
                if type(margin) is tuple:  # lazy: ub stands in where it changes nothing
                    ub, exact = margin
                    margin = ub if ub <= min(worst, tol) else exact()
                if margin > tol:
                    viol += 1
                worst = max(worst, margin)
    ok = trials - amb - starved
    return LemmaReport(
        lemma_id=lemma_id, shape=shape_label(shape), r=float(r), k=int(k),
        trials=ok + amb, violations=viol, ambiguous=amb,
        worst_margin=worst if ok else math.nan, seed=int(seed), starved=starved)


def reach_limit(shape) -> float:
    """reach * (1 - 1e-3): the scales below it keep a gap to the reach."""
    return reach(shape) * (1.0 - 1e-3)


def below_reach(shape, r: float) -> bool:
    """Whether r keeps the gap to the reach (r < reach_limit) that the
    checkers needing a unique nearest point (Suite.needs_reach_gap) require."""
    return r < reach_limit(shape)


# ---------------------------------------------------------------------------
# lemma checkers


def check_convex_lemma(shape, r, k, trials, seed) -> LemmaReport:
    """A convex set missing a hull point must miss a generator: for random
    on-shape generators, a random hull point y, and a random convex set
    (half-space or ball) excluding y, some generator lies outside the set."""

    def score(rng, pts):
        lam = rng.exponential(size=pts.shape[0])
        y = lam / lam.sum() @ pts
        gap = (0.01 + 0.99 * rng.random()) * (1.0 + norm(y))
        normal = rng.normal(size=pts.shape[1])
        normal /= norm(normal)
        if rng.random() < 0.5:
            # half-space {z : <n, z> <= c} with y strictly outside by `gap`
            c = float(normal @ y) - gap
            margin = c - float((pts @ normal).max())
            bound = c
        else:
            # ball B(q, rho) with d(q, y) = rho + gap
            rho = (0.1 + 1.9 * rng.random()) * (1.0 + r)
            q = y + (rho + gap) * normal
            margin = rho - float(row_norms(pts - q).max())
            bound = rho
        return margin, band(bound)

    def run_block(rngs):
        natoms = [1 + int(rng.integers(0, k + 1)) for rng in rngs]
        rows = sample_stacked(shape, rngs, natoms)[0]
        return map(score, rngs, np.split(rows, np.cumsum(natoms)[:-1]))

    return _run_cell("Convex", shape, r, k, trials, seed, run_block)


def _simplex_cell(lemma_id, shape, r, k, trials, seed, spec: ComplexSpec,
                  margins) -> LemmaReport:
    """Cell whose trials sample a simplex of 1..k+1 atoms of `spec` (see
    _sample_simplices), then draw convex weights, and score a margin against
    tolerance at r, the supports of each size in a block at once:
    margins(pts, bary, ys) gives the margins, floats or lazy pairs (see
    _run_cell), of the (g, k, n) supports pts with barycenters bary drawn
    around the rows of ys."""
    _check_cell_args(r, k, trials, seed, lemma_id, shape)
    cap = _max_feasible_atoms(shape, spec, k + 1)
    tol = band(r)

    def run_block(rngs):
        natoms = [1 + int(rng.integers(0, cap)) for rng in rngs]
        out = _sample_simplices(shape, natoms, spec, rngs)
        for js in _groups([n if type(d) is tuple else None for n, d in zip(natoms, out)]):
            w = np.array([rngs[j].exponential(size=natoms[j]) for j in js])
            pts = np.array([out[j][0] for j in js])
            # a stacked @ gives each row lam @ pts's bits
            bary = ((w / w.sum(axis=1)[:, None])[:, None, :] @ pts)[:, 0]
            for j, m in zip(js, margins(pts, bary, np.array([out[j][1] for j in js]))):
                out[j] = m, tol
        return out

    return _run_cell(lemma_id, shape, r, k, trials, seed, run_block)


def _projected(shape, margins):
    """margins (see _simplex_cell) of a suite scored at the projections p
    of the barycenters: margins(pts, p, ys) on the supports whose
    projection is unique, inf where it ties."""
    def scored(pts, bary, ys):
        feet, tied = shape.project_rows(bary)
        found = iter(margins(pts[~tied], feet[~tied], ys[~tied]))
        return [math.inf if t else next(found) for t in tied.tolist()]
    return scored


def check_vr_tub_lemma(shape, r, k, trials, seed, strict=False) -> LemmaReport:
    """Barycenters of diameter-r supports stay within r of the shape."""
    return _simplex_cell("VrTub", shape, r, k, trials, seed,
                         ComplexSpec("vr", r, strict=strict, shape=shape),
                         lambda pts, bary, ys: (shape.distance_rows(bary) - r).tolist())


def check_vr_simplex_lemma(shape, r, k, trials, seed, strict=False) -> LemmaReport:
    """Adjoining the retraction point keeps a diameter-r support within
    diameter r: every vertex lies within r of the projected barycenter."""
    def margins(pts, p, ys):
        return (row_norms(pts - p[:, None]).max(axis=1) - r).tolist()

    return _simplex_cell("VrSimplex", shape, r, k, trials, seed,
                         ComplexSpec("vr", r, strict=strict, shape=shape),
                         _projected(shape, margins))


def check_cech_radius_lemma(shape, r, k, trials, seed, strict=False) -> LemmaReport:
    """Any hull point of a support with min-ball radius r lies within r of
    some vertex."""
    return _simplex_cell("CechRadius", shape, r, k, trials, seed,
                         ComplexSpec("cech-ambient", 2.0 * r, strict=strict, shape=shape),
                         lambda pts, bary, ys: (row_norms(pts - bary[:, None]).min(axis=1)
                                                - r).tolist())


def check_cech_tub_lemma(shape, r, k, trials, seed, strict=False) -> LemmaReport:
    """Barycenters of min-ball-radius-r supports stay within r of the shape."""
    return _simplex_cell("CechTub", shape, r, k, trials, seed,
                         ComplexSpec("cech-ambient", 2.0 * r, strict=strict, shape=shape),
                         lambda pts, bary, ys: (shape.distance_rows(bary) - r).tolist())


def check_cech_simplex_lemma(shape, r, k, trials, seed, flavor: str = "ambient",
                             strict=False) -> LemmaReport:
    """Adjoining the retraction point to a min-ball-radius-r support keeps it
    one: the augmented support passes the same membership test (non-strict
    form asserted; the margin reports the strict gap)."""
    if flavor not in ("ambient", "intrinsic"):
        raise InvalidInput(f"flavor must be ambient or intrinsic, got {flavor!r}")
    spec = ComplexSpec("cech-" + flavor, 2.0 * r, strict=strict, shape=shape)
    if flavor == "ambient":
        margins = _ambient_margin(shape, r)
    else:  # its witness pool is drawn once the arguments pass
        _check_cell_args(r, k, trials, seed, "CechSimplexIntrinsic", shape)
        margins = _intrinsic_margin(shape, r, _stream(seed, trials))
    return _simplex_cell("CechSimplex" + flavor.title(), shape, r, k, trials, seed, spec, margins)


def _ambient_margin(shape, r):
    """CechSimplexAmbient's margins (see _simplex_cell), lazy (see _run_cell)
    where the projection is unique: each augmented support's min-ball radius
    less r; the min keeps exact() <= ub in floats."""
    def exact(aug, ub):
        return min(min_enclosing_ball(aug).radius, ub) - r

    def margins(pts, p, ys):
        augs, ubs = _augment(pts, p, lambda aug, rows: _radius_bounds(aug, square_distances(aug)))
        return [(ub - r, partial(exact, a, ub)) for a, ub in zip(augs, ubs)]
    return _projected(shape, margins)


def _intrinsic_margin(shape, r, rng):
    """CechSimplexIntrinsic's margins (see _simplex_cell), lazy (see
    _run_cell) where the projection is unique: each augmented support's
    least cover by y, p or a row of a pool drawn on rng, less r; the min
    keeps exact() <= ub."""
    pool = np.unique(sample_rng(shape, 1024, rng), axis=0)  # repeats change no cover

    def exact(aug, centers, ub):
        # a pool point farther from aug[0] than the cover of y or p cannot win
        near = pool[square_distances(pool, aug[:1])[:, 0] <= ub * ub * (1.0 + 1e-9)]
        return min(intrinsic_cover(aug, np.concatenate((centers, near)), shape, r), ub) - r

    def margins(pts, p, ys):
        centers = np.stack((ys, p), axis=1)
        augs, ubs = _augment(pts, p, lambda aug, rows: cover_radius(centers[rows], aug))
        return [(ub - r, partial(exact, a, c, ub)) for a, c, ub in zip(augs, centers, ubs)]
    return _projected(shape, margins)


def _augment(pts, p, bound):
    """(supports, bounds): the supports [x_0, ..., x_k, p] of the (g, k, n)
    array pts and the rows of p, a p that coincides with a vertex merged, and
    their bounds, bound(stack, rows) taking those of one size and indices."""
    merged = coincident_rows(pts, p[:, None])[:, :, 0].any(axis=1)
    augs, bounds = [None] * len(pts), [None] * len(pts)
    for keep, stack in ((merged, pts), (~merged, np.concatenate((pts, p[:, None]), axis=1))):
        rows = np.flatnonzero(keep)
        if rows.size:
            for j, aug, b in zip(rows.tolist(), stack[rows], bound(stack[rows], rows).tolist()):
                augs[j], bounds[j] = aug, b
    return augs, bounds


def check_empty_ball(shape, trials, seed) -> LemmaReport:
    """The open ball of radius reach, tangent at the projection of a tube
    point and centered past it, misses the shape: every point of a dense
    on-shape sample stays at least reach away from the center."""
    tau = reach(shape)
    _check_cell_args(tau, 0, trials, seed)
    fin = finite_points(shape)
    if fin is not None:
        dense = fin
    else:
        dense = sample_rng(shape, 10_000, _stream(seed, trials))
    nearest = nearest_distance_query(dense)
    dim = ambient_dim(shape)

    def shots(rngs, bases):
        us = np.array([rng.normal(size=dim) for rng in rngs])
        mags = np.array([rng.random() for rng in rngs])
        x = bases[:, 0] + (tau * (1e-3 + 0.996 * mags))[:, None] * (us / dot_norms(us)[:, None])
        # a shot on the shape or on a nearest-point tie draws again
        hit = ~(shape.distance_rows(x) <= 1e-12 * (1.0 + dot_norms(x)))
        p, tied = shape.project_rows(x[hit])
        p, hit[hit] = p[~tied], ~tied
        c = iter(p + tau * (x[hit] - p) / dot_norms(x[hit] - p)[:, None])
        return [(tau - nearest(next(c)), 1e-6) if h else False for h in hit.tolist()]

    return _run_cell("EmptyBall", shape, float(tau), 0, trials, seed, _redraws(shape, 1, shots))


def check_federer(shape, r, trials, seed) -> LemmaReport:
    """Projection is Lipschitz on the radius-r tube with factor
    reach/(reach - r)."""
    tau = reach(shape)
    dim = ambient_dim(shape)

    def shots(rngs, bases):
        us = np.array([rng.normal(size=(2, dim)) for rng in rngs])
        mags = np.array([rng.random(size=2) for rng in rngs])
        xs = bases + (r * 0.999 * mags)[:, :, None] * (us / row_norms(us)[:, :, None])
        feet, tied = shape.project_rows(xs.reshape(-1, dim))
        hit = ~tied.reshape(-1, 2).any(axis=1)  # a pair with a nearest-point tie draws again
        feet = feet.reshape(xs.shape)[hit]
        # shots run after _run_cell's reach-gap check
        bound = tau / (tau - r) * dot_norms(xs[hit, 0] - xs[hit, 1])
        found = zip((dot_norms(feet[:, 0] - feet[:, 1]) - bound).tolist(),
                    map(band, bound.tolist()))
        return [next(found) if h else False for h in hit.tolist()]

    return _run_cell("FedererLipschitz", shape, r, 0, trials, seed, _redraws(shape, 2, shots))


# ---------------------------------------------------------------------------
# suite table


@dataclass(frozen=True)
class Suite:
    """How a campaign runs one lemma suite.

    run(shape, r, k, trials, seed, strict) -> LemmaReport; flavors are the
    campaign flavors that include the suite; needs_reach_gap marks checkers
    that require r below the reach, the one record of it, which
    _check_cell_args enforces before any set-up draw; a suite that ignores r
    (uses_r False) runs once per campaign and its report serves every scale.
    """

    run: Callable
    flavors: tuple
    needs_reach_gap: bool = False
    uses_r: bool = True


CAMPAIGN_FLAVORS = ("all", "vr", "cech")
_VR = ("all", "vr")
_CECH = ("all", "cech")

# Each entry looks its checker up by module name when called, so a checker
# replaced on this module (by a tracer or a test) is the one that runs.
SUITES = {
    "Convex": Suite(lambda shape, r, k, trials, seed, strict: check_convex_lemma(
        shape, r, k, trials, seed), CAMPAIGN_FLAVORS),
    "VrTub": Suite(lambda shape, r, k, trials, seed, strict: check_vr_tub_lemma(
        shape, r, k, trials, seed, strict=strict), _VR),
    "VrSimplex": Suite(lambda shape, r, k, trials, seed, strict: check_vr_simplex_lemma(
        shape, r, k, trials, seed, strict=strict), _VR, needs_reach_gap=True),
    "CechRadius": Suite(lambda shape, r, k, trials, seed, strict: check_cech_radius_lemma(
        shape, r, k, trials, seed, strict=strict), _CECH),
    "CechTub": Suite(lambda shape, r, k, trials, seed, strict: check_cech_tub_lemma(
        shape, r, k, trials, seed, strict=strict), _CECH),
    "CechSimplexAmbient": Suite(
        lambda shape, r, k, trials, seed, strict: check_cech_simplex_lemma(
            shape, r, k, trials, seed, flavor="ambient", strict=strict),
        _CECH, needs_reach_gap=True),
    "CechSimplexIntrinsic": Suite(
        lambda shape, r, k, trials, seed, strict: check_cech_simplex_lemma(
            shape, r, k, trials, seed, flavor="intrinsic", strict=strict),
        _CECH, needs_reach_gap=True),
    "EmptyBall": Suite(lambda shape, r, k, trials, seed, strict: check_empty_ball(
        shape, trials, seed), CAMPAIGN_FLAVORS, uses_r=False),
    "FedererLipschitz": Suite(lambda shape, r, k, trials, seed, strict: check_federer(
        shape, r, trials, seed), CAMPAIGN_FLAVORS, needs_reach_gap=True),
}
LEMMA_IDS = tuple(SUITES)
