"""Exact 1-Wasserstein on finite measures.

Two independent cross-checks: the tree-enumeration oracle (all spanning
bases of the bipartite support graph) for small instances, and a generic LP
solver for larger ones. Frozen values below were produced by the oracle; the
pinned digest fixes the solver's pivot sequence through its exact output.
"""
import hashlib
import math
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

from thicken import (
    DimensionMismatch,
    InvalidInput,
    Measure,
    SizeLimit,
    TransportPlan,
    parse_measure_text,
    plan_cost,
    wasserstein1,
)
from thicken.transport import _LIST_PRICING_CELLS, _cost_matrix


def random_measure(rng, max_atoms=4, dim=2, grid=None) -> Measure:
    n = int(rng.integers(1, max_atoms + 1))
    if grid is not None:
        idx = rng.choice(len(grid), size=n, replace=False)
        pts = np.asarray(grid, dtype=float)[idx]
    else:
        pts = rng.normal(size=(n, dim))
    w = rng.random(n) + 0.05
    return Measure(tuple(map(tuple, pts)), tuple(w / w.sum()))


@lru_cache(maxsize=32)
def _spanning_bases(m: int, n: int) -> tuple:
    """All spanning trees of K_{m,n} (m + n - 1 arcs (i, j) joining all nodes), each with
    its leaf-elimination steps (leaf node k, arc index e, node k passes its supply to),
    which depend on the tree alone; rows are nodes 0..m-1, columns nodes m..m+n-1."""
    arcs = [(i, j) for i in range(m) for j in range(n)]
    out = []
    for subset in combinations(range(len(arcs)), m + n - 1):
        parent = list(range(m + n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for k in subset:
            i, j = arcs[k]
            ri, rj = find(i), find(m + j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if not ok:
            continue
        tree = tuple(arcs[k] for k in subset)
        adj = {k: [] for k in range(m + n)}
        for e, (i, j) in enumerate(tree):
            adj[i].append(e)
            adj[m + j].append(e)
        degree = {k: len(adj[k]) for k in adj}
        leaves = [k for k, d in degree.items() if d == 1]
        removed, steps = set(), []
        while leaves:
            k = leaves.pop()
            e = next((e for e in adj[k] if e not in removed), None)
            if e is None:
                continue
            i, j = tree[e]
            other = m + j if k < m else i
            steps.append((k, e, other))
            removed.add(e)
            degree[other] -= 1
            if degree[other] == 1:
                leaves.append(other)
        out.append((tree, tuple(steps)))
    return tuple(out)


def oracle_wasserstein1(mu: Measure, nu: Measure) -> float:
    """Brute-force optimum: enumerate every spanning-tree basis, solve its
    unique flow by leaf elimination, keep the cheapest feasible one."""
    C = _cost_matrix(mu, nu)
    a, b = mu.weight_array(), nu.weight_array()
    m, n = C.shape
    if m * n > 16:
        raise SizeLimit(f"oracle supports |mu|*|nu| <= 16, got {m * n}")
    costs = C.tolist()
    best = math.inf
    for tree, steps in _spanning_bases(m, n):
        flows = [0.0] * len(tree)
        supply = list(a) + [-x for x in b]
        for k, e, other in steps:
            flows[e] = supply[k] if k < m else -supply[k]
            if flows[e] < -1e-12:
                break
            supply[other] += supply[k]
            supply[k] = 0.0
        else:
            cost = sum(f * costs[i][j] for (i, j), f in zip(tree, flows))
            if cost < best:
                best = cost
    return best


def lp_wasserstein(mu: Measure, nu: Measure) -> float:
    a, b = mu.weight_array(), nu.weight_array()
    A, B = mu.array(), nu.array()
    C = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    m, n = C.shape
    A_eq = np.zeros((m + n, m * n))
    for i in range(m):
        A_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A_eq[m + j, j::n] = 1.0
    # at 1e-10 feasibility tolerances HiGHS agrees with an exact solver to ~1e-15
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return float(res.fun)


def test_measure_validation():
    with pytest.raises(InvalidInput, match="weights sum to 0.9"):
        Measure(((0.0,),), (0.9,))  # mass must sum to 1
    with pytest.raises(ValueError):
        Measure(((0.0,), (1.0,)), (-0.1, 1.1))
    with pytest.raises(ValueError):
        Measure(((0.0,), (0.0,)), (0.5, 0.5))  # duplicate support
    with pytest.raises(ValueError, match="support atoms 0 and 1 coincide"):
        Measure(((1.0, 0.0), (1.0 + 1e-13, 0.0)), (0.5, 0.5))  # within 1e-12
    with pytest.raises(InvalidInput, match="malformed weights"):
        Measure(((0.0,),), ("x",))
    with pytest.raises(InvalidInput, match="malformed points"):
        Measure(((0.0, 0.0), (1.0,)), (0.5, 0.5))  # rows of unequal length
    with pytest.raises(InvalidInput, match="malformed point"):
        Measure(((1.0, 2.0), (3.0, "y")), (0.5, 0.5))
    with pytest.raises(DimensionMismatch):
        Measure((1.0, 2.0), (0.5, 0.5))  # scalar atoms
    with pytest.raises(DimensionMismatch):
        Measure(((),), (1.0,))  # an empty atom
    with pytest.raises(DimensionMismatch):
        Measure(((1.0,), ()), (0.5, 0.5))  # ragged, but the empty atom decides
    with pytest.raises(DimensionMismatch):
        Measure((((1.0, 2.0),),), (1.0,))  # a 2-d atom
    with pytest.raises(DimensionMismatch, match="non-finite"):
        Measure(((0.0, 1.0), (np.inf, 0.0)), (0.5, 0.5))
    with pytest.raises(DimensionMismatch, match="non-finite"):
        Measure(((0.0, np.nan), (1.0,)), (0.5, 0.5))  # ragged, but the NaN decides
    with pytest.raises(SizeLimit):
        Measure(tuple((float(i),) for i in range(65)), tuple([1.0 / 65] * 65))
    # tiny weights are dropped, the rest renormalized
    m = Measure(((0.0,), (1.0,)), (1.0 - 1e-15, 1e-15))
    assert len(m.weights) == 1
    assert m.weights[0] == 1.0


def test_measure_arrays_are_cached_and_read_only():
    rng = np.random.default_rng(13)
    for n in (1, 3, 7, 64):
        pts = rng.normal(size=(n, 3))
        w = rng.random(n) + 0.05
        mu = Measure(pts, w / w.sum())
        assert pts.flags.writeable  # the caller's array is copied, not frozen
        for got, want in ((mu.array(), np.asarray(mu.support)),
                          (mu.weight_array(), np.asarray(mu.weights))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert mu.array() is mu.array() and mu.weight_array() is mu.weight_array()
        with pytest.raises(ValueError):
            mu.array()[0, 0] = 1.0
        with pytest.raises(ValueError):
            mu.weight_array()[0] = 1.0


def test_measure_tuples_are_the_float_conversion():
    # the tuples hold the same Python floats as converting each kept atom and
    # renormalized weight with float()
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(6, 2)) * 1e3
    w = np.concatenate([rng.random(5) + 0.05, [1e-15]])
    w[:5] /= w[:5].sum()
    mu = Measure(tuple(map(tuple, pts)), tuple(w))
    keep = w > 1e-14
    want_support = tuple(tuple(map(float, p)) for p in pts[keep])
    want_weights = tuple(map(float, w[keep] / float(w[keep].sum())))
    assert len(mu.support) == 5
    assert repr(mu.support) == repr(want_support)
    assert np.asarray(mu.weights).tobytes() == np.asarray(want_weights).tobytes()
    assert all(type(x) is float for p in mu.support for x in p)
    assert all(type(x) is float for x in mu.weights)


def test_plan_cost_forced_plans():
    # one Dirac onto itself: the only plan is the single cell of mass 1
    dx = Measure(((0.5, 0.5),), (1.0,))
    assert plan_cost(TransportPlan(((1.0,),)), dx, dx) == 0.0
    # Dirac to Dirac: cost is the point distance
    dy = Measure(((3.5, 4.5),), (1.0,))
    assert plan_cost(TransportPlan(((1.0,),)), dx, dy) == pytest.approx(5.0, abs=1e-12)
    # split source onto a midpoint Dirac: both cells forced, every unit moves 1/2
    mu = Measure(((0.0,), (1.0,)), (0.5, 0.5))
    nu = Measure(((0.5,),), (1.0,))
    assert plan_cost(TransportPlan(((0.5,), (0.5,))), mu, nu) == pytest.approx(0.5, abs=1e-12)


def test_wasserstein_frozen_values():
    # values frozen from oracle_wasserstein1
    d0 = Measure(((0.0, 0.0),), (1.0,))
    d1 = Measure(((1.0, 0.0),), (1.0,))
    assert wasserstein1(d0, d1)[0] == pytest.approx(1.0, abs=1e-12)
    # half at 0, half at 1, target is the midpoint: every unit travels 1/2
    mu = Measure(((0.0,), (1.0,)), (0.5, 0.5))
    nu = Measure(((0.5,),), (1.0,))
    assert wasserstein1(mu, nu)[0] == pytest.approx(0.5, abs=1e-12)
    # unbalanced split: 3/4 of the mass crosses distance 2
    mu = Measure(((0.0,), (2.0,)), (0.75, 0.25))
    nu = Measure(((0.0,), (2.0,)), (0.0 + 0.25, 0.75))
    assert wasserstein1(mu, nu)[0] == pytest.approx(1.0, abs=1e-12)
    # quarter/three-quarter swap on {0,1}: half the mass crosses distance 1
    mu = Measure(((0.0,), (1.0,)), (0.25, 0.75))
    nu = Measure(((0.0,), (1.0,)), (0.75, 0.25))
    assert wasserstein1(mu, nu)[0] == pytest.approx(0.5, abs=1e-12)
    assert oracle_wasserstein1(mu, nu) == pytest.approx(0.5, abs=1e-12)
    # two horizontal pairs one unit apart vertically: straight-down matching
    mu = Measure(((0.0, 0.0), (1.0, 0.0)), (0.5, 0.5))
    nu = Measure(((0.0, 1.0), (1.0, 1.0)), (0.5, 0.5))
    assert wasserstein1(mu, nu)[0] == pytest.approx(1.0, abs=1e-12)


def test_dirac_distance_is_point_distance():
    rng = np.random.default_rng(10)
    for _ in range(30):
        x, y = rng.normal(size=(2, 3)) * 3
        dxy, _ = wasserstein1(Measure((tuple(x),), (1.0,)), Measure((tuple(y),), (1.0,)))
        assert dxy == pytest.approx(float(np.linalg.norm(x - y)), abs=1e-12)
    dx = Measure(((2.0, 2.0),), (1.0,))
    assert oracle_wasserstein1(dx, dx) == 0.0


def test_wasserstein_matches_tree_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(400):
        mu = random_measure(rng, max_atoms=4, dim=int(rng.integers(1, 4)))
        nu = random_measure(rng, max_atoms=4, dim=mu.dim)
        got, plan = wasserstein1(mu, nu)
        want = oracle_wasserstein1(mu, nu)
        worst = max(worst, abs(got - want) / max(1.0, want))
        assert plan_cost(plan, mu, nu) == pytest.approx(got, abs=1e-10)
    assert worst < 1e-9


def test_wasserstein_matches_lp_on_larger_instances():
    rng = np.random.default_rng(3)
    for _ in range(40):
        mu = random_measure(rng, max_atoms=12, dim=3)
        nu = random_measure(rng, max_atoms=12, dim=3)
        got, _ = wasserstein1(mu, nu)
        assert got == pytest.approx(lp_wasserstein(mu, nu), abs=1e-8)


def test_wasserstein_matches_lp_on_64_atom_supports():
    rng = np.random.default_rng(12)
    for dim in (1, 2, 3):
        mu, nu = (Measure(tuple(map(tuple, rng.normal(size=(64, dim)))),
                          tuple(w / w.sum())) for w in rng.random((2, 64)) + 0.05)
        got, plan = wasserstein1(mu, nu)
        assert got == pytest.approx(lp_wasserstein(mu, nu), abs=1e-9)
        assert plan_cost(plan, mu, nu) == pytest.approx(got, abs=1e-10)


PIN_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 48, 64)


def pinned_instances():
    """300 seeded pairs in dims 1-3 with 1-64 atoms a side: random supports
    and weights, uniform weights on subsets of the 4^dim grid, the whole grid
    against a permutation of itself, and uniform collinear equispaced supports
    shifted by a quarter step. The last three are degenerate; the permuted
    3-d grids run the Bland fallback."""
    rng = np.random.default_rng(20)
    for k in range(300):
        dim = int(rng.integers(1, 4))
        m, n = (int(rng.choice(PIN_SIZES)) for _ in range(2))
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * dim, indexing="ij"), -1).reshape(-1, dim)
        kind = k % 4
        if kind == 0:
            pts = [rng.normal(size=(s, dim)) for s in (m, n)]
            ws = [rng.random(s) + 0.05 for s in (m, n)]
            ws = [w / w.sum() for w in ws]
        elif kind == 1:
            m, n = min(m, len(grid)), min(n, len(grid))
            pts = [grid[rng.choice(len(grid), size=s, replace=False)] for s in (m, n)]
            ws = [np.full(s, 1.0 / s) for s in (m, n)]
        elif kind == 3:
            pts = [grid, grid[rng.permutation(len(grid))]]
            ws = [np.full(len(grid), 1.0 / len(grid))] * 2
        else:
            u = rng.normal(size=dim)
            u /= np.linalg.norm(u)
            pts = [np.arange(s)[:, None] * u for s in (m, n)]
            pts[1] = pts[1] + 0.25 * u
            ws = [np.full(s, 1.0 / s) for s in (m, n)]
        yield tuple(Measure(tuple(map(tuple, p)), tuple(w)) for p, w in zip(pts, ws))


def test_pinned_pairs_cover_both_pricings():
    # the digest below fixes the pivots of list pricing and numpy pricing only
    # while the pinned pairs fall on both sides of the switch
    cells = [len(mu.weights) * len(nu.weights) for mu, nu in pinned_instances()
             if min(len(mu.weights), len(nu.weights)) > 1]
    assert sum(c <= _LIST_PRICING_CELLS for c in cells) >= 50
    assert sum(c > _LIST_PRICING_CELLS for c in cells) >= 50


def test_pivot_sequence_is_pinned():
    # the digest fixes every value and plan entry bit for bit, so a change of
    # pivot rule, tie-break or dual arithmetic shows; it was taken from an
    # earlier solver that rebuilt its basis tree on every pivot
    digest = hashlib.sha256()
    for mu, nu in pinned_instances():
        value, plan = wasserstein1(mu, nu)
        digest.update(repr((value, plan.entries)).encode())
    assert digest.hexdigest() == "d5500115001cabafea5114002970abf8c389c28d93a19db5cc2d3d9d1af92c60"


def test_oracle_size_limit():
    rng = np.random.default_rng(4)
    mu = random_measure(rng, max_atoms=5, dim=1)
    nu = Measure(tuple((float(i), ) for i in range(5)), tuple([0.2] * 5))
    while len(mu.weights) * len(nu.weights) <= 16:
        mu = random_measure(rng, max_atoms=5, dim=1)
    with pytest.raises(SizeLimit):
        oracle_wasserstein1(mu, nu)


def test_metric_axioms():
    rng = np.random.default_rng(5)
    for _ in range(60):
        mu = random_measure(rng, max_atoms=3, dim=2)
        nu = random_measure(rng, max_atoms=3, dim=2)
        pi = random_measure(rng, max_atoms=3, dim=2)
        dmn, _ = wasserstein1(mu, nu)
        dnm, _ = wasserstein1(nu, mu)
        assert dmn >= 0
        assert dmn == pytest.approx(dnm, abs=1e-10)  # symmetry
        dmp, _ = wasserstein1(mu, pi)
        dpn, _ = wasserstein1(pi, nu)
        assert dmn <= dmp + dpn + 1e-9  # triangle inequality
        assert wasserstein1(mu, mu)[0] == pytest.approx(0.0, abs=1e-12)


def test_translation_invariance():
    rng = np.random.default_rng(6)
    for _ in range(40):
        mu = random_measure(rng, max_atoms=4, dim=2)
        nu = random_measure(rng, max_atoms=4, dim=2)
        v = rng.normal(size=2)
        mu2 = Measure(tuple(tuple(np.asarray(p) + v) for p in mu.support), mu.weights)
        nu2 = Measure(tuple(tuple(np.asarray(p) + v) for p in nu.support), nu.weights)
        assert wasserstein1(mu, nu)[0] == pytest.approx(wasserstein1(mu2, nu2)[0], abs=1e-9)


def test_degenerate_instances_terminate():
    # uniform weights on collinear equispaced points: heavily degenerate
    for n in (4, 8, 16, 32, 64):
        pts = tuple((float(i),) for i in range(n))
        w = tuple([1.0 / n] * n)
        mu = Measure(pts, w)
        nu = Measure(tuple((float(i) + 0.25,) for i in range(n)), w)
        got, plan = wasserstein1(mu, nu)
        assert got == pytest.approx(0.25, abs=1e-10)  # everyone shifts 0.25
        assert plan_cost(plan, mu, nu) == pytest.approx(got, abs=1e-10)
    # permuted grid against itself: optimal cost zero with ties everywhere
    rng = np.random.default_rng(8)
    grid = [(float(i), float(j)) for i in range(4) for j in range(4)]
    perm = rng.permutation(16)
    mu = Measure(tuple(grid), tuple([1 / 16] * 16))
    nu = Measure(tuple(grid[i] for i in perm), tuple([1 / 16] * 16))
    assert wasserstein1(mu, nu)[0] == pytest.approx(0.0, abs=1e-12)


def test_plan_marginals_checked():
    mu = Measure(((0.0,), (1.0,)), (0.5, 0.5))
    nu = Measure(((0.5,),), (1.0,))
    _, plan = wasserstein1(mu, nu)
    with pytest.raises(DimensionMismatch):
        plan_cost(plan, nu, mu)  # transposed shape rejected
    with pytest.raises(InvalidInput):
        # right shape, wrong marginals
        other = Measure(((0.0,), (1.0,)), (0.25, 0.75))
        plan_cost(plan, other, nu)
    square = Measure(((0.0,), (1.0,)), (0.5, 0.5))
    for entries, match in ((((0.5,), (0.25, 0.25)), "malformed transport plan"),
                           ((("a", 0.5), (0.0, 0.5)), "malformed transport plan"),
                           (((0.5, 0.0), (0.0, math.nan)), "non-finite")):
        with pytest.raises(InvalidInput, match=match):
            plan_cost(TransportPlan(entries), square, square)


def test_measure_text_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(20):
        mu = random_measure(rng, max_atoms=5, dim=3)
        text = "".join(" ".join(format(x, ".17g") for x in (w,) + p) + "\n"
                       for w, p in zip(mu.weights, mu.support))
        again = parse_measure_text(text)
        assert np.array_equal(again.array(), mu.array())
        # constructor renormalization may shift the last ulp
        assert np.allclose(again.weight_array(), mu.weight_array(), rtol=0, atol=1e-15)
    parsed = parse_measure_text("# comment\n0.5 0 0\n0.5 1 0\n")
    assert parsed.weights == (0.5, 0.5)
    with pytest.raises(ValueError):
        parse_measure_text("0.5 0 0\n0.5 1\n")  # ragged coordinates
    for bad in ("0.5 0\n0.5 x\n", "0.5\n", "# nothing\n", "0.9 0\n"):
        with pytest.raises(InvalidInput):
            parse_measure_text(bad)
