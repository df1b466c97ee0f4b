"""Property tests of wasserstein1: the metric axioms, agreement with the
spanning-tree oracle on tiny supports, and, on support sizes around the
size at which pricing moves from Python lists to numpy, plan cost and
agreement with a HiGHS LP.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from test_transport import lp_wasserstein, oracle_wasserstein1  # noqa: E402
from thicken import Measure, plan_cost, wasserstein1  # noqa: E402
from thicken.euclid import coincident_pair  # noqa: E402
from thicken.transport import _LIST_PRICING_CELLS  # noqa: E402

# small integers give ties and degenerate plans, floats give generic ones
coords = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False))


def measures(size, dim):
    points = st.lists(st.tuples(*[coords] * dim), min_size=size, max_size=size, unique=True)
    weights = st.lists(st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
                       min_size=size, max_size=size)
    return st.tuples(points, weights).map(_measure)


def _measure(args):
    pts, w = args
    assume(coincident_pair(pts) is None)
    w = np.asarray(w)
    return Measure(tuple(pts), tuple(w / w.sum()))


@st.composite
def measure_lists(draw, count, max_atoms):
    dim = draw(st.integers(1, 3))
    return [draw(measures(draw(st.integers(1, max_atoms)), dim)) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(measure_lists(3, 6))
def test_metric_axioms_hold(ms):
    mu, nu, pi = ms
    d = wasserstein1(mu, nu)[0]
    assert d >= 0.0
    assert wasserstein1(mu, mu)[0] == pytest.approx(0.0, abs=1e-12)
    assert wasserstein1(nu, mu)[0] == pytest.approx(d, abs=1e-10 * max(1.0, d))
    assert d <= wasserstein1(mu, pi)[0] + wasserstein1(pi, nu)[0] + 1e-9
    # the barycenter is 1-Lipschitz in W1, so measures apart in mean are apart
    gap = np.linalg.norm(mu.weight_array() @ mu.array() - nu.weight_array() @ nu.array())
    assert gap <= d + 1e-9


@st.composite
def tiny_pairs(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 16 // m))
    dim = draw(st.integers(1, 3))
    return draw(measures(m, dim)), draw(measures(n, dim))


@settings(max_examples=150, deadline=None)
@given(tiny_pairs())
def test_agrees_with_spanning_tree_oracle(pair):
    mu, nu = pair
    value, plan = wasserstein1(mu, nu)
    assert value == pytest.approx(oracle_wasserstein1(mu, nu), abs=1e-9 * max(1.0, value))
    assert plan_cost(plan, mu, nu) == pytest.approx(value, abs=1e-10)


STRADDLING = ((7, 9), (8, 8), (9, 8), (8, 9), (7, 10))


def test_straddling_sizes_cover_both_pricings():
    cells = [m * n for m, n in STRADDLING]
    assert min(cells) <= _LIST_PRICING_CELLS < max(cells)


@st.composite
def straddling_pairs(draw):
    m, n = draw(st.sampled_from(STRADDLING))
    dim = draw(st.integers(1, 3))
    return draw(measures(m, dim)), draw(measures(n, dim))


@settings(max_examples=60, deadline=None)
@given(straddling_pairs())
def test_plan_cost_and_lp_agree_around_the_pricing_switch(pair):
    mu, nu = pair
    value, plan = wasserstein1(mu, nu)
    assert plan_cost(plan, mu, nu) == pytest.approx(value, abs=1e-10)
    assert value == pytest.approx(lp_wasserstein(mu, nu), abs=1e-9)
