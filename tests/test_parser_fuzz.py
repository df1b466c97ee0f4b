"""The two text parsers on arbitrary text.

parse_config and parse_measure_text either answer or raise a ThickenError,
whatever the text. Besides arbitrary text, values come from a pool of edge
cases: non-finite and overflowing numbers, negative zero, fractions where
integers belong, empty values, stray commas, large dimensions and seeds. A
config that parses names a shape with a finite, positive reach, a finite
bounding box and at most 64 dimensions, the bounds its samplers need to end
in bounded memory, and a seed below 2**64. Nothing here samples or runs a
campaign.
"""
import dataclasses
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from thicken import Measure, ThickenError, parse_config, parse_measure_text, reach  # noqa: E402
from thicken.shapes import SHAPE_KINDS  # noqa: E402

NUMBERS = ("inf", "-inf", "nan", "1e400", "1e308", "1.5e308", "1e200", "1e-200", "-0", "0",
           "2.5", "1", "3", "0.5", "-1", "", "64", "65", "1000000000", "18446744073709551616")
VALUES = NUMBERS + (",", ",,", "1,", ",1", "0.5,,0.9", "0.5,inf", "1,2;3,4", "0,0;inf,0",
                    "1e308;-1e308", ";", "Convex", "VrTub,", "Convex,,EmptyBall", "vr", "cech",
                    "all", "yes", "x")
KEYS = ("shape", "radius", "a", "b", "dim", "major", "minor", "points", "r", "k", "trials",
        "seed", "strict", "lemmas", "flavor", "tightness", "timing", "out", "bogus")
SEPARATORS = (" ", "\n", "  ", "\t", " # note\n", "\n\n")


@st.composite
def config_texts(draw):
    """A shape kind with numbers from the pool for each of its parameters
    and for r, then up to four more pairs from the pool, in any order; a
    repeated key or an empty value is fair game."""
    kind = draw(st.sampled_from(tuple(SHAPE_KINDS) + ("moebius", "")))
    cls = SHAPE_KINDS.get(kind)
    pairs = [(f.name, draw(st.sampled_from(NUMBERS)))
             for f in (dataclasses.fields(cls) if cls else ())]
    pairs += [("r", draw(st.sampled_from(NUMBERS)))]
    pairs += draw(st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)),
                           max_size=4))
    tokens = draw(st.permutations([f"shape={kind}"] + [f"{k}={v}" for k, v in pairs]))
    return "".join(token + draw(st.sampled_from(SEPARATORS)) for token in tokens)


def _parse_config(text):
    try:
        cfg = parse_config(text)
    except ThickenError:
        return
    assert 0.0 < reach(cfg.shape) < math.inf
    assert cfg.shape.ambient_dim <= 64 and 0 <= cfg.seed < 2**64
    assert np.isfinite(cfg.shape.bounding_box()).all()
    assert cfg.lemmas and all(0.0 < r < math.inf for r in cfg.rs)


def _parse_measure(text):
    try:
        mu = parse_measure_text(text)
    except ThickenError:
        return
    assert isinstance(mu, Measure)
    assert np.isfinite(mu.array()).all() and np.isfinite(mu.weight_array()).all()


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_parsers_answer_or_raise_on_any_text(text):
    _parse_config(text)
    _parse_measure(text)


@settings(max_examples=500, deadline=None)
@given(config_texts())
@example("shape=torus major=inf minor=1 r=0.5")    # sampling it never ended
@example("shape=circle radius=inf r=0.5")
@example("shape=finite points=1e308;-1e308 r=0.5")
@example("shape=sphere dim=1000000000 radius=1 r=0.5")   # count x 1e9 normals a draw
def test_parse_config_answers_with_a_bounded_shape_or_raises(text):
    _parse_config(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(VALUES), max_size=4).map(" ".join), max_size=5),
       st.sampled_from(SEPARATORS))
def test_parse_measure_text_answers_or_raises(lines, sep):
    _parse_measure(sep.join(lines))
