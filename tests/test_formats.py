"""The one-pass report JSON writer against its two-pass rule.

``formats.json_dumps`` rounds and writes in one recursive pass; the
reference in ``tests/helpers.py`` rounds a copy first and hands it to
``json.dumps(..., indent=2, allow_nan=False)``. Both must give the same
text, or raise the same error, on any value.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointkit.critvals import rejections
from cointkit.formats import json_dumps, significance_stars
from helpers import json_dumps_reference

_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e16, -1e16, 9999999999999998.0, 1e15, 123456789012.5, 0.1, 1 / 3, 1e-4, 1e-5,
    1.7976931348623157e308, math.inf, -math.inf, math.nan,
]
_EDGE_TEXT = ['"', "\\", "\x00", "\x1f", "\x7f", "\n\t\r\b\f", " ", "é", "\U0001f600", "\ud800", "\udfff", ""]

floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS), st.floats().map(np.float64))
ints = st.one_of(st.integers(), st.integers(-(2**200), 2**200), st.sampled_from([2**63, -(2**63) - 1, 10**40]))
texts = st.one_of(st.text(), st.text(st.characters(max_codepoint=0x7F)), st.sampled_from(_EDGE_TEXT))
keys = st.one_of(texts, ints, floats, st.booleans(), st.none())
values = st.recursive(
    st.one_of(st.none(), st.booleans(), ints, floats, texts),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=30,
)


def _outcome(dumps, obj):
    """The text ``dumps`` writes for ``obj``, or the type and message of its error."""
    try:
        return dumps(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(obj=values)
def test_one_pass_writer_matches_round_then_json_dumps(obj):
    assert _outcome(json_dumps, obj) == _outcome(json_dumps_reference, obj)


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, object()], ids=["int64", "set", "object"])
@pytest.mark.parametrize("place", ["top", "list", "nested_dict"])
def test_values_json_cannot_write_raise_type_error_on_both(bad, place):
    obj = {"top": bad, "list": [1.5, bad], "nested_dict": {"a": {"b": (None, bad)}}}[place]
    outcome = _outcome(json_dumps, obj)
    assert outcome == _outcome(json_dumps_reference, obj)
    assert outcome == (TypeError, f"Object of type {type(bad).__name__} is not JSON serializable")


@pytest.mark.parametrize("key", [(1, 2), np.int64(3), math.nan, -math.inf], ids=["tuple", "int64", "nan", "-inf"])
def test_keys_json_cannot_write_raise_the_same_error_on_both(key):
    outcome = _outcome(json_dumps, {"ok": 1.0, key: 2.0})
    assert outcome == _outcome(json_dumps_reference, {"ok": 1.0, key: 2.0})
    assert outcome[0] in (TypeError, ValueError)


@pytest.mark.parametrize(
    "statistic, stars",
    [(-4.0, "***"), (-3.0, "**"), (-2.9, "*"), (-2.0, "*"), (-1.9, ""), (-3.5, "**")],
)
def test_significance_stars_mark_the_strictest_level_rejected(statistic, stars):
    # A level rejects when the statistic lies strictly below its critical value.
    assert significance_stars(rejections(statistic, {1: -3.5, 5: -2.9, 10: -1.9})) == stars
