"""Property test: render_json writes the bytes of the stdlib's indented
encoder, json.dumps(x, sort_keys=True, indent=2) plus a newline, on every
value that encoder accepts, and refuses what it refuses."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeclose.cli import render_json


def reference(x):
    return json.dumps(x, sort_keys=True, indent=2) + "\n"


TEXT = st.one_of(
    # every category, lone surrogates and control characters included
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(["", "ε", "\ud800", "\udfff", "\x00", "\x1f", "\x7f", '"', "\\",
                     " ", "\U0001d11e", "1.2.0"]),
)
FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)
# a germ's pairs, empty inner lists, and lists mixing string lists with
# other values
STRING_LISTS = st.one_of(
    st.lists(st.lists(TEXT, min_size=1, max_size=3), max_size=4),
    st.lists(st.lists(TEXT, max_size=3), max_size=4),
    st.lists(st.one_of(st.lists(TEXT, min_size=1, max_size=2).map(tuple), TEXT,
                       st.integers(), st.lists(st.integers(), max_size=2)), max_size=4),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(FLOATS, children, max_size=4),
        st.dictionaries(st.booleans(), children, max_size=2),
    )


VALUES = st.recursive(st.one_of(SCALARS, STRING_LISTS), _containers, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_render_json_writes_the_indented_encoders_bytes(value):
    assert render_json(value) == reference(value)


@pytest.mark.parametrize("value", [
    {1, 2}, [["a"], {"b"}], {"a": frozenset()}, {(1, 2): 3}, {1: 2, "a": 3}, object(),
])
def test_render_json_refuses_what_the_encoder_refuses(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        render_json(value)
