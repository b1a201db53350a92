"""The JSON writer against the json module it stands in for."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from kbonacci.jsontext import dumps

# documents with every kind of value the CLI writes; a list of ints may
# hold a bool or None, which must not print as an int
json_documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.text()
    | st.lists(st.booleans() | st.integers() | st.none()),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(json_documents)
    @example([1, True, 2, None, False])
    @example({"a": [-(2**70), 0, 2**64], "b": [[7], [-1, 3]]})
    @example({"": [], "b": {}, "a": [[], {}], "\u00e9\U0001f600\x00\x1f\x7f\"\\": "\b\f\n\r\t"})
    def test_matches_json_dumps(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_refuses_other_types(self):
        # floats and tuples never occur in the CLI's documents; refusing
        # them beats writing text that json.dumps would not
        for value in (1.5, (1, 2), [0, 0.5]):
            with pytest.raises(TypeError):
                dumps(value)
