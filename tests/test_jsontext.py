"""The JSON writer against the json module it stands in for."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from kbonacci.jsontext import dumps

# the strings the writer accepts: printable ASCII without " or \
plain_text = st.text(alphabet=[chr(n) for n in range(0x20, 0x7F) if chr(n) not in '"\\'])

# documents with every kind of value the CLI writes; a list of ints may
# hold a bool or None, which must not print as an int
json_documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | plain_text
    | st.lists(st.booleans() | st.integers() | st.none()),
    lambda inner: st.lists(inner) | st.dictionaries(plain_text, inner),
    max_leaves=40,
)

# strings json.dumps would escape: non-ASCII, control characters, DEL,
# the quote and the backslash, and a code point above U+FFFF
NEEDS_ESCAPE = ["\u00e9", "\x00", "\x7f", "\n", '"', "\\", "\U0001f600"]


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(json_documents)
    @example([1, True, 2, None, False])
    @example({"a": [-(2**70), 0, 2**64], "b": [[7], [-1, 3]]})
    @example({"": [], "b": {}, "a": [[], {}], " ~!#": ["x", "", "y z"]})
    def test_matches_json_dumps(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_refuses_other_types(self):
        # floats, tuples and keys other than str never occur in the CLI's
        # documents; refusing them beats writing text that json.dumps would not
        for value in (1.5, (1, 2), [0, 0.5], {1: 2}, {None: 1}):
            with pytest.raises(TypeError):
                dumps(value)

    @pytest.mark.parametrize("text", NEEDS_ESCAPE)
    def test_refuses_strings_that_need_escapes(self, text):
        # no string the CLI writes needs an escape, so the writer has none
        for doc in (text, {text: 1}, ["a", text, "b"]):
            with pytest.raises(ValueError):
                dumps(doc)
