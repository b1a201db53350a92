r"""JSON text without the json module.

dumps(obj) gives the bytes json.dumps(obj, indent=2, sort_keys=True) gives
the documents the CLI writes: dicts with str keys, lists, int, bool, None
and str of printable ASCII without " or \, which need no escapes.  A str
that would need one raises ValueError, and any other type (a float, a
tuple, a dict key that is not a str) TypeError, so no input makes the
writer emit text json.dumps would not.  newline(depth) is the one
definition of the indentation, for dumps and the CLI's streamed tables.
"""

from __future__ import annotations


def newline(depth: int) -> str:
    """The line break and indent before a line at nesting depth `depth`."""
    return "\n" + "  " * depth


def _plain(text: str) -> str:
    """text, a str that stands in a JSON string as it is: TypeError for any
    other type (a dict key may be one), ValueError for a str that would need
    an escape."""
    if not isinstance(text, str):
        raise TypeError(f"keys must be str, not {type(text).__name__}")
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return text
    raise ValueError(f"{text!r} would need escapes in a JSON string")


def dumps(obj: object, depth: int = 0) -> str:
    """The text json.dumps(obj, indent=2, sort_keys=True) gives obj standing
    at nesting depth `depth`.  A list of ints is written with one format,
    and a list of strs is joined in one join."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return '"' + _plain(obj) + '"'
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner, outer = newline(depth + 1), newline(depth)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        parts = ('"' + _plain(key) + '": ' + dumps(value, depth + 1) for key, value in items)
        brackets = "{}"
    elif isinstance(obj, list):
        items = obj
        kinds = set(map(type, obj))
        if kinds == {int}:
            cells = ("%d," + inner) * (len(obj) - 1) + "%d"
            return ("[" + inner + cells + outer + "]") % tuple(obj)
        if kinds == {str}:
            _plain("".join(obj))  # each str stands as it is when the join does
            parts = ['"' + ('",' + inner + '"').join(obj) + '"']  # one part, quoted
        else:
            parts = (dumps(value, depth + 1) for value in obj)
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(parts) + outer + brackets[1]
