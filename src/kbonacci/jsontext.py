r"""JSON text without the json module.

dumps(obj) gives the bytes json.dumps(obj, indent=2, sort_keys=True) gives
a document made of dicts with str keys, lists, str, int, bool and None.
Strings are escaped as json's default (ensure_ascii) escapes them: " and
\ get a backslash; \b \f \n \r \t are written so; other code points below
0x20, and 0x7f, become \u00XX; every other non-ASCII code point becomes
\uXXXX, or a surrogate pair \uD8XX\uDCXX above U+FFFF.
"""

from __future__ import annotations

_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\b": "\\b",
    "\f": "\\f",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _escape(char: str) -> str:
    """One character of a JSON string, with every non-ASCII code point escaped."""
    if char in _ESCAPES:
        return _ESCAPES[char]
    n = ord(char)
    if 0x20 <= n < 0x7F:
        return char
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000  # a UTF-16 surrogate pair
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _plain(text: str) -> bool:
    """Whether text stands in a JSON string as it is, with no escapes."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _string(text: str) -> str:
    if _plain(text):
        return '"' + text + '"'
    return '"' + "".join(map(_escape, text)) + '"'


def dumps(obj: object, depth: int = 0) -> str:
    """The text json.dumps(obj, indent=2, sort_keys=True) gives a document
    of dicts with str keys, lists, str, int, bool and None, standing at
    nesting depth `depth`.  A list of plain ints is written with one format,
    and a list of strs that need no escapes is joined in one join."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    pad = "\n" + "  " * (depth + 1)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        parts = (_string(key) + ": " + dumps(value, depth + 1) for key, value in items)
        brackets = "{}"
    elif isinstance(obj, list):
        items = obj
        kinds = set(map(type, obj))
        if kinds == {int}:
            cells = ("%d," + pad) * (len(obj) - 1) + "%d"
            return ("[" + pad + cells + pad[:-2] + "]") % tuple(obj)
        if kinds == {str} and _plain("".join(obj)):
            parts = ['"' + ('",' + pad + '"').join(obj) + '"']  # one part, quoted
        else:
            parts = (dumps(value, depth + 1) for value in obj)
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + pad + ("," + pad).join(parts) + pad[:-2] + brackets[1]
