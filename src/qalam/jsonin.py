"""Strict reading of untrusted JSON: fonts, their lookup rules, layouts.

Strict means no key repeated in one object (``json.loads`` alone keeps the
last), no bool as an integer (the one integer test is ``type(v) is int``;
JSON yields no other int subclass), and one error line for every fault: a
``QalamError`` subclass naming the field, never a raw Python exception.
``loads`` parses a document; each reader below checks one font field.
"""

from __future__ import annotations

import json

from .errors import SchemaError


class _RepeatedKey(Exception):
    """Raised by the parse hook; ``loads`` turns it into the caller's error."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise _RepeatedKey(next(key for key in obj if keys.count(key) > 1))
    return obj


def loads(text: str, what: str, bad_json: type[Exception], repeated: type[Exception]):
    """Parse the document ``what``: ``bad_json`` if ``text`` is not JSON
    that Python can read (too deep, an integer too long), ``repeated`` if
    one object names a key twice."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise bad_json(f"{what} is not valid JSON: {exc}") from exc
    except _RepeatedKey as exc:
        raise repeated(f"key {exc.args[0]!r} appears twice in one object") from None


def int_key(key: str, bad: str) -> int:
    """An object key naming an integer in its one spelling: not "03", " 1"
    or "٣"; else the error ``bad`` and the key."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise SchemaError(f"{bad} {key!r}")


def require(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise SchemaError(f"{ctx}: missing required field {key!r}")
    return obj[key]


def as_int(value, ctx: str) -> int:
    if type(value) is not int:
        raise SchemaError(f"{ctx}: expected an integer, got {value!r}")
    return value


def _reader(kind: type, expected: str):
    """A reader that returns a value of type ``kind`` and rejects others."""
    def read(value, ctx: str):
        if not isinstance(value, kind):
            raise SchemaError(f"{ctx}: expected {expected}, got {value!r}")
        return value
    return read


as_str = _reader(str, "a string")
as_dict = _reader(dict, "an object")
as_list = _reader(list, "an array")
glyph_id = _reader(str, "a glyph id string")
flag_name = _reader(str, "a flag name string")
flag_names = _reader(list, "an array of flag names")


def glyph_ids(value, ctx: str) -> list[str]:
    if not isinstance(value, list):
        raise SchemaError(f"{ctx}: expected an array of glyph ids, got {value!r}")
    for v in value:
        if not isinstance(v, str):
            raise SchemaError(f"{ctx}: expected a glyph id string, got {v!r}")
    return value


def as_point(value, ctx: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)):
        raise SchemaError(f"{ctx}: expected [x, y], got {value!r}")
    return (value[0], value[1])
