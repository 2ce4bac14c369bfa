"""Machine-readable layout documents (schema qalam-layout/1).

A layout document is what the shape and justify commands emit and what the
renderer consumes: per line, a list of glyph records with pen positions,
advances, elongations, and nested mark records. Coordinates are logical
(x grows in writing order from the line start); the ``direction`` field
tells renderers to mirror for right-to-left display.
"""

from __future__ import annotations

import json
from typing import Sequence

from .errors import Diagnostic, MalformedLayout
from .fontmodel import FontDescription, SizeVariant
from . import jsonin
from .justify import ParagraphLayout
from .shaper import ShapedWord

SCHEMA_ID = "qalam-layout/1"

#: Each size's name; ``SizeVariant.value`` is a property that runs in Python.
_VARIANT_NAME = {v: v.value for v in SizeVariant}
_VARIANT_NAMES = frozenset(_VARIANT_NAME.values())


def _glyph_records(
    font: FontDescription, word: ShapedWord, word_x: int
) -> list[dict]:
    tables = word.tables
    glyphs, mark_sizes, names = word.glyphs, font.mark_sizes, _VARIANT_NAME
    records = []
    for i in tables.bases:
        pg = glyphs[i]
        marks = []
        for mi in tables.marks_of[i]:
            mg = glyphs[mi]
            mark, size = mark_sizes[mg.glyph]
            marks.append(
                {
                    "mark": mark,
                    "variant": names[size],
                    "dx": mg.x_offset - pg.x_offset,
                    "dy": mg.y_offset - pg.y_offset,
                }
            )
        records.append(
            {
                "glyph": pg.glyph,
                "x": word_x + tables.pens[i] + pg.x_offset,
                "y": pg.y_offset,
                "advance": pg.advance,
                "elongation": pg.elongation,
                "marks": marks,
            }
        )
    return records


def _document(
    font: FontDescription,
    measure: int | None,
    lines: list[dict],
    diagnostics: Sequence[Diagnostic],
) -> dict:
    return {
        "schema": SCHEMA_ID,
        "font_id": font.font_id,
        "units_per_em": font.units_per_em,
        "direction": "rtl",
        "measure": measure,
        "lines": lines,
        "diagnostics": [d.to_json() for d in diagnostics],
    }


def _line(
    font: FontDescription,
    words: Sequence[ShapedWord],
    glue_widths: Sequence[int],
    width: int | None,
) -> dict:
    """A line record: ``words`` laid from x 0 with ``glue_widths[k]`` after
    word k. Its width is ``width``, or the line's extent when that is None."""
    glyphs: list[dict] = []
    x = 0
    for word, glue_width in zip(words, (*glue_widths, 0)):
        glyphs.extend(_glyph_records(font, word, x))
        x += word.natural_width + glue_width
    return {"width": x if width is None else width, "glyphs": glyphs}


def shaped_document(
    font: FontDescription,
    words: Sequence[ShapedWord],
    diagnostics: Sequence[Diagnostic] = (),
) -> dict:
    """Document for an unjustified run: one line at natural widths."""
    lines = []
    if words:
        lines.append(_line(font, words, [font.glue.width] * (len(words) - 1), None))
    return _document(font, None, lines, diagnostics)


def justified_document(font: FontDescription, layout: ParagraphLayout) -> dict:
    lines = [
        _line(font, line.words, line.candidate.glue_widths, line.candidate.width)
        for line in layout.lines
    ]
    return _document(font, layout.measure, lines, layout.diagnostics)


# ``dumps`` writes each record kind from a template over these keys, in this
# (sorted) order: a key the builders above add or drop must be added to or
# dropped from its tuple.
_DOC_KEYS = (
    "diagnostics", "direction", "font_id", "lines", "measure", "schema",
    "units_per_em",
)
_DIAGNOSTIC_KEYS = ("code", "location", "message", "severity")
_LINE_KEYS = ("glyphs", "width")
_GLYPH_KEYS = ("advance", "elongation", "glyph", "marks", "x", "y")
_MARK_KEYS = ("dx", "dy", "mark", "variant")

_string = json.encoder.encode_basestring_ascii


def _template(keys: tuple[str, ...], depth: int) -> str:
    """A %-template for an object at ``depth`` whose values are all %s."""
    pad = " " * depth
    fields = ",\n".join(f'{pad} "{key}": %s' for key in keys)
    return f"{pad}{{\n{fields}\n{pad}}}"


def _array(items: list[str], depth: int) -> str:
    """A JSON array closed at ``depth`` from items already indented."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + " " * depth + "]"


_DOC = _template(_DOC_KEYS, 0) + "\n"
_DIAGNOSTIC = _template(_DIAGNOSTIC_KEYS, 2)
_LINE = _template(_LINE_KEYS, 2)
_GLYPH = _template(_GLYPH_KEYS, 4)
_MARK = _template(_MARK_KEYS, 6)


def dumps(doc: dict) -> str:
    """The text of a layout document: exactly what
    ``json.dumps(doc, sort_keys=True, indent=1)`` writes, plus a newline.

    ``doc`` must have the key sets of ``shaped_document`` and
    ``justified_document``, with integers (not bools) for every number.
    """
    lines = []
    for line in doc["lines"]:
        glyphs = [
            _GLYPH
            % (
                g["advance"],
                g["elongation"],
                _string(g["glyph"]),
                _array(
                    [
                        _MARK % (m["dx"], m["dy"], _string(m["mark"]), _string(m["variant"]))
                        for m in g["marks"]
                    ],
                    5,
                ),
                g["x"],
                g["y"],
            )
            for g in line["glyphs"]
        ]
        lines.append(_LINE % (_array(glyphs, 3), line["width"]))
    diagnostics = [
        _DIAGNOSTIC
        % (
            _string(d["code"]),
            _array([f"    {i}" for i in d["location"]], 3),
            _string(d["message"]),
            _string(d["severity"]),
        )
        for d in doc["diagnostics"]
    ]
    measure = doc["measure"]
    return _DOC % (
        _array(diagnostics, 1),
        _string(doc["direction"]),
        _string(doc["font_id"]),
        _array(lines, 1),
        "null" if measure is None else measure,
        _string(doc["schema"]),
        doc["units_per_em"],
    )


def _where(at: tuple[int, ...]) -> str:
    return " ".join(f"{kind} {i}" for kind, i in zip(("line", "glyph", "mark"), at))


def _check_record(record, at: tuple[int, ...], keys: tuple[str, ...], size_key, ints) -> None:
    """Check the record at ``at``, (line, glyph[, mark]), in this order: an object,
    ``keys`` present, the id string ``keys[0]``, a size ``size_key``, integers ``ints``."""
    if not isinstance(record, dict):
        raise MalformedLayout(f"{_where(at)} must be an object")
    for key in keys:
        if key not in record:
            raise MalformedLayout(f"{_where(at)} missing field {key!r}")
    if not isinstance(record[keys[0]], str):
        raise MalformedLayout(f"{_where(at)}: {keys[0]} id must be a string")
    if size_key is not None:
        size = record[size_key]
        if not isinstance(size, str) or size not in _VARIANT_NAMES:
            raise MalformedLayout(
                f"{_where(at)}: {size_key} must be one of "
                f"{sorted(_VARIANT_NAMES)}, got {size!r}"
            )
    for key in ints:
        if type(record[key]) is not int:
            raise MalformedLayout(f"{_where(at)}: {key} must be an integer")


def validate_document(doc) -> dict:
    """Structural check of a layout document; raises MalformedLayout."""
    if not isinstance(doc, dict):
        raise MalformedLayout("layout must be a JSON object")
    if doc.get("schema") != SCHEMA_ID:
        raise MalformedLayout(f"layout must declare schema {SCHEMA_ID!r}")
    for key in ("font_id", "units_per_em", "direction", "lines"):
        if key not in doc:
            raise MalformedLayout(f"layout missing field {key!r}")
    # The renderer draws right to left and names the font it was set in.
    if doc["direction"] != "rtl":
        raise MalformedLayout('direction must be "rtl"')
    if not isinstance(doc["font_id"], str):
        raise MalformedLayout("font_id must be a string")
    if type(doc["units_per_em"]) is not int or doc["units_per_em"] <= 0:
        raise MalformedLayout("units_per_em must be a positive integer")
    measure = doc.get("measure")
    if measure is not None and (type(measure) is not int or measure <= 0):
        raise MalformedLayout("measure must be a positive integer or null")
    if not isinstance(doc["lines"], list):
        raise MalformedLayout("lines must be an array")
    for li, line in enumerate(doc["lines"]):
        if not isinstance(line, dict) or not isinstance(line.get("glyphs"), list):
            raise MalformedLayout(f"line {li} must be an object with a glyphs array")
        if type(line.get("width")) is not int:
            raise MalformedLayout(f"line {li}: width must be an integer")
        if line["width"] < 0:
            raise MalformedLayout(f"line {li}: width must be a non-negative integer")
        for gi, glyph in enumerate(line["glyphs"]):
            _check_record(
                glyph, (li, gi), ("glyph", "x", "y", "advance", "elongation", "marks"),
                None, ("x", "y", "advance", "elongation"),
            )
            for key in ("advance", "elongation"):
                if glyph[key] < 0:
                    raise MalformedLayout(
                        f"line {li} glyph {gi}: {key} must be a non-negative integer"
                    )
            if not isinstance(glyph["marks"], list):
                raise MalformedLayout(f"line {li} glyph {gi}: marks must be an array")
            for mi, mark in enumerate(glyph["marks"]):
                _check_record(
                    mark, (li, gi, mi), ("mark", "variant", "dx", "dy"), "variant", ("dx", "dy")
                )
    return doc


def loads(text: str) -> dict:
    return validate_document(jsonin.loads(text, "layout", MalformedLayout, MalformedLayout))
