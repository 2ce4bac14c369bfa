"""Exception hierarchy and the diagnostic record shared across the engine.

Errors split into three families that the command-line driver maps to
distinct exit codes: font problems (bad font file, missing glyph data),
text problems (ill-formed input), and layout problems (a paragraph that
cannot be set at the requested measure).

Diagnostics are non-fatal findings: font lint results, unresolvable mark
overlaps, leftover space annotations. They carry a stable machine-readable
code (documented in docs/layout-format.md) plus a human message.

``checked`` makes a ``NamedTuple`` record check its fields whenever one is
built.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class QalamError(Exception):
    """Base class for every error raised by this package."""


# --- font family (CLI exit 1) -------------------------------------------

class FontError(QalamError):
    """A problem with the font description or its glyph data."""


class ParseError(FontError):
    """Font file is not valid UTF-8 JSON."""


class SchemaError(FontError):
    """Font file parses but violates the qalam-font/1 schema."""


class RefError(FontError):
    """A glyph id is referenced but not defined."""

    def __init__(self, glyph_id: str, context: str = ""):
        self.glyph_id = glyph_id
        where = f" ({context})" if context else ""
        super().__init__(f"unknown glyph id {glyph_id!r}{where}")


class RangeError(FontError):
    """A numeric font parameter is out of its legal range."""


class NoGlyph(FontError):
    """No glyph is mapped for a (letter, form) pair."""


class MissingAnchor(FontError):
    """A mark attachment needs an anchor the glyph does not define."""


class BadComponent(FontError):
    """A ligature component index is out of bounds."""


class MissingVariant(FontError):
    """A size variant is requested but not defined for the mark."""


# --- text family (CLI exit 2) -------------------------------------------

class TextError(QalamError):
    """Ill-formed input text."""


class LeadingMark(TextError):
    """A combining mark or elongation hint appeared with no base letter."""


class DuplicateMark(TextError):
    """A cluster received conflicting or repeated vowel marks."""


class EmptyWord(TextError):
    """An operation that needs at least one letter got none."""


class UnsupportedCharacter(TextError):
    """Input contains a code point outside the registered repertoire."""


class MalformedLayout(TextError):
    """A layout document does not follow the qalam-layout/1 schema."""


# --- layout family (CLI exit 3) -----------------------------------------

class LayoutError(QalamError):
    """The paragraph cannot be set as requested."""


class WordTooWide(LayoutError):
    """A single word exceeds the measure in every variant."""


class NoFeasibleBreak(LayoutError):
    """No sequence of feasible lines covers the paragraph."""


class CapacityExceeded(LayoutError):
    """An elongation plan assigns more than a glyph's stretch capacity."""


# --- diagnostics ----------------------------------------------------------

class Severity(enum.Enum):
    ERROR = "error"
    WARN = "warn"
    INFO = "info"


class Diagnostic(NamedTuple):
    """One non-fatal finding, with a stable code for tooling."""

    severity: Severity
    code: str
    message: str
    location: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "severity": self.severity.value,
            "code": self.code,
            "message": self.message,
            "location": list(self.location),
        }


def checked(cls):
    """Decorate a ``NamedTuple`` class so that every record ``cls(...)``,
    ``cls._make`` or ``record._replace`` builds runs ``record._check()``,
    which raises on bad field values. ``tuple.__new__(cls, values)`` builds
    a record without the check, for values already checked."""

    def with_check(build):
        def build_checked(*args, **kwargs):
            record = build(*args, **kwargs)
            record._check()
            return record

        return build_checked

    cls.__new__ = with_check(cls.__new__)
    cls._make = classmethod(with_check(cls._make.__func__))
    return cls
