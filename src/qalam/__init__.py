"""Arabic text shaping and justification engine.

Pipeline: classify and cluster text (textmodel), shape words against a
declarative font description (fontmodel, lookups, shaper), position and
resize diacritics to fill the space words offer (diacritics), plan
elongations (kashida), and break paragraphs into justified lines
(justify). The qalam CLI drives the whole chain and emits layout JSON and
SVG proofs.

Records are ``typing.NamedTuple``s (``errors.checked`` adds field checks)
and mutable working state is a ``__slots__`` class. No module uses
``dataclasses``: generating their methods cost most of a command's start-up.
"""

from .errors import Diagnostic, QalamError, Severity
from .fontmodel import FontDescription, SizeVariant, lint_font, load_font, serialize_font
from .justify import GlueSpec, JustifyParams, break_greedy, break_optimum
from .shaper import ShapedWord, WordVariant, shape_word, word_variants
from .textmodel import (
    CharClass,
    Cluster,
    Form,
    analyze_joining,
    classify_codepoint,
    decompose,
    flatten,
)

__version__ = "0.1.0"

__all__ = [
    "CharClass",
    "Cluster",
    "Diagnostic",
    "FontDescription",
    "Form",
    "GlueSpec",
    "JustifyParams",
    "QalamError",
    "Severity",
    "ShapedWord",
    "SizeVariant",
    "WordVariant",
    "analyze_joining",
    "break_greedy",
    "break_optimum",
    "classify_codepoint",
    "decompose",
    "flatten",
    "lint_font",
    "load_font",
    "serialize_font",
    "shape_word",
    "word_variants",
    "__version__",
]
