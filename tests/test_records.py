"""The engine's records: each check fires when a record is built, and
importing the command line generates no code.

Every check below is made on direct construction, so that it holds
whatever the record is built from.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from qalam.errors import DuplicateMark, RangeError, SchemaError
from qalam.fontmodel import (
    AnchorPoint,
    GlueSpec,
    GlyphMetrics,
    LigatureEntry,
    LigatureKind,
    Rect,
    SizeThresholds,
)
from qalam.justify import JustifyParams
from qalam.lookups import LookupKind, LookupRule, PlacedGlyph
from qalam.textmodel import (
    DEFAULT_TABLE,
    Cluster,
    JoiningClass,
    LetterRecord,
)

SRC = Path(__file__).resolve().parent.parent / "src"

BEH = DEFAULT_TABLE.letters[0x0628]
FATHA = DEFAULT_TABLE.diacritics[0x064E]
KASRA = DEFAULT_TABLE.diacritics[0x0650]
SHADDA = DEFAULT_TABLE.diacritics[0x0651]
INK = Rect(0, 0, 100, 100)


def letter(stretch_class=2):
    return LetterRecord(
        code_point=0x0628,
        name="beh",
        joining_class=JoiningClass.DUAL,
        skeleton_family="beh",
        stretch_class=stretch_class,
    )


class TestPlacedGlyph:
    def test_mark_with_an_advance_is_rejected(self):
        with pytest.raises(ValueError, match="mark glyph fatha must have zero advance"):
            PlacedGlyph("fatha", 5, is_mark=True)

    def test_negative_elongation_is_rejected(self):
        with pytest.raises(ValueError, match="negative elongation on beh.medi"):
            PlacedGlyph("beh.medi", 300, elongation=-1)

    def test_valid_glyphs_build(self):
        assert PlacedGlyph("fatha", 0, attached_to=(0, None), is_mark=True).advance == 0
        assert PlacedGlyph("beh.medi", 300, elongation=40).elongation == 40


class TestFontRecords:
    @pytest.mark.parametrize("box", [(10, 0, 5, 5), (0, 10, 5, 5)])
    def test_degenerate_rect_is_rejected(self, box):
        with pytest.raises(SchemaError, match="degenerate ink box"):
            Rect(*box)

    def test_point_rect_is_valid(self):
        assert Rect(3, 4, 3, 4).area == 0

    def test_negative_advance_is_rejected(self):
        with pytest.raises(SchemaError, match="glyph advance must be >= 0"):
            GlyphMetrics(advance=-1, ink=INK)

    def test_negative_max_extension_is_rejected(self):
        with pytest.raises(SchemaError, match="max_extension must be >= 0"):
            GlyphMetrics(advance=100, ink=INK, max_extension=-1)

    def test_ligature_anchor_count_must_match_components(self):
        with pytest.raises(SchemaError, match="1 anchor sets for 2 components"):
            LigatureEntry(
                components=("lam.init", "alef.fina"),
                glyph="lam_alef.isol",
                component_anchors=({},),
                kind=LigatureKind.LINGUISTIC,
            )

    @pytest.mark.parametrize("values", [(-1, 0, 0), (10, -1, 0), (10, 0, -1)])
    def test_negative_glue_is_rejected(self, values):
        with pytest.raises(SchemaError, match="glue values must be >= 0"):
            GlueSpec(*values)

    def test_glue_shrink_cannot_exceed_width(self):
        with pytest.raises(SchemaError, match="glue shrink cannot exceed its width"):
            GlueSpec(width=10, stretch=5, shrink=11)
        assert GlueSpec(width=10, stretch=5, shrink=10).shrink == 10

    @pytest.mark.parametrize("medium, large", [(0, 5), (5, 5), (6, 5), (-2, 5)])
    def test_size_thresholds_must_increase_from_zero(self, medium, large):
        with pytest.raises(RangeError, match="0 < medium < large"):
            SizeThresholds(medium=medium, large=large)


class TestTextRecords:
    def test_negative_stretch_class_is_rejected(self):
        with pytest.raises(ValueError, match="stretch_class must be >= 0"):
            letter(stretch_class=-1)

    def test_valid_letter_builds(self):
        assert letter() == BEH

    def test_repeated_mark_is_rejected(self):
        with pytest.raises(DuplicateMark, match="mark shadda repeated on letter beh"):
            Cluster(base=BEH, marks=(SHADDA, SHADDA))

    def test_two_vowels_are_rejected(self):
        with pytest.raises(DuplicateMark, match="letter beh carries 2 vowel marks"):
            Cluster(base=BEH, marks=(FATHA, KASRA))

    def test_gemination_with_a_vowel_builds(self):
        assert Cluster(base=BEH, marks=(SHADDA, FATHA)).marks == (SHADDA, FATHA)


class TestOtherCheckedRecords:
    def test_unknown_lookup_flag_is_rejected(self):
        with pytest.raises(SchemaError, match="unknown lookup flags"):
            LookupRule(
                kind=LookupKind.SINGLE_SUB,
                feature="liga",
                coverage=frozenset({"a"}),
                payload={"a": "b"},
                flags=frozenset({"ignore_bases"}),
            )

    @pytest.mark.parametrize(
        "kind, payload",
        [
            (LookupKind.SINGLE_ADJ, {"a": GlueSpec(3, 2, 1)}),
            (LookupKind.CURSIVE_ATTACH, {"a": AnchorPoint(1, 2)}),
            (LookupKind.LIGATURE_SUB, AnchorPoint(1, 2)),
        ],
    )
    def test_a_record_is_not_a_payload_tuple(self, kind, payload):
        with pytest.raises(SchemaError, match="payload shape does not match"):
            LookupRule(kind, "liga", frozenset(), payload)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("overlap_penalty", -1, "overlap_penalty must be >= 0"),
            ("line_penalty", 10**9, "line_penalty must lie in"),
            ("gap_epsilon", -1, "gap_epsilon must be >= 0"),
            ("line_penalty", 1.5, "line_penalty must be an int, got 1.5"),
            ("overlap_penalty", True, "overlap_penalty must be an int, got True"),
            ("gap_epsilon", "10", "gap_epsilon must be an int, got '10'"),
            ("variants", 1, "variants must be a bool, got 1"),
            ("kashida_policy", "zigzag", "kashida_policy must be one of"),
            ("kashida_policy", "single", "kashida_policy must be one of"),
        ],
    )
    def test_justify_params_are_checked(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            JustifyParams(**{field: value})


def test_replace_and_make_run_the_checks():
    glyph = PlacedGlyph("beh.medi", 300)
    with pytest.raises(ValueError, match="negative elongation"):
        glyph._replace(elongation=-5)
    with pytest.raises(ValueError, match="zero advance"):
        PlacedGlyph._make(("fatha", 5, 0, 0, 0, None, True))
    with pytest.raises(SchemaError, match="glue shrink"):
        GlueSpec(10, 5, 5)._replace(shrink=20)
    assert glyph._replace(elongation=5) == PlacedGlyph("beh.medi", 300, elongation=5)


def test_records_print_and_compare_by_their_fields():
    assert repr(AnchorPoint(1, -2)) == "AnchorPoint(x=1, y=-2)"
    assert repr(PlacedGlyph("beh.medi", 300)) == (
        "PlacedGlyph(glyph='beh.medi', advance=300, x_offset=0, y_offset=0, "
        "elongation=0, attached_to=None, is_mark=False)"
    )
    assert GlueSpec(250, 125, 80) == GlueSpec(width=250, stretch=125, shrink=80)
    assert hash(Rect(0, 1, 2, 3)) == hash(Rect(0, 1, 2, 3))
    assert Rect(0, 1, 2, 3) != Rect(0, 1, 2, 4)


#: Run in a fresh interpreter: import the command line, then list what the
#: import loaded that a record convention forbids.
IMPORT_GUARD = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import qalam.cli
loaded = sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))
generated = sorted(
    f"{name}.{value.__name__}"
    for name, module in list(sys.modules.items())
    if name == "qalam" or name.startswith("qalam.")
    for value in vars(module).values()
    if isinstance(value, type) and hasattr(value, "__dataclass_fields__")
)
print(json.dumps({"loaded": loaded, "generated": generated}))
"""


def test_importing_the_command_line_generates_no_code():
    """``dataclasses`` generates each record's methods with ``exec`` when
    the class is created, and imports ``inspect`` to do it: together most
    of the cost of a command's start-up. A single ``@dataclass`` in the
    package brings both back."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_GUARD, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(done.stdout) == {"loaded": [], "generated": []}
