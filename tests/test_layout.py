from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from qalam.diacritics import place_diacritics, with_marks
from qalam.errors import Diagnostic, MalformedLayout, Severity
from qalam.fontmodel import SizeVariant
from qalam.justify import JustifyParams, break_optimum
from qalam.layout import (
    _DIAGNOSTIC_KEYS,
    _DOC_KEYS,
    _GLYPH_KEYS,
    _LINE_KEYS,
    _MARK_KEYS,
    _glyph_records,
    dumps,
    justified_document,
    loads,
    shaped_document,
    validate_document,
)
from qalam.shaper import shape_word
from qalam.textmodel import decompose

from .util import word


def shaped(font, text):
    words = []
    for clusters in decompose(text):
        w = shape_word(clusters, font, frozenset())
        placed, _ = place_diacritics(w, font)
        words.append(with_marks(w, placed))
    return words


class TestShapedDocument:
    def test_positions_accumulate_advances_and_glue(self, demo_font):
        words = shaped(demo_font, "با د")
        doc = shaped_document(demo_font, words)
        (line,) = doc["lines"]
        glyphs = line["glyphs"]
        x = 0
        word_starts = {0: 0, 2: 1}  # glyph index -> word index
        for i, g in enumerate(glyphs):
            if i == 2:  # second word begins after glue
                x += demo_font.glue.width
            assert g["x"] == x
            x += g["advance"] + g["elongation"]
        assert line["width"] == x

    def test_empty_input_gives_empty_lines(self, demo_font):
        doc = shaped_document(demo_font, [])
        assert doc["lines"] == []
        assert doc["measure"] is None

    def test_marks_nest_under_their_base(self, demo_font):
        words = shaped(demo_font, "بَابُ")
        doc = shaped_document(demo_font, words)
        glyphs = doc["lines"][0]["glyphs"]
        per_glyph = [len(g["marks"]) for g in glyphs]
        assert per_glyph == [1, 0, 1]

    def test_variant_rewriting(self, demo_font):
        # A stretched seen drives its fatha to a larger variant.
        from qalam.kashida import ElongationPlan, apply_plan, enumerate_sites

        w = word("سَب", demo_font)
        w = apply_plan(w, ElongationPlan({0: 300}, 0), enumerate_sites(w, demo_font))
        placed, _ = place_diacritics(w, demo_font)
        assert placed[0].variant is not SizeVariant.NORMAL
        doc = shaped_document(demo_font, [with_marks(w, placed)])
        mark = doc["lines"][0]["glyphs"][0]["marks"][0]
        assert mark["mark"] == "fatha"
        assert mark["variant"] == placed[0].variant.value

    def test_round_trip_through_text(self, demo_font):
        words = shaped(demo_font, "سَلَامٌ")
        doc = shaped_document(demo_font, words)
        assert loads(dumps(doc)) == doc


class TestJustifiedDocument:
    def test_line_widths_match_layout(self, demo_font, corpus_lines):
        words = [
            shape_word(c, demo_font, frozenset()) for c in decompose(corpus_lines[4])
        ]
        layout = break_optimum(words, 3500, demo_font, JustifyParams())
        doc = justified_document(demo_font, layout)
        assert doc["measure"] == 3500
        assert [l["width"] for l in doc["lines"]] == [
            l.candidate.width for l in layout.lines
        ]
        for line_doc, line in zip(doc["lines"], layout.lines):
            last = line_doc["glyphs"][-1]
            assert (
                last["x"] + last["advance"] + last["elongation"]
                == line.candidate.width
            )

    def test_elongations_appear_in_records(self, demo_font, corpus_lines):
        words = [
            shape_word(c, demo_font, frozenset()) for c in decompose(corpus_lines[0])
        ]
        layout = break_optimum(words, 3600, demo_font, JustifyParams())
        doc = justified_document(demo_font, layout)
        total_plan = sum(
            amount
            for line in layout.lines
            for plans in line.candidate.plans
            for _, amount in plans
        )
        total_doc = sum(
            g["elongation"] for line in doc["lines"] for g in line["glyphs"]
        )
        assert total_doc == total_plan > 0


class TestValidation:
    def good(self, demo_font):
        words = shaped(demo_font, "بَ")
        return shaped_document(demo_font, words)

    def test_accepts_own_output(self, demo_font):
        validate_document(self.good(demo_font))

    def test_rejects_non_object(self):
        with pytest.raises(MalformedLayout):
            validate_document([1, 2, 3])

    def test_rejects_wrong_schema(self, demo_font):
        doc = self.good(demo_font)
        doc["schema"] = "qalam-layout/2"
        with pytest.raises(MalformedLayout):
            validate_document(doc)

    @pytest.mark.parametrize("key", ["font_id", "units_per_em", "direction", "lines"])
    def test_rejects_missing_top_field(self, demo_font, key):
        doc = self.good(demo_font)
        del doc[key]
        with pytest.raises(MalformedLayout):
            validate_document(doc)

    @pytest.mark.parametrize(
        "key", ["glyph", "x", "y", "advance", "elongation", "marks"]
    )
    def test_rejects_missing_glyph_field(self, demo_font, key):
        doc = self.good(demo_font)
        del doc["lines"][0]["glyphs"][0][key]
        with pytest.raises(MalformedLayout):
            validate_document(doc)

    @pytest.mark.parametrize("key", ["mark", "variant", "dx", "dy"])
    def test_rejects_missing_mark_field(self, demo_font, key):
        doc = self.good(demo_font)
        del doc["lines"][0]["glyphs"][0]["marks"][0][key]
        with pytest.raises(MalformedLayout):
            validate_document(doc)

    def test_rejects_negative_elongation(self, demo_font):
        doc = self.good(demo_font)
        doc["lines"][0]["glyphs"][0]["elongation"] = -1
        message = "line 0 glyph 0: elongation must be a non-negative integer"
        with pytest.raises(MalformedLayout, match=f"^{message}$"):
            validate_document(doc)

    def test_rejects_negative_advance(self, demo_font):
        doc = self.good(demo_font)
        doc["lines"][0]["glyphs"][0]["advance"] = -1
        message = "line 0 glyph 0: advance must be a non-negative integer"
        with pytest.raises(MalformedLayout, match=f"^{message}$"):
            validate_document(doc)

    def test_rejects_negative_line_width(self, demo_font):
        doc = self.good(demo_font)
        doc["lines"][0]["width"] = -1
        message = "line 0: width must be a non-negative integer"
        with pytest.raises(MalformedLayout, match=f"^{message}$"):
            validate_document(doc)

    def test_loads_rejects_bad_json(self):
        with pytest.raises(MalformedLayout):
            loads("{")


def oracle(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# Characters the encoder must escape or spell as \uXXXX: quotes,
# backslashes, control characters, DEL, non-ASCII, astral characters and
# a lone surrogate.
_TRICKY = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\xe9\u0628\u064e\u2028\U0001f600\U00010000\ud800'
_texts = st.text(st.one_of(st.sampled_from(_TRICKY), st.characters(blacklist_categories=())))
_ints = st.integers(min_value=-(2**70), max_value=2**70)
_marks = st.fixed_dictionaries(
    {"dx": _ints, "dy": _ints, "mark": _texts, "variant": _texts}
)
_glyphs = st.fixed_dictionaries(
    {
        "advance": _ints,
        "elongation": _ints,
        "glyph": _texts,
        "marks": st.lists(_marks, max_size=3),
        "x": _ints,
        "y": _ints,
    }
)
_lines = st.fixed_dictionaries(
    {"glyphs": st.lists(_glyphs, max_size=4), "width": _ints}
)
_diagnostics = st.fixed_dictionaries(
    {
        "code": _texts,
        "location": st.lists(_ints, max_size=3),
        "message": _texts,
        "severity": _texts,
    }
)
_documents = st.fixed_dictionaries(
    {
        "diagnostics": st.lists(_diagnostics, max_size=3),
        "direction": _texts,
        "font_id": _texts,
        "lines": st.lists(_lines, max_size=3),
        "measure": st.none() | _ints,
        "schema": _texts,
        "units_per_em": _ints,
    }
)


class TestDumps:
    @given(_documents)
    def test_matches_stdlib_encoder(self, doc):
        assert dumps(doc) == oracle(doc)

    def test_builders_emit_the_template_key_sets(self, demo_font):
        # dumps writes only the keys in its templates: a key added to or
        # dropped from a record here must be added to or dropped there.
        (word,) = shaped(demo_font, "بَابُ")
        records = _glyph_records(demo_font, word, 0)
        assert records and all(set(r) == set(_GLYPH_KEYS) for r in records)
        marks = [m for r in records for m in r["marks"]]
        assert marks and all(set(m) == set(_MARK_KEYS) for m in marks)
        diagnostic = Diagnostic(Severity.INFO, "c", "m", (1,)).to_json()
        assert set(diagnostic) == set(_DIAGNOSTIC_KEYS)
        doc = shaped_document(demo_font, [word])
        assert set(doc) == set(_DOC_KEYS)
        assert all(set(line) == set(_LINE_KEYS) for line in doc["lines"])
        words = [shape_word(c, demo_font, frozenset()) for c in decompose("بَابُ")]
        layout = break_optimum(words, 4000, demo_font, JustifyParams())
        doc = justified_document(demo_font, layout)
        assert set(doc) == set(_DOC_KEYS)
        assert all(set(line) == set(_LINE_KEYS) for line in doc["lines"])
