from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from qalam.diacritics import mark_word
from qalam.errors import BadComponent, MissingAnchor, SchemaError
from qalam.fontmodel import FontDescription, load_font
from qalam.lookups import (
    GlyphItem,
    LookupKind,
    LookupRule,
    PlacedGlyph,
    alternates,
    position_marks,
    rule_from_json,
    rule_to_json,
)
from qalam.textmodel import Placement

from .util import BEH, DELETE, demo_font_doc, gsub_glyphs, set_path, synth_font, word


def lam_alef_rule(flags=("ignore_marks",)) -> LookupRule:
    return rule_from_json(
        {
            "kind": "ligature_sub",
            "feature": "rlig",
            "flags": list(flags),
            "ligatures": [
                {"components": ["lam.init", "alef.fina"], "glyph": "lam_alef.isol"}
            ],
        }
    )


class TestApplyGsub:
    def test_ligature_on_exact_pair(self):
        out = gsub_glyphs([lam_alef_rule()], ["lam.init", "alef.fina"], {"rlig"})
        assert out == ["lam_alef.isol"]

    def test_empty_rule_set_is_identity(self):
        glyphs = ["beh.init", "alef.fina"]
        assert gsub_glyphs([], glyphs, {"rlig"}) == glyphs

    def test_disabled_feature_is_identity(self):
        rule = rule_from_json(
            {
                "kind": "single_sub",
                "feature": "ss01",
                "map": {"beh.isol": "beh.isol.expanded"},
            }
        )
        glyphs = ["beh.isol"]
        assert gsub_glyphs([rule], glyphs, set()) == glyphs
        assert gsub_glyphs([rule], glyphs, {"ss01"}) == ["beh.isol.expanded"]

    def test_marks_skipped_inside_ligature_run(self):
        out = gsub_glyphs(
            [lam_alef_rule()],
            ["lam.init", "fatha", "alef.fina"],
            {"rlig"},
            marks={"fatha"},
        )
        assert out == ["lam_alef.isol", "fatha"]

    def test_marks_block_without_ignore_marks(self):
        out = gsub_glyphs(
            [lam_alef_rule(flags=())],
            ["lam.init", "fatha", "alef.fina"],
            {"rlig"},
            marks={"fatha"},
        )
        assert out == ["lam.init", "fatha", "alef.fina"]

    def test_non_covered_glyphs_preserved_in_order(self):
        out = gsub_glyphs(
            [lam_alef_rule()],
            ["beh.init", "lam.init", "alef.fina", "dal.isol"],
            {"rlig"},
        )
        assert out == ["beh.init", "lam_alef.isol", "dal.isol"]

    def test_multiple_sub_expands(self):
        rule = rule_from_json(
            {
                "kind": "multiple_sub",
                "feature": "ccmp",
                "sequences": {"a": ["b", "c"]},
            }
        )
        assert gsub_glyphs([rule], ["x", "a", "y"], {"ccmp"}) == ["x", "b", "c", "y"]

    def test_alternate_sub_is_left_to_width_variants(self):
        # Alternates are client-choice: an enabled rule leaves the glyph
        # it covers alone, and only word_variants offers its alternatives.
        rule = rule_from_json(
            {
                "kind": "alternate_sub",
                "feature": "jalt",
                "alternates": {"a": ["a.wide", "a.wider"]},
            }
        )
        assert gsub_glyphs([rule], ["x", "a"], {"jalt"}) == ["x", "a"]

    def test_alternates_are_offered_only_inside_coverage(self):
        # "b" has payload data but lies outside the coverage, so no rule
        # offers it; a mark is never offered one either.
        narrow = rule_from_json(
            {
                "kind": "alternate_sub",
                "feature": "jalt",
                "coverage": ["a"],
                "alternates": {"a": ["a.wide", "a.wider"], "b": ["b.wide"]},
            }
        )
        other = rule_from_json(
            {"kind": "alternate_sub", "feature": "salt", "alternates": {"a": ["a.alt"]}}
        )
        glyphs = [PlacedGlyph("b", 100), PlacedGlyph("a", 100), PlacedGlyph("a", 0, is_mark=True)]
        assert list(alternates([narrow, other], glyphs, {"jalt"})) == [
            (1, "a.wide"),
            (1, "a.wider"),
        ]
        assert list(alternates([narrow, other], glyphs, {"jalt", "salt"})) == [
            (1, "a.wide"),
            (1, "a.wider"),
            (1, "a.alt"),
        ]

    def test_contextual_sub_replaces_at_offset(self):
        rule = rule_from_json(
            {
                "kind": "contextual_sub",
                "feature": "calt",
                "contexts": [{"match": ["a", "b"], "replace": {"1": "b.alt"}}],
            }
        )
        assert gsub_glyphs([rule], ["a", "b", "b"], {"calt"}) == ["a", "b.alt", "b"]
        assert gsub_glyphs([rule], ["b", "a"], {"calt"}) == ["b", "a"]

    def test_rules_apply_in_font_order_one_pass(self):
        first = rule_from_json(
            {"kind": "single_sub", "feature": "t", "map": {"a": "b"}}
        )
        second = rule_from_json(
            {"kind": "single_sub", "feature": "t", "map": {"b": "c"}}
        )
        # Within one rule there is no re-matching, but a later rule sees the
        # earlier rule's output.
        assert gsub_glyphs([first, second], ["a"], {"t"}) == ["c"]
        assert gsub_glyphs([second, first], ["a"], {"t"}) == ["b"]

    def test_demo_rules_idempotent_on_corpus(self, demo_font, corpus_words):
        features = frozenset({"rlig", "liga", "jalt", "ss01", "mark", "mkmk"})
        for word in corpus_words:
            ids = [g.glyph for g in word.glyphs]
            once = gsub_glyphs(demo_font.gsub, ids, features, marks=demo_font.marks)
            twice = gsub_glyphs(demo_font.gsub, once, features, marks=demo_font.marks)
            assert once == twice

    def test_payload_shape_validated(self):
        with pytest.raises(SchemaError):
            LookupRule(
                kind=LookupKind.SINGLE_SUB,
                feature="t",
                coverage=frozenset({"a"}),
                payload=("not", "a", "dict"),
            )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (3, "expected an array of flag names, got 3"),
            ([[]], r"expected a flag name string, got \[\]"),
        ],
        ids=["not-an-array", "not-a-string"],
    )
    def test_flags_are_read_as_flag_names(self, flags, message):
        rule = rule_to_json(lam_alef_rule())
        with pytest.raises(SchemaError, match=f"^ligature_sub rule flags: {message}$"):
            rule_from_json({**rule, "flags": flags})

    def test_alternate_payload_must_be_nonempty(self):
        with pytest.raises(SchemaError):
            rule_from_json(
                {"kind": "alternate_sub", "feature": "t", "alternates": {"a": []}}
            )

    def test_coverage_wider_than_payload_rejected(self):
        with pytest.raises(SchemaError):
            rule_from_json(
                {
                    "kind": "single_sub",
                    "feature": "t",
                    "coverage": ["a", "b"],
                    "map": {"a": "a.alt"},
                }
            )

    def test_coverage_may_narrow_payload(self):
        rule = rule_from_json(
            {
                "kind": "single_sub",
                "feature": "t",
                "coverage": ["a"],
                "map": {"a": "a.alt", "b": "b.alt"},
            }
        )
        assert gsub_glyphs([rule], ["a", "b"], {"t"}) == ["a.alt", "b"]

    def test_rule_json_round_trip(self, demo_font):
        for rule in demo_font.gsub + demo_font.gpos:
            assert rule_from_json(rule_to_json(rule)) == rule


# Mark attachment: shaping decides what each mark rides and checks the
# anchors; ``mark_word`` computes the position. A mark on a word's last
# base that cannot grow keeps its default position, the anchor arithmetic
# plus the font's mass offset, so these words expose it exactly.

BEH_DAMMA = "\u0628\u064f"
BEH_SHADDA_DAMMA = "\u0628\u0651\u064f"


def attach_font(base_above=(120, 400), **marks) -> FontDescription:
    """A synthetic font whose beh has its above anchor at ``base_above``,
    with a nonzero mass offset above and the given mark overrides."""
    return synth_font(
        letter_widths={BEH: 500},
        anchor_above=base_above,
        mass_positions={"medium": {"above": 30}},
        mark_overrides=marks,
    )


def mass_above(font: FontDescription, glyph: str) -> int:
    return font.mass_offset(font.glyphs[glyph].mass_class, Placement.ABOVE)


def marked(text: str, font: FontDescription, shift=(0, 0)):
    """The word's glyphs once marked, its first base moved by ``shift``."""
    w = word(text, font)
    base = w.glyphs[0]._replace(x_offset=shift[0], y_offset=shift[1])
    w = w._replace(glyphs=(base, *w.glyphs[1:]))
    return mark_word(w, font, 10)[0].glyphs


def font_without(*path) -> FontDescription:
    """The demo font with the key at ``path`` deleted from its document."""
    doc = demo_font_doc()
    set_path(doc, path, DELETE)
    return load_font(json.dumps(doc))


class TestMarkToBase:
    def test_offset_formula(self):
        font = attach_font(damma={"anchor": [30, 0]})
        shaped = word(BEH_DAMMA, font).glyphs[1]
        assert shaped.advance == 0
        assert shaped.attached_to == (0, Placement.ABOVE)
        assert shaped.is_mark
        mark = marked(BEH_DAMMA, font)[1]
        assert (mark.x_offset, mark.y_offset) == (
            90, 400 + mass_above(font, "beh.isolated")
        )

    def test_zero_mark_anchor_gives_base_anchor(self):
        font = attach_font(damma={"anchor": [0, 0]})
        mark = marked(BEH_DAMMA, font)[1]
        assert (mark.x_offset, mark.y_offset) == (
            120, 400 + mass_above(font, "beh.isolated")
        )

    def test_missing_anchor(self):
        font = font_without("glyphs", "beh.isol", "anchors", "below")
        with pytest.raises(MissingAnchor, match="beh.isol has no 'below' anchor for kasra"):
            word("\u0628\u0650", font)

    @given(
        bx=st.integers(-1000, 1000),
        by=st.integers(-1000, 1000),
        mx=st.integers(-1000, 1000),
        my=st.integers(-1000, 1000),
        dx=st.integers(-1000, 1000),
        dy=st.integers(-1000, 1000),
    )
    def test_translation_equivariance(self, bx, by, mx, my, dx, dy):
        font = attach_font((bx, by), damma={"anchor": [mx, my]})
        at_origin = marked(BEH_DAMMA, font)[1]
        shifted = marked(BEH_DAMMA, font, (dx, dy))[1]
        assert shifted.x_offset == at_origin.x_offset + dx
        assert shifted.y_offset == at_origin.y_offset + dy
        assert at_origin.x_offset == bx - mx
        assert at_origin.y_offset == by + mass_above(font, "beh.isolated") - my


def assert_on_component(font: FontDescription, text: str, component: int) -> None:
    """The damma of a one-ligature word sits on the component's anchor."""
    w = word(text, font)
    assert w.glyphs[1].attached_to == (0, Placement.ABOVE)
    mark = mark_word(w, font, 10)[0].glyphs[1]
    entry = font.ligature_by_glyph["lam_alef.isol"]
    anchor = entry.component_anchors[component][Placement.ABOVE]
    damma = font.marks["damma"].anchor
    assert (mark.x_offset, mark.y_offset) == (
        anchor.x - damma.x,
        anchor.y + mass_above(font, "lam_alef.isol") - damma.y,
    )


class TestMarkToLigature:
    def test_component_zero(self, demo_font):
        assert_on_component(demo_font, "\u0644\u064f\u0627", 0)  # lam+damma alef

    def test_component_one(self, demo_font):
        assert_on_component(demo_font, "\u0644\u0627\u064f", 1)  # lam alef+damma

    def test_out_of_range_component(self, demo_font):
        items = [GlyphItem("lam_alef.isol", (0, 1, 2)), GlyphItem("fatha", (2,), True)]
        with pytest.raises(BadComponent, match="component 2 out of range"):
            position_marks(demo_font, items, {"mark"})

    def test_component_missing_anchor(self):
        font = font_without("ligatures", 0, "component_anchors", 0, "below")
        assert font.ligatures[0].glyph == "lam_alef.isol"
        with pytest.raises(MissingAnchor, match="lam_alef.isol component 0 has no 'below'"):
            word("\u0644\u0650\u0627", font)  # lam+kasra alef

    def test_base_rule_on_ligature_checks_component_anchor(self):
        # Placement reads a ligature's component anchors whichever rule
        # attached the mark, so shaping checks them under mark-to-base too.
        doc = demo_font_doc()
        to_base, to_ligature = doc["gpos"][0], doc["gpos"][1]
        assert (to_base["kind"], to_ligature["kind"]) == ("mark_to_base", "mark_to_ligature")
        to_ligature["coverage"].remove("lam_alef.isol")
        to_base["coverage"].append("lam_alef.isol")
        doc["glyphs"]["lam_alef.isol"]["anchors"] = {"above": [170, 800]}
        del doc["ligatures"][0]["component_anchors"][0]["above"]
        font = load_font(json.dumps(doc))
        with pytest.raises(MissingAnchor, match="lam_alef.isol component 0 has no 'above'"):
            word("\u0644\u064e\u0627", font)  # lam+fatha alef


class TestMarkToMark:
    def stack_font(self, upper_anchor) -> FontDescription:
        return attach_font(
            (125, 400),
            shadda={"anchor": [35, 0], "stack_anchor": [35, 120]},
            damma={"anchor": list(upper_anchor)},
        )

    def test_stack_formula(self):
        font = self.stack_font((30, 0))
        shaped = word(BEH_SHADDA_DAMMA, font).glyphs
        assert [g.glyph for g in shaped] == ["beh.isolated", "shadda", "damma"]
        assert shaped[2].attached_to == (1, Placement.ABOVE)
        _, shadda, damma = marked(BEH_SHADDA_DAMMA, font)
        mass = mass_above(font, "beh.isolated")
        assert (shadda.x_offset, shadda.y_offset) == (90, 400 + mass)
        assert (damma.x_offset, damma.y_offset) == (95, 520 + mass)

    def test_upper_anchor_equal_to_stack_anchor_cancels(self):
        _, shadda, damma = marked(BEH_SHADDA_DAMMA, self.stack_font((35, 120)))
        assert (damma.x_offset, damma.y_offset) == (shadda.x_offset, shadda.y_offset)

    def test_missing_stack_anchor(self):
        font = font_without("marks", "shadda", "stack_anchor")
        with pytest.raises(MissingAnchor, match="shadda has no stacking anchor for fatha"):
            word("\u0628\u0651\u064e", font)


class TestAdjustmentRules:
    def test_single_pair_cursive(self):
        doc = {
            "schema": "qalam-font/1",
            "font_id": "adj",
            "units_per_em": 1000,
            "glyphs": {
                "a": {"advance": 100, "ink": [0, 0, 100, 100]},
                "b": {"advance": 200, "ink": [0, 0, 200, 100]},
            },
            "marks": {},
            "ligatures": [],
            "cmap": {"0627": {"isolated": "a"}},
            "mark_cmap": {},
            "gsub": [],
            "gpos": [
                {
                    "kind": "single_adj",
                    "feature": "dist",
                    "adjustments": {"a": [5, 7, 11]},
                },
                {
                    "kind": "pair_adj",
                    "feature": "kern",
                    "pairs": [{"first": "a", "second": "b", "advance": -13}],
                },
                {
                    "kind": "cursive_attach",
                    "feature": "curs",
                    "cursive": {
                        "a": {"entry": [0, 10], "exit": [100, 30]},
                        "b": {"entry": [0, 10], "exit": [200, 30]},
                    },
                },
            ],
            "size_thresholds": {"medium": 200, "large": 450},
        }
        font = load_font(json.dumps(doc))
        items = [GlyphItem("a", (0,)), GlyphItem("b", (1,))]
        placed = position_marks(font, items, {"dist", "kern", "curs"})
        first, second = placed
        assert (first.x_offset, first.y_offset) == (5, 7)
        assert first.advance == 100 + 11 - 13
        # Cursive attachment: b's entry rides a's exit height.
        assert second.y_offset == 7 + 30 - 10

    def test_repeated_pair_rejected(self):
        pair = {"first": "beh.init", "second": "beh.fina", "advance": -10}
        with pytest.raises(
            SchemaError, match=r"^pair_adj rule: pair \('beh.init', 'beh.fina'\) appears twice$"
        ):
            rule_from_json(
                {"kind": "pair_adj", "feature": "kern", "pairs": [pair, {**pair, "advance": 5}]}
            )
