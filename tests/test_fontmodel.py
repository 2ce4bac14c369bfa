from __future__ import annotations

import io
import json

import pytest

from qalam.errors import (
    NoGlyph,
    ParseError,
    RangeError,
    RefError,
    SchemaError,
    Severity,
)
from qalam.fontmodel import (
    AnchorPoint,
    FontDescription,
    LigatureEntry,
    LigatureKind,
    MassClass,
    SizeThresholds,
    SizeVariant,
    glyph_for,
    lint_font,
    load_font,
    mass_terciles,
    serialize_font,
    suggest_mass_classes,
)
from qalam.textmodel import Form, Placement

from .conftest import DEMO_FONT_PATH
from .util import demo_font_doc

BEH, ALEF, SEEN = 0x0628, 0x0627, 0x0633


def load_doc(doc: dict) -> FontDescription:
    return load_font(json.dumps(doc))


class TestLoad:
    def test_demo_font_loads(self, demo_font):
        assert demo_font.units_per_em == 1000
        assert demo_font.font_id == "chawki-demo"
        assert demo_font.size_thresholds == SizeThresholds(200, 450)
        assert len(demo_font.ligatures) == 4

    def test_accepts_bytes_and_file_objects(self):
        raw = DEMO_FONT_PATH.read_bytes()
        assert load_font(raw).font_id == "chawki-demo"
        with open(DEMO_FONT_PATH, "rb") as fh:
            assert load_font(fh).font_id == "chawki-demo"

    def test_empty_file_is_parse_error(self):
        with pytest.raises(ParseError):
            load_font("")

    def test_non_utf8_is_parse_error(self):
        with pytest.raises(ParseError):
            load_font(b"\xff\xfe{}")

    def test_missing_field_is_schema_error(self):
        doc = demo_font_doc()
        del doc["units_per_em"]
        with pytest.raises(SchemaError):
            load_doc(doc)

    def test_wrong_schema_id(self):
        doc = demo_font_doc()
        doc["schema"] = "somebody-else/9"
        with pytest.raises(SchemaError):
            load_doc(doc)

    def test_dangling_ligature_component_is_ref_error(self):
        doc = demo_font_doc()
        doc["ligatures"][0]["components"] = ["xx", "alef.fina"]
        with pytest.raises(RefError) as err:
            load_doc(doc)
        assert err.value.glyph_id == "xx"

    def test_dangling_cmap_is_ref_error(self):
        doc = demo_font_doc()
        doc["cmap"]["0628"]["isolated"] = "nope"
        with pytest.raises(RefError):
            load_doc(doc)

    def test_inverted_thresholds_is_range_error(self):
        doc = demo_font_doc()
        doc["size_thresholds"] = {"medium": 450, "large": 200}
        with pytest.raises(RangeError):
            load_doc(doc)

    def test_equal_thresholds_is_range_error(self):
        doc = demo_font_doc()
        doc["size_thresholds"] = {"medium": 300, "large": 300}
        with pytest.raises(RangeError):
            load_doc(doc)

    def test_nonpositive_units_is_range_error(self):
        doc = demo_font_doc()
        doc["units_per_em"] = 0
        with pytest.raises(RangeError):
            load_doc(doc)

    def test_three_component_ligature_rejected(self):
        doc = demo_font_doc()
        entry = doc["ligatures"][0]
        entry["components"] = ["lam.init", "alef.fina", "alef.fina"]
        entry["component_anchors"] = entry["component_anchors"] + [
            entry["component_anchors"][0]
        ]
        with pytest.raises(SchemaError):
            load_doc(doc)

    def test_normal_variant_must_be_self(self):
        doc = demo_font_doc()
        doc["marks"]["fatha"]["variants"]["normal"] = "fatha.medium"
        with pytest.raises(SchemaError):
            load_doc(doc)

    @pytest.mark.parametrize(
        "owner, size", [("fathatan", "medium"), ("fatha", "large")]
    )
    def test_variant_of_two_sizes_rejected(self, owner, size):
        # fatha.medium under fathatan, or at a second size of fatha.
        doc = demo_font_doc()
        doc["marks"][owner]["variants"][size] = "fatha.medium"
        with pytest.raises(SchemaError, match="fatha.medium is listed as both"):
            load_doc(doc)

    @pytest.mark.parametrize("size", ["medium", "large"])
    def test_size_of_another_class_rejected(self, size):
        doc = demo_font_doc()
        doc["marks"][f"fatha.{size}"]["class"] = "below"
        with pytest.raises(
            SchemaError, match=f"'fatha.{size}', the {size} size of 'fatha', has class 'below'"
        ):
            load_doc(doc)

    @pytest.mark.parametrize("size", ["medium", "large"])
    def test_mark_cmap_to_other_size_rejected(self, size):
        doc = demo_font_doc()
        doc["mark_cmap"]["064E"] = f"fatha.{size}"
        with pytest.raises(
            SchemaError, match=f"064E maps to 'fatha.{size}', the {size} size of 'fatha'"
        ):
            load_doc(doc)

    @pytest.mark.parametrize(
        "table, key",
        [("cmap", "zz"), ("cmap", "-1"), ("cmap", "110000"), ("mark_cmap", "-5"),
         ("mark_cmap", "110000")],
    )
    def test_bad_code_point_key_rejected(self, table, key):
        doc = demo_font_doc()
        doc[table][key] = doc[table]["0628" if table == "cmap" else "064E"]
        with pytest.raises(SchemaError, match=f"^{table}: bad code point key '{key}'$"):
            load_doc(doc)

    def test_cmap_to_mark_rejected(self):
        doc = demo_font_doc()
        doc["cmap"]["0628"]["isolated"] = "fatha"
        with pytest.raises(SchemaError):
            load_doc(doc)

    def test_rule_with_unknown_glyph_is_ref_error(self):
        rules = [
            ("gsub", {"kind": "single_sub", "feature": "zz01", "map": {"beh.isol": "ghost"}}),
            # Payload keys outside an explicit coverage name glyphs too.
            (
                "gsub",
                {
                    "kind": "single_sub",
                    "feature": "zz01",
                    "coverage": ["beh.isol"],
                    "map": {"beh.isol": "beh.init", "ghost": "beh.isol"},
                },
            ),
            (
                "gpos",
                {
                    "kind": "single_adj",
                    "feature": "zz01",
                    "coverage": [],
                    "adjustments": {"ghost2": [0, 0, 0]},
                },
            ),
        ]
        for (table, rule), ghost in zip(rules, ["ghost", "ghost", "ghost2"]):
            doc = demo_font_doc()
            doc[table].append(rule)
            with pytest.raises(RefError, match=f"unknown glyph id '{ghost}'"):
                load_doc(doc)

    @pytest.mark.parametrize(
        "table, rule, message",
        [
            (
                "gsub",
                {"kind": "single_adj", "feature": "kern", "adjustments": {"beh.isol": [0, 0, 5]}},
                "gsub rule #4: single_adj is a positioning kind",
            ),
            (
                "gsub",
                {"kind": "mark_to_base", "feature": "mark", "marks": ["fatha"]},
                "gsub rule #4: mark_to_base is a positioning kind",
            ),
            (
                "gpos",
                {
                    "kind": "ligature_sub",
                    "feature": "liga",
                    "ligatures": [{"components": ["beh.init", "beh.fina"], "glyph": "beh.isol"}],
                },
                "gpos rule #3: ligature_sub is a substitution kind",
            ),
        ],
        ids=["single_adj", "mark_to_base", "ligature_sub"],
    )
    def test_rule_in_the_wrong_table_rejected(self, table, rule, message):
        doc = demo_font_doc()
        doc[table].append(rule)
        with pytest.raises(SchemaError, match=f"^{message}$"):
            load_doc(doc)

    @pytest.mark.parametrize(
        "rule",
        [
            {"kind": "single_sub", "feature": "rlig", "map": {"fatha": "beh.isol"}},
            {"kind": "single_sub", "feature": "rlig", "map": {"beh.isol": "fatha"}},
            {"kind": "alternate_sub", "feature": "jalt", "alternates": {"beh.isol": ["fatha"]}},
            {
                "kind": "ligature_sub",
                "feature": "liga",
                "ligatures": [{"components": ["beh.init", "beh.fina"], "glyph": "fatha"}],
            },
            {"kind": "multiple_sub", "feature": "ccmp", "sequences": {"beh.isol": ["fatha"]}},
            {"kind": "multiple_sub", "feature": "ccmp", "sequences": {"fatha": ["beh.isol"]}},
            {
                "kind": "contextual_sub",
                "feature": "calt",
                "contexts": [{"match": ["beh.isol"], "replace": {"0": "fatha"}}],
            },
        ],
    )
    def test_substitution_that_changes_mark_role_rejected(self, rule):
        doc = demo_font_doc()
        doc["gsub"].append(rule)
        with pytest.raises(SchemaError, match=f"gsub {rule['kind']} rule"):
            load_doc(doc)


class TestRoundTrip:
    def test_serialize_is_canonical_fixed_point(self, demo_font):
        text = DEMO_FONT_PATH.read_text(encoding="utf-8")
        assert serialize_font(demo_font) == text

    @pytest.mark.parametrize("kind", ["text", "bytes", "file"])
    def test_load_then_serialize_is_byte_identical(self, kind):
        raw = DEMO_FONT_PATH.read_bytes()
        source = {
            "text": raw.decode("utf-8"),
            "bytes": raw,
            "file": io.BytesIO(raw),
        }[kind]
        assert serialize_font(load_font(source)).encode("utf-8") == raw

    def test_load_serialize_load_identity(self, demo_font):
        again = load_font(serialize_font(demo_font))
        assert again == demo_font


class TestMarkSizes:
    def test_every_mark_glyph_reads_back_as_mark_and_size(self, demo_font):
        sizes = demo_font.mark_sizes
        assert sizes.keys() == demo_font.marks.keys()
        for mid, mark in demo_font.marks.items():
            for size, vid in (mark.variants or {}).items():
                assert sizes[vid] == (mid, size)
        assert sizes["damma"] == ("damma", SizeVariant.NORMAL)
        assert sizes["fatha"] == ("fatha", SizeVariant.NORMAL)
        assert sizes["fatha.medium"] == ("fatha", SizeVariant.MEDIUM)
        assert sizes["fathatan.large"] == ("fathatan", SizeVariant.LARGE)


class TestGlyphFor:
    def test_beh_initial(self, demo_font):
        assert glyph_for(demo_font, BEH, Form.INITIAL) == "beh.init"

    def test_beh_isolated(self, demo_font):
        assert glyph_for(demo_font, BEH, Form.ISOLATED) == "beh.isol"

    def test_alef_medial_has_no_glyph(self, demo_font):
        with pytest.raises(NoGlyph):
            glyph_for(demo_font, ALEF, Form.MEDIAL)

    def test_never_returns_a_mark(self, demo_font):
        for key, gid in demo_font.cmap.items():
            assert gid not in demo_font.marks, key


class TestLint:
    def test_demo_font_is_clean(self, demo_font):
        assert lint_font(demo_font) == []

    def codes(self, doc: dict) -> set[str]:
        return {d.code for d in lint_font(load_doc(doc))}

    def test_missing_cmap_entry(self):
        doc = demo_font_doc()
        del doc["cmap"]["0628"]["medial"]
        assert "missing-cmap-entry" in self.codes(doc)

    def test_missing_anchor(self):
        doc = demo_font_doc()
        del doc["glyphs"]["beh.medi"]["anchors"]["above"]
        findings = lint_font(load_doc(doc))
        hits = [d for d in findings if d.code == "missing-anchor"]
        assert len(hits) == 1 and "beh.medi" in hits[0].message

    def test_missing_variant(self):
        doc = demo_font_doc()
        del doc["marks"]["fatha"]["variants"]["large"]
        findings = lint_font(load_doc(doc))
        hits = [d for d in findings if d.code == "missing-variant"]
        assert len(hits) == 1 and "large" in hits[0].message

    def test_zero_capacity(self):
        doc = demo_font_doc()
        doc["glyphs"]["beh.init"]["max_extension"] = 0
        assert "zero-capacity" in self.codes(doc)

    def test_unreachable_stretch(self):
        doc = demo_font_doc()
        doc["glyphs"]["alef.isol"]["max_extension"] = 100
        findings = lint_font(load_doc(doc))
        hits = [d for d in findings if d.code == "unreachable-stretch"]
        assert hits and hits[0].severity is Severity.WARN

    def test_multilevel_ligature(self, demo_font):
        bad = LigatureEntry(
            components=("lam.init", "meem.medi", "meem.fina"),
            glyph="lam_meem.init",
            component_anchors=(
                {Placement.ABOVE: AnchorPoint(0, 0), Placement.BELOW: AnchorPoint(0, 0)},
            )
            * 3,
            kind=LigatureKind.AESTHETIC,
        )
        font = demo_font._replace(ligatures=demo_font.ligatures + (bad,))
        assert "multilevel-ligature" in {d.code for d in lint_font(font)}

    def test_ligature_anchor_gap(self):
        doc = demo_font_doc()
        del doc["ligatures"][0]["component_anchors"][1]["below"]
        assert "ligature-anchor-gap" in self.codes(doc)

    def test_mass_class_mismatch_is_info(self):
        doc = demo_font_doc()
        current = doc["glyphs"]["beh.isol"]["mass_class"]
        doc["glyphs"]["beh.isol"]["mass_class"] = (
            "heavy" if current != "heavy" else "light"
        )
        findings = [
            d for d in lint_font(load_doc(doc)) if d.code == "mass-class-mismatch"
        ]
        assert findings and all(d.severity is Severity.INFO for d in findings)

    def test_spurious_variants(self):
        doc = demo_font_doc()
        # Sizes of its own: a variant id belongs to one mark.
        for size in ("medium", "large"):
            doc["marks"][f"damma.{size}"] = dict(doc["marks"][f"fatha.{size}"])
        doc["marks"]["damma"]["variants"] = {
            "normal": "damma",
            "medium": "damma.medium",
            "large": "damma.large",
        }
        findings = [d for d in lint_font(load_doc(doc)) if d.code == "spurious-variants"]
        assert findings and findings[0].severity is Severity.WARN

    def test_every_rule_has_a_trigger(self):
        # The six error-severity rules plus the advisory ones all fire above.
        exercised = {
            "missing-cmap-entry",
            "missing-anchor",
            "missing-variant",
            "zero-capacity",
            "unreachable-stretch",
            "multilevel-ligature",
            "ligature-anchor-gap",
            "mass-class-mismatch",
            "spurious-variants",
        }
        assert len(exercised) >= 6


class TestMassSuggestion:
    def test_terciles_split_by_rank(self):
        areas = {f"g{i}": i * 10 for i in range(9)}
        out = mass_terciles(areas)
        assert [out[f"g{i}"] for i in range(9)] == [
            MassClass.LIGHT,
            MassClass.LIGHT,
            MassClass.LIGHT,
            MassClass.MEDIUM,
            MassClass.MEDIUM,
            MassClass.MEDIUM,
            MassClass.HEAVY,
            MassClass.HEAVY,
            MassClass.HEAVY,
        ]

    def test_ties_break_by_glyph_id(self):
        areas = {"b": 5, "a": 5, "c": 5}
        out = mass_terciles(areas)
        assert out == {
            "a": MassClass.LIGHT,
            "b": MassClass.MEDIUM,
            "c": MassClass.HEAVY,
        }

    def test_demo_masses_follow_suggestion(self, demo_font):
        suggested = suggest_mass_classes(demo_font)
        for gid, metrics in demo_font.glyphs.items():
            assert metrics.mass_class is suggested[gid], gid
