from __future__ import annotations

import random

import pytest

from qalam import kashida
from qalam.errors import EmptyWord
from qalam.fontmodel import glyph_for
from qalam.shaper import base_indices, pen_positions, shape_word
from qalam.textmodel import Placement, analyze_joining, decompose

from .util import random_word_text, word

LIGA_FEATURES = frozenset({"liga"})
ALL_FEATURES = frozenset({"liga", "jalt", "ss01"})


class TestShapeWord:
    def test_lam_alef_ligates(self, demo_font):
        w = word("لا", demo_font)  # lam + alef
        bases = [w.glyphs[i] for i in base_indices(w)]
        assert [g.glyph for g in bases] == ["lam_alef.isol"]
        assert w.glyph_clusters[0] == (0, 1)

    def test_lam_alef_final_form(self, demo_font):
        w = word("بلا", demo_font)  # beh + lam + alef
        ids = [g.glyph for g in w.glyphs]
        assert ids == ["beh.init", "lam_alef.fina"]

    def test_ligation_is_feature_independent(self, demo_font):
        for features in (frozenset(), LIGA_FEATURES, ALL_FEATURES):
            w = word("لا", demo_font, features)
            assert any(g.glyph.startswith("lam_alef") for g in w.glyphs)

    def test_mark_attaches_at_anchor(self, demo_font):
        w = word("بَ", demo_font)  # beh + fatha
        base, mark = w.glyphs
        assert base.glyph == "beh.isol"
        assert mark.glyph == "fatha"
        metrics = demo_font.glyphs["beh.isol"]
        anchor = metrics.anchors[Placement.ABOVE]
        fatha = demo_font.marks["fatha"]
        assert mark.x_offset == anchor.x - fatha.anchor.x
        assert mark.y_offset == anchor.y - fatha.anchor.y
        assert mark.advance == 0

    def test_forms_follow_joining(self, demo_font):
        w = word("باب", demo_font)  # beh alef beh
        assert [g.glyph for g in w.glyphs] == ["beh.init", "alef.fina", "beh.isol"]

    def test_mark_between_ligature_components(self, demo_font):
        w = word("لَا", demo_font)  # lam + fatha + alef
        ids = [g.glyph for g in w.glyphs]
        assert ids == ["lam_alef.isol", "fatha"]
        mark = w.glyphs[1]
        entry = demo_font.ligature_by_glyph["lam_alef.isol"]
        anchor = entry.component_anchors[0][Placement.ABOVE]
        fatha = demo_font.marks["fatha"]
        assert mark.x_offset == anchor.x - fatha.anchor.x
        assert mark.attached_to == (0, Placement.ABOVE)

    def test_marks_on_both_ligature_components(self, demo_font):
        w = word("لَاً", demo_font)  # lam+fatha alef+fathatan
        ids = [g.glyph for g in w.glyphs]
        assert ids == ["lam_alef.isol", "fatha", "fathatan"]
        entry = demo_font.ligature_by_glyph["lam_alef.isol"]
        first, second = w.glyphs[1], w.glyphs[2]
        assert first.x_offset == entry.component_anchors[0][Placement.ABOVE].x - 70
        assert second.x_offset == entry.component_anchors[1][Placement.ABOVE].x - 70

    def test_shadda_stack(self, demo_font):
        w = word("بَّ", demo_font)  # beh + shadda + fatha
        ids = [g.glyph for g in w.glyphs]
        assert ids == ["beh.isol", "shadda", "fatha"]
        shadda, fatha = w.glyphs[1], w.glyphs[2]
        assert shadda.attached_to == (0, Placement.ABOVE)
        assert fatha.attached_to == (1, Placement.ABOVE)
        mark = demo_font.marks["shadda"]
        assert fatha.y_offset == shadda.y_offset + mark.stack_anchor.y - 0

    def test_shadda_stacks_even_written_after_vowel(self, demo_font):
        before = word("بَّ", demo_font)
        after = word("بَّ", demo_font)
        assert [g.glyph for g in before.glyphs] == [g.glyph for g in after.glyphs]

    def test_natural_width_sums_advances(self, demo_font):
        w = word("كتب", demo_font, frozenset())
        assert len(w.variants) == 1
        widths = sum(g.advance for g in w.glyphs)
        assert w.natural_width == widths == w.variants[0].width

    def test_empty_word_rejected(self, demo_font):
        with pytest.raises(EmptyWord):
            shape_word([], demo_font)

    def test_deterministic(self, demo_font):
        a = word("سَلَامٌ", demo_font, ALL_FEATURES)
        b = word("سَلَامٌ", demo_font, ALL_FEATURES)
        assert a == b

    def test_pure_no_input_mutation(self, demo_font):
        clusters = decompose("بَا")[0]
        snapshot = list(clusters)
        shape_word(clusters, demo_font, ALL_FEATURES)
        assert list(clusters) == snapshot


class TestWordVariants:
    def test_no_optional_features_yields_default_only(self, demo_font):
        w = word("في", demo_font, frozenset())  # feh + yeh
        assert [v.id for v in w.variants] == ["default"]

    def test_aesthetic_ligature_offers_wider_off_variant(self, demo_font):
        w = word("في", demo_font, LIGA_FEATURES)
        ids = [v.id for v in w.variants]
        assert ids[0] == "default" and "liga_off" in ids
        by_id = {v.id: v for v in w.variants}
        assert "ligature_on" in by_id["default"].description
        assert by_id["liga_off"].width > by_id["default"].width
        assert any(g.glyph == "feh_yeh.isol" for g in by_id["default"].word.glyphs)
        assert not any(
            g.glyph == "feh_yeh.isol" for g in by_id["liga_off"].word.glyphs
        )

    def test_allograph_variant_listed(self, demo_font):
        w = word("ك", demo_font, frozenset({"jalt"}))  # kaf alone
        ids = [v.id for v in w.variants]
        assert ids[0] == "default"
        assert any(id_.startswith("alt:") and "kaf.isol.wide" in id_ for id_ in ids)
        alt = next(v for v in w.variants if v.id.startswith("alt:"))
        assert alt.width > w.natural_width
        assert alt.description == ("allograph:kaf.isol.wide",)

    def test_jalt_disabled_hides_allographs(self, demo_font):
        w = word("ك", demo_font, frozenset())
        assert [v.id for v in w.variants] == ["default"]

    def test_variants_deduplicated(self, demo_font):
        w = word("كك", demo_font, frozenset({"jalt"}))
        ids = [v.id for v in w.variants]
        assert len(ids) == len(set(ids))

    def test_default_always_first(self, demo_font, corpus_words):
        for w in corpus_words:
            assert w.variants[0].id == "default"
            assert w.variants[0].width == w.natural_width

    def test_variant_sites_match_enumeration(self, demo_font, corpus_words):
        for w in corpus_words:
            for v in w.variants:
                assert v.sites == tuple(kashida.enumerate_sites(v.word, demo_font))


class TestGeometryInvariants:
    def test_marks_keep_their_side_over_corpus(self, demo_font, corpus_words):
        from qalam.shaper import attachment_root

        for w in corpus_words:
            for i, g in enumerate(w.glyphs):
                if not g.is_mark:
                    continue
                mark = demo_font.marks[g.glyph]
                root = attachment_root(w, i)
                base_ink = demo_font.glyphs[w.glyphs[root].glyph].ink
                mark_ink = mark.ink
                if mark.attachment_class is Placement.ABOVE:
                    assert g.y_offset + mark_ink.y_min >= base_ink.y_max
                elif mark.attachment_class is Placement.BELOW:
                    assert g.y_offset + mark_ink.y_max <= base_ink.y_min

    def test_every_cluster_is_represented(self, demo_font, corpus_words):
        for w in corpus_words:
            covered = set()
            for clusters in w.glyph_clusters:
                covered.update(clusters)
            assert covered == set(range(len(w.clusters)))

    def test_pen_positions_monotone(self, demo_font, corpus_words):
        for w in corpus_words:
            pens = pen_positions(w)
            bases = base_indices(w)
            for a, b in zip(bases, bases[1:]):
                assert pens[a] < pens[b]

    def test_random_words_shape_cleanly(self, demo_font):
        rng = random.Random(99)
        for _ in range(300):
            text = random_word_text(rng, 6)
            w = word(text, demo_font, ALL_FEATURES)
            assert w.natural_width > 0


class TestJoiningAgreement:
    def test_glyph_forms_match_joining_analysis(self, demo_font):
        rng = random.Random(7)
        for _ in range(200):
            text = random_word_text(rng, 6, marked=False)
            clusters = decompose(text)[0]
            letters = [c.base for c in clusters]
            forms = analyze_joining(letters)
            expected = [
                glyph_for(demo_font, letter.code_point, form)
                for letter, form in zip(letters, forms)
            ]
            got = [
                g.glyph
                for g in shape_word(clusters, demo_font, frozenset()).glyphs
                if not g.is_mark
            ]
            # Without optional features only the linguistic ligature rewrites.
            rejoined = []
            k = 0
            while k < len(expected):
                if (
                    k + 1 < len(expected)
                    and expected[k] in ("lam.init", "lam.medi")
                    and expected[k + 1] == "alef.fina"
                ):
                    rejoined.append(
                        "lam_alef.isol" if expected[k] == "lam.init" else "lam_alef.fina"
                    )
                    k += 2
                else:
                    rejoined.append(expected[k])
                    k += 1
            assert got == rejoined
