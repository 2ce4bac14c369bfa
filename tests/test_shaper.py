from __future__ import annotations

import random

import pytest

from qalam import kashida
from qalam.diacritics import mark_word
from qalam.errors import EmptyWord
from qalam.fontmodel import glyph_for
from qalam.shaper import shape_word, shape_words, word_variants
from qalam.textmodel import Placement, analyze_joining, decompose

from .conftest import CORPUS_PATH, FRESH_WORDS_PATH
from .util import attachment_chain, random_word_text, word

LIGA_FEATURES = frozenset({"liga"})
ALL_FEATURES = frozenset({"liga", "jalt", "ss01"})


def marked(w, font):
    """The word's glyphs once ``mark_word`` has placed its marks."""
    return mark_word(w, font, 10)[0].glyphs


def mass_above(font, glyph: str) -> int:
    return font.mass_offset(font.glyphs[glyph].mass_class, Placement.ABOVE)


class TestShapeWord:
    def test_lam_alef_ligates(self, demo_font):
        w = word("لا", demo_font)  # lam + alef
        bases = [g for g in w.glyphs if not g.is_mark]
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
        assert mark.advance == 0
        # On the word's last glyph the fatha takes its mass size and keeps
        # the attachment point.
        mark = marked(w, demo_font)[1]
        metrics = demo_font.glyphs["beh.isol"]
        anchor = metrics.anchors[Placement.ABOVE]
        drawn = demo_font.marks[mark.glyph].anchor
        assert mark.x_offset == anchor.x - drawn.x
        assert mark.y_offset == anchor.y + mass_above(demo_font, "beh.isol") - drawn.y

    def test_forms_follow_joining(self, demo_font):
        w = word("باب", demo_font)  # beh alef beh
        assert [g.glyph for g in w.glyphs] == ["beh.init", "alef.fina", "beh.isol"]

    def test_mark_between_ligature_components(self, demo_font):
        w = word("لَا", demo_font)  # lam + fatha + alef
        ids = [g.glyph for g in w.glyphs]
        assert ids == ["lam_alef.isol", "fatha"]
        assert w.glyphs[1].attached_to == (0, Placement.ABOVE)
        mark = marked(w, demo_font)[1]
        entry = demo_font.ligature_by_glyph["lam_alef.isol"]
        anchor = entry.component_anchors[0][Placement.ABOVE]
        drawn = demo_font.marks[mark.glyph].anchor
        assert mark.x_offset == anchor.x - drawn.x
        assert mark.y_offset == (
            anchor.y + mass_above(demo_font, "lam_alef.isol") - drawn.y
        )

    def test_marks_on_both_ligature_components(self, demo_font):
        w = word("لَاً", demo_font)  # lam+fatha alef+fathatan
        ids = [g.glyph for g in w.glyphs]
        assert ids == ["lam_alef.isol", "fatha", "fathatan"]
        entry = demo_font.ligature_by_glyph["lam_alef.isol"]
        glyphs = marked(w, demo_font)
        for component, mark in enumerate(glyphs[1:]):
            anchor = entry.component_anchors[component][Placement.ABOVE]
            assert mark.x_offset == anchor.x - demo_font.marks[mark.glyph].anchor.x

    def test_shadda_stack(self, demo_font):
        w = word("بَّ", demo_font)  # beh + shadda + fatha
        ids = [g.glyph for g in w.glyphs]
        assert ids == ["beh.isol", "shadda", "fatha"]
        assert w.glyphs[1].attached_to == (0, Placement.ABOVE)
        assert w.glyphs[2].attached_to == (1, Placement.ABOVE)
        _, shadda, fatha = marked(w, demo_font)
        stack = demo_font.marks["shadda"].stack_anchor
        drawn = demo_font.marks[fatha.glyph].anchor
        assert fatha.x_offset == shadda.x_offset + stack.x - drawn.x
        assert fatha.y_offset == shadda.y_offset + stack.y - drawn.y

    def test_shadda_stacks_even_written_after_vowel(self, demo_font):
        before = word("بَّ", demo_font)
        after = word("بَّ", demo_font)
        assert [g.glyph for g in before.glyphs] == [g.glyph for g in after.glyphs]

    def test_natural_width_sums_advances(self, demo_font):
        w = word("كتب", demo_font, frozenset())
        assert len(word_variants(w, demo_font)) == 1
        widths = sum(g.advance for g in w.glyphs)
        assert w.natural_width == widths == word_variants(w, demo_font)[0].width

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


class TestShapeWords:
    def test_repeats_share_one_shaped_word(self, demo_font):
        text = "بَا لَا بَا بَا"
        words = shape_words(decompose(text), demo_font, ALL_FEATURES)
        assert words[0] is words[2] is words[3]
        assert words[1] is not words[0]
        assert words == [shape_word(c, demo_font, ALL_FEATURES) for c in decompose(text)]

    def test_near_duplicates_are_shaped_apart(self, demo_font):
        # A repeat shares its first occurrence's word, and so do the two
        # typed orders of a shadda and a vowel, which decompose stores in
        # one stacking order; words that differ only in tatweel count do not.
        fatha_shadda, shadda_fatha = "\u0628\u064e\u0651", "\u0628\u0651\u064e"
        texts = ["\u0628\u0633\u0645", "\u0628\u0640\u0633\u0645",
                 "\u0628\u0640\u0640\u0633\u0645", fatha_shadda, shadda_fatha]
        clusters = decompose(" ".join(texts + texts))
        words = shape_words(clusters, demo_font, ALL_FEATURES)
        n = len(texts)
        assert all(words[i] is words[n + i] for i in range(n))
        assert words[3] is words[4]
        assert len({id(w) for w in words}) == n - 1
        assert words == [shape_word(c, demo_font, ALL_FEATURES) for c in clusters]


class TestWordVariants:
    def test_no_optional_features_yields_default_only(self, demo_font):
        w = word("في", demo_font, frozenset())  # feh + yeh
        assert [v.id for v in word_variants(w, demo_font)] == ["default"]

    def test_aesthetic_ligature_offers_wider_off_variant(self, demo_font):
        w = word("في", demo_font, LIGA_FEATURES)
        ids = [v.id for v in word_variants(w, demo_font)]
        assert ids[0] == "default" and "liga_off" in ids
        by_id = {v.id: v for v in word_variants(w, demo_font)}
        assert by_id["liga_off"].width > by_id["default"].width
        assert any(g.glyph == "feh_yeh.isol" for g in by_id["default"].word.glyphs)
        assert not any(
            g.glyph == "feh_yeh.isol" for g in by_id["liga_off"].word.glyphs
        )

    def test_allograph_variant_listed(self, demo_font):
        w = word("ك", demo_font, frozenset({"jalt"}))  # kaf alone
        ids = [v.id for v in word_variants(w, demo_font)]
        assert ids[0] == "default"
        assert any(id_.startswith("alt:") and "kaf.isol.wide" in id_ for id_ in ids)
        alt = next(v for v in word_variants(w, demo_font) if v.id.startswith("alt:"))
        assert alt.width > w.natural_width
        assert alt.word.glyphs[0].glyph == "kaf.isol.wide"

    def test_jalt_disabled_hides_allographs(self, demo_font):
        w = word("ك", demo_font, frozenset())
        assert [v.id for v in word_variants(w, demo_font)] == ["default"]

    def test_variants_deduplicated(self, demo_font):
        w = word("كك", demo_font, frozenset({"jalt"}))
        ids = [v.id for v in word_variants(w, demo_font)]
        assert len(ids) == len(set(ids))

    def test_default_always_first(self, demo_font, corpus_words):
        for w in corpus_words:
            assert word_variants(w, demo_font)[0].id == "default"
            assert word_variants(w, demo_font)[0].width == w.natural_width

    def test_variant_sites_match_enumeration(self, demo_font, corpus_words):
        for w in corpus_words:
            for v in word_variants(w, demo_font):
                assert v.sites == tuple(kashida.enumerate_sites(v.word, demo_font))


class TestGeometryInvariants:
    def test_marks_leave_shaping_unplaced(self, corpus_words):
        for w in corpus_words:
            for g in w.glyphs:
                if g.is_mark:
                    assert (g.x_offset, g.y_offset) == (0, 0)

    def test_marks_keep_their_side_over_corpus(self, demo_font, corpus_words):
        for w in corpus_words:
            marked_word, _ = mark_word(w, demo_font, 10)
            for j, g in enumerate(marked_word.glyphs):
                if not g.is_mark:
                    continue
                mark = demo_font.marks[g.glyph]
                root = attachment_chain(marked_word, j)[-1]
                base_ink = demo_font.glyphs[marked_word.glyphs[root].glyph].ink
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
            pens = w.tables.pens
            bases = [i for i, g in enumerate(w.glyphs) if not g.is_mark]
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


class TestWordTables:
    def test_tables_match_chain_walks_over_corpus(self, corpus_words):
        for w in corpus_words:
            tables = w.tables
            bases = [i for i, g in enumerate(w.glyphs) if not g.is_mark]
            assert list(tables.bases) == bases
            pen = 0
            for b in bases:
                assert tables.pens[b] == pen
                pen += w.glyphs[b].advance + w.glyphs[b].elongation
            marks_of = [[] for _ in w.glyphs]
            for i, g in enumerate(w.glyphs):
                root = attachment_chain(w, i)[-1]
                assert tables.pens[i] == tables.pens[root]
                if g.is_mark:
                    marks_of[root].append(i)
            assert tables.marks_of == tuple(tuple(marks) for marks in marks_of)


@pytest.mark.parametrize("path", [CORPUS_PATH, FRESH_WORDS_PATH], ids=["corpus", "fresh"])
@pytest.mark.parametrize("features", [frozenset(), ALL_FEATURES], ids=["none", "all"])
def test_marks_attach_backward(demo_font, path, features):
    """Every mark attaches to an earlier glyph, in every shaped word and
    every width variant: the contract that lets ``word_tables`` build a
    word's tables in one forward pass."""
    text = path.read_text(encoding="utf-8").replace("\n", " ")
    marks = 0
    for clusters in decompose(text):
        shaped = shape_word(clusters, demo_font, features)
        for w in (shaped, *(v.word for v in word_variants(shaped, demo_font))):
            for i, g in enumerate(w.glyphs):
                if g.is_mark:
                    marks += 1
                    assert 0 <= g.attached_to[0] < i, (w.glyphs, i)
    assert marks > 100
