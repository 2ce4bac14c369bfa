from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from qalam.diacritics import place_diacritics, with_marks
from qalam.errors import CapacityExceeded
from qalam.fontmodel import SizeVariant
from qalam.kashida import (
    allocate,
    apply_plan,
    enumerate_sites,
    word_capacity,
)
from .util import ALEF, BEH, SEEN, synth_font, word


def placed(spans) -> int:
    """The units a word's elongation spans place."""
    return sum(units for _, _, units in spans)


class TestEnumerateSites:
    def test_unstretchable_word_has_no_sites(self, demo_font):
        w = word("او", demo_font)  # alef + waw: stretch class 0
        assert enumerate_sites(w, demo_font) == []

    def test_single_site(self, demo_font):
        w = word("س", demo_font)  # seen.isol, capacity 300
        sites = enumerate_sites(w, demo_font)
        assert len(sites) == 1
        assert sites[0].glyph_index == 0
        assert sites[0].capacity == 300

    def test_equal_rank_ties_break_toward_word_end(self):
        font = synth_font(
            letter_widths={BEH: 340, SEEN: 560, ALEF: 140},
            letter_extensions={BEH: 400},
        )
        # beh beh beh alef: the three beh glyphs share stretch class 2 and
        # the alef contributes no site, so the order is rightmost-first.
        w = word("بببا", font)
        sites = enumerate_sites(w, font)
        assert [s.glyph_index for s in sites] == [2, 1, 0]

    def test_higher_class_outranks_position(self, demo_font):
        # seen (class 3) before beh (class 2): seen wins despite position.
        w = word("سبا", demo_font)
        sites = enumerate_sites(w, demo_font)
        assert len(sites) == 2
        first_letter = w.clusters[w.glyph_clusters[sites[0].glyph_index][0]].base
        assert first_letter.skeleton_family == "seen"

    def test_explicit_hint_outranks_stretch_class(self, demo_font):
        plain = word("بس", demo_font)  # beh (class 2) + seen (class 3)
        sites = enumerate_sites(plain, demo_font)
        assert sites[0].glyph_index == 1  # seen wins on class

        hinted = word("بـس", demo_font)  # explicit mark on beh
        sites = enumerate_sites(hinted, demo_font)
        assert sites[0].glyph_index == 0
        assert hinted.clusters[0].stretch_hint == 1

    def test_hint_on_rigid_letter_ignored(self, demo_font):
        w = word("اـ س".replace(" ", ""), demo_font)  # alef+hint, seen
        sites = enumerate_sites(w, demo_font)
        assert [s.glyph_index for s in sites] == [1]

    def test_never_on_stretch_class_zero(self, demo_font, corpus_words):
        for w in corpus_words:
            for site in enumerate_sites(w, demo_font):
                classes = [
                    w.clusters[ci].base.stretch_class
                    for ci in w.glyph_clusters[site.glyph_index]
                ]
                assert max(classes) > 0
                assert site.capacity > 0


class TestAllocate:
    def test_single_site_partial_fill(self, demo_font):
        w = word("س", demo_font)
        sites = enumerate_sites(w, demo_font)
        spans = allocate(sites, 120, "single_site")
        assert spans == ((0, sites[0].x, 120),)
        assert placed(spans) == min(120, word_capacity(sites, "single_site")) == 120

    def test_single_site_saturates_at_its_capacity(self):
        font = synth_font(letter_extensions={SEEN: 300, BEH: 200})
        w = word("سب", font)  # seen rank 30 > beh rank 20
        spans = allocate(enumerate_sites(w, font), 400, "single_site")
        sites = enumerate_sites(w, font)
        assert spans == ((sites[0].glyph_index, sites[0].x, 300),)
        assert placed(spans) == min(400, word_capacity(sites, "single_site")) == 300

    def test_spread_cascades(self):
        font = synth_font(letter_extensions={SEEN: 300, BEH: 200})
        w = word("سب", font)
        spans = allocate(enumerate_sites(w, font), 400, "spread")
        sites = enumerate_sites(w, font)
        assert placed(spans) == min(400, word_capacity(sites, "spread")) == 400
        units = {gi: amount for gi, _, amount in spans}
        assert units[sites[0].glyph_index] == 300
        assert units[sites[1].glyph_index] == 100

    def test_zero_deficit_empty_plan(self, demo_font):
        w = word("س", demo_font)
        assert allocate(enumerate_sites(w, demo_font), 0, "single_site") == ()

    def test_unknown_policy_rejected(self, demo_font):
        w = word("س", demo_font)
        with pytest.raises(ValueError):
            allocate(enumerate_sites(w, demo_font), 10, "zigzag")

    def test_off_policy_never_elongates(self, demo_font):
        sites = enumerate_sites(word("س", demo_font), demo_font)
        assert sites and word_capacity(sites, "off") == 0
        spans = allocate(sites, 120, "off")
        assert spans == () and placed(spans) == min(120, word_capacity(sites, "off")) == 0

    @given(deficit=st.integers(0, 2000))
    def test_conservation(self, deficit):
        font = synth_font(letter_extensions={SEEN: 300, BEH: 200})
        w = word("سب", font)
        for policy in ("single_site", "spread"):
            sites = enumerate_sites(w, font)
            spans = allocate(sites, deficit, policy)
            assert placed(spans) == min(deficit, word_capacity(sites, policy))
            glyphs = [gi for gi, _, _ in spans]
            assert glyphs == sorted(set(glyphs))  # glyph order, each glyph once
            by_glyph = {s.glyph_index: s for s in sites}
            for gi, x, amount in spans:
                assert x == by_glyph[gi].x
                assert 0 < amount <= by_glyph[gi].capacity


class TestApplyPlan:
    def test_empty_plan_is_identity(self, demo_font):
        w = word("سَ", demo_font)
        assert apply_plan(w, (), enumerate_sites(w, demo_font)) == w

    def test_width_grows_by_allocation(self, demo_font):
        w = word("س", demo_font)
        sites = enumerate_sites(w, demo_font)
        out = apply_plan(w, ((0, sites[0].x, 250),), sites)
        assert out.natural_width == w.natural_width + 250

    def test_capacity_exceeded(self, demo_font):
        w = word("س", demo_font)
        sites = enumerate_sites(w, demo_font)
        with pytest.raises(CapacityExceeded):
            apply_plan(w, ((0, sites[0].x, 350),), sites)

    def test_plan_on_unstretchable_glyph_rejected(self, demo_font):
        w = word("ا", demo_font)
        with pytest.raises(CapacityExceeded):
            apply_plan(w, ((0, 0, 10),), enumerate_sites(w, demo_font))

    def test_negative_amount_rejected(self, demo_font):
        w = word("س", demo_font)
        sites = enumerate_sites(w, demo_font)
        with pytest.raises(CapacityExceeded, match="negative elongation at glyph 0"):
            apply_plan(w, ((0, sites[0].x, -10),), sites)

    # apply_plan only widens glyphs; placement re-centers the marks over the
    # stretched glyph.

    def test_marks_ride_extended_span_midpoint(self):
        font = synth_font(letter_extensions={BEH: 400})
        w = word("بُا", font)  # beh+damma, alef
        sites = enumerate_sites(w, font)
        out = apply_plan(w, ((0, sites[0].x, 200),), sites)
        marks, _ = place_diacritics(out, font)
        mark = with_marks(out, marks).glyphs[1]
        # Midpoint of [0, 340+200] minus damma anchor x.
        assert mark.x_offset == (340 + 200) // 2 - 60

    def test_stacked_marks_follow(self):
        # Thresholds above the 540-unit span keep the fatha at normal size.
        font = synth_font(thresholds=(600, 700), letter_extensions={BEH: 400})
        w = word("بَّا", font)
        sites = enumerate_sites(w, font)
        out = apply_plan(w, ((0, sites[0].x, 200),), sites)
        marks, _ = place_diacritics(out, font)
        assert marks[1].variant is SizeVariant.NORMAL
        shadda, fatha = with_marks(out, marks).glyphs[1:3]
        assert shadda.x_offset == (340 + 200) // 2 - 75
        assert fatha.x_offset == shadda.x_offset + 75 - 50

    def test_width_delta_matches_placed_total(self, demo_font, corpus_words):
        rng = random.Random(11)
        for w in corpus_words[:40]:
            deficit = rng.randint(0, 900)
            sites = enumerate_sites(w, demo_font)
            spans = allocate(sites, deficit, "spread")
            out = apply_plan(w, spans, sites)
            assert out.natural_width - w.natural_width == placed(spans)
            assert placed(spans) == min(deficit, word_capacity(sites, "spread"))

    def test_word_capacity_matches_sites(self, demo_font, corpus_words):
        for w in corpus_words[:40]:
            sites = enumerate_sites(w, demo_font)
            assert word_capacity(sites, "spread") == sum(s.capacity for s in sites)
            expected_single = sites[0].capacity if sites else 0
            assert word_capacity(sites, "single_site") == expected_single
