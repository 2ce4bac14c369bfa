from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from qalam.diacritics import place_diacritics, with_marks
from qalam.errors import CapacityExceeded
from qalam.fontmodel import SizeVariant
from qalam.kashida import (
    ElongationPlan,
    allocate,
    apply_plan,
    enumerate_sites,
    word_capacity,
)
from .util import ALEF, BEH, SEEN, synth_font, word


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
        plan = allocate(enumerate_sites(w, demo_font), 120, "single_site")
        assert plan.allocations == {0: 120}
        assert plan.residual == 0

    def test_single_site_saturates_and_leaves_residual(self):
        font = synth_font(letter_extensions={SEEN: 300, BEH: 200})
        w = word("سب", font)  # seen rank 30 > beh rank 20
        plan = allocate(enumerate_sites(w, font), 400, "single_site")
        sites = enumerate_sites(w, font)
        assert plan.allocations == {sites[0].glyph_index: 300}
        assert plan.residual == 100

    def test_spread_cascades(self):
        font = synth_font(letter_extensions={SEEN: 300, BEH: 200})
        w = word("سب", font)
        plan = allocate(enumerate_sites(w, font), 400, "spread")
        assert sum(plan.allocations.values()) == 400
        assert plan.residual == 0
        sites = enumerate_sites(w, font)
        assert plan.allocations[sites[0].glyph_index] == 300
        assert plan.allocations[sites[1].glyph_index] == 100

    def test_zero_deficit_empty_plan(self, demo_font):
        w = word("س", demo_font)
        plan = allocate(enumerate_sites(w, demo_font), 0, "single_site")
        assert plan.allocations == {} and plan.residual == 0

    def test_unknown_policy_rejected(self, demo_font):
        w = word("س", demo_font)
        with pytest.raises(ValueError):
            allocate(enumerate_sites(w, demo_font), 10, "zigzag")

    def test_off_policy_never_elongates(self, demo_font):
        sites = enumerate_sites(word("س", demo_font), demo_font)
        assert sites and word_capacity(sites, "off") == 0
        plan = allocate(sites, 120, "off")
        assert plan.allocations == {} and plan.residual == 120

    @given(deficit=st.integers(0, 2000))
    def test_conservation(self, deficit):
        font = synth_font(letter_extensions={SEEN: 300, BEH: 200})
        w = word("سب", font)
        for policy in ("single_site", "spread"):
            plan = allocate(enumerate_sites(w, font), deficit, policy)
            assert sum(plan.allocations.values()) + plan.residual == deficit
            sites = {s.glyph_index: s.capacity for s in enumerate_sites(w, font)}
            for gi, amount in plan.allocations.items():
                assert 0 < amount <= sites[gi]


class TestApplyPlan:
    def test_empty_plan_is_identity(self, demo_font):
        w = word("سَ", demo_font)
        assert apply_plan(w, ElongationPlan({}, 0), enumerate_sites(w, demo_font)) == w

    def test_width_grows_by_allocation(self, demo_font):
        w = word("س", demo_font)
        out = apply_plan(w, ElongationPlan({0: 250}, 0), enumerate_sites(w, demo_font))
        assert out.natural_width == w.natural_width + 250

    def test_capacity_exceeded(self, demo_font):
        w = word("س", demo_font)
        with pytest.raises(CapacityExceeded):
            apply_plan(w, ElongationPlan({0: 350}, 0), enumerate_sites(w, demo_font))

    def test_plan_on_unstretchable_glyph_rejected(self, demo_font):
        w = word("ا", demo_font)
        with pytest.raises(CapacityExceeded):
            apply_plan(w, ElongationPlan({0: 10}, 0), enumerate_sites(w, demo_font))

    def test_negative_amount_rejected(self, demo_font):
        w = word("س", demo_font)
        with pytest.raises(CapacityExceeded, match="negative elongation at glyph 0"):
            apply_plan(w, ElongationPlan({0: -10}, 0), enumerate_sites(w, demo_font))

    # apply_plan only widens glyphs; placement re-centers the marks over the
    # stretched glyph.

    def test_marks_ride_extended_span_midpoint(self):
        font = synth_font(letter_extensions={BEH: 400})
        w = word("بُا", font)  # beh+damma, alef
        out = apply_plan(w, ElongationPlan({0: 200}, 0), enumerate_sites(w, font))
        marks, _ = place_diacritics(out, font)
        mark = with_marks(out, marks).glyphs[1]
        # Midpoint of [0, 340+200] minus damma anchor x.
        assert mark.x_offset == (340 + 200) // 2 - 60

    def test_stacked_marks_follow(self):
        # Thresholds above the 540-unit span keep the fatha at normal size.
        font = synth_font(thresholds=(600, 700), letter_extensions={BEH: 400})
        w = word("بَّا", font)
        out = apply_plan(w, ElongationPlan({0: 200}, 0), enumerate_sites(w, font))
        marks, _ = place_diacritics(out, font)
        assert marks[1].variant is SizeVariant.NORMAL
        shadda, fatha = with_marks(out, marks).glyphs[1:3]
        assert shadda.x_offset == (340 + 200) // 2 - 75
        assert fatha.x_offset == shadda.x_offset + 75 - 50

    def test_width_delta_matches_deficit_minus_residual(self, demo_font, corpus_words):
        rng = random.Random(11)
        for w in corpus_words[:40]:
            deficit = rng.randint(0, 900)
            sites = enumerate_sites(w, demo_font)
            plan = allocate(sites, deficit, "spread")
            out = apply_plan(w, plan, sites)
            assert out.natural_width - w.natural_width == deficit - plan.residual

    def test_word_capacity_matches_sites(self, demo_font, corpus_words):
        for w in corpus_words[:40]:
            sites = enumerate_sites(w, demo_font)
            assert word_capacity(sites, "spread") == sum(s.capacity for s in sites)
            expected_single = sites[0].capacity if sites else 0
            assert word_capacity(sites, "single_site") == expected_single
