from __future__ import annotations

import random

import pytest

from qalam import diacritics, kashida, layout, shaper
from qalam.diacritics import (
    PlacedMark,
    _Placer,
    place_diacritics,
    resolve_collisions,
    select_size_variant,
    with_marks,
)
from qalam.errors import MissingVariant
from qalam.fontmodel import SizeVariant, VARIANT_ORDER
from qalam.kashida import ElongationPlan, apply_plan, enumerate_sites
from qalam.lookups import PlacedGlyph
from qalam.textmodel import Placement, decompose

from .conftest import CORPUS_PATH, FRESH_WORDS_PATH
from .util import BEH, attachment_chain, mark_facts, synth_font, word


def variant_rank(variant: SizeVariant) -> int:
    return VARIANT_ORDER.index(variant)


def stretch(w, font, allocations: dict[int, int]):
    """The word with the given elongations applied."""
    return apply_plan(w, ElongationPlan(allocations, 0), enumerate_sites(w, font))


class TestSelectSizeVariant:
    def test_zero_gap_is_normal(self):
        assert select_size_variant(0, 200, 450) is SizeVariant.NORMAL

    def test_thresholds_inclusive(self):
        assert select_size_variant(199, 200, 450) is SizeVariant.NORMAL
        assert select_size_variant(200, 200, 450) is SizeVariant.MEDIUM
        assert select_size_variant(449, 200, 450) is SizeVariant.MEDIUM
        assert select_size_variant(450, 200, 450) is SizeVariant.LARGE

    def test_saturates(self):
        assert select_size_variant(10_000, 200, 450) is SizeVariant.LARGE

    def test_monotone(self):
        ranks = [variant_rank(select_size_variant(g, 200, 450)) for g in range(0, 1200, 7)]
        assert ranks == sorted(ranks)


def placed_gap(w, font, index: int, side: Placement) -> int:
    """Free span over base glyph ``index`` once the word's marks are placed."""
    placer = _Placer(w, font)
    placer.run()
    return placer.gap(placer.bases.index(index), side)


class TestMeasureGap:
    def test_bare_glyph_gap_is_ink_width(self, demo_font):
        w = word("س", demo_font)  # seen.isol: ink 20..580
        assert placed_gap(w, demo_font, 0, Placement.ABOVE) == 560

    def test_elongation_adds_to_gap(self, demo_font):
        w = word("س", demo_font)
        stretched = stretch(w, demo_font, {0: 250})
        assert placed_gap(stretched, demo_font, 0, Placement.ABOVE) == 560 + 250

    def test_neighbour_mark_subtracts(self):
        font = synth_font(mark_overrides={"damma": {"ink": [0, 0, 800, 140], "anchor": [400, 0]}})
        w = word("دُب", font)  # dal+damma, beh
        # dal ink [0,280]; its damma, centered at 140, spans [-260, 540];
        # beh spans [280, 620].
        assert placed_gap(w, font, 2, Placement.ABOVE) == 340 - (540 - 280)

    def test_fully_covered_span_clamps_to_zero(self):
        font = synth_font(mark_overrides={"damma": {"ink": [0, 0, 1200, 140], "anchor": [600, 0]}})
        w = word("دُب", font)
        assert placed_gap(w, font, 2, Placement.ABOVE) == 0

    def test_below_side_independent(self):
        font = synth_font()
        w = word("دِب", font)  # kasra below on dal
        assert placed_gap(w, font, 2, Placement.ABOVE) == 340
        assert placed_gap(w, font, 2, Placement.BELOW) == 340


class TestPlaceDiacritics:
    def test_single_damma_pure_anchor_arithmetic(self):
        font = synth_font(
            anchor_above=(120, 400),
            mark_overrides={"damma": {"anchor": [30, 0]}},
        )
        w = word("بُ", font)
        marks, diags = place_diacritics(w, font)
        assert len(marks) == 1
        assert marks[0].mark == "damma"
        assert marks[0].variant is SizeVariant.NORMAL
        assert (marks[0].x, marks[0].y) == (90, 400)
        assert marks[0].owner == 0

    def test_middle_glyph_mark_recenters(self):
        font = synth_font(anchor_above=(120, 400))
        lone = word("بُ", font)
        lone_marks, _ = place_diacritics(lone, font)
        assert lone_marks[0].x == 120 - 60  # anchor kept on last glyph

        pair = word("بُب", font)
        pair_marks, _ = place_diacritics(pair, font)
        # beh.initial ink [0, 340]: center 170, damma anchor x 60.
        assert pair_marks[0].x == 170 - 60

    def test_growable_mark_resizes_and_recenters(self):
        font = synth_font(thresholds=(400, 700), letter_extensions={BEH: 400})
        base_word = word("بَا", font)  # beh+fatha, alef

        plain_marks, _ = place_diacritics(base_word, font)
        assert plain_marks[0].variant is SizeVariant.NORMAL  # gap 340 < 400

        stretched = stretch(base_word, font, {0: 250})
        marks, _ = place_diacritics(stretched, font)
        assert marks[0].variant is SizeVariant.MEDIUM  # gap 590
        # Recentered at the midpoint of the extended ink span.
        assert (marks[0].x, marks[0].y) == ((340 + 250) // 2 - 100, 380)

        wide = stretch(base_word, font, {0: 400})
        marks, _ = place_diacritics(wide, font)
        assert marks[0].variant is SizeVariant.LARGE  # gap 740

    def test_final_phase_uses_mass_variant(self):
        font = synth_font(mass_variants={"medium": "large"})
        w = word("بَ", font)  # all synth glyphs are medium mass
        marks, _ = place_diacritics(w, font)
        assert marks[0].variant is SizeVariant.LARGE
        # Anchor point preserved: large anchor x 200 at base anchor 170.
        assert marks[0].x == 170 - 200

    def test_final_phase_leaves_other_marks_alone(self):
        font = synth_font(mass_variants={"medium": "large"})
        w = word("بُ", font)
        marks, _ = place_diacritics(w, font)
        assert marks[0].variant is SizeVariant.NORMAL

    def test_mass_position_table_shifts_default_y(self):
        font = synth_font(mass_positions={"medium": {"above": 55, "below": -40}})
        w = word("بُ", font)
        marks, _ = place_diacritics(w, font)
        assert marks[0].y == 380 + 55
        below = word("بِ", font)
        marks, _ = place_diacritics(below, font)
        assert marks[0].y == -80 - 40 - 60  # anchor - dy - mark anchor y

    def test_shadda_stack_rides_along(self):
        font = synth_font(thresholds=(400, 700))
        w = word("بَّب", font)  # beh+shadda+fatha, beh
        marks, _ = place_diacritics(w, font)
        shadda, fatha = marks[0], marks[1]
        assert shadda.mark == "shadda" and fatha.mark == "fatha"
        # Shadda centered over ink span [0, 340]; stack keeps alignment.
        assert shadda.x == 170 - 75
        assert fatha.variant is SizeVariant.NORMAL  # gap 340 below threshold
        assert fatha.x == shadda.x + 75 - 50
        assert fatha.y == shadda.y + 150

    def test_stacked_growable_mark_resizes_on_stack(self):
        font = synth_font()  # thresholds (200, 450): gap 340 selects medium
        w = word("بَّب", font)
        marks, _ = place_diacritics(w, font)
        shadda, fatha = marks[0], marks[1]
        assert fatha.variant is SizeVariant.MEDIUM
        # Rides the centered shadda through the stack anchor, medium anchor 100.
        assert fatha.x == shadda.x + 75 - 100

    def test_ligature_marks_keep_component_anchor(self, demo_font):
        w = word("لَاب", demo_font)  # lam+fatha+alef then beh
        marks, _ = place_diacritics(w, demo_font)
        entry = demo_font.ligature_by_glyph["lam_alef.isol"]
        anchor_x = entry.component_anchors[0][Placement.ABOVE].x
        fatha = marks[0]
        # Gap over the ligature ink (300 wide) selects the medium variant;
        # the anchor point stays on the component.
        assert fatha.variant is SizeVariant.MEDIUM
        medium = demo_font.marks["fatha.medium"]
        assert fatha.x == anchor_x - medium.anchor.x

    def test_idempotent_on_corpus(self, demo_font, corpus_words):
        rng = random.Random(4)
        for w in corpus_words:
            sites = kashida.enumerate_sites(w, demo_font)
            if sites and rng.random() < 0.5:
                site = rng.choice(sites)
                plan = ElongationPlan({site.glyph_index: rng.randint(1, site.capacity)}, 0)
                w = apply_plan(w, plan, sites)
            first, _ = place_diacritics(w, demo_font)
            replayed, _ = place_diacritics(with_marks(w, first), demo_font)
            assert mark_facts(replayed) == mark_facts(first)

    def test_monotone_in_elongation(self):
        font = synth_font(thresholds=(400, 700), letter_extensions={BEH: 600})
        base_word = word("بَا", font)
        ranks = []
        for e in range(0, 601, 60):
            stretched = stretch(base_word, font, {0: e} if e else {})
            marks, _ = place_diacritics(stretched, font)
            ranks.append(variant_rank(marks[0].variant))
        assert ranks == sorted(ranks)

    def test_only_growable_marks_resized(self, demo_font, corpus_words):
        for w in corpus_words:
            marks, _ = place_diacritics(w, demo_font)
            for m in marks:
                if m.variant is not SizeVariant.NORMAL:
                    cp = {v: k for k, v in demo_font.mark_cmap.items()}[m.mark]
                    assert cp in (0x064B, 0x064E)

    def test_marks_never_cross_baseline_side(self, demo_font, corpus_words):
        for w in corpus_words:
            marks, _ = place_diacritics(w, demo_font)
            for m in marks:
                mark = demo_font.marks[m.mark]
                glyph_id = demo_font.sized_mark(m.mark, m.variant).glyph
                ink = demo_font.marks[glyph_id].ink
                if mark.attachment_class is Placement.ABOVE:
                    assert m.y + ink.y_min >= 0
                else:
                    assert m.y + ink.y_max <= 0

    def test_resized_vowel_pushes_next_glyph_mark(self):
        # An oversized large variant spills over the neighbour's damma, so
        # the damma must give way by overlap + clearance.
        font = synth_font(
            letter_extensions={BEH: 400},
            mark_overrides={"fatha.large": {"ink": [0, 0, 900, 80], "anchor": [450, 0]}},
        )
        w = word("بَبُ", font)  # beh+fatha, beh+damma
        stretched = stretch(w, font, {0: 200})
        marks, diags = place_diacritics(stretched, font)
        assert diags == []
        fatha, damma = marks
        assert fatha.variant is SizeVariant.LARGE  # gap 540 over threshold 450
        # Large fatha centered at (0+340+200)//2 = 270 spans [-180, 720];
        # the damma sits at offset 650 (ink [650, 770]), overlapped by 70.
        assert fatha.x == 270 - 450
        assert damma.x == 650 + 70 + 10

    def test_missing_size_raises_missing_variant(self):
        # fatha offers no medium size; a gap of 340 over beh asks for it.
        font = synth_font(mark_overrides={"fatha": {"variants": {"normal": "fatha"}}})
        with pytest.raises(MissingVariant, match="^fatha has no medium variant$"):
            place_diacritics(word("بَب", font), font)

    def test_space_available_annotation(self, demo_font):
        w = word("س", demo_font)  # bare seen: 560 free units above
        _, diags = place_diacritics(w, demo_font)
        assert any(d.code == "space-available" for d in diags)

    def test_no_annotation_when_marked(self, demo_font):
        w = word("سَ", demo_font)
        _, diags = place_diacritics(w, demo_font)
        assert not any(d.code == "space-available" for d in diags)


def mark_states(w, font, offsets):
    """States for ``w``'s first marks, in glyph order, at normal size and
    the given offsets, as the sweep hands them to ``resolve_collisions``:
    each owned by its root base and stacked on the mark it attaches to."""
    entries = [i for i, g in enumerate(w.glyphs) if g.is_mark]
    states = {}
    for mi, (x, y) in zip(entries, offsets):
        mark_id = w.glyphs[mi].glyph
        sized = font.sized_mark(mark_id, SizeVariant.NORMAL)
        chain = attachment_chain(w, mi)
        stacked_on = chain[1] if len(chain) > 2 else None
        states[mi] = PlacedMark(mi, chain[-1], mark_id, sized, stacked_on, x, y, x, y)
    return states


def positions(states):
    return [(st.x, st.y) for st in states.values()]


class TestResolveCollisions:
    def test_disjoint_marks_unchanged(self):
        font = synth_font()
        w = word("بَبَ", font)
        states = mark_states(w, font, [(0, 380), (400, 380)])
        diags = resolve_collisions(states, w, font)
        assert positions(states) == [(0, 380), (400, 380)] and diags == []

    def test_overlap_shifts_later_mark(self):
        font = synth_font()
        w = word("بَبَ", font)
        # fatha ink is 100 wide: [0,100] and [80,180] overlap by 20.
        states = mark_states(w, font, [(0, 380), (80, 380)])
        diags = resolve_collisions(states, w, font, gap_epsilon=10)
        assert diags == []
        resolved = positions(states)
        assert resolved[0] == (0, 380)
        assert resolved[1] == (80 + 30, 380)

    def test_immovable_later_shifts_earlier_left(self):
        font = synth_font()
        w = word("بَبَّ", font)  # fatha, shadda, fatha
        states = mark_states(w, font, [(80, 380), (150, 380), (150, 530)])
        diags = resolve_collisions(states, w, font, gap_epsilon=10)
        assert diags == []
        resolved = positions(states)
        # Earlier fatha moved left: overlap 180-150=30, shift 40.
        assert resolved[0] == (80 - 40, 380)
        assert resolved[1] == (150, 380)  # shadda pinned

    def test_two_pinned_stacks_report_unresolvable(self):
        font = synth_font()
        w = word("بَّبَّ", font)
        offsets = [(100, 380), (100, 530), (180, 380), (180, 530)]
        states = mark_states(w, font, offsets)
        diags = resolve_collisions(states, w, font)
        assert [d.code for d in diags] == ["unresolvable-overlap"]
        assert positions(states) == offsets

    def test_shift_beyond_owner_span_reports(self):
        font = synth_font()
        w = word("بَبَ", font)
        # Demand a shift larger than the owner ink span (340).
        states = mark_states(w, font, [(0, 380), (-340, 380)])
        diags = resolve_collisions(states, w, font)
        assert [d.code for d in diags] == ["unresolvable-overlap"]
        assert positions(states) == [(0, 380), (-340, 380)]

    def test_no_overlaps_remain_on_corpus(self, demo_font, corpus_words):
        for w in corpus_words:
            marks, diags = place_diacritics(w, demo_font)
            reported = {d.code for d in diags}
            by_side = {}
            for m in marks:
                side = demo_font.marks[m.mark].attachment_class
                glyph_id = demo_font.sized_mark(m.mark, m.variant).glyph
                ink = demo_font.marks[glyph_id].ink
                lo, hi = m.x + ink.x_min, m.x + ink.x_max
                root = attachment_chain(w, m.index)[-2]  # the stack's lowest mark
                by_side.setdefault(side, []).append((lo, hi, root))
            overlap_found = False
            for intervals in by_side.values():
                units = {}
                for lo, hi, root in intervals:
                    units.setdefault(root, []).append((lo, hi))
                merged = [
                    (min(l for l, _ in spans), max(h for _, h in spans))
                    for _, spans in sorted(units.items())
                ]
                for (a_lo, a_hi), (b_lo, b_hi) in zip(merged, merged[1:]):
                    if min(a_hi, b_hi) - max(a_lo, b_lo) > 0:
                        overlap_found = True
            assert not overlap_found or "unresolvable-overlap" in reported


class TestLinearPasses:
    """Marking a word walks its glyph string a fixed number of times.

    Counts calls rather than time: one table build per word.
    """

    @pytest.mark.parametrize(
        "text", ["الْقِطُّ", "لَاب"], ids=["stacked-shadda", "ligature"]
    )
    def test_mark_word_work_is_linear(self, demo_font, monkeypatch, text):
        calls = []
        original = shaper.word_tables

        def counted(w):
            calls.append(w)
            return original(w)

        for module in (shaper, diacritics, layout):
            if getattr(module, "word_tables", None) is original:
                monkeypatch.setattr(module, "word_tables", counted)

        w = word(text, demo_font)
        assert any(g.glyph == "shadda" for g in w.glyphs) or any(
            g.glyph in demo_font.ligature_by_glyph for g in w.glyphs
        )
        marked, _ = diacritics.mark_word(w, demo_font, 10)
        layout.shaped_document(demo_font, [marked])
        assert len(calls) <= 1

    def test_one_placed_mark_per_mark(self, monkeypatch):
        # The case of ``test_resized_vowel_pushes_next_glyph_mark``: the
        # damma is nudged, yet each mark is built into one PlacedMark; the
        # nudge reads each mark's size from the sweep, and the glyph string
        # is written from the placed marks, neither from the font.
        font = synth_font(
            letter_extensions={BEH: 400},
            mark_overrides={"fatha.large": {"ink": [0, 0, 900, 80], "anchor": [450, 0]}},
        )
        w = stretch(word("بَبُ", font), font, {0: 200})
        counts = {
            "PlacedMark": 0,
            "sized_mark in resolve_collisions": 0,
            "sized_mark in with_marks": 0,
        }
        inside = []
        real_mark = diacritics.PlacedMark
        real_sized_mark = font.sized_mark

        def placed_mark(*args, **kwargs):
            counts["PlacedMark"] += 1
            return real_mark(*args, **kwargs)

        def within(name):
            real = getattr(diacritics, name)

            def call(*args, **kwargs):
                inside.append(name)
                try:
                    return real(*args, **kwargs)
                finally:
                    inside.pop()

            monkeypatch.setattr(diacritics, name, call)

        def sized_mark(*args):
            if inside:
                counts[f"sized_mark in {inside[-1]}"] += 1
            return real_sized_mark(*args)

        monkeypatch.setattr(diacritics, "PlacedMark", placed_mark)
        within("resolve_collisions")
        within("with_marks")
        monkeypatch.setattr(font, "sized_mark", sized_mark)
        marks, diags = diacritics.place_diacritics(w, font)
        assert diags == [] and len(marks) == 2
        assert marks[1].x == 650 + 70 + 10  # the damma was nudged
        marked = diacritics.with_marks(w, marks)
        assert [g.glyph for g in marked.glyphs if g.is_mark] == ["fatha.large", "damma"]
        assert counts == {
            "PlacedMark": 2,
            "sized_mark in resolve_collisions": 0,
            "sized_mark in with_marks": 0,
        }

    def test_finished_word_shares_its_tables(self, demo_font, corpus_words):
        for w in corpus_words:
            stretched = w
            sites = kashida.enumerate_sites(w, demo_font)
            if sites:
                stretched = apply_plan(w, ElongationPlan({sites[0].glyph_index: 1}, 0), sites)
            marked, _ = diacritics.mark_word(stretched, demo_font, 10)
            assert marked.tables is stretched.tables
            assert marked.tables == shaper.word_tables(marked)


@pytest.mark.parametrize("path", [CORPUS_PATH, FRESH_WORDS_PATH], ids=["corpus", "fresh"])
def test_every_glyph_passes_its_check(demo_font, path):
    """Shaping and marking build glyphs without ``PlacedGlyph``'s check,
    from values that pass it; every glyph they write must pass it."""
    features = frozenset({"liga", "jalt"})
    for clusters in decompose(path.read_text(encoding="utf-8").replace("\n", " ")):
        shaped = shaper.shape_word(clusters, demo_font, features)
        marked, _ = diacritics.mark_word(shaped, demo_font, 10)
        for g in shaped.glyphs + marked.glyphs:
            assert type(g) is PlacedGlyph and len(g) == len(PlacedGlyph._fields)
            g._check()


@pytest.mark.parametrize("path", [CORPUS_PATH, FRESH_WORDS_PATH], ids=["corpus", "fresh"])
def test_sweep_follows_each_attachment_chain(demo_font, path):
    """Each placed mark is owned by the base at the root of its attachment
    chain and stacked on the mark it attaches to, if any: the stacks that
    ``resolve_collisions`` moves as one are the chains' stacks."""
    features = frozenset({"liga", "jalt"})
    for clusters in decompose(path.read_text(encoding="utf-8").replace("\n", " ")):
        w = shaper.shape_word(clusters, demo_font, features)
        marks, _ = place_diacritics(w, demo_font)
        assert [m.index for m in marks] == [i for i, g in enumerate(w.glyphs) if g.is_mark]
        for m in marks:
            chain = attachment_chain(w, m.index)
            assert m.owner == chain[-1]
            assert m.stacked_on == (chain[1] if len(chain) > 2 else None)
