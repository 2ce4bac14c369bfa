from __future__ import annotations

import math
import random

import pytest

from qalam.errors import Infeasible, WordTooWide
from qalam.justify import (
    INF,
    GlueSpec,
    JustifyParams,
    badness,
    break_greedy,
    break_optimum,
    demerits,
    justify_line,
    line_candidate,
)
from qalam.shaper import shape_word
from qalam.textmodel import decompose

from .break_oracle import oracle_best
from .util import ALEF, BEH, DAL, SEEN, random_word_text, synth_font

GLUE = GlueSpec(10, 5, 3)


def make_words(font, letters: str):
    return [shape_word(c, font, frozenset()) for c in decompose(letters)]


class TestBadness:
    def test_perfect_fit(self):
        assert badness(0.0) == 0

    def test_unit_ratio(self):
        assert badness(1.0) == 100

    def test_overshrunk_is_infeasible(self):
        assert badness(-1.2) >= INF

    def test_infinite_stretch_need_saturates(self):
        assert badness(math.inf) == 10000

    def test_cap(self):
        assert badness(5.0) == 10000

    def test_none_is_infeasible(self):
        assert badness(None) >= INF


def fake_line(b: int, signature=frozenset()):
    from qalam.justify import LineCandidate

    return LineCandidate(
        word_range=(0, 1),
        variant_ids=("default",),
        natural=100,
        total_stretch=10,
        total_shrink=5,
        ratio=0.0,
        badness=b,
        kashida_intervals=(),
        signature=frozenset(signature),
        plans=((),),
        glue_widths=(),
        width=100,
    )


class TestDemerits:
    def test_zero_badness(self):
        params = JustifyParams(line_penalty=10)
        assert demerits(fake_line(0), params) == 100

    def test_badness_squares_with_penalty(self):
        params = JustifyParams(line_penalty=10)
        assert demerits(fake_line(100), params) == 12100

    def test_overlap_adds_penalty(self):
        params = JustifyParams(line_penalty=10, overlap_penalty=3000)
        line = fake_line(100, signature={3})
        assert demerits(line, params, prev_signature=frozenset({3})) == 15100

    def test_infeasible_propagates(self):
        params = JustifyParams()
        assert demerits(fake_line(INF), params) >= INF

    def test_negative_overlap_penalty_rejected(self):
        with pytest.raises(ValueError):
            JustifyParams(overlap_penalty=-1)

    def test_inf_overlap_penalty(self):
        params = JustifyParams(overlap_penalty=INF)
        line = fake_line(0, signature={1})
        assert demerits(line, params, frozenset({1})) >= INF
        assert demerits(line, params, frozenset({2})) == 100


class TestJustifyLine:
    def font(self, **kw):
        return synth_font(
            letter_widths={SEEN: 560, ALEF: 40, DAL: 30, BEH: 50}, **kw
        )

    def test_zero_deficit_identity(self):
        font = self.font()
        words = make_words(font, "ا د")  # 40 + 10 + 30 = 80
        line = justify_line(
            [w.variants[0] for w in words], 80, GLUE, font, JustifyParams()
        )
        assert line.width == 80
        assert line.glue_widths == (10,)
        assert all(p == () for p in line.plans)
        assert line.badness == 0

    def test_kashida_before_glue(self):
        font = self.font(letter_extensions={SEEN: 100})
        words = make_words(font, "س ا")  # 560 + 10 + 40 = 610
        line = justify_line(
            [w.variants[0] for w in words], 640, GLUE, font, JustifyParams()
        )
        assert dict(line.plans[0]) == {0: 30}
        assert line.glue_widths == (10,)
        assert line.width == 640

    def test_glue_takes_remainder_after_kashida(self):
        font = self.font(letter_extensions={SEEN: 100})
        glue = GlueSpec(10, 60, 3)
        words = make_words(font, "س ا")
        line = justify_line(
            [w.variants[0] for w in words], 610 + 150, glue, font, JustifyParams()
        )
        assert dict(line.plans[0]) == {0: 100}
        assert line.glue_widths == (10 + 50,)
        assert line.width == 760

    def test_surplus_comes_from_shrink(self):
        font = self.font()
        words = make_words(font, "ا د")  # natural 80
        line = justify_line(
            [w.variants[0] for w in words], 78, GLUE, font, JustifyParams()
        )
        assert line.glue_widths == (8,)
        assert line.width == 78
        assert line.ratio < 0

    def test_infeasible_raises(self):
        font = self.font()
        words = make_words(font, "ا د")
        with pytest.raises(Infeasible):
            justify_line([w.variants[0] for w in words], 70, GLUE, font, JustifyParams())

    def test_kashida_off_policy(self):
        font = self.font(letter_extensions={SEEN: 100})
        words = make_words(font, "س ا")
        params = JustifyParams(kashida_policy="off")
        line = justify_line([w.variants[0] for w in words], 640, GLUE, font, params)
        assert all(p == () for p in line.plans)
        assert line.glue_widths == (40,)


class TestBreakGreedy:
    def font(self):
        return synth_font(letter_widths={ALEF: 40, DAL: 30, BEH: 50})

    def test_fills_until_overflow(self):
        font = self.font()
        words = make_words(font, "ا د ب")  # 40, 30, 50
        layout = break_greedy(words, 80, GLUE, font)
        ranges = [line.candidate.word_range for line in layout.lines]
        assert ranges == [(0, 2), (2, 3)]
        assert layout.lines[0].width == 80

    def test_single_word_single_line(self):
        font = self.font()
        words = make_words(font, "ا")
        layout = break_greedy(words, 80, GLUE, font)
        assert len(layout.lines) == 1
        assert layout.lines[0].width == 40

    def test_word_too_wide(self):
        font = self.font()
        words = make_words(font, "ا د")
        with pytest.raises(WordTooWide):
            break_greedy(words, 20, GLUE, font)

    def test_empty_paragraph(self):
        font = self.font()
        layout = break_greedy([], 80, GLUE, font)
        assert layout.lines == () and layout.total_demerits == 0


class TestBreakOptimum:
    def oracle_font(self):
        return synth_font(
            letter_widths={BEH: 30, ALEF: 20, SEEN: 40, DAL: 50},
            letter_extensions={BEH: 10, SEEN: 20},
        )

    def test_matches_exhaustive_oracle_on_reference_case(self):
        font = self.oracle_font()
        words = make_words(font, "ب ا س د")
        params = JustifyParams(variants=True)
        layout = break_optimum(words, 70, GLUE, font, params)
        best = oracle_best(words, 70, GLUE, font, params)
        assert best is not None
        total, line_count, breaks, variant_ids = best
        assert layout.total_demerits == total
        assert len(layout.lines) == line_count
        got_breaks = tuple(line.candidate.word_range[1] for line in layout.lines)
        assert got_breaks == breaks
        got_ids = tuple(
            vid for line in layout.lines for vid in line.candidate.variant_ids
        )
        assert got_ids == variant_ids

    def test_matches_oracle_randomized(self, demo_font):
        rng = random.Random(2024)
        glue = GlueSpec.from_defaults(demo_font.glue)
        params = JustifyParams(variants=True)
        for _ in range(20):
            n = rng.randint(2, 7)
            text = " ".join(random_word_text(rng, 3) for _ in range(n))
            words = [
                shape_word(c, demo_font, frozenset({"liga", "jalt"}))
                for c in decompose(text)
            ]
            measure = rng.randint(
                max(w.variants[0].width for w in words) + 100, 4000
            )
            layout = break_optimum(words, measure, glue, demo_font, params)
            best = oracle_best(words, measure, glue, demo_font, params)
            assert best is not None
            assert layout.total_demerits == best[0], (text, measure)

    @pytest.mark.parametrize("line_penalty", [10, 10**8])
    @pytest.mark.parametrize("policy", ["single_site", "spread", "off"])
    @pytest.mark.parametrize("overlap_penalty", [0, 1, 50, 3000, INF])
    def test_matches_oracle_across_parameters(
        self, demo_font, overlap_penalty, policy, line_penalty
    ):
        # 10**8 pushes every line's demerits to the INF cap, so all break
        # sequences with the same line count tie on total.
        rng = random.Random(7)
        glue = GlueSpec.from_defaults(demo_font.glue)
        params = JustifyParams(
            line_penalty=line_penalty,
            overlap_penalty=overlap_penalty,
            variants=True,
            kashida_policy=policy,
        )
        for _ in range(25):
            n = rng.randint(2, 10)
            text = " ".join(random_word_text(rng, 3) for _ in range(n))
            words = [
                shape_word(c, demo_font, frozenset({"liga", "jalt"}))
                for c in decompose(text)
            ]
            measure = rng.randint(max(w.variants[0].width for w in words) + 100, 3000)
            layout = break_optimum(words, measure, glue, demo_font, params)
            got = (
                layout.total_demerits,
                len(layout.lines),
                tuple(line.candidate.word_range[1] for line in layout.lines),
                tuple(v for line in layout.lines for v in line.candidate.variant_ids),
            )
            assert got == oracle_best(words, measure, glue, demo_font, params), (
                text,
                measure,
            )

    @pytest.mark.parametrize(
        "text, measure",
        [
            ("رٍؤِ ةً إْحٌقً ء إُئٌّوّْضٌ إًّ شُطتُّوِ ضٍثٍشْث جًكِ دَذٍ", 1871),
            ("هٍّـخ طاٍّي ر آٍؤِ ىَّلٌصٍّكِـ ظْ كفْخ إأ فَظآَّضِ ئْوَسًط", 1959),
        ],
    )
    def test_keeps_dearer_state_that_avoids_stacking(self, demo_font, text, measure):
        # In both paragraphs the optimum passes through a state that costs
        # more than the cheapest one at its break but whose elongations
        # collide less with the next line's. Pruning that ignored the
        # overlap charge would drop it.
        glue = GlueSpec.from_defaults(demo_font.glue)
        params = JustifyParams(variants=True, kashida_policy="spread")
        words = [
            shape_word(c, demo_font, frozenset({"liga", "jalt"}))
            for c in decompose(text)
        ]
        layout = break_optimum(words, measure, glue, demo_font, params)
        best = oracle_best(words, measure, glue, demo_font, params)
        assert layout.total_demerits == best[0]
        assert tuple(line.candidate.word_range[1] for line in layout.lines) == best[2]

    def test_stretch_sites_enumerated_once_per_word(self, demo_font, monkeypatch):
        from qalam import kashida

        rng = random.Random(3)
        glue = GlueSpec.from_defaults(demo_font.glue)
        text = " ".join(random_word_text(rng, 4) for _ in range(16))
        words = [
            shape_word(c, demo_font, frozenset({"liga", "jalt"}))
            for c in decompose(text)
        ]
        calls = []
        real = kashida.enumerate_sites
        monkeypatch.setattr(
            kashida, "enumerate_sites", lambda *a: calls.append(1) or real(*a)
        )
        layout = break_optimum(
            words, 2500, glue, demo_font, JustifyParams(variants=True)
        )
        assert len(layout.lines) > 1
        # Only apply_plan, once per finished word, still enumerates sites.
        assert 0 < len(calls) <= len(words)

    def test_dominates_greedy(self, demo_font):
        rng = random.Random(31)
        glue = GlueSpec.from_defaults(demo_font.glue)
        for _ in range(15):
            n = rng.randint(2, 8)
            text = " ".join(random_word_text(rng, 3) for _ in range(n))
            words = [shape_word(c, demo_font, frozenset()) for c in decompose(text)]
            measure = rng.randint(max(w.natural_width for w in words) + 200, 5000)
            params = JustifyParams()
            optimum = break_optimum(words, measure, glue, demo_font, params)
            greedy = break_greedy(words, measure, glue, demo_font, params)
            assert optimum.total_demerits <= greedy.total_demerits

    def test_empty_paragraph(self):
        layout = break_optimum([], 80, GLUE, self.oracle_font())
        assert layout.lines == ()

    def test_more_variants_never_hurt(self, demo_font):
        glue = GlueSpec.from_defaults(demo_font.glue)
        text = "ك سلام ك"
        words = [
            shape_word(c, demo_font, frozenset({"jalt", "liga"}))
            for c in decompose(text)
        ]
        on = break_optimum(words, 1500, glue, demo_font, JustifyParams(variants=True))
        off = break_optimum(words, 1500, glue, demo_font, JustifyParams(variants=False))
        assert on.total_demerits <= off.total_demerits

    def test_width_exactness(self, demo_font, corpus_lines):
        glue = GlueSpec.from_defaults(demo_font.glue)
        words = [
            shape_word(c, demo_font, frozenset()) for c in decompose(corpus_lines[0])
        ]
        for measure in (2500, 3200, 4100):
            layout = break_optimum(words, measure, glue, demo_font, JustifyParams())
            underfull = {
                d.location for d in layout.diagnostics if d.code == "underfull-line"
            }
            for line in layout.lines[:-1]:
                if line.candidate.fills_measure:
                    assert abs(line.width - measure) <= 1
                else:
                    assert line.candidate.word_range in underfull

    def test_no_word_ever_split(self, demo_font, corpus_lines):
        glue = GlueSpec.from_defaults(demo_font.glue)
        words = [
            shape_word(c, demo_font, frozenset()) for c in decompose(corpus_lines[3])
        ]
        for breaker in (break_greedy, break_optimum):
            layout = breaker(words, 2800, glue, demo_font, JustifyParams())
            edges = [line.candidate.word_range for line in layout.lines]
            assert edges[0][0] == 0
            assert edges[-1][1] == len(words)
            for (a, b), (c, d) in zip(edges, edges[1:]):
                assert b == c and a < b

    def test_inf_overlap_penalty_avoids_stacking(self, demo_font):
        rng = random.Random(55)
        glue = GlueSpec.from_defaults(demo_font.glue)
        params = JustifyParams(overlap_penalty=INF, variants=True)
        for _ in range(10):
            n = rng.randint(3, 7)
            text = " ".join(random_word_text(rng, 3) for _ in range(n))
            words = [
                shape_word(c, demo_font, frozenset({"liga", "jalt"}))
                for c in decompose(text)
            ]
            measure = rng.randint(max(w.variants[0].width for w in words) + 100, 2500)
            layout = break_optimum(words, measure, glue, demo_font, params)
            has_overlap = any(
                d.code == "stacked-elongation" for d in layout.diagnostics
            )
            if layout.total_demerits < INF:
                assert not has_overlap
            else:
                assert has_overlap

    def test_final_line_not_stretched(self, demo_font):
        glue = GlueSpec.from_defaults(demo_font.glue)
        words = [
            shape_word(c, demo_font, frozenset())
            for c in decompose("سلام سلام")
        ]
        layout = break_optimum(words, 5000, glue, demo_font, JustifyParams())
        assert len(layout.lines) == 1
        last = layout.lines[-1]
        assert last.width <= 5000
        assert last.candidate.badness == 0


class TestLineCandidateDetails:
    def test_signature_buckets(self):
        font = synth_font(
            letter_widths={SEEN: 560, ALEF: 40}, letter_extensions={SEEN: 300}
        )
        words = make_words(font, "س ا")
        params = JustifyParams()
        line = line_candidate(
            [w.variants[0] for w in words], (0, 2), 800, GLUE, font, params, False
        )
        # Deficit 800-610=190 goes to the seen's tail at ink end 560.
        assert line.kashida_intervals == ((560, 750),)
        bucket = 800 // 8
        assert line.signature == frozenset(
            range(560 // bucket, (750 - 1) // bucket + 1)
        )

    def test_underfull_single_word_line(self):
        font = synth_font(letter_widths={ALEF: 40})
        words = make_words(font, "ا ا")
        params = JustifyParams()
        line = line_candidate(
            [words[0].variants[0]], (0, 1), 500, GLUE, font, params, False
        )
        assert line.badness == 10000  # cannot stretch at all, stays feasible
        assert line.width == 40
