from __future__ import annotations

import gc
import itertools
import json
import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from qalam.errors import WordTooWide
from qalam.fontmodel import load_font
from qalam.justify import (
    INF,
    MAX_BADNESS,
    MAX_LINE_PENALTY,
    MIN_LINE_PENALTY,
    JustifyParams,
    _Fit,
    badness,
    break_greedy,
    break_optimum,
    demerits,
    line_candidate,
)
from qalam.shaper import shape_word, shape_words, word_variants
from qalam.textmodel import decompose

from .break_oracle import oracle_best, reference_best
from .conftest import DEMO_FONT_PATH
from .util import ALEF, BEH, DAL, SEEN, random_word_text, synth_font

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402


def make_words(font, letters: str):
    return [shape_word(c, font, frozenset()) for c in decompose(letters)]


def outcome(layout):
    """(total, line count, breaks, variant ids), as the references report it."""
    return (
        layout.total_demerits,
        len(layout.lines),
        tuple(line.candidate.word_range[1] for line in layout.lines),
        tuple(v for line in layout.lines for v in line.candidate.variant_ids),
    )


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

    def test_negative_gap_epsilon_rejected(self):
        for bad in (-1, -50):
            with pytest.raises(ValueError):
                JustifyParams(gap_epsilon=bad)
        assert JustifyParams(gap_epsilon=0).gap_epsilon == 0

    def test_saturating_line_penalty_rejected(self):
        for bad in (40_000_000, MAX_LINE_PENALTY + 1, MIN_LINE_PENALTY - 1):
            with pytest.raises(ValueError):
                JustifyParams(line_penalty=bad)
        for edge in (MIN_LINE_PENALTY, MAX_LINE_PENALTY):
            params = JustifyParams(line_penalty=edge)
            for b in (0, MAX_BADNESS):
                assert demerits(fake_line(b), params) < INF

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

    def fit(self, words, measure, font, params=JustifyParams()):
        """The words set as one non-final line at their default variants."""
        fits = [_Fit(word_variants(w, font)[0], params.kashida_policy) for w in words]
        return line_candidate(fits, (0, len(words)), measure, font, False)

    def test_zero_deficit_identity(self):
        font = self.font()
        words = make_words(font, "ا د")  # 40 + 10 + 30 = 80
        line = self.fit(words, 80, font)
        assert line.width == 80
        assert line.glue_widths == (10,)
        assert all(p == () for p in line.plans)
        assert line.badness == 0

    def test_kashida_before_glue(self):
        font = self.font(letter_extensions={SEEN: 100})
        words = make_words(font, "س ا")  # 560 + 10 + 40 = 610
        line = self.fit(words, 640, font)
        assert dict(line.plans[0]) == {0: 30}
        assert line.glue_widths == (10,)
        assert line.width == 640

    def test_glue_takes_remainder_after_kashida(self):
        font = self.font(letter_extensions={SEEN: 100}, glue=(10, 60, 3))
        words = make_words(font, "س ا")
        line = self.fit(words, 610 + 150, font)
        assert dict(line.plans[0]) == {0: 100}
        assert line.glue_widths == (10 + 50,)
        assert line.width == 760

    def test_surplus_comes_from_shrink(self):
        font = self.font()
        words = make_words(font, "ا د")  # natural 80
        line = self.fit(words, 78, font)
        assert line.glue_widths == (8,)
        assert line.width == 78
        assert line.ratio < 0

    def test_infeasible_line_costs_inf(self):
        font = self.font()
        words = make_words(font, "ا د")
        assert self.fit(words, 70, font).badness >= INF

    def test_kashida_off_policy(self):
        font = self.font(letter_extensions={SEEN: 100})
        words = make_words(font, "س ا")
        params = JustifyParams(kashida_policy="off")
        line = self.fit(words, 640, font, params)
        assert all(p == () for p in line.plans)
        assert line.glue_widths == (40,)


class TestBreakGreedy:
    def font(self):
        return synth_font(letter_widths={ALEF: 40, DAL: 30, BEH: 50})

    def test_fills_until_overflow(self):
        font = self.font()
        words = make_words(font, "ا د ب")  # 40, 30, 50
        layout = break_greedy(words, 80, font)
        ranges = [line.candidate.word_range for line in layout.lines]
        assert ranges == [(0, 2), (2, 3)]
        assert layout.lines[0].candidate.width == 80

    def test_single_word_single_line(self):
        font = self.font()
        words = make_words(font, "ا")
        layout = break_greedy(words, 80, font)
        assert len(layout.lines) == 1
        assert layout.lines[0].candidate.width == 40

    def test_word_too_wide(self):
        font = self.font()
        words = make_words(font, "ا د")
        with pytest.raises(WordTooWide):
            break_greedy(words, 20, font)

    def test_empty_paragraph(self):
        font = self.font()
        layout = break_greedy([], 80, font)
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
        layout = break_optimum(words, 70, font, params)
        best = oracle_best(words, 70, font, params)
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
        params = JustifyParams(variants=True)
        for _ in range(20):
            n = rng.randint(2, 7)
            text = " ".join(random_word_text(rng, 3) for _ in range(n))
            words = [
                shape_word(c, demo_font, frozenset({"liga", "jalt"}))
                for c in decompose(text)
            ]
            measure = rng.randint(
                max(word_variants(w, demo_font)[0].width for w in words) + 100, 4000
            )
            layout = break_optimum(words, measure, demo_font, params)
            best = oracle_best(words, measure, demo_font, params)
            assert best is not None
            assert layout.total_demerits == best[0], (text, measure)

    @pytest.mark.parametrize("line_penalty", [MIN_LINE_PENALTY, -50, 10, MAX_LINE_PENALTY])
    @pytest.mark.parametrize("policy", ["single_site", "spread", "off"])
    @pytest.mark.parametrize("overlap_penalty", [0, 1, 50, 3000, INF])
    def test_matches_oracle_across_parameters(
        self, demo_font, overlap_penalty, policy, line_penalty
    ):
        # The largest accepted line penalty puts every line's demerits just
        # under INF, so any overlap charge reaches the cap and break
        # sequences differ by little more than their badness. A negative
        # one lets a line of some badness cost no demerits at all, and the
        # smallest accepted one puts the cheapest lines at the loosest.
        rng = random.Random(7)
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
            measure = rng.randint(
                max(word_variants(w, demo_font)[0].width for w in words) + 100, 3000
            )
            layout = break_optimum(words, measure, demo_font, params)
            best = oracle_best(words, measure, demo_font, params)
            assert outcome(layout) == best, (text, measure)
            assert reference_best(words, measure, demo_font, params) == best

    @pytest.mark.parametrize(
        "stream, measure, words",
        [
            (gen.fresh_paragraphs, 4000, 240),
            (gen.zipf_paragraphs, 4000, 240),
            (gen.fresh_paragraphs, 16000, 120),
            (gen.zipf_paragraphs, 16000, 60),
        ],
    )
    def test_matches_reference_on_long_paragraphs(self, demo_font, stream, measure, words):
        # The exhaustive oracle stops at about 10 words; the unpruned
        # reference DP checks the pruned search, its tie walk and its
        # variant ids on chains of dozens of lines. Each paragraph runs
        # every elongation policy, each with its own overlap penalty.
        text = next(stream(1, words=words))
        shaped = [
            shape_word(c, demo_font, frozenset({"liga", "jalt"})) for c in decompose(text)
        ]
        for policy, overlap_penalty in (("single_site", 0), ("spread", 3000), ("off", INF)):
            params = JustifyParams(
                overlap_penalty=overlap_penalty, variants=True, kashida_policy=policy
            )
            layout = break_optimum(shaped, measure, demo_font, params)
            assert outcome(layout) == reference_best(shaped, measure, demo_font, params), policy

    @pytest.mark.parametrize("policy", ["single_site", "spread"])
    def test_elongations_left_of_the_line_start(self, policy):
        # A positioning rule that moves beh.init 5000 units left puts the
        # stretch site of each word "بد" left of the word's start, so its
        # elongations start in signature buckets below 0. Signatures keep
        # those buckets, and the search ranks lines as the reference does.
        doc = json.loads(DEMO_FONT_PATH.read_text(encoding="utf-8"))
        doc["gpos"].append(
            {"kind": "single_adj", "feature": "kern", "adjustments": {"beh.init": [-5000, 0, 0]}}
        )
        font = load_font(json.dumps(doc))
        words = [shape_word(c, font, frozenset({"kern"})) for c in decompose(" ".join(["بد"] * 9))]
        measure = 1000
        bucket = measure // 8
        params = JustifyParams(variants=True, kashida_policy=policy)
        optimum = break_optimum(words, measure, font, params)
        for layout in (break_greedy(words, measure, font, params), optimum):
            for line in layout.lines:
                candidate = line.candidate
                assert candidate.signature == frozenset(
                    k
                    for a, b in candidate.kashida_intervals
                    for k in range(a // bucket, (b - 1) // bucket + 1)
                )
        assert min(k for line in optimum.lines for k in line.candidate.signature) < 0
        assert outcome(optimum) == reference_best(words, measure, font, params)

    def test_scores_only_the_starts_theta_admits(self, demo_font, monkeypatch):
        # A count, not a timing, so it repeats exactly. The search visits
        # line starts in ascending floor and scores a start's variant
        # choices only while its lower bound can still beat theta; scoring
        # every choice of every start that shrink-fits calls badness 317
        # times on this paragraph.
        from qalam import justify

        text = next(gen.zipf_paragraphs(1, words=24))
        words = [
            shape_word(c, demo_font, frozenset({"liga", "jalt"})) for c in decompose(text)
        ]
        calls = []
        real_badness = justify.badness
        monkeypatch.setattr(
            justify, "badness", lambda ratio: calls.append(ratio) or real_badness(ratio)
        )
        layout = break_optimum(words, 16000, demo_font, JustifyParams(variants=True))
        assert len(layout.lines) == 2
        assert len(calls) == 144

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
        params = JustifyParams(variants=True, kashida_policy="spread")
        words = [
            shape_word(c, demo_font, frozenset({"liga", "jalt"}))
            for c in decompose(text)
        ]
        layout = break_optimum(words, measure, demo_font, params)
        best = oracle_best(words, measure, demo_font, params)
        assert layout.total_demerits == best[0]
        assert tuple(line.candidate.word_range[1] for line in layout.lines) == best[2]

    def test_stretch_sites_enumerated_once_per_word(self, demo_font, monkeypatch):
        from qalam import justify, kashida

        rng = random.Random(3)
        text = " ".join(random_word_text(rng, 4) for _ in range(16))
        words = [
            shape_word(c, demo_font, frozenset({"liga", "jalt"}))
            for c in decompose(text)
        ]
        calls = []
        real_sites = kashida.enumerate_sites
        monkeypatch.setattr(
            kashida, "enumerate_sites", lambda *a: calls.append(1) or real_sites(*a)
        )
        built = []
        real_variants = justify.word_variants

        def counted_variants(word, font):
            variants = real_variants(word, font)
            built.append(len(variants))
            return variants

        monkeypatch.setattr(justify, "word_variants", counted_variants)
        layout = break_optimum(words, 2500, demo_font, JustifyParams(variants=True))
        assert len(layout.lines) > 1
        # Each word's variants are built once, each variant's sites are
        # enumerated once while building it, and nothing after that
        # enumerates them again.
        assert len(built) == len(words)
        assert len(calls) == sum(built)

    def test_builds_only_returned_lines(self, demo_font, corpus_lines, monkeypatch):
        from qalam import justify

        words = [
            shape_word(c, demo_font, frozenset({"liga", "jalt"}))
            for c in decompose(" ".join(corpus_lines))
        ]
        built = []
        real_candidate = justify.line_candidate

        def counted_candidate(fits, word_range, *rest):
            built.append(word_range)
            return real_candidate(fits, word_range, *rest)

        monkeypatch.setattr(justify, "line_candidate", counted_candidate)
        layout = break_optimum(words, 4000, demo_font, JustifyParams(variants=True))
        assert len(layout.lines) > 1
        assert sorted(built) == [line.candidate.word_range for line in layout.lines]

    @pytest.mark.parametrize("breaker, variants", [(break_optimum, True), (break_greedy, False)])
    def test_one_fit_per_distinct_variant(self, demo_font, monkeypatch, breaker, variants):
        from qalam import kashida

        text = next(gen.zipf_paragraphs(1, words=60))
        words = shape_words(decompose(text), demo_font, frozenset({"liga", "jalt"}))
        distinct = list({id(w): w for w in words}.values())
        assert len(distinct) < len(words)
        if variants:
            expected = sum(len(word_variants(w, demo_font)) for w in distinct)
        else:
            expected = len(distinct)
        calls = []
        real_capacity = kashida.word_capacity
        monkeypatch.setattr(
            kashida, "word_capacity", lambda *a: calls.append(1) or real_capacity(*a)
        )
        layout = breaker(words, 4000, demo_font, JustifyParams(variants=variants))
        assert len(layout.lines) > 1
        # Repeats of a word share its variants' numbers, and the lines the
        # breaker returns read them rather than working them out again.
        assert len(calls) == expected

    @pytest.mark.parametrize("policy", ["single_site", "spread", "off"])
    @pytest.mark.parametrize("overlap_penalty", [0, 3000, INF])
    def test_total_matches_returned_lines_on_long_paragraphs(
        self, demo_font, policy, overlap_penalty
    ):
        # The search scores lines from badness and signature alone; the
        # returned lines are built in full afterwards. Their demerits must
        # add up to the total the search found, on paragraphs longer than
        # the oracle can check.
        params = JustifyParams(
            overlap_penalty=overlap_penalty, variants=True, kashida_policy=policy
        )
        rng = random.Random(17)
        for stream in (gen.fresh_paragraphs, gen.zipf_paragraphs):
            text = next(stream(rng.randint(1, 1000), words=rng.randint(30, 60)))
            words = [
                shape_word(c, demo_font, frozenset({"liga", "jalt"}))
                for c in decompose(text)
            ]
            for measure in (4000, 9000, 16000):
                layout = break_optimum(words, measure, demo_font, params)
                total = 0
                prev_signature: frozenset[int] = frozenset()
                for line in layout.lines:
                    total += demerits(line.candidate, params, prev_signature)
                    prev_signature = line.candidate.signature
                assert layout.total_demerits == total, (text, measure)

    def test_dominates_greedy(self, demo_font):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(2, 8)
            text = " ".join(random_word_text(rng, 3) for _ in range(n))
            words = [shape_word(c, demo_font, frozenset()) for c in decompose(text)]
            measure = rng.randint(max(w.natural_width for w in words) + 200, 5000)
            params = JustifyParams()
            optimum = break_optimum(words, measure, demo_font, params)
            greedy = break_greedy(words, measure, demo_font, params)
            assert optimum.total_demerits <= greedy.total_demerits

    def test_empty_paragraph(self):
        layout = break_optimum([], 80, self.oracle_font())
        assert layout.lines == ()

    def test_more_variants_never_hurt(self, demo_font):
        text = "ك سلام ك"
        words = [
            shape_word(c, demo_font, frozenset({"jalt", "liga"}))
            for c in decompose(text)
        ]
        on = break_optimum(words, 1500, demo_font, JustifyParams(variants=True))
        off = break_optimum(words, 1500, demo_font, JustifyParams(variants=False))
        assert on.total_demerits <= off.total_demerits

    def test_width_exactness(self, demo_font, corpus_lines):
        words = [
            shape_word(c, demo_font, frozenset()) for c in decompose(corpus_lines[0])
        ]
        for measure in (2500, 3200, 4100):
            layout = break_optimum(words, measure, demo_font, JustifyParams())
            underfull = {
                d.location for d in layout.diagnostics if d.code == "underfull-line"
            }
            for line in layout.lines[:-1]:
                if line.candidate.fills_measure:
                    assert abs(line.candidate.width - measure) <= 1
                else:
                    assert line.candidate.word_range in underfull

    def test_no_word_ever_split(self, demo_font, corpus_lines):
        words = [
            shape_word(c, demo_font, frozenset()) for c in decompose(corpus_lines[3])
        ]
        for breaker in (break_greedy, break_optimum):
            layout = breaker(words, 2800, demo_font, JustifyParams())
            edges = [line.candidate.word_range for line in layout.lines]
            assert edges[0][0] == 0
            assert edges[-1][1] == len(words)
            for (a, b), (c, d) in zip(edges, edges[1:]):
                assert b == c and a < b

    def test_inf_overlap_penalty_avoids_stacking(self, demo_font):
        rng = random.Random(55)
        params = JustifyParams(overlap_penalty=INF, variants=True)
        for _ in range(10):
            n = rng.randint(3, 7)
            text = " ".join(random_word_text(rng, 3) for _ in range(n))
            words = [
                shape_word(c, demo_font, frozenset({"liga", "jalt"}))
                for c in decompose(text)
            ]
            measure = rng.randint(
                max(word_variants(w, demo_font)[0].width for w in words) + 100, 2500
            )
            layout = break_optimum(words, measure, demo_font, params)
            has_overlap = any(
                d.code == "stacked-elongation" for d in layout.diagnostics
            )
            if layout.total_demerits < INF:
                assert not has_overlap
            else:
                assert has_overlap

    def test_final_line_not_stretched(self, demo_font):
        words = [
            shape_word(c, demo_font, frozenset())
            for c in decompose("سلام سلام")
        ]
        layout = break_optimum(words, 5000, demo_font, JustifyParams())
        assert len(layout.lines) == 1
        last = layout.lines[-1]
        assert last.candidate.width <= 5000
        assert last.candidate.badness == 0

    def test_peak_memory_grows_linearly(self, demo_font):
        # A state links to the state its line follows rather than copying
        # the breaks and variant ids before it, so twice the words take
        # about twice the memory, not three times.
        text = " ".join(itertools.islice(gen.fresh_words(1), 480))
        words = [
            shape_word(c, demo_font, frozenset({"liga", "jalt"})) for c in decompose(text)
        ]
        params = JustifyParams(variants=True)
        # Warm whatever the words and font work out on first use, so that
        # both traced runs count the breaker's own allocations only.
        break_optimum(words, 16000, demo_font, params)
        peaks = []
        for n in (240, 480):
            # Objects left by earlier tests must not be collected inside a
            # traced window, where the collection's own allocations count.
            gc.collect()
            tracemalloc.start()
            try:
                break_optimum(words[:n], 16000, demo_font, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.4 * peaks[0], peaks


class TestLineCandidateDetails:
    def test_signature_buckets(self):
        font = synth_font(
            letter_widths={SEEN: 560, ALEF: 40}, letter_extensions={SEEN: 300}
        )
        words = make_words(font, "س ا")
        params = JustifyParams()
        line = line_candidate(
            [_Fit(word_variants(w, font)[0], params.kashida_policy) for w in words],
            (0, 2), 800, font, False,
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
            [_Fit(word_variants(words[0], font)[0], params.kashida_policy)],
            (0, 1), 500, font, False,
        )
        assert line.badness == 10000  # cannot stretch at all, stays feasible
        assert line.width == 40
