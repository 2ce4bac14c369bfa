"""Acceptance suite: one test per shipping criterion, at full scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Scales (sample counts, tolerances) are fixed here and
not meant to be loosened.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import time

import pytest

from qalam import kashida
from qalam.cli import main
from qalam.diacritics import mark_word, place_diacritics, with_marks
from qalam.fontmodel import (
    AnchorPoint,
    SizeVariant,
    VARIANT_ORDER,
    lint_font,
    load_font,
)
from qalam.justify import (
    INF,
    JustifyParams,
    break_greedy,
    break_optimum,
)
from qalam.shaper import shape_word, word_variants
from qalam.textmodel import DEFAULT_TABLE, Placement, decompose

from .break_oracle import oracle_best
from .conftest import CORPUS_PATH, DEMO_FONT_PATH
from .joining_oracle import reference_forms
from .util import BEH, DAMMA, cluster, mark_facts, random_word_text, synth_font

FONT = str(DEMO_FONT_PATH)
ALL_FEATURES = frozenset({"liga", "jalt"})


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def random_paragraph(rng, font, max_words=12, max_len=4, features=ALL_FEATURES):
    n = rng.randint(2, max_words)
    text = " ".join(random_word_text(rng, max_len) for _ in range(n))
    words = [shape_word(c, font, features) for c in decompose(text)]
    floor = max(min(v.width for v in word_variants(w, font)) for w in words)
    measure = rng.randint(floor + 100, max(floor + 200, 6000))
    return words, measure


@pytest.fixture(scope="module")
def oracle_corpus(demo_font):
    """200 seeded random paragraphs with their DP and oracle results."""
    rng = random.Random(20_26)
    params = JustifyParams(variants=True)
    rows = []
    started = time.perf_counter()
    for _ in range(200):
        words, measure = random_paragraph(rng, demo_font)
        layout = break_optimum(words, measure, demo_font, params)
        best = oracle_best(words, measure, demo_font, params)
        rows.append((words, measure, layout, best))
    elapsed = time.perf_counter() - started
    return rows, elapsed


def test_criterion_1_joining_oracle():
    with criterion(1, "joining matches the reference data, 0 mismatches"):
        pool = sorted(DEFAULT_TABLE.letters)
        mismatches = 0
        checked = 0
        for length in (1, 2, 3):
            for combo in itertools.product(pool, repeat=length):
                letters = [DEFAULT_TABLE.letters[cp] for cp in combo]
                from qalam.textmodel import analyze_joining

                got = [f.value for f in analyze_joining(letters)]
                mismatches += got != reference_forms(list(combo))
                checked += 1
        rng = random.Random(611)
        for _ in range(100_000):
            cps = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            letters = [DEFAULT_TABLE.letters[cp] for cp in cps]
            from qalam.textmodel import analyze_joining

            got = [f.value for f in analyze_joining(letters)]
            mismatches += got != reference_forms(cps)
            checked += 1
        assert checked > 140_000
        assert mismatches == 0


def test_criterion_2_lam_alef_mandatory(demo_font):
    with criterion(2, "LamAlef always ligates regardless of features, 0 violations"):
        rng = random.Random(43)
        optional = ["liga", "jalt", "ss01"]
        violations = 0
        checked = 0
        for _ in range(1000):
            text = random_word_text(rng, 4, marked=rng.random() < 0.7)
            insert_at = rng.randint(0, len(text))
            text = text[:insert_at] + "لا" + text[insert_at:]
            features = frozenset(
                f for f in optional if rng.random() < 0.5
            )
            try:
                words = decompose(text)
            except Exception:
                continue  # the splice may produce a duplicate-mark cluster
            for clusters in words:
                cps = [c.base.code_point for c in clusters]
                has_pair = any(
                    a == 0x0644 and b == 0x0627 for a, b in zip(cps, cps[1:])
                )
                if not has_pair:
                    continue
                checked += 1
                shaped = shape_word(clusters, demo_font, features)
                if not any(g.glyph.startswith("lam_alef") for g in shaped.glyphs):
                    violations += 1
        assert checked >= 900
        assert violations == 0


def test_criterion_3_attachment_arithmetic():
    with criterion(3, "attachment arithmetic exact and translation-equivariant"):
        # A non-growable mark on a word's last base keeps its default
        # position: the base anchor minus the mark anchor, plus the mass
        # offset in y. Moving the base moves the mark by the same amount.
        rng = random.Random(93)
        for _ in range(1000):
            bx, by = rng.randint(-2000, 2000), rng.randint(-2000, 2000)
            mx, my = rng.randint(-2000, 2000), rng.randint(-2000, 2000)
            dx, dy = rng.randint(-2000, 2000), rng.randint(-2000, 2000)
            mass = rng.randint(-200, 200)
            font = synth_font(
                letter_widths={BEH: 500},
                anchor_above=(bx, by),
                mass_positions={"medium": {"above": mass}},
                mark_overrides={"damma": {"anchor": [mx, my]}},
            )
            word = shape_word([cluster(BEH, DAMMA)], font)
            base, mark = word.glyphs
            assert (mark.x_offset, mark.y_offset) == (0, 0)
            offset = font.mass_offset(font.glyphs[base.glyph].mass_class, Placement.ABOVE)
            assert offset == mass
            placed = mark_word(word, font, 10)[0].glyphs[1]
            assert (placed.x_offset, placed.y_offset) == (bx - mx, by + offset - my)
            moved = word._replace(glyphs=(base._replace(x_offset=dx, y_offset=dy), mark))
            shifted = mark_word(moved, font, 10)[0].glyphs[1]
            assert shifted.x_offset == placed.x_offset + dx
            assert shifted.y_offset == placed.y_offset + dy


def test_criterion_4_placement_algorithm(demo_font):
    with criterion(
        4, "placement idempotent, elongation-monotone, only Fatha family resizes"
    ):
        rng = random.Random(402)
        mark_cp = {mid: cp for cp, mid in demo_font.mark_cmap.items()}
        for _ in range(1000):
            text = random_word_text(rng, 6)
            word = shape_word(decompose(text)[0], demo_font, ALL_FEATURES)
            sites = kashida.enumerate_sites(word, demo_font)

            # Variant monotonicity along increasing elongation of one site.
            if sites:
                site = rng.choice(sites)
                ranks_by_mark: dict[int, list[int]] = {}
                for amount in (0, site.capacity // 2, site.capacity):
                    plan = kashida.ElongationPlan(
                        {site.glyph_index: amount} if amount else {}, 0
                    )
                    stretched = kashida.apply_plan(word, plan, sites)
                    marks, _ = place_diacritics(stretched, demo_font)
                    for m in marks:
                        ranks_by_mark.setdefault(m.index, []).append(
                            VARIANT_ORDER.index(m.variant)
                        )
                for ranks in ranks_by_mark.values():
                    assert ranks == sorted(ranks)
                amount = rng.randint(0, site.capacity)
                plan = kashida.ElongationPlan(
                    {site.glyph_index: amount} if amount else {}, 0
                )
                word = kashida.apply_plan(word, plan, sites)

            marks, _ = place_diacritics(word, demo_font)
            replay, _ = place_diacritics(with_marks(word, marks), demo_font)
            assert mark_facts(replay) == mark_facts(marks)  # idempotence

            for m in marks:  # variant legality
                if m.variant is not SizeVariant.NORMAL:
                    assert mark_cp[m.mark] in (0x064B, 0x064E)


def test_criterion_5_dp_optimality(demo_font, oracle_corpus):
    rows, elapsed = oracle_corpus
    with criterion(5, f"DP equals exhaustive oracle on 200 paragraphs ({elapsed:.1f}s)"):
        for words, measure, layout, best in rows:
            assert best is not None
            assert layout.total_demerits == best[0]
            assert len(layout.lines) == best[1]
            assert tuple(l.candidate.word_range[1] for l in layout.lines) == best[2]
        assert elapsed < 10.0


def test_criterion_6_dominance_and_width(demo_font):
    with criterion(6, "optimum <= greedy on 1000 paragraphs; lines hit the measure"):
        rng = random.Random(6006)
        params = JustifyParams()
        for _ in range(1000):
            words, measure = random_paragraph(
                rng, demo_font, max_words=10, max_len=3, features=frozenset()
            )
            optimum = break_optimum(words, measure, demo_font, params)
            greedy = break_greedy(words, measure, demo_font, params)
            assert optimum.total_demerits <= greedy.total_demerits
            for layout in (optimum, greedy):
                for line in layout.lines[:-1]:
                    if line.candidate.fills_measure:
                        assert abs(line.candidate.width - measure) <= 1


def test_criterion_7_no_stacked_elongations(demo_font, oracle_corpus):
    rows, _ = oracle_corpus
    with criterion(
        7, "overlap_penalty=INF yields no stacked elongations when avoidable"
    ):
        params = JustifyParams(variants=True, overlap_penalty=INF)
        for words, measure, _, _ in rows:
            layout = break_optimum(words, measure, demo_font, params)
            best = oracle_best(words, measure, demo_font, params)
            assert best is not None
            assert layout.total_demerits == best[0]
            overlaps = [
                a.candidate.signature & b.candidate.signature
                for a, b in zip(layout.lines, layout.lines[1:])
            ]
            if best[0] < INF:  # an overlap-free assignment exists
                assert not any(overlaps)
                assert not any(
                    d.code == "stacked-elongation" for d in layout.diagnostics
                )
            else:
                assert any(overlaps)
                assert any(
                    d.code == "stacked-elongation" for d in layout.diagnostics
                )


def test_criterion_8_no_hyphenation(demo_font, oracle_corpus):
    rows, _ = oracle_corpus
    with criterion(8, "no word is ever split across lines, 0 violations"):
        rng = random.Random(88)
        checked = list(rows)
        for _ in range(50):
            words, measure = random_paragraph(rng, demo_font, max_words=9)
            layout = break_greedy(words, measure, demo_font, JustifyParams())
            checked.append((words, measure, layout, None))
        for words, _, layout, _ in checked:
            ranges = [line.candidate.word_range for line in layout.lines]
            assert ranges[0][0] == 0 and ranges[-1][1] == len(words)
            for (a, b), (c, d) in zip(ranges, ranges[1:]):
                assert b == c and a < b and c < d
            for line in layout.lines:
                i, j = line.candidate.word_range
                assert len(line.words) == j - i


def test_criterion_9_cli_determinism(capsys, tmp_path):
    with criterion(9, "shape, justify, render byte-identical across two runs"):
        def run(argv) -> str:
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0
            return out

        shape_args = ["shape", "--font", FONT, "--text-file", str(CORPUS_PATH)]
        justify_args = [
            "justify", "--font", FONT, "--text-file", str(CORPUS_PATH),
            "--width", "4200", "--algorithm", "optimum", "--variants", "on",
        ]
        shape_out = run(shape_args)
        justify_out = run(justify_args)
        assert run(shape_args) == shape_out
        assert run(justify_args) == justify_out

        for name, doc in (("shape.json", shape_out), ("justify.json", justify_out)):
            path = tmp_path / name
            path.write_text(doc, encoding="utf-8")
            render_args = ["render", "--font", FONT, "--input", str(path)]
            first = run(render_args)
            assert run(render_args) == first
            assert first.startswith("<svg ")


def test_criterion_10_font_lint(demo_font):
    with criterion(10, "demo font lints clean; every lint rule has a trigger"):
        assert lint_font(demo_font) == []

        def mutated(change) -> set[str]:
            doc = json.loads(DEMO_FONT_PATH.read_text(encoding="utf-8"))
            change(doc)
            return {d.code for d in lint_font(load_font(json.dumps(doc)))}

        def drop_cmap(doc):
            del doc["cmap"]["0628"]["medial"]

        def drop_anchor(doc):
            del doc["glyphs"]["beh.medi"]["anchors"]["above"]

        def drop_variant(doc):
            del doc["marks"]["fatha"]["variants"]["large"]

        def zero_capacity(doc):
            doc["glyphs"]["seen.init"]["max_extension"] = 0

        def dead_stretch(doc):
            doc["glyphs"]["alef.isol"]["max_extension"] = 150

        def anchor_gap(doc):
            del doc["ligatures"][0]["component_anchors"][0]["above"]

        def mass_drift(doc):
            doc["glyphs"]["beh.isol"]["mass_class"] = "heavy"

        triggers = {
            "missing-cmap-entry": drop_cmap,
            "missing-anchor": drop_anchor,
            "missing-variant": drop_variant,
            "zero-capacity": zero_capacity,
            "unreachable-stretch": dead_stretch,
            "ligature-anchor-gap": anchor_gap,
            "mass-class-mismatch": mass_drift,
        }
        for code, change in triggers.items():
            assert code in mutated(change), code

        # The multilevel rule needs an in-memory font: the loader already
        # rejects >2 components at parse time.
        from qalam.fontmodel import LigatureEntry, LigatureKind

        wide = LigatureEntry(
            components=("lam.init", "meem.medi", "meem.fina"),
            glyph="lam_meem.init",
            component_anchors=(
                {Placement.ABOVE: AnchorPoint(0, 0), Placement.BELOW: AnchorPoint(0, 0)},
            )
            * 3,
            kind=LigatureKind.AESTHETIC,
        )
        font = demo_font._replace(ligatures=demo_font.ligatures + (wide,))
        assert "multilevel-ligature" in {d.code for d in lint_font(font)}
        assert len(triggers) + 1 >= 6
