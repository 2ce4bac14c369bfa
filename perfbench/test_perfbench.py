"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import qalam  # noqa: E402
from qalam.fontmodel import load_font_path  # noqa: E402
from qalam.shaper import shape_word  # noqa: E402
from qalam.textmodel import DEFAULT_TABLE, CharClass, decompose  # noqa: E402

import gen  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402

STREAMS = (gen.fresh_paragraphs, gen.zipf_paragraphs)


def first(stream, seed: int, count: int = 3) -> list[str]:
    return list(itertools.islice(stream(seed), count))


@pytest.mark.parametrize("stream", STREAMS)
def test_same_seed_same_text_other_seed_other_text(stream):
    assert first(stream, 7) == first(stream, 7)
    assert first(stream, 7) != first(stream, 8)


def test_fresh_stream_never_repeats_a_word():
    words = [w for p in first(gen.fresh_paragraphs, 3, count=60) for w in p.split()]
    assert len(words) == 60 * gen.PARAGRAPH_WORDS
    assert len(set(words)) == len(words)


def test_word_mix_is_measured_on_the_sample_text():
    corpus = (harness.FONT.parent / "corpus.txt").read_text(encoding="utf-8")
    for name, value in gen.profile(corpus).items():
        assert getattr(gen, name) == value, name


def test_generated_words_have_the_sample_mix():
    rng = random.Random(5)
    mix = gen.profile(" ".join(gen.random_word(rng) for _ in range(20000)))
    assert mix["VOWEL_SHARE"] == pytest.approx(gen.VOWEL_SHARE, abs=0.01)
    assert mix["SHADDA_SHARE"] == pytest.approx(gen.SHADDA_SHARE, abs=0.005)
    assert mix["ARTICLE_SHARE"] == pytest.approx(gen.ARTICLE_SHARE, abs=0.02)
    assert mix["FEH_YEH_SHARE"] == pytest.approx(gen.FEH_YEH_SHARE, abs=0.005)


def test_repertoire_is_the_builtin_table():
    letters = {cp for cp in range(0x0600, 0x0700) if DEFAULT_TABLE.classify(cp) is CharClass.LETTER}
    marks = {cp for cp in range(0x0600, 0x0700) if DEFAULT_TABLE.classify(cp) is CharClass.DIACRITIC}
    assert {ord(c) for c in gen.LETTERS} == letters
    assert {ord(c) for c in gen.MARKS} == marks


def test_every_generated_word_decomposes_and_shapes():
    font = load_font_path(harness.FONT)
    features = frozenset({"liga", "jalt"})
    fresh = itertools.islice(gen.fresh_words(0), 2000)
    for word in itertools.chain(gen.vocabulary(), fresh):
        words = decompose(word)
        assert len(words) == 1, word
        shape_word(words[0], font, features)


@pytest.fixture(scope="module")
def greedy_results() -> list[harness.CommandResult]:
    text = first(gen.zipf_paragraphs, 1, count=1)[0]
    return harness.run_chain(harness.WORKLOADS["greedy-render"], text)[0]


def test_correct_outputs_pass_every_check(greedy_results):
    assert [r.command for r in greedy_results] == ["justify", "render"]
    assert harness.check_chain(greedy_results) == [[], []]


def _with_doc(results, edit):
    doc = json.loads(results[0].stdout)
    edit(doc)
    justify = harness.CommandResult("justify", 0, json.dumps(doc), results[0].stderr)
    return [justify, results[1]]


def test_altered_line_width_is_a_failure(greedy_results):
    def widen(doc):
        doc["lines"][0]["width"] += 1

    report = harness.check_chain(_with_doc(greedy_results, widen))
    assert report[0] and "width" in report[0][0]


def test_altered_elongation_is_a_failure(greedy_results):
    def stretch(doc):
        line = doc["lines"][0]
        max(line["glyphs"], key=lambda g: g["x"])["elongation"] += 1

    report = harness.check_chain(_with_doc(greedy_results, stretch))
    assert report[0] and "glyphs to" in report[0][0]


def test_altered_shaped_width_is_a_failure():
    text = first(gen.fresh_paragraphs, 1, count=1)[0]
    results, _ = harness.run_chain(harness.WORKLOADS["shape-fresh"], text)
    doc = json.loads(results[0].stdout)
    doc["lines"][0]["width"] -= 1
    shaped = harness.CommandResult("shape", 0, json.dumps(doc), "")
    assert harness.check_chain(results) == [[]]
    assert harness.check_chain([shaped])[0]


def test_dropped_line_is_a_render_failure(greedy_results):
    report = harness.check_chain(_with_doc(greedy_results, lambda doc: doc["lines"].pop()))
    assert report[1] and "baselines" in report[1][0]


def test_unparsable_outputs_are_failures(greedy_results):
    justify, render = greedy_results
    broken = harness.CommandResult("justify", 0, justify.stdout[:-20], "")
    assert harness.check_chain([broken])[0]
    bad_svg = harness.CommandResult("render", 0, render.stdout.replace("</svg>", ""), "")
    assert harness.check_chain([justify, bad_svg])[1]


def test_crash_is_a_failure():
    result = harness.run_command(["render", "--font", str(harness.FONT)], stdin_text="[]")
    report = harness.check_chain([result])
    assert result.code != 0 and report[0]


def _engine_attributes() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if module is not None and (name == "qalam" or name.startswith("qalam."))
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_traced_pass_restores_every_wrapped_attribute():
    before = _engine_attributes()
    texts = {name: first(w.paragraphs, 2, count=1)[0] for name, w in harness.WORKLOADS.items()}
    with tracer.traced() as trace:
        wrapped = _engine_attributes()
        for name, text in texts.items():
            harness.run_chain(harness.WORKLOADS[name], text)
    assert sum(wrapped[k] is not before[k] for k in before) >= sum(map(len, tracer.TRACED.values()))
    after = _engine_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = trace.metrics()
    for layer, names in tracer.TRACED.items():
        for name in names:
            assert metrics[f"{layer}.{name}.calls"] > 0, (layer, name)


def test_traced_pass_restores_after_an_error():
    before = _engine_attributes()
    with pytest.raises(RuntimeError):
        with tracer.traced():
            raise RuntimeError("stop")
    after = _engine_attributes()
    assert all(after[key] is value for key, value in before.items())


def test_self_times_add_up_to_the_outer_span():
    text = first(gen.zipf_paragraphs, 4, count=1)[0]
    with tracer.traced() as trace:
        _, elapsed = harness.run_chain(harness.WORKLOADS["greedy-render"], text)
    assert 0.5 * elapsed < trace.self_ns_total() / 1e9 <= elapsed
    assert all(s.self_ns >= 0 for s in trace.stats.values())


def test_engine_is_imported_from_this_checkout():
    assert Path(qalam.__file__).resolve().parent == harness.FONT.parent.parent
