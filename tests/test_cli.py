from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qalam.cli
import qalam.diacritics
import qalam.shaper
from qalam.cli import _build_parser, main
from qalam.justify import MAX_LINE_PENALTY

from .conftest import CORPUS_PATH, DEMO_FONT_PATH

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402

FONT = str(DEMO_FONT_PATH)
DATA = Path(__file__).resolve().parent / "data"
FORMAT_DOC = Path(__file__).resolve().parent.parent / "docs" / "layout-format.md"
GOLDEN_PATH = DATA / "golden_justify.json"
# Shape and render goldens: the corpus with liga,jalt, rendered from its
# optimum justification at 4000 units with width variants.
CORPUS_ARGS = ["--font", FONT, "--text-file", str(CORPUS_PATH), "--features", "liga,jalt"]
GOLDEN_TEXT = (
    "شَرِبَ الْقِطُّ "
    "لَبَنًا ثُمَّ "
    "نَامَ طَوِيلًا"
)
GOLDEN_ARGS = [
    "justify",
    "--font",
    FONT,
    "--text",
    GOLDEN_TEXT,
    "--width",
    "4000",
    "--algorithm",
    "optimum",
    "--variants",
    "on",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def non_utf8_file(tmp_path) -> str:
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe\xfa")
    return str(path)


def assert_one_error_exit_2(code, out, err):
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestShape:
    def test_lam_alef(self, capsys):
        code, out, _ = run(capsys, ["shape", "--font", FONT, "--text", "لا"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "qalam-layout/1"
        glyphs = doc["lines"][0]["glyphs"]
        assert [g["glyph"] for g in glyphs] == ["lam_alef.isol"]

    def test_empty_text(self, capsys):
        code, out, _ = run(capsys, ["shape", "--font", FONT, "--text", ""])
        assert code == 0
        assert json.loads(out)["lines"] == []

    def test_missing_font_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys, ["shape", "--font", str(tmp_path / "nope.json"), "--text", "ب"]
        )
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_json_errors_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            [
                "shape",
                "--font",
                str(tmp_path / "nope.json"),
                "--text",
                "ب",
                "--format",
                "json-errors",
            ],
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["code"] == "FontError"

    def test_bad_text_exit_2(self, capsys):
        code, _, _ = run(capsys, ["shape", "--font", FONT, "--text", "hello"])
        assert code == 2

    @pytest.mark.parametrize("mapping", [{"fatha": "beh.isol"}, {"beh.isol": "fatha"}])
    def test_substitution_swapping_mark_and_base_exit_1(self, capsys, tmp_path, mapping):
        doc = json.loads(Path(FONT).read_text(encoding="utf-8"))
        doc["gsub"].append({"kind": "single_sub", "feature": "rlig", "map": mapping})
        font = tmp_path / "font.json"
        font.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["shape", "--font", str(font), "--text", "بَ"])
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "rule, text, message",
        [
            (
                {"kind": "single_adj", "feature": "kern", "adjustments": {"beh.isol": [0, 0, -5000]}},
                "ب",
                "error: single_adj rule makes the advance of beh.isol -4580\n",
            ),
            (
                {
                    "kind": "pair_adj",
                    "feature": "kern",
                    "pairs": [{"first": "beh.init", "second": "beh.fina", "advance": -300}],
                },
                "بب",
                "error: pair_adj rule makes the advance of beh.init -60\n",
            ),
        ],
        ids=["single_adj", "pair_adj"],
    )
    def test_negative_adjusted_advance_exit_1(self, capsys, tmp_path, rule, text, message):
        doc = json.loads(Path(FONT).read_text(encoding="utf-8"))
        doc["gpos"].append(rule)
        font = tmp_path / "font.json"
        font.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["shape", "--font", str(font), "--features", "kern", "--text", text]
        assert run(capsys, argv) == (1, "", message)

    def test_non_utf8_text_file_exit_2(self, capsys, tmp_path):
        argv = ["shape", "--font", FONT, "--text-file", non_utf8_file(tmp_path)]
        assert_one_error_exit_2(*run(capsys, argv))

    def test_env_font_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("QALAM_FONT_PATH", FONT)
        code, out, _ = run(capsys, ["shape", "--text", "ب"])
        assert code == 0
        assert json.loads(out)["font_id"] == "chawki-demo"

    def test_text_file_input(self, capsys):
        code, out, _ = run(
            capsys, ["shape", "--font", FONT, "--text-file", str(CORPUS_PATH)]
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["lines"][0]["glyphs"]) > 50

    def test_deterministic(self, capsys):
        argv = ["shape", "--font", FONT, "--text-file", str(CORPUS_PATH)]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_matches_golden_file(self, capsys):
        code, out, _ = run(capsys, ["shape", *CORPUS_ARGS])
        assert code == 0
        assert out == (DATA / "golden_shape.json").read_text(encoding="utf-8")

    def test_builds_no_width_variants(self, capsys, monkeypatch):
        from qalam import shaper

        def refuse(*args):
            raise AssertionError("shape built width variants")

        monkeypatch.setattr(shaper, "word_variants", refuse)
        code, out, _ = run(capsys, ["shape", *CORPUS_ARGS])
        assert code == 0
        assert out == (DATA / "golden_shape.json").read_text(encoding="utf-8")


class TestJustify:
    def test_impossible_measure(self, capsys):
        code, _, err = run(
            capsys,
            ["justify", "--font", FONT, "--text", "با", "--width", "1"],
        )
        assert code == 3
        assert "narrowest" in err

    def test_nonpositive_measure(self, capsys):
        code, _, _ = run(
            capsys,
            ["justify", "--font", FONT, "--text", "ب", "--width", "-5"],
        )
        assert code == 3

    def test_matches_format_doc_example(self, capsys):
        doc = FORMAT_DOC.read_text(encoding="utf-8")
        example = doc.split("```json\n", 1)[1].split("```", 1)[0]
        argv = ["justify", "--font", FONT, "--text", "سَب بَ", "--width", "1200",
                "--algorithm", "greedy"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == example

    def test_non_utf8_text_file_exit_2(self, capsys, tmp_path):
        argv = ["justify", "--font", FONT, "--width", "4000",
                "--text-file", non_utf8_file(tmp_path)]
        assert_one_error_exit_2(*run(capsys, argv))

    def test_lines_hit_measure(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "justify",
                "--font",
                FONT,
                "--text-file",
                str(CORPUS_PATH),
                "--width",
                "4000",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["measure"] == 4000
        for line in doc["lines"][:-1]:
            assert abs(line["width"] - 4000) <= 1

    def test_stats_dominance(self, capsys):
        def total(algorithm: str) -> int:
            code, _, err = run(
                capsys,
                [
                    "justify",
                    "--font",
                    FONT,
                    "--text-file",
                    str(CORPUS_PATH),
                    "--width",
                    "3600",
                    "--algorithm",
                    algorithm,
                    "--stats",
                ],
            )
            assert code == 0
            line = next(l for l in err.splitlines() if l.startswith("total_demerits:"))
            return int(line.split(":")[1])

        assert total("optimum") <= total("greedy")

    def test_overlap_penalty_inf_accepted(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "justify",
                "--font",
                FONT,
                "--text",
                GOLDEN_TEXT,
                "--width",
                "3000",
                "--overlap-penalty",
                "inf",
            ],
        )
        assert code == 0
        json.loads(out)

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5", ""])
    def test_bad_overlap_penalty_exit_2(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(GOLDEN_ARGS + ["--overlap-penalty", value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--overlap-penalty" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["shape", "justify"])
    @pytest.mark.parametrize("value", ["-1", "-50", "abc", "1.5"])
    def test_bad_gap_epsilon_exit_2(self, capsys, command, value):
        argv = ["shape", "--font", FONT, "--text", GOLDEN_TEXT]
        if command == "justify":
            argv = GOLDEN_ARGS
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--gap-epsilon", value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--gap-epsilon" in err
        assert "Traceback" not in err

    def test_zero_gap_epsilon_accepted(self, capsys):
        code, out, _ = run(
            capsys, ["shape", "--font", FONT, "--text", GOLDEN_TEXT, "--gap-epsilon", "0"]
        )
        assert code == 0
        json.loads(out)

    def test_saturating_line_penalty_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(GOLDEN_ARGS + ["--line-penalty", "40000000"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--line-penalty" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("penalty", ["10", str(MAX_LINE_PENALTY)])
    def test_largest_line_penalty_still_ranks_lines(self, capsys, penalty):
        # A saturating penalty (40000000) would cost every line INF and set
        # the first line at badness 880; every accepted one keeps the
        # badness-0 breaks.
        first_line = CORPUS_PATH.read_text(encoding="utf-8").splitlines()[0]
        code, _, err = run(
            capsys,
            ["justify", "--font", FONT, "--text", first_line, "--width", "4000",
             "--line-penalty", penalty, "--stats"],
        )
        assert code == 0
        lines = [l for l in err.splitlines() if l.startswith("line ")]
        assert lines == [
            "line 0: words 0..3 width 4000 badness 0",
            "line 1: words 3..4 width 1520 badness 0",
        ]

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, GOLDEN_ARGS)
        _, second, _ = run(capsys, GOLDEN_ARGS)
        assert first == second

    def test_matches_golden_file(self, capsys):
        code, out, _ = run(capsys, GOLDEN_ARGS)
        assert code == 0
        assert out == GOLDEN_PATH.read_text(encoding="utf-8")

    def test_matches_greedy_golden_file(self, capsys):
        # The default variants-off path, greedy, with features on.
        code, out, _ = run(
            capsys,
            ["justify", *CORPUS_ARGS, "--width", "4000", "--algorithm", "greedy"],
        )
        assert code == 0
        assert out == (DATA / "golden_greedy.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("algorithm", ["greedy", "optimum"])
    def test_variants_off_builds_no_width_variants(self, capsys, monkeypatch, algorithm):
        from qalam import justify

        def refuse(*args):
            raise AssertionError("--variants off built width variants")

        monkeypatch.setattr(justify, "word_variants", refuse)
        code, out, _ = run(
            capsys,
            ["justify", *CORPUS_ARGS, "--width", "4000", "--algorithm", algorithm,
             "--variants", "off"],
        )
        assert code == 0
        assert out.startswith("{")

    def test_golden_matches_exhaustive_oracle(self, demo_font):
        from qalam.justify import JustifyParams, break_optimum
        from qalam.shaper import shape_word
        from qalam.textmodel import decompose

        from .break_oracle import oracle_best

        words = [shape_word(c, demo_font, frozenset()) for c in decompose(GOLDEN_TEXT)]
        params = JustifyParams(variants=True)
        layout = break_optimum(words, 4000, demo_font, params)
        best = oracle_best(words, 4000, demo_font, params)
        assert best is not None
        assert layout.total_demerits == best[0]
        assert tuple(l.candidate.word_range[1] for l in layout.lines) == best[2]

        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert [l.candidate.width for l in layout.lines] == [
            line["width"] for line in golden["lines"]
        ]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestFreshText:
    """Output identity on text the goldens never saw.

    ``fresh_words.txt`` is the first five 120-word paragraphs of
    ``perfbench/gen.py``'s ``fresh_paragraphs(6)``: 600 words, none
    repeated. The digests pin stdout and stderr as the engine wrote them
    before mark placement was rewritten in linear passes.
    """

    @pytest.mark.parametrize(
        "args, stdout_sha, stderr_sha",
        [
            pytest.param(
                ["shape", "--features", "liga,jalt"],
                "e48c6ccdbbb70a3aaa72a465fb5c07c8e9ad9e52bb60a014a36608d4d313a289",
                "c9e398c166c43aceb736176052e6a8fc7064f0bdabd8a441c8692a1855b04d32",
                id="shape",
            ),
            pytest.param(
                ["justify", "--algorithm", "greedy", "--width", "4000"],
                "b418d12d337c7e88d40dfbbe194ce0a2fffdfaa06152747693e3666fc7e8e94a",
                "0c6bbe99617c1e328a073033a3555bd1b6e0acc7c1b05336d23e49d2fdf82fdc",
                id="greedy",
            ),
            pytest.param(
                ["justify", "--algorithm", "optimum", "--variants", "on", "--width", "16000"],
                "667538d83b31279f32077760b8e7afc35b68ed09a6ec6500e457dc62eadd3592",
                "785a94f8d15484cb4db3ea9d30638a781fe2ae821a793ed9635f5b1e238f8357",
                id="optimum",
            ),
        ],
    )
    def test_matches_recorded_digests(self, capsys, args, stdout_sha, stderr_sha):
        command, *rest = args
        code, out, err = run(
            capsys,
            [command, "--font", FONT, "--text-file", str(DATA / "fresh_words.txt"), *rest],
        )
        assert (code, sha256(out), sha256(err)) == (0, stdout_sha, stderr_sha)


#: The demo font plus one rule of each kind the demo font lacks, each under
#: its own feature tag (``tools/gen_demo_data.py``).
RULES_FONT = str(DATA / "rules-test.qalam-font.json")
RULES_TAGS = ("calt", "ccmp", "dist", "kern", "curs")
RULES_FEATURES = ("liga", "jalt", "ss01", *RULES_TAGS)
RULES_ARGS = [
    "--font", RULES_FONT, "--text-file", str(CORPUS_PATH),
    "--features", ",".join(RULES_FEATURES),
]


class TestRulesTestFont:
    def test_shape_matches_golden_file(self, capsys):
        code, out, _ = run(capsys, ["shape", *RULES_ARGS])
        assert code == 0
        assert out == (DATA / "golden_rules_shape.json").read_text(encoding="utf-8")

    def test_justify_matches_golden_file(self, capsys):
        argv = ["justify", *RULES_ARGS, "--algorithm", "optimum", "--variants", "on",
                "--width", "4000"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == (DATA / "golden_rules_justify.json").read_text(encoding="utf-8")

    def test_passes_fontlint(self, capsys):
        assert run(capsys, ["fontlint", "--font", RULES_FONT]) == (0, "", "")

    @pytest.mark.parametrize(
        "tag, text",
        [
            ("calt", "إِلَى"),  # contextual_sub
            ("ccmp", "إِلَى"),  # multiple_sub
            ("dist", "شَرِبَ"),  # single_adj
            ("kern", "وَرَحْمَةُ"),  # pair_adj
            ("curs", "وَرَحْمَةُ"),  # cursive_attach
        ],
    )
    def test_each_rule_changes_a_word_it_covers(self, capsys, tag, text):
        def shaped(features):
            argv = ["shape", "--font", RULES_FONT, "--text", text, "--features", features]
            code, out, _ = run(capsys, argv)
            assert code == 0
            return json.loads(out)["lines"]

        others = [f for f in RULES_FEATURES if f != tag]
        assert shaped(",".join(RULES_FEATURES)) != shaped(",".join(others))


class TestRender:
    def shape_doc(self, capsys, text: str) -> str:
        code, out, _ = run(capsys, ["shape", "--font", FONT, "--text", text])
        assert code == 0
        return out

    def test_one_base_one_mark(self, capsys, tmp_path):
        doc = self.shape_doc(capsys, "بَ")
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(doc, encoding="utf-8")
        code, svg, _ = run(
            capsys, ["render", "--font", FONT, "--input", str(layout_path)]
        )
        assert code == 0
        assert svg.count('<rect class="glyph"') == 1
        assert svg.count('<rect class="mark') == 1
        assert svg.count('class="guide"') == 2
        assert '<line class="baseline"' in svg

    def test_right_to_left_mirroring(self, capsys, tmp_path):
        import re

        doc = self.shape_doc(capsys, "با")  # beh then alef
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(doc, encoding="utf-8")
        _, svg, _ = run(capsys, ["render", "--font", FONT, "--input", str(layout_path)])
        xs = [
            int(m.group(1))
            for m in re.finditer(r'<rect class="glyph" x="(-?\d+)"', svg)
        ]
        assert len(xs) == 2
        # The logically first glyph (beh) renders to the right of the alef.
        assert xs[0] > xs[1]

    def test_byte_identical(self, capsys, tmp_path):
        doc = self.shape_doc(capsys, "سَلَامٌ")
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(doc, encoding="utf-8")
        argv = ["render", "--font", FONT, "--input", str(layout_path)]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_variant_classes(self, capsys, tmp_path):
        doc = json.loads(self.shape_doc(capsys, "بَ"))
        doc["lines"][0]["glyphs"][0]["marks"][0]["variant"] = "medium"
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps(doc), encoding="utf-8")
        code, svg, _ = run(
            capsys, ["render", "--font", FONT, "--input", str(layout_path)]
        )
        assert code == 0
        assert 'class="mark variant-medium"' in svg

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        layout_path = tmp_path / "layout.json"
        layout_path.write_text("{not json", encoding="utf-8")
        code, _, _ = run(capsys, ["render", "--font", FONT, "--input", str(layout_path)])
        assert code == 2

    def test_repeated_key_exit_2(self, capsys, tmp_path):
        """A justified layout that names ``measure`` twice fails with one
        error line; JSON parsing alone would keep the second value."""
        code, doc, _ = run(capsys, GOLDEN_ARGS)
        assert code == 0
        entry = doc.index('"measure"')
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(doc[:entry] + '"measure": 1, ' + doc[entry:], encoding="utf-8")
        argv = ["render", "--font", FONT, "--input", str(layout_path)]
        message = "key 'measure' appears twice in one object"
        assert run(capsys, argv) == (2, "", f"error: {message}\n")
        code, out, _ = run(capsys, [*argv, "--format", "json-errors"])
        assert code == 2
        assert json.loads(out) == {"error": {"code": "MalformedLayout", "message": message}}

    def test_negative_width_and_advance_exit_2(self, capsys, tmp_path):
        """The engine never writes a negative line width or glyph advance,
        and ``render`` refuses one rather than drawing an invalid SVG."""
        doc = json.loads(self.shape_doc(capsys, "ب"))
        line = doc["lines"][0]
        line["width"] = line["glyphs"][0]["advance"] = -4580
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["render", "--font", FONT, "--input", str(layout_path)]
        message = "line 0: width must be a non-negative integer"
        assert run(capsys, argv) == (2, "", f"error: {message}\n")
        line["width"] = 1000
        layout_path.write_text(json.dumps(doc), encoding="utf-8")
        message = "line 0 glyph 0: advance must be a non-negative integer"
        assert run(capsys, argv) == (2, "", f"error: {message}\n")

    def test_non_utf8_input_exit_2(self, capsys, tmp_path):
        argv = ["render", "--font", FONT, "--input", non_utf8_file(tmp_path)]
        assert_one_error_exit_2(*run(capsys, argv))

    def test_non_utf8_stdin_exit_2(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe\xfa"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert_one_error_exit_2(*run(capsys, ["render", "--font", FONT]))

    def test_font_mismatch_warns(self, capsys, tmp_path):
        doc = self.shape_doc(capsys, "بَ")
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(doc, encoding="utf-8")
        argv = ["render", "--font", FONT, "--input", str(layout_path)]
        _, svg, _ = run(capsys, argv)
        layout_path.write_text(
            doc.replace('"chawki-demo"', '"other-font"'), encoding="utf-8"
        )
        code, out, err = run(capsys, argv)
        assert code == 0
        assert out == svg
        assert err == (
            "warn: font-mismatch: layout was set in font 'other-font', "
            "rendered with 'chawki-demo'\n"
        )

    def test_missing_fields_exit_2(self, capsys, tmp_path):
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps({"schema": "qalam-layout/1"}), encoding="utf-8")
        code, _, _ = run(capsys, ["render", "--font", FONT, "--input", str(layout_path)])
        assert code == 2

    def test_optional_glyph_paths_used(self, capsys, tmp_path):
        doc = json.loads(DEMO_FONT_PATH.read_text(encoding="utf-8"))
        doc["glyphs"]["beh.isol"]["svg_path"] = "M 20 0 L 400 0 L 400 180 Z"
        font_path = tmp_path / "font.json"
        font_path.write_text(json.dumps(doc), encoding="utf-8")
        code, shaped, _ = run(
            capsys, ["shape", "--font", str(font_path), "--text", "ب"]
        )
        assert code == 0
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(shaped, encoding="utf-8")
        code, svg, _ = run(
            capsys, ["render", "--font", str(font_path), "--input", str(layout_path)]
        )
        assert code == 0
        assert '<path class="glyph"' in svg
        assert "L 400 180 Z" in svg

    def test_matches_golden_file(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["justify", *CORPUS_ARGS, "--width", "4000", "--algorithm", "optimum",
             "--variants", "on"],
        )
        assert code == 0
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(out, encoding="utf-8")
        code, svg, _ = run(capsys, ["render", "--font", FONT, "--input", str(layout_path)])
        assert code == 0
        assert svg == (DATA / "golden_render.svg").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "path, value",
        [
            (("glyph",), "no_such_glyph"),
            (("marks", 0, "mark"), "no_such_mark"),
            (("marks", 0, "variant"), "huge"),
            (("marks", 0, "dx"), "x"),
            (("marks", 0, "dy"), 1.5),
            ((), {"units_per_em": "x"}),
            ((), {"measure": "x"}),
            ((), {"lines": [{"width": "x", "glyphs": []}]}),
            (("marks", 0), {"mark": "damma", "variant": "large", "dx": 0, "dy": 0}),
            ((), {"units_per_em": -1000}),
            ((), {"units_per_em": 0}),
            ((), {"measure": -4000}),
            ((), {"measure": 0}),
            (("elongation",), -100000),
        ],
    )
    def test_bad_layout_exit_2(self, capsys, tmp_path, path, value):
        doc = json.loads(self.shape_doc(capsys, "بَ"))
        if path:
            node = doc["lines"][0]["glyphs"][0]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        else:
            doc.update(value)
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["render", "--font", FONT, "--input", str(layout_path)]
        assert_one_error_exit_2(*run(capsys, argv))

    def test_round_trips_justify_output(self, capsys, tmp_path):
        code, out, _ = run(capsys, GOLDEN_ARGS)
        layout_path = tmp_path / "layout.json"
        layout_path.write_text(out, encoding="utf-8")
        code, svg, _ = run(
            capsys, ["render", "--font", FONT, "--input", str(layout_path)]
        )
        assert code == 0
        assert svg.startswith("<svg ")


class TestFontlint:
    def test_demo_passes(self, capsys):
        code, _, err = run(capsys, ["fontlint", "--font", FONT])
        assert code == 0
        assert err == ""

    def test_broken_font_exit_4(self, capsys, tmp_path):
        doc = json.loads(DEMO_FONT_PATH.read_text(encoding="utf-8"))
        del doc["glyphs"]["beh.medi"]["anchors"]["above"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, ["fontlint", "--font", str(bad)])
        assert code == 4
        assert "missing-anchor" in err

    def test_non_json_font_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("definitely not json", encoding="utf-8")
        code, _, _ = run(capsys, ["fontlint", "--font", str(bad)])
        assert code == 1


def usage_error(capsys, argv):
    """Exit code, stdout and stderr of a command line argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def json_usage_error(err: str) -> str:
    """The stdout line ``--format json-errors`` adds for a usage error."""
    message = err.splitlines()[-1].split(": error: ", 1)[1]
    record = {"error": {"code": "UsageError", "message": message}}
    return json.dumps(record, sort_keys=True) + "\n"


class TestUsageErrorsAsJson:
    """``--format json-errors`` reports flag errors on stdout as well."""

    BAD_FLAGS = [
        pytest.param(
            ["shape", "--font", FONT, "--text", "ب", "--gap-epsilon", "-1"], id="gap-epsilon"
        ),
        pytest.param(GOLDEN_ARGS + ["--line-penalty", "40000000"], id="line-penalty"),
        pytest.param(GOLDEN_ARGS + ["--overlap-penalty", "-5"], id="overlap-penalty"),
    ]

    @pytest.mark.parametrize("argv", BAD_FLAGS)
    @pytest.mark.parametrize("where", ["after", "before"])
    def test_error_record_on_stdout(self, capsys, argv, where):
        fmt = ["--format", "json-errors"]
        json_argv = argv + fmt if where == "after" else argv[:1] + fmt + argv[1:]
        default = usage_error(capsys, argv)
        assert usage_error(capsys, argv + ["--format", "text"]) == default
        assert default[:2] == (2, "")
        code, out, err = usage_error(capsys, json_argv)
        assert (code, err) == (2, default[2])
        assert out == json_usage_error(err)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "fmt",
        [["--format=json-errors"], ["--form", "json-errors"], ["--for=json-errors"],
         ["--format", "text", "--format", "json-errors"]],
    )
    def test_spellings_argparse_accepts(self, capsys, fmt):
        code, out, err = usage_error(capsys, ["shape", "--gap-epsilon", "-1", *fmt])
        assert code == 2
        assert out == json_usage_error(err)

    @pytest.mark.parametrize(
        "fmt", [[], ["--format", "text"], ["--format", "json-errors", "--format", "text"]]
    )
    def test_text_format_prints_nothing_on_stdout(self, capsys, fmt):
        code, out, _ = usage_error(capsys, ["shape", "--gap-epsilon", "-1", *fmt])
        assert (code, out) == (2, "")

    def test_help_is_not_an_error(self, capsys):
        code, out, err = usage_error(capsys, ["shape", "-h", "--format", "json-errors"])
        assert code == 0
        assert out.startswith("usage: qalam shape")
        assert "error" not in out.splitlines()[-1]
        assert err == ""


def parse_outcome(capsys, parser, argv):
    try:
        namespace = vars(parser.parse_args(argv))
        code = 0
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, namespace, captured.out, captured.err


class TestParserScope:
    """A parser built for one subcommand reads every command line of that
    subcommand as the whole tree does."""

    @pytest.mark.parametrize("command", ["shape", "justify", "render", "fontlint"])
    @pytest.mark.parametrize(
        "rest",
        [
            ["-h"],
            ["--font", FONT, "--text", "ب"],  # justify: --width is missing
            ["--width"],
            ["--bogus"],
            ["--gap-epsilon", "-1"],
            ["--gap-epsilon", "3", "--width", "4000", "--text", "ب"],
            ["extra"],
        ],
    )
    def test_same_outcome_as_full_tree(self, capsys, command, rest):
        argv = [command, *rest]
        full = parse_outcome(capsys, _build_parser(None), argv)
        assert parse_outcome(capsys, _build_parser(command), argv) == full

    def test_builds_only_the_chosen_subcommand(self):
        parser = _build_parser("render")
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        assert list(sub.choices) == ["render"]
        (sub,) = [a for a in _build_parser(None)._actions if a.dest == "command"]
        assert list(sub.choices) == ["shape", "justify", "render", "fontlint"]

    def test_font_default_read_at_call_time(self, monkeypatch):
        monkeypatch.setenv("QALAM_FONT_PATH", "one.json")
        assert _build_parser("shape").parse_args(["shape"]).font == "one.json"
        monkeypatch.setenv("QALAM_FONT_PATH", "two.json")
        assert _build_parser("shape").parse_args(["shape"]).font == "two.json"


#: Words repeat, one of them with an unresolvable mark overlap (feh-yeh
#: with tanween under ``liga``), so the memos of ``shape`` and ``justify``
#: have hits and a hit carries a diagnostic.
REPEATED_TEXT = " ".join(["فًيَ", *GOLDEN_TEXT.split(), "فًيَ", *GOLDEN_TEXT.split()] * 2)
REPEATED_ARGS = ["--font", FONT, "--text", REPEATED_TEXT, "--features", "liga,jalt"]


def count_calls(monkeypatch, module, name, key):
    """Wrap ``module.name``; return the list that each call's key is added to."""
    keys = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        keys.append(key(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return keys


def shape_key(clusters, font, features=frozenset()):
    return tuple(clusters), frozenset(features)


def marked_key(word, font, gap_epsilon=10):
    return tuple(word.clusters), tuple((g.glyph, g.elongation) for g in word.glyphs)


class TestWordMemo:
    """Each distinct word is shaped, and each distinct (word, elongation)
    marked, once per command, and nothing is kept between commands."""

    COMMANDS = [
        pytest.param(["shape"], id="shape"),
        pytest.param(["justify", "--algorithm", "greedy", "--width", "4000"], id="greedy"),
        pytest.param(
            ["justify", "--algorithm", "greedy", "--width", "4000", "--variants", "on"],
            id="greedy-variants",
        ),
        pytest.param(["justify", "--width", "4000"], id="optimum"),
        pytest.param(["justify", "--width", "4000", "--variants", "on"], id="optimum-variants"),
    ]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_work_done_once_per_distinct_word(self, capsys, monkeypatch, command):
        shaped = count_calls(monkeypatch, qalam.shaper, "shape_word", shape_key)
        marked = count_calls(monkeypatch, qalam.diacritics, "place_diacritics", marked_key)
        code, _, _ = run(capsys, [command[0], *REPEATED_ARGS, *command[1:]])
        assert code == 0
        distinct = set(REPEATED_TEXT.split())
        assert len(shaped) == len(set(shaped))
        requested = frozenset({"liga", "jalt"})
        assert sum(f == requested for _, f in shaped) == len(distinct)
        assert len(marked) == len(set(marked))
        assert len(marked) < len(REPEATED_TEXT.split())

    def test_no_state_outlives_main(self, capsys, monkeypatch):
        loads = count_calls(monkeypatch, qalam.cli, "load_font", lambda source: None)
        shaped = count_calls(monkeypatch, qalam.shaper, "shape_word", shape_key)
        argv = ["justify", *REPEATED_ARGS, "--algorithm", "greedy", "--width", "4000"]
        outputs = []
        for _ in range(2):
            outputs.append(run(capsys, argv))
            assert len(loads) == 1
            assert len(shaped) == len(set(REPEATED_TEXT.split()))
            loads.clear()
            shaped.clear()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "command",
        [["shape"], ["justify", "--algorithm", "greedy", "--width", "1200"],
         ["justify", "--width", "1200", "--variants", "on"]],
    )
    def test_each_occurrence_reports_its_own_diagnostic(self, capsys, command):
        argv = [command[0], "--font", FONT, "--text", "فًيَ بَ فًيَ",
                "--features", "liga,jalt", *command[1:]]
        code, _, err = run(capsys, argv)
        assert code == 0
        overlap = (
            "error: unresolvable-overlap: required shift 750 exceeds the ink span "
            "480 of glyph 0"
        )
        assert err.splitlines() == [f"{overlap} @0,0", f"{overlap} @2,0"]


def run_captured(argv, stdin_text=""):
    """``main(argv)`` with its own stdin, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


#: The layout commands whose output ``TestSameBytes`` compares; each
#: layout is also rendered.
LAYOUT_COMMANDS = (
    ("shape", "--features", "liga,jalt"),
    ("justify", "--algorithm", "optimum", "--variants", "on", "--width", "4000"),
    ("justify", "--algorithm", "greedy", "--width", "4000"),
)


def layout_chain(text: str) -> list:
    """Exit code, stdout and stderr of each layout command on ``text`` and
    of ``render`` on each layout."""
    results = []
    for command, *rest in LAYOUT_COMMANDS:
        shaped = run_captured([command, "--font", FONT, "--text", text, *rest])
        results += [shaped, run_captured(["render", "--font", FONT], shaped[1])]
    return results


HASH_SEED_WORKER = """
import json, sys
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
from tests.test_cli import layout_chain
print(json.dumps(layout_chain(sys.argv[3])))
"""


class TestSameBytes:
    """The same command line gives the same bytes, whatever the hash seed
    and whatever ran before it in the process."""

    def test_independent_of_hash_seed(self):
        # The word-memo text, then 40 words of fresh text.
        fresh = DATA.joinpath("fresh_words.txt").read_text(encoding="utf-8").split()
        text = " ".join([REPEATED_TEXT, *fresh[:40]])
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for seed in ("0", "1"):
            done = subprocess.run(
                [sys.executable, "-c", HASH_SEED_WORKER, str(root / "src"), str(root), text],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(json.loads(done.stdout))
        assert [code for code, _, _ in outputs[0]] == [0] * 6
        assert outputs[0] == outputs[1]

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(
        first=st.lists(st.integers(0, 2**32), min_size=1, max_size=5),
        second=st.lists(st.integers(0, 2**32), min_size=1, max_size=5),
    )
    def test_repeated_run_in_one_process(self, first, second):
        text, other = (
            " ".join(gen.random_word(random.Random(seed)) for seed in seeds)
            for seeds in (first, second)
        )
        before = layout_chain(text)
        layout_chain(other)
        assert layout_chain(text) == before
