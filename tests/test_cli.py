from __future__ import annotations

import json
from pathlib import Path

import pytest

from qalam.cli import main

from .conftest import CORPUS_PATH, DEMO_FONT_PATH

FONT = str(DEMO_FONT_PATH)
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_justify.json"
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

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, GOLDEN_ARGS)
        _, second, _ = run(capsys, GOLDEN_ARGS)
        assert first == second

    def test_matches_golden_file(self, capsys):
        code, out, _ = run(capsys, GOLDEN_ARGS)
        assert code == 0
        assert out == GOLDEN_PATH.read_text(encoding="utf-8")

    def test_golden_matches_exhaustive_oracle(self, demo_font):
        from qalam.justify import GlueSpec, JustifyParams, break_optimum
        from qalam.shaper import shape_word
        from qalam.textmodel import decompose

        from .break_oracle import oracle_best

        words = [shape_word(c, demo_font, frozenset()) for c in decompose(GOLDEN_TEXT)]
        params = JustifyParams(variants=True)
        glue = GlueSpec.from_defaults(demo_font.glue)
        layout = break_optimum(words, 4000, glue, demo_font, params)
        best = oracle_best(words, 4000, glue, demo_font, params)
        assert best is not None
        assert layout.total_demerits == best[0]
        assert tuple(l.candidate.word_range[1] for l in layout.lines) == best[2]

        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert [l.width for l in layout.lines] == [
            line["width"] for line in golden["lines"]
        ]


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
