#!/usr/bin/env python3
"""Regenerate the bundled demo font and text corpus, and the rules test font.

The font is authored here as structured Python, validated through the
regular loader and linter (the build aborts if any lint finding appears),
and written in canonical serialization so the checked-in file is bit-exact
reproducible. The rules test font in ``tests/data/`` is the demo font plus
one rule of each kind the demo font lacks (``TEST_GSUB``, ``TEST_GPOS``),
so that tests and ``tools/same_output.py`` run those rule kinds too. Run
from the repository root:

    PYTHONPATH=src python tools/gen_demo_data.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qalam.fontmodel import load_font, lint_font, mass_terciles, serialize_font
from qalam.textmodel import DEFAULT_TABLE, Form, valid_forms

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "src" / "qalam" / "data"
TEST_FONT_PATH = ROOT / "tests" / "data" / "rules-test.qalam-font.json"

FORM_TAG = {
    Form.ISOLATED: "isol",
    Form.INITIAL: "init",
    Form.MEDIAL: "medi",
    Form.FINAL: "fina",
}

# One entry per skeleton family and form: (advance, height, depth).
FAMILY_GEOMETRY = {
    "hamza": {"isol": (220, 320, 0)},
    "alef": {"isol": (140, 700, 0), "fina": (160, 700, 0)},
    "alef_madda": {"isol": (150, 700, 0), "fina": (170, 700, 0)},
    "alef_hamza_above": {"isol": (140, 700, 0), "fina": (160, 700, 0)},
    "alef_hamza_below": {"isol": (140, 700, 0), "fina": (160, 700, 0)},
    "waw": {"isol": (280, 240, 280), "fina": (300, 240, 280)},
    "waw_hamza_above": {"isol": (280, 240, 280), "fina": (300, 240, 280)},
    "beh": {
        "isol": (420, 180, 60),
        "init": (240, 260, 0),
        "medi": (220, 260, 0),
        "fina": (440, 200, 60),
    },
    "teh_marbuta": {"isol": (300, 340, 0), "fina": (320, 340, 0)},
    "hah": {
        "isol": (340, 340, 320),
        "init": (300, 340, 0),
        "medi": (320, 300, 220),
        "fina": (380, 340, 320),
    },
    "dal": {"isol": (280, 380, 0), "fina": (300, 380, 0)},
    "reh": {"isol": (260, 200, 280), "fina": (280, 220, 280)},
    "seen": {
        "isol": (600, 220, 300),
        "init": (360, 220, 0),
        "medi": (340, 220, 0),
        "fina": (620, 220, 300),
    },
    "sad": {
        "isol": (640, 240, 300),
        "init": (420, 240, 0),
        "medi": (400, 240, 0),
        "fina": (660, 240, 300),
    },
    "tah": {
        "isol": (440, 680, 0),
        "init": (420, 680, 0),
        "medi": (420, 680, 0),
        "fina": (460, 680, 0),
    },
    "ain": {
        "isol": (360, 360, 320),
        "init": (300, 360, 0),
        "medi": (300, 280, 0),
        "fina": (400, 360, 320),
    },
    "feh": {
        "isol": (480, 300, 60),
        "init": (280, 300, 0),
        "medi": (260, 300, 0),
        "fina": (500, 300, 60),
    },
    "qaf": {
        "isol": (440, 300, 300),
        "init": (280, 300, 0),
        "medi": (260, 300, 0),
        "fina": (460, 300, 300),
    },
    "kaf": {
        "isol": (480, 640, 0),
        "init": (340, 640, 0),
        "medi": (340, 640, 0),
        "fina": (500, 640, 20),
    },
    "lam": {
        "isol": (320, 660, 60),
        "init": (220, 660, 0),
        "medi": (220, 660, 0),
        "fina": (420, 660, 60),
    },
    "meem": {
        "isol": (320, 220, 300),
        "init": (280, 220, 0),
        "medi": (260, 200, 0),
        "fina": (360, 220, 300),
    },
    "noon": {
        "isol": (360, 220, 300),
        "init": (240, 260, 0),
        "medi": (220, 260, 0),
        "fina": (400, 240, 300),
    },
    "heh": {
        "isol": (300, 320, 0),
        "init": (320, 320, 0),
        "medi": (280, 260, 60),
        "fina": (320, 320, 0),
    },
    "yeh": {
        "isol": (420, 200, 340),
        "init": (240, 260, 0),
        "medi": (220, 260, 0),
        "fina": (440, 220, 340),
    },
    "yeh_hamza_above": {
        "isol": (420, 200, 340),
        "init": (240, 260, 0),
        "medi": (220, 260, 0),
        "fina": (440, 220, 340),
    },
}

# Width alternates and the expanded isolate exercised by the rule tables:
# (advance, height, depth).
EXTRA_GLYPHS = {
    "beh.isol.expanded": (570, 180, 60),
    "yeh.fina.wide": (640, 220, 340),
    "kaf.isol.wide": (680, 640, 0),
}

# Ligature glyphs: advance, ink box, components, kind, per-component anchors.
LIGATURES = [
    {
        "glyph": "lam_alef.isol",
        "advance": 340,
        "ink": [20, 0, 320, 720],
        "components": ["lam.init", "alef.fina"],
        "kind": "linguistic",
        "component_anchors": [
            {"above": [100, 800], "below": [100, -80]},
            {"above": [250, 800], "below": [250, -80]},
        ],
    },
    {
        "glyph": "lam_alef.fina",
        "advance": 350,
        "ink": [20, 0, 330, 720],
        "components": ["lam.medi", "alef.fina"],
        "kind": "linguistic",
        "component_anchors": [
            {"above": [105, 800], "below": [105, -80]},
            {"above": [255, 800], "below": [255, -80]},
        ],
    },
    {
        "glyph": "lam_meem.init",
        "advance": 360,
        "ink": [20, -40, 340, 700],
        "components": ["lam.init", "meem.medi"],
        "kind": "aesthetic",
        "component_anchors": [
            {"above": [240, 780], "below": [240, -120]},
            {"above": [100, 780], "below": [100, -120]},
        ],
    },
    {
        "glyph": "feh_yeh.isol",
        "advance": 520,
        "ink": [20, -340, 500, 320],
        "components": ["feh.init", "yeh.fina"],
        "kind": "aesthetic",
        "component_anchors": [
            {"above": [380, 400], "below": [380, -420]},
            {"above": [160, 400], "below": [160, -420]},
        ],
    },
]

MARKS = {
    "fatha": {
        "class": "above",
        "ink": [0, 0, 140, 60],
        "anchor": [70, 0],
        "variants": {"normal": "fatha", "medium": "fatha.medium", "large": "fatha.large"},
    },
    "fatha.medium": {"class": "above", "ink": [0, 0, 300, 70], "anchor": [150, 0]},
    "fatha.large": {"class": "above", "ink": [0, 0, 520, 80], "anchor": [260, 0]},
    "fathatan": {
        "class": "above",
        "ink": [0, 0, 140, 130],
        "anchor": [70, 0],
        "variants": {
            "normal": "fathatan",
            "medium": "fathatan.medium",
            "large": "fathatan.large",
        },
    },
    "fathatan.medium": {"class": "above", "ink": [0, 0, 300, 140], "anchor": [150, 0]},
    "fathatan.large": {"class": "above", "ink": [0, 0, 520, 150], "anchor": [260, 0]},
    "damma": {"class": "above", "ink": [0, 0, 130, 150], "anchor": [65, 0]},
    "dammatan": {"class": "above", "ink": [0, 0, 170, 150], "anchor": [85, 0]},
    "kasra": {"class": "below", "ink": [0, 0, 140, 60], "anchor": [70, 60]},
    "kasratan": {"class": "below", "ink": [0, 0, 140, 130], "anchor": [70, 130]},
    "shadda": {
        "class": "above",
        "ink": [0, 0, 160, 120],
        "anchor": [80, 0],
        "stack_anchor": [80, 160],
    },
    "sukun": {"class": "above", "ink": [0, 0, 110, 110], "anchor": [55, 0]},
}

MARK_CMAP = {
    "064B": "fathatan",
    "064C": "dammatan",
    "064D": "kasratan",
    "064E": "fatha",
    "064F": "damma",
    "0650": "kasra",
    "0651": "shadda",
    "0652": "sukun",
}

CORPUS = "\n".join(
    [
        "بِسْمِ اللَّهِ "
        "الرَّحْمَنِ "
        "الرَّحِيمِ",
        "ذَهَبَ الْوَلَدُ "
        "إِلَى الْمَدْرَسَةِ "
        "صَبَاحًا",
        "كَتَبَ الطَّالِبُ "
        "دَرْسًا جَمِيلًا "
        "فِي الدَّفْتَرِ",
        "شَرِبَ الْقِطُّ "
        "لَبَنًا ثُمَّ "
        "نَامَ طَوِيلًا",
        "سَلَامٌ عَلَيْكُمْ "
        "وَرَحْمَةُ اللَّهِ "
        "وَبَرَكَاتُهُ",
        "الْعِلْمُ نُورٌ "
        "وَالْجَهْلُ "
        "ظَلَامٌ",
    ]
) + "\n"


# The rules test font's extra rules, appended to the demo font's tables.
# Each has its own feature tag, acts on glyphs of the corpus, keeps every
# glyph's role and leaves every advance at 0 or more.
TEST_GSUB = [
    {
        "kind": "contextual_sub",
        "feature": "calt",
        "flags": ["ignore_marks"],
        "contexts": [
            # kaf.init starts words of the corpus, but none with this run.
            {"match": ["kaf.init", "alef.fina", "yeh.fina"], "replace": {"2": "yeh.fina.wide"}},
            # The alef maksura of "ila" widens after lam.
            {"match": ["lam.init", "alef_maksura.fina"], "replace": {"1": "yeh.fina.wide"}},
        ],
    },
    {
        "kind": "multiple_sub",
        "feature": "ccmp",
        "sequences": {"alef_hamza_below.isol": ["alef.isol", "hamza.isol"]},
    },
]
TEST_GPOS = [
    {"kind": "single_adj", "feature": "dist", "adjustments": {"reh.fina": [10, 0, 40]}},
    {
        "kind": "pair_adj",
        "feature": "kern",
        "pairs": [
            {"first": "waw.isol", "second": "reh.isol", "advance": -60},
            {"first": "waw.fina", "second": "reh.isol", "advance": -40},
        ],
    },
    {
        "kind": "cursive_attach",
        "feature": "curs",
        "cursive": {
            "hah.init": {"entry": [300, 0], "exit": [0, 40]},
            "meem.medi": {"entry": [260, 0], "exit": [0, 0]},
        },
    },
]


def _extension(stretch_class: int, tag: str) -> int:
    if stretch_class <= 0:
        return 0
    if tag in ("init", "medi"):
        return 200 + 100 * stretch_class
    if tag == "fina":
        return 350 if stretch_class == 3 else 0
    return 300 if stretch_class == 3 else 0


def build_font_doc() -> dict:
    glyphs: dict[str, dict] = {}
    cmap: dict[str, dict[str, str]] = {}

    for letter in DEFAULT_TABLE.letters.values():
        geometry = FAMILY_GEOMETRY[letter.skeleton_family]
        for form in valid_forms(letter):
            tag = FORM_TAG[form]
            advance, height, depth = geometry[tag]
            gid = f"{letter.name}.{tag}"
            cx = advance // 2
            glyphs[gid] = {
                "advance": advance,
                "ink": [20, -depth, advance - 20, height],
                "anchors": {
                    "above": [cx, height + 80],
                    "below": [cx, -depth - 80],
                },
                "max_extension": _extension(letter.stretch_class, tag),
            }
            cmap.setdefault(f"{letter.code_point:04X}", {})[form.value] = gid

    for gid, (advance, height, depth) in EXTRA_GLYPHS.items():
        cx = advance // 2
        glyphs[gid] = {
            "advance": advance,
            "ink": [20, -depth, advance - 20, height],
            "anchors": {"above": [cx, height + 80], "below": [cx, -depth - 80]},
            "max_extension": 0,
        }

    ligature_entries = []
    for spec in LIGATURES:
        glyphs[spec["glyph"]] = {
            "advance": spec["advance"],
            "ink": spec["ink"],
            "max_extension": 0,
        }
        ligature_entries.append(
            {
                "components": spec["components"],
                "glyph": spec["glyph"],
                "component_anchors": spec["component_anchors"],
                "kind": spec["kind"],
            }
        )

    areas = {
        gid: (g["ink"][2] - g["ink"][0]) * (g["ink"][3] - g["ink"][1])
        for gid, g in glyphs.items()
    }
    for gid, mass in mass_terciles(areas).items():
        glyphs[gid]["mass_class"] = mass.value

    base_ids = sorted(set(glyphs) - {spec["glyph"] for spec in LIGATURES})
    ligature_ids = sorted(spec["glyph"] for spec in LIGATURES)
    mark_ids = sorted(MARKS)
    stackable = sorted(
        mid
        for mid, m in MARKS.items()
        if m["class"] == "above" and mid != "shadda"
    )

    gsub = [
        {
            "kind": "ligature_sub",
            "feature": "rlig",
            "flags": ["ignore_marks"],
            "ligatures": [
                {"components": ["lam.init", "alef.fina"], "glyph": "lam_alef.isol"},
                {"components": ["lam.medi", "alef.fina"], "glyph": "lam_alef.fina"},
            ],
        },
        {
            "kind": "ligature_sub",
            "feature": "liga",
            "flags": ["ignore_marks"],
            "ligatures": [
                {"components": ["lam.init", "meem.medi"], "glyph": "lam_meem.init"},
                {"components": ["feh.init", "yeh.fina"], "glyph": "feh_yeh.isol"},
            ],
        },
        {
            "kind": "single_sub",
            "feature": "ss01",
            "map": {"beh.isol": "beh.isol.expanded"},
        },
        {
            "kind": "alternate_sub",
            "feature": "jalt",
            "alternates": {
                "yeh.fina": ["yeh.fina.wide"],
                "kaf.isol": ["kaf.isol.wide"],
            },
        },
    ]
    gpos = [
        {
            "kind": "mark_to_base",
            "feature": "mark",
            "coverage": base_ids,
            "marks": mark_ids,
        },
        {
            "kind": "mark_to_ligature",
            "feature": "mark",
            "coverage": ligature_ids,
            "marks": mark_ids,
        },
        {
            "kind": "mark_to_mark",
            "feature": "mkmk",
            "coverage": stackable,
            "lower": ["shadda"],
        },
    ]

    return {
        "schema": "qalam-font/1",
        "font_id": "chawki-demo",
        "units_per_em": 1000,
        "glyphs": glyphs,
        "marks": MARKS,
        "ligatures": ligature_entries,
        "cmap": cmap,
        "mark_cmap": MARK_CMAP,
        "gsub": gsub,
        "gpos": gpos,
        "size_thresholds": {"medium": 200, "large": 450},
        "kashida_priority": {"1": 10, "2": 20, "3": 30},
        "mass_positions": {
            "light": {"above": 0, "below": 0},
            "medium": {"above": 0, "below": 0},
            "heavy": {"above": 0, "below": 0},
        },
        "mass_variants": {"light": "normal", "medium": "medium", "heavy": "large"},
        "glue": {"width": 250, "stretch": 125, "shrink": 80},
    }


def canonical_font(doc: dict, name: str) -> str | None:
    """The font's canonical serialization, or None after reporting why the
    font is not fit to write: a lint finding, or a serialization that does
    not round-trip."""
    font = load_font(json.dumps(doc))
    findings = lint_font(font)
    if findings:
        for d in findings:
            print(f"{d.severity.value}: {d.code}: {d.message}", file=sys.stderr)
        print(f"{name} does not pass its own lint; aborting", file=sys.stderr)
        return None
    text = serialize_font(font)
    if serialize_font(load_font(text)) != text:
        print("canonical serialization does not round-trip; aborting", file=sys.stderr)
        return None
    return text


def main() -> int:
    doc = build_font_doc()
    text = canonical_font(doc, "demo font")
    test_doc = {**doc, "font_id": "rules-test"}
    test_doc["gsub"] = doc["gsub"] + TEST_GSUB
    test_doc["gpos"] = doc["gpos"] + TEST_GPOS
    test_text = canonical_font(test_doc, "rules test font")
    if text is None or test_text is None:
        return 1
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    (DATA_DIR / "chawki-demo.qalam-font.json").write_text(text, encoding="utf-8")
    (DATA_DIR / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    TEST_FONT_PATH.write_text(test_text, encoding="utf-8")
    print(f"wrote {DATA_DIR / 'chawki-demo.qalam-font.json'} ({len(doc['glyphs'])} glyphs)")
    print(f"wrote {DATA_DIR / 'corpus.txt'} ({len(CORPUS.splitlines())} lines)")
    print(f"wrote {TEST_FONT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
