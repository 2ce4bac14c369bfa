"""Shared test helpers: synthetic fonts and word builders."""

from __future__ import annotations

import json
import random

from qalam.fontmodel import FontDescription, load_font
from qalam.lookups import GlyphItem, LookupRule, apply_gsub_tracked
from qalam.shaper import ShapedWord, shape_word
from qalam.textmodel import DEFAULT_TABLE, Cluster, JoiningClass

from .conftest import DEMO_FONT_PATH

#: Letters usable in synthetic single-letter-word tests, keyed by intent.
ALEF, BEH, SEEN, DAL, LAM, MEEM, FEH, YEH, KAF = (
    0x0627, 0x0628, 0x0633, 0x062F, 0x0644, 0x0645, 0x0641, 0x064A, 0x0643,
)
FATHA, FATHATAN, DAMMA, KASRA, SHADDA, SUKUN = (
    0x064E, 0x064B, 0x064F, 0x0650, 0x0651, 0x0652,
)


def synth_font(
    letter_widths: dict[int, int] | None = None,
    letter_extensions: dict[int, int] | None = None,
    glyph_height: int = 300,
    anchor_above: tuple[int, int] | None = None,
    glue: tuple[int, int, int] = (10, 5, 3),
    thresholds: tuple[int, int] = (200, 450),
    mass_positions: dict | None = None,
    mass_variants: dict | None = None,
    mark_overrides: dict | None = None,
) -> FontDescription:
    """A minimal loadable font covering a handful of letters.

    Every requested letter gets identical glyphs for all its joining forms
    (width and extension per letter), so word widths in tests are easy
    arithmetic. Marks have round-number boxes: fatha 100 wide (medium 200,
    large 400), anchors centered.
    """
    letter_widths = letter_widths or {ALEF: 140, BEH: 340, SEEN: 560, DAL: 280}
    letter_extensions = letter_extensions or {}

    glyphs = {}
    cmap: dict[str, dict[str, str]] = {}
    for cp, width in letter_widths.items():
        letter = DEFAULT_TABLE.letters[cp]
        forms = (
            ("isolated", "initial", "medial", "final")
            if letter.joining_class is JoiningClass.DUAL
            else ("isolated", "final")
            if letter.joining_class is JoiningClass.RIGHT
            else ("isolated",)
        )
        for form in forms:
            gid = f"{letter.name}.{form}"
            cx = width // 2
            above = list(anchor_above) if anchor_above else [cx, glyph_height + 80]
            glyphs[gid] = {
                "advance": width,
                "ink": [0, 0, width, glyph_height],
                "anchors": {"above": above, "below": [cx, -80]},
                "max_extension": letter_extensions.get(cp, 0),
                "mass_class": "medium",
            }
            cmap.setdefault(f"{cp:04X}", {})[form] = gid

    marks = {
        "fatha": {
            "class": "above",
            "ink": [0, 0, 100, 60],
            "anchor": [50, 0],
            "variants": {"normal": "fatha", "medium": "fatha.medium", "large": "fatha.large"},
        },
        "fatha.medium": {"class": "above", "ink": [0, 0, 200, 70], "anchor": [100, 0]},
        "fatha.large": {"class": "above", "ink": [0, 0, 400, 80], "anchor": [200, 0]},
        "fathatan": {
            "class": "above",
            "ink": [0, 0, 100, 120],
            "anchor": [50, 0],
            "variants": {
                "normal": "fathatan",
                "medium": "fathatan.medium",
                "large": "fathatan.large",
            },
        },
        "fathatan.medium": {"class": "above", "ink": [0, 0, 200, 130], "anchor": [100, 0]},
        "fathatan.large": {"class": "above", "ink": [0, 0, 400, 140], "anchor": [200, 0]},
        "damma": {"class": "above", "ink": [0, 0, 120, 140], "anchor": [60, 0]},
        "kasra": {"class": "below", "ink": [0, 0, 100, 60], "anchor": [50, 60]},
        "shadda": {
            "class": "above",
            "ink": [0, 0, 150, 110],
            "anchor": [75, 0],
            "stack_anchor": [75, 150],
        },
        "sukun": {"class": "above", "ink": [0, 0, 90, 90], "anchor": [45, 0]},
    }
    if mark_overrides:
        for mid, override in mark_overrides.items():
            marks[mid].update(override)

    doc = {
        "schema": "qalam-font/1",
        "font_id": "synth",
        "units_per_em": 1000,
        "glyphs": glyphs,
        "marks": marks,
        "ligatures": [],
        "cmap": cmap,
        "mark_cmap": {
            "064B": "fathatan",
            "064E": "fatha",
            "064F": "damma",
            "0650": "kasra",
            "0651": "shadda",
            "0652": "sukun",
        },
        "gsub": [],
        "gpos": [
            {
                "kind": "mark_to_base",
                "feature": "mark",
                "coverage": sorted(glyphs),
                "marks": sorted(marks),
            },
            {
                "kind": "mark_to_mark",
                "feature": "mkmk",
                "coverage": ["damma", "fatha", "fatha.large", "fatha.medium",
                             "fathatan", "fathatan.large", "fathatan.medium", "sukun"],
                "lower": ["shadda"],
            },
        ],
        "size_thresholds": {"medium": thresholds[0], "large": thresholds[1]},
        "kashida_priority": {"1": 10, "2": 20, "3": 30},
        "mass_positions": mass_positions or {},
        "mass_variants": mass_variants or {},
        "glue": {"width": glue[0], "stretch": glue[1], "shrink": glue[2]},
    }
    return load_font(json.dumps(doc))


def demo_font_doc() -> dict:
    """A fresh copy of the bundled demo font's JSON document, to edit."""
    return json.loads(DEMO_FONT_PATH.read_text(encoding="utf-8"))


#: ``set_path``'s value that deletes the key instead.
DELETE = object()


def set_path(doc, path: tuple, value) -> None:
    """Set the node at ``path`` in a JSON document; DELETE removes it."""
    for key in path[:-1]:
        doc = doc[key]
    if value is DELETE:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


def gsub_glyphs(
    rules: list[LookupRule], glyphs: list[str], features, marks=frozenset()
) -> list[str]:
    """``apply_gsub_tracked`` over bare glyph ids; ids in ``marks`` are marks."""
    items = [GlyphItem(g, (i,), g in marks) for i, g in enumerate(glyphs)]
    return [it.glyph for it in apply_gsub_tracked(rules, items, frozenset(features))]


def word(text: str, font, features=frozenset()) -> ShapedWord:
    from qalam.textmodel import decompose

    words = decompose(text)
    assert len(words) == 1, f"expected one word in {text!r}"
    return shape_word(words[0], font, features)


def cluster(cp: int, *mark_cps: int, stretch_hint: int = 0) -> Cluster:
    return Cluster(
        base=DEFAULT_TABLE.letters[cp],
        marks=tuple(DEFAULT_TABLE.diacritics[m] for m in mark_cps),
        stretch_hint=stretch_hint,
    )


def random_letters(rng: random.Random, length: int) -> list[int]:
    pool = sorted(DEFAULT_TABLE.letters)
    return [rng.choice(pool) for _ in range(length)]


VOWEL_MARKS = [0x064B, 0x064C, 0x064D, 0x064E, 0x064F, 0x0650, 0x0652]


def random_word_text(rng: random.Random, max_len: int = 5, marked: bool = True) -> str:
    """A random word from the registered repertoire, optionally vocalized."""
    length = rng.randint(1, max_len)
    out = []
    for cp in random_letters(rng, length):
        out.append(chr(cp))
        if marked and rng.random() < 0.8:
            if rng.random() < 0.25:
                out.append(chr(0x0651))  # shadda stacks under the vowel
            out.append(chr(rng.choice(VOWEL_MARKS)))
        if marked and rng.random() < 0.05:
            out.append(chr(0x0640))  # explicit elongation hint
    return "".join(out)


def mark_facts(marks) -> list[tuple]:
    """What ``place_diacritics`` decided for each mark, for comparing two
    placements: mark id, size, origin, owner base and glyph index."""
    return [(m.mark, m.variant, (m.x, m.y), m.owner, m.index) for m in marks]


def attachment_chain(w, index: int) -> list[int]:
    """Glyph ``index`` of ``w`` and the glyphs under it, one step per
    ``attached_to``, down to a base: the reference walk of an attachment
    chain. For a mark, ``[-1]`` is its root base and ``[-2]`` the lowest
    mark of its stack."""
    chain = [index]
    while w.glyphs[chain[-1]].is_mark:
        assert len(chain) <= len(w.glyphs), f"attachment cycle at glyph {index}"
        chain.append(w.glyphs[chain[-1]].attached_to[0])
    return chain
