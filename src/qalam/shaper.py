"""Word shaping: from clusters to positioned glyphs.

Shaping runs the classic pipeline: joining analysis picks each letter's
contextual form, the character map yields glyph ids, substitution rules
rewrite the glyph string (the LamAlef ligature is linguistic and always
on; aesthetic ligatures and alternates only when their features are
enabled), and positioning rules attach every mark at its default size.

Glyphs are stored in logical order with offsets in a logical frame; the
renderer is responsible for right-to-left layout. A shaped word also
enumerates its width variants (ligature off, registered allographs), which
the justifier may pick between when filling a line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from . import kashida
from .errors import EmptyWord, NoGlyph
from .fontmodel import FontDescription, LigatureKind, glyph_for
from .lookups import GlyphItem, LookupKind, PlacedGlyph, apply_gsub_tracked, position_marks
from .textmodel import SHADDA_CP, CharacterTable, Cluster, analyze_joining

#: Features a conforming renderer may never disable: the linguistic
#: ligature and mark attachment itself.
ALWAYS_ON_FEATURES = frozenset({"rlig", "mark", "mkmk"})


@dataclass(frozen=True)
class WordVariant:
    """One renderable width alternative for a word."""

    id: str
    width: int
    sites: tuple[kashida.StretchSite, ...]  # stretch sites, best first
    description: tuple[str, ...]
    word: "ShapedWord"


@dataclass(frozen=True)
class ShapedWord:
    """A word's glyphs, their source clusters, and width variants."""

    glyphs: tuple[PlacedGlyph, ...]
    clusters: tuple[Cluster, ...]
    glyph_clusters: tuple[tuple[int, ...], ...]
    features: frozenset[str]
    variants: tuple[WordVariant, ...] = ()

    @property
    def natural_width(self) -> int:
        return sum(g.advance + g.elongation for g in self.glyphs)


def base_indices(word: ShapedWord) -> list[int]:
    return [i for i, g in enumerate(word.glyphs) if not g.is_mark]


def attachment_root(word: ShapedWord, index: int) -> int:
    """Follow a mark's attachment chain down to its base glyph index."""
    seen = set()
    while word.glyphs[index].is_mark:
        if index in seen:
            raise ValueError(f"attachment cycle at glyph {index}")
        seen.add(index)
        attached = word.glyphs[index].attached_to
        if attached is None:
            raise ValueError(f"mark at {index} is not attached")
        index = attached[0]
    return index


def pen_positions(word: ShapedWord) -> list[int]:
    """Pen x for every glyph: bases advance the pen, marks ride their base."""
    pens: list[int] = [0] * len(word.glyphs)
    pen = 0
    for i, g in enumerate(word.glyphs):
        if not g.is_mark:
            pens[i] = pen
            pen += g.advance + g.elongation
    for i, g in enumerate(word.glyphs):
        if g.is_mark:
            pens[i] = pens[attachment_root(word, i)]
    return pens


def _stack_order(marks):
    return sorted(marks, key=lambda m: 0 if m.code_point == SHADDA_CP else 1)


def _build_items(
    clusters: Sequence[Cluster], font: FontDescription
) -> list[GlyphItem]:
    letters = [c.base for c in clusters]
    forms = analyze_joining(letters)
    items: list[GlyphItem] = []
    for ci, (cluster, form) in enumerate(zip(clusters, forms)):
        gid = glyph_for(font, cluster.base.code_point, form)
        items.append(GlyphItem(glyph=gid, clusters=(ci,)))
        for mark in _stack_order(cluster.marks):
            mid = font.mark_cmap.get(mark.code_point)
            if mid is None:
                raise NoGlyph(f"no mark glyph mapped for U+{mark.code_point:04X}")
            items.append(GlyphItem(glyph=mid, clusters=(ci,), is_mark=True))
    return items


def _finish(
    items: Sequence[GlyphItem],
    clusters: Sequence[Cluster],
    font: FontDescription,
    feats: frozenset[str],
) -> ShapedWord:
    placed = position_marks(font, items, feats)
    return ShapedWord(
        glyphs=tuple(placed),
        clusters=tuple(clusters),
        glyph_clusters=tuple(it.clusters for it in items),
        features=feats,
    )


def shape_word(
    clusters: Sequence[Cluster],
    font: FontDescription,
    features: frozenset[str] | set[str] = frozenset(),
    table: CharacterTable | None = None,
    with_variants: bool = True,
) -> ShapedWord:
    """Shape one word at its default variant.

    ``features`` are the optional typographic treatments the caller turned
    on (for the bundled font: ``liga`` aesthetic ligatures, ``jalt`` width
    alternates, ``ss01`` expanded isolates); the linguistic ligature and
    mark attachment cannot be turned off.
    """
    if not clusters:
        raise EmptyWord("cannot shape an empty word")
    feats = frozenset(features) | ALWAYS_ON_FEATURES
    items = _build_items(clusters, font)
    # Alternate substitutions are client-choice rules: the default shape
    # keeps the nominal glyph and word_variants enumerates the alternates.
    eager_rules = [r for r in font.gsub if r.kind is not LookupKind.ALTERNATE_SUB]
    items = apply_gsub_tracked(eager_rules, items, feats)
    word = _finish(items, clusters, font, feats)
    if with_variants:
        word = replace(word, variants=word_variants(word, font))
    return word


def _reposition(
    word: ShapedWord,
    font: FontDescription,
    overrides: dict[int, str],
) -> ShapedWord:
    """Rebuild the word with some glyph ids swapped, re-running positioning."""
    items = [
        GlyphItem(
            glyph=overrides.get(i, pg.glyph),
            clusters=word.glyph_clusters[i],
            is_mark=pg.is_mark,
        )
        for i, pg in enumerate(word.glyphs)
    ]
    return _finish(items, word.clusters, font, word.features)


def word_variants(
    word: ShapedWord, font: FontDescription, features: frozenset[str] | None = None
) -> tuple[WordVariant, ...]:
    """Enumerate the word's width alternatives, default first.

    The default variant is always present. When an aesthetic ligature was
    applied, the wider unligated rendering is offered; every registered
    alternate of a glyph in the word contributes an allograph variant.
    """
    feats = word.features if features is None else frozenset(features) | ALWAYS_ON_FEATURES
    aesthetic = {
        e.glyph for e in font.ligatures if e.kind is LigatureKind.AESTHETIC
    }
    has_aesthetic = any(g.glyph in aesthetic for g in word.glyphs)

    out: list[WordVariant] = []
    seen: set[str] = set()

    def add(variant: WordVariant) -> None:
        if variant.id not in seen:
            seen.add(variant.id)
            out.append(variant)

    plain = replace(word, variants=())
    add(
        WordVariant(
            id="default",
            width=plain.natural_width,
            sites=tuple(kashida.enumerate_sites(plain, font)),
            description=("ligature_on",) if has_aesthetic else (),
            word=plain,
        )
    )

    if has_aesthetic and "liga" in feats:
        off = shape_word(
            word.clusters, font, feats - {"liga"}, with_variants=False
        )
        add(
            WordVariant(
                id="liga_off",
                width=off.natural_width,
                sites=tuple(kashida.enumerate_sites(off, font)),
                description=("ligature_off",),
                word=off,
            )
        )

    alternate_rules = [
        r
        for r in font.gsub
        if r.kind is LookupKind.ALTERNATE_SUB and r.feature in feats
    ]
    for gi, pg in enumerate(word.glyphs):
        if pg.is_mark:
            continue
        for rule in alternate_rules:
            if not rule.coverage.covers(pg.glyph):
                continue
            for alt in rule.payload[pg.glyph]:
                alt_word = _reposition(word, font, {gi: alt})
                add(
                    WordVariant(
                        id=f"alt:{gi}:{alt}",
                        width=alt_word.natural_width,
                        sites=tuple(kashida.enumerate_sites(alt_word, font)),
                        description=(f"allograph:{alt}",),
                        word=alt_word,
                    )
                )
    return tuple(out)
