"""Word shaping: from clusters to positioned glyphs.

Shaping runs the classic pipeline: joining analysis picks each letter's
contextual form, the character map yields glyph ids, substitution rules
rewrite the glyph string (the LamAlef ligature is linguistic and always
on; aesthetic ligatures only when their feature is enabled; alternates
only in width variants), and positioning rules decide what each mark
attaches to. Marks leave shaping with zero offsets;
``diacritics.mark_word`` places them.

Glyphs are stored in logical order with offsets in a logical frame; the
renderer is responsible for right-to-left layout. ``word_variants``
enumerates a shaped word's width variants (ligature off, registered
allographs) for the justifier, which may pick between them when filling a
line; only a caller that reads them builds them, and ``default_variant``
builds the first alone.

``shape_words`` shapes a paragraph with one memo for that call: a word
that recurs is shaped once and every occurrence shares the result.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

from . import kashida
from .errors import EmptyWord, NoGlyph
from .fontmodel import FontDescription, glyph_for
from .lookups import GlyphItem, PlacedGlyph, apply_gsub_tracked, position_marks
from .textmodel import SHADDA_CP, Cluster, analyze_joining

#: Features a conforming renderer may never disable: the linguistic
#: ligature and mark attachment itself.
ALWAYS_ON_FEATURES = frozenset({"rlig", "mark", "mkmk"})


class WordVariant(NamedTuple):
    """One renderable width alternative for a word. ``id`` names it:
    ``default``, ``liga_off``, or ``alt:{glyph index}:{alternate glyph}``."""

    id: str
    width: int
    sites: tuple[kashida.StretchSite, ...]  # stretch sites, best first
    word: "ShapedWord"


class _ShapedWordFields(NamedTuple):
    glyphs: tuple[PlacedGlyph, ...]
    clusters: tuple[Cluster, ...]
    glyph_clusters: tuple[tuple[int, ...], ...]
    features: frozenset[str]


class ShapedWord(_ShapedWordFields):
    """A word's glyphs and their source clusters.

    A subclass of its fields, so that it has a ``__dict__`` for ``tables``,
    which are built on first use.
    """

    @property
    def natural_width(self) -> int:
        return sum(g.advance + g.elongation for g in self.glyphs)

    @cached_property
    def tables(self) -> "WordTables":
        """The word's pen and mark tables, built on first use."""
        return word_tables(self)


class WordTables(NamedTuple):
    """Facts of a word's glyph string that every mark pass reads.

    ``pens`` and ``marks_of`` have one entry per glyph: a mark rides the
    pen of the base at the root of its attachment chain, and ``marks_of``
    lists the marks whose root a base is, in order. ``bases`` lists the
    base glyph indices in order. Every mark attaches to an earlier glyph
    (``position_marks`` keeps that contract), so one forward pass builds
    them. Every table holds only ints, so the garbage collector soon stops
    tracking them and a finished word carries them cheaply.
    """

    pens: tuple[int, ...]
    bases: tuple[int, ...]
    marks_of: tuple[tuple[int, ...], ...]


def word_tables(word: ShapedWord) -> WordTables:
    """Build a word's ``WordTables`` in one forward pass over its glyphs:
    a mark takes the root of the earlier glyph it attaches to."""
    glyphs = word.glyphs
    roots = list(range(len(glyphs)))
    pens = [0] * len(glyphs)
    bases: list[int] = []
    marks_of: list[tuple[int, ...]] = [()] * len(glyphs)
    pen = 0
    for i, g in enumerate(glyphs):
        if g.is_mark:
            root = roots[i] = roots[g.attached_to[0]]
            pens[i] = pens[root]
            marks_of[root] += (i,)
        else:
            bases.append(i)
            pens[i] = pen
            pen += g.advance + g.elongation
    return WordTables(tuple(pens), tuple(bases), tuple(marks_of))


def _stack_order(marks):
    return sorted(marks, key=lambda m: 0 if m.code_point == SHADDA_CP else 1)


def _build_items(
    clusters: Sequence[Cluster], font: FontDescription
) -> list[GlyphItem]:
    forms = analyze_joining([c.base for c in clusters])
    cmap, mark_cmap = font.cmap, font.mark_cmap
    items: list[GlyphItem] = []
    for ci, (cluster, form) in enumerate(zip(clusters, forms)):
        cp = cluster.base.code_point
        gid = cmap.get((cp, form)) or glyph_for(font, cp, form)
        items.append(GlyphItem(gid, (ci,), False))
        marks = cluster.marks
        for mark in _stack_order(marks) if len(marks) > 1 else marks:
            mid = mark_cmap.get(mark.code_point)
            if mid is None:
                raise NoGlyph(f"no mark glyph mapped for U+{mark.code_point:04X}")
            items.append(GlyphItem(mid, (ci,), True))
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
    items = apply_gsub_tracked(font.gsub, _build_items(clusters, font), feats)
    return _finish(items, clusters, font, feats)


def shape_words(
    clusters_per_word: Sequence[Sequence[Cluster]],
    font: FontDescription,
    features: frozenset[str] | set[str],
) -> list[ShapedWord]:
    """Shape a paragraph's words, each distinct word once.

    Words made of the same ``Cluster`` objects share one ``ShapedWord``.
    ``decompose`` interns clusters, so every repeat of a word in its
    output is such a word. The memo is keyed by the clusters' ids; each
    ``ShapedWord`` it holds keeps its clusters alive, so no id is reused
    while the memo lives, which is only for this call.
    """
    shaped: dict[tuple[int, ...], ShapedWord] = {}
    out = []
    for clusters in clusters_per_word:
        key = tuple(map(id, clusters))
        word = shaped.get(key)
        if word is None:
            word = shaped[key] = shape_word(clusters, font, features)
        out.append(word)
    return out


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


def default_variant(word: ShapedWord, font: FontDescription) -> WordVariant:
    """The word as shaped, as a width variant: the first of ``word_variants``."""
    return WordVariant(
        id="default",
        width=word.natural_width,
        sites=tuple(kashida.enumerate_sites(word, font)),
        word=word,
    )


def word_variants(word: ShapedWord, font: FontDescription) -> tuple[WordVariant, ...]:
    """Enumerate the word's width alternatives, default first.

    The default variant is always present. When an aesthetic ligature was
    applied, the wider unligated rendering is offered; every registered
    alternate of a glyph in the word contributes an allograph variant.
    """
    out: list[WordVariant] = []
    seen: set[str] = set()

    def add(variant: WordVariant) -> None:
        if variant.id not in seen:
            seen.add(variant.id)
            out.append(variant)

    add(default_variant(word, font))
    aesthetic = font.aesthetic_ligatures
    if "liga" in word.features and any(g.glyph in aesthetic for g in word.glyphs):
        off = shape_word(word.clusters, font, word.features - {"liga"})
        add(
            WordVariant(
                id="liga_off",
                width=off.natural_width,
                sites=tuple(kashida.enumerate_sites(off, font)),
                word=off,
            )
        )

    alternate_rules = [r for r in font.alternate_gsub if r.feature in word.features]
    for gi, pg in enumerate(word.glyphs):
        if pg.is_mark:
            continue
        for rule in alternate_rules:
            if pg.glyph not in rule.coverage:
                continue
            for alt in rule.payload[pg.glyph]:
                alt_word = _reposition(word, font, {gi: alt})
                add(
                    WordVariant(
                        id=f"alt:{gi}:{alt}",
                        width=alt_word.natural_width,
                        sites=tuple(kashida.enumerate_sites(alt_word, font)),
                        word=alt_word,
                    )
                )
    return tuple(out)
