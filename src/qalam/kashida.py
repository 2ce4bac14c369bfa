"""Elongation planning: where a word may stretch and by how much.

A stretch site is a glyph whose letter is elongatable (stretch class above
zero) and whose glyph carries spare extension capacity. A site's
``rank`` is the font's priority for the letter's stretch class; sites
are ordered by rank, ties broken toward the end of the word, where the
connecting stroke is traditionally drawn out. An explicit elongation
character typed in the input raises its cluster's site above any unhinted
one; on letters that can never stretch the hint is ignored.

Three allocation policies (``POLICIES``): ``single_site`` pours the whole
deficit into the best site (one elongation per word, the calligraphic
default), ``spread`` cascades across sites best first, and ``off`` never
elongates. ``allocate`` places ``min(deficit, word_capacity(...))`` units
and returns them as ``Spans``, the one form an elongation takes from
allocation through line breaking to ``apply_plan``.

Only ``enumerate_sites`` reads the font; capacity, allocation and
application all take the word's enumerated sites. Each site also records
where its elongation starts in the word (``StretchSite.x``), so that a
line breaker can place elongations without reading glyphs or the font.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import CapacityExceeded

if TYPE_CHECKING:
    from .fontmodel import FontDescription
    from .shaper import ShapedWord


#: Rank boost for sites the author marked with an explicit elongation
#: character; an explicit hint outranks any stretch class.
HINT_BOOST = 1000

#: The elongation policies, by the name ``JustifyParams.kashida_policy`` takes.
POLICIES = ("single_site", "spread", "off")


class StretchSite(NamedTuple):
    """A glyph that may elongate, and where in its word the elongation starts.

    ``x`` is measured in the unstretched word: the pen before the glyph
    (advances of the base glyphs before it), plus the glyph's ``x_offset``,
    plus its ink's right edge. An elongation at an earlier site of the same
    word moves it right by that elongation.
    """

    glyph_index: int
    capacity: int
    rank: int  # the font's priority for the stretch class, plus any hint boost
    x: int


#: A word's elongations in glyph order, as (glyph index, where the
#: elongation starts in the unstretched word, units) spans.
Spans = tuple[tuple[int, int, int], ...]


def enumerate_sites(word: "ShapedWord", font: "FontDescription") -> list[StretchSite]:
    """Legal elongation sites, best first."""
    sites = []
    pen = 0
    for gi, placed in enumerate(word.glyphs):
        if placed.is_mark:
            continue
        x = pen
        pen += placed.advance
        glyph = font.glyphs[placed.glyph]
        capacity = glyph.max_extension
        if capacity <= 0:
            continue
        stretch_class = max(
            (word.clusters[ci].base.stretch_class for ci in word.glyph_clusters[gi]),
            default=0,
        )
        if stretch_class <= 0:
            continue
        rank = font.kashida_priority.get(stretch_class, stretch_class)
        if any(word.clusters[ci].stretch_hint for ci in word.glyph_clusters[gi]):
            rank += HINT_BOOST
        sites.append(
            StretchSite(
                glyph_index=gi,
                capacity=capacity,
                rank=rank,
                x=x + placed.x_offset + glyph.ink.x_max,
            )
        )
    sites.sort(key=lambda s: (s.rank, s.glyph_index), reverse=True)
    return sites


def _policy_sites(
    sites: Sequence[StretchSite], policy: str
) -> Sequence[StretchSite]:
    """The sites an elongation policy may use, best first."""
    if policy not in POLICIES:
        raise ValueError(f"unknown elongation policy {policy!r}")
    if policy == "single_site":
        return sites[:1]
    return sites if policy == "spread" else ()


def word_capacity(sites: Sequence[StretchSite], policy: str) -> int:
    """Total elongation a word with these stretch sites can absorb under a policy."""
    return sum(s.capacity for s in _policy_sites(sites, policy))


def allocate(sites: Sequence[StretchSite], deficit: int, policy: str) -> Spans:
    """Distribute a width deficit over a word's stretch sites, as spans in
    glyph order; what exceeds the policy's capacity is not placed."""
    if deficit < 0:
        raise ValueError("deficit must be >= 0")
    spans = []
    remaining = deficit
    for site in _policy_sites(sites, policy):
        if remaining == 0:
            break
        take = min(remaining, site.capacity)
        if take:
            spans.append((site.glyph_index, site.x, take))
        remaining -= take
    return tuple(sorted(spans))


def apply_plan(
    word: "ShapedWord", spans: Spans, sites: Sequence[StretchSite]
) -> "ShapedWord":
    """Materialize a word's elongation spans on the shaped word.

    Elongation widens the stretched glyph's advance and nothing else; the
    marks over a stretched glyph are re-placed by ``diacritics``.
    """
    if not spans:
        return word
    capacities = {s.glyph_index: s.capacity for s in sites}
    new_glyphs = list(word.glyphs)
    for gi, _, amount in spans:
        if amount < 0:
            raise CapacityExceeded(f"negative elongation at glyph {gi}")
        if amount > capacities.get(gi, 0):
            raise CapacityExceeded(
                f"{amount} units at glyph {gi} exceeds capacity {capacities.get(gi, 0)}"
            )
        new_glyphs[gi] = new_glyphs[gi]._replace(elongation=amount)
    return word._replace(glyphs=tuple(new_glyphs))
