"""Elongation planning: where a word may stretch and by how much.

A stretch site is a glyph whose letter is elongatable (stretch class above
zero) and whose glyph carries spare extension capacity. Sites are ranked
by the font's priority table for the letter's stretch class, ties broken
toward the end of the word, where the connecting stroke is traditionally
drawn out. An explicit elongation character typed in the input marks its
cluster's site as preferred over any unhinted one; on letters that can
never stretch the hint is ignored.

Two allocation policies: ``single_site`` pours the whole deficit into the
best site (one elongation per word, the calligraphic default) and
``spread`` cascades across sites in priority order. Whatever cannot be
placed is returned as the residual, so allocations plus residual always
equal the requested deficit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .errors import CapacityExceeded

if TYPE_CHECKING:
    from .fontmodel import FontDescription
    from .shaper import ShapedWord


#: Rank boost for sites the author marked with an explicit elongation
#: character; an explicit hint outranks any stretch class.
HINT_BOOST = 1000


@dataclass(frozen=True)
class StretchSite:
    glyph_index: int
    capacity: int
    priority: tuple[int, int]  # (stretch-class rank, position weight)


@dataclass(frozen=True)
class ElongationPlan:
    allocations: dict[int, int]
    residual: int


def enumerate_sites(word: "ShapedWord", font: "FontDescription") -> list[StretchSite]:
    """Legal elongation sites, best first."""
    sites = []
    for gi, placed in enumerate(word.glyphs):
        if placed.is_mark:
            continue
        capacity = font.glyphs[placed.glyph].max_extension
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
        sites.append(StretchSite(glyph_index=gi, capacity=capacity, priority=(rank, gi)))
    sites.sort(key=lambda s: s.priority, reverse=True)
    return sites


def word_capacity(
    word: "ShapedWord",
    font: "FontDescription",
    policy: str = "spread",
    sites: Sequence[StretchSite] | None = None,
) -> int:
    """Total elongation a word can absorb under a policy.

    ``sites`` may pass the word's already enumerated stretch sites;
    ``justify`` passes each ``WordVariant.sites`` this way.
    """
    if sites is None:
        sites = enumerate_sites(word, font)
    if not sites:
        return 0
    if policy == "single_site":
        return sites[0].capacity
    return sum(s.capacity for s in sites)


def allocate(
    word: "ShapedWord",
    deficit: int,
    policy: str = "single_site",
    font: "FontDescription | None" = None,
    sites: Sequence[StretchSite] | None = None,
) -> ElongationPlan:
    """Distribute a width deficit over the word's stretch sites."""
    if deficit < 0:
        raise ValueError("deficit must be >= 0")
    if sites is None:
        if font is None:
            raise ValueError("allocate needs either a font or precomputed sites")
        sites = enumerate_sites(word, font)
    allocations: dict[int, int] = {}
    remaining = deficit
    if deficit > 0 and sites:
        if policy == "single_site":
            take = min(remaining, sites[0].capacity)
            if take:
                allocations[sites[0].glyph_index] = take
            remaining -= take
        elif policy == "spread":
            for site in sites:
                if remaining == 0:
                    break
                take = min(remaining, site.capacity)
                if take:
                    allocations[site.glyph_index] = take
                remaining -= take
        else:
            raise ValueError(f"unknown elongation policy {policy!r}")
    return ElongationPlan(allocations=allocations, residual=remaining)


def apply_plan(
    word: "ShapedWord", plan: ElongationPlan, font: "FontDescription"
) -> "ShapedWord":
    """Materialize an elongation plan on a shaped word.

    Elongation widens the stretched glyph's advance; marks riding a
    stretched glyph slide to the midpoint of its extended ink span so they
    keep covering the stroke.
    """
    if not plan.allocations:
        return word
    capacities = {s.glyph_index: s.capacity for s in enumerate_sites(word, font)}
    for gi, amount in plan.allocations.items():
        if amount < 0:
            raise CapacityExceeded(f"negative elongation at glyph {gi}")
        if amount > capacities.get(gi, 0):
            raise CapacityExceeded(
                f"{amount} units at glyph {gi} exceeds capacity {capacities.get(gi, 0)}"
            )

    new_glyphs = list(word.glyphs)
    for gi, amount in plan.allocations.items():
        new_glyphs[gi] = replace(new_glyphs[gi], elongation=amount)

    # Re-center marks whose attachment root was stretched.
    from .diacritics import recentered_offset
    from .shaper import attachment_root

    for idx, pg in enumerate(word.glyphs):
        if not pg.is_mark:
            continue
        root = attachment_root(word, idx)
        amount = plan.allocations.get(root, 0)
        if amount == 0:
            continue
        base = new_glyphs[root]
        if pg.attached_to is not None and word.glyphs[pg.attached_to[0]].is_mark:
            # Stacked marks are re-derived from their carrier in the second pass.
            continue
        metrics = font.glyphs[base.glyph]
        mark = font.marks[pg.glyph]
        new_glyphs[idx] = replace(
            pg, x_offset=recentered_offset(base, metrics, mark.anchor.x)
        )
    # Second pass: stacked marks ride the shifted carrier.
    for idx, pg in enumerate(word.glyphs):
        if not pg.is_mark or pg.attached_to is None:
            continue
        lower_idx = pg.attached_to[0]
        if not word.glyphs[lower_idx].is_mark:
            continue
        root = attachment_root(word, idx)
        if plan.allocations.get(root, 0) == 0:
            continue
        lower = new_glyphs[lower_idx]
        lower_mark = font.marks[lower.glyph]
        upper_mark = font.marks[pg.glyph]
        new_glyphs[idx] = replace(
            pg,
            x_offset=lower.x_offset + lower_mark.stack_anchor.x - upper_mark.anchor.x,
        )

    return replace(word, glyphs=tuple(new_glyphs))
