"""Mark placement and resizing: filling the space a word offers.

This module computes every mark position. Shaping only decides what each
mark attaches to and emits it with zero offsets (``lookups.position_marks``).
The anchor arithmetic is here: a mark's anchor point is brought onto the
attachment point of its class on the glyph it rides (a base, one component
of a ligature, or the stacking anchor of the mark below it), so the mark's
origin is that point minus the mark's anchor.

Placement sweeps the word glyph by glyph in logical order. Each glyph's
marks first land at their default size on the glyph's attachment points
(shifted vertically by the font's mass position table). When the sweep
moves past a glyph, that glyph's marks are revisited: the gemination mark
is centered over the glyph's extended ink span, a growable vowel (Fatha or
Fathatan) picks the size variant matching the free span and is re-centered
over it, and the remaining marks are centered as well. On the word's last
glyph the growable vowel instead takes the variant keyed to the glyph's
mass class, keeping its anchor point. Marks over a ligature keep their
per-component anchors and only change size.

The free span above or below a glyph is its ink width plus any elongation,
minus whatever neighbouring glyphs' marks already project into it. A final
pass nudges overlapping same-side marks apart; gemination marks and the
stacks they carry never move, so an impossible squeeze is reported as a
diagnostic instead.

The whole computation depends only on base glyph geometry and the font
tables, never on where the marks currently sit, so running it twice gives
the same answer.

``mark_word`` finishes a word in a fixed number of linear passes, all of
which read two tables:

- per word, ``ShapedWord.tables``, built in one forward pass over the
  glyphs on first use (every mark attaches to an earlier glyph): each
  glyph's pen x, the bases, and each base's marks;
- per font, ``FontDescription.sized_marks``, built on first use: for each
  (mark, size) the glyph drawn, its side, ink x interval and anchors, and
  whether the mark is the gemination mark or growable.

Each mark is one ``PlacedMark`` through every pass: the sweep builds it,
the later passes move it in place, and ``place_diacritics`` returns it.
The passes run in this order:

1. ``_Placer.run``: the sweep above; every base that carries marks is
   placed once and revisited once.
2. The ornament hook in ``place_diacritics``: a base with no mark above
   and a free span of at least the large threshold is reported as
   ``space-available``. It reads the sweep's positions, from before
   collisions are nudged apart.
3. ``resolve_collisions``: the marks are grouped into stack units once,
   through the sweep's ``stacked_on``; each side's units are swept in
   logical order, and a nudged unit moves its marks in place.
4. ``with_marks``: one pass writes the glyph tuple, each mark's glyph from
   its ``PlacedMark``'s size, with no font lookup. Marks move no pen and
   change no attachment, so the finished word shares the word's tables.
"""

from __future__ import annotations

from typing import Sequence

from .errors import Diagnostic, Severity
from .fontmodel import FontDescription, SizedMark, SizeVariant
from .lookups import PlacedGlyph
from .shaper import ShapedWord
from .textmodel import Placement

#: The least clearance between neighbouring same-side marks, in font units,
#: unless a caller gives another.
GAP_EPSILON = 10


def select_size_variant(gap: int, t_medium: int, t_large: int) -> SizeVariant:
    """Size for a growable mark given the free span; thresholds inclusive."""
    if gap >= t_large:
        return SizeVariant.LARGE
    if gap >= t_medium:
        return SizeVariant.MEDIUM
    return SizeVariant.NORMAL


class PlacedMark:
    """One mark, from the placement sweep to the finished word.

    ``index`` is the mark's slot in the shaped word and ``owner`` the base
    at the root of its attachment chain. ``mark`` is the canonical mark id
    (the normal-size glyph); ``variant`` is the size it is drawn at and
    ``sized`` the mark at that size, whose glyph is the one drawn.
    ``anchor_x``/``anchor_y`` is the point it attaches to and ``x``/``y``
    its origin, both in the word's frame; the passes move them in place.
    """

    __slots__ = (
        "index", "owner", "mark", "sized", "stacked_on", "anchor_x", "anchor_y",
        "x", "y", "variant",
    )

    def __init__(
        self,
        index: int,
        owner: int,
        mark: str,
        sized: SizedMark,
        stacked_on: int | None,
        anchor_x: int,
        anchor_y: int,
        x: int,
        y: int,
    ) -> None:
        self.index = index
        self.owner = owner
        self.mark = mark
        self.sized = sized
        self.stacked_on = stacked_on
        self.anchor_x = anchor_x
        self.anchor_y = anchor_y
        self.x = x
        self.y = y
        self.variant = SizeVariant.NORMAL


def _stack_point(lower: PlacedMark) -> tuple[int, int]:
    """Where a mark stacked on ``lower`` attaches: ``lower``'s origin plus
    its stacking anchor at its current size."""
    stack = lower.sized.stack_anchor
    return lower.x + stack.x, lower.y + stack.y


class _Placer:
    def __init__(self, word: ShapedWord, font: FontDescription):
        self.word = word
        self.font = font
        tables = word.tables
        self.pens = tables.pens
        self.bases = tables.bases
        self.marks_of = tables.marks_of
        self.states: dict[int, PlacedMark] = {}
        # Each base's ink x span, elongation included, by its place in ``bases``.
        self.spans: list[tuple[int, int]] = []
        for base_i in self.bases:
            pg = word.glyphs[base_i]
            ink = font.glyphs[pg.glyph].ink
            x = self.pens[base_i] + pg.x_offset
            self.spans.append((x + ink.x_min, x + ink.x_max + pg.elongation))

    def default_place(self, base_i: int) -> None:
        word, font, states = self.word, self.font, self.states
        glyphs = word.glyphs
        base = glyphs[base_i]
        metrics = font.glyphs[base.glyph]
        ligature = font.ligature_by_glyph.get(base.glyph)
        base_x = self.pens[base_i] + base.x_offset
        for mi in self.marks_of[base_i]:
            pg = glyphs[mi]
            mark_id = font.mark_sizes[pg.glyph][0]
            sized = font.sized_mark(mark_id, SizeVariant.NORMAL)
            attached = pg.attached_to
            stacked_on = None
            if attached is not None and glyphs[attached[0]].is_mark:
                stacked_on = attached[0]

            # Shaping checked that every anchor read here exists.
            if stacked_on is not None:
                ax, ay = _stack_point(states[stacked_on])
            else:
                side = sized.side
                if ligature is not None:
                    cluster = word.glyph_clusters[mi][0]
                    component = word.glyph_clusters[base_i].index(cluster)
                    anchor = ligature.component_anchors[component][side]
                else:
                    anchor = metrics.anchors[side]
                ax = base_x + anchor.x
                ay = base.y_offset + anchor.y + font.mass_offset(metrics.mass_class, side)

            states[mi] = PlacedMark(
                mi, base_i, mark_id, sized, stacked_on, ax, ay,
                ax - sized.anchor.x, ay - sized.anchor.y,
            )

    def gap(self, k: int, side: Placement) -> int:
        """The ``k``-th base glyph's ink span, elongation included, minus
        the ``side`` ink that its neighbouring bases' marks, as placed so
        far, project into it."""
        lo, hi = self.spans[k]
        bases, marks_of, states = self.bases, self.marks_of, self.states
        covered = 0
        for p in (k - 1, k + 1):
            if not 0 <= p < len(bases):
                continue
            for mi in marks_of[bases[p]]:
                state = states.get(mi)
                if state is None or state.sized.side is not side:
                    continue
                x, sized = state.x, state.sized
                covered += max(0, min(hi, x + sized.ink_hi) - max(lo, x + sized.ink_lo))
        return max(0, hi - lo - covered)

    def revisit(self, k: int, final: bool) -> None:
        """Re-place the ``k``-th base glyph's marks once its right-hand
        context is known."""
        font, states = self.font, self.states
        thresholds = font.size_thresholds
        base_i = self.bases[k]
        base = self.word.glyphs[base_i]
        # On the last glyph and over a ligature a mark keeps its attachment
        # point; the variant's own anchor decides how its ink spreads.
        keep_anchor = final or base.glyph in font.ligature_by_glyph
        lo, hi = self.spans[k]
        mid = (lo + hi) // 2

        indices = self.marks_of[base_i]
        if len(indices) > 1:
            indices = sorted(
                indices,
                key=lambda mi: (
                    0 if states[mi].sized.shadda
                    else 1 if states[mi].sized.elongatable
                    else 2,
                    mi,
                ),
            )
        for mi in indices:
            state = states[mi]
            if state.sized.elongatable:
                if final:
                    variant = font.mass_variant(font.glyphs[base.glyph].mass_class)
                else:
                    free = self.gap(k, state.sized.side)
                    variant = select_size_variant(free, thresholds.medium, thresholds.large)
                state.variant = variant
                state.sized = font.sized_mark(state.mark, variant)
            elif final:
                continue
            anchor = state.sized.anchor
            if state.stacked_on is not None:
                state.anchor_x, state.anchor_y = _stack_point(states[state.stacked_on])
                state.x = state.anchor_x - anchor.x
            elif keep_anchor:
                state.x = state.anchor_x - anchor.x
            else:
                state.x = mid - anchor.x
            state.y = state.anchor_y - anchor.y

    def run(self) -> None:
        # A base without marks has nothing to place or revisit.
        bases, marks_of = self.bases, self.marks_of
        for k, base_i in enumerate(bases):
            if marks_of[base_i]:
                self.default_place(base_i)
            if k > 0 and marks_of[bases[k - 1]]:
                self.revisit(k - 1, final=False)
        if bases and marks_of[bases[-1]]:
            self.revisit(len(bases) - 1, final=True)


class _StackUnit:
    """Marks that move together: a mark on base ``owner`` and the marks
    stacked on it, with their joint ink x interval [``lo``, ``hi``].
    ``side`` is the side of the unit's first mark; a ``pinned`` unit
    carries a gemination mark, so it never moves; ``dx`` is its nudge."""

    __slots__ = ("states", "owner", "side", "lo", "hi", "pinned", "dx")

    def __init__(self, state: PlacedMark, lo: int, hi: int) -> None:
        self.states = [state]
        self.owner = state.owner
        self.side = state.sized.side
        self.lo = lo
        self.hi = hi
        self.pinned = state.sized.shadda
        self.dx = 0


_SIDES = (Placement.ABOVE, Placement.BELOW, Placement.THROUGH)


def resolve_collisions(
    states: dict[int, PlacedMark],
    word: ShapedWord,
    font: FontDescription,
    gap_epsilon: int = GAP_EPSILON,
) -> list[Diagnostic]:
    """Nudge overlapping same-side marks apart by a minimal x shift,
    moving the sweep's ``states`` (keyed by glyph index) in place.

    Precondition: ``states`` is in glyph order. The sweep fills it base by
    base, and a base's marks lie between it and the next base, so its keys
    ascend and a mark comes after the mark it is ``stacked_on``.

    A stacked mark moves with its carrier: marks are grouped into stack
    units once, each led by its lowest mark, and each side's units are
    swept in logical order, the order in which they are built. Gemination
    marks, and any stack carrying one, never move. When neither of an
    overlapping pair may move, or the needed shift exceeds the mark's owner
    ink span, the overlap is reported and left in place.
    """
    by_side: dict[Placement, list[_StackUnit]] = {side: [] for side in _SIDES}
    unit_of: dict[int, _StackUnit] = {}
    for mi, state in states.items():
        sized = state.sized
        lo, hi = state.x + sized.ink_lo, state.x + sized.ink_hi
        if state.stacked_on is None:
            unit = unit_of[mi] = _StackUnit(state, lo, hi)
            by_side[unit.side].append(unit)
        else:
            unit = unit_of[mi] = unit_of[state.stacked_on]
            unit.states.append(state)
            unit.lo, unit.hi = min(unit.lo, lo), max(unit.hi, hi)
            unit.pinned = unit.pinned or sized.shadda

    diagnostics: list[Diagnostic] = []
    for side_units in by_side.values():
        for left, right in zip(side_units, side_units[1:]):
            overlap = left.hi + left.dx - (right.lo + right.dx)
            if overlap <= 0:
                continue
            shift = overlap + gap_epsilon
            if not right.pinned:
                target, dx = right, shift
            elif not left.pinned:
                target, dx = left, -shift
            else:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="unresolvable-overlap",
                        message=(
                            f"marks around glyphs {left.owner} and "
                            f"{right.owner} overlap by {overlap} and neither may move"
                        ),
                        location=(left.owner, right.owner),
                    )
                )
                continue
            owner = target.owner
            owner_glyph = word.glyphs[owner]
            span = font.glyphs[owner_glyph.glyph].ink.width + owner_glyph.elongation
            if shift > span:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="unresolvable-overlap",
                        message=(
                            f"required shift {shift} exceeds the ink span {span} "
                            f"of glyph {owner}"
                        ),
                        location=(owner,),
                    )
                )
                continue
            target.dx += dx
            for state in target.states:
                state.x += dx
    return diagnostics


def place_diacritics(
    word: ShapedWord,
    font: FontDescription,
    gap_epsilon: int = GAP_EPSILON,
) -> tuple[list[PlacedMark], list[Diagnostic]]:
    """Position and size every mark of a shaped word.

    Returns the placed marks (in the word's mark order) plus diagnostics:
    unresolvable overlaps, then free-space annotations where an ornamental
    mark could be inserted.
    """
    placer = _Placer(word, font)
    placer.run()
    states = placer.states

    # Ornament hook: report spans wide enough for a large mark but empty,
    # as the sweep left them, before collisions are nudged apart. A span
    # is never wider than its glyph, so narrow glyphs are skipped at once.
    large = font.size_thresholds.large
    ornaments = []
    for k, (lo, hi) in enumerate(placer.spans):
        base_i = placer.bases[k]
        if hi - lo < large or any(
            states[mi].sized.side is Placement.ABOVE
            for mi in placer.marks_of[base_i]
        ):
            continue
        free = placer.gap(k, Placement.ABOVE)
        if free >= large:
            ornaments.append(
                Diagnostic(
                    severity=Severity.INFO,
                    code="space-available",
                    message=f"glyph {base_i} offers {free} units of unused space above",
                    location=(base_i,),
                )
            )

    diagnostics = resolve_collisions(states, word, font, gap_epsilon)
    return list(states.values()), diagnostics + ornaments


def with_marks(word: ShapedWord, marks: Sequence[PlacedMark]) -> ShapedWord:
    """Write placed marks back into the word's glyph string."""
    pens = word.tables.pens
    glyphs = list(word.glyphs)
    for m in marks:
        pg = glyphs[m.index]
        # Built unchecked: only the glyph id and offsets of a checked mark
        # glyph change, and ``_check`` reads neither.
        glyphs[m.index] = tuple.__new__(
            PlacedGlyph,
            (m.sized.glyph, pg.advance, m.x - pens[m.owner], m.y, pg.elongation,
             pg.attached_to, pg.is_mark),
        )
    marked = ShapedWord(tuple(glyphs), word.clusters, word.glyph_clusters, word.features)
    # Marks move no pen and change no attachment: the tables carry over.
    marked.__dict__["tables"] = word.tables
    return marked


def mark_word(
    word: ShapedWord, font: FontDescription, gap_epsilon: int
) -> tuple[ShapedWord, list[Diagnostic]]:
    """Place and size a finished word's marks and write them into it.

    Diagnostic locations are relative to the word; ``at_word`` puts the
    word's index in front of them.
    """
    marks, diagnostics = place_diacritics(word, font, gap_epsilon=gap_epsilon)
    return with_marks(word, marks), diagnostics


def at_word(diagnostics: Sequence[Diagnostic], index: int) -> list[Diagnostic]:
    """``mark_word``'s diagnostics located at word ``index``: a word that
    recurs is marked once, and each occurrence reports at its own index."""
    return [
        Diagnostic(d.severity, d.code, d.message, (index, *d.location))
        for d in diagnostics
    ]
