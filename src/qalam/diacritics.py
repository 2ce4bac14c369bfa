"""Mark placement and resizing: filling the space a word offers.

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .errors import Diagnostic, MissingAnchor, Severity
from .fontmodel import FontDescription, GlyphMetrics, MarkGlyph, SizeVariant
from .shaper import ShapedWord, attachment_root, base_indices, pen_positions
from .textmodel import ELONGATABLE_MARKS, SHADDA_CP, Placement


@dataclass(frozen=True)
class PlacedMark:
    """A mark's final identity, size, and absolute position in the word.

    ``mark`` is the canonical mark id (the normal-size glyph); the glyph
    actually drawn is the mark's variant. ``glyph_index`` points back at
    the mark's slot in the shaped word.
    """

    mark: str
    variant: SizeVariant
    offset: tuple[int, int]
    owner: int
    glyph_index: int


@dataclass(frozen=True)
class GapMeasure:
    """Free horizontal span over (or under) one glyph, in font units."""

    owner: int
    width: int


def select_size_variant(gap: int, t_medium: int, t_large: int) -> SizeVariant:
    """Size for a growable mark given the free span; thresholds inclusive."""
    if gap >= t_large:
        return SizeVariant.LARGE
    if gap >= t_medium:
        return SizeVariant.MEDIUM
    return SizeVariant.NORMAL


@dataclass
class _MarkState:
    glyph_index: int
    mark_id: str
    side: Placement
    stacked_on: int | None
    anchor_x: int
    anchor_y: int
    x: int
    y: int
    variant: SizeVariant = SizeVariant.NORMAL


class _Placer:
    def __init__(self, word: ShapedWord, font: FontDescription):
        self.word = word
        self.font = font
        self.pens = pen_positions(word)
        self.bases = base_indices(word)
        self.mark_sizes = font.mark_sizes
        self.mark_cps = font.mark_codepoints
        self.states: dict[int, _MarkState] = {}
        self.marks_of: dict[int, list[int]] = {}
        for i, g in enumerate(word.glyphs):
            if g.is_mark:
                self.marks_of.setdefault(attachment_root(word, i), []).append(i)

    # -- geometry helpers --------------------------------------------------

    def _owner_metrics(self, base_i: int) -> GlyphMetrics:
        return self.font.glyphs[self.word.glyphs[base_i].glyph]

    def _span(self, base_i: int) -> tuple[int, int]:
        pg = self.word.glyphs[base_i]
        ink = self._owner_metrics(base_i).ink
        lo = self.pens[base_i] + pg.x_offset + ink.x_min
        return lo, lo + ink.width + pg.elongation

    def _variant_mark(self, state: _MarkState) -> MarkGlyph:
        return self.font.marks[self.font.variant_glyph(state.mark_id, state.variant)]

    def _is_shadda(self, state: _MarkState) -> bool:
        return self.mark_cps.get(state.mark_id) == SHADDA_CP

    def _is_elongatable(self, state: _MarkState) -> bool:
        return self.mark_cps.get(state.mark_id) in ELONGATABLE_MARKS

    def _default_anchor(self, base_i: int, mark: MarkGlyph, mark_id: str) -> tuple[int, int]:
        """Absolute attachment point for a mark on a plain base glyph."""
        word = self.word
        pg = word.glyphs[base_i]
        anchor = self._owner_metrics(base_i).anchors.get(mark.attachment_class)
        if anchor is None:
            raise MissingAnchor(
                f"{pg.glyph} has no {mark.attachment_class.value!r} anchor for {mark_id}"
            )
        dy = self.font.mass_offset(self._owner_metrics(base_i).mass_class, mark.attachment_class)
        x = self.pens[base_i] + pg.x_offset + anchor.x
        y = pg.y_offset + anchor.y + dy
        return x, y

    # -- phases -------------------------------------------------------------

    def default_place(self, base_i: int) -> None:
        word, font = self.word, self.font
        for mi in self.marks_of.get(base_i, []):
            pg = word.glyphs[mi]
            mark_id = self.mark_sizes[pg.glyph][0]
            mark = font.marks[mark_id]
            attached = pg.attached_to
            stacked_on = None
            if attached is not None and word.glyphs[attached[0]].is_mark:
                stacked_on = attached[0]

            if stacked_on is not None:
                lower = self.states[stacked_on]
                lower_mark = self._variant_mark(lower)
                if lower_mark.stack_anchor is None:
                    raise MissingAnchor(f"{lower.mark_id} has no stacking anchor")
                ax = lower.x + lower_mark.stack_anchor.x
                ay = lower.y + lower_mark.stack_anchor.y
            else:
                owner_glyph = word.glyphs[base_i].glyph
                entry = font.ligature_by_glyph.get(owner_glyph)
                if entry is not None:
                    cluster = word.glyph_clusters[mi][0]
                    component = word.glyph_clusters[base_i].index(cluster)
                    anchor = entry.component_anchors[component].get(mark.attachment_class)
                    if anchor is None:
                        raise MissingAnchor(
                            f"{owner_glyph} component {component} has no "
                            f"{mark.attachment_class.value!r} anchor"
                        )
                    dy = self.font.mass_offset(
                        self._owner_metrics(base_i).mass_class, mark.attachment_class
                    )
                    ax = self.pens[base_i] + word.glyphs[base_i].x_offset + anchor.x
                    ay = word.glyphs[base_i].y_offset + anchor.y + dy
                else:
                    ax, ay = self._default_anchor(base_i, mark, mark_id)

            self.states[mi] = _MarkState(
                glyph_index=mi,
                mark_id=mark_id,
                side=mark.attachment_class,
                stacked_on=stacked_on,
                anchor_x=ax,
                anchor_y=ay,
                x=ax - mark.anchor.x,
                y=ay - mark.anchor.y,
                variant=SizeVariant.NORMAL,
            )

    def free_span(
        self,
        base_i: int,
        side: Placement,
        mark_ink: Callable[[int], tuple[Placement, int, int] | None],
    ) -> int:
        """A base glyph's ink span, elongation included, minus the ``side``
        ink its neighbouring bases' marks project into it.

        ``mark_ink(i)`` gives mark ``i``'s side and absolute ink x interval,
        or None for a mark that has no position yet.
        """
        lo, hi = self._span(base_i)
        pos = self.bases.index(base_i)
        neighbours = [self.bases[p] for p in (pos - 1, pos + 1) if 0 <= p < len(self.bases)]
        covered = 0
        for nb in neighbours:
            for mi in self.marks_of.get(nb, []):
                ink = mark_ink(mi)
                if ink is None or ink[0] is not side:
                    continue
                covered += max(0, min(hi, ink[2]) - max(lo, ink[1]))
        return max(0, hi - lo - covered)

    def _placed_ink(self, mi: int) -> tuple[Placement, int, int] | None:
        state = self.states.get(mi)
        if state is None:
            return None
        ink = self._variant_mark(state).ink
        return state.side, state.x + ink.x_min, state.x + ink.x_max

    def gap(self, base_i: int, side: Placement) -> int:
        """Free span over a glyph given the marks placed so far."""
        return self.free_span(base_i, side, self._placed_ink)

    def _restack(self, state: _MarkState) -> None:
        lower = self.states[state.stacked_on]
        lower_mark = self._variant_mark(lower)
        mark = self._variant_mark(state)
        state.anchor_x = lower.x + lower_mark.stack_anchor.x
        state.anchor_y = lower.y + lower_mark.stack_anchor.y
        state.x = state.anchor_x - mark.anchor.x
        state.y = state.anchor_y - mark.anchor.y

    def revisit(self, base_i: int, final: bool) -> None:
        """Re-place one glyph's marks once its right-hand context is known."""
        word, font = self.word, self.font
        thresholds = font.size_thresholds
        is_ligature = word.glyphs[base_i].glyph in font.ligature_by_glyph
        lo, hi = self._span(base_i)
        mid = (lo + hi) // 2

        indices = self.marks_of.get(base_i, [])
        ordered = sorted(
            indices,
            key=lambda mi: (
                0 if self._is_shadda(self.states[mi])
                else 1 if self._is_elongatable(self.states[mi])
                else 2,
                mi,
            ),
        )
        for mi in ordered:
            state = self.states[mi]
            grow = self._is_elongatable(state)
            if final and not grow:
                continue
            if grow:
                if final:
                    mass = self._owner_metrics(base_i).mass_class
                    state.variant = font.mass_variant(mass)
                else:
                    free = self.gap(base_i, state.side)
                    state.variant = select_size_variant(
                        free, thresholds.medium, thresholds.large
                    )
            if state.stacked_on is not None:
                self._restack(state)
                continue
            mark = self._variant_mark(state)
            if is_ligature or final:
                # Keep the attachment point; the variant's own anchor
                # decides how the new ink spreads around it.
                state.x = state.anchor_x - mark.anchor.x
                state.y = state.anchor_y - mark.anchor.y
            else:
                state.x = mid - mark.anchor.x
                state.y = state.anchor_y - mark.anchor.y

    def run(self) -> list[PlacedMark]:
        for k, base_i in enumerate(self.bases):
            self.default_place(base_i)
            if k > 0:
                self.revisit(self.bases[k - 1], final=False)
        if self.bases:
            self.revisit(self.bases[-1], final=True)
        out = []
        for i, g in enumerate(self.word.glyphs):
            if not g.is_mark:
                continue
            st = self.states[i]
            out.append(
                PlacedMark(
                    mark=st.mark_id,
                    variant=st.variant,
                    offset=(st.x, st.y),
                    owner=attachment_root(self.word, i),
                    glyph_index=i,
                )
            )
        return out


def measure_gap(
    word: ShapedWord, index: int, side: Placement, font: FontDescription
) -> GapMeasure:
    """Free span over/under a glyph given the word's current mark positions."""
    placer = _Placer(word, font)

    def current_ink(mi: int) -> tuple[Placement, int, int]:
        pg = word.glyphs[mi]
        mark = font.marks[pg.glyph]
        x = placer.pens[mi] + pg.x_offset
        return mark.attachment_class, x + mark.ink.x_min, x + mark.ink.x_max

    return GapMeasure(owner=index, width=placer.free_span(index, side, current_ink))


def _stack_units(
    marks: Sequence[PlacedMark], word: ShapedWord
) -> list[list[PlacedMark]]:
    """Group marks into stacks; a stacked mark moves with its carrier."""
    by_index = {m.glyph_index: m for m in marks}
    units: dict[int, list[PlacedMark]] = {}

    def unit_root(m: PlacedMark) -> int:
        idx = m.glyph_index
        while True:
            attached = word.glyphs[idx].attached_to
            if attached is None or not word.glyphs[attached[0]].is_mark:
                return idx
            idx = attached[0]

    for m in marks:
        units.setdefault(unit_root(m), []).append(m)
    return [units[k] for k in sorted(units)]


def resolve_collisions(
    marks: Sequence[PlacedMark],
    word: ShapedWord,
    font: FontDescription,
    gap_epsilon: int = 10,
) -> tuple[list[PlacedMark], list[Diagnostic]]:
    """Nudge overlapping same-side marks apart by a minimal x shift.

    Gemination marks, and any stack carrying one, never move. When neither
    of an overlapping pair may move, or the needed shift exceeds the
    mark's owner ink span, the overlap is reported and left in place.
    """
    mark_cps = font.mark_codepoints
    current = {m.glyph_index: m for m in marks}
    diagnostics: list[Diagnostic] = []

    def ink_interval(m: PlacedMark) -> tuple[int, int]:
        glyph_id = font.variant_glyph(m.mark, m.variant)
        ink = font.marks[glyph_id].ink
        return m.offset[0] + ink.x_min, m.offset[0] + ink.x_max

    def side_of(m: PlacedMark) -> Placement:
        return font.marks[m.mark].attachment_class

    def immovable(unit: list[PlacedMark]) -> bool:
        return any(mark_cps.get(m.mark) == SHADDA_CP for m in unit)

    def shift_unit(unit: list[PlacedMark], dx: int) -> None:
        for m in unit:
            moved = replace(m, offset=(m.offset[0] + dx, m.offset[1]))
            current[m.glyph_index] = moved

    for side in (Placement.ABOVE, Placement.BELOW, Placement.THROUGH):
        units = [
            [current[m.glyph_index] for m in unit]
            for unit in _stack_units(marks, word)
            if side_of(unit[0]) is side
        ]
        for left, right in zip(units, units[1:]):
            left = [current[m.glyph_index] for m in left]
            right = [current[m.glyph_index] for m in right]
            left_hi = max(ink_interval(m)[1] for m in left)
            right_lo = min(ink_interval(m)[0] for m in right)
            overlap = left_hi - right_lo
            if overlap <= 0:
                continue
            shift = overlap + gap_epsilon
            movable_right = not immovable(right)
            movable_left = not immovable(left)
            if movable_right:
                target, dx = right, shift
            elif movable_left:
                target, dx = left, -shift
            else:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="unresolvable-overlap",
                        message=(
                            f"marks around glyphs {left[0].owner} and {right[0].owner} "
                            f"overlap by {overlap} and neither may move"
                        ),
                        location=(left[0].owner, right[0].owner),
                    )
                )
                continue
            owner_ink = font.glyphs[word.glyphs[target[0].owner].glyph].ink
            span = owner_ink.width + word.glyphs[target[0].owner].elongation
            if shift > span:
                diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="unresolvable-overlap",
                        message=(
                            f"required shift {shift} exceeds the ink span {span} "
                            f"of glyph {target[0].owner}"
                        ),
                        location=(target[0].owner,),
                    )
                )
                continue
            shift_unit(target, dx)

    resolved = [current[m.glyph_index] for m in marks]
    return resolved, diagnostics


def place_diacritics(
    word: ShapedWord,
    font: FontDescription,
    gap_epsilon: int = 10,
) -> tuple[list[PlacedMark], list[Diagnostic]]:
    """Position and size every mark of a shaped word.

    Returns the placed marks (in the word's mark order) plus diagnostics:
    unresolvable overlaps and free-space annotations where an ornamental
    mark could be inserted.
    """
    placer = _Placer(word, font)
    marks = placer.run()
    marks, diagnostics = resolve_collisions(marks, word, font, gap_epsilon)

    # Ornament hook: report spans wide enough for a large mark but empty.
    for base_i in placer.bases:
        has_above = any(
            placer.states[mi].side is Placement.ABOVE
            for mi in placer.marks_of.get(base_i, [])
        )
        if has_above:
            continue
        free = placer.gap(base_i, Placement.ABOVE)
        if free >= font.size_thresholds.large:
            diagnostics.append(
                Diagnostic(
                    severity=Severity.INFO,
                    code="space-available",
                    message=f"glyph {base_i} offers {free} units of unused space above",
                    location=(base_i,),
                )
            )
    return marks, diagnostics


def with_marks(
    word: ShapedWord, marks: Sequence[PlacedMark], font: FontDescription
) -> ShapedWord:
    """Write placed marks back into the word's glyph string."""
    pens = pen_positions(word)
    glyphs = list(word.glyphs)
    for m in marks:
        pg = glyphs[m.glyph_index]
        root = attachment_root(word, m.glyph_index)
        glyphs[m.glyph_index] = replace(
            pg,
            glyph=font.variant_glyph(m.mark, m.variant),
            x_offset=m.offset[0] - pens[root],
            y_offset=m.offset[1],
        )
    return replace(word, glyphs=tuple(glyphs))


def mark_word(
    word: ShapedWord, font: FontDescription, gap_epsilon: int, index: int
) -> tuple[ShapedWord, list[Diagnostic]]:
    """Place and size a finished word's marks and write them into it.

    ``index`` is the word's position in the paragraph; it is put in front
    of each diagnostic's location.
    """
    marks, diagnostics = place_diacritics(word, font, gap_epsilon=gap_epsilon)
    return with_marks(word, marks, font), [
        Diagnostic(d.severity, d.code, d.message, (index, *d.location))
        for d in diagnostics
    ]
