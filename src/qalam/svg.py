"""SVG proof rendering of layout documents.

Draws one rectangle per glyph ink box (or the glyph's optional vector path
when the font carries one), mirrored for right-to-left reading, with
measure guides and per-line baselines. Mark rectangles carry a
``variant-*`` class so size substitutions are visible at a glance. Output
is a pure function of (layout, font): no timestamps, no randomness.
"""

from __future__ import annotations

from .errors import MalformedLayout, MissingVariant
from .fontmodel import FontDescription, Rect, SizeVariant

MARGIN_RATIO = 2  # margin = units_per_em // MARGIN_RATIO
LINE_RATIO = 2  # line height = units_per_em * LINE_RATIO

STYLE = (
    ".glyph{fill:#b8c4d8;stroke:#44506a;stroke-width:4}"
    ".mark{fill:#d88484;stroke:#7a2e2e;stroke-width:4}"
    ".mark.variant-medium{fill:#e0a23c}"
    ".mark.variant-large{fill:#c43cc4}"
    ".guide{stroke:#3c78c4;stroke-width:3}"
    ".baseline{stroke:#9aa4b4;stroke-width:2;stroke-dasharray:12 12}"
)


def _mark_ink(font: FontDescription, mark_id: str, variant: str) -> tuple[Rect, str | None]:
    if mark_id not in font.marks:
        raise MalformedLayout(f"mark {mark_id!r} is not in font {font.font_id!r}")
    try:
        glyph_id = font.sized_mark(mark_id, SizeVariant(variant)).glyph
    except MissingVariant as exc:
        # The font is sound; the document asks for a size it never offered.
        raise MalformedLayout(str(exc)) from None
    mark = font.marks[glyph_id]
    return mark.ink, mark.svg_path


def render_svg(doc: dict, font: FontDescription) -> str:
    upem = doc["units_per_em"]
    margin = upem // MARGIN_RATIO
    line_height = upem * LINE_RATIO
    lines = doc["lines"]
    width = doc.get("measure") or max((line["width"] for line in lines), default=upem)

    canvas_w = width + 2 * margin
    canvas_h = 2 * margin + line_height * max(1, len(lines))
    right = margin + width  # svg x of logical 0 (line start, right edge)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {canvas_w} {canvas_h}" '
        f'width="{canvas_w}" height="{canvas_h}">'
    )
    parts.append(f"<style>{STYLE}</style>")
    parts.append(
        f'<line class="guide" x1="{right}" y1="{margin}" x2="{right}" '
        f'y2="{canvas_h - margin}"/>'
    )
    parts.append(
        f'<line class="guide" x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{canvas_h - margin}"/>'
    )

    def emit_box(
        css: str, logical_x: int, baseline: int, y_offset: int, ink: Rect,
        extension: int, path: str | None,
    ) -> None:
        lo = logical_x + ink.x_min
        hi = logical_x + ink.x_max + extension
        x_svg = right - hi
        y_svg = baseline - y_offset - ink.y_max
        if path is not None:
            origin = right - logical_x
            parts.append(
                f'<path class="{css}" transform="translate({origin} '
                f'{baseline - y_offset}) scale(-1 -1)" d="{path}"/>'
            )
            return
        parts.append(
            f'<rect class="{css}" x="{x_svg}" y="{y_svg}" '
            f'width="{hi - lo}" height="{ink.height}"/>'
        )

    for li, line in enumerate(lines):
        baseline = margin + li * line_height + upem
        parts.append(
            f'<line class="baseline" x1="{margin}" y1="{baseline}" '
            f'x2="{right}" y2="{baseline}"/>'
        )
        for glyph in line["glyphs"]:
            metrics = font.glyphs.get(glyph["glyph"])
            if metrics is None:
                raise MalformedLayout(
                    f"glyph {glyph['glyph']!r} is not in font {font.font_id!r}"
                )
            emit_box(
                "glyph",
                glyph["x"],
                baseline,
                glyph["y"],
                metrics.ink,
                glyph["elongation"],
                metrics.svg_path,
            )
            for mark in glyph["marks"]:
                ink, path = _mark_ink(font, mark["mark"], mark["variant"])
                emit_box(
                    f'mark variant-{mark["variant"]}',
                    glyph["x"] + mark["dx"],
                    baseline,
                    glyph["y"] + mark["dy"],
                    ink,
                    0,
                    path,
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
