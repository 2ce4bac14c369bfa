"""The declarative font description: glyph metrics, anchors, rules.

A font is a UTF-8 JSON document (schema ``qalam-font/1``) holding
everything the engine needs: per-glyph advances and ink boxes, mark
attachment anchors, size variants for the growable vowel marks, stretch
capacities for elongation, the character-to-glyph map per joining form,
substitution and positioning rules, and the tuning tables (size
thresholds, elongation priorities, mass position offsets, inter-word
glue).

All coordinates are integers in font units; the canonical serialization
(sorted keys, no floats) round-trips bit-exactly. See docs/font-format.md
for the schema reference.
"""

from __future__ import annotations

import enum
import json
import re
from functools import cached_property
from types import MappingProxyType
from typing import Container, Mapping, NamedTuple

from .errors import (
    Diagnostic,
    MissingVariant,
    NoGlyph,
    ParseError,
    RangeError,
    RefError,
    SchemaError,
    Severity,
    checked,
)
from .jsonin import as_dict, as_int, as_list, as_str, int_key, loads, require
from .lookups import (
    LookupRule,
    check_substitution_roles,
    glyph_refs,
    rule_to_json,
    rules_from_json,
)
from .textmodel import (
    DEFAULT_TABLE,
    ELONGATABLE_MARKS,
    SHADDA_CP,
    Form,
    MassClass,
    Placement,
    valid_forms,
)

SCHEMA_ID = "qalam-font/1"


class SizeVariant(enum.Enum):
    __hash__ = object.__hash__  # as for ``textmodel.Placement``

    NORMAL = "normal"
    MEDIUM = "medium"
    LARGE = "large"


#: Ordering used by monotonicity checks: larger index, larger mark.
VARIANT_ORDER = (SizeVariant.NORMAL, SizeVariant.MEDIUM, SizeVariant.LARGE)


class LigatureKind(enum.Enum):
    LINGUISTIC = "linguistic"
    AESTHETIC = "aesthetic"


#: The default of a mapping field: records share it, so it is read-only.
_NO_ENTRIES: Mapping = MappingProxyType({})


class AnchorPoint(NamedTuple):
    x: int
    y: int


@checked
class Rect(NamedTuple):
    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def _check(self) -> None:
        x_min, y_min, x_max, y_max = self
        if x_min > x_max or y_min > y_max:
            raise SchemaError(f"degenerate ink box ({x_min},{y_min},{x_max},{y_max})")

    @property
    def width(self) -> int:
        return self.x_max - self.x_min

    @property
    def height(self) -> int:
        return self.y_max - self.y_min

    @property
    def area(self) -> int:
        return self.width * self.height


@checked
class GlyphMetrics(NamedTuple):
    """Metrics of one base glyph."""

    advance: int
    ink: Rect
    anchors: Mapping[Placement, AnchorPoint] = _NO_ENTRIES
    max_extension: int = 0
    mass_class: MassClass = MassClass.MEDIUM
    svg_path: str | None = None

    def _check(self) -> None:
        if self.advance < 0:
            raise SchemaError("glyph advance must be >= 0")
        if self.max_extension < 0:
            raise SchemaError("max_extension must be >= 0")


class MarkGlyph(NamedTuple):
    """Metrics of one mark glyph.

    ``variants`` maps size names to mark glyph ids and is present only on
    growable marks; the normal variant is the mark itself. ``stack_anchor``
    is where a further mark may stack on this one.
    """

    attachment_class: Placement
    anchor: AnchorPoint
    ink: Rect
    variants: Mapping[SizeVariant, str] | None = None
    stack_anchor: AnchorPoint | None = None
    svg_path: str | None = None


class SizedMark(NamedTuple):
    """One mark at one size: the glyph drawn and what placement reads.

    ``ink_lo`` and ``ink_hi`` bound the glyph's ink in x from its origin.
    ``side``, ``shadda`` and ``elongatable`` are facts of the mark itself,
    the same at every size.
    """

    glyph: str
    side: Placement
    ink_lo: int
    ink_hi: int
    anchor: AnchorPoint
    stack_anchor: AnchorPoint | None
    shadda: bool
    elongatable: bool


@checked
class LigatureEntry(NamedTuple):
    """A ligature glyph and the per-component mark anchors it exposes."""

    components: tuple[str, ...]
    glyph: str
    component_anchors: tuple[Mapping[Placement, AnchorPoint], ...]
    kind: LigatureKind

    def _check(self) -> None:
        if len(self.component_anchors) != len(self.components):
            raise SchemaError(
                f"ligature {self.glyph}: {len(self.component_anchors)} anchor sets "
                f"for {len(self.components)} components"
            )


@checked
class SizeThresholds(NamedTuple):
    """Free-span widths at which a growable mark switches size."""

    medium: int
    large: int

    def _check(self) -> None:
        if not 0 < self.medium < self.large:
            raise RangeError(
                f"size thresholds must satisfy 0 < medium < large, "
                f"got ({self.medium}, {self.large})"
            )


@checked
class GlueSpec(NamedTuple):
    """Inter-word space: natural width, stretch and shrink allowances."""

    width: int
    stretch: int
    shrink: int

    def _check(self) -> None:
        if min(self.width, self.stretch, self.shrink) < 0:
            raise SchemaError("glue values must be >= 0")
        if self.shrink > self.width:
            raise SchemaError("glue shrink cannot exceed its width")


class _FontFields(NamedTuple):
    font_id: str
    units_per_em: int
    glyphs: Mapping[str, GlyphMetrics]
    marks: Mapping[str, MarkGlyph]
    ligatures: tuple[LigatureEntry, ...]
    cmap: Mapping[tuple[int, Form], str]
    mark_cmap: Mapping[int, str]
    gsub: tuple[LookupRule, ...]
    gpos: tuple[LookupRule, ...]
    size_thresholds: SizeThresholds
    kashida_priority: Mapping[int, int] = _NO_ENTRIES
    mass_positions: Mapping[MassClass, Mapping[Placement, int]] = _NO_ENTRIES
    mass_variants: Mapping[MassClass, SizeVariant] = _NO_ENTRIES
    glue: GlueSpec = GlueSpec(250, 125, 80)


class FontDescription(_FontFields):
    """A font's fields, and the tables derived from them, each built once
    per font on first use and kept in the instance's ``__dict__``."""

    @cached_property
    def ligature_by_glyph(self) -> dict[str, LigatureEntry]:
        return {e.glyph: e for e in self.ligatures}

    @cached_property
    def aesthetic_ligatures(self) -> frozenset[str]:
        """Glyph ids of the optional (aesthetic) ligatures."""
        return frozenset(
            e.glyph for e in self.ligatures if e.kind is LigatureKind.AESTHETIC
        )

    @cached_property
    def mark_sizes(self) -> dict[str, tuple[str, SizeVariant]]:
        """Every mark glyph id, size variants included, to its canonical
        mark id and the size it draws that mark at."""
        out = {mid: (mid, SizeVariant.NORMAL) for mid in self.marks}
        for mid, mark in self.marks.items():
            if mark.variants:
                for size, vid in mark.variants.items():
                    out[vid] = (mid, size)
        return out

    @cached_property
    def sized_marks(self) -> dict[tuple[str, SizeVariant], SizedMark]:
        """Every (mark id, size) the font draws, to its ``SizedMark``."""
        out = {}
        # Canonical mark glyph id to the code point that maps to it.
        codepoints = {mid: cp for cp, mid in self.mark_cmap.items()}
        for mid, mark in self.marks.items():
            cp = codepoints.get(mid)
            for size in VARIANT_ORDER:
                if size is SizeVariant.NORMAL and mark.variants is None:
                    glyph = mid
                elif mark.variants is not None and size in mark.variants:
                    glyph = mark.variants[size]
                else:
                    continue
                drawn = self.marks[glyph]
                out[mid, size] = SizedMark(
                    glyph=glyph,
                    side=mark.attachment_class,
                    ink_lo=drawn.ink.x_min,
                    ink_hi=drawn.ink.x_max,
                    anchor=drawn.anchor,
                    stack_anchor=drawn.stack_anchor,
                    shadda=cp == SHADDA_CP,
                    elongatable=cp in ELONGATABLE_MARKS,
                )
        return out

    def mass_offset(self, mass: MassClass, side: Placement) -> int:
        return self.mass_positions.get(mass, {}).get(side, 0)

    def mass_variant(self, mass: MassClass) -> SizeVariant:
        return self.mass_variants.get(mass, SizeVariant.NORMAL)

    def sized_mark(self, mark_id: str, variant: SizeVariant) -> SizedMark:
        """A mark at a given size; MissingVariant if the font lacks that size."""
        try:
            return self.sized_marks[mark_id, variant]
        except KeyError:
            raise MissingVariant(f"{mark_id} has no {variant.value} variant") from None


def glyph_for(font: FontDescription, letter_cp: int, form: Form) -> str:
    """The glyph mapped for a (letter, joining form) pair."""
    try:
        return font.cmap[(letter_cp, form)]
    except KeyError:
        raise NoGlyph(f"no glyph for U+{letter_cp:04X} in {form.value} form") from None


# --- parsing ---------------------------------------------------------------


_HEX_KEY = re.compile(r"[0-9A-Fa-f]{4,}")


def _code_point(key: str, ctx: str, taken: Container[int]) -> int:
    """A code point key: 4 or more hex digits naming U+0000..U+10FFFF,
    which no key already in ``taken`` names."""
    cp = int(key, 16) if _HEX_KEY.fullmatch(key) else -1
    if not 0 <= cp <= 0x10FFFF:
        raise SchemaError(f"{ctx}: bad code point key {key!r}")
    if cp in taken:
        raise SchemaError(f"{ctx}: key {key!r} names U+{cp:04X} a second time")
    return cp


# Enum members by value for the loader: a dict lookup costs a fraction of
# an ``Enum(value)`` call.
_PLACEMENTS = {p.value: p for p in Placement}
_MASS_CLASSES = {m.value: m for m in MassClass}
_SIZE_VARIANTS = {v.value: v for v in SizeVariant}
_FORMS = {f.value: f for f in Form}


def _ints(value, n: int, shape: str, ctx: str) -> list[int]:
    """``value``, an array of ``n`` integers; the error names its ``shape``."""
    if type(value) is not list or len(value) != n:
        raise SchemaError(f"{ctx}: expected {shape}, got {value!r}")
    for v in value:
        if type(v) is not int:
            as_int(v, ctx)  # raises
    return value


def _point(value, ctx: str) -> AnchorPoint:
    return tuple.__new__(AnchorPoint, _ints(value, 2, "[x, y]", ctx))


def _ink(value, ctx: str) -> Rect:
    # Built unchecked, then checked once: ``Rect(...)`` costs more per record.
    ink = tuple.__new__(Rect, _ints(value, 4, "[x_min, y_min, x_max, y_max]", ctx))
    ink._check()
    return ink


def _svg_path(obj: dict, ctx: str) -> str | None:
    path = obj.get("svg_path")
    return None if path is None else as_str(path, f"{ctx}.svg_path")


def _anchor_map(value, ctx: str) -> dict[Placement, AnchorPoint]:
    if type(value) is not dict:
        raise SchemaError(f"{ctx}: anchors must be an object")
    out = {}
    for key, point in value.items():
        side = _PLACEMENTS.get(key)
        if side is None:
            raise SchemaError(f"{ctx}: unknown attachment class {key!r}")
        if type(point) is list and len(point) == 2:
            x, y = point
            if type(x) is int and type(y) is int:
                out[side] = AnchorPoint(x, y)
                continue
        _point(point, f"{ctx}.{key}")  # raises this point's error
    return out


def _parse_glyph(gid: str, obj) -> GlyphMetrics:
    ctx = f"glyph {gid}"
    obj = as_dict(obj, ctx)
    mass = obj.get("mass_class", "medium")
    try:
        mass_class = _MASS_CLASSES[mass]
    except (KeyError, TypeError):
        raise SchemaError(f"{ctx}: unknown mass class {mass!r}") from None
    svg_path = _svg_path(obj, ctx)
    advance = as_int(require(obj, "advance", ctx), ctx)
    ink = _ink(require(obj, "ink", ctx), ctx)
    anchors = _anchor_map(obj.get("anchors", {}), ctx)
    max_extension = as_int(obj.get("max_extension", 0), ctx)
    glyph = tuple.__new__(  # checked once below, as in ``_ink``
        GlyphMetrics, (advance, ink, anchors, max_extension, mass_class, svg_path)
    )
    glyph._check()
    return glyph


def _parse_mark(mid: str, obj) -> MarkGlyph:
    ctx = f"mark {mid}"
    obj = as_dict(obj, ctx)
    try:
        side = _PLACEMENTS[require(obj, "class", ctx)]
    except (KeyError, TypeError):
        raise SchemaError(f"{ctx}: unknown attachment class") from None
    variants = None
    if "variants" in obj:
        variants = {}
        where = f"{ctx}.variants"
        for key, vid in as_dict(obj["variants"], where).items():
            as_str(vid, where)
            size = _SIZE_VARIANTS.get(key)
            if size is None:
                raise SchemaError(f"{ctx}: unknown size variant {key!r}")
            variants[size] = vid
    stack_anchor = None
    if obj.get("stack_anchor") is not None:
        stack_anchor = _point(obj["stack_anchor"], f"{ctx}.stack_anchor")
    svg_path = _svg_path(obj, ctx)
    anchor = _point(require(obj, "anchor", ctx), ctx)
    ink = _ink(require(obj, "ink", ctx), ctx)
    return MarkGlyph(side, anchor, ink, variants, stack_anchor, svg_path)


def _parse_ligature(obj, index: int) -> LigatureEntry:
    ctx = f"ligature #{index}"
    obj = as_dict(obj, ctx)
    components = tuple(
        as_str(c, f"{ctx}.components")
        for c in as_list(require(obj, "components", ctx), ctx)
    )
    if len(components) != 2:
        raise SchemaError(
            f"{ctx}: ligatures are single-level, exactly 2 components required, "
            f"got {len(components)}"
        )
    anchors = tuple(
        _anchor_map(a, f"{ctx}.component_anchors[{i}]")
        for i, a in enumerate(as_list(require(obj, "component_anchors", ctx), ctx))
    )
    try:
        kind = LigatureKind(obj.get("kind", "aesthetic"))
    except (ValueError, TypeError):
        raise SchemaError(f"{ctx}: unknown ligature kind") from None
    return LigatureEntry(
        components=components,
        glyph=as_str(require(obj, "glyph", ctx), ctx),
        component_anchors=anchors,
        kind=kind,
    )


def load_font(source) -> FontDescription:
    """Parse and validate a font description.

    ``source`` is text, bytes or a readable file object; for a path use
    ``load_font_path``.
    Raises ParseError on malformed text, SchemaError on structural
    problems, RefError on a dangling glyph id, RangeError on out-of-range
    numeric parameters.
    """
    if hasattr(source, "read"):
        raw = source.read()
    else:
        raw = source
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"font file is not UTF-8: {exc}") from exc
    doc = loads(raw, "font file", ParseError, SchemaError)
    if not isinstance(doc, dict):
        raise SchemaError("font description must be a JSON object")
    if doc.get("schema") != SCHEMA_ID:
        raise SchemaError(f"font must declare schema {SCHEMA_ID!r}")

    units = as_int(require(doc, "units_per_em", "font"), "units_per_em")
    if units <= 0:
        raise RangeError("units_per_em must be positive")

    glyphs = {
        gid: _parse_glyph(gid, obj)
        for gid, obj in as_dict(require(doc, "glyphs", "font"), "glyphs").items()
    }
    marks = {
        mid: _parse_mark(mid, obj)
        for mid, obj in as_dict(require(doc, "marks", "font"), "marks").items()
    }
    dup = glyphs.keys() & marks.keys()
    if dup:
        raise SchemaError(f"ids defined both as glyph and mark: {sorted(dup)}")

    ligatures = tuple(
        _parse_ligature(obj, i)
        for i, obj in enumerate(as_list(doc.get("ligatures", []), "ligatures"))
    )

    cmap: dict[tuple[int, Form], str] = {}
    cmap_cps: set[int] = set()
    for cp_hex, forms in as_dict(require(doc, "cmap", "font"), "cmap").items():
        cp = _code_point(cp_hex, "cmap", cmap_cps)
        cmap_cps.add(cp)
        where = f"cmap {cp_hex}"
        for form_name, gid in as_dict(forms, where).items():
            form = _FORMS.get(form_name)
            if form is None:
                raise SchemaError(f"{where}: unknown form {form_name!r}")
            cmap[(cp, form)] = as_str(gid, f"{where} {form_name}")

    mark_cmap: dict[int, str] = {}
    for cp_hex, mid in as_dict(doc.get("mark_cmap", {}), "mark_cmap").items():
        cp = _code_point(cp_hex, "mark_cmap", mark_cmap)
        mark_cmap[cp] = as_str(mid, f"mark_cmap {cp_hex}")

    gsub = rules_from_json(doc.get("gsub", []), "gsub")
    gpos = rules_from_json(doc.get("gpos", []), "gpos")

    thresholds_obj = as_dict(require(doc, "size_thresholds", "font"), "size_thresholds")
    thresholds = SizeThresholds(
        medium=as_int(require(thresholds_obj, "medium", "size_thresholds"), "size_thresholds"),
        large=as_int(require(thresholds_obj, "large", "size_thresholds"), "size_thresholds"),
    )

    kashida_priority = {}
    for k, v in as_dict(doc.get("kashida_priority", {}), "kashida_priority").items():
        stretch_class = int_key(k, "kashida_priority: bad stretch class")
        kashida_priority[stretch_class] = as_int(v, "kashida_priority")

    mass_positions: dict[MassClass, dict[Placement, int]] = {}
    for mass_name, sides in as_dict(doc.get("mass_positions", {}), "mass_positions").items():
        mass = _MASS_CLASSES.get(mass_name)
        if mass is None:
            raise SchemaError(f"mass_positions: unknown class {mass_name!r}")
        mass_positions[mass] = {}
        for side, dy in as_dict(sides, f"mass_positions {mass_name}").items():
            placement = _PLACEMENTS.get(side)
            if placement is None:
                raise SchemaError(f"mass_positions {mass_name}: unknown side {side!r}")
            mass_positions[mass][placement] = as_int(dy, "mass_positions")

    mass_variants: dict[MassClass, SizeVariant] = {}
    for mass_name, variant_name in as_dict(
        doc.get("mass_variants", {}), "mass_variants"
    ).items():
        try:
            mass_variants[_MASS_CLASSES[mass_name]] = _SIZE_VARIANTS[variant_name]
        except (KeyError, TypeError):
            raise SchemaError(
                f"mass_variants: bad entry {mass_name!r}: {variant_name!r}"
            ) from None

    glue_obj = as_dict(doc.get("glue", {}), "glue")
    glue = GlueSpec(
        width=as_int(glue_obj.get("width", 250), "glue"),
        stretch=as_int(glue_obj.get("stretch", 125), "glue"),
        shrink=as_int(glue_obj.get("shrink", 80), "glue"),
    )

    font = FontDescription(
        font_id=as_str(doc.get("font_id", "unnamed"), "font_id"),
        units_per_em=units,
        glyphs=glyphs,
        marks=marks,
        ligatures=ligatures,
        cmap=cmap,
        mark_cmap=mark_cmap,
        gsub=gsub,
        gpos=gpos,
        size_thresholds=thresholds,
        kashida_priority=kashida_priority,
        mass_positions=mass_positions,
        mass_variants=mass_variants,
        glue=glue,
    )
    _validate_references(font)
    return font


def load_font_path(path) -> FontDescription:
    with open(path, "rb") as fh:
        return load_font(fh)


def _validate_references(font: FontDescription) -> None:
    known = font.glyphs.keys() | font.marks.keys()

    for (cp, form), gid in font.cmap.items():
        if gid not in known:
            raise RefError(gid, f"cmap U+{cp:04X} {form.value}")
        if gid in font.marks:
            raise SchemaError(f"cmap U+{cp:04X} {form.value} maps to mark glyph {gid!r}")
    for cp, mid in font.mark_cmap.items():
        if mid not in font.marks:
            raise RefError(mid, f"mark_cmap U+{cp:04X}")
    for entry in font.ligatures:
        for comp in entry.components:
            if comp not in known:
                raise RefError(comp, f"ligature {entry.glyph}")
        if entry.glyph not in font.glyphs:
            raise RefError(entry.glyph, "ligature result")
    for label, rules in (("gsub", font.gsub), ("gpos", font.gpos)):
        for rule in rules:
            for group in glyph_refs(rule):
                if not known.issuperset(group):
                    gid = next(gid for gid in group if gid not in known)
                    raise RefError(gid, f"{label} {rule.kind.value} rule")
    check_substitution_roles(font.gsub, font.marks)
    # A variant id names one size of one mark, so every mark glyph reads
    # back as a single (mark, size) pair (``FontDescription.mark_sizes``).
    size_of: dict[str, str] = {}
    for mid, mark in font.marks.items():
        if mark.variants is not None:
            normal = mark.variants.get(SizeVariant.NORMAL)
            if normal != mid:
                raise SchemaError(
                    f"mark {mid}: normal variant must be the mark itself, got {normal!r}"
                )
            for size, vid in mark.variants.items():
                if vid not in font.marks:
                    raise RefError(vid, f"mark {mid} variants")
                here = f"{mid} {size.value}"
                if size_of.setdefault(vid, here) != here:
                    raise SchemaError(
                        f"mark {vid} is listed as both {size_of[vid]} and {here}"
                    )
                # Shaping checks anchors for the mark's class and placement
                # reads them for every size, so all sizes share one class.
                variant_class = font.marks[vid].attachment_class
                if variant_class is not mark.attachment_class:
                    raise SchemaError(
                        f"mark {vid!r}, the {size.value} size of {mid!r}, has class "
                        f"{variant_class.value!r}, not {mark.attachment_class.value!r}"
                    )
    # Text maps to a mark at its normal size; placement picks the size.
    for cp, mid in font.mark_cmap.items():
        canonical, size = font.mark_sizes[mid]
        if size is not SizeVariant.NORMAL:
            raise SchemaError(
                f"mark_cmap U+{cp:04X} maps to {mid!r}, the {size.value} size of "
                f"{canonical!r}, not to a mark at its normal size"
            )


# --- serialization ---------------------------------------------------------
# ``json.dumps(sort_keys=True)`` orders every object's keys and writes
# records (``Rect``, ``AnchorPoint``, tuples) as arrays.


def _glyph_json(g: GlyphMetrics) -> dict:
    out: dict = {"advance": g.advance, "ink": g.ink, "mass_class": g.mass_class.value}
    if g.anchors:
        out["anchors"] = {side.value: a for side, a in g.anchors.items()}
    if g.max_extension:
        out["max_extension"] = g.max_extension
    if g.svg_path is not None:
        out["svg_path"] = g.svg_path
    return out


def _mark_json(m: MarkGlyph) -> dict:
    out: dict = {"class": m.attachment_class.value, "anchor": m.anchor, "ink": m.ink}
    if m.variants is not None:
        out["variants"] = {v.value: gid for v, gid in m.variants.items()}
    if m.stack_anchor is not None:
        out["stack_anchor"] = m.stack_anchor
    if m.svg_path is not None:
        out["svg_path"] = m.svg_path
    return out


def serialize_font(font: FontDescription) -> str:
    """Canonical JSON text: sorted keys, integers only, newline-terminated."""
    cmap_json: dict[str, dict[str, str]] = {}
    for (cp, form), gid in font.cmap.items():
        cmap_json.setdefault(f"{cp:04X}", {})[form.value] = gid
    doc = {
        "schema": SCHEMA_ID,
        "font_id": font.font_id,
        "units_per_em": font.units_per_em,
        "glyphs": {gid: _glyph_json(g) for gid, g in font.glyphs.items()},
        "marks": {mid: _mark_json(m) for mid, m in font.marks.items()},
        "ligatures": [
            {
                "components": e.components,
                "glyph": e.glyph,
                "component_anchors": [
                    {side.value: a for side, a in anchors.items()}
                    for anchors in e.component_anchors
                ],
                "kind": e.kind.value,
            }
            for e in font.ligatures
        ],
        "cmap": cmap_json,
        "mark_cmap": {f"{cp:04X}": mid for cp, mid in font.mark_cmap.items()},
        "gsub": [rule_to_json(r) for r in font.gsub],
        "gpos": [rule_to_json(r) for r in font.gpos],
        "size_thresholds": font.size_thresholds._asdict(),
        "kashida_priority": {str(k): v for k, v in font.kashida_priority.items()},
        "mass_positions": {
            mass.value: {side.value: dy for side, dy in sides.items()}
            for mass, sides in font.mass_positions.items()
        },
        "mass_variants": {
            mass.value: variant.value for mass, variant in font.mass_variants.items()
        },
        "glue": font.glue._asdict(),
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# --- lint ------------------------------------------------------------------


def mass_terciles(areas: Mapping[str, int]) -> dict[str, MassClass]:
    """Suggested mass classes: rank glyphs by ink area, split in thirds."""
    ordered = sorted(areas, key=lambda gid: (areas[gid], gid))
    n = len(ordered)
    cut_light = n // 3
    cut_medium = (2 * n) // 3
    out: dict[str, MassClass] = {}
    for rank, gid in enumerate(ordered):
        if rank < cut_light:
            out[gid] = MassClass.LIGHT
        elif rank < cut_medium:
            out[gid] = MassClass.MEDIUM
        else:
            out[gid] = MassClass.HEAVY
    return out


def suggest_mass_classes(font: FontDescription) -> dict[str, MassClass]:
    return mass_terciles({gid: g.ink.area for gid, g in font.glyphs.items()})


def lint_font(font: FontDescription) -> list[Diagnostic]:
    """Check a structurally valid font against the preparation checklist.

    Every rule has a stable code; see docs/layout-format.md. Severity
    ``error`` marks data the engine will stumble on, ``warn`` marks dead
    data, ``info`` marks advisory findings.
    """
    findings: list[Diagnostic] = []

    def add(severity: Severity, code: str, message: str) -> None:
        findings.append(Diagnostic(severity=severity, code=code, message=message))

    mark_sides = {m.attachment_class for m in font.marks.values()}
    ligature_glyphs = set(font.ligature_by_glyph)

    for letter in DEFAULT_TABLE.letters.values():
        for form in valid_forms(letter):
            if (letter.code_point, form) not in font.cmap:
                add(
                    Severity.ERROR,
                    "missing-cmap-entry",
                    f"no glyph mapped for {letter.name} in {form.value} form",
                )

    for gid in sorted(font.glyphs):
        if gid in ligature_glyphs:
            continue
        metrics = font.glyphs[gid]
        for side in sorted(mark_sides, key=lambda s: s.value):
            if side not in metrics.anchors:
                add(
                    Severity.ERROR,
                    "missing-anchor",
                    f"glyph {gid} lacks an {side.value!r} anchor "
                    f"while {side.value} marks exist",
                )

    for cp in sorted(font.mark_cmap):
        mid = font.mark_cmap[cp]
        record = DEFAULT_TABLE.diacritics.get(cp)
        if record is None:
            continue
        mark = font.marks[mid]
        if record.elongatable:
            have = set(mark.variants or {})
            missing = [v.value for v in VARIANT_ORDER if v not in have]
            if missing:
                add(
                    Severity.ERROR,
                    "missing-variant",
                    f"growable mark {mid} lacks size variants: {', '.join(missing)}",
                )
        elif mark.variants is not None:
            add(
                Severity.WARN,
                "spurious-variants",
                f"mark {mid} has size variants but can never grow",
            )

    for letter in sorted(DEFAULT_TABLE.letters.values(), key=lambda r: r.code_point):
        if letter.stretch_class <= 0:
            continue
        for form in (Form.INITIAL, Form.MEDIAL):
            gid = font.cmap.get((letter.code_point, form))
            if gid is not None and font.glyphs[gid].max_extension == 0:
                add(
                    Severity.ERROR,
                    "zero-capacity",
                    f"glyph {gid} belongs to stretchable letter {letter.name} "
                    f"but has max_extension 0",
                )

    for (cp, form), gid in sorted(font.cmap.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        letter = DEFAULT_TABLE.letters.get(cp)
        if letter is None:
            continue
        if letter.stretch_class == 0 and font.glyphs[gid].max_extension > 0:
            add(
                Severity.WARN,
                "unreachable-stretch",
                f"glyph {gid} has stretch capacity but letter {letter.name} "
                f"is never elongated",
            )

    for entry in font.ligatures:
        if len(entry.components) != 2:
            add(
                Severity.ERROR,
                "multilevel-ligature",
                f"ligature {entry.glyph} has {len(entry.components)} components; "
                f"only single-level (2) is supported",
            )
        for i, anchors in enumerate(entry.component_anchors):
            for side in sorted(mark_sides, key=lambda s: s.value):
                if side not in anchors:
                    add(
                        Severity.ERROR,
                        "ligature-anchor-gap",
                        f"ligature {entry.glyph} component {i} lacks an "
                        f"{side.value!r} anchor",
                    )

    suggested = suggest_mass_classes(font)
    for gid in sorted(font.glyphs):
        if suggested[gid] is not font.glyphs[gid].mass_class:
            add(
                Severity.INFO,
                "mass-class-mismatch",
                f"glyph {gid} is {font.glyphs[gid].mass_class.value} but its ink "
                f"area suggests {suggested[gid].value}",
            )

    return findings
