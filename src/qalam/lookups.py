"""Rule-driven glyph substitution and mark positioning.

This is a deliberately small smart-font engine. Substitution rules
(``gsub``) rewrite a glyph sequence (ligatures, contextual swaps);
positioning rules (``gpos``) attach marks and apply simple metric
adjustments. This module alone reads each kind's payload: it parses,
checks, runs and writes it, and walks it for the font loader's checks.

Rules execute in font order, one left-to-right pass each, with no
recursive re-matching, so a rule set's effect is deterministic and easy to
reason about. A rule flagged ``ignore_marks`` scans past mark glyphs:
marks standing between ligature components neither block the ligature nor
get lost; they are carried over and re-attached to the component they
originally rode on.

Mark positioning here is structural only: for each mark it decides which
rule attaches it, to which glyph (a base, one component of a ligature, or
a mark below it in a stack), and checks that every anchor the attachment
needs exists. Marks leave with zero offsets; ``diacritics`` computes where
each one goes, from those same anchors and the word's geometry.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Container, Iterable, Iterator, NamedTuple, Sequence

from .errors import BadComponent, MissingAnchor, RangeError, SchemaError, checked
from .jsonin import as_dict, as_list, as_point, glyph_id, glyph_ids, int_key
from .jsonin import flag_name, flag_names
from .textmodel import Placement

if TYPE_CHECKING:
    from .fontmodel import FontDescription, LigatureEntry


class LookupKind(enum.Enum):
    __hash__ = object.__hash__  # as for ``textmodel.Placement``

    SINGLE_SUB = "single_sub"
    MULTIPLE_SUB = "multiple_sub"
    ALTERNATE_SUB = "alternate_sub"
    LIGATURE_SUB = "ligature_sub"
    CONTEXTUAL_SUB = "contextual_sub"
    SINGLE_ADJ = "single_adj"
    PAIR_ADJ = "pair_adj"
    CURSIVE_ATTACH = "cursive_attach"
    MARK_TO_BASE = "mark_to_base"
    MARK_TO_LIGATURE = "mark_to_ligature"
    MARK_TO_MARK = "mark_to_mark"


SUBSTITUTION_KINDS = frozenset(
    {
        LookupKind.SINGLE_SUB,
        LookupKind.MULTIPLE_SUB,
        LookupKind.ALTERNATE_SUB,
        LookupKind.LIGATURE_SUB,
        LookupKind.CONTEXTUAL_SUB,
    }
)

MARK_ATTACH_KINDS = frozenset(
    {LookupKind.MARK_TO_BASE, LookupKind.MARK_TO_LIGATURE, LookupKind.MARK_TO_MARK}
)


class LigatureSub(NamedTuple):
    """One ligature mapping: a component run collapses to one glyph."""

    components: tuple[str, ...]
    ligature: str


class ContextualSub(NamedTuple):
    """Exact-sequence match with single-glyph replacements at offsets."""

    match: tuple[str, ...]
    substitutions: tuple[tuple[int, str], ...]


#: The kinds whose payload is a dict keyed by the glyph each entry acts on.
_KEYED_KINDS = frozenset(
    {
        LookupKind.SINGLE_SUB,
        LookupKind.MULTIPLE_SUB,
        LookupKind.ALTERNATE_SUB,
        LookupKind.SINGLE_ADJ,
        LookupKind.CURSIVE_ATTACH,
    }
)


def _acted_on(kind: LookupKind, payload) -> frozenset[str] | None:
    """The glyphs a payload can act on, which is also the coverage of a
    rule that gives none; None for the mark attachment kinds, whose
    coverage is free-standing."""
    if kind in _KEYED_KINDS:
        return frozenset(payload)
    if kind is LookupKind.LIGATURE_SUB:
        return frozenset(e.components[0] for e in payload)
    if kind is LookupKind.CONTEXTUAL_SUB:
        return frozenset(e.match[0] for e in payload)
    if kind is LookupKind.PAIR_ADJ:
        return frozenset(first for first, _ in payload)
    return None


@checked
class LookupRule(NamedTuple):
    """One substitution or positioning rule, gated by a feature tag.

    A ``pair_adj`` payload maps (first, second) glyph pairs to an advance
    delta for the first; a mark attachment payload is the frozenset of
    glyphs on the other side of the attachment.
    """

    kind: LookupKind
    feature: str
    coverage: frozenset[str]
    payload: object
    flags: frozenset[str] = frozenset()

    def _check(self) -> None:
        bad = self.flags - {"ignore_marks"}
        if bad:
            raise SchemaError(f"unknown lookup flags {sorted(bad)}")
        # ``type(...) is tuple``: qalam's records are tuples too, and none
        # of them is a payload or a payload value.
        kind, payload = self.kind, self.payload
        if kind is LookupKind.SINGLE_SUB:
            ok = isinstance(payload, dict) and all(
                isinstance(k, str) and isinstance(v, str) for k, v in payload.items()
            )
        elif kind in (LookupKind.MULTIPLE_SUB, LookupKind.ALTERNATE_SUB):
            ok = isinstance(payload, dict) and all(
                type(v) is tuple and len(v) > 0 for v in payload.values()
            )
        elif kind is LookupKind.LIGATURE_SUB:
            ok = type(payload) is tuple and all(
                isinstance(e, LigatureSub) and len(e.components) >= 2 for e in payload
            )
        elif kind is LookupKind.CONTEXTUAL_SUB:
            ok = type(payload) is tuple and all(
                isinstance(e, ContextualSub)
                and all(0 <= off < len(e.match) for off, _ in e.substitutions)
                for e in payload
            )
        elif kind is LookupKind.SINGLE_ADJ:
            ok = isinstance(payload, dict) and all(
                type(v) is tuple and len(v) == 3 for v in payload.values()
            )
        elif kind is LookupKind.PAIR_ADJ:
            ok = isinstance(payload, dict) and all(
                type(k) is tuple and len(k) == 2 and type(v) is int
                for k, v in payload.items()
            )
        elif kind is LookupKind.CURSIVE_ATTACH:
            ok = isinstance(payload, dict) and all(
                type(v) is tuple and len(v) == 2 for v in payload.values()
            )
        else:  # mark attachment kinds carry the other side's coverage
            ok = type(payload) is frozenset
        if not ok:
            raise SchemaError(f"payload shape does not match kind {kind.value}")

        acted_on = _acted_on(kind, payload)
        if acted_on is not None:
            loose = self.coverage - acted_on
            if loose:
                raise SchemaError(
                    f"{kind.value} coverage names glyphs without payload data: "
                    f"{sorted(loose)}"
                )


def rule_from_json(obj) -> LookupRule:
    """Parse one rule from its JSON object form."""
    obj = as_dict(obj, "lookup rule")
    try:
        kind = LookupKind(obj["kind"])
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"bad lookup kind in {obj!r}") from exc
    ctx = f"{kind.value} rule"
    feature = obj.get("feature", "")
    if not isinstance(feature, str) or not feature:
        raise SchemaError(f"lookup rule missing feature tag: {obj!r}")
    flags_ctx = f"{ctx} flags"
    flags = flag_names(obj.get("flags", []), flags_ctx)
    flags = frozenset(flag_name(f, flags_ctx) for f in flags)

    if kind is LookupKind.SINGLE_SUB:
        payload: object = {
            glyph_id(k, ctx): glyph_id(v, ctx)
            for k, v in as_dict(obj.get("map", {}), ctx).items()
        }
    elif kind in (LookupKind.MULTIPLE_SUB, LookupKind.ALTERNATE_SUB):
        key = "sequences" if kind is LookupKind.MULTIPLE_SUB else "alternates"
        payload = {
            glyph_id(k, ctx): tuple(glyph_ids(v, ctx))
            for k, v in as_dict(obj.get(key, {}), ctx).items()
        }
    elif kind is LookupKind.LIGATURE_SUB:
        entries = []
        for e in as_list(obj.get("ligatures", []), ctx):
            e = as_dict(e, ctx)
            comps = tuple(glyph_ids(e.get("components", []), ctx))
            if len(comps) < 2 or "glyph" not in e:
                raise SchemaError(f"bad ligature mapping {e!r}")
            entries.append(
                LigatureSub(components=comps, ligature=glyph_id(e["glyph"], ctx))
            )
        payload = tuple(entries)
    elif kind is LookupKind.CONTEXTUAL_SUB:
        entries = []
        for e in as_list(obj.get("contexts", []), ctx):
            e = as_dict(e, ctx)
            match = tuple(glyph_ids(e.get("match", []), ctx))
            if not match:
                raise SchemaError(f"bad contextual mapping {e!r}")
            subs = []
            for k, v in as_dict(e.get("replace", {}), ctx).items():
                subs.append((int_key(k, f"{ctx}: bad replacement offset"), glyph_id(v, ctx)))
            entries.append(ContextualSub(match=match, substitutions=tuple(sorted(subs))))
        payload = tuple(entries)
    elif kind is LookupKind.SINGLE_ADJ:
        payload = {}
        for k, v in as_dict(obj.get("adjustments", {}), ctx).items():
            if not (isinstance(v, list) and len(v) == 3 and all(type(n) is int for n in v)):
                raise SchemaError(f"{ctx}: expected [dx, dy, d_advance], got {v!r}")
            payload[glyph_id(k, ctx)] = tuple(v)
    elif kind is LookupKind.PAIR_ADJ:
        payload = {}
        for e in as_list(obj.get("pairs", []), ctx):
            e = as_dict(e, ctx)
            delta = e.get("advance")
            if type(delta) is not int:  # not 3.9, "12" or true
                raise SchemaError(f"{ctx}: bad pair adjustment {e!r}")
            pair = (glyph_id(e.get("first"), ctx), glyph_id(e.get("second"), ctx))
            if pair in payload:
                raise SchemaError(f"{ctx}: pair {pair} appears twice")
            payload[pair] = delta
    elif kind is LookupKind.CURSIVE_ATTACH:
        payload = {}
        for k, v in as_dict(obj.get("cursive", {}), ctx).items():
            v = as_dict(v, ctx)
            payload[glyph_id(k, ctx)] = (
                as_point(v.get("entry"), ctx),
                as_point(v.get("exit"), ctx),
            )
    else:  # mark attachment: the marks, or for mark_to_mark the lower marks
        key = "lower" if kind is LookupKind.MARK_TO_MARK else "marks"
        payload = frozenset(glyph_ids(obj.get(key, []), ctx))

    if "coverage" in obj:
        coverage = frozenset(glyph_ids(obj["coverage"], f"{ctx} coverage"))
    else:
        coverage = _acted_on(kind, payload) or frozenset()
    return LookupRule(kind=kind, feature=feature, coverage=coverage, payload=payload, flags=flags)


def rules_from_json(value, table: str) -> tuple[LookupRule, ...]:
    """Parse the font's ``gsub`` or ``gpos`` table: ``gsub`` takes only
    the substitution kinds, ``gpos`` only the others."""
    rules = []
    for i, obj in enumerate(as_list(value, table)):
        rule = rule_from_json(obj)
        if (rule.kind in SUBSTITUTION_KINDS) != (table == "gsub"):
            other = "positioning" if table == "gsub" else "substitution"
            raise SchemaError(f"{table} rule #{i}: {rule.kind.value} is a {other} kind")
        rules.append(rule)
    return tuple(rules)


def glyph_refs(rule: LookupRule) -> Iterable[Iterable[str]]:
    """The glyph ids a rule names, in groups, in the order the font loader
    checks that each is defined: its coverage, its payload's keys, then
    the rest of its payload."""
    yield rule.coverage
    kind, payload = rule.kind, rule.payload
    if kind in _KEYED_KINDS:
        yield payload.keys()
    if kind is LookupKind.SINGLE_SUB:
        yield payload.values()
    elif kind in (LookupKind.MULTIPLE_SUB, LookupKind.ALTERNATE_SUB):
        yield from payload.values()
    elif kind is LookupKind.LIGATURE_SUB:
        for entry in payload:
            yield entry.components
            yield (entry.ligature,)
    elif kind is LookupKind.CONTEXTUAL_SUB:
        for entry in payload:
            yield entry.match
            yield [glyph for _, glyph in entry.substitutions]
    elif kind is LookupKind.PAIR_ADJ:
        yield from payload
    elif kind in MARK_ATTACH_KINDS:
        yield payload


def check_substitution_roles(rules: Iterable[LookupRule], marks: Container[str]) -> None:
    """Reject a substitution that turns a mark into a base or back.

    Shaping keeps each glyph's role through ``gsub``: a mark that became a
    base, or a base that became a mark, would leave marks attached to
    nothing. ``marks`` holds the font's mark ids.
    """
    for rule in rules:
        kind, payload = rule.kind, rule.payload
        if kind is LookupKind.LIGATURE_SUB:
            for entry in payload:
                if entry.ligature in marks:
                    raise SchemaError(
                        f"gsub ligature_sub rule makes mark {entry.ligature!r} a ligature"
                    )
            continue
        if kind is LookupKind.SINGLE_SUB:
            pairs: Iterable[tuple[str, str]] = payload.items()
        elif kind is LookupKind.CONTEXTUAL_SUB:
            pairs = ((e.match[off], g) for e in payload for off, g in e.substitutions)
        else:  # multiple_sub, alternate_sub
            pairs = ((source, g) for source, outputs in payload.items() for g in outputs)
        for source, target in pairs:
            if (source in marks) != (target in marks):
                roles = ("mark", "base") if source in marks else ("base", "mark")
                raise SchemaError(
                    f"gsub {kind.value} rule maps {roles[0]} {source!r} "
                    f"to {roles[1]} {target!r}"
                )


def rule_to_json(rule: LookupRule) -> dict:
    out: dict = {"kind": rule.kind.value, "feature": rule.feature}
    if rule.flags:
        out["flags"] = sorted(rule.flags)
    out["coverage"] = sorted(rule.coverage)
    kind, payload = rule.kind, rule.payload
    if kind is LookupKind.SINGLE_SUB:
        out["map"] = dict(payload)
    elif kind in (LookupKind.MULTIPLE_SUB, LookupKind.ALTERNATE_SUB):
        key = "sequences" if kind is LookupKind.MULTIPLE_SUB else "alternates"
        out[key] = {k: list(v) for k, v in payload.items()}
    elif kind is LookupKind.LIGATURE_SUB:
        out["ligatures"] = [
            {"components": list(e.components), "glyph": e.ligature} for e in payload
        ]
    elif kind is LookupKind.CONTEXTUAL_SUB:
        out["contexts"] = [
            {"match": list(e.match), "replace": {str(o): g for o, g in e.substitutions}}
            for e in payload
        ]
    elif kind is LookupKind.SINGLE_ADJ:
        out["adjustments"] = {k: list(v) for k, v in payload.items()}
    elif kind is LookupKind.PAIR_ADJ:
        out["pairs"] = [
            {"first": first, "second": second, "advance": delta}
            for (first, second), delta in payload.items()
        ]
    elif kind is LookupKind.CURSIVE_ATTACH:
        out["cursive"] = {
            k: {"entry": list(v[0]), "exit": list(v[1])} for k, v in payload.items()
        }
    else:
        out["lower" if kind is LookupKind.MARK_TO_MARK else "marks"] = sorted(payload)
    return out


@checked
class PlacedGlyph(NamedTuple):
    """One glyph with resolved position data.

    Base glyphs advance the pen; their offsets are relative to their own
    pen position. Mark glyphs never advance the pen and record the glyph
    they attach to in ``attached_to`` as (glyph index, attachment class);
    that glyph always comes earlier in the word. A mark's offsets are zero
    until ``diacritics.mark_word`` writes them: x relative to the pen of
    the base at the root of its attachment chain, and y.
    """

    glyph: str
    advance: int
    x_offset: int = 0
    y_offset: int = 0
    elongation: int = 0
    attached_to: tuple[int, Placement] | None = None
    is_mark: bool = False

    def _check(self) -> None:
        if self.is_mark and self.advance != 0:
            raise ValueError(f"mark glyph {self.glyph} must have zero advance")
        if self.elongation < 0:
            raise ValueError(f"negative elongation on {self.glyph}")


class GlyphItem(NamedTuple):
    """A glyph id plus the source cluster indices it represents.

    Used to carry cluster attribution through substitution so marks can be
    re-attached to the right ligature component afterwards.
    """

    glyph: str
    clusters: tuple[int, ...]
    is_mark: bool = False


def _matches_run(
    items: Sequence[GlyphItem],
    start: int,
    components: Sequence[str],
    skip_marks: bool,
) -> tuple[list[int], list[int]] | None:
    """Match a component run anchored at start; returns (positions, skipped)."""
    positions = [start]
    skipped: list[int] = []
    j = start + 1
    k = 1
    n = len(items)
    while k < len(components):
        if j >= n:
            return None
        cand = items[j]
        if cand.is_mark:
            if not skip_marks:
                return None
            skipped.append(j)
            j += 1
            continue
        if cand.glyph != components[k]:
            return None
        positions.append(j)
        k += 1
        j += 1
    return positions, skipped


def _match_at(
    rule: LookupRule, items: Sequence[GlyphItem], i: int, skip_marks: bool
) -> tuple[LigatureSub | ContextualSub, tuple[list[int], list[int]]] | None:
    """The first entry of a ligature or contextual rule whose glyph run
    matches at base glyph ``items[i]``, with the match; None when none does.

    An entry's run is its first field: ``LigatureSub.components`` or
    ``ContextualSub.match``.
    """
    it = items[i]
    if it.is_mark or it.glyph not in rule.coverage:
        return None
    for entry in rule.payload:
        run = entry[0]
        if run[0] == it.glyph:
            m = _matches_run(items, i, run, skip_marks)
            if m is not None:
                return entry, m
    return None


def _apply_rule(rule: LookupRule, items: list[GlyphItem]) -> list[GlyphItem]:
    # Every substitution kind acts only at a glyph its coverage names.
    if rule.coverage.isdisjoint([it.glyph for it in items]):
        return items
    kind = rule.kind
    skip = "ignore_marks" in rule.flags
    out: list[GlyphItem] = []

    if kind in (LookupKind.SINGLE_SUB, LookupKind.MULTIPLE_SUB):
        mapping = rule.payload
        for it in items:
            if (skip and it.is_mark) or it.glyph not in rule.coverage:
                out.append(it)
            elif kind is LookupKind.SINGLE_SUB:
                out.append(it._replace(glyph=mapping[it.glyph]))
            else:
                out.extend(it._replace(glyph=g) for g in mapping[it.glyph])
        return out

    if kind is LookupKind.LIGATURE_SUB:
        i = 0
        while i < len(items):
            hit = _match_at(rule, items, i, skip)
            if hit is None:
                out.append(items[i])
                i += 1
                continue
            entry, (positions, skipped) = hit
            clusters = tuple(c for p in positions for c in items[p].clusters)
            out.append(GlyphItem(glyph=entry.ligature, clusters=clusters))
            out.extend(items[s] for s in skipped)
            i = positions[-1] + 1
        return out

    # contextual_sub: replacements land in place, and later matches see them
    out = list(items)
    i = 0
    while i < len(out):
        hit = _match_at(rule, out, i, skip)
        if hit is None:
            i += 1
            continue
        entry, (positions, _) = hit
        for off, new_glyph in entry.substitutions:
            p = positions[off]
            out[p] = out[p]._replace(glyph=new_glyph)
        i = positions[-1] + 1
    return out


def apply_gsub_tracked(
    rules: Sequence[LookupRule],
    items: Sequence[GlyphItem],
    enabled_features: frozenset[str] | set[str],
) -> list[GlyphItem]:
    """Run every enabled substitution rule but ``alternate_sub``, in order,
    one pass each: alternates are a client's choice, which ``alternates``
    lists."""
    current = list(items)
    for rule in rules:
        if rule.feature in enabled_features and rule.kind is not LookupKind.ALTERNATE_SUB:
            current = _apply_rule(rule, current)
    return current


def alternates(
    rules: Sequence[LookupRule],
    glyphs: Sequence[PlacedGlyph],
    enabled_features: Container[str],
) -> Iterator[tuple[int, str]]:
    """Yield ``(glyph index, alternate glyph)`` for each alternate that an
    enabled ``alternate_sub`` rule covering a base glyph offers, by glyph,
    then rule, then payload order."""
    offering = [
        r
        for r in rules
        if r.kind is LookupKind.ALTERNATE_SUB and r.feature in enabled_features
    ]
    for gi, pg in enumerate(glyphs):
        if pg.is_mark:
            continue
        for rule in offering:
            if pg.glyph in rule.coverage:
                for alt in rule.payload[pg.glyph]:
                    yield gi, alt


def _covers(rules: Sequence[LookupRule], kind: LookupKind, glyph: str, other: str) -> bool:
    """Whether a ``kind`` rule covers ``glyph`` with ``other`` in its payload."""
    for r in rules:
        if r.kind is kind and glyph in r.coverage and other in r.payload:
            return True
    return False


def _adjusted(rule: LookupRule, pg: PlacedGlyph, delta: int) -> int:
    """The base glyph's advance after an adjustment rule adds ``delta``;
    no advance may go below 0."""
    advance = pg.advance + delta
    if advance < 0:
        raise RangeError(f"{rule.kind.value} rule makes the advance of {pg.glyph} {advance}")
    return advance


def _check_component(
    entry: "LigatureEntry", owner: GlyphItem, cluster: int, mark_glyph: str, side: Placement
) -> None:
    """Check that the ligature component a mark rides has a ``side`` anchor."""
    try:
        component = owner.clusters.index(cluster)
    except ValueError as exc:
        raise BadComponent(
            f"mark {mark_glyph} belongs to no component of {owner.glyph}"
        ) from exc
    if component >= len(entry.components):
        raise BadComponent(
            f"component {component} out of range for {entry.glyph} "
            f"({len(entry.components)} components)"
        )
    if side not in entry.component_anchors[component]:
        raise MissingAnchor(
            f"{entry.glyph} component {component} has no {side.value!r} anchor"
        )


def position_marks(
    font: "FontDescription",
    items: Sequence[GlyphItem],
    enabled_features: frozenset[str] | set[str],
) -> list[PlacedGlyph]:
    """Build placed glyphs from shaped items using the font's positioning rules.

    Metric adjustment rules (single, pair, cursive) run strictly in font
    order first. Mark attachment is then structural: a mark stacks on the
    preceding mark of its cluster and side when a mark-to-mark rule covers
    the pair, attaches to its ligature component when a mark-to-ligature
    rule covers the ligature, and otherwise attaches to its base glyph
    under a mark-to-base rule. A mark no rule covers is an error. Either
    target comes before the mark, so every mark attaches backward.

    Marks come out with zero offsets. Every anchor that placing them will
    read is checked here, so a font that lacks one fails at shape time.
    """
    placed: list[PlacedGlyph | None] = []
    bases: list[int] = []
    for idx, it in enumerate(items):
        if it.is_mark:
            placed.append(None)
        else:
            # Built unchecked: a base glyph with no elongation passes ``_check``.
            advance = font.glyphs[it.glyph].advance
            placed.append(tuple.__new__(PlacedGlyph, (it.glyph, advance, 0, 0, 0, None, False)))
            bases.append(idx)

    active = [r for r in font.gpos if r.feature in enabled_features]

    for rule in active:
        if rule.kind is LookupKind.SINGLE_ADJ:
            for idx in bases:
                pg = placed[idx]
                if pg.glyph in rule.coverage:
                    dx, dy, dadv = rule.payload[pg.glyph]
                    placed[idx] = pg._replace(
                        x_offset=pg.x_offset + dx,
                        y_offset=pg.y_offset + dy,
                        advance=_adjusted(rule, pg, dadv),
                    )
        elif rule.kind is LookupKind.PAIR_ADJ:
            for a, b in zip(bases, bases[1:]):
                key = (placed[a].glyph, placed[b].glyph)
                if key[0] in rule.coverage and key in rule.payload:
                    advance = _adjusted(rule, placed[a], rule.payload[key])
                    placed[a] = placed[a]._replace(advance=advance)
        elif rule.kind is LookupKind.CURSIVE_ATTACH:
            for a, b in zip(bases, bases[1:]):
                ga, gb = placed[a].glyph, placed[b].glyph
                if ga in rule.coverage and gb in rule.coverage:
                    exit_anchor = rule.payload[ga][1]
                    entry_anchor = rule.payload[gb][0]
                    dy = placed[a].y_offset + exit_anchor[1] - entry_anchor[1]
                    placed[b] = placed[b]._replace(y_offset=placed[b].y_offset + dy)

    mark_rules = [r for r in active if r.kind in MARK_ATTACH_KINDS]
    ligature_map = font.ligature_by_glyph
    last_mark: dict[tuple[int, Placement], int] = {}
    owner_idx: int | None = None  # the last base before the mark

    for idx, it in enumerate(items):
        if not it.is_mark:
            owner_idx = idx
            continue
        side = font.marks[it.glyph].attachment_class
        cluster = it.clusters[0]
        if owner_idx is None:
            raise MissingAnchor(f"mark {it.glyph} has no base glyph before it")
        owner = items[owner_idx]
        entry = ligature_map.get(owner.glyph)

        prev_idx = last_mark.get((cluster, side))
        if prev_idx is not None and _covers(
            mark_rules, LookupKind.MARK_TO_MARK, it.glyph, items[prev_idx].glyph
        ):
            lower = items[prev_idx].glyph
            # Placement stacks on the lower mark at its normal size.
            if font.marks[font.mark_sizes[lower][0]].stack_anchor is None:
                raise MissingAnchor(f"{lower} has no stacking anchor for {it.glyph}")
            target = prev_idx
        elif entry is not None and _covers(
            mark_rules, LookupKind.MARK_TO_LIGATURE, owner.glyph, it.glyph
        ):
            _check_component(entry, owner, cluster, it.glyph, side)
            target = owner_idx
        elif _covers(mark_rules, LookupKind.MARK_TO_BASE, owner.glyph, it.glyph):
            if side not in font.glyphs[owner.glyph].anchors:
                raise MissingAnchor(
                    f"{owner.glyph} has no {side.value!r} anchor for {it.glyph}"
                )
            if entry is not None:  # placement reads a ligature's component anchors
                _check_component(entry, owner, cluster, it.glyph, side)
            target = owner_idx
        else:
            raise MissingAnchor(
                f"no positioning rule attaches {it.glyph} to {owner.glyph}"
            )
        # Built unchecked: a mark with zero advance passes ``_check``.
        placed[idx] = tuple.__new__(PlacedGlyph, (it.glyph, 0, 0, 0, 0, (target, side), True))
        last_mark[(cluster, side)] = idx

    # Every mark's slot is filled above, or the call has raised.
    return placed
