"""Paragraph breaking and line justification.

A paragraph of shaped words is broken into lines either greedily (pack
words until the next one would overflow, then justify each line) or by a
forward dynamic program that minimizes total demerits over all break
points and, optionally, per-word width variants.

A line's flexibility is its inter-word glue plus the elongation capacity
of its words, so a word that can stretch makes an otherwise loose line
feasible. Badness grades how far a line's adjustment ratio strays from the
natural width, demerits square it together with a per-line penalty, and a
separate penalty charges elongations sitting directly under elongations of
the previous line, a layout defect this breaker is asked to avoid. Word
elongation absorbs slack before glue does; surplus comes out of glue
shrink only. Hyphenation does not exist here: words never split.

The dynamic program's state is (break position, quantized x-intervals of
the just-laid line's elongations), which is exactly what the next line's
overlap penalty depends on, so the search is exact for the cost model.

Breaks are visited in increasing order, so every state at an earlier break
is final when lines ending at break j are built. Each line from i to j
with its choice of variants is scored by a lower bound on the total of
any state it can produce: the least total at i plus the line's demerits
with no overlap charge. Full line candidates are then built in ascending
bound order under a dominance rule. Let theta be the least
``total + overlap_penalty * |signature|`` over the states built at j so
far. A state at j whose total exceeds theta is dropped, and building stops
at the first bound above theta. The rule is exact. Whatever line follows,
its overlap charge against a state lies between 0 and ``overlap_penalty``
times that state's signature size. Capping demerits at ``INF`` only
narrows that gap. The rest of the paragraph does not depend on the state.
So continuing from the state that sets theta costs strictly less than
continuing from any dropped one. The comparisons are strict, so ties
still reach the documented tie-break. The bound holds for an infinite
overlap penalty too: an overlapping line's demerits are capped at ``INF``,
which ``overlap_penalty * |signature|`` already reaches once the
signature is non-empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import kashida
from .diacritics import PlacedMark, place_diacritics, with_marks
from .errors import Diagnostic, Infeasible, NoFeasibleBreak, Severity, WordTooWide
from .fontmodel import FontDescription, GlueDefaults
from .shaper import ShapedWord, WordVariant, word_variants

#: Sentinel cost of an infeasible or forbidden line. Large enough that any
#: sum of finite demerits stays below it.
INF = 10**15

#: Number of quantization buckets for elongation intervals across the measure.
SIGNATURE_BUCKETS = 8

#: Finite badness ceiling for feasible but very loose lines.
MAX_BADNESS = 10000


@dataclass(frozen=True)
class GlueSpec:
    """Inter-word space: natural width and its elastic allowances."""

    width: int
    stretch: int
    shrink: int

    def __post_init__(self) -> None:
        if min(self.width, self.stretch, self.shrink) < 0:
            raise ValueError("glue values must be >= 0")
        if self.shrink > self.width:
            raise ValueError("glue shrink cannot exceed its width")

    @classmethod
    def from_defaults(cls, defaults: GlueDefaults) -> "GlueSpec":
        return cls(defaults.width, defaults.stretch, defaults.shrink)


@dataclass(frozen=True)
class JustifyParams:
    line_penalty: int = 10
    overlap_penalty: int = 3000
    variants: bool = False
    kashida_policy: str = "single_site"
    width_tolerance: int = 1
    gap_epsilon: int = 10

    def __post_init__(self) -> None:
        # A negative penalty would reward stacked elongations and void the
        # breaker's dominance bound.
        if self.overlap_penalty < 0:
            raise ValueError("overlap_penalty must be >= 0")


def badness(ratio: float | None) -> int:
    """Cost of a line's deviation from its natural width.

    ``None`` or a ratio below -1 (more shrink than the glue allows) is
    infeasible. A line that cannot stretch at all saturates at the finite
    ceiling rather than becoming infeasible.
    """
    if ratio is None or ratio < -1:
        return INF
    if math.isinf(ratio):
        return MAX_BADNESS
    return min(MAX_BADNESS, round(100 * abs(ratio) ** 3))


@dataclass(frozen=True)
class LineCandidate:
    """One candidate line: break range, variant choice, cost, assignment.

    ``fills_measure`` is False only for a non-final line that physically
    cannot reach the measure: no inter-word gaps and a deficit beyond the
    words' elongation capacity. Such a line stays feasible (glue between
    words can always overstretch, elongation cannot) but is reported.
    """

    word_range: tuple[int, int]
    variant_ids: tuple[str, ...]
    natural: int
    total_stretch: int
    total_shrink: int
    ratio: float
    badness: int
    kashida_intervals: tuple[tuple[int, int], ...]
    signature: frozenset[int]
    plans: tuple[tuple[tuple[int, int], ...], ...]  # per word: ((glyph, units), ...)
    glue_widths: tuple[int, ...]
    width: int
    fills_measure: bool = True


def demerits(
    line: LineCandidate,
    params: JustifyParams,
    prev_signature: frozenset[int] = frozenset(),
) -> int:
    """Aggregate cost of a line following a line with ``prev_signature``."""
    if line.badness >= INF:
        return INF
    overlap = len(line.signature & prev_signature)
    if overlap and params.overlap_penalty >= INF:
        return INF
    value = (params.line_penalty + line.badness) ** 2 + params.overlap_penalty * overlap
    return min(value, INF)


def _signature(intervals: Sequence[tuple[int, int]], measure: int) -> frozenset[int]:
    bucket = max(1, measure // SIGNATURE_BUCKETS)
    covered: set[int] = set()
    for a, b in intervals:
        if b <= a:
            continue
        covered.update(range(a // bucket, (b - 1) // bucket + 1))
    return frozenset(covered)


def _word_intervals(
    variant: WordVariant,
    allocations: dict[int, int],
    word_x: int,
    font: FontDescription,
) -> list[tuple[int, int]]:
    """Absolute x intervals of a word's elongations, at line position word_x."""
    if not allocations:
        return []
    out = []
    pen = 0
    for gi, pg in enumerate(variant.word.glyphs):
        if pg.is_mark:
            continue
        amount = allocations.get(gi, 0)
        if amount:
            ink = font.glyphs[pg.glyph].ink
            start = word_x + pen + pg.x_offset + ink.x_max
            out.append((start, start + amount))
        pen += pg.advance + amount
    return out


def _allocate_line_kashida(
    variants: Sequence[WordVariant],
    deficit: int,
    font: FontDescription,
    policy: str,
) -> tuple[list[dict[int, int]], int]:
    """Distribute a line's deficit over its words' stretch sites.

    Words are served in priority order (best stretch class first, then
    nearest the line end); within a word the elongation policy applies.
    Returns per-word allocations plus the amount actually absorbed.
    """
    allocations: list[dict[int, int]] = [{} for _ in variants]
    if deficit <= 0 or policy == "off":
        return allocations, 0
    ranked = []
    for wi, variant in enumerate(variants):
        sites = variant.sites
        if not sites:
            continue
        capacity = _capacity(variant, font, policy)
        ranked.append((sites[0].priority[0], wi, capacity, sites))
    ranked.sort(key=lambda t: (t[0], t[1]), reverse=True)
    remaining = deficit
    for _, wi, capacity, sites in ranked:
        if remaining == 0:
            break
        take = min(remaining, capacity)
        plan = kashida.allocate(variants[wi].word, take, policy, sites=sites)
        allocations[wi] = dict(plan.allocations)
        remaining -= take - plan.residual
    return allocations, deficit - remaining


def _distribute(amount: int, gaps: int) -> list[int]:
    """Split an integer amount over gaps, leftmost gaps get the remainder."""
    if gaps == 0:
        return []
    share, extra = divmod(amount, gaps)
    return [share + (1 if i < extra else 0) for i in range(gaps)]


def _capacity(variant: WordVariant, font: FontDescription, policy: str) -> int:
    """Elongation a word variant can absorb under a justification policy."""
    if policy == "off":
        return 0
    return kashida.word_capacity(variant.word, font, policy, sites=variant.sites)


def _line_fit(
    widths: int,
    capacity: int,
    gaps: int,
    measure: int,
    glue: GlueSpec,
    is_last: bool,
) -> tuple[int, int, int, float, int]:
    """Natural width, total stretch, total shrink, ratio and badness of a line.

    ``widths`` and ``capacity`` are the sums over the line's words of their
    widths and elongation capacities; ``gaps`` counts inter-word spaces.
    """
    natural = widths + glue.width * gaps
    total_stretch = glue.stretch * gaps + capacity
    total_shrink = glue.shrink * gaps

    deficit = measure - natural
    if is_last and deficit >= 0:
        ratio = 0.0
    elif deficit == 0:
        ratio = 0.0
    elif deficit > 0:
        ratio = deficit / total_stretch if total_stretch else math.inf
    else:
        ratio = deficit / total_shrink if total_shrink else -math.inf
    return natural, total_stretch, total_shrink, ratio, badness(ratio)


def line_candidate(
    variants: Sequence[WordVariant],
    word_range: tuple[int, int],
    measure: int,
    glue: GlueSpec,
    font: FontDescription,
    params: JustifyParams,
    is_last: bool,
) -> LineCandidate:
    """Cost and full width assignment for one candidate line."""
    gaps = len(variants) - 1
    natural, total_stretch, total_shrink, ratio, cost = _line_fit(
        sum(v.width for v in variants),
        sum(_capacity(v, font, params.kashida_policy) for v in variants),
        gaps,
        measure,
        glue,
        is_last,
    )
    deficit = measure - natural
    allocations: list[dict[int, int]] = [{} for _ in variants]
    glue_widths = [glue.width] * gaps
    width = natural
    fills = True

    if cost < INF and not (is_last and deficit >= 0) and deficit != 0:
        if deficit > 0:
            allocations, absorbed = _allocate_line_kashida(
                variants, deficit, font, params.kashida_policy
            )
            rest = deficit - absorbed
            if gaps:
                glue_widths = [
                    glue.width + d for d in _distribute(rest, gaps)
                ]
                width = measure
            else:
                width = natural + absorbed
                fills = width == measure
        else:
            takes = _distribute(-deficit, gaps)
            glue_widths = [glue.width - t for t in takes]
            width = measure

    intervals: list[tuple[int, int]] = []
    x = 0
    for wi, variant in enumerate(variants):
        intervals.extend(_word_intervals(variant, allocations[wi], x, font))
        x += variant.width + sum(allocations[wi].values())
        if wi < gaps:
            x += glue_widths[wi]

    return LineCandidate(
        word_range=word_range,
        variant_ids=tuple(v.id for v in variants),
        natural=natural,
        total_stretch=total_stretch,
        total_shrink=total_shrink,
        ratio=ratio,
        badness=cost,
        kashida_intervals=tuple(intervals),
        signature=_signature(intervals, measure),
        plans=tuple(tuple(sorted(a.items())) for a in allocations),
        glue_widths=tuple(glue_widths),
        width=width,
        fills_measure=fills,
    )


def justify_line(
    variants: Sequence[WordVariant],
    measure: int,
    glue: GlueSpec,
    font: FontDescription,
    params: JustifyParams | None = None,
    is_last: bool = False,
) -> LineCandidate:
    """Justify one line; raises Infeasible when it cannot fit the measure."""
    params = params or JustifyParams()
    candidate = line_candidate(
        variants, (0, len(variants)), measure, glue, font, params, is_last
    )
    if candidate.badness >= INF:
        raise Infeasible(
            f"line of natural width {candidate.natural} cannot shrink to {measure}"
        )
    return candidate


@dataclass(frozen=True)
class BreakNode:
    """Dynamic-programming state after laying a line."""

    break_index: int
    signature: frozenset[int]
    total_demerits: int
    line_count: int
    breaks: tuple[int, ...]
    variant_ids: tuple[str, ...]
    predecessor: tuple[int, frozenset[int]] | None
    candidate: LineCandidate | None


@dataclass(frozen=True)
class LineLayout:
    """A finished line: justified words with final mark placements."""

    candidate: LineCandidate
    words: tuple[ShapedWord, ...]
    marks: tuple[tuple[PlacedMark, ...], ...]
    glue_widths: tuple[int, ...]
    width: int


@dataclass(frozen=True)
class ParagraphLayout:
    lines: tuple[LineLayout, ...]
    total_demerits: int
    measure: int
    diagnostics: tuple[Diagnostic, ...] = ()


def _variant_lists(
    words: Sequence[ShapedWord], font: FontDescription, params: JustifyParams
) -> list[tuple[WordVariant, ...]]:
    lists = []
    for word in words:
        variants = word.variants or word_variants(word, font)
        lists.append(variants if params.variants else variants[:1])
    return lists


def _check_widths(
    variant_lists: Sequence[tuple[WordVariant, ...]], measure: int
) -> None:
    for wi, variants in enumerate(variant_lists):
        if min(v.width for v in variants) > measure:
            raise WordTooWide(
                f"word {wi} is {min(v.width for v in variants)} units wide "
                f"in its narrowest variant; measure is {measure}"
            )


def _finalize(
    words: Sequence[ShapedWord],
    chosen: Sequence[tuple[LineCandidate, tuple[WordVariant, ...]]],
    measure: int,
    font: FontDescription,
    total: int,
    params: JustifyParams,
) -> ParagraphLayout:
    lines = []
    diagnostics: list[Diagnostic] = []
    prev_signature: frozenset[int] = frozenset()
    for li, (candidate, variants) in enumerate(chosen):
        if li < len(chosen) - 1 and not candidate.fills_measure:
            diagnostics.append(
                Diagnostic(
                    severity=Severity.WARN,
                    code="underfull-line",
                    message=(
                        f"line over words {candidate.word_range} reaches only "
                        f"{candidate.width} of {measure} units"
                    ),
                    location=candidate.word_range,
                )
            )
        final_words = []
        all_marks = []
        for k, variant in enumerate(variants):
            plan = kashida.ElongationPlan(
                allocations=dict(candidate.plans[k]), residual=0
            )
            stretched = kashida.apply_plan(variant.word, plan, font)
            marks, word_diags = place_diacritics(
                stretched, font, gap_epsilon=params.gap_epsilon
            )
            final_words.append(with_marks(stretched, marks, font))
            all_marks.append(tuple(marks))
            start = candidate.word_range[0]
            diagnostics.extend(
                Diagnostic(d.severity, d.code, d.message, (start + k, *d.location))
                for d in word_diags
            )
        if candidate.signature & prev_signature:
            diagnostics.append(
                Diagnostic(
                    severity=Severity.WARN,
                    code="stacked-elongation",
                    message=(
                        f"line over words {candidate.word_range} repeats an "
                        f"elongation position of the previous line"
                    ),
                    location=candidate.word_range,
                )
            )
        prev_signature = candidate.signature
        lines.append(
            LineLayout(
                candidate=candidate,
                words=tuple(final_words),
                marks=tuple(all_marks),
                glue_widths=candidate.glue_widths,
                width=candidate.width,
            )
        )
    return ParagraphLayout(
        lines=tuple(lines),
        total_demerits=total,
        measure=measure,
        diagnostics=tuple(diagnostics),
    )


def break_greedy(
    words: Sequence[ShapedWord],
    measure: int,
    glue: GlueSpec,
    font: FontDescription,
    params: JustifyParams | None = None,
) -> ParagraphLayout:
    """Line-by-line filling: as many words as fit, then justify each line."""
    params = params or JustifyParams()
    if not words:
        return ParagraphLayout(lines=(), total_demerits=0, measure=measure)
    variant_lists = _variant_lists(words, font, params)
    _check_widths(variant_lists, measure)

    def pick(wi: int) -> WordVariant:
        default = variant_lists[wi][0]
        if default.width > measure:
            return min(variant_lists[wi], key=lambda v: (v.width, v.id))
        return default

    ranges: list[tuple[int, int]] = []
    start = 0
    used = pick(start).width
    for wi in range(1, len(words)):
        w = pick(wi).width
        if used + glue.width + w > measure:
            ranges.append((start, wi))
            start, used = wi, w
        else:
            used += glue.width + w
    ranges.append((start, len(words)))

    chosen = []
    total = 0
    prev_signature: frozenset[int] = frozenset()
    for li, (i, j) in enumerate(ranges):
        variants = tuple(pick(wi) for wi in range(i, j))
        candidate = line_candidate(
            variants, (i, j), measure, glue, font, params, is_last=(li == len(ranges) - 1)
        )
        total += demerits(candidate, params, prev_signature)
        prev_signature = candidate.signature
        chosen.append((candidate, variants))
    return _finalize(words, chosen, measure, font, total, params)


def break_optimum(
    words: Sequence[ShapedWord],
    measure: int,
    glue: GlueSpec,
    font: FontDescription,
    params: JustifyParams | None = None,
) -> ParagraphLayout:
    """Exact minimum-demerits breaking over breaks and variant choices.

    Ties resolve toward fewer lines, then the lexicographically earliest
    break sequence, then the lexicographically smallest variant ids, so
    output is deterministic.
    """
    params = params or JustifyParams()
    if not words:
        return ParagraphLayout(lines=(), total_demerits=0, measure=measure)
    variant_lists = _variant_lists(words, font, params)
    _check_widths(variant_lists, measure)
    n = len(words)

    min_widths = [min(v.width for v in vl) for vl in variant_lists]
    fits = [
        [(v, v.width, _capacity(v, font, params.kashida_policy)) for v in vl]
        for vl in variant_lists
    ]

    start_key = (0, frozenset())
    nodes: dict[tuple[int, frozenset[int]], BreakNode] = {
        start_key: BreakNode(
            break_index=0,
            signature=frozenset(),
            total_demerits=0,
            line_count=0,
            breaks=(),
            variant_ids=(),
            predecessor=None,
            candidate=None,
        )
    }
    by_index: dict[int, list[tuple[int, frozenset[int]]]] = {0: [start_key]}

    def rank(node: BreakNode) -> tuple:
        return (node.total_demerits, node.line_count, node.breaks, node.variant_ids)

    for j in range(1, n + 1):
        is_last = j == n
        # Score every feasible line ending at j by a lower bound on the
        # total of any state it can produce: the cheapest state at its
        # start plus its demerits without an overlap charge.
        scored = []
        # (width sum, capacity sum, variants) for every variant choice over
        # words[i:j], grown by one word leftward per step.
        combos: list[tuple[int, int, tuple[WordVariant, ...]]] = [(0, 0, ())]
        for i in range(j - 1, -1, -1):
            # Even the narrowest packing of words[i:j] must shrink-fit.
            min_natural = sum(min_widths[i:j]) + glue.width * (j - i - 1)
            if min_natural > measure + glue.shrink * (j - i - 1):
                break
            combos = [
                (width + w, cap + c, (v,) + combo)
                for v, w, c in fits[i]
                for width, cap, combo in combos
            ]
            keys = by_index[i]
            if not keys:
                continue
            floor = min(nodes[key].total_demerits for key in keys)
            for width, cap, combo in combos:
                cost = _line_fit(width, cap, j - i - 1, measure, glue, is_last)[-1]
                if cost < INF:
                    bound = floor + min((params.line_penalty + cost) ** 2, INF)
                    scored.append((bound, i, combo))
        scored.sort(key=lambda t: t[0])

        # theta: the least total + overlap_penalty * |signature| over the
        # states built at j so far. A state above it is dominated; see the
        # module docstring.
        theta: float = math.inf
        at_j: list[tuple[int, frozenset[int]]] = []
        for bound, i, combo in scored:
            if bound > theta:
                break
            candidate = line_candidate(
                combo, (i, j), measure, glue, font, params, is_last
            )
            new_key = (j, candidate.signature)
            for key in by_index[i]:
                node = nodes[key]
                d = demerits(candidate, params, node.signature)
                total = node.total_demerits + d
                if total > theta:
                    continue
                new = BreakNode(
                    break_index=j,
                    signature=candidate.signature,
                    total_demerits=total,
                    line_count=node.line_count + 1,
                    breaks=node.breaks + (j,),
                    variant_ids=node.variant_ids + candidate.variant_ids,
                    predecessor=key,
                    candidate=candidate,
                )
                old = nodes.get(new_key)
                if old is None or rank(new) < rank(old):
                    if old is None:
                        at_j.append(new_key)
                    nodes[new_key] = new
                theta = min(
                    theta, total + params.overlap_penalty * len(candidate.signature)
                )
        kept = []
        for key in at_j:
            if nodes[key].total_demerits > theta:
                del nodes[key]
            else:
                kept.append(key)
        by_index[j] = kept

    finals = [nodes[k] for k in by_index[n]]
    if not finals:
        raise NoFeasibleBreak(
            f"no sequence of feasible lines covers all {n} words at measure {measure}"
        )
    best = min(finals, key=rank)

    chain: list[BreakNode] = []
    node: BreakNode | None = best
    while node is not None and node.candidate is not None:
        chain.append(node)
        node = nodes[node.predecessor] if node.predecessor != start_key else None
    chain.reverse()

    chosen = []
    for node in chain:
        candidate = node.candidate
        i, j = candidate.word_range
        id_by_word = dict(zip(range(i, j), candidate.variant_ids))
        variants = tuple(
            next(v for v in variant_lists[wi] if v.id == id_by_word[wi])
            for wi in range(i, j)
        )
        chosen.append((candidate, variants))
    return _finalize(words, chosen, measure, font, best.total_demerits, params)
