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
``SIGNATURE_BUCKETS`` is 8, so the search holds a signature as a bit mask:
overlap is ``(a & b).bit_count()`` and size ``.bit_count()``. Bit k stands
for bucket origin + k, where the origin is the lowest bucket any
elongation of the paragraph can start in: 0, unless a positioning rule
moves a stretch site left of its word, when buckets below 0 get bits too.
Each break has one table of states, keyed by mask. A state keeps its
line's start word and fits and a link to the state it follows, so no
state copies the chain of breaks behind it. Two states with equal totals
and line counts are ranked by walking both chains back in lockstep to the
last state they share: only the lines after it can differ.

The search reads two numbers of a line: its badness and its signature.
Each width variant's numbers under the elongation policy (width,
capacity, the rank of its best site, the elongation that uses its whole
capacity and where each of those elongations starts) are worked out once
per distinct variant per call, in a ``_Fit`` that every line holding the
variant shares, the returned lines included. A line's variant choice is a
chain of links, so growing it by a word copies nothing. Badness comes from
the line's width and capacity sums; the signature comes from ``_stretch``,
the helper that also sets the lines ``line_candidate`` builds.
``LineCandidate`` records are built only for the lines of the chain the
search returns.

Breaks are visited in increasing order, so every state at an earlier break
is final when lines ending at break j are set. When break j closes, its
floor, the least total of its kept states, is stored. A line from i to j
with its choice of variants is ranked by a lower bound on the total of any
state it can produce: the floor at i plus the line's demerits with no
overlap charge. Let theta be the least ``total + overlap_penalty *
|signature|`` over the states built at j so far. A state at j whose total
exceeds theta is dropped. The rule is exact. Whatever line follows, its
overlap charge against a state lies between 0 and ``overlap_penalty``
times that state's signature size. Capping demerits at ``INF`` only
narrows that gap. The rest of the paragraph does not depend on the state.
So continuing from the state that sets theta costs strictly less than
continuing from any dropped one. The comparisons are strict, so ties
still reach the documented tie-break. The bound holds for an infinite
overlap penalty too: an overlapping line's demerits are capped at ``INF``,
which ``overlap_penalty * |signature|`` already reaches once the
signature is non-empty.

Line starts are visited best-first. No line from start i costs less than
the floor at i plus ``line_penalty ** 2``, or plus 0 when the line
penalty is negative, since ``(line_penalty + badness) ** 2`` can then be
0; so the starts are taken in ascending floor. A start's variant choices
are scored only once that lower bound is at most both theta and the least
bound of the lines already scored, which wait in a heap. Lines leave the
heap, and are set, while its least bound is at most theta. The search at
j stops when both the heap's least bound and the next start's lower bound
exceed theta, so a start that theta excludes never builds its variant
choices. A break keeps its states cheapest first, so setting a line
stops at the first state before it that even a zero overlap charge puts
above theta.

The order in which lines are set does not change the states kept. Let
theta* be the least ``total + overlap_penalty * |signature|`` over all
(line, previous state) pairs at j. A pair that reaches theta* has a bound
of at most theta*, so it is set in any order, and theta always ends at
theta*. A state set while theta was still higher, but whose total is above
theta*, is dropped by the final filter. ``_precedes`` is a strict order on
distinct chains, so each mask keeps the least of the pairs of that mask
with total at most theta*, and every order that sets all lines with bound
at most theta* keeps the same table, ties included. A start whose lower
bound exceeds theta* has no such line.
"""

from __future__ import annotations

import math
from functools import reduce
from heapq import heappop, heappush
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from . import kashida
from .diacritics import GAP_EPSILON, at_word, mark_word
from .errors import Diagnostic, NoFeasibleBreak, Severity, WordTooWide, checked
from .fontmodel import FontDescription, GlueSpec
from .shaper import ShapedWord, WordVariant, default_variant, word_variants

#: Sentinel cost of an infeasible or forbidden line. Large enough that any
#: sum of finite demerits stays below it.
INF = 10**15

#: Number of quantization buckets for elongation intervals across the measure.
SIGNATURE_BUCKETS = 8

#: Finite badness ceiling for feasible but very loose lines.
MAX_BADNESS = 10000

#: Line penalties for which ``(line_penalty + badness) ** 2`` stays below
#: ``INF`` at every badness from 0 to ``MAX_BADNESS``; outside them every
#: line would cost ``INF`` and the breaker could no longer rank lines.
MIN_LINE_PENALTY = -math.isqrt(INF - 1)
MAX_LINE_PENALTY = math.isqrt(INF - 1) - MAX_BADNESS


@checked
class JustifyParams(NamedTuple):
    line_penalty: int = 10
    overlap_penalty: int = 3000
    variants: bool = False
    kashida_policy: str = "single_site"
    gap_epsilon: int = GAP_EPSILON

    def _check(self) -> None:
        for name in ("line_penalty", "overlap_penalty", "gap_epsilon"):
            value = getattr(self, name)
            if type(value) is not int:  # not 1.5 or True
                raise ValueError(f"{name} must be an int, got {value!r}")
        if type(self.variants) is not bool:
            raise ValueError(f"variants must be a bool, got {self.variants!r}")
        if self.kashida_policy not in kashida.POLICIES:
            raise ValueError(f"kashida_policy must be one of {kashida.POLICIES}")
        # A negative penalty would reward stacked elongations and void the
        # breaker's dominance bound.
        if self.overlap_penalty < 0:
            raise ValueError("overlap_penalty must be >= 0")
        if not MIN_LINE_PENALTY <= self.line_penalty <= MAX_LINE_PENALTY:
            raise ValueError(
                f"line_penalty must lie in [{MIN_LINE_PENALTY}, {MAX_LINE_PENALTY}]"
            )
        # A negative clearance would push colliding marks further into
        # each other.
        if self.gap_epsilon < 0:
            raise ValueError("gap_epsilon must be >= 0")


def badness(ratio: float | None) -> int:
    """Cost of a line's deviation from its natural width.

    ``None`` or a ratio below -1 (more shrink than the glue allows) is
    infeasible. A line that cannot stretch at all saturates at the finite
    ceiling rather than becoming infeasible.
    """
    if ratio is None or ratio < -1:
        return INF
    if ratio >= 5:  # past the ceiling, where a cube could overflow a float
        return MAX_BADNESS
    cost = round(100 * abs(ratio) ** 3)
    return cost if cost < MAX_BADNESS else MAX_BADNESS


class LineCandidate(NamedTuple):
    """One line as a breaker returns it: break range, variant choice, cost
    (the adjustment ``ratio`` and its ``badness``) and assignment.

    ``fills_measure`` is False only for a non-final line that physically
    cannot reach the measure: no inter-word gaps and a deficit beyond the
    words' elongation capacity. Such a line stays feasible (glue between
    words can always overstretch, elongation cannot) but is reported.
    """

    word_range: tuple[int, int]
    variant_ids: tuple[str, ...]
    ratio: float
    badness: int
    signature: frozenset[int]
    plans: tuple[kashida.Spans, ...]  # per word: its elongation spans
    glue_widths: tuple[int, ...]
    width: int
    fills_measure: bool = True


def demerits(
    line: LineCandidate,
    params: JustifyParams,
    prev_signature: frozenset[int] = frozenset(),
) -> int:
    """Aggregate cost of a line following a line with ``prev_signature``."""
    return _demerits(line.badness, len(line.signature & prev_signature), params)


def _demerits(cost: int, overlap: int, params: JustifyParams) -> int:
    """``demerits`` of a line of badness ``cost`` whose signature shares
    ``overlap`` buckets with the previous line's."""
    if cost >= INF:
        return INF
    if overlap and params.overlap_penalty >= INF:
        return INF
    value = (params.line_penalty + cost) ** 2 + params.overlap_penalty * overlap
    return min(value, INF)


class _Fit:
    """A width variant's numbers under an elongation policy.

    A breaker builds one per distinct variant per call (see ``_fit_lists``)
    and every line that holds the variant reads it. ``rank`` is the stretch
    class rank of the variant's best site, by which a line serves its
    words. ``full``, the spans of the elongation that uses the whole
    capacity, is worked out on first use and kept, so it is worked out
    once however many lines use the variant.
    """

    __slots__ = ("variant", "width", "capacity", "rank", "policy", "_full")

    def __init__(self, variant: WordVariant, policy: str) -> None:
        self.variant = variant
        self.width = variant.width
        self.capacity = kashida.word_capacity(variant.sites, policy)
        self.rank = variant.sites[0].rank if self.capacity else 0
        self.policy = policy
        self._full: kashida.Spans | None = None

    @property
    def full(self) -> kashida.Spans:
        if self._full is None:
            self._full = kashida.allocate(self.variant.sites, self.capacity, self.policy)
        return self._full


def _allocate_line_kashida(
    fits: Sequence[_Fit], deficit: int
) -> tuple[list[kashida.Spans], int]:
    """Distribute a line's deficit over its words' stretch sites.

    Words are served in priority order (best stretch class first, then
    nearest the line end); within a word the elongation policy applies.
    Every word served before the last takes its whole capacity. Returns
    per-word spans (empty for a word that does not stretch) plus the
    amount actually absorbed.
    """
    elongations: list[kashida.Spans] = [()] * len(fits)
    ranked = sorted([(f.rank, wi) for wi, f in enumerate(fits) if f.capacity], reverse=True)
    remaining = deficit
    for _, wi in ranked:
        fit = fits[wi]
        if remaining < fit.capacity:
            # A policy absorbs anything up to its capacity.
            elongations[wi] = kashida.allocate(fit.variant.sites, remaining, fit.policy)
            return elongations, deficit
        elongations[wi] = fit.full
        remaining -= fit.capacity
        if not remaining:
            break
    return elongations, deficit - remaining


def _origin(fits: Iterable[_Fit], measure: int) -> int:
    """The signature bucket that bit 0 of a mask stands for: the bucket of
    the leftmost point where an elongation of ``fits`` can start.

    A line's pen never moves left, since advances and glue widths are not
    negative, and an elongation starts at its site's ``x`` in the word or
    right of it. So none starts left of 0 or of the least site ``x``, which
    is negative when a positioning rule moves a glyph left of its word.
    """
    least = min([0, *(site.x for fit in fits for site in fit.variant.sites)])
    return least // max(1, measure // SIGNATURE_BUCKETS)


def _line_mask(
    fits: Sequence[_Fit],
    elongations: Sequence[kashida.Spans],
    glue_widths: Sequence[int],
    measure: int,
    origin: int,
) -> int:
    """The mask of the signature buckets a line's elongations cover, bit k
    for bucket origin + k.

    A site's elongation starts at the site's ``x`` in its word, moved right
    by the elongations of the sites before it in the word.
    """
    bucket = max(1, measure // SIGNATURE_BUCKETS)
    mask = 0
    x = 0
    for fit, spans, glue_width in zip(fits, elongations, (*glue_widths, 0)):
        for _, site_x, amount in spans:
            start = x + site_x
            first = start // bucket - origin
            last = (start + amount - 1) // bucket - origin
            mask |= (2 << last) - (1 << first)
            x += amount
        x += fit.width + glue_width
    return mask


def _ratio(deficit: int, total_stretch: int, total_shrink: int, is_last: bool) -> float:
    """Adjustment ratio of a line ``deficit`` units short of the measure.

    A final line may stay short at no cost. A quotient too large for a
    float is infinite.
    """
    if deficit == 0 or (is_last and deficit > 0):
        return 0.0
    try:
        if deficit > 0:
            return deficit / total_stretch if total_stretch else math.inf
        return deficit / total_shrink if total_shrink else -math.inf
    except OverflowError:
        return math.inf if deficit > 0 else -math.inf


class _Stretch(NamedTuple):
    """How one line is set: its cost, and the assignment behind it."""

    ratio: float
    badness: int
    elongations: list[kashida.Spans]
    glue_widths: list[int]
    width: int
    fills_measure: bool
    mask: int  # signature buckets, bit k for bucket origin + k


def _stretch(
    fits: Sequence[_Fit], measure: int, glue: GlueSpec, is_last: bool, origin: int
) -> _Stretch:
    """Set one line: badness, elongations, glue split and signature, as a
    mask whose bit 0 stands for bucket ``origin`` (see ``_origin``).

    Elongation absorbs a deficit before glue does; glue shrink alone
    absorbs a surplus. Glue changes are split evenly, the leftmost gaps
    taking the remainder.
    """
    gaps = len(fits) - 1
    natural = glue.width * gaps
    capacity = 0
    for fit in fits:
        natural += fit.width
        capacity += fit.capacity
    total_stretch = glue.stretch * gaps + capacity
    total_shrink = glue.shrink * gaps
    deficit = measure - natural
    ratio = _ratio(deficit, total_stretch, total_shrink, is_last)
    cost = badness(ratio)
    elongations: list[kashida.Spans] = [()] * len(fits)
    glue_widths = [glue.width] * gaps
    width = natural
    fills = True
    mask = 0

    if cost < INF and not (is_last and deficit >= 0) and deficit != 0:
        absorbed = 0
        if deficit > 0:
            elongations, absorbed = _allocate_line_kashida(fits, deficit)
        if gaps:
            rest = deficit - absorbed
            step = 1 if rest > 0 else -1
            share, extra = divmod(abs(rest), gaps)
            glue_widths = [glue.width + step * (share + 1)] * extra + [
                glue.width + step * share
            ] * (gaps - extra)
            width = measure
        else:
            width = natural + absorbed
            fills = width == measure
        if absorbed:
            mask = _line_mask(fits, elongations, glue_widths, measure, origin)

    return _Stretch(ratio, cost, elongations, glue_widths, width, fills, mask)


def line_candidate(
    fits: Sequence[_Fit],
    word_range: tuple[int, int],
    measure: int,
    font: FontDescription,
    is_last: bool,
) -> LineCandidate:
    """Cost and full width assignment for one candidate line of ``fits``."""
    origin = _origin(fits, measure)
    line = _stretch(fits, measure, font.glue, is_last, origin)
    mask = line.mask
    return LineCandidate(
        word_range=word_range,
        variant_ids=tuple(fit.variant.id for fit in fits),
        ratio=line.ratio,
        badness=line.badness,
        signature=frozenset(origin + k for k in range(mask.bit_length()) if mask >> k & 1),
        plans=tuple(line.elongations),
        glue_widths=tuple(line.glue_widths),
        width=line.width,
        fills_measure=line.fills_measure,
    )


class BreakNode(NamedTuple):
    """Dynamic-programming state after laying the line ``words[start:j]`` at
    break j, with ``fits``, after state ``prev`` (None at the start)."""

    total_demerits: int
    line_count: int
    start: int
    fits: tuple[_Fit, ...]
    prev: BreakNode | None


def _precedes(a: BreakNode, b: BreakNode) -> bool:
    """Whether ``a`` ranks before ``b``, a state at the same break, in
    ``break_optimum``'s tie order; on equal totals and line counts only the
    lines after the last state both chains share are compared."""
    if a.total_demerits != b.total_demerits or a.line_count != b.line_count:
        return (a.total_demerits, a.line_count) < (b.total_demerits, b.line_count)
    tail_a: list[BreakNode] = []
    tail_b: list[BreakNode] = []
    while a is not b:
        tail_a.append(a)
        tail_b.append(b)
        a, b = a.prev, b.prev
    return _lines_key(tail_a) < _lines_key(tail_b)


def _lines_key(tail: list[BreakNode]) -> tuple[list[int], list[str]]:
    """Starts, then flattened variant ids, of ``tail``'s states, last first."""
    lines = tail[::-1]
    return [node.start for node in lines], [f.variant.id for node in lines for f in node.fits]


class LineLayout(NamedTuple):
    """A finished line: its candidate and its stretched, marked words."""

    candidate: LineCandidate
    words: tuple[ShapedWord, ...]


class ParagraphLayout(NamedTuple):
    lines: tuple[LineLayout, ...]
    total_demerits: int
    measure: int
    diagnostics: tuple[Diagnostic, ...] = ()


def _fit_lists(
    words: Sequence[ShapedWord], font: FontDescription, params: JustifyParams
) -> list[tuple[_Fit, ...]]:
    """Each word's width variants as fits, built once per distinct word
    object: the repeats of a word share one ``ShapedWord`` from
    ``shape_words``, and so share one tuple of fits."""
    by_word: dict[int, tuple[_Fit, ...]] = {}
    out = []
    for word in words:
        fits = by_word.get(id(word))
        if fits is None:
            if params.variants:
                variants = word_variants(word, font)
            else:
                variants = (default_variant(word, font),)
            fits = by_word[id(word)] = tuple([_Fit(v, params.kashida_policy) for v in variants])
        out.append(fits)
    return out


def _narrowest(fit_lists: Sequence[tuple[_Fit, ...]], measure: int) -> list[int]:
    """Each word's narrowest variant width; raises ``WordTooWide`` for the
    first word whose narrowest variant is wider than ``measure``."""
    widths = [min(f.width for f in fits) for fits in fit_lists]
    for wi, width in enumerate(widths):
        if width > measure:
            raise WordTooWide(
                f"word {wi} is {width} units wide in its narrowest variant; measure is {measure}"
            )
    return widths


def _finalize(
    chosen: Sequence[tuple[LineCandidate, tuple[_Fit, ...]]],
    measure: int,
    font: FontDescription,
    total: int,
    params: JustifyParams,
) -> ParagraphLayout:
    lines = []
    diagnostics: list[Diagnostic] = []
    prev_signature: frozenset[int] = frozenset()
    # (id(variant word), spans) -> mark_word's result. A word that recurs
    # with the same elongation spans is stretched and marked once. ``chosen``
    # holds every variant word until the loop ends, so no id is reused.
    marked_by_key: dict = {}
    for li, (candidate, fits) in enumerate(chosen):
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
        for k, fit in enumerate(fits):
            variant = fit.variant
            index = candidate.word_range[0] + k
            spans = candidate.plans[k]
            key = (id(variant.word), spans)
            marked = marked_by_key.get(key)
            if marked is None:
                stretched = kashida.apply_plan(variant.word, spans, variant.sites)
                marked = marked_by_key[key] = mark_word(stretched, font, params.gap_epsilon)
            final_words.append(marked[0])
            diagnostics.extend(at_word(marked[1], index))
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
        lines.append(LineLayout(candidate=candidate, words=tuple(final_words)))
    return ParagraphLayout(
        lines=tuple(lines),
        total_demerits=total,
        measure=measure,
        diagnostics=tuple(diagnostics),
    )


def break_greedy(
    words: Sequence[ShapedWord],
    measure: int,
    font: FontDescription,
    params: JustifyParams | None = None,
) -> ParagraphLayout:
    """Line-by-line filling: as many words as fit, then justify each line."""
    params = params or JustifyParams()
    if not words:
        return ParagraphLayout(lines=(), total_demerits=0, measure=measure)
    glue = font.glue
    fit_lists = _fit_lists(words, font, params)
    _narrowest(fit_lists, measure)
    # Each word's default variant, or its narrowest if the default overflows.
    picks = [
        fits[0] if fits[0].width <= measure else min(fits, key=lambda f: (f.width, f.variant.id))
        for fits in fit_lists
    ]

    ranges: list[tuple[int, int]] = []
    start = 0
    used = picks[start].width
    for wi in range(1, len(words)):
        w = picks[wi].width
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
        fits = tuple(picks[i:j])
        candidate = line_candidate(fits, (i, j), measure, font, is_last=(li == len(ranges) - 1))
        total += demerits(candidate, params, prev_signature)
        prev_signature = candidate.signature
        chosen.append((candidate, fits))
    return _finalize(chosen, measure, font, total, params)


def break_optimum(
    words: Sequence[ShapedWord],
    measure: int,
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
    glue = font.glue
    fits = _fit_lists(words, font, params)
    n = len(words)

    # min_prefix[k]: the narrowest packing of words[:k], glue aside.
    min_prefix = list(accumulate(_narrowest(fits, measure), initial=0))
    # One origin for every mask of the search, so that masks compare.
    origin = _origin((fit for word_fits in fits for fit in word_fits), measure)
    line_penalty = params.line_penalty
    # The least demerits of any line with no overlap charge.
    least_line = line_penalty**2 if line_penalty >= 0 else 0

    # layers[j]: the states at break j as (total, signature mask of the
    # line that ends there, state), cheapest first; floors[j]: their least
    # total, None if there is none.
    layers: list[list[tuple[int, int, BreakNode]]] = [[(0, 0, BreakNode(0, 0, 0, (), None))]]
    floors: list[int | None] = [0]

    for j in range(1, n + 1):
        is_last = j == n
        # Starts whose narrowest packing of words[i:j] shrink-fits and that
        # have states, cheapest floor first.
        starts = []
        for i in range(j - 1, -1, -1):
            gaps = j - i - 1
            if min_prefix[j] - min_prefix[i] + glue.width * gaps > measure + glue.shrink * gaps:
                break
            if floors[i] is not None:
                starts.append(i)
        starts.sort(key=floors.__getitem__)

        # chains[k]: one entry per variant choice over words[j-k:j], grown
        # by one word leftward per step, and only as far as the starts
        # scored need: (width sum, capacity sum, fit of word j-k, entry
        # for words[j-k+1:j]). The root entry ends every chain.
        chains: list[list[tuple]] = [[(0, 0, None, None)]]
        # Scored lines, as (bound, start, index in chains[j - start], badness).
        scored: list[tuple[int, int, int, int]] = []
        # theta: the least total + overlap_penalty * |signature| over the
        # states built at j so far; see the module docstring.
        theta: float = math.inf
        layer: dict[int, BreakNode] = {}
        k = 0
        while True:
            lower = floors[starts[k]] + least_line if k < len(starts) else math.inf
            if lower <= theta and (not scored or lower <= scored[0][0]):
                # Score every variant choice of the next start.
                i = starts[k]
                k += 1
                while len(chains) <= j - i:
                    chains.append(
                        [
                            (combo[0] + fit.width, combo[1] + fit.capacity, fit, combo)
                            for fit in fits[j - len(chains)]
                            for combo in chains[-1]
                        ]
                    )
                floor = floors[i]
                gaps = j - i - 1
                short = measure - glue.width * gaps
                glue_stretch = glue.stretch * gaps
                total_shrink = glue.shrink * gaps
                for index, combo in enumerate(chains[j - i]):
                    cost = badness(
                        _ratio(short - combo[0], glue_stretch + combo[1], total_shrink, is_last)
                    )
                    if cost < INF:
                        # JustifyParams bounds line_penalty so that this stays below INF.
                        heappush(scored, (floor + (line_penalty + cost) ** 2, i, index, cost))
            elif scored and scored[0][0] <= theta:
                # Set the line of least bound, for its signature.
                bound, i, index, cost = heappop(scored)
                # The line's demerits with no overlap charge.
                least = bound - floors[i]
                combo = chains[j - i][index]
                line_fits = []
                while combo[2] is not None:
                    line_fits.append(combo[2])
                    combo = combo[3]
                line_fits = tuple(line_fits)
                mask = _stretch(line_fits, measure, glue, is_last, origin).mask
                charge = params.overlap_penalty * mask.bit_count()
                for prev_total, prev_mask, prev in layers[i]:
                    if prev_total + least > theta:
                        break  # and so is every later, dearer state
                    total = prev_total + _demerits(cost, (mask & prev_mask).bit_count(), params)
                    if total > theta:
                        continue
                    new = BreakNode(total, prev.line_count + 1, i, line_fits, prev)
                    old = layer.get(mask)
                    if old is None or _precedes(new, old):
                        layer[mask] = new
                    if total + charge < theta:
                        theta = total + charge
            else:
                break
        # Masks are distinct, so the sort never compares states.
        kept = sorted(
            [
                (node.total_demerits, mask, node)
                for mask, node in layer.items()
                if node.total_demerits <= theta
            ]
        )
        layers.append(kept)
        floors.append(kept[0][0] if kept else None)

    if not layers[n]:
        raise NoFeasibleBreak(
            f"no sequence of feasible lines covers all {n} words at measure {measure}"
        )
    best = reduce(lambda a, b: b if _precedes(b, a) else a, [node for _, _, node in layers[n]])

    # Only the lines of the winning chain are built in full.
    chosen = []
    node, j = best, n
    while node.prev is not None:
        candidate = line_candidate(node.fits, (node.start, j), measure, font, j == n)
        chosen.append((candidate, node.fits))
        node, j = node.prev, node.start
    chosen.reverse()
    return _finalize(chosen, measure, font, best.total_demerits, params)
