"""References for the optimum-fit breaker.

``oracle_best`` enumerates every break set (all 2^(n-1) subsets of
inter-word positions) and, per line, every per-word variant choice,
chaining elongation signatures line to line. ``reference_best`` is the
textbook dynamic program of Knuth and Plass ("Breaking Paragraphs into
Lines", 1981) over the same space, without pruning, so it reaches
paragraphs far longer than the enumeration can.

Line costs come from the same public cost functions the engine uses; only
the search is independent. Ties resolve by the same ordering the engine
documents: fewer lines, then earliest break sequence, then variant ids.
"""

from __future__ import annotations

from itertools import product

from qalam.justify import INF, JustifyParams, _Fit, demerits, line_candidate
from qalam.shaper import word_variants


def _variant_lists(words, font, params: JustifyParams):
    return [
        (word_variants(w, font) if params.variants else word_variants(w, font)[:1])
        for w in words
    ]


def oracle_best(words, measure: int, font, params: JustifyParams):
    """(total, line_count, breaks, variant_ids) of the global minimum, or None."""
    variant_lists = _variant_lists(words, font, params)
    n = len(words)
    if n == 0:
        return (0, 0, (), ())

    cache: dict[tuple, object] = {}

    def line_for(i: int, j: int, combo) -> object:
        key = (i, j, tuple(v.id for v in combo))
        got = cache.get(key)
        if got is None:
            fits = [_Fit(v, params.kashida_policy) for v in combo]
            got = line_candidate(fits, (i, j), measure, font, is_last=(j == n))
            cache[key] = got
        return got

    best: tuple | None = None

    for mask in range(2 ** (n - 1)):
        breaks = tuple(i + 1 for i in range(n - 1) if mask >> i & 1) + (n,)
        ranges = []
        start = 0
        for b in breaks:
            ranges.append((start, b))
            start = b

        def descend(li: int, prev_sig: frozenset, total: int, ids: tuple) -> None:
            nonlocal best
            if best is not None and total > best[0]:
                return
            if li == len(ranges):
                candidate = (total, len(ranges), breaks, ids)
                if best is None or candidate < best:
                    best = candidate
                return
            i, j = ranges[li]
            for combo in product(*variant_lists[i:j]):
                line = line_for(i, j, combo)
                if line.badness >= INF:
                    continue
                descend(
                    li + 1,
                    line.signature,
                    total + demerits(line, params, prev_sig),
                    ids + tuple(v.id for v in combo),
                )

        descend(0, frozenset(), 0, ())

    return best


def reference_best(words, measure: int, font, params: JustifyParams):
    """(total, line_count, breaks, variant_ids) of the global minimum, or None.

    A state is (break, signature of the line ending there); it keeps the
    least (total, line count, breaks, variant ids) of the chains reaching
    it, each chain held in full as tuples. Keeping that order per state is
    exact: a line's demerits depend on the chain before it only through
    the signature, and two chains to one break with one line count have
    break and id tuples of equal length, so appending the same line to
    both keeps their order. Every line takes the full variant product and
    no state is pruned; a start is left only once the narrowest packing of
    its words cannot shrink to the measure, which holds for every longer
    line too.
    """
    variant_lists = _variant_lists(words, font, params)
    n = len(words)
    if n == 0:
        return (0, 0, (), ())
    glue = font.glue
    narrowest = [min(v.width for v in vl) for vl in variant_lists]
    layers: list[dict[frozenset, tuple]] = [{frozenset(): (0, 0, (), ())}]
    for j in range(1, n + 1):
        layer: dict[frozenset, tuple] = {}
        width = -glue.width
        for i in range(j - 1, -1, -1):
            width += narrowest[i] + glue.width
            if width > measure + glue.shrink * (j - i - 1):
                break
            for combo in product(*variant_lists[i:j]):
                fits = [_Fit(v, params.kashida_policy) for v in combo]
                line = line_candidate(fits, (i, j), measure, font, is_last=(j == n))
                if line.badness >= INF:
                    continue
                ids = tuple(v.id for v in combo)
                for prev_sig, (total, count, breaks, prev_ids) in layers[i].items():
                    state = (
                        total + demerits(line, params, prev_sig),
                        count + 1,
                        breaks + (j,),
                        prev_ids + ids,
                    )
                    old = layer.get(line.signature)
                    if old is None or state < old:
                        layer[line.signature] = state
        layers.append(layer)
    return min(layers[n].values(), default=None)
