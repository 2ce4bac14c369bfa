"""Exhaustive-enumeration reference for the optimum-fit breaker.

Enumerates every break set (all 2^(n-1) subsets of inter-word positions)
and, per line, every per-word variant choice, chaining elongation
signatures line to line. Line costs come from the same public cost
functions the engine uses; only the search is independent. Ties resolve
by the same ordering the engine documents: fewer lines, then earliest
break sequence, then variant ids.
"""

from __future__ import annotations

from itertools import product

from qalam.justify import INF, JustifyParams, demerits, line_candidate
from qalam.shaper import word_variants


def oracle_best(words, measure: int, font, params: JustifyParams):
    """(total, line_count, breaks, variant_ids) of the global minimum, or None."""
    variant_lists = [
        (word_variants(w, font) if params.variants else word_variants(w, font)[:1])
        for w in words
    ]
    n = len(words)
    if n == 0:
        return (0, 0, (), ())

    cache: dict[tuple, object] = {}

    def line_for(i: int, j: int, combo) -> object:
        key = (i, j, tuple(v.id for v in combo))
        got = cache.get(key)
        if got is None:
            got = line_candidate(combo, (i, j), measure, font, params, is_last=(j == n))
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
