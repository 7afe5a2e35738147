"""Loop reference for ``wikicat.taxonomy_mapper``'s Jaro–Winkler kernel.

One pair at a time: a greedy scan of the match window per query character,
half the out-of-order matches as transpositions, and the common-prefix
boost capped at four characters.  The array kernel is tested against it
bit for bit.
"""

from __future__ import annotations

_PREFIX_LEN = 4


def jaro_winkler(a: str, b: str) -> float:
    """String similarity in [0, 1]: Jaro plus the common-prefix boost."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    if window < 0:
        window = 0
    taken = [False] * len(b)
    a_hits: list[str] = []
    b_hit_pos: list[int] = []
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not taken[j] and b[j] == ch:
                taken[j] = True
                a_hits.append(ch)
                b_hit_pos.append(j)
                break
    m = len(a_hits)
    if m == 0:
        return 0.0
    b_hits = [b[j] for j in sorted(b_hit_pos)]
    t = sum(x != y for x, y in zip(a_hits, b_hits)) // 2
    jaro = (m / len(a) + m / len(b) + (m - t) / m) / 3.0
    prefix = 0
    for x, y in zip(a, b):
        if x != y or prefix == _PREFIX_LEN:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)
