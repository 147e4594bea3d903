"""Independent reference implementations used as test oracles.

These deliberately avoid the optimized code paths: a plain FIFO breadth-first
search for distances, Busemann scans and switching comparisons, permutation
brute force and a one-lattice set DP for anagram offsets, a region-boundary
walk for digitized rays, a depth-first enumeration of Cartan words for the
lower audit, and the sub-Finsler classes straight from their Fraction
formulas. The self-test suite and the test suite compare them against the
production implementations.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Sequence

from .groups import MarkedGroup, standard_group


def naive_ball(group: MarkedGroup, radius: int) -> dict[tuple, int]:
    """Textbook FIFO BFS over the Cayley graph; key -> distance."""
    gens = [g for _, g in group.generator_items()]
    e = group.identity
    dist = {e.key(): 0}
    queue = deque([(e, 0)])
    while queue:
        g, d = queue.popleft()
        if d == radius:
            continue
        for s in gens:
            h = g * s
            k = h.key()
            if k not in dist:
                dist[k] = d + 1
                queue.append((h, d + 1))
    return dist


def naive_busemann_values(group: MarkedGroup, spec, word: Sequence[str], horizon: int) -> list[int]:
    """|h^-1 ray_n| - n for n = 0..horizon, with h the element of ``word``, from one naive ball.

    |h^-1 ray_n| <= len(word) + n, so the ball of radius len(word) + horizon
    holds every element scanned; ray_n is a plain product of the ray's letters.
    """
    dist = naive_ball(group, len(word) + horizon)
    g = group.evaluate(word).inverse()
    values = [dist[g.key()]]
    for n, letter in enumerate(spec.letters(horizon), 1):
        g = g * group.generator(letter)
        values.append(dist[g.key()] - n)
    return values


def naive_compare_rays(group: MarkedGroup, spec1, spec2, n_max: int, m_max: int, slack: int):
    """The switching comparison by a plain scan of every (n, m), distances from one naive ball.

    For each n <= n_max, the least m in [n, m_max] with d(ray1_m, ray2_n) and
    d(ray2_m, ray1_n) both at most m - n + slack. Every budget is at most
    m_max - 1 + slack, so an element outside the ball of that radius exceeds
    it; ray elements are plain products of the rays' letters. There is no
    state cap, so the status is ``verified`` or ``not_found``.
    """
    from .horoboundary import ComparisonResult

    dist = naive_ball(group, m_max - 1 + slack)
    g1, g2 = ([group.evaluate(spec.letters(m)) for m in range(m_max + 1)]
              for spec in (spec1, spec2))

    def holds(n: int, m: int) -> bool:
        budget = m - n + slack
        return all(dist.get((a[m].inverse() * b[n]).key(), budget + 1) <= budget
                   for a, b in ((g1, g2), (g2, g1)))

    witnesses = []
    for n in range(1, n_max + 1):
        found = next((m for m in range(n, m_max + 1) if holds(n, m)), None)
        if found is None:
            return ComparisonResult("not_found", witnesses, n, m_max, slack, failing_n=n)
        witnesses.append((n, found))
    return ComparisonResult("verified", witnesses, n_max, m_max, slack)


def brute_force_anagram_offsets(group: MarkedGroup, word: Sequence[str]) -> set[int]:
    """Central offsets of all reorderings of ``word``, by full enumeration.

    Returns offsets in units of the positive generator of the commutator
    subgroup. Only sensible for short words (|word| <= 8 or so).
    """
    from itertools import permutations

    unit = group.commutator_unit
    if unit is None:
        raise ValueError("needs a non-degenerate Heisenberg marked group")
    base = group.evaluate(word)
    offsets = set()
    for perm in set(permutations(word)):
        g = group.evaluate(perm)
        diff = g.c - base.c
        assert g.a == base.a and g.b == base.b and diff % unit == 0
        offsets.add(diff // unit)
    return offsets


def lattice_anagram_offsets(group: MarkedGroup, word: Sequence[str]) -> set[int]:
    """Central offsets of all reorderings of ``word``, by one DP over letter counts.

    The abelianized part of a partial product depends only on how many of
    each letter were consumed, so the central increment of appending a
    letter is a function of (counts, letter). One lattice over all the
    letters, one set of central values per state, layer by layer: no
    commuting blocks and no bitmasks. Polynomial in the word length for a
    fixed alphabet, so it checks words too long for brute force.
    """
    unit = group.commutator_unit
    if unit is None:
        raise ValueError("needs a non-degenerate Heisenberg marked group")
    word = tuple(word)
    distinct = sorted(set(word))
    counts = tuple(word.count(s) for s in distinct)
    gens = [group.generator(s) for s in distinct]
    states: dict[tuple[int, ...], set[int]] = {(0,) * len(distinct): {0}}
    for _ in range(len(word)):
        nxt: dict[tuple[int, ...], set[int]] = {}
        for state, cs in states.items():
            a_part = [sum(cnt * g.a[i] for cnt, g in zip(state, gens)) for i in range(group.params)]
            for li, g in enumerate(gens):
                if state[li] >= counts[li]:
                    continue
                inc = g.c + sum(p * q for p, q in zip(a_part, g.b))
                key = state[:li] + (state[li] + 1,) + state[li + 1 :]
                nxt.setdefault(key, set()).update(c + inc for c in cs)
        states = nxt
    (final_cs,) = states.values()
    base = group.evaluate(word).c
    return {(c - base) // unit for c in final_cs}


def brute_force_digitized(direction: tuple[int, int], n: int) -> tuple[str, ...]:
    """First-quadrant digitized ray by explicit square classification.

    Classifies every square center in a window by which side of the ray it
    lies on (on-line centers alternate starting below), then reads the
    boundary staircase column by column as the largest classified-below
    height. Independent of the incremental construction used in production.
    """
    a, b = direction
    assert a > 0 and b > 0
    width = n + 2
    max_below: dict[int, int] = {}
    ties: list[tuple[int, int]] = []
    for i in range(width):
        jhi = (b * (2 * i + 1)) // (2 * a) + 2
        best = None
        for j in range(-2, jhi + 1):
            lhs = b * (2 * i + 1)
            rhs = a * (2 * j + 1)
            if lhs > rhs:
                best = j if best is None else max(best, j)
            elif lhs == rhs:
                ties.append((i, j))
        max_below[i] = best if best is not None else -1
    # on-line squares alternate below/above along the ray, nearest first,
    # starting with below
    ties.sort()
    for idx, (i, j) in enumerate(ties):
        if idx % 2 == 0:
            max_below[i] = max(max_below[i], j)
    letters: list[str] = []
    height = 0
    for i in range(width):
        top = max_below[i] + 1  # the path's horizontal run in column i
        while height < top and len(letters) < n:
            letters.append("y")
            height += 1
        if len(letters) < n:
            letters.append("x")
    return tuple(letters[:n])


def brute_force_detour_pairings(target, u_perp, n: int, max_length: int) -> dict:
    """length -> (max <6B; u_perp>, word count) over the Cartan words ending at target.

    Enumerates every word of length <= max_length by depth-first search,
    multiplying CartanElement values and pairing the barycenter of each
    word that ends at target, so it shares no formula with the dynamic
    program it checks. Prefixes too far (l1) from target are pruned. Only
    sensible for max_length <= 10 or so.
    """
    from .cartan import perp_pairing6

    group = standard_group("cartan")
    gens = [g for _, g in group.generator_items()]
    out: dict[int, tuple[int, int]] = {}
    stack = [(group.identity, 0)]
    while stack:
        g, k = stack.pop()
        gap = abs(target[0] - g.x) + abs(target[1] - g.y)
        if gap > max_length - k:
            continue
        if gap == 0 and k >= n:
            val = perp_pairing6(g, u_perp)
            best, count = out.get(k, (val, 0))
            out[k] = (max(best, val), count + 1)
        if k < max_length:
            stack.extend((g * s, k + 1) for s in gens)
    return dict(sorted(out.items()))


def omega(v: Sequence, w: Sequence) -> Fraction:
    """omega((a,b),(a',b')) = a'b - ab'."""
    a, b = Fraction(v[0]), Fraction(v[1])
    a2, b2 = Fraction(w[0]), Fraction(w[1])
    return a2 * b - a * b2


def naive_horofn_eval(polygon, cls, point: Sequence) -> Fraction:
    """A sub-Finsler boundary class at (v, c), in Fractions from the vertex list.

    alpha_k(v) = omega(e_k, v) / omega(e_k, v_k) is formed on every call from
    ``polygon.vertex`` and ``polygon.edge``, never from the polygon's integer
    rows; c is ignored.
    """
    from .subfinsler import Mixed, NonVertical, Vertical, check_class

    check_class(polygon, cls)
    v = (Fraction(point[0]), Fraction(point[1]))

    def alpha(k):
        e = polygon.edge(k)
        return omega(e, v) / omega(e, polygon.vertex(k))

    if isinstance(cls, Vertical):
        return -max(alpha(k) for k in range(1, len(polygon) + 1))
    r = Fraction(cls.r)
    if isinstance(cls, NonVertical):
        return r * alpha(cls.k) + (1 - r) * alpha(cls.k - 1)
    if isinstance(cls, Mixed):
        side = omega(polygon.vertex(cls.i), v)
        if side <= 0 if cls.orientation == "le" else side >= 0:
            return alpha(cls.i if cls.variant == 1 else cls.i - 1)
        return r * alpha(cls.i) + (1 - r) * alpha(cls.i - 1)
    raise ValueError(f"unknown class {cls!r}")
