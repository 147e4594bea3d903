"""Exact word metrics on implicit Cayley graphs: balls, lengths, geodesic tests.

Word lengths in a Heisenberg group H_k come first from its central table
(``_CentralTable``, one per marked group, grown lazily): layer L holds, for
each abelianized endpoint (a, b), the exact set of central values c that
words of length exactly L reach. The length of (a, b, c) is the first layer
from the gauge bound up that holds c. Every other length comes from a
bidirectional level-synchronous search pruned by the abelianized gauge, which
lower-bounds word length (each generator projects into the unit ball of the
gauge). The heuristic is admissible, so results are exact and "exceeds
budget" is a proved claim whenever the frontiers were exhausted rather than
capped.

One state cap bounds every enumeration, in group elements held, checked
after every level: a search charges its states, the central table the
elements of every layer up to the one a query scans, a ball its entries. The
table's charge depends only on the marking and the layer, and a query that
would charge more runs the search, so a capped answer never depends on what
ran before. A length query over the cap is ``inconclusive``; a ball over it
raises BudgetExceededError.

Searches run on canonical element keys (``GroupElement.key()`` tuples), not
on element objects: each state is its own hash key, and right multiplication
by a generator is one step function on keys (see ``_step_fns``). In every
kind the abelianization is ``key[1:1 + abelian_rank]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul, sub
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError, DegenerateInputError, GroupKindMismatchError
from .groups import AbelianElement, CartanElement, GroupElement, HeisenbergElement, MarkedGroup
from .polytope import IMPROPER, Face, Polytope

Key = tuple
Step = Callable[[Key], Key]

DEFAULT_STATE_CAP = 2_000_000


@dataclass
class DistanceTable:
    """Exact ball: canonical element key -> word length, complete up to radius."""

    group_hash: str
    radius: int
    entries: dict[tuple, int]

    def sphere_sizes(self) -> list[int]:
        out = [0] * (self.radius + 1)
        for d in self.entries.values():
            out[d] += 1
        return out

    def __len__(self):
        return len(self.entries)


@lru_cache(maxsize=64)
def projected_polytope(group: MarkedGroup) -> Polytope:
    """Convex hull of the abelianized generators, with labeled point lookup."""
    pts = [g.abelianized() for _, g in group.generator_items()]
    return Polytope(pts)


@lru_cache(maxsize=64)
def _gauge_ceil_fn(group: MarkedGroup) -> Callable[[tuple[int, ...]], int]:
    """ceil(gauge(v)) as pure integer arithmetic.

    Constantly 0, still a lower bound, when the hull is not full-dimensional
    or 0 is not interior: then no facet list describes the gauge.
    """
    poly = projected_polytope(group)
    facets = poly.integer_facets()
    if poly.dim != poly.ambient or any(c <= 0 for _, c in facets):
        facets = []

    def gauge_ceil(v: tuple[int, ...]) -> int:
        best = 0
        for cov, off in facets:
            num = sum(map(mul, cov, v))
            if num > 0:
                q = -(-num // off)
                if q > best:
                    best = q
        return best

    return gauge_ceil


def _abelian_step(s: AbelianElement) -> Step:
    if len(s.vec) == 2:
        dx, dy = s.vec
        return lambda k: ("a", k[1] + dx, k[2] + dy)
    vec = s.vec
    return lambda k: ("a", *map(add, k[1:], vec))


def _heisenberg_step(s: HeisenbergElement) -> Step:
    """(a, b, c)(s_a, s_b, s_c) = (a + s_a, b + s_b, c + s_c + a.s_b): affine in the key."""
    sc = s.c
    if len(s.a) == 1:
        (sa,), (sb,) = s.a, s.b

        def step(k):
            _, a, b, c = k
            return ("h", a + sa, b + sb, c + sc + a * sb)

        return step
    ab, sb, stop = s.a + s.b, s.b, 1 + len(s.a)
    return lambda k: ("h", *map(add, k[1:-1], ab), k[-1] + sc + sum(map(mul, k[1:stop], sb)))


def _cartan_step(s: CartanElement) -> Step:
    """The polynomial update of ``CartanElement.__mul__`` with the right factor fixed."""
    x2, y2, a2, bx2, by2 = s.x, s.y, s.area2, s.bar6x, s.bar6y

    def step(k):
        _, x1, y1, a1, bx1, by1 = k
        det = x1 * y2 - y1 * x2
        return ("c", x1 + x2, y1 + y2, a1 + a2 + det,
                bx1 + bx2 + 3 * x1 * a2 + (2 * x1 + x2) * det,
                by1 + by2 + 3 * y1 * a2 + (2 * y1 + y2) * det)

    return step


_STEP_MAKERS = {"abelian": _abelian_step, "heisenberg": _heisenberg_step, "cartan": _cartan_step}


@lru_cache(maxsize=64)
def _step_fns(group: MarkedGroup) -> tuple[Step, ...]:
    """Right multiplication by each generator, in label order, as a map on keys.

    Rank-2 abelian groups and H_1 (any generating set) get steps specialised to
    their rank; every other rank uses the generic step of its kind.
    """
    make = _STEP_MAKERS[group.kind]
    return tuple(make(s) for _, s in group.generator_items())


class _CentralTable:
    """Exact central values by abelianized endpoint, layer by layer, for one H_k marking.

    ``layers[L]`` maps each endpoint p = (a, b) of a word of length exactly L
    to ``(lo, mask)``: bit i of mask is set iff some such word evaluates to
    (a, b, lo + i). A generator s moves p by s.a + s.b and shifts the whole
    set by s.c + a.s_b, so a layer is shifts and ORs of the one before; the
    sets are exact, holes included. ``charges[L]`` counts the elements held
    by layers 0..L, the unit a search state is counted in, and depends only
    on the marking and L.
    """

    def __init__(self, group: MarkedGroup):
        self.rank = group.params
        self.moves = [(s.a + s.b, s.c, s.b) for _, s in group.generator_items()]
        self.layers: list[dict[Key, tuple[int, int]]] = [{(0,) * (2 * self.rank): (0, 1)}]
        self.charges = [1]

    def _grow(self):
        k = self.rank
        nxt: dict[Key, tuple[int, int]] = {}
        for p, (lo, mask) in self.layers[-1].items():
            a = p[:k]
            for move, sc, sb in self.moves:
                q = tuple(map(add, p, move))
                shift = lo + sc + sum(map(mul, a, sb))
                old = nxt.get(q)
                if old is None:
                    nxt[q] = (shift, mask)
                elif shift < old[0]:
                    nxt[q] = (shift, mask | old[1] << (old[0] - shift))
                else:
                    nxt[q] = (old[0], old[1] | mask << (shift - old[0]))
        self.layers.append(nxt)
        self.charges.append(self.charges[-1] + sum(m.bit_count() for _, m in nxt.values()))

    def lookup(self, key: Key, lower: int, budget: int, state_cap: int) -> LengthResult | None:
        """The first layer in lower..budget holding the element, grown as needed.

        None when a layer to scan would charge more than ``state_cap``; the
        answer then needs the search.
        """
        p, c = key[1:-1], key[-1]
        layers, charges = self.layers, self.charges
        for length in range(lower, budget + 1):
            while len(layers) <= length:
                if charges[-1] > state_cap:
                    return None
                self._grow()
            if charges[length] > state_cap:
                return None
            lo, mask = layers[length].get(p, (0, 0))
            if c >= lo and mask >> (c - lo) & 1:
                return LengthResult("exact", length, lower, 0)
        return LengthResult("exceeds_budget", None, lower, 0)


@lru_cache(maxsize=64)
def _central_table(group: MarkedGroup) -> _CentralTable:
    return _CentralTable(group)


def gauge_lower_bound(group: MarkedGroup, g: GroupElement) -> int:
    """ceil of the abelianized gauge: a proved lower bound for word length."""
    return _gauge_ceil_fn(group)(g.abelianized())


def ball(group: MarkedGroup, radius: int, state_cap: int = DEFAULT_STATE_CAP) -> DistanceTable:
    """Complete exact ball of the given radius around the identity.

    Level-synchronous expansion over canonical keys; the table content is
    deterministic. The elements held are checked against ``state_cap`` after
    every level, level 0 included, so this raises BudgetExceededError exactly
    when the ball holds more than ``state_cap`` elements.
    """
    if radius < 0:
        raise DegenerateInputError("radius must be >= 0")
    steps = _step_fns(group)
    e = group.identity.key()
    entries: dict[Key, int] = {e: 0}
    frontier: list[Key] = [e]
    r = 0
    while len(entries) <= state_cap:
        if r == radius:
            return DistanceTable(group.group_hash, radius, entries)
        r += 1
        nxt: list[Key] = []
        for g in frontier:
            for step in steps:
                k = step(g)
                if k not in entries:
                    entries[k] = r
                    nxt.append(k)
        frontier = nxt
    raise BudgetExceededError(
        f"ball of radius {r} holds more than the state cap of {state_cap} elements")


@dataclass
class LengthResult:
    """Outcome of a bounded word-length query.

    ``status``: ``exact`` (length holds), ``exceeds_budget`` (proved
    > budget), or ``inconclusive`` (state cap hit before a verdict).
    ``expanded`` counts search states, so a table answer reports 0.
    """

    status: str
    length: int | None
    lower_bound: int
    expanded: int

    @property
    def exact(self) -> bool:
        return self.status == "exact"


def word_length(
    group: MarkedGroup,
    g: GroupElement,
    budget: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> LengthResult:
    """Exact word length of g if <= budget, otherwise a proof that it exceeds it.

    Heisenberg lengths come from the group's central table while the layers
    to scan charge at most ``state_cap``; other answers come from the
    search. Both search frontiers prune states whose depth plus remaining
    gauge exceeds the budget; that never discards a viable path, so an
    exhausted search is a proof of ``exceeds_budget``.
    """
    if budget < 0:
        raise DegenerateInputError("budget must be >= 0")
    e, start = group.identity.key(), g.key()
    if len(start) != len(e) or start[0] != e[0]:
        raise GroupKindMismatchError("element does not belong to this group")
    lower = gauge_lower_bound(group, g)
    if g.is_identity():
        return LengthResult("exact", 0, lower, 0)
    if lower > budget:
        return LengthResult("exceeds_budget", None, lower, 0)
    if group.kind == "heisenberg":
        res = _central_table(group).lookup(start, lower, budget, state_cap)
        if res is not None:
            return res

    gauge_fn = _gauge_ceil_fn(group)
    steps = _step_fns(group)
    target_ab = g.abelianized()
    stop = 1 + group.abelian_rank

    fwd: dict[Key, int] = {e: 0}
    bwd: dict[Key, int] = {start: 0}
    fwd_frontier: list[Key] = [e]
    bwd_frontier: list[Key] = [start]
    df = db = 0
    best = None
    expanded = 0

    def fwd_h(k: Key) -> int:
        return gauge_fn(tuple(map(sub, target_ab, k[1:stop])))

    def bwd_h(k: Key) -> int:
        return gauge_fn(k[1:stop])

    while True:
        if best is not None and best <= budget and df + db >= best:
            return LengthResult("exact", best, lower, expanded)
        if df + db >= budget:
            # every length <= df+db would have produced a meeting by now
            return LengthResult("exceeds_budget", None, lower, expanded)
        if not fwd_frontier and not bwd_frontier:
            if best is not None and best <= budget:
                return LengthResult("exact", best, lower, expanded)
            return LengthResult("exceeds_budget", None, lower, expanded)

        forward = bool(fwd_frontier) and (not bwd_frontier or len(fwd) <= len(bwd))
        if forward:
            frontier, seen, other, depth, h = fwd_frontier, fwd, bwd, df + 1, fwd_h
        else:
            frontier, seen, other, depth, h = bwd_frontier, bwd, fwd, db + 1, bwd_h
        nxt: list[Key] = []
        for node in frontier:
            for step in steps:
                k = step(node)
                if k in seen:
                    continue
                if depth + h(k) > budget:
                    continue
                seen[k] = depth
                expanded += 1
                od = other.get(k)
                if od is not None:
                    cand = depth + od
                    if best is None or cand < best:
                        best = cand
                nxt.append(k)
        if len(fwd) + len(bwd) > state_cap:
            levels = (depth + db) if forward else (df + depth)
            if best is not None and best <= budget and levels >= best:
                return LengthResult("exact", best, lower, expanded)
            return LengthResult("inconclusive", best, lower, expanded)
        if forward:
            fwd_frontier, df = nxt, depth
        else:
            bwd_frontier, db = nxt, depth


def distance(
    group: MarkedGroup,
    g: GroupElement,
    h: GroupElement,
    budget: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> LengthResult:
    """d(g, h) = |g^{-1} h| under left invariance."""
    return word_length(group, g.inverse() * h, budget, state_cap)


@dataclass(frozen=True)
class Certificate:
    """Face certificate for geodesity: all letters project into a proper face."""

    certified: bool
    face: Face | None = None


def letter_face(group: MarkedGroup, letters: Iterable[str]) -> Face | None:
    """Minimal proper face of the projected generator hull holding the letters.

    IMPROPER when the abelianized letters lie on no proper face. This is the
    one lookup behind face certificates, Busemann gauge bounds and orbit keys.
    """
    pts = {group.generator(letter).abelianized() for letter in letters}
    return projected_polytope(group).minimal_face_of_points(list(pts))


def geodesic_certificate_by_face(group: MarkedGroup, word: Sequence[str]) -> Certificate:
    """Certified when the abelianized letters share a proper face of the hull.

    Then any functional supporting that face evaluates to exactly 1 per
    letter, so the abelianized gauge of every prefix equals its length and
    the word is geodesic. ``Unknown`` (certified=False) is not a refutation.
    """
    if not word:
        return Certificate(True, None)
    face = letter_face(group, word)
    return Certificate(face is not IMPROPER, face)


def is_geodesic_word(
    group: MarkedGroup,
    word: Sequence[str],
    state_cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """True iff every prefix evaluates to an element of length = prefix length.

    The face certificate decides it when it applies, otherwise one search.
    """
    return geodesic_certificate_by_face(group, word).certified or is_geodesic_by_search(
        group, word, state_cap)


def is_geodesic_by_search(
    group: MarkedGroup,
    word: Sequence[str],
    state_cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """``is_geodesic_word`` without the face certificate, for callers that hold it.

    Every prefix of a geodesic word is geodesic, so one search of the whole
    word at budget ``len(word)`` decides it. When that search hits the state
    cap this raises BudgetExceededError (fails closed), even if a shorter
    prefix alone would have shown the word is not geodesic.
    """
    res = word_length(group, group.evaluate(word), budget=len(word), state_cap=state_cap)
    if res.status == "inconclusive":
        raise BudgetExceededError(f"state cap hit while checking a word of length {len(word)}")
    if not res.exact:
        raise AssertionError(f"a word of length {len(word)} exceeds that budget (hard bug)")
    return res.length == len(word)
