"""Exact word metrics on implicit Cayley graphs: balls, lengths, geodesic tests.

Everything kept for a marked group is held by its ``_Marking``. A length
query is answered by the first of three tiers that applies:

1. H_k: the marking's central table (``_CentralTable``, grown lazily).
   Layer L holds, for each abelianized endpoint (a, b), the exact set of
   central values c that words of length exactly L reach; the length of
   (a, b, c) is the first layer from the gauge bound up that holds c.
2. Cartan: the identity ball (``_IdentityBall``, taken on the marking's
   first query from the first levels of its ball store): the largest
   complete ball around the identity with at most ``ORACLE_BALL_ENTRIES``
   elements. A target in it is a lookup; otherwise the bidirectional search
   runs with the ball as its forward side, R levels deep before it starts.
3. Everything else, and any query a tier's charge puts over the state cap:
   the plain bidirectional level-synchronous search.

A search's last level, the one that reaches the budget, only tests the two
sides for a meeting and holds no state. The levels before it prune by a
lower bound on the steps left: on a Cartan marking whose generators map onto
x^±1, y^±1 of the standard H_1, the H_1 length of the state's image
(``_h1_length``, in closed form); on every other marking the abelianized
gauge (each generator projects into the unit ball of the gauge). Both bounds
are admissible, so results are exact and "exceeds budget" is a proved claim
whenever the frontiers were exhausted rather than capped. The bound toward
the identity is kept per marking; the one toward a target serves one search.

A caller that holds a proved upper bound on the length asks
``length_within`` instead: the search runs below the bound, and the bound
answers once the search is exhausted. Where lengths have the parity of a
linear form on the abelianization (``_Marking.parity``), as on the standard
markings of Z^d, H_k and the Cartan group, the search stops two levels short
of the bound, since the length of the bound's parity below it is the only one
left; otherwise one level short.

Every ball is read from the marking's ball store (``_BallStore``), grown one
level at a time, only as far as a query asks: an abelian or Cartan level by
a level-synchronous expansion, an H_k level sphere by sphere from the
central table. A ball of the store's radius is a copy of the store; a
smaller one is a copy of the store's kept ball of that radius, its first
levels cut once on the first ask. The Cartan identity ball is the kept ball
of radius R itself.

One state cap bounds every enumeration, in group elements held, checked
after every level. The central table charges the elements of every layer up
to the one a query scans, the bidirectional search its states (the identity
ball's entries among them when the ball seeds it), a ball its entries. A
search's last level holds no state, so it charges nothing and the cap never
stops it. The tiers' charges do not depend on what ran before, and a query a
tier cannot answer within the cap runs the plain bidirectional search, so a
capped answer never depends on earlier queries. A length query over the cap is
``inconclusive``; a ball over it raises BudgetExceededError. The central
table and the ball store keep what they grew as long as the marking is kept:
the largest ball asked for, plus the level that overflowed the cap (which an
H_k store has counted but not built), and one kept ball per smaller radius
asked for, a dict table over the store's own keys.

Searches run on canonical element keys (``GroupElement.key()`` tuples), not
on element objects: each state is its own hash key, and right multiplication
by a generator is one step function on keys (``_Marking.steps``). In every
kind the abelianization is ``key[1:1 + abelian_rank]``; a search's bound reads
``key[1:_Marking.bound_stop]``, which is (x, y, 2·area) for the H_1 quotient.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice, product
from operator import add, mul, sub
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError, DegenerateInputError, GroupKindMismatchError
from .groups import AbelianElement, CartanElement, GroupElement, HeisenbergElement, MarkedGroup
from .polytope import IMPROPER, Face, Polytope

Key = tuple
Step = Callable[[Key], Key]

DEFAULT_STATE_CAP = 2_000_000
ORACLE_BALL_ENTRIES = 5_000  # bound on the identity ball of each Cartan marking


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
    or 0 is not interior: then no facet list describes the gauge. In rank 2
    the facet rows are unpacked once, so a call is a few products.
    """
    poly = projected_polytope(group)
    facets = poly.integer_facets()
    if poly.dim != poly.ambient or any(c <= 0 for _, c in facets):
        facets = []

    if poly.ambient == 2:
        rows = [(c0, c1, off) for (c0, c1), off in facets]

        def gauge_ceil(v: tuple[int, ...]) -> int:
            x, y = v
            best = 0
            for c0, c1, off in rows:
                num = c0 * x + c1 * y
                if num > 0:
                    q = -(-num // off)
                    if q > best:
                        best = q
            return best

        return gauge_ceil

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


def _h1_length(a: int, b: int, c: int) -> int:
    """Exact word length of ('h', a, b, c) on the standard H_1 marking {x, y, x~, y~}.

    By the key's convention c sums, over a word's letters y^±1, ± the a
    reached before the letter. Let A, B = |a|, |b|, L >= A + B of the parity
    of A + B, s = (L - A - B)/2 and top(L) = max over 0 <= h <= s of
    (A + h)(B + s - h), less AB when ab < 0. The words of length exactly L
    that end over (a, b) reach exactly the c in [ab - top(L), top(L)]
    (Blachère, Colloq. Math. 95, 2003):

    - Top, for a, b >= 0. Let a word have h letters x~, so a + h letters x,
      s - h letters y~ and b + s - h letters y, and let its a range over
      [-p, M]. A y adds at most M to c and a y~ at most p. The x~ letters take
      a down from 0 to -p and from M to a, or from M to -p, so M + p <= a + h
      and c <= M(b + s - h) + p(s - h) <= (a + h)(b + s - h) - pb. The word
      y~^(s-h) x^(a+h) y^(b+s-h) x~^h attains it. Swapping x with x~, or y
      with y~, negates c, and swapping x with y takes c to ab - c: hence the
      other quadrants and the bottom.
    - Interval. Swapping two adjacent letters moves c by at most 1, so the
      rearrangements of a word reach an interval of c, which holds ab (all
      x-letters first).
    - Nesting. Appending x x~ puts layer L into layer L + 2, and each letter
      changes the parity of a + b, so |g| is the least such L with c in it.

    (A + h)(B + s - h) is concave in h and peaks at the integer (B + s - A)//2.
    """
    A, B, L = abs(a), abs(b), abs(a) + abs(b)
    while True:
        s = (L - A - B) // 2
        h = min(max((B + s - A) // 2, 0), s)
        top = (A + h) * (B + s - h) - (A * B if a * b < 0 else 0)
        if a * b - top <= c <= top:
            return L
        L += 2


class _BoundMemo(dict):
    """Key prefix p -> max(floor, dist(p)), filled on misses only, so dist runs once per p."""

    def __init__(self, dist: Callable[[tuple[int, ...]], int], floor: int):
        super().__init__()
        self.dist, self.floor = dist, floor

    def __missing__(self, p: tuple[int, ...]) -> int:
        bound = self[p] = max(self.dist(p), self.floor)
        return bound


_H1_LETTERS = {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)}  # x^±1, y^±1 of standard H_1


def _h1_image(p: tuple[int, ...]) -> tuple[int, int, int]:
    """π(('c', x, y, a2, ...)) = ('h', x, y, (a2 + xy)/2), read from p = (x, y, a2)."""
    x, y, a2 = p
    return x, y, (a2 + x * y) // 2


def _steps_left_bound(marking: _Marking, target: tuple[int, ...] | None = None,
                      floor: int = 0) -> Callable[[tuple[int, ...]], int]:
    """A search's lower bound on the steps left from a state k, as a map on p = k[1:bound_stop].

    With ``_Marking.h1_quotient``, p = (x, y, a2) and the bound is max(floor,
    |π(k)⁻¹π(t)|_H1) toward t, the element over ``target``, or toward t = e
    when ``target`` is None: π is a homomorphism taking each generator to one
    of H_1 length 1, so it lengthens no word, and the gauge factors through
    π, so the bound is never below it. Otherwise p is the abelianized point
    and the bound is max(floor, ceil gauge(target - p)), or of gauge(p). Many
    states share p except in an abelian group, where p is the state itself
    and a memo would never hit, so the gauge is called directly. A bound
    toward a target serves one search; one toward the identity depends only
    on the marking and the floor, so it is kept: ``_Marking.identity_bound``
    for floor 0, and ``_IdentityBall.bound`` for the floor R + 1.
    """
    if marking.h1_quotient:
        tx, ty, tc = _h1_image(target or (0, 0, 0))

        def dist(p):  # the H_1 length of π(k)⁻¹π(t)
            x, y, c = _h1_image(p)
            return _h1_length(tx - x, ty - y, tc - c - x * (ty - y))

        return _BoundMemo(dist, floor).__getitem__
    gauge = _gauge_ceil_fn(marking.group)
    dist = gauge if target is None else lambda p: gauge(tuple(map(sub, target, p)))
    if marking.group.kind == "abelian" and not floor:
        return dist
    return _BoundMemo(dist, floor).__getitem__


def _abelian_step(s: AbelianElement) -> Step:
    if len(s.vec) == 2:
        dx, dy = s.vec
        return lambda k: ("a", k[1] + dx, k[2] + dy)
    vec = s.vec
    return lambda k: ("a", *map(add, k[1:], vec))


def _heisenberg_step(s: HeisenbergElement) -> Step:
    """(a, b, c)(s_a, s_b, s_c) = (a + s_a, b + s_b, c + s_c + a.s_b): affine in the key."""
    sc, ab, sb, stop = s.c, s.a + s.b, s.b, 1 + len(s.a)
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


class _Marking:
    """Everything the metric keeps for one marked group, held by ``_marking``.

    Built with it: ``steps``, right multiplication by each generator in label
    order as a map on keys; ``table``, an H_k marking's central table, else
    None; ``store``, the ball store, which reads that same table;
    ``h1_quotient``, whether π maps the generators exactly onto x^±1, y^±1 of
    the standard H_1 (Cartan only), and ``bound_stop``, the end of the key
    prefix a search's bound reads: 4 if so, else 1 + rank; ``faces``, the
    letter faces by label set, filled as ``letter_face`` asks. Built on first
    read: ``identity_ball``, ``identity_bound`` and ``parity``. The last two
    may need the hull's polytope, which no marking above ``polytope.MAX_DIM``
    has, so ``ball`` never reads them. All of it grows only as queries ask
    and is kept, and dropped, together: until the marking falls out of the
    64 most recently used.
    """

    def __init__(self, group: MarkedGroup):
        self.group = group
        make = _STEP_MAKERS[group.kind]
        self.steps: tuple[Step, ...] = tuple(make(s) for _, s in group.generator_items())
        self.table = _CentralTable(self) if group.kind == "heisenberg" else None
        self.store = _BallStore(self)
        self.h1_quotient = group.kind == "cartan" and _H1_LETTERS == {
            _h1_image(s.key()[1:4]) for _, s in group.generator_items()}
        self.bound_stop = 4 if self.h1_quotient else 1 + group.abelian_rank
        self.faces: dict[frozenset[str], Face | None] = {}

    @cached_property
    def identity_ball(self) -> _IdentityBall:
        return _IdentityBall(self)

    @cached_property
    def identity_bound(self) -> Callable[[tuple[int, ...]], int]:
        return _steps_left_bound(self)

    @cached_property
    def parity(self) -> tuple[int, ...] | None:
        """f in {0,1}^d with f.ab(s) odd for every generator s, or None if there is none.

        Given f, every word for g has length congruent to f.ab(g) mod 2, so
        every relator has even length. There is none when some relator is
        odd, as with a central generator or with (1, 1) beside x and y. The
        hull's polytope allows d <= 4, so at most 16 candidates are tried.
        """
        projected_polytope(self.group)  # raises above polytope.MAX_DIM
        gens = [s.abelianized() for _, s in self.group.generator_items()]
        return next((f for f in product((0, 1), repeat=self.group.abelian_rank)
                     if all(sum(map(mul, f, v)) % 2 for v in gens)), None)


_marking = lru_cache(maxsize=64)(_Marking)


class _CentralTable:
    """Exact central values by abelianized endpoint, layer by layer, for one H_k marking.

    ``layers[L]`` maps each endpoint p = (a, b) of a word of length exactly L
    to ``(lo, mask)``: bit i of mask is set iff some such word evaluates to
    (a, b, lo + i). A generator's step function takes the key (h, p, lo) to
    (h, q, shift): it moves p to q and shifts the whole set to start at
    shift, so a layer is shifts and ORs of the one before; the sets are
    exact, holes included. ``sizes[L]`` counts the elements of
    layer L and ``charges[L]`` those held by layers 0..L, the unit a search
    state is counted in; both depend only on the marking and L.
    """

    def __init__(self, marking: _Marking):
        self.steps = marking.steps
        origin = (0,) * (2 * marking.group.params)
        self.layers: list[dict[Key, tuple[int, int]]] = [{origin: (0, 1)}]
        self.sizes = [1]
        self.charges = [1]

    def _grow(self):
        nxt: dict[Key, tuple[int, int]] = {}
        for p, (lo, mask) in self.layers[-1].items():
            key = ("h", *p, lo)
            for step in self.steps:
                k = step(key)
                q, shift = k[1:-1], k[-1]
                old = nxt.get(q)
                if old is None:
                    nxt[q] = (shift, mask)
                elif shift < old[0]:
                    nxt[q] = (shift, mask | old[1] << (old[0] - shift))
                else:
                    nxt[q] = (old[0], old[1] | mask << (shift - old[0]))
        self.layers.append(nxt)
        self.sizes.append(sum(m.bit_count() for _, m in nxt.values()))
        self.charges.append(self.charges[-1] + self.sizes[-1])

    def lookup(self, key: Key, lower: int, budget: int, state_cap: int) -> LengthResult | None:
        """The first layer in lower..budget holding the element, grown as needed.

        None when a layer to scan would charge more than ``state_cap``; the
        answer then needs the search. The generating set is symmetric, so
        layer L + 1 holds every element of layer L - 1 (append s s~): a layer
        whose charge that floor already puts over the cap is never built.
        """
        p, c = key[1:-1], key[-1]
        layers, sizes, charges = self.layers, self.sizes, self.charges
        for length in range(lower, budget + 1):
            while len(layers) <= length:
                if charges[-1] + (sizes[-2] if len(sizes) > 1 else 0) > state_cap:
                    return None
                self._grow()
            if charges[length] > state_cap:
                return None
            lo, mask = layers[length].get(p, (0, 0))
            if c >= lo and mask >> (c - lo) & 1:
                return LengthResult("exact", length, lower, 0)
        return LengthResult("exceeds_budget", None, lower, 0)


class _BallStore:
    """The exact ball around the identity of one marking, grown on demand.

    ``dist`` maps each element to its length and is filled level by level, so
    the ball of radius r is its first ``counts[r]`` items (``counts`` is
    cumulative). ``grow`` counts the next level. An abelian or Cartan level is
    expanded from the last one, whose keys ``sphere`` lists, and so is built as
    it is counted. An H_k level is read from the central table: the
    generating set is symmetric, so layer L holds layer L - 2, and an element
    of length d < L lies in layer L - 1 or L - 2 (whichever has the parity of
    d). Hence sphere L at an endpoint is its layer-L mask minus the layer
    L - 1 and L - 2 masks there. ``sphere`` then lists (key head, lo, mask)
    per endpoint, and the level's entries are built only when the next
    ``grow`` or a ``prefix`` needs them, so a level counted over a cap is
    never built. A level is grown only when a query asks for it.

    ``kept`` holds the ball of each radius below the store's that was asked
    for, cut from ``dist`` once (``dist`` grows, so its own radius is never
    kept); ``prefix`` hands out copies, which reuse the stored hashes.
    """

    def __init__(self, marking: _Marking):
        self.steps, self.table = marking.steps, marking.table
        e = marking.group.identity.key()
        self.dist: dict[Key, int] = {e: 0}
        self.counts = [1]
        self.sphere: list = [e]
        self.kept: dict[int, dict[Key, int]] = {}

    def grow(self):
        if self.table is not None:
            self._build()
            self._count_from_table()
            return
        dist, r = self.dist, len(self.counts)
        nxt: list[Key] = []
        for g in self.sphere:
            for step in self.steps:
                k = step(g)
                if k not in dist:
                    dist[k] = r
                    nxt.append(k)
        self.sphere = nxt
        self.counts.append(len(dist))

    def _count_from_table(self):
        table, r = self.table, len(self.counts)
        layers = table.layers
        while len(layers) <= r:
            table._grow()
        older = layers[max(r - 2, 0):r]
        sphere = []
        held = self.counts[-1]
        for p, (lo, mask) in layers[r].items():
            for layer in older:
                olo, omask = layer.get(p, (0, 0))
                mask &= ~(omask << (olo - lo) if olo >= lo else omask >> (lo - olo))
            if mask:
                sphere.append((("h", *p), lo, mask))
                held += mask.bit_count()
        self.sphere = sphere
        self.counts.append(held)

    def _build(self):
        """Enter the last level counted into ``dist``, unless it is there already."""
        dist, r = self.dist, len(self.counts) - 1
        if len(dist) == self.counts[r]:
            return
        for head, c, mask in self.sphere:
            c -= 1
            while mask:  # c walks the set bits, lowest first
                shift = (mask & -mask).bit_length()
                c += shift
                dist[(*head, c)] = r
                mask >>= shift

    def kept_ball(self, radius: int) -> dict[Key, int]:
        """The kept ball of a radius below the store's, cut from ``dist`` on the first ask."""
        if radius not in self.kept:
            self.kept[radius] = dict(islice(self.dist.items(), self.counts[radius]))
        return self.kept[radius]

    def prefix(self, radius: int) -> dict[Key, int]:
        """A fresh dict of the ball of the given radius, which must have been counted."""
        if radius == len(self.counts) - 1:
            self._build()
            return self.dist.copy()
        return self.kept_ball(radius).copy()


class _IdentityBall:
    """The largest complete ball around the identity with at most ``max_entries`` elements.

    Built on a Cartan marking's first length query: R is the largest radius
    whose ball in the marking's store has at most ``max_entries`` elements,
    and ``dist`` is the store's kept ball of radius R (never written: the
    search copies it before its forward side grows), so R, the entries and
    the charge do not depend on how far ``ball`` has grown the store.
    ``dist`` maps each element of the ball to its length and ``sphere``
    lists those of length R. A target in the ball is a lookup; for one
    outside it the ball seeds the bidirectional search's forward side.
    It owns that search's backward bound, ``bound``: the bound toward the
    identity with the floor R + 1, memoized across searches, so the gauge
    runs once per abelianized point.
    """

    def __init__(self, marking: _Marking, max_entries: int = ORACLE_BALL_ENTRIES):
        store = marking.store
        while store.counts[-1] <= max_entries:
            store.grow()
        radius = bisect_right(store.counts, max_entries) - 1
        self.dist, self.radius = store.kept_ball(radius), radius
        self.sphere = [k for k, d in self.dist.items() if d == radius]
        self.bound = _steps_left_bound(marking, floor=radius + 1)


def gauge_lower_bound(group: MarkedGroup, g: GroupElement) -> int:
    """ceil of the abelianized gauge: a proved lower bound for word length."""
    return _gauge_ceil_fn(group)(g.abelianized())


def ball(group: MarkedGroup, radius: int, state_cap: int = DEFAULT_STATE_CAP) -> DistanceTable:
    """Complete exact ball of the given radius around the identity.

    Every ball is read from the marking's ball store, whose H_k levels come
    from the central table: a copy of the whole store, or of the store's kept
    ball of that radius. The store's content is deterministic, and the
    returned entries are always a fresh dict, the caller's own.
    The elements held are checked against ``state_cap`` after every level,
    level 0 included, and a level is grown only once the ball below it is
    within the cap, so this raises BudgetExceededError exactly when the ball
    holds more than ``state_cap`` elements, whatever ran before.
    """
    if radius < 0:
        raise DegenerateInputError("radius must be >= 0")
    store = _marking(group).store
    for level in range(radius + 1):
        if level == len(store.counts):
            store.grow()
        if store.counts[level] > state_cap:
            raise _ball_over_cap(level, state_cap)
    return DistanceTable(group.group_hash, radius, store.prefix(radius))


def _ball_over_cap(radius: int, state_cap: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"ball of radius {radius} holds more than the state cap of {state_cap} elements")


@dataclass
class LengthResult:
    """Outcome of a bounded word-length query.

    ``status``: ``exact`` (length holds), ``exceeds_budget`` (proved
    > budget), or ``inconclusive`` (state cap hit before a verdict). Only
    ``exact`` carries a length. ``expanded`` counts the states a search
    added to those it started from, so a table or ball lookup reports 0.
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

    Heisenberg lengths come from the marking's central table while its charge
    stays within ``state_cap``. A Cartan target in the identity ball is a
    lookup while the ball is within the cap; one outside it, while the ball
    and the target are, is searched for with the ball as the forward side.
    Every other answer, and a seeded search that ends ``inconclusive``,
    comes from the plain bidirectional search.
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
    marking = _marking(group)
    if marking.table is not None:
        res = marking.table.lookup(start, lower, budget, state_cap)
        if res is not None:
            return res
    elif group.kind == "cartan":
        ball = marking.identity_ball
        d = ball.dist.get(start)
        if d is not None and len(ball.dist) <= state_cap:
            if d <= budget:
                return LengthResult("exact", d, lower, 0)
            return LengthResult("exceeds_budget", None, lower, 0)
        if d is None and len(ball.dist) < state_cap:
            res = _bidirectional_search(group, start, lower, budget, state_cap, ball)
            if res.status != "inconclusive":
                return res
    return _bidirectional_search(group, start, lower, budget, state_cap)


def length_within(group: MarkedGroup, g: GroupElement, upper: int,
                  state_cap: int = DEFAULT_STATE_CAP) -> LengthResult:
    """Exact word length of g, given a proved bound |g| <= ``upper``.

    Let top be ``upper``, or with a parity covector f the largest value
    <= ``upper`` of the parity of f.ab(g), and gap 1, or 2 with f. Then
    |g| <= top, and top is the only length above top - gap that g can have,
    so one ``word_length`` search at budget top - gap decides: an exact
    answer stands, and ``exceeds_budget`` proves |g| = top. ``inconclusive`` passes through. A
    gauge bound above top, or with f an exact answer of the other parity,
    contradicts the bound and raises as a hard bug.
    """
    f = _marking(group).parity
    if f is None:
        top, gap = upper, 1
    else:
        top, gap = upper - (upper - sum(map(mul, f, g.abelianized()))) % 2, 2
    # when top < gap, budget 0 finds the identity and proves any other g has length top
    res = word_length(group, g, max(top - gap, 0), state_cap)
    if res.lower_bound > top or (f is not None and res.exact and (top - res.length) % 2):
        raise AssertionError(f"a search below the proved length bound {upper} "
                             f"contradicts it (hard bug)")
    if res.status == "exceeds_budget":
        return LengthResult("exact", top, res.lower_bound, res.expanded)
    return res


def _bidirectional_search(group: MarkedGroup, start: Key, lower: int, budget: int,
                          state_cap: int, ball: _IdentityBall | None = None) -> LengthResult:
    """Level-synchronous search from the identity and from ``start``, smaller side first.

    Both frontiers prune states whose depth plus a lower bound on the steps
    left exceeds the budget, which never drops a state of a geodesic of
    length <= budget. So while neither side has met the other after depths
    df and db, |start| > df + db, or |start| > budget: the search proves
    ``exceeds_budget`` once df + db reaches the budget or either frontier is
    empty, and the first state that meets the other side proves |start| =
    df + db, its own level counted. The states held are checked against
    ``state_cap`` after every level. When df + db + 1 = budget the next level
    is the last: it only tests the frontier's neighbours for a meeting
    (``exact``, else ``exceeds_budget``), so it computes no bound and holds
    no state, and the cap cannot stop it.

    Given an identity ``ball`` that does not hold ``start``, the forward side
    starts as the ball at depth R, its sphere the frontier; it is copied, and
    its bound built, only when it first grows before the last level. A
    backward state outside the ball is farther than R from the identity, so
    the backward bound is the ball's own, with the floor R + 1; a state in
    the ball is a meeting, tested before the prune. Without a ball the
    backward bound is the marking's ``identity_bound``.
    """
    marking = _marking(group)
    steps, stop = marking.steps, marking.bound_stop
    bwd, bwd_frontier, db = {start: 0}, [start], 0
    if ball is None:
        e = group.identity.key()
        fwd, fwd_frontier, df = {e: 0}, [e], 0
        fwd_h = _steps_left_bound(marking, target=start[1:stop])
        bwd_h = marking.identity_bound
    else:
        fwd, fwd_frontier, df = ball.dist, ball.sphere, ball.radius
        fwd_h, bwd_h = None, ball.bound
    held_at_start = len(fwd) + 1

    def result(status: str, length: int | None = None) -> LengthResult:
        return LengthResult(status, length, lower, len(fwd) + len(bwd) - held_at_start)

    while True:
        if not fwd_frontier or not bwd_frontier or df + db >= budget:
            return result("exceeds_budget")
        forward = len(fwd) <= len(bwd)
        if df + db + 1 == budget:  # the last level: a meeting or nothing
            frontier, other = (fwd_frontier, bwd) if forward else (bwd_frontier, fwd)
            for node in frontier:
                for step in steps:
                    if step(node) in other:
                        return result("exact", budget)
            return result("exceeds_budget")
        if forward and fwd_h is None:
            fwd, fwd_h = dict(fwd), _steps_left_bound(marking, target=start[1:stop])
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
                if k in other:
                    return result("exact", df + db + 1)
                if depth + h(k[1:stop]) <= budget:
                    seen[k] = depth
                    nxt.append(k)
        if len(fwd) + len(bwd) > state_cap:
            return result("inconclusive")
        if forward:
            fwd_frontier, df = nxt, depth
        else:
            bwd_frontier, db = nxt, depth


def letter_face(group: MarkedGroup, letters: Iterable[str]) -> Face | None:
    """Minimal proper face of the projected generator hull holding the letters.

    IMPROPER when the abelianized letters lie on no proper face. This is the
    one lookup behind geodesic verdicts, Busemann gauge bounds and orbit keys,
    kept on the marking by label set (``_Marking.faces``).
    """
    faces, labels = _marking(group).faces, frozenset(letters)
    if labels not in faces:
        pts = {group.generator(letter).abelianized() for letter in labels}
        faces[labels] = projected_polytope(group).minimal_face_of_points(list(pts))
    return faces[labels]


def exact_length(group: MarkedGroup, word: Sequence[str],
                 state_cap: int = DEFAULT_STATE_CAP) -> tuple[GroupElement, int]:
    """The word's element and its exact length.

    The word's own length is a proved bound, so ``length_within`` searches
    below it and only the state cap stops it: then this raises
    BudgetExceededError (fails closed).
    """
    elem = group.evaluate(word)
    res = length_within(group, elem, len(word), state_cap)
    if not res.exact:
        raise BudgetExceededError(f"state cap hit while checking a word of length {len(word)}")
    return elem, res.length


def geodesic_verdict(group: MarkedGroup, word: Sequence[str],
                     state_cap: int = DEFAULT_STATE_CAP) -> tuple[str, Face | None]:
    """("certified", face), ("checked", None) or ("not_geodesic", None) for the word.

    Certified when the abelianized letters share a proper face of the hull
    (face None for the empty word): a functional supporting it is 1 on every
    letter, so every prefix's gauge equals its length. Otherwise the word is
    geodesic iff ``exact_length`` gives ``len(word)``, since every prefix of a
    geodesic is geodesic; a capped search raises BudgetExceededError.
    """
    if not word:
        return "certified", None
    face = letter_face(group, word)
    if face is not IMPROPER:
        return "certified", face
    _, length = exact_length(group, word, state_cap)
    return ("checked" if length == len(word) else "not_geodesic"), None
