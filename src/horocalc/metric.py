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
sides for a meeting and holds no state. The levels before it prune by the
abelianized gauge, which lower-bounds word length (each generator projects
into the unit ball of the gauge). The bound is admissible, so results are
exact and "exceeds budget" is a proved claim whenever the frontiers were
exhausted rather than capped. The bound toward the identity is kept per
marking; the one toward a target serves one search.

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
central table. A ball is a copy of the store or a
prefix of it. The Cartan identity ball is its first R levels.

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
H_k store has counted but not built).

Searches run on canonical element keys (``GroupElement.key()`` tuples), not
on element objects: each state is its own hash key, and right multiplication
by a generator is one step function on keys (``_Marking.steps``). In every
kind the abelianization is ``key[1:1 + abelian_rank]``.
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


class _GaugeMemo(dict):
    """Abelianized point p -> max(floor, ceil gauge(target - p)), or of gauge(p) if no target.

    Filled on misses only, so the gauge callable runs once per point and memo.
    """

    def __init__(self, gauge: Callable[[tuple[int, ...]], int],
                 target: tuple[int, ...] | None = None, floor: int = 0):
        super().__init__()
        self.gauge, self.target, self.floor = gauge, target, floor

    def __missing__(self, p: tuple[int, ...]) -> int:
        v = p if self.target is None else tuple(map(sub, self.target, p))
        bound = self[p] = max(self.gauge(v), self.floor)
        return bound


def _steps_left_bound(group: MarkedGroup, target: tuple[int, ...] | None = None,
                      floor: int = 0) -> Callable[[tuple[int, ...]], int]:
    """A search's lower bound on the steps left from a state, as a map on its abelianized point p.

    The bound is max(floor, ceil gauge(target - p)) toward an element over
    ``target``, or max(floor, ceil gauge(p)) toward the identity when
    ``target`` is None. In H_k and the Cartan group many states share p, so
    it is memoized per point. In an abelian group p is the state itself and
    a memo would never hit, so the gauge is called directly. A bound toward
    a target serves one search; one toward the identity depends only on the
    marking and the floor, so it is kept: ``_Marking.identity_bound`` for
    floor 0, and ``_IdentityBall.bound`` for the floor R + 1.
    """
    gauge = _gauge_ceil_fn(group)
    if group.kind != "abelian" or floor:
        return _GaugeMemo(gauge, target, floor).__getitem__
    if target is None:
        return gauge
    return lambda p: gauge(tuple(map(sub, target, p)))


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
    None; ``store``, the ball store, which reads that same table. Built on
    first read: ``identity_ball``, ``identity_bound`` and ``parity``. The last
    two need the hull's polytope, which no marking above ``polytope.MAX_DIM``
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

    @cached_property
    def identity_ball(self) -> _IdentityBall:
        return _IdentityBall(self)

    @cached_property
    def identity_bound(self) -> Callable[[tuple[int, ...]], int]:
        return _steps_left_bound(self.group)

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
    """

    def __init__(self, marking: _Marking):
        self.steps, self.table = marking.steps, marking.table
        e = marking.group.identity.key()
        self.dist: dict[Key, int] = {e: 0}
        self.counts = [1]
        self.sphere: list = [e]

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

    def prefix(self, radius: int) -> dict[Key, int]:
        """A fresh dict of the ball of the given radius, which must have been counted."""
        if radius == len(self.counts) - 1:
            self._build()
            return self.dist.copy()
        return dict(islice(self.dist.items(), self.counts[radius]))


class _IdentityBall:
    """The largest complete ball around the identity with at most ``max_entries`` elements.

    Built on a Cartan marking's first length query: R is the largest radius
    whose ball in the marking's store has at most ``max_entries`` elements,
    and ``dist`` is a copy of those first R levels, so R, the entries and
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
        self.dist, self.radius = store.prefix(radius), radius
        self.sphere = [k for k, d in self.dist.items() if d == radius]
        self.bound = _steps_left_bound(marking.group, floor=radius + 1)


def gauge_lower_bound(group: MarkedGroup, g: GroupElement) -> int:
    """ceil of the abelianized gauge: a proved lower bound for word length."""
    return _gauge_ceil_fn(group)(g.abelianized())


def ball(group: MarkedGroup, radius: int, state_cap: int = DEFAULT_STATE_CAP) -> DistanceTable:
    """Complete exact ball of the given radius around the identity.

    Every ball is read from the marking's ball store, whose H_k levels come
    from the central table: a copy of the whole store, or a prefix of it.
    The store's content is deterministic, and the returned entries are the
    caller's own.
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
    steps = marking.steps
    stop = 1 + group.abelian_rank
    bwd, bwd_frontier, db = {start: 0}, [start], 0
    if ball is None:
        e = group.identity.key()
        fwd, fwd_frontier, df = {e: 0}, [e], 0
        fwd_h = _steps_left_bound(group, target=start[1:stop])
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
            fwd, fwd_h = dict(fwd), _steps_left_bound(group, target=start[1:stop])
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
    memoized per marking and label set.
    """
    return _letter_face(group, frozenset(letters))


@lru_cache(maxsize=64)
def _letter_face(group: MarkedGroup, labels: frozenset[str]) -> Face | None:
    pts = {group.generator(letter).abelianized() for letter in labels}
    return projected_polytope(group).minimal_face_of_points(list(pts))


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
