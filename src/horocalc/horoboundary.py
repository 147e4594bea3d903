"""Geodesic ray descriptions, horofunction windows and Busemann evaluation.

Rays start at the identity and are described finitely: an eventually
periodic word, or a digitized straight-line direction over the standard
grid generators x, y, x~, y~. Busemann values are scanned monotonically,
with certification only through the abelianized-gauge sandwich.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import add, mul, sub
from typing import Sequence

from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    SpecNotGeodesicError,
    UnknownLabelError,
)
from .groups import GroupElement, MarkedGroup, Word
from .metric import (
    DEFAULT_STATE_CAP,
    _gauge_ceil_fn,
    ball,
    exact_length,
    geodesic_verdict,
    length_within,
    letter_face,
    word_length,
)
from .polytope import IMPROPER, Face

STANDARD_GRID = {"x": (1, 0), "y": (0, 1), "x~": (-1, 0), "y~": (0, -1)}


@dataclass(frozen=True)
class PeriodicRay:
    """prefix . block . block . block ..."""

    prefix: Word
    block: Word

    def __post_init__(self):
        if not self.block:
            raise DegenerateInputError("periodic ray needs a nonempty block")
        object.__setattr__(self, "prefix", tuple(self.prefix))  # hashable, as a plan key
        object.__setattr__(self, "block", tuple(self.block))

    def letters(self, n: int) -> Word:
        if n <= len(self.prefix):
            return self.prefix[:n]
        rest = n - len(self.prefix)
        reps = -(-rest // len(self.block))
        return self.prefix + (self.block * reps)[:rest]

    def tail_letters(self) -> frozenset[str]:
        return frozenset(self.block)

    def describe(self) -> dict:
        return {"periodic": {"prefix": list(self.prefix), "block": list(self.block)}}


@dataclass(frozen=True)
class DigitizedRay:
    """Staircase best approximating the ray through (0,0) with this direction.

    Grid squares are split by whether the line passes above or below their
    center; the ray is the boundary staircase. Centers exactly on the line
    are assigned alternately, nearest to the origin first, starting on the
    below side. Directions are reduced integer pairs; quadrants other than
    the first are produced by reflecting through the grid symmetries.
    """

    direction: tuple[int, int]

    def __post_init__(self):
        a, b = self.direction
        if (a, b) == (0, 0):
            raise DegenerateInputError("digitized direction must be nonzero")
        g = math.gcd(abs(a), abs(b))
        object.__setattr__(self, "direction", (a // g, b // g))

    def _quadrant(self) -> dict[str, str]:
        """The first-quadrant letters x, y spelled in this direction's quadrant."""
        a, b = self.direction
        return {"x": "x" if a >= 0 else "x~", "y": "y" if b >= 0 else "y~"}

    def letters(self, n: int) -> Word:
        a, b = self.direction
        spell = self._quadrant()
        return tuple(spell[s] for s in _first_quadrant_staircase(abs(a), abs(b), n))

    def tail_letters(self) -> frozenset[str]:
        spell = self._quadrant()
        return frozenset(spell[s] for s, c in zip("xy", self.direction) if c)

    def describe(self) -> dict:
        return {"digitized": list(self.direction), "tie_rule": "alternate-start-below"}


RaySpec = PeriodicRay | DigitizedRay


def _first_quadrant_staircase(a: int, b: int, n: int) -> list[str]:
    """Letters of the digitized ray for direction (a, b) with a, b >= 0.

    Column i of the grid holds squares [i, i+1] x [j, j+1]; the center of
    square (i, j) lies strictly below the line iff a(2j+1) < b(2i+1). The
    staircase runs along the top edge of the highest below-line square of
    each column; on-line squares alternate, first one assigned below.
    """
    if a == 0:
        return ["y"] * n
    if b == 0:
        return ["x"] * n
    letters: list[str] = []
    height = 0
    tie_index = 0
    i = 0
    while len(letters) < n:
        t = b * (2 * i + 1)
        q, r = divmod(t - a, 2 * a)
        if r == 0:
            # center (i+1/2, q+1/2) is exactly on the line
            top = q + 1 if tie_index % 2 == 0 else q
            tie_index += 1
        else:
            top = q + 1
        while height < top and len(letters) < n:
            letters.append("y")
            height += 1
        if len(letters) < n:
            letters.append("x")
        i += 1
    return letters


def ray_prefix(spec: RaySpec, n: int) -> Word:
    """First n letters of the ray."""
    if n < 0:
        raise DegenerateInputError("prefix length must be >= 0")
    return spec.letters(n)


class _RayPlan:
    """One ray's first letters on one marking: ``elems[t]`` is ray_t and
    ``sums[t]`` is ab(ray_t). Kept for the life of the process, with the
    ray's ``face``, its ``recurring_face``, looked up on first use."""

    def __init__(self, group: MarkedGroup, spec: RaySpec):
        self.group, self.spec = group, spec
        self.letters: Word = ()
        self.elems: list[GroupElement] = [group.identity]
        self.sums: list[tuple[int, ...]] = [(0,) * group.abelian_rank]

    def extend(self, n: int) -> _RayPlan:
        """This plan, holding at least the first n letters; one product per new letter."""
        if not 0 <= n <= len(self.letters):  # ray_prefix refuses a negative n
            group, letters = self.group, ray_prefix(self.spec, n)
            # an unknown label raises here, before the plan changes
            gens = [group.generator(s) for s in letters[len(self.letters):]]
            for g in gens:
                self.elems.append(self.elems[-1] * g)
                self.sums.append(self.elems[-1].abelianized())
            self.letters = letters
        return self

    @cached_property
    def face(self) -> Face:
        return recurring_face(self.group, self.spec)


_ray_plan = lru_cache(maxsize=64)(_RayPlan)  # one plan per marking and ray


def _require_standard_grid(group: MarkedGroup):
    for label, vec in STANDARD_GRID.items():
        try:
            g = group.generator(label)
        except UnknownLabelError:
            raise DegenerateInputError(
                "digitized rays need the standard grid generators x, y, x~, y~"
            ) from None
        if g.abelianized() != vec:
            raise DegenerateInputError(
                f"digitized rays need Pr({label}) = {vec}, got {g.abelianized()}"
            )


def validate_ray(group: MarkedGroup, spec: RaySpec, horizon: int,
                 state_cap: int = DEFAULT_STATE_CAP) -> str:
    """Check the ray is geodesic as far as its first ``horizon`` letters show.

    Returns the prefix's ``geodesic_verdict``: "certified" by a face (then
    every prefix, not just the checked ones, is geodesic) or "checked" by
    one exact search. Raises BudgetExceededError before any work when the
    horizon + 1 plan elements exceed ``state_cap``, then SpecNotGeodesicError
    when the plan's ``face`` refuses the ray's recurring letters (whatever
    the horizon) or the prefix is not geodesic.
    """
    if horizon + 1 > state_cap:
        raise BudgetExceededError(
            f"a ray prefix of {horizon} letters needs {horizon + 1} ray elements, "
            f"more than the state cap of {state_cap}")
    plan = _ray_plan(group, spec)
    plan.face  # raises for a ray off every proper face, before the plan grows
    word = plan.extend(horizon).letters[:horizon]
    verdict, _ = geodesic_verdict(group, word, state_cap)
    if verdict == "not_geodesic":
        raise SpecNotGeodesicError(f"{spec} is not geodesic within horizon {horizon}")
    return verdict


def recurring_face(group: MarkedGroup, spec: RaySpec) -> Face:
    """The minimal proper face of the hull holding the ray's recurring letters.

    Raises SpecNotGeodesicError when they lie on no proper face: the ray is
    then not geodesic, whatever a finite prefix shows. A digitized ray's
    letters mean its staircase only on the standard grid, which it needs.
    A scan reads this once per ray and marking, as its plan's ``face``.
    """
    if isinstance(spec, DigitizedRay):
        _require_standard_grid(group)
    face = letter_face(group, spec.tail_letters())
    if face is IMPROPER:
        raise SpecNotGeodesicError(
            "the ray's recurring letters lie on no proper face, so it is not geodesic")
    return face


@dataclass
class BusemannEstimate:
    """Monotone-certified value of the Busemann scan at one element.

    ``value`` is |h^{-1} ray_n| - n at the largest scanned n; the sequence
    never increases, so it upper-bounds the limit. ``lower_bound`` comes
    from the abelianized gauge and lower-bounds the limit; the estimate is
    certified exact when the two meet.
    """

    value: int
    stable_for: int
    horizon: int
    lower_bound: int
    certified: bool
    values: list[int] = field(default_factory=list)
    exhausted: bool = False


def busemann_eval(
    group: MarkedGroup,
    spec: RaySpec,
    h: GroupElement | Sequence[str],
    horizon: int,
    state_cap: int = DEFAULT_STATE_CAP,
    norm_budget: int | None = None,
) -> BusemannEstimate:
    """Scan |h^{-1} ray_n| - n for n = 0..horizon.

    ``h`` is a word (its length bounds the first search) or an element with
    ``norm_budget``, a known upper bound for |h| that may be exceeded. Each
    step searches below its triangle bound n + a_{n-1}, so only the state cap
    stops a scan, and a value at the gauge bound is final: the steps after it
    are filled without a search.
    """
    _ray_plan(group, spec).face  # refuses a ray that is not geodesic before any search
    if isinstance(h, (list, tuple)):
        elem, norm = exact_length(group, h, state_cap)
    elif norm_budget is None:
        raise DegenerateInputError("element arguments need norm_budget")
    else:
        elem, res = h, word_length(group, h, budget=norm_budget, state_cap=state_cap)
        if not res.exact:
            raise BudgetExceededError("could not establish the element's length within its budget")
        norm = res.length
    return _busemann_scan(group, spec, elem, norm, horizon, state_cap)


def _busemann_scan(group: MarkedGroup, spec: RaySpec, elem: GroupElement, norm: int,
                   horizon: int, state_cap: int) -> BusemannEstimate:
    """``busemann_eval`` at an element whose exact length ``norm`` is known.

    The values never increase (|x_n| <= |x_{n-1}| + 1), and from the prefix's
    end p on they never fall below ``lower``: the face's functional over its
    offset is at most 1 on every generator and 1 on every letter after p. So
    a value equal to ``lower`` at some n - 1 >= p is final, and the rest of
    the scan is filled with it, with no product and no search.
    """
    validate_ray(group, spec, horizon, state_cap=state_cap)
    hinv = elem.inverse()

    pref_len = len(spec.prefix) if isinstance(spec, PeriodicRay) else 0
    plan = _ray_plan(group, spec).extend(max(horizon, pref_len))
    cov, off = plan.face.integer_row  # off > 0: the generating set is symmetric
    ab = map(add, hinv.abelianized(), plan.sums[pref_len])  # ab(h^-1 ray_p) for p = pref_len
    lower = -(-sum(map(mul, cov, ab)) // off) - pref_len

    values = [norm]  # values[n] = |x_n| - n for x_n = h^-1 ray_n
    for n in range(1, horizon + 1):
        if values[-1] == lower and n > pref_len:
            values += [lower] * (horizon + 1 - n)
            break
        res = length_within(group, hinv * plan.elems[n], n + values[-1], state_cap)
        if not res.exact:
            break
        values.append(res.length - n)
    reached, prev = len(values) - 1, values[-1]
    if reached >= pref_len and prev < lower:
        raise AssertionError(f"Busemann value {prev} fell below the gauge bound {lower}")
    return BusemannEstimate(
        value=prev,
        stable_for=values.count(prev) - 1,  # the values never increase
        horizon=reached,
        lower_bound=lower,
        certified=(reached >= pref_len and prev == lower),
        values=values,
        exhausted=reached < horizon,
    )


@dataclass
class HorofnWindow:
    """Exact values of d(x, .) - d(x, e) on the ball of the given radius."""

    center_norm: int
    values: dict[tuple, int]

    def lipschitz_violations(self, group: MarkedGroup, elements: dict[tuple, GroupElement]):
        """Neighbor pairs inside the window where |phi(w) - phi(ws)| > 1."""
        bad = []
        for k, w in elements.items():
            for _, s in group.generator_items():
                k2 = (w * s).key()
                if k2 in self.values and abs(self.values[k] - self.values[k2]) > 1:
                    bad.append((k, k2))
        return bad


def horofn_window(group: MarkedGroup, x: Sequence[str], radius: int,
                  state_cap: int = DEFAULT_STATE_CAP):
    """Window of phi_x(w) = d(x, w) - d(x, e) for w in the radius-ball, x a word.

    The window is B(radius), a prefix of the ball B(|x| + radius) grown
    first. Every d(x, w) = |x^-1 w| is a lookup in that bigger ball, since
    |x^-1 w| <= |x| + |w|. ``state_cap`` bounds both the search for |x| and
    the bigger ball. Returns (window, window_elements).
    """
    elem, norm_x = exact_length(group, x, state_cap)
    table = ball(group, norm_x + radius, state_cap).entries
    xinv = elem.inverse()
    window_elems = {k: group.element(k) for k in ball(group, radius, state_cap).entries}
    values = {k: table[(xinv * w).key()] - norm_x for k, w in window_elems.items()}
    return HorofnWindow(norm_x, values), window_elems


@dataclass
class ComparisonResult:
    """Outcome of a ray comparison; ``verified`` is evidence up to (N, M)."""

    status: str  # "verified" | "not_found" | "inconclusive"
    witnesses: list[tuple[int, int]]
    n_checked: int
    m_max: int
    slack: int
    failing_n: int | None = None


def _compare_rays(
    group: MarkedGroup,
    spec1: RaySpec,
    spec2: RaySpec,
    n_max: int,
    m_max: int,
    slack: int,
    state_cap: int,
) -> ComparisonResult:
    """For each n <= N the least m <= M at which both switching checks hold.

    Check 0 at (n, m) asks d(ray1_m, ray2_n) <= m - n + slack, check 1 the
    same with the rays swapped. Along each ray consecutive elements are one
    step apart, so d(ray_m, ray'_n) - (m - n) never grows with m and never
    falls with n: a check that holds at (n, m) holds at every larger m, and
    one that fails at (n, m) fails at every larger n and smaller m. The walk
    keeps start[i], the least m at which check i is not proved false; each n
    begins at max(n, *start), a check that holds is not searched again at
    this n, and only a proved ``exceeds_budget`` moves start[i]. A step asks
    the gauge first, on ab(ray_m^-1 ray'_n), a difference of the plans'
    prefix sums; only a step it leaves open makes one product and one search.
    Without an ``inconclusive`` search that is at most 2(N + M) steps. The
    2(M + 1) charged to ``state_cap`` first are the two plans' elements.
    """
    if n_max < 1 or m_max < n_max:
        raise DegenerateInputError(f"need 1 <= n_max <= m_max, got {n_max} and {m_max}")
    if 2 * (m_max + 1) > state_cap:
        raise BudgetExceededError(
            f"m_max {m_max} needs 2(m_max + 1) = {2 * (m_max + 1)} ray elements, "
            f"more than the state cap of {state_cap}")
    validate_ray(group, spec1, m_max, state_cap=state_cap)
    validate_ray(group, spec2, m_max, state_cap=state_cap)
    plans = (_ray_plan(group, spec1).extend(m_max), _ray_plan(group, spec2).extend(m_max))
    gauge = _gauge_ceil_fn(group)
    start = [1, 1]
    witnesses = []
    capped = False
    for n in range(1, n_max + 1):
        m, known = max(n, *start), [False, False]
        while m <= m_max and not all(known):
            i = known.index(False)
            ray, other, budget = plans[i], plans[1 - i], m - n + slack
            if gauge(tuple(map(sub, other.sums[n], ray.sums[m]))) > budget:
                status = "exceeds_budget"  # word_length's own first answer, without a product
            else:
                e = ray.elems[m].inverse() * other.elems[n]
                status = word_length(group, e, budget=budget, state_cap=state_cap).status
            if status == "exact":
                known[i] = True
                continue
            capped |= status == "inconclusive"
            if status == "exceeds_budget":
                start[i] = m + 1
            m += 1
        if not all(known):
            status = "inconclusive" if capped else "not_found"
            return ComparisonResult(status, witnesses, n, m_max, slack, failing_n=n)
        witnesses.append((n, m))
    return ComparisonResult("verified", witnesses, n_max, m_max, slack)


def same_busemann(group, spec1, spec2, n_max: int, m_max: int,
                  state_cap=DEFAULT_STATE_CAP) -> ComparisonResult:
    """Switching criterion with zero slack: for each n <= N find m <= M with
    d(ray1_m, ray2_n) = d(ray2_m, ray1_n) = m - n.

    Verified output supports equality of the limits; not_found is
    inconclusive evidence, never a refutation.
    """
    return _compare_rays(group, spec1, spec2, n_max, m_max, 0, state_cap)


def reduced_equiv(group, spec1, spec2, slack: int, n_max: int, m_max: int,
                  state_cap=DEFAULT_STATE_CAP) -> ComparisonResult:
    """Coarse switching criterion: distances within m - n + slack."""
    if slack < 0:
        raise DegenerateInputError("slack must be >= 0")
    return _compare_rays(group, spec1, spec2, n_max, m_max, slack, state_cap)


def cofinal_orbit_witness(group: MarkedGroup, spec1: PeriodicRay, spec2: PeriodicRay):
    """Group element g with g . b(spec2) = b(spec1) when the label sequences
    agree after removing finite prefixes; None otherwise.

    Decidable for eventually periodic words: shifts up to prefix + period
    suffice, and agreement over preperiod + lcm of periods is conclusive.
    """
    if not isinstance(spec1, PeriodicRay) or not isinstance(spec2, PeriodicRay):
        raise DegenerateInputError("cofinality witness needs periodic rays")
    p1, b1 = len(spec1.prefix), len(spec1.block)
    p2, b2 = len(spec2.prefix), len(spec2.block)
    period = b1 * b2 // math.gcd(b1, b2)
    best = None
    for i in range(p1 + b1 + 1):
        for j in range(p2 + b2 + 1):
            horizon = max(p1 - i, p2 - j, 0) + period
            w1 = spec1.letters(i + horizon)[i:]
            w2 = spec2.letters(j + horizon)[j:]
            if w1 == w2:
                if best is None or (i + j, j) < (best[0] + best[1], best[1]):
                    best = (i, j)
    if best is None:
        return None
    i, j = best
    u = group.evaluate(spec1.letters(i))
    v = group.evaluate(spec2.letters(j))
    return u * v.inverse()


def lift_ray(label_map: dict[str, str], spec: RaySpec) -> RaySpec:
    """Lift a ray along a generator-to-generator homomorphism.

    ``label_map`` sends source labels to target labels and must cover every
    label of the ray; preimages are chosen smallest-first for determinism.
    The lift of a geodesic stays geodesic because word length cannot grow
    under a label homomorphism.
    """
    preimage: dict[str, str] = {}
    for src in sorted(label_map):
        dst = label_map[src]
        preimage.setdefault(dst, src)

    def lift_letter(letter: str) -> str:
        if letter not in preimage:
            raise UnknownLabelError(f"label {letter!r} has no preimage")
        return preimage[letter]

    if isinstance(spec, PeriodicRay):
        return PeriodicRay(
            tuple(lift_letter(s) for s in spec.prefix),
            tuple(lift_letter(s) for s in spec.block),
        )
    grid = ("x", "y", "x~", "y~")
    if any(lift_letter(s) != s for s in grid):
        raise DegenerateInputError(
            "digitized rays lift only along maps that preserve the standard labels"
        )
    return DigitizedRay(spec.direction)
