"""Geodesic ray descriptions, horofunction windows and Busemann evaluation.

Rays start at the identity and are described finitely: an eventually
periodic word, or a digitized straight-line direction over the standard
grid generators x, y, x~, y~. Busemann values are scanned monotonically,
with certification only through the abelianized-gauge sandwich.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
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
    ball,
    geodesic_certificate_by_face,
    is_geodesic_by_search,
    length_within,
    letter_face,
    word_length,
)
from .polytope import IMPROPER

STANDARD_GRID = {"x": (1, 0), "y": (0, 1), "x~": (-1, 0), "y~": (0, -1)}


@dataclass(frozen=True)
class PeriodicRay:
    """prefix . block . block . block ..."""

    prefix: Word
    block: Word

    def __post_init__(self):
        if not self.block:
            raise DegenerateInputError("periodic ray needs a nonempty block")

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
        if g != 1:
            object.__setattr__(self, "direction", (a // g, b // g))

    def letters(self, n: int) -> Word:
        a, b = self.direction
        flip_x = a < 0
        flip_y = b < 0
        letters = _first_quadrant_staircase(abs(a), abs(b), n)
        out = []
        for s in letters:
            if flip_x and s in ("x", "x~"):
                s = "x~" if s == "x" else "x"
            if flip_y and s in ("y", "y~"):
                s = "y~" if s == "y" else "y"
            out.append(s)
        return tuple(out)

    def tail_letters(self) -> frozenset[str]:
        a, b = self.direction
        out = set()
        if a > 0:
            out.add("x")
        elif a < 0:
            out.add("x~")
        if b > 0:
            out.add("y")
        elif b < 0:
            out.add("y~")
        return frozenset(out)

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
    """Check the first ``horizon`` letters are geodesic.

    Returns "certified" when the face certificate applies (then every
    prefix, not just the checked ones, is geodesic), otherwise "checked"
    after one exact search of the prefix. Raises SpecNotGeodesicError on
    failure.
    """
    if isinstance(spec, DigitizedRay):
        _require_standard_grid(group)
    word = ray_prefix(spec, horizon)
    if geodesic_certificate_by_face(group, word).certified:
        return "certified"
    if is_geodesic_by_search(group, word, state_cap=state_cap):
        return "checked"
    raise SpecNotGeodesicError(f"{spec} is not geodesic within horizon {horizon}")


def ray_elements(group: MarkedGroup, spec: RaySpec, n: int) -> list[GroupElement]:
    """Elements of the ray at times 0..n."""
    out = [group.identity]
    for letter in ray_prefix(spec, n):
        out.append(out[-1] * group.generator(letter))
    return out


def _exact_norm(group: MarkedGroup, h: GroupElement | Sequence[str], norm_budget: int | None,
                state_cap: int) -> tuple[GroupElement, int]:
    """The element h (a word, or an element with ``norm_budget``) and its exact |h|.

    A word's length is a proved bound on |h|, so ``length_within`` searches
    below it and only the state cap stops it; ``norm_budget`` is the caller's
    claim and may be exceeded.
    """
    if isinstance(h, (list, tuple)):
        elem = group.evaluate(h)
        res = length_within(group, elem, len(h), state_cap)
    elif norm_budget is None:
        raise DegenerateInputError("element arguments need norm_budget")
    else:
        elem = h
        res = word_length(group, elem, budget=norm_budget, state_cap=state_cap)
    if not res.exact:
        raise BudgetExceededError("could not establish the element's length within its budget")
    return elem, res.length


def _functional_value(face, vec) -> Fraction:
    return sum(Fraction(c) * v for c, v in zip(face.functional, vec)) / face.offset


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

    ``h`` may be a word (preferred: its length bounds the first search) or
    an element with ``norm_budget`` as a known upper bound for |h|. Step n's
    length has the triangle bound n + a_{n-1}, so ``length_within`` searches
    below it, the bound answers once that search is exhausted, and only the
    state cap stops a scan.
    """
    elem, prev = _exact_norm(group, h, norm_budget, state_cap)  # value at n = 0
    validate_ray(group, spec, horizon, state_cap=state_cap)
    hinv = elem.inverse()

    pref_len = len(spec.prefix) if isinstance(spec, PeriodicRay) else 0
    face = letter_face(group, spec.tail_letters())
    if face is not IMPROPER:
        pref = ray_prefix(spec, pref_len)
        pref_ab = group.evaluate(pref).abelianized()
        lb = _functional_value(face, hinv.abelianized()) + _functional_value(face, pref_ab) - pref_len
        lower = math.ceil(lb)
    else:
        lower = -prev

    values = [prev]
    g = group.identity
    letters = ray_prefix(spec, horizon)
    exhausted = False
    reached = 0
    for n in range(1, horizon + 1):
        g = g * group.generator(letters[n - 1])
        res = length_within(group, hinv * g, n + prev, state_cap)
        if not res.exact:
            exhausted = True
            break
        a_n = res.length - n
        values.append(a_n)
        prev = a_n
        reached = n
    if reached >= pref_len and prev < lower:
        raise AssertionError(f"Busemann value {prev} fell below the gauge bound {lower}")
    stable = 0
    for v in reversed(values[:-1]):
        if v == prev:
            stable += 1
        else:
            break
    return BusemannEstimate(
        value=prev,
        stable_for=stable,
        horizon=reached,
        lower_bound=lower,
        certified=(reached >= pref_len and prev == lower),
        values=values,
        exhausted=exhausted,
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
    elem, norm_x = _exact_norm(group, x, None, state_cap)
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
    if n_max < 1 or m_max < n_max:
        raise DegenerateInputError(f"need 1 <= n_max <= m_max, got {n_max} and {m_max}")
    validate_ray(group, spec1, m_max, state_cap=state_cap)
    validate_ray(group, spec2, m_max, state_cap=state_cap)
    g1 = ray_elements(group, spec1, m_max)
    g2 = ray_elements(group, spec2, m_max)
    witnesses = []
    capped = False
    for n in range(1, n_max + 1):
        found = None
        for m in range(n, m_max + 1):
            for a, b in ((g1[m], g2[n]), (g2[m], g1[n])):
                res = word_length(group, a.inverse() * b, budget=m - n + slack,
                                  state_cap=state_cap)
                capped |= res.status == "inconclusive"
                if not res.exact:
                    break
            else:
                found = m
                break
        if found is None:
            status = "inconclusive" if capped else "not_found"
            return ComparisonResult(status, witnesses, n, m_max, slack, failing_n=n)
        witnesses.append((n, found))
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
