"""Closed-form horofunction classes of polygonal sub-Finsler Heisenberg
geometry, and windowed comparison against discrete horofunction data.

The continuous classes are functions of the first-layer part v only (the
central coordinate is accepted and ignored; the comparison is up to bounded
functions). All evaluation is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateInputError, ParseError
from .groups import MarkedGroup
from .horoboundary import horofn_window
from .metric import ball

Vec2 = tuple[Fraction, Fraction]


def omega(v: Sequence, w: Sequence) -> Fraction:
    """omega((a,b),(a',b')) = a'b - ab'."""
    a, b = Fraction(v[0]), Fraction(v[1])
    a2, b2 = Fraction(w[0]), Fraction(w[1])
    return a2 * b - a * b2


class SymmetricPolygon:
    """Centrally symmetric polygon with counterclockwise vertices v_1..v_2N.

    Indexing follows the convention v_0 = v_2N and e_k = v_k - v_{k-1}; the
    edge ratios alpha_k are the supporting functionals normalized to 1 on
    edge k, so the gauge is their maximum.
    """

    def __init__(self, vertices: Sequence[Sequence]):
        vs = [(Fraction(p[0]), Fraction(p[1])) for p in vertices]
        if len(vs) < 2 or len(vs) % 2 != 0:
            raise DegenerateInputError("need an even number >= 2 of vertices")
        n = len(vs) // 2
        for k in range(n):
            if vs[k + n] != (-vs[k][0], -vs[k][1]):
                raise DegenerateInputError("vertices are not centrally symmetric")
        if _signed_area(vs) <= 0:
            raise DegenerateInputError("vertices must be counterclockwise")
        self.vertices = vs
        self.half = n
        for k in range(1, len(vs) + 1):
            if omega(self.edge(k), self.vertex(k)) == 0:
                raise DegenerateInputError(f"degenerate edge {k}")

    def __len__(self):
        return len(self.vertices)

    def vertex(self, k: int) -> Vec2:
        """v_k with the cyclic convention v_0 = v_2N."""
        return self.vertices[(k - 1) % len(self.vertices)]

    def edge(self, k: int) -> Vec2:
        """e_k = v_k - v_{k-1}."""
        a = self.vertex(k)
        b = self.vertex(k - 1)
        return (a[0] - b[0], a[1] - b[1])

    def alpha(self, k: int, v: Sequence) -> Fraction:
        """alpha_k(v) = omega(e_k, v) / omega(e_k, v_k)."""
        e = self.edge(k)
        return omega(e, v) / omega(e, self.vertex(k))

    def gauge(self, v: Sequence) -> Fraction:
        return max(self.alpha(k, v) for k in range(1, len(self.vertices) + 1))

    @staticmethod
    def from_points(points: Sequence[Sequence]) -> "SymmetricPolygon":
        """Convex hull of a symmetric planar point set, ordered CCW.

        The starting vertex is the hull vertex with the smallest angle in
        [0, 2pi), compared exactly by (half-plane, cross product).
        """
        pts = sorted({(Fraction(p[0]), Fraction(p[1])) for p in points})
        hull = _convex_hull(pts)
        if len(hull) < 2:
            raise DegenerateInputError("hull is not a polygon")

        def angle_rank(i):
            x, y = hull[i]
            return 0 if (y > 0 or (y == 0 and x > 0)) else 1

        def before(i, j):
            ri, rj = angle_rank(i), angle_rank(j)
            if ri != rj:
                return ri < rj
            (xi, yi), (xj, yj) = hull[i], hull[j]
            return xi * yj - yi * xj > 0

        start = 0
        for i in range(1, len(hull)):
            if before(i, start):
                start = i
        ordered = hull[start:] + hull[:start]
        return SymmetricPolygon(ordered)


def _signed_area(vs) -> Fraction:
    s = Fraction(0)
    for i in range(len(vs)):
        x0, y0 = vs[i]
        x1, y1 = vs[(i + 1) % len(vs)]
        s += x0 * y1 - x1 * y0
    return s / 2


def _convex_hull(pts):
    """Monotone chain, exact; returns CCW vertices without collinear points."""
    if len(pts) <= 2:
        return list(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class Vertical:
    pass


def _check_r(r):
    if not 0 <= Fraction(r) <= 1:
        raise DegenerateInputError("interpolation parameter r must be in [0, 1]")


@dataclass(frozen=True)
class NonVertical:
    k: int
    r: Fraction

    def __post_init__(self):
        _check_r(self.r)


@dataclass(frozen=True)
class Mixed:
    i: int
    r: Fraction
    orientation: str = "le"  # which side of the seam uses the pure alpha branch
    variant: int = 1  # 1: alpha_i on the pure branch; 2: alpha_{i-1}

    def __post_init__(self):
        _check_r(self.r)
        if self.orientation not in ("le", "ge"):
            raise DegenerateInputError("orientation must be 'le' or 'ge'")
        if self.variant not in (1, 2):
            raise DegenerateInputError("variant must be 1 or 2")


HorofnClass = Vertical | NonVertical | Mixed


def check_class(polygon: SymmetricPolygon, cls: HorofnClass):
    """Reject a class whose edge index the polygon does not have."""
    if isinstance(cls, (NonVertical, Mixed)):
        k = cls.k if isinstance(cls, NonVertical) else cls.i
        if not 1 <= k <= len(polygon):
            raise DegenerateInputError(f"edge index {k} out of range 1..{len(polygon)}")


def horofn_eval(polygon: SymmetricPolygon, cls: HorofnClass, point: Sequence) -> Fraction:
    """Evaluate a boundary class at a point (v, c); c is ignored.

    Vertical is minus the polygon gauge; NonVertical interpolates the two
    edge functionals at a vertex; Mixed switches branch across the seam
    spanned by vertex i.
    """
    check_class(polygon, cls)
    v = (Fraction(point[0]), Fraction(point[1]))
    if isinstance(cls, Vertical):
        return -polygon.gauge(v)
    if isinstance(cls, NonVertical):
        r = Fraction(cls.r)
        return r * polygon.alpha(cls.k, v) + (1 - r) * polygon.alpha(cls.k - 1, v)
    if isinstance(cls, Mixed):
        r = Fraction(cls.r)
        side = omega(polygon.vertex(cls.i), v)
        pure = side <= 0 if cls.orientation == "le" else side >= 0
        if pure:
            return polygon.alpha(cls.i if cls.variant == 1 else cls.i - 1, v)
        return r * polygon.alpha(cls.i, v) + (1 - r) * polygon.alpha(cls.i - 1, v)
    raise DegenerateInputError(f"unknown class {cls!r}")


def seam_scan(polygon: SymmetricPolygon, cls: Mixed, scales: Sequence = range(-4, 5)):
    """Compare the two Mixed branches on the seam line R * v_i.

    Returns records {t, point, pure, blended, equal}; mismatches are
    expected unless r matches the seam value (1 for variant 1, 0 for 2).
    """
    vi = polygon.vertex(cls.i)
    out = []
    r = Fraction(cls.r)
    for t in scales:
        t = Fraction(t)
        v = (t * vi[0], t * vi[1])
        pure = polygon.alpha(cls.i if cls.variant == 1 else cls.i - 1, v)
        blended = r * polygon.alpha(cls.i, v) + (1 - r) * polygon.alpha(cls.i - 1, v)
        out.append({"t": t, "point": v, "pure": pure, "blended": blended,
                    "equal": pure == blended})
    return out


def auto_polygon(group: MarkedGroup) -> SymmetricPolygon:
    """Hull of the abelianized generators (rank-2 groups only)."""
    if group.abelian_rank != 2:
        raise DegenerateInputError("polygon comparison needs abelian rank 2")
    pts = [g.abelianized() for _, g in group.generator_items()]
    return SymmetricPolygon.from_points(pts)


def class_fingerprint(group: MarkedGroup, polygon: SymmetricPolygon,
                      cls: HorofnClass, radius: int) -> tuple:
    """Values of the class on the radius-ball, in canonical key order."""
    if group.abelian_rank != 2:
        raise DegenerateInputError("windowed comparison supports rank-2 lattices")
    keys = sorted(ball(group, radius).entries)
    values = _endpoint_values(polygon, cls, keys)
    return tuple((key, values[key[1:3]]) for key in keys)


def _endpoint_values(polygon: SymmetricPolygon, cls: HorofnClass, keys) -> dict[tuple, Fraction]:
    """The class at each abelianized endpoint key[1:3] of the keys, evaluated once: it ignores c."""
    return {p: horofn_eval(polygon, cls, p) for p in {key[1:3] for key in keys}}


WINDOW_MAX_ENTRIES = 4_000_000  # state cap on the balls behind one comparison window


@dataclass
class ComparisonReport:
    sequence: str
    n: int
    cls: str
    radius: int
    max_abs_diff_by_radius: list[Fraction]
    window_size: int


def discrete_vs_continuous(
    group: MarkedGroup,
    polygon: SymmetricPolygon,
    cls: HorofnClass,
    sequence: str = "central",
    n: int | None = None,
    radius: int = 8,
) -> ComparisonReport:
    """Max |discrete horofunction - continuous class| over growing windows.

    ``sequence`` presets name the lattice point x_n used for the discrete
    window: ``central`` is the n-th power of the commutator generator,
    ``vertex:LABEL`` the n-th power of a generator, ``edge:L1,L2,p,q`` the
    n-th power of the block L1^p L2^q. The report measures; it does not
    assert which class the sequence converges to.
    """
    if group.kind != "heisenberg" or group.params != 1:
        raise DegenerateInputError("windowed comparison is for rank-1 Heisenberg lattices")
    if radius < 0 or (n is not None and n < 0):
        raise DegenerateInputError(f"window radius and n must be >= 0, got {radius} and {n}")
    if n is None:
        # keep |x_n| + radius inside a tractable ball
        n = max(1, radius * radius // 4) if sequence == "central" else 2 * radius

    word = _sequence_word(group, sequence, n)
    window, elems = horofn_window(group, word, radius, WINDOW_MAX_ENTRIES)
    diffs = [Fraction(0)] * (radius + 1)
    dist_table = ball(group, radius, WINDOW_MAX_ENTRIES)
    conts = _endpoint_values(polygon, cls, elems)
    for key in elems:
        d = dist_table.entries[key]
        gap = abs(window.values[key] - conts[key[1:3]])
        for rr in range(d, radius + 1):
            if gap > diffs[rr]:
                diffs[rr] = gap
    return ComparisonReport(
        sequence=sequence,
        n=n,
        cls=repr(cls),
        radius=radius,
        max_abs_diff_by_radius=diffs,
        window_size=len(elems),
    )


def _sequence_word(group: MarkedGroup, sequence: str, n: int) -> list[str]:
    if sequence == "central":
        unit = group.commutator_unit
        if unit is None:
            raise DegenerateInputError("central sequence needs a non-commutative group")
        # z^n as a commutator rectangle [x^a, y^b] with a*b = n when possible,
        # otherwise as an explicit generator word power
        word = _central_power_word(group, n)
        return word
    if sequence.startswith("vertex:"):
        label = sequence.split(":", 1)[1]
        return [label] * n
    if sequence.startswith("edge:"):
        try:
            l1, l2, p, q = sequence.split(":", 1)[1].split(",")
            p, q = int(p), int(q)
        except ValueError:
            raise ParseError(f"edge preset must be edge:L1,L2,p,q, got {sequence!r}") from None
        if p < 0 or q < 0:
            raise DegenerateInputError(f"edge powers must be >= 0, got {p} and {q}")
        return ([l1] * p + [l2] * q) * n
    raise ParseError(f"unknown sequence preset {sequence!r}")


def _central_power_word(group: MarkedGroup, n: int) -> list[str]:
    """A short word evaluating to the n-th power of the central generator."""
    import math

    a = max(1, math.isqrt(n))
    b = -(-n // a)
    extra = a * b - n
    word = ["x"] * a + ["y"] * b + ["x~"] * a + ["y~"] * b
    # trim the overshoot with inverse commutators [y, x] = z^{-1}
    word += ["y", "x", "y~", "x~"] * extra
    g = group.evaluate(word)
    if not (g.a == (0,) * group.params and g.b == (0,) * group.params):
        raise AssertionError("central power word is not central (hard bug)")
    return word
