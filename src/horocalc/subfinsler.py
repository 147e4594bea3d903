"""Closed-form horofunction classes of polygonal sub-Finsler Heisenberg
geometry, and windowed comparison against discrete horofunction data.

The continuous classes are functions of the first-layer part v only (the
central coordinate is accepted and ignored; the comparison is up to bounded
functions). Evaluation is exact and in integers: the polygon holds each edge
functional as an integer row over one denominator D, and each class is
compiled once per call into an integer numerator over one denominator Q.
A ``Fraction`` is built only for a value that is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from typing import Callable, Sequence

from .errors import DegenerateInputError, ParseError
from .groups import MarkedGroup
from .horoboundary import horofn_window
from .metric import ball
from .polytope import Polytope


def _cross(u: Sequence, v: Sequence):
    return u[0] * v[1] - u[1] * v[0]


def _lower_half(p: Sequence) -> bool:
    """True for angles in [pi, 2pi), False for [0, pi)."""
    return p[1] < 0 or (p[1] == 0 and p[0] < 0)


class SymmetricPolygon:
    """Convex centrally symmetric polygon with counterclockwise vertices v_1..v_2N.

    Indexing follows the convention v_0 = v_2N and e_k = v_k - v_{k-1}; the
    edge ratios alpha_k(v) = omega(e_k, v) / omega(e_k, v_k) are the
    supporting functionals normalized to 1 on edge k, so the gauge is their
    maximum. They are stored once as integer rows (p_k, q_k) over one
    denominator D > 0: alpha_k(x, y) = (p_k x + q_k y) / D.
    """

    def __init__(self, vertices: Sequence[Sequence]):
        vs = [(Fraction(p[0]), Fraction(p[1])) for p in vertices]
        if len(vs) < 2 or len(vs) % 2 != 0:
            raise DegenerateInputError("need an even number >= 2 of vertices")
        if vs[len(vs) // 2:] != [(-x, -y) for x, y in vs[:len(vs) // 2]]:
            raise DegenerateInputError("vertices are not centrally symmetric")
        # Strict left turns about the origin and along the edges, and one wrap
        # of the angle: a convex polygon traversed once, the origin inside.
        m = len(vs)
        edges = [(vs[j][0] - vs[j - 1][0], vs[j][1] - vs[j - 1][1]) for j in range(m)]
        spans = [_cross(vs[j - 1], vs[j]) for j in range(m)]  # omega(e_k, v_k)
        wraps = sum(_lower_half(vs[j - 1]) > _lower_half(vs[j]) for j in range(m))
        turns = [_cross(edges[j - 1], edges[j]) for j in range(m)]
        if wraps != 1 or min(spans) <= 0 or min(turns) <= 0:
            raise DegenerateInputError(
                "vertices are not a convex polygon traversed once counterclockwise")
        self.vertices = vs
        fracs = [(e[1] / s, -e[0] / s) for e, s in zip(edges, spans)]
        d = self.denominator = math.lcm(*(c.denominator for row in fracs for c in row))
        self.rows = [(int(a * d), int(b * d)) for a, b in fracs]

    def __len__(self):
        return len(self.vertices)

    def vertex(self, k: int) -> tuple[Fraction, Fraction]:
        """v_k with the cyclic convention v_0 = v_2N."""
        return self.vertices[(k - 1) % len(self.vertices)]

    def edge(self, k: int) -> tuple[Fraction, Fraction]:
        """e_k = v_k - v_{k-1}."""
        (a, b), (c, d) = self.vertex(k), self.vertex(k - 1)
        return (a - c, b - d)

    def row(self, k: int) -> tuple[int, int]:
        """(p_k, q_k): alpha_k(x, y) = (p_k x + q_k y) / D, cyclic in k like ``vertex``."""
        return self.rows[(k - 1) % len(self.rows)]

    def alpha(self, k: int, v: Sequence) -> Fraction:
        """alpha_k(v) for a point v with int or Fraction coordinates."""
        p, q = self.row(k)
        return Fraction(p * v[0] + q * v[1], self.denominator)

    @staticmethod
    def from_points(points: Sequence[Sequence]) -> "SymmetricPolygon":
        """Convex hull of a symmetric planar point set, ordered CCW.

        The hull's vertices are the 0-dimensional faces of ``Polytope``, so a
        set of more than ``polytope.MAX_POINTS`` distinct points is refused.
        They are sorted by exact angle in [0, 2pi): first by half-plane
        (y > 0, or y = 0 < x, comes first), then by cross product.
        """
        hull = Polytope(sorted({(Fraction(p[0]), Fraction(p[1])) for p in points}))
        vertices = [hull.points[i] for f in hull.faces if f.dim == 0 for i in f.members]

        def angle_cmp(p, q):
            return _lower_half(p) - _lower_half(q) or _cross(q, p)

        return SymmetricPolygon(sorted(vertices, key=cmp_to_key(angle_cmp)))


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


def check_class(polygon: SymmetricPolygon, cls: HorofnClass) -> int | None:
    """The edge index of a NonVertical or Mixed class, rejected if the polygon lacks it."""
    if isinstance(cls, (NonVertical, Mixed)):
        k = cls.k if isinstance(cls, NonVertical) else cls.i
        if not 1 <= k <= len(polygon):
            raise DegenerateInputError(f"edge index {k} out of range 1..{len(polygon)}")
        return k
    return None


def horofn_eval(polygon: SymmetricPolygon, cls: HorofnClass, point: Sequence) -> Fraction:
    """Evaluate a boundary class at a point (v, c) with int or Fraction coordinates; c is ignored.

    Vertical is minus the polygon gauge; NonVertical interpolates the two
    edge functionals at a vertex; Mixed switches branch across the seam
    spanned by vertex i.
    """
    num, q = _compile(polygon, cls)
    return Fraction(num(point[0], point[1]), q)


def _compile(polygon: SymmetricPolygon, cls: HorofnClass) -> tuple[Callable, int]:
    """(num, Q) with the class at (x, y) equal to num(x, y) / Q, and Q > 0 an integer.

    Q is D for Vertical and r.denominator * D otherwise; num is an integer at
    integer points. Mixed's seam sign omega(v_i, v) is an integer form too.
    """
    i = check_class(polygon, cls)
    rows, d = polygon.rows, polygon.denominator
    if isinstance(cls, Vertical):
        return (lambda x, y: -max(p * x + q * y for p, q in rows)), d
    if not isinstance(cls, (NonVertical, Mixed)):
        raise DegenerateInputError(f"unknown class {cls!r}")
    r = Fraction(cls.r)
    s, t = r.numerator, r.denominator - r.numerator  # r = s / (s + t)
    (p1, q1), (p0, q0) = polygon.row(i), polygon.row(i - 1)
    bp, bq = s * p1 + t * p0, s * q1 + t * q0
    if isinstance(cls, NonVertical):
        return (lambda x, y: bp * x + bq * y), r.denominator * d
    pp, pq = (r.denominator * c for c in polygon.row(i if cls.variant == 1 else i - 1))
    # alpha_i - alpha_{i+1} vanishes on R v_i and is a positive multiple of omega(v_i, .)
    sx, sy = (a - b for a, b in zip(polygon.row(i), polygon.row(i + 1)))
    if cls.orientation == "ge":
        sx, sy = -sx, -sy
    return (lambda x, y: pp * x + pq * y if sx * x + sy * y <= 0 else bp * x + bq * y,
            r.denominator * d)


def seam_scan(polygon: SymmetricPolygon, cls: Mixed, scales: Sequence = range(-4, 5)):
    """Compare the two Mixed branches on the seam line R * v_i.

    Returns records {t, point, pure, blended, equal}; mismatches are
    expected unless r matches the seam value (1 for variant 1, 0 for 2).
    """
    vi, r, out = polygon.vertex(cls.i), Fraction(cls.r), []
    for t in map(Fraction, scales):
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
    return SymmetricPolygon.from_points([g.abelianized() for _, g in group.generator_items()])


def class_fingerprint(group: MarkedGroup, polygon: SymmetricPolygon,
                      cls: HorofnClass, radius: int) -> tuple:
    """Values of the class on the radius-ball, in canonical key order."""
    if group.abelian_rank != 2:
        raise DegenerateInputError("windowed comparison supports rank-2 lattices")
    keys = sorted(ball(group, radius).entries)
    nums, q = _endpoint_numerators(polygon, cls, keys)
    values = {p: Fraction(num, q) for p, num in nums.items()}
    return tuple((key, values[key[1:3]]) for key in keys)


def _endpoint_numerators(polygon: SymmetricPolygon, cls: HorofnClass, keys):
    """The class's numerator at each abelianized endpoint key[1:3] of the keys, and its
    denominator: evaluated once per endpoint, since the class ignores c."""
    num, q = _compile(polygon, cls)
    return {p: num(*p) for p in {key[1:3] for key in keys}}, q


WINDOW_MAX_ENTRIES = 4_000_000  # state cap on the balls behind one comparison window


@dataclass
class ComparisonReport:
    sequence: str
    n: int
    cls: str
    radius: int
    max_abs_diff_by_radius: list[Fraction]
    window_size: int


def discrete_vs_continuous(group: MarkedGroup, polygon: SymmetricPolygon, cls: HorofnClass,
                           sequence: str = "central", n: int | None = None,
                           radius: int = 8) -> ComparisonReport:
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

    window, elems = horofn_window(group, _sequence_word(group, sequence, n), radius,
                                  WINDOW_MAX_ENTRIES)
    nums, q = _endpoint_numerators(polygon, cls, elems)
    sphere_max = [0] * (radius + 1)  # max |Q phi(w) - num(w)| on each sphere
    for key, d in ball(group, radius, WINDOW_MAX_ENTRIES).entries.items():
        sphere_max[d] = max(sphere_max[d], abs(q * window.values[key] - nums[key[1:3]]))
    diffs = [Fraction(m, q) for m in accumulate(sphere_max, max)]
    return ComparisonReport(sequence=sequence, n=n, cls=repr(cls), radius=radius,
                            max_abs_diff_by_radius=diffs, window_size=len(elems))


def _sequence_word(group: MarkedGroup, sequence: str, n: int) -> list[str]:
    if sequence == "central":
        if group.commutator_unit is None:
            raise DegenerateInputError("central sequence needs a non-commutative group")
        # z^n as a commutator rectangle [x^a, y^b] with a*b = n when possible,
        # otherwise as an explicit generator word power
        return _central_power_word(group, n)
    if sequence.startswith("vertex:"):
        return [sequence.split(":", 1)[1]] * n
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
