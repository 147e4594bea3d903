"""Exact convex-hull facets, faces and gauge for small generator polytopes.

Everything is brute force over rationals: facets come from supporting
hyperplanes spanned by affinely independent point subsets, and the smallest
face holding a point set is cut out by the sum of its incident facets. The
proper faces, the closure of the facet family under intersection, are built
only when read. Intended for the convex hulls of abelianized generating sets,
so dimension <= 4 and few points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import DegenerateInputError

MAX_DIM = 4
MAX_POINTS = 24

Vec = tuple[Fraction, ...]


def _to_vec(p) -> Vec:
    return tuple(Fraction(c) for c in p)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _sub(u, v) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def _rref(rows, cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form: the nonzero rows and their pivot columns."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [a / pv for a in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    return m[: len(pivots)], pivots


def _rank(rows: list[Vec], cols: int) -> int:
    return len(_rref(rows, cols)[1])


@dataclass(frozen=True)
class Face:
    """A proper face: argmax set of ``functional`` over the polytope points.

    ``functional(p) <= offset`` for every point, with equality exactly on
    ``members`` (indices into the polytope's point list).
    """

    functional: Vec
    offset: Fraction
    members: frozenset[int]
    dim: int

    def member_key(self, polytope: "Polytope") -> tuple:
        return tuple(sorted(polytope.points[i] for i in self.members))

    @cached_property
    def integer_row(self) -> tuple[tuple[int, ...], int]:
        """(covector, offset): the functional and offset with denominators cleared."""
        scale = math.lcm(*(c.denominator for c in self.functional), self.offset.denominator)
        return tuple(int(c * scale) for c in self.functional), int(self.offset * scale)


IMPROPER = None  # sentinel returned by minimal_face when no proper face fits


class Polytope:
    """Convex hull of exact rational points, with its facets and proper faces."""

    def __init__(self, points: Sequence[Sequence]):
        pts = [_to_vec(p) for p in points]
        if not pts:
            raise DegenerateInputError("empty point set")
        if len(set(pts)) > MAX_POINTS:
            raise DegenerateInputError(f"too many points (max {MAX_POINTS})")
        self.ambient = len(pts[0])
        if self.ambient > MAX_DIM:
            raise DegenerateInputError(f"dimension {self.ambient} exceeds {MAX_DIM}")
        if any(len(p) != self.ambient for p in pts):
            raise DegenerateInputError("points of mixed dimension")
        self.points: tuple[Vec, ...] = tuple(pts)
        # basis of the affine hull's direction space: the first independent
        # differences to the first point, in sorted point order. The facet
        # normals are combinations of it, so this choice fixes their scale.
        basis: list[Vec] = []
        for p in sorted(set(pts)):
            row = _sub(p, pts[0])
            if _rank(basis + [row], self.ambient) > len(basis):
                basis.append(row)
        self.dim = len(basis)
        self.facets: tuple[Face, ...] = tuple(self._compute_facets(basis)) if basis else ()
        self._faces: dict[frozenset[int], Face] = {f.members: f for f in self.facets}

    # -- construction ---------------------------------------------------

    def _compute_facets(self, basis: list[Vec]) -> list[Face]:
        """One facet per supporting hyperplane spanned by ``dim`` points.

        The normal n = sum_j c_j basis_j lies in the hull's direction space
        and is orthogonal to the subset's differences r, so c spans the
        nullspace of the matrix (r . basis_j). That matrix has the rank of
        the differences, and the nullspace vector read off its reduced form
        depends only on the hyperplane, so every spanning subset of a facet
        gives the same normal. A nonzero normal in the hull's direction
        space is not constant on the points, so no facet is the whole hull.
        """
        pts = self.points
        facets: dict[frozenset[int], Face] = {}
        for subset in itertools.combinations(sorted(set(pts)), self.dim):
            gram = [[_dot(_sub(p, subset[0]), b) for b in basis] for p in subset[1:]]
            reduced, pivots = _rref(gram, self.dim)
            if len(pivots) != self.dim - 1:
                continue
            free = next(c for c in range(self.dim) if c not in pivots)
            coeffs = [Fraction(0)] * self.dim
            coeffs[free] = Fraction(1)
            for row, pc in zip(reduced, pivots):
                coeffs[pc] = -row[free]
            normal = tuple(_dot(coeffs, col) for col in zip(*basis))
            offset = _dot(normal, subset[0])
            vals = [_dot(normal, p) for p in pts]
            if max(vals) != offset:
                if min(vals) != offset:
                    continue  # the hyperplane cuts through the hull
                normal, offset, vals = tuple(-c for c in normal), -offset, [-v for v in vals]
            members = frozenset(i for i, v in enumerate(vals) if v == offset)
            if members not in facets:
                facets[members] = Face(normal, offset, members, self.dim - 1)
        return list(facets.values())

    def _face_from_members(self, members: frozenset[int]) -> Face:
        """The proper face whose points are exactly ``members``, an intersection of facets.

        Its functional is the sum of the incident facets' functionals, which
        supports exactly their intersection. Each face is built once.
        """
        if members not in self._faces:
            incident = [f for f in self.facets if members <= f.members]
            functional = tuple(sum(c) for c in zip(*(f.functional for f in incident)))
            offset = sum(f.offset for f in incident)
            vals = [_dot(functional, p) for p in self.points]
            if max(vals) != offset or {i for i, v in enumerate(vals) if v == offset} != members:
                raise AssertionError("facet sum does not support the facets' intersection (hard bug)")
            mpts = [self.points[i] for i in members]
            fdim = _rank([_sub(p, mpts[0]) for p in mpts], self.ambient)
            self._faces[members] = Face(functional, offset, members, fdim)
        return self._faces[members]

    # -- queries ---------------------------------------------------------

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """Every proper face, sorted by (dim, members); built on first read.

        The proper faces are the nonempty intersections of facets.
        """
        members = {f.members for f in self.facets}
        new = set(members)
        while new:
            new = {a & b for a in new for b in members} - members - {frozenset()}
            members |= new
        faces = (self._face_from_members(m) for m in members)
        return tuple(sorted(faces, key=lambda f: (f.dim, sorted(f.members))))

    def minimal_face(self, point_indices: Sequence[int]) -> Face | None:
        """Smallest proper face containing the given points, IMPROPER if none."""
        idx = frozenset(point_indices)
        if not idx:
            raise DegenerateInputError("minimal_face needs a nonempty subset")
        incident = [f.members for f in self.facets if idx <= f.members]
        return self._face_from_members(frozenset.intersection(*incident)) if incident else IMPROPER

    def minimal_face_of_points(self, points: Sequence[Sequence]) -> Face | None:
        idx = []
        for p in points:
            v = _to_vec(p)
            try:
                idx.append(self.points.index(v))
            except ValueError:
                raise DegenerateInputError(f"{p!r} is not a polytope point")
        return self.minimal_face(idx)

    def gauge(self, v: Sequence) -> Fraction:
        """Minkowski functional; needs a full-dimensional hull with 0 interior."""
        if self.dim != self.ambient:
            raise DegenerateInputError("gauge needs a full-dimensional polytope")
        if not self.facets or any(f.offset <= 0 for f in self.facets):
            raise DegenerateInputError("gauge needs 0 in the interior")
        vv = _to_vec(v)
        return max(_dot(f.functional, vv) / f.offset for f in self.facets)

    def integer_facets(self) -> list[tuple[tuple[int, ...], int]]:
        """Each facet's ``integer_row``.

        ceil(gauge(v)) = max_i ceildiv(covector_i . v, offset_i) for integer v.
        """
        return [f.integer_row for f in self.facets]
