"""Exact convex-hull face lattice and gauge for small generator polytopes.

Everything is brute force over rationals: facets come from supporting
hyperplanes spanned by affinely independent point subsets, proper faces are
the closure of the facet family under intersection. Intended for the convex
hulls of abelianized generating sets, so dimension <= 4 and few points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateInputError

MAX_DIM = 4
MAX_POINTS = 24

Vec = tuple[Fraction, ...]


def _to_vec(p) -> Vec:
    return tuple(Fraction(c) for c in p)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _rank(rows: list[Vec]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _nullspace_vector(rows: list[Vec], dim: int) -> Vec | None:
    """A nonzero vector orthogonal to all rows, or None if rows span R^dim."""
    m = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(dim):
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
        rank += 1
    free = [c for c in range(dim) if c not in pivots]
    if not free:
        return None
    col = free[0]
    v = [Fraction(0)] * dim
    v[col] = Fraction(1)
    for r, pc in enumerate(pivots):
        v[pc] = -m[r][col]
    return tuple(v)


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


IMPROPER = None  # sentinel returned by minimal_face when no proper face fits


class Polytope:
    """Convex hull of exact rational points, with its proper face list."""

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
        base = pts[0]
        self.dim = _rank([tuple(a - b for a, b in zip(p, base)) for p in pts])
        self.facets: tuple[Face, ...] = tuple(self._compute_facets())
        self.faces: tuple[Face, ...] = tuple(self._close_under_intersection())

    # -- construction ---------------------------------------------------

    def _compute_facets(self) -> list[Face]:
        pts = self.points
        unique = sorted(set(pts))
        if self.dim == 0:
            return []
        facets: dict[frozenset[int], Face] = {}
        base = pts[0]
        if self.dim == 1:
            # hull is a segment: its two endpoints are the facets
            direction = next(
                tuple(a - b for a, b in zip(p, base)) for p in unique if p != base
            )
            for sign in (1, -1):
                functional = tuple(sign * c for c in direction)
                best = max(_dot(functional, p) for p in pts)
                members = frozenset(i for i, p in enumerate(pts) if _dot(functional, p) == best)
                facets[members] = Face(functional, best, members, 0)
            return list(facets.values())

        for subset in itertools.combinations(unique, self.dim):
            rows = [tuple(a - b for a, b in zip(p, subset[0])) for p in subset[1:]]
            if _rank(rows) != self.dim - 1:
                continue
            # normal within the affine hull: orthogonal to the subset's span
            # but not to the hull's span
            hull_rows = [tuple(a - b for a, b in zip(p, base)) for p in unique]
            normal = self._hyperplane_normal(rows, hull_rows, subset[0], base)
            if normal is None:
                continue
            offset = _dot(normal, subset[0])
            vals = [_dot(normal, p) for p in pts]
            hi, lo = max(vals), min(vals)
            if hi == offset and all(v <= offset for v in vals):
                pass
            elif lo == offset and all(v >= offset for v in vals):
                normal = tuple(-c for c in normal)
                offset = -offset
                vals = [-v for v in vals]
            else:
                continue
            members = frozenset(i for i, v in enumerate(vals) if v == offset)
            if len(set(pts[i] for i in members)) == len(unique):
                continue  # whole polytope, not a proper face
            if members not in facets:
                facets[members] = Face(normal, offset, members, self.dim - 1)
        return list(facets.values())

    def _hyperplane_normal(self, face_rows, hull_rows, face_point, base):
        """Normal of the hyperplane spanned by face_rows inside the hull.

        Seeks n = sum_j c_j basis_j with n . r = 0 for all face rows r, so
        the nullspace is taken of the Gram-style matrix (r . basis_j).
        """
        basis = []
        for r in hull_rows:
            cand = basis + [r]
            if _rank(cand) > len(basis):
                basis.append(r)
        gram = [tuple(_dot(r, bj) for bj in basis) for r in face_rows]
        coeffs = _nullspace_vector(gram, len(basis))
        if coeffs is None:
            return None
        return tuple(
            sum(coeffs[j] * basis[j][i] for j in range(len(basis)))
            for i in range(self.ambient)
        )

    def _close_under_intersection(self) -> list[Face]:
        by_members: dict[frozenset[int], Face] = {f.members: f for f in self.facets}
        frontier = list(by_members)
        while frontier:
            new = []
            for a in frontier:
                for b in list(by_members):
                    c = a & b
                    if c and c not in by_members:
                        face = self._face_from_members(c)
                        if face is not None:
                            by_members[c] = face
                            new.append(c)
            frontier = new
        # argmax re-check happened in _face_from_members; facets re-checked too
        faces = sorted(
            by_members.values(), key=lambda f: (f.dim, sorted(f.members))
        )
        return faces

    def _face_from_members(self, members: frozenset[int]) -> Face | None:
        incident = [f for f in self.facets if members <= f.members]
        if not incident:
            return None
        functional = tuple(
            sum(f.functional[i] for f in incident) for i in range(self.ambient)
        )
        offset = sum(f.offset for f in incident)
        argmax = frozenset(
            i for i, p in enumerate(self.points) if _dot(functional, p) == offset
        )
        if any(_dot(functional, p) > offset for p in self.points):
            return None
        # argmax re-check: the face must equal the intersection of its facets
        if argmax != _intersect_all(f.members for f in incident):
            return None
        mpts = [self.points[i] for i in argmax]
        fdim = _rank([tuple(a - b for a, b in zip(p, mpts[0])) for p in mpts])
        return Face(functional, offset, argmax, fdim)

    # -- queries ---------------------------------------------------------

    def minimal_face(self, point_indices: Sequence[int]) -> Face | None:
        """Smallest proper face containing the given points, IMPROPER if none."""
        idx = set(point_indices)
        if not idx:
            raise DegenerateInputError("minimal_face needs a nonempty subset")
        incident = [f for f in self.facets if idx <= f.members]
        if not incident:
            return IMPROPER
        members = _intersect_all(f.members for f in incident)
        for face in self.faces:
            if face.members == members:
                return face
        return self._face_from_members(members)

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
        """Facet data (covector, offset) with denominators cleared.

        ceil(gauge(v)) = max_i ceildiv(covector_i . v, offset_i) for integer v.
        """
        out = []
        for f in self.facets:
            denoms = [c.denominator for c in f.functional] + [f.offset.denominator]
            import math

            lcm = 1
            for d in denoms:
                lcm = lcm * d // math.gcd(lcm, d)
            cov = tuple(int(c * lcm) for c in f.functional)
            out.append((cov, int(f.offset * lcm)))
        return out


def _intersect_all(sets) -> frozenset:
    out = None
    for s in sets:
        out = s if out is None else out & s
    return out if out is not None else frozenset()
