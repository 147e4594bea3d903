import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocalc.classifier import full_polytope
from horocalc.errors import DegenerateInputError
from horocalc.groups import standard_group
from horocalc.metric import projected_polytope
from horocalc.polytope import IMPROPER, Polytope

DIAMOND = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def test_diamond_faces():
    P = Polytope(DIAMOND)
    assert len(P.faces) == 8
    assert sum(1 for f in P.faces if f.dim == 0) == 4
    assert sum(1 for f in P.faces if f.dim == 1) == 4


def test_z1_two_faces():
    P = Polytope([(1,), (-1,)])
    assert len(P.faces) == 2
    assert all(f.dim == 0 for f in P.faces)


def test_projected_h1_with_center():
    P = Polytope(DIAMOND + [(0, 0)])
    assert len(P.faces) == 8
    assert P.minimal_face_of_points([(0, 0)]) is IMPROPER


def test_minimal_face_cases():
    P = Polytope(DIAMOND)
    assert P.minimal_face_of_points([(1, 0)]).dim == 0
    assert P.minimal_face_of_points([(1, 0), (0, 1)]).dim == 1
    assert P.minimal_face_of_points([(1, 0), (-1, 0)]) is IMPROPER


def test_minimal_face_monotone():
    P = Polytope(DIAMOND)
    small = P.minimal_face_of_points([(1, 0)])
    big = P.minimal_face_of_points([(1, 0), (0, 1)])
    assert small.members <= big.members


def test_gauge_values():
    P = Polytope(DIAMOND)
    assert P.gauge((3, 4)) == 7
    assert P.gauge((0, 0)) == 0
    v = (Fraction(5, 3), Fraction(-1, 2))
    lam = Fraction(7, 2)
    assert P.gauge((lam * v[0], lam * v[1])) == lam * P.gauge(v)


def test_gauge_needs_interior():
    P = Polytope([(1, 0), (2, 0), (1, 1), (-1, 0), (-2, 0), (-1, -1)])
    assert P.gauge((2, 0)) == 1
    segment = Polytope([(2, 0), (-2, 0)])
    with pytest.raises(DegenerateInputError):
        segment.gauge((1, 0))
    shifted = Polytope([(1, 0), (2, 0), (2, 1), (1, 1)])
    with pytest.raises(DegenerateInputError):
        shifted.gauge((1, 0))


def test_face_lattice_closed_under_intersection():
    for pts in (DIAMOND,
                [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)],
                list(itertools.product([1, -1], repeat=3))):
        P = Polytope(pts)
        member_sets = {f.members for f in P.faces}
        for a in P.faces:
            for b in P.faces:
                c = a.members & b.members
                assert (not c) or c in member_sets


def test_affine_hull_degenerate():
    P = Polytope([(2, 0), (-2, 0)])
    assert P.dim == 1
    assert len(P.faces) == 2


def test_embedded_diamond_in_r3():
    P = Polytope([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)])
    assert P.dim == 2
    assert len(P.faces) == 8


def test_octahedron_face_count():
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    P = Polytope(pts)
    assert len(P.facets) == 8
    assert len(P.faces) == 26  # 6 vertices + 12 edges + 8 facets


def test_4d_cross_polytope():
    pts = [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)]
    pts += [tuple(-1 if i == j else 0 for i in range(4)) for j in range(4)]
    P = Polytope(pts)
    assert len(P.faces) == 80


def test_dimension_cap():
    with pytest.raises(DegenerateInputError):
        Polytope([(1, 0, 0, 0, 0), (-1, 0, 0, 0, 0)])


def test_midpoint_belongs_to_edge_face():
    P = Polytope([(1, 1), (1, -1), (-1, 1), (-1, -1), (1, 0)])
    f = P.minimal_face_of_points([(1, 0)])
    assert f.dim == 1
    assert 4 in f.members


def test_argmax_recheck():
    P = Polytope(DIAMOND)
    for f in P.faces:
        vals = [sum(c * x for c, x in zip(f.functional, p)) for p in P.points]
        assert max(vals) == f.offset
        assert {i for i, v in enumerate(vals) if v == f.offset} == set(f.members)


@st.composite
def symmetric_point_sets(draw):
    """Centrally symmetric point sets in R^1..R^4, possibly lower-dimensional.

    Points of Z^rank (halves allowed) are mapped linearly into R^dim and
    closed under negation; the origin and repeated points may be added.
    """
    dim = draw(st.integers(1, 4))
    rank = draw(st.integers(1, dim))
    coord = st.integers(-2, 2) | st.integers(-3, 3).map(lambda n: Fraction(n, 2))
    half = draw(st.lists(st.tuples(*[coord] * rank), min_size=1, max_size=rank + 3))
    embed = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * rank), min_size=dim, max_size=dim))
    pts = [tuple(sum(e * c for e, c in zip(row, p)) for row in embed) for p in half]
    pts += [tuple(-c for c in p) for p in pts]
    if draw(st.booleans()):
        pts.append((0,) * dim)
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    return draw(st.permutations(pts))


def _value(face, p):
    return sum(c * x for c, x in zip(face.functional, p))


@settings(max_examples=120, deadline=None)
@given(pts=symmetric_point_sets(), data=st.data())
def test_face_properties_on_symmetric_point_sets(pts, data):
    P = Polytope(pts)
    everything = frozenset(range(len(pts)))
    for f in P.facets + P.faces:
        vals = [_value(f, p) for p in P.points]
        assert max(vals) == f.offset
        assert {i for i, v in enumerate(vals) if v == f.offset} == f.members != everything
    member_sets = {f.members for f in P.faces}
    for face in P.faces:
        assert face.members == frozenset.intersection(
            *(f.members for f in P.facets if face.members <= f.members))
        assert all(not face.members & m or face.members & m in member_sets for m in member_sets)
    for _ in range(5):
        subset = frozenset(data.draw(st.lists(st.sampled_from(range(len(pts))), min_size=1)))
        holding = [f for f in P.faces if subset <= f.members]
        face = P.minimal_face(subset)
        if face is IMPROPER:
            assert not holding
        else:
            assert face in P.faces
            assert all(face.members <= f.members for f in holding)
    if P.dim == P.ambient:
        covectors = P.integer_facets()
        for v in data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * P.ambient), max_size=5)):
            ceil = max(-(-sum(a * b for a, b in zip(cov, v)) // off) for cov, off in covectors)
            assert ceil == math.ceil(P.gauge(v))


def _face_digest(faces):
    rows = sorted((sorted(f.members), [str(c) for c in f.functional], str(f.offset), f.dim)
                  for f in faces)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _hull_digests(hull):
    return [_face_digest(hull.facets), _face_digest(hull.faces)]


# The facets and faces of every preset's hulls, as built before the row
# reduction was shared. The Busemann gauge bounds read the face functionals,
# so a change of their scale must show here. None: the full hull has more
# than MAX_DIM coordinates.
HULL_DIGESTS = {
    "cartan": (
        ["1911ee7da708a244bc7ddbea536c6ec2e9ee28287cff86b98b559c7c3cbd3ef6",
         "83572123d67a181f540ba8285d3c5641cce18204ca703b9d963845f573f625ac"],
        None,
    ),
    "h1": (
        ["1911ee7da708a244bc7ddbea536c6ec2e9ee28287cff86b98b559c7c3cbd3ef6",
         "83572123d67a181f540ba8285d3c5641cce18204ca703b9d963845f573f625ac"],
        ["053a27d3b6bc24aa83d981321a65f70134224b14e5104d94c59397c744c9b3d9",
         "54f076030095d8b63140834de0c3d4de0f7d30cddc2f511c6cc08ddb8fab896e"],
    ),
    "h1z": (
        ["1911ee7da708a244bc7ddbea536c6ec2e9ee28287cff86b98b559c7c3cbd3ef6",
         "83572123d67a181f540ba8285d3c5641cce18204ca703b9d963845f573f625ac"],
        ["3f16a43d85df1f4bc517bc18a2b1c88a2c19193fc34d3cc6f663f61d943ec155",
         "f35ac2da4e574f56a324ab51302ca7315b903914df1e8a2c357a310153b614a3"],
    ),
    "h2": (
        ["cd246641afc3fd361c89f0e5cc06a73f198bfb3de1e7d592c5590000dfa7b71b",
         "74ff32bf7536b511484f25d423cbcf39e2a274ebeef3da0fa455ecf868b4b872"],
        None,
    ),
    "z1": (
        ["a7df31416dd0be12f72405098e8244f12cdad237c46b0f39a63b6d78e9324adc",
         "a7df31416dd0be12f72405098e8244f12cdad237c46b0f39a63b6d78e9324adc"],
        ["a7df31416dd0be12f72405098e8244f12cdad237c46b0f39a63b6d78e9324adc",
         "a7df31416dd0be12f72405098e8244f12cdad237c46b0f39a63b6d78e9324adc"],
    ),
    "z2": (
        ["1911ee7da708a244bc7ddbea536c6ec2e9ee28287cff86b98b559c7c3cbd3ef6",
         "83572123d67a181f540ba8285d3c5641cce18204ca703b9d963845f573f625ac"],
        ["1911ee7da708a244bc7ddbea536c6ec2e9ee28287cff86b98b559c7c3cbd3ef6",
         "83572123d67a181f540ba8285d3c5641cce18204ca703b9d963845f573f625ac"],
    ),
    "z3": (
        ["3f16a43d85df1f4bc517bc18a2b1c88a2c19193fc34d3cc6f663f61d943ec155",
         "f35ac2da4e574f56a324ab51302ca7315b903914df1e8a2c357a310153b614a3"],
        ["3f16a43d85df1f4bc517bc18a2b1c88a2c19193fc34d3cc6f663f61d943ec155",
         "f35ac2da4e574f56a324ab51302ca7315b903914df1e8a2c357a310153b614a3"],
    ),
}


@pytest.mark.parametrize("preset", sorted(HULL_DIGESTS))
def test_preset_hulls_are_pinned(preset):
    group = standard_group(preset)
    projected, full = HULL_DIGESTS[preset]
    assert _hull_digests(projected_polytope(group)) == projected
    if full is None:
        with pytest.raises(DegenerateInputError):
            full_polytope(group)
    else:
        assert _hull_digests(full_polytope(group)) == full
