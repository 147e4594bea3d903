import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocalc.errors import DegenerateInputError, ParseError
from horocalc.metric import projected_polytope
from horocalc.subfinsler import (
    Mixed,
    NonVertical,
    SymmetricPolygon,
    Vertical,
    auto_polygon,
    class_fingerprint,
    discrete_vs_continuous,
    horofn_eval,
    omega,
    seam_scan,
)
from horocalc.reference import naive_ball


def test_omega_values(rng):
    assert omega((1, 0), (0, 1)) == -1
    assert omega((3, 5), (3, 5)) == 0
    for _ in range(100):
        u = (rng.randint(-9, 9), rng.randint(-9, 9))
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        w = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert omega((u[0] + v[0], u[1] + v[1]), w) == omega(u, w) + omega(v, w)
        assert omega(u, v) == -omega(v, u)


def test_polygon_construction(h1):
    poly = auto_polygon(h1)
    assert poly.vertices == [(1, 0), (0, 1), (-1, 0), (0, -1)]
    assert poly.vertex(0) == poly.vertex(4)
    hexagon = SymmetricPolygon.from_points(
        [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    )
    assert len(hexagon) == 6
    assert hexagon.vertices[0] == (1, 0)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


@settings(max_examples=200, deadline=None)
@given(half=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=12))
def test_from_points_is_the_ccw_hull_from_the_smallest_angle(half):
    points = half + [(-x, -y) for x, y in half]
    if all(_cross(p, q) == 0 for p in points for q in points):  # at most a segment
        with pytest.raises(DegenerateInputError):
            SymmetricPolygon.from_points(points)
        return
    poly = SymmetricPolygon.from_points(points)
    assert set(poly.vertices) <= set(points)
    for k in range(1, len(poly) + 1):
        e, start = poly.edge(k), poly.vertex(k - 1)
        assert all(_cross(e, (p[0] - start[0], p[1] - start[1])) >= 0 for p in points)
        assert _cross(e, poly.edge(k + 1)) > 0

    def angle(v):
        return math.atan2(v[1], v[0]) % (2 * math.pi)

    assert angle(poly.vertices[0]) == min(angle(v) for v in poly.vertices)


def test_polygon_validation():
    with pytest.raises(DegenerateInputError):
        SymmetricPolygon([(1, 0), (0, 1), (-1, 0)])
    with pytest.raises(DegenerateInputError):
        SymmetricPolygon([(1, 0), (0, 1), (-1, 0), (0, 1)])
    with pytest.raises(DegenerateInputError):
        SymmetricPolygon([(0, 1), (1, 0), (0, -1), (-1, 0)])  # clockwise


def test_alpha_identities(h1, rng):
    poly = auto_polygon(h1)
    for k in range(1, len(poly) + 1):
        assert poly.alpha(k, poly.vertex(k)) == 1
        assert poly.alpha(k, poly.vertex(k - 1)) == 1
        e = poly.edge(k)
        assert poly.alpha(k, e) == 0
        for _ in range(20):
            v = (Fraction(rng.randint(-20, 20), 3), Fraction(rng.randint(-20, 20), 5))
            shifted = (v[0] + e[0], v[1] + e[1])
            assert poly.alpha(k, shifted) == poly.alpha(k, v)


def test_vertical_is_minus_gauge(h1, rng):
    poly = auto_polygon(h1)
    hull = projected_polytope(h1)
    assert horofn_eval(poly, Vertical(), (3, 4, 17)) == -7
    for _ in range(300):
        v = (Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
             Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
        assert horofn_eval(poly, Vertical(), v) == -hull.gauge(v)


def test_vertical_homogeneous(h1, rng):
    poly = auto_polygon(h1)
    for _ in range(50):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        lam = Fraction(rng.randint(1, 12), rng.randint(1, 7))
        assert horofn_eval(poly, Vertical(), (lam * v[0], lam * v[1])) == lam * horofn_eval(
            poly, Vertical(), v
        )


def test_nonvertical_endpoints(h1):
    poly = auto_polygon(h1)
    v = (5, 7)
    assert horofn_eval(poly, NonVertical(2, Fraction(1)), v) == poly.alpha(2, v)
    assert horofn_eval(poly, NonVertical(2, Fraction(0)), v) == poly.alpha(1, v)
    with pytest.raises(DegenerateInputError):
        horofn_eval(poly, NonVertical(9, Fraction(1, 2)), v)
    with pytest.raises(DegenerateInputError):
        horofn_eval(poly, NonVertical(1, Fraction(3, 2)), v)


def test_mixed_branches(h1):
    poly = auto_polygon(h1)
    cls = Mixed(2, Fraction(1, 3))
    # v_2 = (0,1), so omega(v_2, v) = v_x: the pure branch is v_x <= 0
    v = (-1, 1)
    assert omega(poly.vertex(2), v) <= 0
    assert horofn_eval(poly, cls, v) == poly.alpha(2, v)
    # other side blends
    w = (1, 1)
    assert omega(poly.vertex(2), w) > 0
    expected = Fraction(1, 3) * poly.alpha(2, w) + Fraction(2, 3) * poly.alpha(1, w)
    assert horofn_eval(poly, cls, w) == expected
    flipped = Mixed(2, Fraction(1, 3), orientation="ge")
    assert horofn_eval(poly, flipped, w) == poly.alpha(2, w)
    variant2 = Mixed(2, Fraction(1, 3), variant=2)
    assert horofn_eval(poly, variant2, v) == poly.alpha(1, v)


def test_seam_agreement(h1):
    poly = auto_polygon(h1)
    assert all(rec["equal"] for rec in seam_scan(poly, Mixed(3, Fraction(1))))
    assert all(rec["equal"] for rec in seam_scan(poly, Mixed(3, Fraction(0), variant=2)))
    mismatched = seam_scan(poly, Mixed(3, Fraction(1, 2)))
    assert any(not rec["equal"] for rec in mismatched)


def test_fingerprints_separate_classes(h1):
    poly = auto_polygon(h1)
    fp0 = class_fingerprint(h1, poly, NonVertical(1, Fraction(0)), 4)
    fp5 = class_fingerprint(h1, poly, NonVertical(1, Fraction(1, 2)), 4)
    assert fp0 != fp5
    assert class_fingerprint(h1, poly, Vertical(), 2) == class_fingerprint(
        h1, poly, Vertical(), 2
    )


HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


@pytest.mark.parametrize("cls", [Vertical(), NonVertical(1, Fraction(1, 3)),
                                 Mixed(2, Fraction(1, 2), "le"), Mixed(2, Fraction(1, 2), "ge")],
                         ids=repr)
@pytest.mark.parametrize("hexagon", [False, True], ids=["auto", "hexagon"])
def test_a_fingerprint_is_the_class_at_every_element_of_the_ball(h1, cls, hexagon):
    poly = SymmetricPolygon.from_points(HEXAGON) if hexagon else auto_polygon(h1)
    # each element evaluated on its own, central coordinate included
    expected = tuple((key, horofn_eval(poly, cls, key[1:])) for key in sorted(naive_ball(h1, 5)))
    assert class_fingerprint(h1, poly, cls, 5) == expected


def test_discrete_vs_continuous_central(h1):
    poly = auto_polygon(h1)
    rep = discrete_vs_continuous(h1, poly, Vertical(), "central", radius=5)
    assert rep.max_abs_diff_by_radius[0] == 0
    diffs = rep.max_abs_diff_by_radius
    assert diffs == sorted(diffs)
    # φ and -gauge agree exactly on the radius-1 window at this scale
    assert diffs[1] == 0


def test_discrete_vs_continuous_presets(h1):
    poly = auto_polygon(h1)
    rep = discrete_vs_continuous(h1, poly, NonVertical(1, Fraction(1, 2)),
                                 "vertex:x", n=8, radius=3)
    assert rep.window_size > 0
    rep = discrete_vs_continuous(h1, poly, NonVertical(1, Fraction(1, 2)),
                                 "edge:x,y,1,1", n=5, radius=3)
    assert len(rep.max_abs_diff_by_radius) == 4


def test_discrete_vs_continuous_rejects(z2, h1):
    poly = auto_polygon(h1)
    with pytest.raises(DegenerateInputError):
        discrete_vs_continuous(z2, poly, Vertical(), "central", radius=3)
    with pytest.raises(ParseError):
        discrete_vs_continuous(h1, poly, Vertical(), "bogus", radius=3)


@pytest.mark.parametrize("build", [
    lambda: NonVertical(1, Fraction(3, 2)),
    lambda: Mixed(1, Fraction(-1)),
    lambda: Mixed(1, Fraction(1, 2), orientation="xx"),
    lambda: Mixed(1, Fraction(1, 2), variant=3),
])
def test_classes_are_checked_when_built(build):
    with pytest.raises(DegenerateInputError):
        build()


@pytest.mark.parametrize("sequence, n, radius, error", [
    ("edge:x,y,a,b", 2, 2, ParseError),
    ("edge:x,y", 2, 2, ParseError),
    ("edge:x,y,-1,2", 2, 2, DegenerateInputError),
    ("central", 2, -1, DegenerateInputError),
    ("central", -3, 2, DegenerateInputError),
])
def test_discrete_vs_continuous_rejects_malformed_and_negative_inputs(h1, sequence, n, radius,
                                                                      error):
    with pytest.raises(error):
        discrete_vs_continuous(h1, auto_polygon(h1), Vertical(), sequence, n=n, radius=radius)
