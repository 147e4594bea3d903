import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocalc import horoboundary, metric
from horocalc.cli import main

from horocalc.errors import (
    BudgetExceededError,
    DegenerateInputError,
    SpecNotGeodesicError,
    UnknownLabelError,
)
from horocalc.groups import parse_word, standard_group
from horocalc.horoboundary import (
    DigitizedRay,
    PeriodicRay,
    busemann_eval,
    cofinal_orbit_witness,
    horofn_window,
    lift_ray,
    ray_elements,
    ray_prefix,
    reduced_equiv,
    same_busemann,
    validate_ray,
)
from horocalc.metric import LengthResult, ball, geodesic_certificate_by_face, word_length
from horocalc.reference import brute_force_digitized, naive_ball, naive_busemann_values


def test_ray_prefix_periodic():
    spec = PeriodicRay((), ("x", "y"))
    assert ray_prefix(spec, 3) == ("x", "y", "x")
    spec = PeriodicRay(("y",), ("x",))
    assert ray_prefix(spec, 4) == ("y", "x", "x", "x")
    assert ray_prefix(spec, 0) == ()
    with pytest.raises(DegenerateInputError):
        PeriodicRay((), ())


def test_digitized_axis_and_ties():
    assert ray_prefix(DigitizedRay((1, 0)), 5) == ("x",) * 5
    assert ray_prefix(DigitizedRay((0, 1)), 3) == ("y",) * 3
    # both-odd diagonal: first on-line square assigned below, so the path
    # steps above it first
    assert ray_prefix(DigitizedRay((1, 1)), 4) == ("y", "x", "x", "y")
    g = standard_group("z2").evaluate(ray_prefix(DigitizedRay((1, 1)), 4))
    assert g.vec == (2, 2)


def test_digitized_matches_bruteforce_classification(rng):
    for _ in range(60):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        g = math.gcd(a, b)
        a, b = a // g, b // g
        n = rng.randint(1, 30)
        assert ray_prefix(DigitizedRay((a, b)), n) == brute_force_digitized((a, b), n)


def test_digitized_reflections():
    base = ray_prefix(DigitizedRay((2, 3)), 10)
    flipped = ray_prefix(DigitizedRay((-2, 3)), 10)
    assert flipped == tuple("x~" if s == "x" else s for s in base)
    both = ray_prefix(DigitizedRay((-2, -3)), 10)
    swap = {"x": "x~", "y": "y~"}
    assert both == tuple(swap[s] for s in base)


def test_digitized_direction_reduction_and_errors():
    assert DigitizedRay((2, 4)).direction == (1, 2)
    assert DigitizedRay((-3, -3)).direction == (-1, -1)
    with pytest.raises(DegenerateInputError):
        DigitizedRay((0, 0))
    with pytest.raises(DegenerateInputError):
        ray_prefix(DigitizedRay((1, 1)), -1)


def test_digitized_rays_always_face_certified(cartan, h1):
    for direction in ((1, 1), (1, 2), (5, 3), (-1, 4), (0, 1), (-2, -7)):
        word = ray_prefix(DigitizedRay(direction), 14)
        assert geodesic_certificate_by_face(cartan, word).certified
        assert geodesic_certificate_by_face(h1, word).certified


def test_validate_ray(h1, h1z):
    assert validate_ray(h1, DigitizedRay((1, 2)), 10) == "certified"
    # adjacent letters stay on one face even with a prefix
    assert validate_ray(h1, PeriodicRay(("y",), ("x",)), 8) == "certified"
    # a central generator projects to the interior: explicit check needed
    assert validate_ray(h1z, PeriodicRay(("z",), ("x",)), 8) == "checked"
    with pytest.raises(SpecNotGeodesicError):
        validate_ray(h1, PeriodicRay((), ("x", "x~")), 6)
    with pytest.raises(SpecNotGeodesicError):
        validate_ray(h1z, PeriodicRay(("z", "z~"), ("x",)), 6)


def _count_letter_face_calls(monkeypatch):
    calls = []
    lookup = metric.letter_face

    def counted(group, letters):
        calls.append(tuple(letters))
        return lookup(group, letters)

    monkeypatch.setattr(metric, "letter_face", counted)
    return calls


def test_validate_ray_looks_up_the_letter_face_once(monkeypatch, h1, h1z):
    calls = _count_letter_face_calls(monkeypatch)
    assert validate_ray(h1z, PeriodicRay(("z",), ("x",)), 8) == "checked"
    assert len(calls) == 1
    assert validate_ray(h1, PeriodicRay(("y",), ("x",)), 8) == "certified"
    assert len(calls) == 2
    with pytest.raises(SpecNotGeodesicError):
        validate_ray(h1, PeriodicRay((), ("x", "x~")), 6)
    assert len(calls) == 3


def test_geodesic_check_cli_looks_up_the_letter_face_once(monkeypatch, capsys):
    calls = _count_letter_face_calls(monkeypatch)
    assert main(["geodesic-check", "--group", "h1z", "--word", "z x x"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["geodesic"] is True
    assert len(calls) == 1


def test_validate_ray_needs_standard_grid(z2, h1z):
    validate_ray(z2, DigitizedRay((1, 1)), 5)
    # h1z has the grid labels x, y plus central z; still fine
    validate_ray(h1z, DigitizedRay((1, 1)), 5)
    odd = standard_group("h2")
    with pytest.raises(DegenerateInputError):
        validate_ray(odd, DigitizedRay((1, 1)), 5)


def test_busemann_translation_values(z2):
    spec = PeriodicRay((), ("x",))
    est = busemann_eval(z2, spec, parse_word("x"), horizon=6)
    assert est.value == -1 and est.certified
    est = busemann_eval(z2, spec, parse_word("x~"), horizon=6)
    assert est.value == 1 and est.certified


def test_busemann_on_ray_points(h1):
    spec = DigitizedRay((1, 2))
    for n in (2, 5):
        est = busemann_eval(h1, spec, list(ray_prefix(spec, n)), horizon=9)
        assert est.value == -n and est.certified


def test_busemann_central_element_stabilizes(h1):
    est = busemann_eval(h1, DigitizedRay((1, 2)), parse_word("x y x~ y~"), horizon=12)
    assert est.value == 0 and est.certified
    assert est.values == sorted(est.values, reverse=True)
    assert est.stable_for >= 6


def test_busemann_monotone_and_bounded(h1, z2):
    for G, spec, word in (
        (h1, DigitizedRay((2, 1)), "x y~"),
        (z2, PeriodicRay((), ("x", "y")), "x x y~"),
    ):
        est = busemann_eval(G, spec, parse_word(word), horizon=10)
        for a, b in zip(est.values, est.values[1:]):
            assert b <= a
        assert est.value >= est.lower_bound
        assert est.value >= -est.values[0]


def test_busemann_needs_norm_budget_for_elements(h1):
    g = h1.evaluate(parse_word("x"))
    with pytest.raises(DegenerateInputError):
        busemann_eval(h1, DigitizedRay((1, 0)), g, horizon=4)
    est = busemann_eval(h1, DigitizedRay((1, 0)), g, horizon=4, norm_budget=1)
    assert est.value == -1 and est.certified


def test_busemann_scan_at_its_triangle_bound_never_exceeds_it(monkeypatch, h1):
    # |h| <= len(word) and |h^-1 ray_n| <= n + a_{n-1}: the searches run below these bounds,
    # and an answer that contradicts one is a bug
    real = metric.word_length
    spec, word = DigitizedRay((1, 2)), parse_word("x y x~ y~")
    odd = LengthResult("exact", 1, 0, 0)  # every word for h is even on H_1
    monkeypatch.setattr(metric, "word_length", lambda *args, **kwargs: odd)
    with pytest.raises(AssertionError, match="proved length bound 4 contradicts it"):
        busemann_eval(h1, spec, word, horizon=4)
    calls = []

    def gauge_above_the_bound_after_the_norm(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs) if len(calls) == 1 else LengthResult(
            "exceeds_budget", None, 6, 0)

    monkeypatch.setattr(metric, "word_length", gauge_above_the_bound_after_the_norm)
    with pytest.raises(AssertionError, match="proved length bound 5 contradicts it"):
        busemann_eval(h1, spec, word, horizon=4)
    assert len(calls) == 2


# Largest len(word) + horizon a scan is checked at against the naive ball.
NAIVE_SCAN_RADII = {"h1": 10, "cartan": 7}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(NAIVE_SCAN_RADII)), data=st.data())
def test_busemann_values_match_the_naive_scan(name, data):
    group = standard_group(name)
    direction = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                          .filter(lambda u: u != (0, 0)))
    horizon = data.draw(st.integers(1, NAIVE_SCAN_RADII[name]))
    word = data.draw(st.lists(st.sampled_from(group.labels),
                              max_size=NAIVE_SCAN_RADII[name] - horizon))
    spec = DigitizedRay(direction)
    est = busemann_eval(group, spec, word, horizon)
    assert est.horizon == horizon
    assert est.values == naive_busemann_values(group, spec, word, horizon)


@pytest.mark.parametrize("n_max, m_max", [(-1, 3), (0, 3), (4, 3)])
def test_comparisons_with_nothing_to_check_are_rejected(z2, n_max, m_max):
    spec = PeriodicRay((), ("x",))
    with pytest.raises(DegenerateInputError):
        same_busemann(z2, spec, spec, n_max, m_max)
    with pytest.raises(DegenerateInputError):
        reduced_equiv(z2, spec, spec, 1, n_max, m_max)


def test_same_busemann_identical(z2):
    spec = PeriodicRay((), ("x",))
    res = same_busemann(z2, spec, spec, 4, 10)
    assert res.status == "verified"
    assert all(m == n for n, m in res.witnesses)


def test_same_busemann_different_faces(z2):
    res = same_busemann(z2, PeriodicRay((), ("x",)), PeriodicRay((), ("x", "y")), 4, 20)
    assert res.status == "not_found"


def test_same_busemann_heisenberg_edge_face(h1):
    res = same_busemann(h1, DigitizedRay((1, 2)), DigitizedRay((2, 1)), 4, 24)
    assert res.status == "verified"


def test_reduced_equiv(z2, cartan):
    spec = PeriodicRay((), ("x", "y"))
    other = PeriodicRay((), ("y", "x"))
    assert same_busemann(z2, spec, other, 3, 12).status == "verified"
    assert reduced_equiv(z2, spec, other, 0, 3, 12).status == "verified"
    assert reduced_equiv(z2, spec, spec, 2, 3, 12).status == "verified"
    res = reduced_equiv(cartan, DigitizedRay((1, 1)), DigitizedRay((-1, -1)), 2, 3, 10)
    assert res.status == "not_found"
    with pytest.raises(DegenerateInputError):
        reduced_equiv(z2, spec, other, -1, 2, 4)


def test_cofinal_witness(z2, h1):
    xy = PeriodicRay((), ("x", "y"))
    yx = PeriodicRay((), ("y", "x"))
    assert cofinal_orbit_witness(z2, xy, yx) == z2.evaluate(("x",))
    assert cofinal_orbit_witness(h1, PeriodicRay((), ("x",)), PeriodicRay((), ("x",))).is_identity()
    shifted = PeriodicRay((), ("y", "x", "y"))
    w = cofinal_orbit_witness(z2, PeriodicRay(("y",), ("x", "y")), PeriodicRay((), ("x", "y")))
    assert w is not None
    assert cofinal_orbit_witness(z2, PeriodicRay((), ("x",)), PeriodicRay((), ("y",))) is None


def test_cofinal_witness_acts_correctly(h1):
    # gamma = u w, eta = w: b_gamma = u . b_eta, witnessed on switching pairs
    gamma = PeriodicRay(("x",), ("x", "y"))
    eta = PeriodicRay((), ("x", "y"))
    g = cofinal_orbit_witness(h1, gamma, eta)
    assert g == h1.evaluate(("x",))


def test_lift_ray(h1, cartan):
    ident = {lbl: lbl for lbl in ("x", "y", "x~", "y~")}
    spec = PeriodicRay((), ("x",))
    assert lift_ray(ident, spec) == spec
    assert lift_ray(ident, DigitizedRay((1, 2))) == DigitizedRay((1, 2))
    # quotient Cartan -> Z^2, label-preserving: lifting x^inf gives x^inf
    labels = {lbl: lbl for lbl in cartan.labels}
    assert lift_ray(labels, PeriodicRay((), ("x",))) == PeriodicRay((), ("x",))
    with pytest.raises(UnknownLabelError):
        lift_ray({"x": "x"}, PeriodicRay((), ("x", "y")))
    with pytest.raises(DegenerateInputError):
        lift_ray({"a": "x", "b": "y", "a~": "x~", "b~": "y~"}, DigitizedRay((1, 1)))


def enumerate_geodesic_letter_counts(group, max_len):
    """All (letter-count vector, length) pairs realized by geodesic words.

    Words are grown letter by letter, pruned by exact distances, and
    deduplicated by (element, counts): two geodesic words with the same
    value and the same letter multiset are interchangeable here.
    """
    table = ball(group, max_len)
    labels = list(group.labels)
    gens = [group.generator(s) for s in labels]
    level = {(group.identity.key(), (0,) * len(labels)): group.identity}
    out = {0: {(0,) * len(labels)}}
    for length in range(1, max_len + 1):
        nxt = {}
        for (key, counts), elem in level.items():
            for i, s in enumerate(gens):
                child = elem * s
                if table.entries.get(child.key()) == length:
                    c2 = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
                    nxt[(child.key(), c2)] = child
        level = nxt
        out[length] = {c for (_, c) in level}
    return labels, out


def test_face_letters_spot_check(h1):
    """Finite-window check of the recurring-letters/face phenomenon.

    For infinite geodesic rays the recurring letters share a proper face;
    finite geodesic words only obey the distinct-letter form of that
    statement (all but at most 2 letter *types* fit one face). Counting
    multiplicities the transient genuinely grows: square-loop geodesics
    spelling central elements use all four letters about length/4 times
    each, and the enumeration below reproduces that (frozen worst counts).
    """
    labels, by_length = enumerate_geodesic_letter_counts(h1, 10)
    faces = [{"x"}, {"y"}, {"x~"}, {"y~"},
             {"x", "y"}, {"y", "x~"}, {"x~", "y~"}, {"y~", "x"}]

    def off_face_types(counts):
        used = {labels[i] for i, c in enumerate(counts) if c}
        return min(len(used - f) for f in faces)

    def off_face_letters(counts):
        return min(
            sum(c for i, c in enumerate(counts) if labels[i] not in f)
            for f in faces
        )

    worst_by_length = {}
    for length, count_sets in by_length.items():
        assert all(off_face_types(c) <= 2 for c in count_sets)
        worst_by_length[length] = max(
            (off_face_letters(c) for c in count_sets), default=0
        )
    # the multiplicity transient of finite geodesic words (pilot-frozen):
    # central square loops keep all four letters in play
    assert worst_by_length[10] == 5
    assert worst_by_length[4] == 2
    # infinite rays do satisfy the face form: recurring letters of every
    # validated ray family member lie on a proper face, and letter sets
    # spanning antipodal pairs are rejected as non-geodesic
    from horocalc.classifier import ray_invariants

    for spec in (DigitizedRay((1, 2)), DigitizedRay((-3, 1)),
                 PeriodicRay((), ("x", "y")), PeriodicRay(("y",), ("x",))):
        validate_ray(h1, spec, 12)
        assert ray_invariants(h1, spec).face_key
    with pytest.raises(SpecNotGeodesicError):
        ray_invariants(h1, PeriodicRay((), ("x", "y", "x~")))


def test_horofn_window_axis(z2):
    win, elems = horofn_window(z2, ["x"] * 7, radius=3)
    assert win.values[z2.identity.key()] == 0
    assert win.values[z2.evaluate(("x",)).key()] == -1
    assert win.values[z2.evaluate(("x~",)).key()] == 1
    assert win.lipschitz_violations(z2, elems) == []


def test_horofn_window_identity_center(h1):
    win, elems = horofn_window(h1, [], radius=3)
    table = ball(h1, 3)
    assert win.values == table.entries
    assert win.lipschitz_violations(h1, elems) == []
    # the state cap bounds the ball behind the window
    assert horofn_window(h1, [], radius=3, state_cap=len(table))[0].values == table.entries
    with pytest.raises(BudgetExceededError):
        horofn_window(h1, [], radius=3, state_cap=len(table) - 1)


def test_horofn_window_cartan(cartan):
    word = ["x", "x", "y", "x~", "y"]
    win, elems = horofn_window(cartan, word, radius=3)
    assert win.values.keys() == elems.keys() == naive_ball(cartan, 3).keys()
    x = cartan.evaluate(word)
    assert win.center_norm == word_length(cartan, x, budget=len(word)).length
    for key, w in elems.items():
        assert w.key() == key
        d_xw = word_length(cartan, x.inverse() * w, budget=win.center_norm + 3).length
        assert win.values[key] == d_xw - win.center_norm
    assert win.lipschitz_violations(cartan, elems) == []


def test_horofn_window_along_geodesic(h1):
    spec = DigitizedRay((1, 2))
    n = 6
    win, elems = horofn_window(h1, list(ray_prefix(spec, n)), radius=3)
    pts = ray_elements(h1, spec, 3)
    for k in range(3 + 1):
        assert win.values[pts[k].key()] == -k
    assert win.lipschitz_violations(h1, elems) == []
