import json
import math

import pytest
from hypothesis import example, given, settings
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
    ray_prefix,
    reduced_equiv,
    same_busemann,
    validate_ray,
)
from horocalc.metric import (
    LengthResult,
    ball,
    gauge_lower_bound,
    geodesic_verdict,
    word_length,
)
from horocalc.reference import (
    brute_force_digitized,
    naive_ball,
    naive_busemann_values,
    naive_compare_rays,
)


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
        assert geodesic_verdict(cartan, word)[0] == "certified"
        assert geodesic_verdict(h1, word)[0] == "certified"


@st.composite
def ray_specs(draw):
    """(group, ray): a periodic ray over the marking's labels, or a digitized direction."""
    name = draw(st.sampled_from(["z2", "h1", "cartan"]))
    group = standard_group(name)
    if draw(st.booleans()):
        a, b = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda u: u != (0, 0)))
        return group, DigitizedRay((a, b))
    labels = st.sampled_from(sorted(group.labels))
    return group, PeriodicRay(tuple(draw(st.lists(labels, max_size=3))),
                              tuple(draw(st.lists(labels, min_size=1, max_size=3))))


@settings(max_examples=100, deadline=None)
@given(case=ray_specs(), lengths=st.lists(st.integers(0, 14), min_size=1, max_size=3))
def test_ray_plans_hold_the_prefixes_and_their_abelianized_sums(case, lengths):
    # a fresh plan extended to each length in turn, later ones possibly longer
    group, spec = case
    plan = horoboundary._RayPlan(group, spec)
    for k, n in enumerate(lengths):
        assert plan.extend(n) is plan
        letters = ray_prefix(spec, max(lengths[:k + 1]))
        assert plan.letters == letters
        assert plan.elems == [group.evaluate(letters[:t]) for t in range(len(letters) + 1)]
        assert plan.sums == [e.abelianized() for e in plan.elems]
    with pytest.raises(DegenerateInputError):
        plan.extend(-1)
    assert horoboundary._ray_plan(group, spec) is horoboundary._ray_plan(group, spec)


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


def test_validate_ray_charges_the_prefix_to_the_state_cap(monkeypatch, z2):
    # the horizon + 1 plan elements over the cap raise before the plan grows
    spec = PeriodicRay((), ("x",))
    assert validate_ray(z2, spec, 9, state_cap=10) == "certified"
    monkeypatch.setattr(horoboundary._RayPlan, "extend", None)
    with pytest.raises(BudgetExceededError, match="needs 11 ray elements, more than the state cap"):
        validate_ray(z2, spec, 10, state_cap=10)
    with pytest.raises(BudgetExceededError):
        busemann_eval(z2, spec, ["y"], 10**12)


def test_a_repeated_comparison_spells_no_letters(monkeypatch, h1):
    # validate_ray reads the cached plan, so a second comparison of the pair rebuilds no prefix
    spells = []
    staircase = horoboundary._first_quadrant_staircase

    def counted(a, b, n):
        spells.append((a, b, n))
        return staircase(a, b, n)

    monkeypatch.setattr(horoboundary, "_first_quadrant_staircase", counted)
    spec1, spec2 = DigitizedRay((3, 5)), DigitizedRay((5, 3))
    first = same_busemann(h1, spec1, spec2, 3, 12)
    spells.clear()
    assert same_busemann(h1, spec1, spec2, 3, 12) == first
    assert spells == []


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
    # a ray off every proper face is refused by its plan before its prefix is looked up
    with pytest.raises(SpecNotGeodesicError, match="no proper face"):
        validate_ray(h1, PeriodicRay((), ("x", "x~")), 6)
    assert len(calls) == 2
    with pytest.raises(SpecNotGeodesicError, match="not geodesic within horizon"):
        validate_ray(h1z, PeriodicRay(("z", "z~"), ("x",)), 6)
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
    # a Busemann scan asks for the grid before it looks up the ray's recurring face
    with pytest.raises(DegenerateInputError, match="standard grid"):
        busemann_eval(odd, DigitizedRay((1, 1)), ["x1"], 5)


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


def test_busemann_refuses_a_ray_whose_recurring_letters_lie_on_no_face(monkeypatch, h1):
    # the commutator block is geodesic for 4 letters, but the values fall without bound
    spec = PeriodicRay((), parse_word("x y x~ y~"))
    assert naive_busemann_values(h1, spec, ["y"], 8) == [1, 1, 1, 1, -1, -1, -1, -1, -3]
    assert geodesic_verdict(h1, ray_prefix(spec, 4)) == ("checked", None)
    monkeypatch.setattr(metric, "word_length", None)  # refused before any search
    with pytest.raises(SpecNotGeodesicError, match="no proper face"):
        validate_ray(h1, spec, 4)
    with pytest.raises(SpecNotGeodesicError, match="no proper face"):
        busemann_eval(h1, spec, ["y"], horizon=4)
    with pytest.raises(SpecNotGeodesicError, match="no proper face"):
        busemann_eval(h1, spec, h1.evaluate(["y"]), horizon=4, norm_budget=1)


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


# (group, ray, word of h, horizon, n): the scan's value first meets its gauge bound at n,
# counted from the end of the ray's prefix, so it searches steps 1..n only
SCANS_THAT_MEET_THE_BOUND = [
    ("z2", PeriodicRay(("x",), ("x",)), "x~", 6, 1),  # at the bound from n = 0, in the prefix
    ("z2", PeriodicRay(("y",), ("x", "y")), "x x y~", 6, 4),
    ("h1", PeriodicRay(("y", "y"), ("x",)), "y y", 6, 2),
    ("h1", DigitizedRay((1, 2)), "y x", 8, 2),
    ("cartan", PeriodicRay(("x", "x"), ("x",)), "x~", 5, 2),  # at the bound from n = 0 too
    ("cartan", PeriodicRay(("y",), ("x",)), "y x~", 5, 1),
]


def _count_scan_steps(monkeypatch):
    steps = []
    length = horoboundary.length_within

    def counted(*args):
        steps.append(args)
        return length(*args)

    monkeypatch.setattr(horoboundary, "length_within", counted)
    return steps


@pytest.mark.parametrize("name, spec, word, horizon, n", SCANS_THAT_MEET_THE_BOUND)
def test_a_scan_at_its_gauge_bound_searches_no_further(monkeypatch, name, spec, word, horizon,
                                                       n):
    group, word = standard_group(name), parse_word(word)
    steps = _count_scan_steps(monkeypatch)
    est = busemann_eval(group, spec, word, horizon)
    assert est.values == naive_busemann_values(group, spec, word, horizon)
    assert est.values[n] == est.lower_bound
    assert est.certified and est.horizon == horizon and not est.exhausted
    assert len(steps) == n


def test_a_scan_at_its_gauge_bound_reaches_its_horizon_under_a_small_cap(monkeypatch, cartan):
    # h is the ray's own point ray_2: the value meets the bound -2 at n = 2, and a cap that
    # holds only the plan's elements still gives every value up to the horizon
    spec, horizon = DigitizedRay((1, 1)), 30
    steps = _count_scan_steps(monkeypatch)
    est = busemann_eval(cartan, spec, list(ray_prefix(spec, 2)), horizon, state_cap=horizon + 1)
    assert est.values == [2, 0] + [-2] * (horizon - 1)
    assert est.certified and est.horizon == horizon and not est.exhausted
    assert len(steps) == 2


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


# Largest radius of the naive ball a comparison is checked against, m_max - 1 + slack.
NAIVE_COMPARE_RADII = {"z2": 9, "h1": 9, "cartan": 7}


@st.composite
def comparisons(draw):
    """(group, ray1, ray2, n_max, m_max, slack): periodic rays on z2, digitized on h1 and cartan.

    A z2 ray's letters lie in one quadrant, so it is geodesic. Half the cases
    put both rays in one quadrant, where the criterion can be verified.
    """
    name = draw(st.sampled_from(sorted(NAIVE_COMPARE_RADII)))
    signs = st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1]))
    shared = draw(signs) if draw(st.booleans()) else None

    def ray():
        sx, sy = shared or draw(signs)
        if name != "z2":
            a, b = draw(st.tuples(st.integers(0, 3), st.integers(0, 3))
                        .filter(lambda u: u != (0, 0)))
            return DigitizedRay((sx * a, sy * b))
        letters = ("x" if sx > 0 else "x~", "y" if sy > 0 else "y~")
        return PeriodicRay(tuple(draw(st.lists(st.sampled_from(letters), max_size=3))),
                           tuple(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3))))

    spec1, spec2 = ray(), ray()
    slack = draw(st.integers(0, 2))
    n_max = draw(st.integers(1, 3))
    m_max = draw(st.integers(n_max, min(8, NAIVE_COMPARE_RADII[name] + 1 - slack)))
    return standard_group(name), spec1, spec2, n_max, m_max, slack


@settings(max_examples=150, deadline=None)
@given(case=comparisons())
@example(case=(standard_group("z2"), PeriodicRay(("x",), ("y~",)),
               PeriodicRay(("y~", "x", "x"), ("x", "x", "y~")), 2, 2, 0))
@example(case=(standard_group("h1"), DigitizedRay((-3, 2)), DigitizedRay((-1, 1)), 3, 6, 0))
def test_comparisons_equal_the_naive_scan(case):
    group, spec1, spec2, n_max, m_max, slack = case
    expected = naive_compare_rays(group, spec1, spec2, n_max, m_max, slack)
    assert reduced_equiv(group, spec1, spec2, slack, n_max, m_max) == expected
    if slack == 0:
        assert same_busemann(group, spec1, spec2, n_max, m_max) == expected


def _ray_elements(group, spec, m_max):
    return [group.evaluate(spec.letters(t)) for t in range(m_max + 1)]


def _query_keys(group, spec1, spec2, n_max, m_max):
    """{(n, check, m): key of the element check ``check`` queries at (n, m)}.

    Check 0 asks d(ray1_m, ray2_n), check 1 d(ray2_m, ray1_n).
    """
    rays = [_ray_elements(group, spec, m_max) for spec in (spec1, spec2)]
    return {(n, check, m): (rays[check][m].inverse() * rays[1 - check][n]).key()
            for n in range(1, n_max + 1) for check in (0, 1) for m in range(n, m_max + 1)}


def _walk_order(group, keys, statuses, n_max, m_max, slack):
    """(n, check, m, searched) of each step of the switching walk, given the statuses searched.

    A step whose gauge lower bound exceeds its budget m - n + slack is proved
    ``exceeds_budget`` without a search; every other step takes the next status.
    """
    order, answers, start = [], iter(statuses), [1, 1]
    for n in range(1, n_max + 1):
        m, known = max(n, *start), [False, False]
        while m <= m_max and not all(known):
            i = known.index(False)
            searched = gauge_lower_bound(group, group.element(keys[n, i, m])) <= m - n + slack
            order.append((n, i, m, searched))
            status = next(answers) if searched else "exceeds_budget"
            if status == "exact":
                known[i] = True
                continue
            if status == "exceeds_budget":
                start[i] = m + 1
            m += 1
        if not all(known):
            break
    return order


def _warm_plans(group, specs, m_max):
    """Grow the rays' cached plans to m_max, so a comparison up to M makes no plan product."""
    for spec in specs:
        horoboundary._ray_plan(group, spec).extend(m_max)


def _record_walk_steps(monkeypatch, group, specs, m_max):
    """Patch horoboundary so the returned list gets one [gauge argument, gauge value, searches,
    products] per walk step, each search as (element key, budget, status).

    Every step evaluates the gauge once, as the tracer counts it: by wrapping the callable
    that ``_gauge_ceil_fn`` returns. A search or product belongs to the last step begun; the
    rays' plans are warmed first, so every product counted is a step's.
    """
    _warm_plans(group, specs, m_max)
    steps = []
    gauge_fn, length = horoboundary._gauge_ceil_fn, horoboundary.word_length

    def recorded_gauge_fn(group):
        gauge = gauge_fn(group)

        def recorded(v):
            steps.append([v, gauge(v), [], 0])
            return steps[-1][1]

        return recorded

    def recorded_length(group, g, budget, state_cap):
        res = length(group, g, budget, state_cap)
        steps[-1][2].append((g.key(), budget, res.status))
        return res

    element_type = type(group.identity)
    mul = element_type.__mul__

    def counted(g, h):
        steps[-1][3] += 1
        return mul(g, h)

    monkeypatch.setattr(element_type, "__mul__", counted)
    monkeypatch.setattr(horoboundary, "_gauge_ceil_fn", recorded_gauge_fn)
    monkeypatch.setattr(horoboundary, "word_length", recorded_length)
    return steps


WALK_CASES = [
    ("z2", PeriodicRay((), ("y", "x")), PeriodicRay((), ("x", "y~")), 6, 36, 0, 37, 1),
    ("z2", PeriodicRay((), ("x", "y")), PeriodicRay((), ("y", "x")), 3, 12, 0, 8, 6),
    ("h1", DigitizedRay((1, 2)), DigitizedRay((2, 1)), 8, 40, 0, 43, 42),
    ("cartan", DigitizedRay((1, 1)), DigitizedRay((-1, -1)), 6, 30, 2, 31, 2),
]
WALK_IDS = ["z2-not-found", "z2-verified", "h1-verified", "cartan-slack"]


@pytest.mark.parametrize("name, spec1, spec2, n_max, m_max, slack, steps, searches",
                         WALK_CASES, ids=WALK_IDS)
def test_comparisons_prove_each_check_once_per_n(monkeypatch, name, spec1, spec2, n_max, m_max,
                                                 slack, steps, searches):
    # a check that holds at (n, m) holds at every larger m, and one that fails at (n, m) fails
    # at every larger n and smaller m: at most 2(N + M) steps, each check exact once per n;
    # a step is proved by the gauge or searched once, and only a searched step makes a product
    group = standard_group(name)
    keys = _query_keys(group, spec1, spec2, n_max, m_max)
    recorded = _record_walk_steps(monkeypatch, group, (spec1, spec2), m_max)
    reduced_equiv(group, spec1, spec2, slack, n_max, m_max)
    statuses = [status for *_, found, _ in recorded for *_, status in found]
    order = _walk_order(group, keys, statuses, n_max, m_max, slack)
    assert len(recorded) == len(order) == steps <= 2 * (n_max + m_max)
    assert len(statuses) == searches
    for (n, check, m, searched), (v, bound, found, moved) in zip(order, recorded):
        key, budget = keys[n, check, m], m - n + slack
        assert v == group.element(key).abelianized()
        assert (bound <= budget) == searched
        assert [query[:2] for query in found] == ([(key, budget)] if searched else [])
        assert moved == searched
    exact = [(n, check) for (n, check, *_), (*_, found, _) in zip(order, recorded)
             if found and found[0][2] == "exact"]
    assert len(exact) == len(set(exact))
    assert "inconclusive" not in statuses


@pytest.mark.parametrize("name, spec1, spec2, n_max, m_max, slack, steps, searches",
                         WALK_CASES, ids=WALK_IDS)
def test_comparisons_make_one_product_per_walk_step(monkeypatch, name, spec1, spec2, n_max,
                                                    m_max, slack, steps, searches):
    # on warm plans a walk step makes at most one product: ray_m^-1 ray'_n for its search,
    # none for a gauge proof
    group = standard_group(name)
    _warm_plans(group, (spec1, spec2), m_max)
    element_type, counted_products = type(group.identity), []
    mul = element_type.__mul__

    def counted(g, h):
        counted_products.append(1)
        return mul(g, h)

    monkeypatch.setattr(element_type, "__mul__", counted)
    res = reduced_equiv(group, spec1, spec2, slack, n_max, m_max)
    assert res.status != "inconclusive"
    assert len(counted_products) == searches <= steps


def test_a_gauge_proof_makes_no_product_and_no_search(monkeypatch):
    # z2-not-found: every step after the first is proved by the gauge alone
    name, spec1, spec2, n_max, m_max, slack, *_ = WALK_CASES[0]
    group = standard_group(name)
    keys = _query_keys(group, spec1, spec2, n_max, m_max)
    recorded = _record_walk_steps(monkeypatch, group, (spec1, spec2), m_max)
    assert reduced_equiv(group, spec1, spec2, slack, n_max, m_max).status == "not_found"
    statuses = [status for *_, found, _ in recorded for *_, status in found]
    order = _walk_order(group, keys, statuses, n_max, m_max, slack)
    proved = [(found, moved) for (*_, searched), (*_, found, moved) in zip(order, recorded)
              if not searched]
    assert len(proved) == 36
    assert all(found == [] and moved == 0 for found, moved in proved)


@settings(max_examples=80, deadline=None)
@given(case=comparisons(), capped=st.lists(st.booleans(), max_size=40))
@example(case=(standard_group("h1"), DigitizedRay((1, 2)), DigitizedRay((2, 1)), 3, 8, 0),
         capped=[False, True, True, False, False, False, True, True])
def test_searches_after_a_step_back_query_their_own_elements(case, capped):
    # an inconclusive search moves m without moving start[i], so the next n can begin below
    # the last m a check searched; each search still queries ray_m^-1 ray'_n of its own (n, m)
    group, spec1, spec2, n_max, m_max, slack = case
    keys = _query_keys(group, spec1, spec2, n_max, m_max)
    queried, statuses = [], []
    length = horoboundary.word_length

    def answered(group, g, budget, state_cap):
        k = len(queried)
        queried.append((g.key(), budget))
        res = length(group, g, budget, state_cap)
        if k < len(capped) and capped[k]:
            res = LengthResult("inconclusive", None, res.lower_bound, 0)
        statuses.append(res.status)
        return res

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(horoboundary, "word_length", answered)
        reduced_equiv(group, spec1, spec2, slack, n_max, m_max)
    searched = [(n, check, m) for n, check, m, searched
                in _walk_order(group, keys, statuses, n_max, m_max, slack) if searched]
    assert queried == [(keys[n, check, m], m - n + slack) for n, check, m in searched]


def _naive_checks_hold(group, spec1, spec2, n, m, slack):
    dist = naive_ball(group, m - n + slack)
    r1, r2 = (group.evaluate(spec.letters(m)) for spec in (spec1, spec2))
    s1, s2 = (group.evaluate(spec.letters(n)) for spec in (spec1, spec2))
    return all((a.inverse() * b).key() in dist for a, b in ((r1, s2), (r2, s1)))


@settings(max_examples=60, deadline=None)
@given(case=comparisons(), spare=st.integers(0, 30))
@example(case=(standard_group("h1"), DigitizedRay((1, 3)), DigitizedRay((3, 2)), 3, 4, 2), spare=6)
def test_capped_comparisons_are_sound(case, spare):
    # the cap is spare states above the 2(M + 1) ray elements; the example hits it at n = 2
    group, spec1, spec2, n_max, m_max, slack = case
    uncapped = reduced_equiv(group, spec1, spec2, slack, n_max, m_max)
    state_cap = 2 * (m_max + 1) + spare
    statuses = []
    real = horoboundary.word_length

    def recorded(*args, **kwargs):
        res = real(*args, **kwargs)
        statuses.append(res.status)
        return res

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(horoboundary, "word_length", recorded)
        res = reduced_equiv(group, spec1, spec2, slack, n_max, m_max, state_cap=state_cap)
    if res.status == "verified":
        assert all(_naive_checks_hold(group, spec1, spec2, n, m, slack) for n, m in res.witnesses)
    if "inconclusive" not in statuses:
        assert res == uncapped
    elif res.status != "verified":
        assert res.status == "inconclusive"


def test_comparisons_charge_the_ray_elements_to_the_state_cap(monkeypatch, z2):
    # 2(M + 1) ray elements over the cap raise before any ray is checked or built
    spec = PeriodicRay((), ("x",))
    assert same_busemann(z2, spec, spec, 1, 4, state_cap=10).status == "verified"
    monkeypatch.setattr(horoboundary, "validate_ray", None)
    monkeypatch.setattr(horoboundary, "ray_prefix", None)
    with pytest.raises(BudgetExceededError, match="more than the state cap of 10"):
        same_busemann(z2, spec, spec, 1, 100_000, state_cap=10)
    with pytest.raises(BudgetExceededError):
        reduced_equiv(z2, spec, spec, 1, 1, 5, state_cap=11)


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
    pts = _ray_elements(h1, spec, 3)
    for k in range(3 + 1):
        assert win.values[pts[k].key()] == -k
    assert win.lipschitz_violations(h1, elems) == []
