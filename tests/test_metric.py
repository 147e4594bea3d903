import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocalc.errors import BudgetExceededError, DegenerateInputError, GroupKindMismatchError
from horocalc.groups import (
    AbelianElement,
    CartanElement,
    HeisenbergElement,
    marked_cartan,
    marked_heisenberg,
    parse_word,
    standard_group,
)
from horocalc import metric
from horocalc.metric import (
    LengthResult,
    _step_fns,
    ball,
    distance,
    gauge_lower_bound,
    geodesic_certificate_by_face,
    is_geodesic_by_search,
    is_geodesic_word,
    word_length,
)
from horocalc.reference import naive_ball

from conftest import random_word

EXCEEDS = LengthResult("exceeds_budget", None, 0, 0)


def collect_elements(group, radius):
    elems = {group.identity.key(): group.identity}
    frontier = [group.identity]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for _, s in group.generator_items():
                h = g * s
                if h.key() not in elems:
                    elems[h.key()] = h
                    nxt.append(h)
        frontier = nxt
    return elems


def test_ball_z2_radius2(z2):
    assert len(ball(z2, 2)) == 13
    assert len(ball(z2, 0)) == 1


# One group per step function: specialised Z^2 and H_1, generic Z^d, H_k and Cartan.
KERNEL_GROUPS = {
    name: standard_group(name) for name in ("z1", "z2", "z3", "h1", "h1z", "h2", "cartan")
}
KERNEL_GROUPS["h1-custom"] = marked_heisenberg(1, {"p": [1, 1, 2], "q": [-1, 2, 0]})
KERNEL_GROUPS["h2-custom"] = marked_heisenberg(2, {"p": [1, 0, 2, -1, 3], "q": [0, 1, 1, 1, -2]})
KERNEL_GROUPS["cartan-custom"] = marked_cartan({"x": "x y", "y": "y"})
# z^2 central: some central values missing at an endpoint in layer L first appear later,
# so an interval in place of the exact set would give wrong lengths
KERNEL_GROUPS["h1-z2"] = marked_heisenberg(1, {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 2]})


def _element_from_coords(group, coords):
    if group.kind == "abelian":
        return AbelianElement(tuple(coords))
    if group.kind == "heisenberg":
        k = group.params
        return HeisenbergElement(tuple(coords[:k]), tuple(coords[k : 2 * k]), coords[2 * k])
    return CartanElement(*coords)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_GROUPS)), data=st.data())
def test_step_fns_match_element_products(name, data):
    group = KERNEL_GROUPS[name]
    word = data.draw(st.lists(st.sampled_from(group.labels), max_size=10))
    size = len(group.identity.key()) - 1
    coords = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size))
    steps = _step_fns(group)
    for g in (group.evaluate(word), _element_from_coords(group, coords)):
        for (_, s), step in zip(group.generator_items(), steps, strict=True):
            assert step(g.key()) == (g * s).key()


def test_ball_matches_naive():
    for name, r in (("z2", 7), ("z3", 4), ("h1", 7), ("h1z", 4), ("h2", 3), ("h2-custom", 3),
                    ("cartan", 5), ("cartan-custom", 4)):
        group = KERNEL_GROUPS[name]
        assert ball(group, r).entries == naive_ball(group, r), name


def test_word_length_rejects_foreign_elements(h1):
    foreign = (AbelianElement((1, 1)), AbelianElement((0, 0)), AbelianElement((40, 40)),
               standard_group("h2").evaluate(["x1"]), standard_group("h2").identity)
    for g in foreign:
        for budget in (0, 4):
            with pytest.raises(GroupKindMismatchError):
                word_length(h1, g, budget=budget)


def test_ball_contains_central_element(h1):
    z = h1.evaluate(parse_word("x y x~ y~"))
    table = ball(h1, 4)
    assert table.entries[z.key()] == 4


def test_ball_entry_has_closer_neighbor(h1):
    table = ball(h1, 5)
    elems = collect_elements(h1, 5)
    gens = [s for _, s in h1.generator_items()]
    for key, d in table.entries.items():
        if d == 0:
            continue
        g = elems[key]
        assert any(table.entries.get((g * s).key()) == d - 1 for s in gens)


def test_ball_budget_error(h1):
    with pytest.raises(BudgetExceededError):
        ball(h1, 6, state_cap=50)


@pytest.mark.parametrize("name", ["z2", "h1", "h2", "cartan"])
def test_ball_raises_iff_it_holds_more_than_the_state_cap(name):
    group = KERNEL_GROUPS[name]
    for r in range(5):
        size = len(naive_ball(group, r))
        assert len(ball(group, r, state_cap=size)) == size
        with pytest.raises(BudgetExceededError):
            ball(group, r, state_cap=size - 1)


def test_sphere_sizes_nondecreasing_balls(cartan):
    table = ball(cartan, 5)
    sizes = table.sphere_sizes()
    cumulative = [sum(sizes[: i + 1]) for i in range(len(sizes))]
    assert cumulative == sorted(cumulative)
    assert ball(cartan, 4).sphere_sizes() == sizes[:5]


def test_triangle_inequality_and_symmetry(h1, rng):
    table = ball(h1, 6)
    elems = list(collect_elements(h1, 3).values())
    for _ in range(300):
        g, h, k = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        d_gh = table.entries[(g.inverse() * h).key()]
        d_hg = table.entries[(h.inverse() * g).key()]
        assert d_gh == d_hg
        d_gk = table.entries[(g.inverse() * k).key()]
        d_kh = table.entries[(k.inverse() * h).key()]
        assert d_gh <= d_gk + d_kh


def test_word_length_examples(z2, h1, cartan):
    assert word_length(h1, h1.identity, 5).length == 0
    z = h1.evaluate(parse_word("x y x~ y~"))
    assert word_length(h1, z, 10).length == 4
    c = cartan.evaluate(parse_word("x y x~ y~"))
    assert word_length(cartan, c, 10).length == 4
    # gauge heuristic keeps a long abelian query cheap and exact
    res = word_length(z2, AbelianElement((30, 20)), budget=50)
    assert res.exact and res.length == 50 and res.expanded < 6000


def test_word_length_exceeds_budget_is_proved(h1):
    z = h1.evaluate(parse_word("x y x~ y~"))
    res = word_length(h1, z, budget=3)
    assert res.status == "exceeds_budget"
    res = word_length(h1, z, budget=0)
    assert res.status == "exceeds_budget"
    with pytest.raises(DegenerateInputError):
        word_length(h1, z, budget=-1)


def test_word_length_matches_naive_on_ball(h1, cartan, rng):
    for G, r in ((h1, 5), (cartan, 4)):
        ref = naive_ball(G, r)
        elems = list(collect_elements(G, r).items())
        for key, g in rng.sample(elems, 40):
            res = word_length(G, g, budget=r)
            assert res.exact and res.length == ref[key]


def test_word_length_inconclusive_on_tiny_cap(cartan):
    g = cartan.evaluate(parse_word("x y x~ y~ x y x~ y~"))
    res = word_length(cartan, g, budget=16, state_cap=10)
    assert res.status == "inconclusive"


def test_distance_wrapper(h1):
    g = h1.evaluate(parse_word("x"))
    h = h1.evaluate(parse_word("x y"))
    assert distance(h1, g, h, budget=4).length == 1


def test_gauge_lower_bound(h1, cartan):
    g = h1.evaluate(parse_word("x x y"))
    assert gauge_lower_bound(h1, g) == 3
    assert gauge_lower_bound(cartan, cartan.evaluate(parse_word("x y x~ y~"))) == 0


def test_a_degenerate_hull_gauges_every_element_by_zero():
    # x and z project to (1, 0) and (0, 0): a segment, not a full-dimensional hull
    group = marked_heisenberg(1, {"x": [1, 0, 0], "z": [0, 0, 1]})
    ref = naive_ball(group, 4)
    for key, g in collect_elements(group, 4).items():
        assert gauge_lower_bound(group, g) == 0
        res = word_length(group, g, budget=4)
        assert (res.status, res.length) == ("exact", ref[key])


def test_geodesic_search_at_the_word_length_never_exceeds_it(monkeypatch, h1):
    # the word itself has length len(word), so exceeds_budget would be a bug
    monkeypatch.setattr(metric, "word_length", lambda *args, **kwargs: EXCEEDS)
    with pytest.raises(AssertionError, match="hard bug"):
        is_geodesic_by_search(h1, parse_word("x x~"))


def test_is_geodesic_examples(h1, cartan):
    assert is_geodesic_word(h1, parse_word("x y x y"))
    assert not is_geodesic_word(h1, parse_word("x x~"))
    assert is_geodesic_word(h1, ())
    # no face certificate, so a search decides; a capped search fails closed
    with pytest.raises(BudgetExceededError):
        is_geodesic_word(cartan, parse_word("x y x~ y~ x y"), state_cap=3)


def test_cartan_commutator_word_geodesic_by_oracle(cartan, rng):
    # decided by the reference BFS, not asserted by hand: every prefix of
    # the word must be as short as its length for the word to be geodesic
    ref = naive_ball(cartan, 6)
    words = [parse_word("x y x~ y~")] + [random_word(cartan, rng, 6, 1) for _ in range(40)]
    for word in words:
        expected = all(
            ref[cartan.evaluate(word[:i]).key()] == i for i in range(1, len(word) + 1)
        )
        assert is_geodesic_word(cartan, word) == expected, word


def test_face_certificate(h1, cartan):
    cert = geodesic_certificate_by_face(h1, parse_word("x y x y x"))
    assert cert.certified and cert.face is not None
    assert not geodesic_certificate_by_face(h1, parse_word("x x~")).certified
    assert not geodesic_certificate_by_face(h1, parse_word("x y y~")).certified
    # digitized prefixes over the grid are certified
    from horocalc.horoboundary import DigitizedRay, ray_prefix

    word = ray_prefix(DigitizedRay((3, 2)), 12)
    assert geodesic_certificate_by_face(cartan, word).certified


def test_certified_words_are_geodesic(h1, rng):
    # cross-check: every certified random word passes the exhaustive test
    for _ in range(60):
        word = tuple(rng.choice(("x", "y")) for _ in range(rng.randint(1, 12)))
        assert geodesic_certificate_by_face(h1, word).certified
        assert is_geodesic_word(h1, word)


def _key_ball(group, radius):
    return ball(group, radius).entries


# Exact lengths for the central table: naive BFS at small radii, the key-based ball beyond.
TABLE_ORACLES = {
    "h1": ("h1", 8, naive_ball), "h1 r14": ("h1", 14, _key_ball),
    "h1z": ("h1z", 6, naive_ball), "h1z r10": ("h1z", 10, _key_ball),
    "h2": ("h2", 4, naive_ball), "h1-custom": ("h1-custom", 6, naive_ball),
    "h1-z2": ("h1-z2", 6, naive_ball), "h2-custom": ("h2-custom", 5, naive_ball),
}


@lru_cache(maxsize=None)
def _table_oracle(name):
    """(group, radius, key -> length for every element within radius)."""
    group_name, radius, build = TABLE_ORACLES[name]
    group = KERNEL_GROUPS[group_name]
    return group, radius, build(group, radius)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(TABLE_ORACLES)), data=st.data())
def test_table_lengths_match_exact_balls(name, data):
    group, radius, dist = _table_oracle(name)
    word = data.draw(st.lists(st.sampled_from(group.labels), max_size=radius + 2))
    g = group.evaluate(word)
    d = dist.get(g.key())  # None: longer than radius
    budgets = {data.draw(st.integers(0, radius))}
    if d is not None:
        budgets |= {b for b in (d - 1, d, d + 2) if b >= 0}
    for budget in sorted(budgets):
        res = word_length(group, g, budget)
        if d is not None and d <= budget:
            assert res == LengthResult("exact", d, gauge_lower_bound(group, g), 0)
        else:
            assert res.status == "exceeds_budget" and res.expanded == 0


def test_a_capped_table_query_does_not_depend_on_earlier_queries():
    # a marking no other test uses, so its table starts empty here
    group = marked_heisenberg(1, {"p": [1, 0, 3], "q": [0, 1, -2]})
    g = group.evaluate(parse_word("p q p~ q~ p q"))
    cold = [word_length(group, g, budget=8, state_cap=cap) for cap in (10, 200)]
    warm_up = word_length(group, g, budget=8)
    assert warm_up.exact and warm_up.expanded == 0
    assert [word_length(group, g, budget=8, state_cap=cap) for cap in (10, 200)] == cold
    assert cold[0].expanded > 0  # 10 elements do not reach the answer: the search ran


def test_the_table_charges_every_element_of_the_layers_it_scans(h1):
    # elements reached by words of length exactly L, summed over L = 0..4
    charge = sum(len({h1.evaluate(w) for w in itertools.product(h1.labels, repeat=n)})
                 for n in range(5))
    z = h1.evaluate(parse_word("x y x~ y~"))
    assert word_length(h1, z, 4, state_cap=charge) == LengthResult("exact", 4, 0, 0)
    searched = word_length(h1, z, 4, state_cap=charge - 1)
    assert searched.exact and searched.expanded > 0
