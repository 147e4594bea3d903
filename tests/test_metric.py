import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocalc.errors import BudgetExceededError, DegenerateInputError, GroupKindMismatchError
from horocalc.groups import (
    AbelianElement,
    marked_abelian,
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
    length_within,
    word_length,
)
from horocalc.reference import naive_ball

from conftest import random_word

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
KERNEL_GROUPS["z2-hex"] = marked_abelian(2, {"a": [1, 0], "b": [1, 1], "c": [0, 1]})
# z^2 central: some central values missing at an endpoint in layer L first appear later,
# so an interval in place of the exact set would give wrong lengths
KERNEL_GROUPS["h1-z2"] = marked_heisenberg(1, {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 2]})


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_GROUPS)), data=st.data())
def test_step_fns_match_element_products(name, data):
    group = KERNEL_GROUPS[name]
    word = data.draw(st.lists(st.sampled_from(group.labels), max_size=10))
    size = len(group.identity.key()) - 1
    coords = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size))
    steps = _step_fns(group)
    for g in (group.evaluate(word), group.element(group.identity.key()[:1] + tuple(coords))):
        assert group.element(g.key()) == g
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


# Largest radius at which each H_k ball is checked against the naive BFS.
TABLE_BALL_RADII = {"h1": 10, "h1z": 7, "h2": 4, "h1-custom": 7, "h1-z2": 8, "h2-custom": 4}


@lru_cache(maxsize=None)
def _naive_table_ball(name):
    return naive_ball(KERNEL_GROUPS[name], TABLE_BALL_RADII[name])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(TABLE_BALL_RADII)), data=st.data())
def test_table_balls_match_naive(name, data):
    radius = data.draw(st.integers(0, TABLE_BALL_RADII[name]))
    expected = {k: d for k, d in _naive_table_ball(name).items() if d <= radius}
    table = ball(KERNEL_GROUPS[name], radius)
    assert table.entries == expected
    assert table.sphere_sizes() == [list(expected.values()).count(d) for d in range(radius + 1)]


def test_ball_budget_error(h1):
    with pytest.raises(BudgetExceededError):
        ball(h1, 6, state_cap=50)


@pytest.mark.parametrize("name", ["z2", "h1", "h1z", "h2", "h2-custom", "cartan"])
def test_ball_raises_iff_it_holds_more_than_the_state_cap(name):
    group = KERNEL_GROUPS[name]
    for r in range(5):
        size = len(naive_ball(group, r))
        assert len(ball(group, r, state_cap=size)) == size
        with pytest.raises(BudgetExceededError):
            ball(group, r, state_cap=size - 1)


# Largest radius of the ball-store calls below on each marking, each checked against
# the naive ball.
STORE_RADII = {"z2": 9, "z2-hex": 8, "cartan": 7, "cartan-custom": 6,
               "h1": 10, "h1z": 7, "h2": 4, "h2-custom": 4}


@lru_cache(maxsize=None)
def _naive_store_ball(name):
    naive = naive_ball(KERNEL_GROUPS[name], STORE_RADII[name])
    counts = [sum(1 for d in naive.values() if d <= r) for r in range(STORE_RADII[name] + 1)]
    return naive, counts


def _cold_over_cap_message(counts, state_cap):
    level = next(r for r, count in enumerate(counts) if count > state_cap)
    return f"ball of radius {level} holds more than the state cap of {state_cap} elements"


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(STORE_RADII)), data=st.data())
def test_the_ball_store_gives_the_same_balls_in_any_order(name, data):
    group = KERNEL_GROUPS[name]
    naive, counts = _naive_store_ball(name)
    near = st.sampled_from(counts).flatmap(lambda count: st.sampled_from([count - 1, count]))
    calls = data.draw(st.lists(st.tuples(st.integers(0, STORE_RADII[name]),
                                         st.one_of(near, st.integers(0, counts[-1] + 1))),
                               min_size=1, max_size=6))
    metric._ball_store.cache_clear()  # every sequence starts from an empty store
    for radius, cap in calls:
        if counts[radius] > cap:
            with pytest.raises(BudgetExceededError) as err:
                ball(group, radius, state_cap=cap)
            assert str(err.value) == _cold_over_cap_message(counts, cap)
            continue
        expected = {k: d for k, d in naive.items() if d <= radius}
        table = ball(group, radius, state_cap=cap)
        assert table.entries == expected
        table.entries.clear()  # the caller's own copy: the store must not see this
        table.entries[group.identity.key()] = 5
    # every cap boundary holds on the warm store
    for radius in range(max(r for r, _ in calls) + 1):
        assert ball(group, radius, state_cap=counts[radius]).entries == {
            k: d for k, d in naive.items() if d <= radius}
        with pytest.raises(BudgetExceededError) as err:
            ball(group, radius, state_cap=counts[radius] - 1)
        assert str(err.value) == _cold_over_cap_message(counts, counts[radius] - 1)


@pytest.mark.parametrize("name", ["h1", "h1z", "h2", "h2-custom"])
def test_an_h_k_sphere_over_the_cap_is_counted_not_built(name):
    group = KERNEL_GROUPS[name]
    naive, counts = _naive_store_ball(name)
    metric._ball_store.cache_clear()
    store = metric._ball_store(group)
    for radius in range(1, STORE_RADII[name] + 1):
        with pytest.raises(BudgetExceededError) as err:
            ball(group, radius, state_cap=counts[radius] - 1)
        assert str(err.value) == _cold_over_cap_message(counts, counts[radius] - 1)
        assert store.counts == counts[:radius + 1]
        assert len(store.dist) == counts[radius - 1]
        assert ball(group, radius, state_cap=counts[radius]).entries == {
            k: d for k, d in naive.items() if d <= radius}
        assert len(store.dist) == counts[radius]


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
    # the word itself has length len(word), so a gauge bound above it would be a bug
    gauge_above = LengthResult("exceeds_budget", None, 3, 0)
    monkeypatch.setattr(metric, "word_length", lambda *args, **kwargs: gauge_above)
    with pytest.raises(AssertionError, match="hard bug"):
        is_geodesic_by_search(h1, parse_word("x x~"))


# Markings for the proved-bound query, each with the radius of the naive ball it is
# checked on; h1z (a central generator) and z2-hex ((1, 1) beside x and y) have odd
# relators, so no parity covector.
WITHIN_RADII = {"z2": 6, "z3": 4, "h1": 6, "h1z": 5, "h2": 3, "cartan": 6, "h1-custom": 5,
                "z2-hex": 5}
ODD_RELATORS = {"h1z", "z2-hex"}


@lru_cache(maxsize=None)
def _within_oracle(name):
    return sorted(naive_ball(KERNEL_GROUPS[name], WITHIN_RADII[name]).items())


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(WITHIN_RADII)), data=st.data())
def test_length_within_matches_a_search_at_the_bound(name, data):
    group = KERNEL_GROUPS[name]
    key, d = data.draw(st.sampled_from(_within_oracle(name)))
    g = group.element(key)
    for upper in range(d, d + 4):
        ours, theirs = length_within(group, g, upper), word_length(group, g, upper)
        assert (ours.status, ours.length) == (theirs.status, theirs.length) == ("exact", d)
        assert ours.lower_bound == theirs.lower_bound


@pytest.mark.parametrize("name", sorted(WITHIN_RADII))
def test_the_parity_covector_gives_every_length_parity(name):
    group = KERNEL_GROUPS[name]
    f = metric._parity_covector(group)
    dist = dict(_within_oracle(name))
    gens = [s for _, s in group.generator_items()]
    # an edge inside a sphere closes an odd cycle, so an odd relator
    odd_cycle = any(dist.get((group.element(key) * s).key()) == d
                    for key, d in dist.items() for s in gens)
    assert (f is None) == odd_cycle == (name in ODD_RELATORS)
    if f is not None:
        for key, d in dist.items():
            ab = group.element(key).abelianized()
            assert d % 2 == sum(a * b for a, b in zip(f, ab)) % 2


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


# Exact lengths for the central table, by the naive BFS, which shares no code with it.
TABLE_ORACLES = {
    "h1": ("h1", 8), "h1 r14": ("h1", 14), "h1z": ("h1z", 6), "h1z r10": ("h1z", 10),
    "h2": ("h2", 4), "h1-custom": ("h1-custom", 6), "h1-z2": ("h1-z2", 6),
    "h2-custom": ("h2-custom", 5),
}


@lru_cache(maxsize=None)
def _table_oracle(name):
    """(group, radius, key -> length for every element within radius)."""
    group_name, radius = TABLE_ORACLES[name]
    group = KERNEL_GROUPS[group_name]
    return group, radius, naive_ball(group, radius)


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


# Markings no other test uses, so their tables and stores start empty in the test below;
# a twin differs only in its labels.
CAPPED_MARKINGS = {
    "heisenberg": lambda p, q: marked_heisenberg(1, {p: [1, 0, 3], q: [0, 1, -2]}),
    "cartan": lambda p, q: marked_cartan({p: "x y y", q: "y~"}),
}


def _check_capped_queries_do_not_depend_on_earlier_queries(kind):
    group, twin = CAPPED_MARKINGS[kind]("p", "q"), CAPPED_MARKINGS[kind]("s", "t")
    caps = (10, 200, 5000, 20_000)

    def capped(group, word):
        g = group.evaluate(parse_word(word))
        return [word_length(group, g, budget=8, state_cap=cap) for cap in caps]

    cold = capped(group, "p q p~ q~ p q")
    warm_up = word_length(group, group.evaluate(parse_word("p q p~ q~ p q")), budget=8)
    assert warm_up.exact and warm_up.expanded == 0
    assert capped(group, "p q p~ q~ p q") == cold
    assert cold[0].expanded > 0  # 10 elements do not reach the answer: the search ran
    # a ball grows the twin's table or store past every level the queries use
    ball(twin, 10)
    if kind == "heisenberg":
        assert len(metric._central_table(twin).layers) == 11
    else:
        assert len(metric._ball_store(twin).counts) == 11
    assert capped(twin, "s t s~ t~ s t") == cold


def test_a_capped_table_query_does_not_depend_on_earlier_queries():
    for kind in CAPPED_MARKINGS:
        _check_capped_queries_do_not_depend_on_earlier_queries(kind)


def test_the_table_charges_every_element_of_the_layers_it_scans(h1):
    # elements reached by words of length exactly L, summed over L = 0..4
    charge = sum(len({h1.evaluate(w) for w in itertools.product(h1.labels, repeat=n)})
                 for n in range(5))
    z = h1.evaluate(parse_word("x y x~ y~"))
    assert word_length(h1, z, 4, state_cap=charge) == LengthResult("exact", 4, 0, 0)
    searched = word_length(h1, z, 4, state_cap=charge - 1)
    assert searched.exact and searched.expanded > 0


def test_the_table_never_builds_a_layer_its_floor_puts_over_the_cap():
    # a marking no other test uses, so its table starts empty here
    group = marked_heisenberg(1, {"p": [1, 0, 1], "q": [0, 1, 2]})
    probe = metric._CentralTable(group)
    for _ in range(6):
        probe._grow()
    # layer 6 holds every element of layer 4 (append s s~): this cap rules it out unbuilt
    cap = probe.charges[5] + probe.sizes[4] - 1
    assert probe.charges[5] <= cap < probe.charges[6]
    g = group.evaluate(parse_word("p p p q q q"))
    lower = gauge_lower_bound(group, g)
    res = word_length(group, g, budget=6, state_cap=cap)
    assert len(metric._central_table(group).layers) == 6  # layers 0..5 only
    # the answer a table that built layer 6 and found it over the cap gives: the search's
    assert res == metric._bidirectional_search(group, g.key(), lower, 6, cap)
    assert (res.status, res.length) == ("exact", 6) and res.expanded > 0
    # a cap that holds layer 6 still gets the table's answer
    res = word_length(group, g, budget=6, state_cap=probe.charges[6])
    assert res == LengthResult("exact", 6, lower, 0)
    assert len(metric._central_table(group).layers) == 7


# Exact lengths for the plain search on every marking, H_k included: the tiers answer
# H_k and Cartan queries before it, so word_length alone leaves it untested there.
SEARCH_ORACLE_RADII = {"z1": 8, "z2": 6, "z3": 4, "h1": 7, "h1z": 5, "h2": 3, "cartan": 6,
                       "h1-custom": 5, "h2-custom": 3, "cartan-custom": 5, "z2-hex": 5,
                       "h1-z2": 5}


@lru_cache(maxsize=None)
def _search_oracle(name):
    """Every element but the identity, which word_length answers before any search."""
    return sorted((key, d) for key, d in
                  naive_ball(KERNEL_GROUPS[name], SEARCH_ORACLE_RADII[name]).items() if d)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_GROUPS)), data=st.data())
def test_the_plain_search_matches_naive_lengths(name, data):
    group = KERNEL_GROUPS[name]
    key, d = data.draw(st.sampled_from(_search_oracle(name)))
    lower = gauge_lower_bound(group, group.element(key))
    for budget in (d - 1, d, d + 2):
        res = metric._bidirectional_search(group, key, lower, budget, metric.DEFAULT_STATE_CAP)
        expected = ("exact", d) if d <= budget else ("exceeds_budget", None)
        assert (res.status, res.length, res.lower_bound) == (*expected, lower), budget


@pytest.mark.parametrize("name", ["z2", "cartan"])
def test_steps_left_bound_is_the_gauge_toward_its_target(name):
    group = KERNEL_GROUPS[name]
    assert metric._steps_left_bound(group)((0, 1)) == 1  # toward the identity
    assert metric._steps_left_bound(group, target=(3, 1))((0, 1)) == 3
    assert metric._steps_left_bound(group, floor=5)((0, 1)) == 5
    assert metric._steps_left_bound(group, target=(3, 1), floor=2)((-4, 0)) == 8


# Exact Cartan lengths up to these radii, past the identity ball's radius 7, so that
# both the ball lookup and the backward search answer.
CARTAN_ORACLES = {"cartan": 9, "cartan-custom": 8}


@lru_cache(maxsize=None)
def _cartan_oracle(name):
    group = KERNEL_GROUPS[name]
    return group, CARTAN_ORACLES[name], naive_ball(group, CARTAN_ORACLES[name])


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CARTAN_ORACLES)), data=st.data())
def test_cartan_lengths_match_exact_balls(name, data):
    group, radius, dist = _cartan_oracle(name)
    word = data.draw(st.lists(st.sampled_from(group.labels), max_size=radius + 3))
    g = group.evaluate(word)
    d = dist.get(g.key())  # None: longer than radius
    budgets = {data.draw(st.integers(0, radius))}
    if d is not None:
        budgets |= {b for b in (d - 1, d, d + 2) if b >= 0}
    ball_radius = metric._identity_ball(group).radius
    for budget in sorted(budgets):
        res = word_length(group, g, budget)
        assert res.status != "inconclusive"
        if d is not None and d <= budget:
            assert (res.status, res.length) == ("exact", d)
        else:
            assert res.status == "exceeds_budget"
        if d is not None and d <= ball_radius:
            assert res.expanded == 0  # a lookup


def _reduced_word(group, rng, length):
    word = []
    while len(word) < length:
        letter = rng.choice(group.labels)
        if not word or group.inverse_of_label(letter) != word[-1]:
            word.append(letter)
    return word


@pytest.mark.parametrize("name", ["cartan", "cartan-custom"])
def test_cartan_ball_search_agrees_with_the_bidirectional_search(name, rng):
    group = KERNEL_GROUPS[name]
    for _ in range(30):
        word = _reduced_word(group, rng, rng.randint(8, 18))
        g = group.evaluate(word)
        lower = gauge_lower_bound(group, g)
        full = word_length(group, g, len(word))
        assert full.exact
        for budget in sorted({len(word), full.length, full.length - 1, lower}):
            if budget < lower:
                continue
            ours = word_length(group, g, budget)
            theirs = metric._bidirectional_search(group, g.key(), lower, budget,
                                                  metric.DEFAULT_STATE_CAP)
            assert (ours.status, ours.length) == (theirs.status, theirs.length), (word, budget)


def test_a_small_identity_ball_search_matches_naive_lengths(cartan):
    # radius 3: targets up to radius 6 are met up to three levels beyond the ball
    small = metric._IdentityBall(cartan, 60)
    assert small.radius == 3
    for key, d in naive_ball(cartan, 6).items():
        if d <= small.radius:
            continue
        lower = gauge_lower_bound(cartan, cartan.element(key))
        for budget in (d - 1, d, d + 2):
            if budget < lower:
                continue
            res = metric._bidirectional_search(cartan, key, lower, budget,
                                               metric.DEFAULT_STATE_CAP, small)
            expected = ("exact", d) if d <= budget else ("exceeds_budget", None)
            assert (res.status, res.length) == expected, (key, budget)


def test_the_cartan_ball_charges_its_entries_and_the_states_held():
    for grown in (False, True):
        _check_the_cartan_ball_charges(grown)


def _check_the_cartan_ball_charges(grown):
    # markings no other test uses, so the identity ball is built by the first query below;
    # the twin, which differs only in its labels, has its ball store grown past it first
    p, q = ("s", "t") if grown else ("p", "q")
    group = marked_cartan({p: "x y~", q: "y"})
    if grown:
        ball(group, 10)
    g = group.evaluate(parse_word(f"{p} {q} {q} {p}~ {q}~ {q}~ {p} {q} {p}~ {q}~"))  # length 10
    lower = gauge_lower_bound(group, g)
    size = len(naive_ball(group, 7))
    held = 17  # backward states held after the last level before the one that meets the ball
    caps = (size - 1, size, size + held - 1, size + held, metric.DEFAULT_STATE_CAP)
    cold = [word_length(group, g, 12, state_cap=cap) for cap in caps]
    oracle = metric._identity_ball(group)
    assert (oracle.radius, len(oracle.dist), size) == (7, size, 4205)
    assert len(metric._ball_store(group).counts) == (11 if grown else 9)
    warm = [word_length(group, g, 12, state_cap=cap) for cap in caps]
    assert cold == warm
    for cap, res in zip(caps, cold):
        searched = metric._bidirectional_search(group, g.key(), lower, 12, cap)
        if cap < size + held:
            assert res == searched
        else:
            assert (res.status, res.length) == ("exact", 10) == (searched.status, searched.length)
            assert 0 < res.expanded < searched.expanded
    # a target inside the ball: the ball's entries alone are the charge
    inside = group.evaluate(parse_word(f"{p} {q} {p}~ {q}~"))
    assert word_length(group, inside, 4, state_cap=size) == LengthResult("exact", 4, 0, 0)
    assert word_length(group, inside, 4, state_cap=size - 1).expanded > 0
