import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocalc.classifier import (
    anagram_set,
    central_increment_bound,
    offset_interval_probe,
    orbit_census,
    ray_invariants,
    same_orbit,
)
from horocalc.cli import main
from horocalc.errors import (
    BudgetExceededError,
    DegenerateInputError,
    GroupKindMismatchError,
    SpecNotGeodesicError,
    UnknownLabelError,
)
from horocalc.groups import commutator_z_exponent, marked_heisenberg, parse_word, standard_group
from horocalc.horoboundary import DigitizedRay, PeriodicRay
from horocalc.reference import brute_force_anagram_offsets, lattice_anagram_offsets

from conftest import random_word


def test_ray_invariants_examples(h1, z2):
    inv = ray_invariants(h1, DigitizedRay((1, 2)))
    assert inv.direction_letters == frozenset({"x", "y"})
    assert not inv.face_commutative
    inv = ray_invariants(h1, PeriodicRay((), ("x",)))
    assert inv.direction_letters == frozenset({"x"})
    assert inv.face_commutative
    assert inv.full_face_key is not None
    inv = ray_invariants(z2, PeriodicRay((), ("x", "y")))
    assert inv.face_commutative
    assert inv.face_key == inv.full_face_key


def test_ray_invariants_rejects_nongeodesic_letters(h1):
    with pytest.raises(SpecNotGeodesicError):
        ray_invariants(h1, PeriodicRay((), ("x", "x~")))


def test_ray_invariants_rejects_cartan(cartan):
    with pytest.raises(GroupKindMismatchError):
        ray_invariants(cartan, DigitizedRay((1, 1)))


def test_same_orbit_examples(h1, z2):
    ok, reason = same_orbit(h1, DigitizedRay((1, 2)), DigitizedRay((3, 1)))
    assert ok and "non-commutative" in reason
    ok, _ = same_orbit(h1, PeriodicRay((), ("x",)), PeriodicRay((), ("y",)))
    assert not ok
    ok, _ = same_orbit(z2, PeriodicRay((), ("x",)), PeriodicRay((), ("x", "y")))
    assert not ok
    ok, _ = same_orbit(z2, PeriodicRay((), ("x", "y")), PeriodicRay((), ("y", "x")))
    assert ok


def test_same_orbit_tells_commutative_faces_apart_by_the_full_hull():
    # x and w both project to (1, 0) but differ in the central coordinate
    G = marked_heisenberg(1, {"x": [1, 0, 0], "w": [1, 0, 1], "y": [0, 1, 0]})
    ok, reason = same_orbit(G, PeriodicRay((), ("x",)), PeriodicRay((), ("w",)))
    assert (ok, reason) == (False, "same commutative face but different full-hull faces")


def test_same_orbit_equivalence_relation(h1):
    family = [
        DigitizedRay((1, 2)),
        DigitizedRay((2, 1)),
        DigitizedRay((1, 1)),
        PeriodicRay((), ("x",)),
        PeriodicRay((), ("x", "x")),
        PeriodicRay((), ("y",)),
        DigitizedRay((-1, 2)),
    ]
    rel = {}
    for i, a in enumerate(family):
        for j, b in enumerate(family):
            rel[i, j] = same_orbit(h1, a, b)[0]
    n = len(family)
    for i in range(n):
        assert rel[i, i]
        for j in range(n):
            assert rel[i, j] == rel[j, i]
            for k in range(n):
                if rel[i, j] and rel[j, k]:
                    assert rel[i, k]


def test_census_counts(h1, z2, h1z):
    assert orbit_census(h1).count == 8
    assert orbit_census(z2).count == 8
    assert orbit_census(h1z).count == 8


def _census_key(inv):
    if inv.face_commutative:
        return ("comm", inv.face_key, inv.full_face_key)
    return ("noncomm", inv.face_key)


@pytest.mark.parametrize("name", ["z2", "h1", "h1z"])
def test_census_keys_match_ray_invariants(name):
    # every letter subset on a proper face, repeated as a periodic ray, keys
    # its orbit by ray_invariants exactly as the census keys that subset
    group = standard_group(name)
    rays = []
    for r in range(1, len(group.labels) + 1):
        for subset in itertools.combinations(group.labels, r):
            try:
                rays.append((PeriodicRay((), subset), ray_invariants(group, PeriodicRay((), subset))))
            except SpecNotGeodesicError:
                pass
    keys = [_census_key(inv) for _, inv in rays]
    assert set(keys) == set(orbit_census(group).orbit_keys)
    for (ray1, _), key1 in zip(rays, keys):
        for (ray2, _), key2 in zip(rays, keys):
            assert same_orbit(group, ray1, ray2)[0] == (key1 == key2)


def test_census_key_structure(h1):
    rep = orbit_census(h1)
    assert rep.mode == "2step"
    comm = [k for k in rep.orbit_keys if k[0] == "comm"]
    noncomm = [k for k in rep.orbit_keys if k[0] == "noncomm"]
    assert len(comm) == 4 and len(noncomm) == 4


def test_census_degenerate_commutator_mode():
    G = marked_heisenberg(1, {"x": [1, 0, 0], "w": [2, 0, 5]})
    rep = orbit_census(G)
    assert rep.mode == "abelian-like"
    assert rep.count >= 2


def test_census_needs_low_dimensional_full_hull():
    # H_2 has its generator hull in R^5, beyond the exact-hull cap
    with pytest.raises(DegenerateInputError):
        orbit_census(standard_group("h2"))


def test_census_refuses_huge_sets():
    gens = {f"g{i}": [1, i, 0] for i in range(11)}
    G = marked_heisenberg(1, gens)
    with pytest.raises(BudgetExceededError):
        orbit_census(G)


def test_anagram_xy(h1):
    res = anagram_set(h1, parse_word("x y"))
    assert res.offsets == frozenset({0, -1})
    assert brute_force_anagram_offsets(h1, ("x", "y")) == {0, -1}


def test_anagram_commuting_letters(h1):
    assert anagram_set(h1, ("x", "x", "x")).offsets == frozenset({0})
    assert anagram_set(h1, ()).offsets == frozenset({0})


def test_anagram_states_budget(h1):
    with pytest.raises(BudgetExceededError):
        anagram_set(h1, tuple("x y x y x y x y x y x y".split()), max_states=5)


def test_anagram_st_st_pattern_mixes_signs(h1):
    res = anagram_set(h1, parse_word("x y x y"))
    assert any(o > 0 for o in res.offsets)
    assert any(o < 0 for o in res.offsets)


def test_anagram_dp_equals_bruteforce(h1, rng):
    for _ in range(120):
        w = random_word(h1, rng, 8)
        dp = anagram_set(h1, w).offsets
        assert dp == brute_force_anagram_offsets(h1, w)


# custom markings: c != 0 letters in one H_1 block, and an H_2 marking whose
# blocks {p, q} and {r, s} commute with each other
ANAGRAM_GROUPS = {name: standard_group(name) for name in ("h1", "h1z", "h2")} | {
    "custom_h1": marked_heisenberg(1, {"x": [1, 0, 1], "y": [1, 1, 0], "w": [0, 2, -1]}),
    "custom_h2": marked_heisenberg(2, {"p": [1, 0, 0, 0, 1], "q": [0, 0, 1, 0, 0],
                                       "r": [0, 1, 0, 0, -1], "s": [0, 0, 0, 2, 0]}),
}


def _anagram_words(max_size):
    return st.sampled_from(sorted(ANAGRAM_GROUPS)).flatmap(lambda name: st.tuples(
        st.just(ANAGRAM_GROUPS[name]),
        st.lists(st.sampled_from(ANAGRAM_GROUPS[name].labels), max_size=max_size).map(tuple)))


def test_custom_h2_blocks_commute():
    G = ANAGRAM_GROUPS["custom_h2"]
    assert all(commutator_z_exponent(G, G.generator(s), G.generator(t)) == 0
               for s in ("p", "q", "p~", "q~") for t in ("r", "s", "r~", "s~"))


@settings(max_examples=80, deadline=None)
@given(case=_anagram_words(14))
def test_anagram_equals_the_one_lattice_dp(case):
    group, word = case
    assert anagram_set(group, word).offsets == lattice_anagram_offsets(group, word)


@settings(max_examples=80, deadline=None)
@given(case=_anagram_words(7))
def test_anagram_equals_bruteforce_on_every_marking(case):
    group, word = case
    assert anagram_set(group, word).offsets == brute_force_anagram_offsets(group, word)


def _cells_by_enumeration(group, block_words):
    """Distinct central values over every sub-multiset of each block word."""
    total = 0
    for word in block_words:
        letters = sorted(set(word))
        for counts in itertools.product(*(range(word.count(s) + 1) for s in letters)):
            sub = [s for s, n in zip(letters, counts) for _ in range(n)]
            total += len({group.evaluate(p).c for p in set(itertools.permutations(sub))})
    return total


def test_anagram_budget_counts_block_cells_exactly():
    G = standard_group("h2")
    word = parse_word("x1 y1 x2 x1 y2~ y1 x2")
    cells = _cells_by_enumeration(G, [("x1", "y1", "x1", "y1"), ("x2", "y2~", "x2")])
    expected = anagram_set(G, word).offsets
    assert anagram_set(G, word, max_states=cells).offsets == expected
    with pytest.raises(BudgetExceededError):
        anagram_set(G, word, max_states=cells - 1)


def test_anagram_refuses_too_many_states_before_any_work():
    word = tuple(itertools.islice(itertools.cycle(standard_group("h2").labels), 200))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            anagram_set(standard_group("h2"), word, max_states=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_anagram_answers_words_one_lattice_could_not():
    # one lattice over all eight letters holds over 500,000 cells here
    G = standard_group("h2")
    assert len(anagram_set(G, tuple(s for s in G.labels for _ in range(3))).offsets) == 37


def test_anagram_offsets_bound(h1, rng):
    delta = central_increment_bound(h1)
    assert delta == 1
    for _ in range(80):
        w = random_word(h1, rng, 8)
        res = anagram_set(h1, w)
        bound = delta * len(w) ** 2
        assert all(-bound <= o <= bound for o in res.offsets)
        assert 0 in res.offsets


def test_anagram_reversal_symmetry(h1, rng):
    # a witnessing reordering w' of w with offset a sees w among its own
    # reorderings with offset -a
    from itertools import permutations

    for _ in range(20):
        w = random_word(h1, rng, 6, min_len=2)
        base = h1.evaluate(w)
        unit = h1.commutator_unit
        for perm in set(permutations(w)):
            off = (h1.evaluate(perm).c - base.c) // unit
            back = anagram_set(h1, perm).offsets
            assert -off in back


def test_anagram_requires_heisenberg(z2, cartan):
    with pytest.raises(GroupKindMismatchError):
        anagram_set(z2, ("x", "y"))
    with pytest.raises(GroupKindMismatchError):
        anagram_set(cartan, ("x", "y"))
    degenerate = marked_heisenberg(1, {"x": [1, 0, 0], "w": [2, 0, 0]})
    with pytest.raises(DegenerateInputError):
        anagram_set(degenerate, ("x", "w"))


def test_interval_growth(h1):
    rep = offset_interval_probe(h1, ("x", "y"), 12)
    assert rep.subgroup_generator == 1
    assert rep.passed
    assert rep.attained_radius[-1] >= 2
    assert rep.attained_radius == sorted(rep.attained_radius)
    # the word has n letters, and no prefix is longer than the word
    for n in (0, 1):
        assert offset_interval_probe(h1, ("x", "y"), n).prefix_lengths == [n]
    with pytest.raises(DegenerateInputError):
        offset_interval_probe(h1, ("x", "y"), -1)


_CARTAN = standard_group("cartan")
_DEGENERATE_H1 = marked_heisenberg(1, {"x": [1, 0, 0], "w": [2, 0, 0]})


@pytest.mark.parametrize("call, error", [
    (lambda: anagram_set(standard_group("h1"), ("x", "q")), UnknownLabelError),
    (lambda: main(["anagram", "--group", "h1", "--word", "x q"]), "exit 2"),
    (lambda: central_increment_bound(standard_group("z2")), GroupKindMismatchError),
    (lambda: central_increment_bound(_CARTAN), GroupKindMismatchError),
    (lambda: central_increment_bound(_DEGENERATE_H1), DegenerateInputError),
    (lambda: offset_interval_probe(_CARTAN, ("x", "y"), 8), GroupKindMismatchError),
    (lambda: commutator_z_exponent(_CARTAN, _CARTAN.generator("x"), _CARTAN.generator("y")),
     GroupKindMismatchError),
], ids=["anagram_unknown_label", "cli_anagram_unknown_label", "bound_z2", "bound_cartan",
        "bound_degenerate", "probe_cartan", "exponent_cartan"])
def test_commutator_form_readers_raise_typed_errors(call, error, capsys):
    """Each reader of the commutator form keeps its typed error (or exit code)."""
    if error == "exit 2":
        assert call() == 2
        assert "unknown generator label 'q'" in capsys.readouterr().err
    else:
        with pytest.raises(error):
            call()


def test_interval_single_letter(h1):
    rep = offset_interval_probe(h1, ("x",), 12)
    assert rep.subgroup_generator == 0
    assert rep.attained_radius == [0]
    assert rep.passed
    assert offset_interval_probe(h1, ("x",), 0).prefix_lengths == [0]
    # no pair to read, yet the labels and the kind are still checked
    with pytest.raises(UnknownLabelError):
        offset_interval_probe(h1, ("q",), 12)
    with pytest.raises(GroupKindMismatchError):
        offset_interval_probe(_CARTAN, ("x",), 12)


def test_interval_even_subgroup():
    G = marked_heisenberg(1, {"x": [1, 0, 0], "y": [0, 1, 0], "w": [0, 2, 0]})
    assert G.commutator_unit == 1
    rep = offset_interval_probe(G, ("x", "w"), 12)
    assert rep.subgroup_generator == 2
    assert all(r % 2 == 0 for r in rep.attained_radius)
    offs = anagram_set(G, ("x", "w", "x", "w")).offsets
    assert all(o % 2 == 0 for o in offs)
