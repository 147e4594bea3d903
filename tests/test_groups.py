from fractions import Fraction

import pytest

from horocalc.errors import GroupKindMismatchError, ParseError, UnknownLabelError
from horocalc.groups import (
    AbelianElement,
    HeisenbergElement,
    abelianize,
    cartan_word_element,
    commutator_z_exponent,
    group_from_json,
    marked_abelian,
    marked_heisenberg,
    parse_word,
    standard_group,
)
from horocalc.winding import cartan_path_oracle

from conftest import random_word


def test_cartan_xy_spot_value(cartan):
    g = cartan.evaluate(parse_word("x y"))
    assert g.endpoint == (1, 1)
    assert g.area == Fraction(1, 2)
    assert g.barycenter == (Fraction(1, 3), Fraction(1, 6))


def test_cartan_commutator_unit_square(cartan):
    g = cartan.evaluate(parse_word("x y x~ y~"))
    assert g.endpoint == (0, 0)
    assert g.area == 1
    assert g.barycenter == (Fraction(1, 2), Fraction(1, 2))
    assert cartan_path_oracle(parse_word("x y x~ y~")) == (
        (0, 0), Fraction(1), (Fraction(1, 2), Fraction(1, 2))
    )


def test_cartan_double_commutator(cartan):
    # [x,y][x^-1,y^-1]: winding +1 on both unit squares
    w = parse_word("x y x~ y~ x~ y~ x y")
    g = cartan.evaluate(w)
    assert (g.endpoint, g.area, g.barycenter) == ((0, 0), 2, (0, 0))
    assert cartan_path_oracle(w) == ((0, 0), 2, (0, 0))


def test_empty_word_is_identity(z2, h1, cartan):
    for G in (z2, h1, cartan):
        assert G.evaluate(()).is_identity()


def test_cartan_inverse_axiom(cartan, rng):
    for _ in range(1000):
        g = cartan.evaluate(random_word(cartan, rng, 10))
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_associativity_random(z2, h1, cartan, rng):
    for G in (z2, h1, cartan):
        for _ in range(2000):
            g = G.evaluate(random_word(G, rng, 8))
            h = G.evaluate(random_word(G, rng, 8))
            k = G.evaluate(random_word(G, rng, 8))
            assert (g * h) * k == g * (h * k)


def test_heisenberg_product_and_commutator(h1):
    x = h1.generator("x")
    y = h1.generator("y")
    assert x * y == HeisenbergElement((1,), (1,), 1)
    comm = x * y * x.inverse() * y.inverse()
    assert comm == HeisenbergElement((0,), (0,), 1)


def test_cartan_oracle_on_random_words(cartan, rng):
    for _ in range(300):
        w = random_word(cartan, rng, 12)
        g = cartan.evaluate(w)
        end, area, bary = cartan_path_oracle(w)
        assert g.endpoint == end
        assert g.area == area
        assert g.barycenter == bary


def test_cartan_integrality(cartan, rng):
    for _ in range(300):
        g = cartan.evaluate(random_word(cartan, rng, 12))
        assert (2 * g.area).denominator == 1
        assert (6 * g.barycenter[0]).denominator == 1
        assert (6 * g.barycenter[1]).denominator == 1


def test_degenerate_oracle_cases():
    assert cartan_path_oracle(("x",)) == ((1, 0), 0, (0, 0))
    assert cartan_path_oracle(()) == ((0, 0), 0, (0, 0))


def test_abelianize(h1, cartan, rng):
    assert abelianize(h1, HeisenbergElement((3,), (1,), 7)) == (3, 1)
    assert abelianize(cartan, cartan_word_element(parse_word("x y x~ y~"))) == (0, 0)
    for G in (h1, cartan):
        for _ in range(500):
            g = G.evaluate(random_word(G, rng, 8))
            h = G.evaluate(random_word(G, rng, 8))
            gh = abelianize(G, g * h)
            assert gh == tuple(a + b for a, b in zip(abelianize(G, g), abelianize(G, h)))


def test_commutator_z_exponent(h1, cartan):
    x = h1.generator("x")
    y = h1.generator("y")
    assert commutator_z_exponent(h1, x, y) == 1
    assert commutator_z_exponent(h1, y, x) == -1
    assert commutator_z_exponent(h1, x, x) == 0
    z = HeisenbergElement((0,), (0,), 1)
    assert commutator_z_exponent(h1, x, z) == 0
    with pytest.raises(GroupKindMismatchError):
        commutator_z_exponent(cartan, cartan.generator("x"), cartan.generator("y"))


def test_commutator_exponent_biadditive(h1, rng):
    for _ in range(200):
        g = h1.evaluate(random_word(h1, rng, 6))
        h = h1.evaluate(random_word(h1, rng, 6))
        k = h1.evaluate(random_word(h1, rng, 6))
        assert commutator_z_exponent(h1, g * h, k) == commutator_z_exponent(
            h1, g, k
        ) + commutator_z_exponent(h1, h, k)
        assert commutator_z_exponent(h1, g, h) == -commutator_z_exponent(h1, h, g)


def test_kind_mismatch(z2, h1):
    with pytest.raises(GroupKindMismatchError):
        z2.generator("x") * h1.generator("x")
    with pytest.raises(GroupKindMismatchError):
        AbelianElement((1, 0)) * AbelianElement((1, 0, 0))


def test_unknown_label(h1):
    with pytest.raises(UnknownLabelError):
        h1.evaluate(("x", "q"))


def test_inverse_pairing_involution(h1z):
    for label in h1z.labels:
        assert h1z.inverse_of[h1z.inverse_of[label]] == label
        prod = h1z.generator(label) * h1z.generator(h1z.inverse_of[label])
        assert prod.is_identity()


def test_cyclic_commutator_flags():
    assert standard_group("h1").has_cyclic_commutator
    degenerate = marked_heisenberg(1, {"x": [1, 0, 0], "z": [0, 0, 1]})
    assert not degenerate.has_cyclic_commutator


def test_group_from_json_roundtrip(h1):
    doc = {
        "kind": "heisenberg",
        "k": 1,
        "generators": [
            {"label": "x", "word": None, "coords": [1, 0, 0]},
            {"label": "y", "word": None, "coords": [0, 1, 0]},
        ],
    }
    G = group_from_json(doc)
    assert G == h1
    assert G.group_hash == h1.group_hash
    doc2 = {"kind": "cartan", "generators": [{"label": "x", "word": "x"},
                                             {"label": "y", "word": "y"}]}
    assert group_from_json(doc2) == standard_group("cartan")


def test_groups_compare_and_hash_by_their_description():
    for name in ("z2", "h1", "cartan"):
        a, b = standard_group(name), standard_group(name)
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    same = marked_heisenberg(1, {"p": [1, 0, 0], "q": [0, 1, 0]})
    assert same == marked_heisenberg(1, {"p": [1, 0, 0], "q": [0, 1, 0]})
    # the same generators under other labels, or the same labels on other generators
    assert same != marked_heisenberg(1, {"s": [1, 0, 0], "t": [0, 1, 0]})
    assert same != marked_heisenberg(1, {"p": [0, 1, 0], "q": [1, 0, 0]})
    assert same != standard_group("h1") and standard_group("h1") != "h1"


def test_group_from_json_errors():
    with pytest.raises(ParseError):
        group_from_json({"kind": "nope", "generators": [{"label": "x", "coords": [1]}]})
    with pytest.raises(ParseError):
        group_from_json({"kind": "abelian", "d": 2, "generators": []})
    with pytest.raises(ParseError):
        group_from_json({"kind": "abelian", "d": 2,
                         "generators": [{"label": "x", "coords": [1]}]})
    y = {"label": "y", "coords": [0, 1]}
    for bad in ({"kind": "abelian", "d": 2, "generators": [{"label": 5, "coords": [1, 0]}, y]},
                {"kind": "abelian", "d": 2, "generators": [{"label": "x", "coords": [1.5, 0]}, y]},
                {"kind": "abelian", "d": 2, "generators": [{"label": "x", "coords": [True, 0]}, y]},
                {"kind": "abelian", "d": 2, "generators": [{"label": "y", "coords": [1, 0]}, y]},
                {"kind": "abelian", "d": "2", "generators": [y]},
                {"kind": "abelian", "d": 2.0, "generators": [y]},
                {"kind": "heisenberg", "k": 1.0, "generators": [{"label": "x", "coords": [1, 0, 0]}]},
                {"kind": "abelian", "d": 1, "generators": [{"label": "x y", "coords": [1]}]},
                {"kind": "cartan", "generators": [{"label": "x", "word": {"x": 1}}]}):
        with pytest.raises(ParseError):
            group_from_json(bad)


@pytest.mark.parametrize("build", [
    lambda: marked_abelian(2, {"x": [1.5, 0], "y": [0, 1]}),
    lambda: marked_abelian(2, {"x": [1, 0], "y": [0, True]}),
    lambda: marked_abelian(2.0, {"x": [1, 0]}),
    lambda: marked_heisenberg(1, {"x": [1, 0, 0.5]}),
    lambda: marked_heisenberg(True, {"x": [1, 0, 0]}),
])
def test_python_constructors_take_integers_only(build):
    # the same check as the group JSON loader, not a silent int() coercion
    with pytest.raises(ParseError, match="must be an integer"):
        build()
