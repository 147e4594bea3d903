"""Exact arithmetic for the supported groups and words over labeled generators.

Three group kinds are supported, all with exact integer coordinates:

* ``abelian`` -- Z^d, elements are integer vectors.
* ``heisenberg`` -- H_k(Z), elements (a, b, c) with a, b in Z^k, c in Z and
  product (a,b,c)(a',b',c') = (a+a', b+b', c+c' + a.b').
* ``cartan`` -- the free 3-step nilpotent group of rank 2, modeled by lattice
  paths up to endpoint, signed area and (non-normalized) barycenter.

Cartan area and barycenter are rationals with denominators dividing 2 and 6;
they are stored as the scaled integers 2*A and 6*B, so every group operation
is pure integer arithmetic and hashing needs no rational normalization.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DegenerateInputError, GroupKindMismatchError, ParseError, UnknownLabelError

Word = tuple[str, ...]

INVERSE_SUFFIX = "~"


def inverse_label(label: str) -> str:
    if label.endswith(INVERSE_SUFFIX):
        return label[: -len(INVERSE_SUFFIX)]
    return label + INVERSE_SUFFIX


def parse_word(text: str) -> Word:
    """Parse a whitespace-separated word like ``"x y x~"``."""
    return tuple(text.split())


def _check_same_kind(g, h):
    if type(g) is not type(h):
        raise GroupKindMismatchError(
            f"cannot combine {type(g).__name__} with {type(h).__name__}"
        )


@dataclass(frozen=True)
class AbelianElement:
    vec: tuple[int, ...]

    kind = "abelian"

    def __mul__(self, other: "AbelianElement") -> "AbelianElement":
        _check_same_kind(self, other)
        if len(self.vec) != len(other.vec):
            raise GroupKindMismatchError("abelian ranks differ")
        return AbelianElement(tuple(a + b for a, b in zip(self.vec, other.vec)))

    def inverse(self) -> "AbelianElement":
        return AbelianElement(tuple(-a for a in self.vec))

    def abelianized(self) -> tuple[int, ...]:
        return self.vec

    def key(self) -> tuple:
        return ("a",) + self.vec

    def is_identity(self) -> bool:
        return all(a == 0 for a in self.vec)


@dataclass(frozen=True)
class HeisenbergElement:
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: int

    kind = "heisenberg"

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        _check_same_kind(self, other)
        if len(self.a) != len(other.a):
            raise GroupKindMismatchError("heisenberg ranks differ")
        return HeisenbergElement(
            tuple(x + y for x, y in zip(self.a, other.a)),
            tuple(x + y for x, y in zip(self.b, other.b)),
            self.c + other.c + sum(x * y for x, y in zip(self.a, other.b)),
        )

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(
            tuple(-x for x in self.a),
            tuple(-x for x in self.b),
            -self.c + sum(x * y for x, y in zip(self.a, self.b)),
        )

    def abelianized(self) -> tuple[int, ...]:
        return self.a + self.b

    def key(self) -> tuple:
        return ("h",) + self.a + self.b + (self.c,)

    def is_identity(self) -> bool:
        return self.c == 0 and not any(self.a) and not any(self.b)


@dataclass(frozen=True)
class CartanElement:
    """Lattice-path class: endpoint (x, y), doubled area, six-fold barycenter."""

    x: int
    y: int
    area2: int
    bar6x: int
    bar6y: int

    kind = "cartan"

    def __mul__(self, other: "CartanElement") -> "CartanElement":
        _check_same_kind(self, other)
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        det = x1 * y2 - y1 * x2
        return CartanElement(
            x1 + x2,
            y1 + y2,
            self.area2 + other.area2 + det,
            self.bar6x + other.bar6x + 3 * x1 * other.area2 + (2 * x1 + x2) * det,
            self.bar6y + other.bar6y + 3 * y1 * other.area2 + (2 * y1 + y2) * det,
        )

    def inverse(self) -> "CartanElement":
        # Reversing the path negates endpoint and area; the barycenter of the
        # reversed path is endpoint*area - barycenter.
        return CartanElement(
            -self.x,
            -self.y,
            -self.area2,
            3 * self.x * self.area2 - self.bar6x,
            3 * self.y * self.area2 - self.bar6y,
        )

    @property
    def endpoint(self) -> tuple[int, int]:
        return (self.x, self.y)

    @property
    def area(self) -> Fraction:
        return Fraction(self.area2, 2)

    @property
    def barycenter(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.bar6x, 6), Fraction(self.bar6y, 6))

    def abelianized(self) -> tuple[int, ...]:
        return (self.x, self.y)

    def key(self) -> tuple:
        return ("c", self.x, self.y, self.area2, self.bar6x, self.bar6y)

    def is_identity(self) -> bool:
        return self == CARTAN_IDENTITY


GroupElement = AbelianElement | HeisenbergElement | CartanElement

CARTAN_IDENTITY = CartanElement(0, 0, 0, 0, 0)
CARTAN_X = CartanElement(1, 0, 0, 0, 0)
CARTAN_Y = CartanElement(0, 1, 0, 0, 0)


def full_coordinates(g: GroupElement) -> tuple[int, ...]:
    """All integer coordinates of g: its canonical key without the kind tag."""
    return g.key()[1:]


def abelianize(group: "MarkedGroup", g: GroupElement) -> tuple[int, ...]:
    """Image of g in the abelianization (a homomorphism to Z^d)."""
    if g.kind != group.kind:
        raise GroupKindMismatchError("element does not belong to this group")
    return g.abelianized()


class MarkedGroup:
    """A group kind plus a labeled symmetric generating set.

    Labels come in inverse pairs ``s`` / ``s~``; the constructor checks that
    paired generators really are mutually inverse. Instances are immutable
    and hashable; equality is by canonical description, compared by its
    cached digest ``group_hash``.
    """

    def __init__(self, kind: str, params: int | None, generators: dict[str, GroupElement]):
        if kind not in ("abelian", "heisenberg", "cartan"):
            raise ParseError(f"unknown group kind {kind!r}")
        self.kind = kind
        self.params = params
        self.labels: tuple[str, ...] = tuple(sorted(generators))
        self._gen: dict[str, GroupElement] = dict(generators)
        self.inverse_of: dict[str, str] = {}
        for label in self.labels:
            other = inverse_label(label)
            if other not in self._gen:
                raise ParseError(f"generating set not symmetric: {other!r} missing")
            self.inverse_of[label] = other
        for label in self.labels:
            prod = self._gen[label] * self._gen[self.inverse_of[label]]
            if not prod.is_identity():
                raise ParseError(f"labels {label!r} and {self.inverse_of[label]!r} are not inverse")
            if self._gen[label].kind != kind:
                raise GroupKindMismatchError(f"generator {label!r} has wrong kind")
        self._commutator_unit = self._compute_commutator_unit()

    # -- basics --------------------------------------------------------

    @cached_property
    def identity(self) -> GroupElement:
        if self.kind == "abelian":
            return AbelianElement((0,) * self.params)
        if self.kind == "heisenberg":
            return HeisenbergElement((0,) * self.params, (0,) * self.params, 0)
        return CARTAN_IDENTITY

    def element(self, key: tuple) -> GroupElement:
        """The element whose canonical key is ``key``: the inverse of ``GroupElement.key()``."""
        if self.kind == "abelian":
            return AbelianElement(key[1:])
        if self.kind == "heisenberg":
            k = self.params
            return HeisenbergElement(key[1:1 + k], key[1 + k:1 + 2 * k], key[-1])
        return CartanElement(*key[1:])

    def generator(self, label: str) -> GroupElement:
        try:
            return self._gen[label]
        except KeyError:
            raise UnknownLabelError(f"unknown generator label {label!r}") from None

    def generator_items(self) -> list[tuple[str, GroupElement]]:
        return [(label, self._gen[label]) for label in self.labels]

    def evaluate(self, word: Iterable[str]) -> GroupElement:
        """Left-to-right product of the word's generators; empty word -> identity."""
        g = self.identity
        for label in word:
            g = g * self.generator(label)
        return g

    def invert_word(self, word: Sequence[str]) -> Word:
        return tuple(self.inverse_of_label(label) for label in reversed(word))

    def inverse_of_label(self, label: str) -> str:
        try:
            return self.inverse_of[label]
        except KeyError:
            raise UnknownLabelError(f"unknown generator label {label!r}") from None

    @property
    def abelian_rank(self) -> int:
        if self.kind == "abelian":
            return self.params
        if self.kind == "heisenberg":
            return 2 * self.params
        return 2

    # -- Heisenberg commutator structure -------------------------------

    def _compute_commutator_unit(self) -> int | None:
        """gcd of the central exponents of all generator commutators.

        For a Heisenberg marked group the commutators [s, t] span the
        subgroup (0, 0, unit*Z) of the center; ``None`` means every pair of
        generators commutes (the subgroup is trivial, not infinite cyclic).
        """
        if self.kind != "heisenberg":
            return None
        import math

        unit = 0
        gens = [g for _, g in self.generator_items()]
        for i, g in enumerate(gens):
            for h in gens[i + 1 :]:
                unit = math.gcd(unit, abs(_symplectic(g, h)))
        return unit or None

    @property
    def has_cyclic_commutator(self) -> bool:
        """True when the commutators of the generators span an infinite cyclic group."""
        return self._commutator_unit is not None

    @property
    def commutator_unit(self) -> int | None:
        return self._commutator_unit

    # -- identity / hashing --------------------------------------------

    def describe(self) -> dict:
        gens = [{"label": label, "coords": list(full_coordinates(g))}
                for label, g in self.generator_items()]
        doc = {"kind": self.kind, "generators": gens}
        if self.kind == "abelian":
            doc["d"] = self.params
        elif self.kind == "heisenberg":
            doc["k"] = self.params
        return doc

    @cached_property
    def group_hash(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def __eq__(self, other):
        return isinstance(other, MarkedGroup) and self.group_hash == other.group_hash

    def __hash__(self):
        return hash(self.group_hash)

    def __repr__(self):
        return f"MarkedGroup({self.kind}, labels={list(self.labels)})"


def _symplectic(g: HeisenbergElement, h: HeisenbergElement) -> int:
    return sum(x * y for x, y in zip(g.a, h.b)) - sum(x * y for x, y in zip(h.a, g.b))


def commutator_z_exponent(group: MarkedGroup, g: GroupElement, h: GroupElement) -> int:
    """The integer a with [g, h] = z^a, z the positive generator of [H, H].

    Bilinear and antisymmetric in the abelianized coordinates; requires the
    marked group to have infinite cyclic commutator subgroup.
    """
    if group.kind != "heisenberg":
        raise GroupKindMismatchError("commutator exponents are defined for Heisenberg groups")
    unit = group.commutator_unit
    if unit is None:
        raise DegenerateCommutatorError()
    omega = _symplectic(g, h)
    return omega // unit


class DegenerateCommutatorError(DegenerateInputError):
    def __init__(self):
        super().__init__("all generators commute; the commutator subgroup is trivial")


# -- construction helpers ----------------------------------------------


def _close_generators(entries: dict[str, GroupElement]) -> dict[str, GroupElement]:
    """Add the missing inverse labels so the set is symmetric."""
    out = dict(entries)
    for label, g in entries.items():
        other = inverse_label(label)
        if other not in out:
            out[other] = g.inverse()
    return out


def _strict_int(value, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass, and floats would truncate
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _int_coords(generators: dict[str, Sequence[int]], width: int) -> dict[str, list[int]]:
    """Each generator's coordinates, checked to be ``width`` integers."""
    out = {}
    for label, coords in generators.items():
        coords = [_strict_int(c, f"a coordinate of {label!r}") for c in coords]
        if len(coords) != width:
            raise ParseError(f"generator {label!r} has {len(coords)} coords, expected {width}")
        out[label] = coords
    return out


def marked_abelian(d: int, generators: dict[str, Sequence[int]]) -> MarkedGroup:
    d = _strict_int(d, "'d'")
    entries = {label: AbelianElement(tuple(c)) for label, c in _int_coords(generators, d).items()}
    return MarkedGroup("abelian", d, _close_generators(entries))


def marked_heisenberg(k: int, generators: dict[str, Sequence[int]]) -> MarkedGroup:
    k = _strict_int(k, "'k'")
    entries = {label: HeisenbergElement(tuple(c[:k]), tuple(c[k : 2 * k]), c[2 * k])
               for label, c in _int_coords(generators, 2 * k + 1).items()}
    return MarkedGroup("heisenberg", k, _close_generators(entries))


def _cartan_letter(label: str) -> CartanElement:
    table = {"x": CARTAN_X, "y": CARTAN_Y, "x~": CARTAN_X.inverse(), "y~": CARTAN_Y.inverse()}
    try:
        return table[label]
    except KeyError:
        raise ParseError(f"Cartan generator words use letters x, y, x~, y~ only; got {label!r}")


def cartan_word_element(word: Iterable[str]) -> CartanElement:
    g = CARTAN_IDENTITY
    for letter in word:
        g = g * _cartan_letter(letter)
    return g


def marked_cartan(generators: dict[str, str | Sequence[str]]) -> MarkedGroup:
    """Cartan marked group; each generator is given as a word over x, y, x~, y~."""
    entries = {}
    for label, word in generators.items():
        if isinstance(word, str):
            word = parse_word(word)
        entries[label] = cartan_word_element(word)
    return MarkedGroup("cartan", None, _close_generators(entries))


def standard_group(name: str) -> MarkedGroup:
    """Named presets: z1, z2, z3, h1, h2, h1z (central generators added), cartan."""
    if name == "z1":
        return marked_abelian(1, {"x": [1]})
    if name == "z2":
        return marked_abelian(2, {"x": [1, 0], "y": [0, 1]})
    if name == "z3":
        return marked_abelian(3, {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1]})
    if name == "h1":
        return marked_heisenberg(1, {"x": [1, 0, 0], "y": [0, 1, 0]})
    if name == "h1z":
        return marked_heisenberg(1, {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1]})
    if name == "h2":
        return marked_heisenberg(
            2,
            {
                "x1": [1, 0, 0, 0, 0],
                "x2": [0, 1, 0, 0, 0],
                "y1": [0, 0, 1, 0, 0],
                "y2": [0, 0, 0, 1, 0],
            },
        )
    if name == "cartan":
        return marked_cartan({"x": "x", "y": "y"})
    raise ParseError(f"unknown preset group {name!r}")


def group_from_json(doc: dict) -> MarkedGroup:
    """Build a marked group from its JSON description.

    ``{"kind": "heisenberg", "k": 1, "generators": [{"label": "x", "coords": [1,0,0]}, ...]}``
    or ``{"kind": "cartan", "generators": [{"label": "x", "word": "x"}, ...]}``.
    Inverse labels (suffix ``~``) may be listed or are added automatically.
    Labels are distinct strings without spaces; ``d``, ``k`` and coordinates
    are JSON integers.
    """
    if not isinstance(doc, dict):
        raise ParseError("group description must be a JSON object")
    if "preset" in doc:
        return standard_group(doc["preset"])
    kind = doc.get("kind")
    gens = doc.get("generators")
    if not isinstance(gens, list) or not gens:
        raise ParseError("group description needs a nonempty 'generators' list")
    if kind not in ("abelian", "heisenberg", "cartan"):
        raise ParseError(f"unknown group kind {kind!r}")
    try:
        entries = {}
        for e in gens:
            label = e["label"]
            if not isinstance(label, str) or label.split() != [label] or not label.strip("~"):
                raise ParseError(f"generator label {label!r} is not a word letter")
            if label in entries:
                raise ParseError(f"duplicate generator label {label!r}")
            entries[label] = e
        if kind == "cartan":
            words = {label: e["word"] for label, e in entries.items()}
            if not all(isinstance(w, (str, list)) for w in words.values()):
                raise ParseError("Cartan generator words must be strings or lists of letters")
            return marked_cartan(words)
        coords = {label: e["coords"] for label, e in entries.items()}
        if kind == "abelian":
            return marked_abelian(doc["d"], coords)
        return marked_heisenberg(doc["k"], coords)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed group description: {exc}") from exc


def load_group(path) -> MarkedGroup:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read group file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"group file is not valid JSON: line {exc.lineno} col {exc.colno}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"group file is not valid JSON: {exc}") from exc
    return group_from_json(doc)
