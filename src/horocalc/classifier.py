"""Orbit classification of Busemann points for 2-step groups with cyclic
commutator subgroup, the abelian classification, and anagram offset sets.

A geodesic ray is classified by the letters it uses infinitely often: their
minimal face F in the abelianized generator hull decides the orbit when F is
non-commutative; commutative faces additionally need the minimal face E in
the full generator hull. Groups whose generators all commute are reported as
classified by the abelian rule, without claiming the 2-step statement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Sequence

from .errors import BudgetExceededError, DegenerateInputError, GroupKindMismatchError, SpecNotGeodesicError
from .groups import MarkedGroup, Word, commutator_z_exponent, full_coordinates
from .horoboundary import RaySpec
from .metric import letter_face, projected_polytope
from .polytope import IMPROPER, Face, Polytope

MAX_CENSUS_GENERATORS = 20


def _require_classifiable(group: MarkedGroup) -> str:
    """Returns the classification mode, rejecting unsupported groups."""
    if group.kind == "abelian":
        return "abelian"
    if group.kind == "heisenberg":
        if group.has_cyclic_commutator:
            return "2step"
        return "abelian-like"
    raise GroupKindMismatchError(
        "orbit classification covers abelian and Heisenberg marked groups"
    )


@lru_cache(maxsize=64)
def full_polytope(group: MarkedGroup) -> Polytope:
    """Hull of the generators in full coordinates (needed for E faces)."""
    return Polytope([full_coordinates(g) for _, g in group.generator_items()])


def face_labels(group: MarkedGroup, face: Face) -> list[str]:
    """Generator labels whose projection lies on the face.

    The projected polytope's points are indexed in generator order, so face
    membership is a direct index test (duplicate projections included).
    """
    return [
        label
        for i, (label, _) in enumerate(group.generator_items())
        if i in face.members
    ]


def _is_commutative_face(group: MarkedGroup, labels: Sequence[str]) -> bool:
    if group.kind == "abelian":
        return True
    gens = [group.generator(label) for label in labels]
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if commutator_z_exponent(group, g, h) != 0:
                return False
    return True


@dataclass(frozen=True)
class RayInvariants:
    direction_letters: frozenset[str]
    face_key: tuple  # minimal face of the projected hull containing the letters
    face_commutative: bool
    full_face_key: tuple | None  # minimal face of the full hull, None if unavailable


def _orbit_data(group: MarkedGroup, mode: str, letters: Collection[str], fp: Polytope | None):
    """(projected face key, commutative, full-hull face key) of a letter set.

    None when the letters lie on no proper face of the projected hull. The
    full-hull key is None without a full hull ``fp`` and ("improper",) when
    no proper face of it holds the letters.
    """
    face = letter_face(group, letters)
    if face is IMPROPER:
        return None
    commutative = mode != "2step" or _is_commutative_face(group, face_labels(group, face))
    full_key = None
    if fp is not None:
        eface = fp.minimal_face_of_points([full_coordinates(group.generator(s)) for s in letters])
        full_key = ("improper",) if eface is IMPROPER else eface.member_key(fp)
    return face.member_key(projected_polytope(group)), commutative, full_key


def ray_invariants(group: MarkedGroup, spec: RaySpec) -> RayInvariants:
    mode = _require_classifiable(group)
    letters = spec.tail_letters()
    try:
        fp = full_polytope(group)
    except DegenerateInputError:
        fp = None
    data = _orbit_data(group, mode, letters, fp)
    if data is None:
        raise SpecNotGeodesicError(
            "the ray's recurring letters lie on no proper face, so it is not geodesic"
        )
    return RayInvariants(letters, *data)


def same_orbit(group: MarkedGroup, spec1: RaySpec, spec2: RaySpec) -> tuple[bool, str]:
    """Orbit decision for two certified geodesic rays, with the reason.

    Same orbit iff the minimal projected faces agree and are non-commutative,
    or they agree, are commutative, and the full-hull faces agree too.
    """
    inv1 = ray_invariants(group, spec1)
    inv2 = ray_invariants(group, spec2)
    if inv1.face_key != inv2.face_key:
        return False, "projected faces differ"
    if not inv1.face_commutative:
        return True, "same non-commutative projected face"
    if inv1.full_face_key is None or inv2.full_face_key is None:
        raise DegenerateInputError(
            "commutative faces need the full generator hull (dimension too high)"
        )
    if inv1.full_face_key == inv2.full_face_key:
        return True, "same commutative face and same full-hull face"
    return False, "same commutative face but different full-hull faces"


@dataclass
class CensusReport:
    mode: str  # "2step" | "abelian" | "abelian-like"
    orbit_keys: list[tuple]
    count: int


def orbit_census(group: MarkedGroup) -> CensusReport:
    """Distinct orbit keys realizable by letter subsets of the generators.

    Enumerates nonempty subsets D of the generating set, keeps those whose
    recurring-letter face is proper (exactly the realizable direction sets),
    and keys them by face data. Commutative faces contribute (F, E) keys,
    non-commutative faces contribute F alone.
    """
    mode = _require_classifiable(group)
    labels = group.labels
    if len(labels) > MAX_CENSUS_GENERATORS:
        raise BudgetExceededError(
            f"census over {len(labels)} generators needs 2^{len(labels)} subsets; refusing"
        )
    fp = full_polytope(group)
    keys = set()
    for r in range(1, len(labels) + 1):
        for subset in itertools.combinations(labels, r):
            data = _orbit_data(group, mode, subset, fp)
            if data is None:
                continue
            face_key, commutative, full_key = data
            keys.add(("comm", face_key, full_key) if commutative else ("noncomm", face_key))
    ordered = sorted(keys, key=repr)
    return CensusReport(mode=mode, orbit_keys=ordered, count=len(ordered))


@dataclass
class AnagramSet:
    """Central offsets reachable by reordering a word.

    ``offsets`` are exponents of the positive generator z of the commutator
    subgroup: a is in the set iff some reordering w' satisfies w' = w z^a.
    """

    word: Word
    offsets: frozenset[int]
    delta: int  # max |commutator exponent| over generator pairs


def central_increment_bound(group: MarkedGroup) -> int:
    """delta = max |z-exponent of [s, t]| over generator pairs."""
    gens = [g for _, g in group.generator_items()]
    best = 0
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            best = max(best, abs(commutator_z_exponent(group, g, h)))
    return best


def anagram_set(
    group: MarkedGroup,
    word: Sequence[str],
    max_states: int = 500_000,
) -> AnagramSet:
    """Exact offset set by dynamic programming over consumed letter counts.

    The abelianized part of a partial product depends only on how many of
    each letter were consumed, so the central increment of appending a
    letter is a function of (counts, letter); states stay polynomial in the
    word length instead of factorial.
    """
    if group.kind != "heisenberg":
        raise GroupKindMismatchError("anagram sets are defined in Heisenberg mode")
    unit = group.commutator_unit
    if unit is None:
        raise DegenerateInputError(
            "anagram sets need a non-degenerate commutator subgroup"
        )
    word = tuple(word)
    distinct = sorted(set(word))
    counts = tuple(word.count(s) for s in distinct)
    gens = [group.generator(s) for s in distinct]
    a_vecs = [g.a for g in gens]
    b_vecs = [g.b for g in gens]
    c_vals = [g.c for g in gens]

    states: dict[tuple[int, ...], set[int]] = {tuple(0 for _ in distinct): {0}}
    total_cells = 1
    for _ in range(len(word)):
        nxt: dict[tuple[int, ...], set[int]] = {}
        for state, cs in states.items():
            # abelianized a-part after consuming `state`
            a_part = [0] * len(a_vecs[0]) if a_vecs else []
            for cnt, av in zip(state, a_vecs):
                if cnt:
                    for i, v in enumerate(av):
                        a_part[i] += cnt * v
            for li in range(len(distinct)):
                if state[li] >= counts[li]:
                    continue
                inc = c_vals[li] + sum(p * q for p, q in zip(a_part, b_vecs[li]))
                key = state[:li] + (state[li] + 1,) + state[li + 1 :]
                bucket = nxt.setdefault(key, set())
                for c in cs:
                    bucket.add(c + inc)
        states = nxt
        total_cells += sum(len(v) for v in states.values())
        if total_cells > max_states:
            raise BudgetExceededError(
                f"anagram state space exceeded {max_states} cells"
            )
    (final_cs,) = states.values() if states else ({0},)
    base = group.evaluate(word).c
    offsets = frozenset((c - base) // unit for c in final_cs)
    return AnagramSet(word=word, offsets=offsets, delta=central_increment_bound(group))


@dataclass
class IntervalReport:
    letters: tuple[str, ...]
    subgroup_generator: int  # in z units; 0 when all pairs commute
    prefix_lengths: list[int]
    attained_radius: list[int]
    passed: bool


def offset_interval_probe(group: MarkedGroup, letters: Sequence[str], n: int,
                         max_states: int = 500_000) -> IntervalReport:
    """Probe how the anagram offsets of pair-block words fill the subgroup.

    Builds (s1 s2)^M (s1 s3)^M ... over the letter pairs, measures the
    largest symmetric interval of the commutator subgroup attained by each
    growing prefix, and passes when the interval grows with the length.
    """
    import math

    letters = tuple(letters)
    if len(letters) < 1:
        raise DegenerateInputError("letter set must be nonempty")
    pairs = [
        (s, t)
        for i, s in enumerate(letters)
        for t in letters[i + 1 :]
    ]
    gen = 0
    for s, t in pairs:
        gen = math.gcd(gen, abs(commutator_z_exponent(group, group.generator(s), group.generator(t))))
    if not pairs or gen == 0:
        word = letters * max(1, n // len(letters))
        return IntervalReport(letters, 0, [len(word)], [0], passed=True)
    reps = max(1, n // (2 * len(pairs)))
    word: list[str] = []
    for s, t in pairs:
        word.extend([s, t] * reps)
    word = word[:n] if len(word) > n else word
    lengths = sorted({max(2, len(word) // 3), max(2, 2 * len(word) // 3), len(word)})
    radii = []
    for L in lengths:
        offs = anagram_set(group, word[:L], max_states=max_states).offsets
        r = 0
        while gen * (r + 1) in offs and -gen * (r + 1) in offs:
            r += 1
        radii.append(gen * r)
    # growth of the attained interval is the point; tiny words cannot show it
    passed = radii[-1] > radii[0] or len(word) < 6
    return IntervalReport(letters, gen, lengths, radii, passed)
