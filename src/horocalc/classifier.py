"""Orbit classification of Busemann points for 2-step groups with cyclic
commutator subgroup, the abelian classification, and anagram offset sets.

A geodesic ray is classified by the letters it uses infinitely often: their
minimal face F in the abelianized generator hull decides the orbit when F is
non-commutative; commutative faces additionally need the minimal face E in
the full generator hull. Groups whose generators all commute are reported as
classified by the abelian rule, without claiming the 2-step statement.

Anagram offset sets (the central offsets of all reorderings of a word) are
a sumset over the word's commuting blocks of letters, each block an exact
DP over letter counts whose states hold value sets as ``(lo, bitmask)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Collection, Sequence

from .errors import BudgetExceededError, DegenerateInputError, GroupKindMismatchError
from .groups import MarkedGroup, Word, commutator_z_exponent, full_coordinates
from .horoboundary import RaySpec, recurring_face
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


def _orbit_data(group: MarkedGroup, mode: str, letters: Collection[str], face: Face,
                fp: Polytope | None):
    """(projected face key, commutative, full-hull face key) of a letter set on a proper face.

    ``face`` is the letters' ``letter_face``. The full-hull key is None
    without a full hull ``fp`` and ("improper",) when no proper face of it
    holds the letters.
    """
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
    face = recurring_face(group, spec)
    return RayInvariants(letters, *_orbit_data(group, mode, letters, face, fp))


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
            face = letter_face(group, subset)
            if face is IMPROPER:
                continue
            face_key, commutative, full_key = _orbit_data(group, mode, subset, face, fp)
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


@lru_cache(maxsize=64)
def central_increment_bound(group: MarkedGroup) -> int:
    """delta = max |z-exponent of [s, t]| over generator pairs."""
    gens = [g for _, g in group.generator_items()]
    best = 0
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            best = max(best, abs(commutator_z_exponent(group, g, h)))
    return best


@lru_cache(maxsize=256)
def _commuting_blocks(group: MarkedGroup, letters: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    """Connected components of the non-commuting graph on ``letters``.

    s and t are adjacent iff [s, t] != 1. Letters of different components
    commute, so such a pair adds the same central amount in either order.
    """
    blocks: list[list[str]] = []
    for s in letters:
        g = group.generator(s)
        block, rest = [s], []
        for b in blocks:
            if any(commutator_z_exponent(group, g, group.generator(t)) for t in b):
                block += b
            else:
                rest.append(b)
        blocks = rest + [block]
    return tuple(map(frozenset, blocks))


def _set_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _block_offsets(group: MarkedGroup, word: Word, max_states: int, cells: int):
    """(lo, mask, cells): the values v - c(word) over the reorderings of ``word``.

    Bit i of mask is set iff some reordering reaches lo + i. The lattice
    states are the letter count vectors k <= n in mixed radix, the last
    letter fastest, so index order is a topological order; appending letter
    i at state k adds c_i + sum_j k_j (a_j . b_i), precomputed per index.
    ``cells`` counts the values held so far, this lattice's added.
    """
    letters = sorted(set(word))
    counts = [word.count(s) for s in letters]
    gens = [group.generator(s) for s in letters]
    strides = [math.prod(n + 1 for n in counts[i + 1:]) for i in range(len(letters))]
    incs = []
    for gi in gens:
        inc = [gi.c]
        for gj, n in zip(gens, counts):
            w = sum(map(mul, gj.a, gi.b))
            inc = [v + k * w for v in inc for k in range(n + 1)]
        incs.append(inc)
    los, masks = [0] * len(incs[0]), [1] * len(incs[0])
    cells += 1
    moves = list(zip(strides, incs))
    states = itertools.product(*(range(n + 1) for n in counts))
    for idx, state in enumerate(itertools.islice(states, 1, None), 1):
        lo = None
        for k, (stride, inc) in zip(state, moves):
            if k:
                p = idx - stride
                shift, m = los[p] + inc[p], masks[p]
                if lo is None:
                    lo, mask = shift, m
                elif shift < lo:
                    lo, mask = shift, m | mask << (lo - shift)
                else:
                    mask |= m << (shift - lo)
        los[idx], masks[idx] = lo, mask
        cells += mask.bit_count()
        if cells > max_states:
            raise BudgetExceededError(f"anagram state space exceeded {max_states} cells")
    base, idx = 0, 0
    for s in word:
        stride, inc = moves[letters.index(s)]
        base += inc[idx]
        idx += stride
    return los[-1] - base, masks[-1], cells


def anagram_set(
    group: MarkedGroup,
    word: Sequence[str],
    max_states: int = 500_000,
) -> AnagramSet:
    """Exact offset set, as a sumset over commuting blocks of letters.

    The letters split into the components of the non-commuting graph
    (``_commuting_blocks``); reorderings within the blocks are independent
    and pairs across blocks add a fixed amount, so the offsets are the
    sumset of the blocks' offsets. Each block's are exact by a DP over
    consumed letter counts (``_block_offsets``): the abelianized part of a
    partial product depends only on the counts, so each state holds the
    set of central values reached there as ``(lo, mask)``, and a state is
    the shift-and-OR of its predecessors.

    ``max_states`` bounds the cells, the values held over all block states.
    Every state holds at least one, so a word whose blocks have more states
    than ``max_states`` is refused before any work.
    """
    if group.kind != "heisenberg":
        raise GroupKindMismatchError("anagram sets are defined in Heisenberg mode")
    unit = group.commutator_unit
    if unit is None:
        raise DegenerateInputError(
            "anagram sets need a non-degenerate commutator subgroup"
        )
    word = tuple(word)
    blocks = [tuple(s for s in word if s in block)
              for block in _commuting_blocks(group, tuple(sorted(set(word))))]
    if sum(math.prod(b.count(s) + 1 for s in set(b)) for b in blocks) > max_states:
        raise BudgetExceededError(f"anagram state space exceeded {max_states} cells")
    lo, mask, cells = 0, 1, 0
    for block in blocks:
        block_lo, block_mask, cells = _block_offsets(group, block, max_states, cells)
        lo += block_lo
        small, big = sorted((mask, block_mask), key=int.bit_count)
        mask = 0
        for i in _set_bits(small):
            mask |= big << i
    offsets = frozenset((lo + i) // unit for i in _set_bits(mask))
    return AnagramSet(word=word, offsets=offsets, delta=central_increment_bound(group))


@dataclass
class IntervalReport:
    letters: tuple[str, ...]
    subgroup_generator: int  # in z units; 0 when all pairs commute
    prefix_lengths: list[int]
    attained_radius: list[int]
    passed: bool


def offset_interval_probe(group: MarkedGroup, letters: Sequence[str], n: int) -> IntervalReport:
    """Probe how the anagram offsets of pair-block words fill the subgroup.

    Builds (s1 s2)^M (s1 s3)^M ... over the letter pairs, measures the
    largest symmetric interval of the commutator subgroup attained by each
    growing prefix, and passes when the interval grows with the length.
    """
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
        offs = anagram_set(group, word[:L]).offsets
        r = 0
        while gen * (r + 1) in offs and -gen * (r + 1) in offs:
            r += 1
        radii.append(gen * r)
    # growth of the attained interval is the point; tiny words cannot show it
    passed = radii[-1] > radii[0] or len(word) < 6
    return IntervalReport(letters, gen, lengths, radii, passed)
