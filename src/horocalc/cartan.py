"""Quantitative audits of the Cartan-group Busemann estimates.

The cube-root laws are audited, not proven: reports fit the smallest
constants admissible over the feasible range and expose the per-step data.
All element bookkeeping runs in the scaled integer coordinates of
CartanElement. The lower audit is an exact dynamic program over lattice
endpoints instead of an enumeration of words; the upper audit's
|h . ray_n| - n is the Busemann scan of h^-1 along the digitized ray,
read from one ``busemann_eval``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceededError, DegenerateInputError
from .groups import Word, standard_group
from .horoboundary import (
    STANDARD_GRID,
    DigitizedRay,
    _busemann_scan,
    busemann_eval,
    ray_prefix,
)
from .metric import DEFAULT_STATE_CAP, exact_length


@dataclass(frozen=True)
class DirectionFrame:
    """A reduced integer direction with its +90-degree rotation and parity class.

    Pairings against u_perp are taken raw (no normalization); only signs and
    ratios are ever compared, which are scale invariant.
    """

    u: tuple[int, int]
    u_perp: tuple[int, int]
    parity: str  # "both-odd" | "mixed-parity" | "axis"

    @staticmethod
    def from_direction(u: tuple[int, int]) -> "DirectionFrame":
        a, b = DigitizedRay(u).direction
        if a == 0 or b == 0:
            parity = "axis"
        elif a % 2 == 1 and b % 2 == 1:
            parity = "both-odd"
        else:
            parity = "mixed-parity"
        return DirectionFrame((a, b), (-b, a), parity)


def perp_pairing6(elem, u_perp: tuple[int, int]) -> int:
    """<6*B(g); u_perp> as an exact integer."""
    return elem.bar6x * u_perp[0] + elem.bar6y * u_perp[1]


def central_with_barycenter(b: tuple[int, int]) -> tuple:
    """Element and word for [x^b1 y^b2, [x, y]]: endpoint 0, area 0, barycenter b.

    Conjugating the unit commutator loop by x^b1 y^b2 translates its area
    mass, so the commutator of the two cancels the area and leaves exactly
    the prescribed first moment.
    """
    b1, b2 = int(b[0]), int(b[1])
    g_word = tuple(["x"] * b1 if b1 >= 0 else ["x~"] * (-b1)) + tuple(
        ["y"] * b2 if b2 >= 0 else ["y~"] * (-b2)
    )
    h_word = ("x", "y", "x~", "y~")
    group = standard_group("cartan")
    g_inv = group.invert_word(g_word)
    h_inv = group.invert_word(h_word)
    word = g_word + h_word + g_inv + h_inv
    elem = group.evaluate(word)
    if elem.endpoint != (0, 0) or elem.area2 != 0 or elem.barycenter != (b1, b2):
        raise AssertionError(f"[g, [x, y]] has coordinates {elem.key()} (hard bug)")
    return elem, word


AUDIT_MAX_LENGTH = 100  # fail-closed cap on the word lengths the audits and scans reach


def _within_cap(limited_to: str, length: int) -> None:
    """Raise BudgetExceededError when ``length`` passes AUDIT_MAX_LENGTH."""
    if length > AUDIT_MAX_LENGTH:
        raise BudgetExceededError(f"{limited_to} <= {AUDIT_MAX_LENGTH}, got {length}")


def detour_pairings(target, u_perp, n: int, max_length: int) -> dict[int, tuple[int, int]]:
    """length -> (max <6B; u_perp>, word count) over the words ending at target.

    Covers every length in n..max_length that some word reaches. Appending
    the unit step s at endpoint p adds ((2p + s) . u_perp) * det(p, s) to
    <6B; u_perp>, which depends on (p, s) alone, so one forward max-plus and
    counting pass over endpoints replaces enumerating the 4^length words.
    An endpoint farther (in l1) from target than the steps left to
    max_length is pruned; no word reaching target at any length does so.
    """
    tx, ty = target
    upx, upy = u_perp
    steps = tuple(STANDARD_GRID.values())
    layer = {(0, 0): (0, 1)}
    out = {}
    for k in range(max_length + 1):
        if k >= n and target in layer:
            out[k] = layer[target]
        left = max_length - k - 1
        nxt: dict[tuple[int, int], tuple[int, int]] = {}
        for (px, py), (best, count) in layer.items():
            for sx, sy in steps:
                q = (px + sx, py + sy)
                if abs(tx - q[0]) + abs(ty - q[1]) > left:
                    continue
                val = best + ((2 * px + sx) * upx + (2 * py + sy) * upy) * (px * sy - py * sx)
                old = nxt.get(q)
                nxt[q] = (val, count) if old is None else (max(old[0], val), old[1] + count)
        layer = nxt
    return out


@dataclass
class LowerAuditReport:
    direction: tuple[int, int]
    n: int
    reference6: int  # <6*B(digitized prefix); u_perp>
    per_delta: list[dict]  # {"delta", "length", "words", "max6"}
    fitted_m: Fraction | None
    extremal_at_zero: bool


def bound_audit_lower(u: tuple[int, int], n: int, delta_max: int) -> LowerAuditReport:
    """Audit the barycenter pairing of all detour words against the digitized ray.

    For each extra length delta, take all words of length n + delta with
    the same endpoint as the digitized prefix, record the maximal
    <B; u_perp> exactly, and fit the least constant M with
    max <= reference + M * delta^3 across the buckets.
    """
    frame = DirectionFrame.from_direction(u)
    if n < 0 or delta_max < 0:
        raise DegenerateInputError(f"n and delta must be nonnegative, got {n} and {delta_max}")
    _within_cap("lower audit limited to n + delta", n + delta_max)

    group = standard_group("cartan")
    gamma = group.evaluate(ray_prefix(DigitizedRay(frame.u), n))
    ref6 = perp_pairing6(gamma, frame.u_perp)
    buckets = detour_pairings(gamma.endpoint, frame.u_perp, n, n + delta_max)
    per_delta = [
        {"delta": length - n, "length": length, "words": count, "max6": best}
        for length, (best, count) in buckets.items()
    ]

    needs = [Fraction(r["max6"] - ref6, 6 * r["delta"] ** 3) for r in per_delta if r["delta"]]
    fitted = max(needs + [Fraction(0)]) if needs else None
    zero = next((r for r in per_delta if r["delta"] == 0), None)
    extremal = zero is not None and zero["max6"] <= ref6
    return LowerAuditReport(
        direction=frame.u,
        n=n,
        reference6=ref6,
        per_delta=per_delta,
        fitted_m=fitted,
        extremal_at_zero=extremal,
    )


@dataclass
class UpperAuditReport:
    direction: tuple[int, int]
    h_word: Word
    area: Fraction
    perp_pairing: Fraction  # <B(h); u_perp>
    rows: list[dict]  # {"n", "length", "diff"}
    fitted_c2: float | None
    fitted_c2_improved: float | None
    parity: str
    complete: bool


def bound_audit_upper(
    u: tuple[int, int],
    h_word: Sequence[str],
    n_values: Sequence[int],
    state_cap: int = DEFAULT_STATE_CAP,
) -> UpperAuditReport:
    """Measure |h . ray_n| - n and fit the cube-root upper-bound constant.

    |h . ray_n| - n is the Busemann scan of h^-1 along the digitized ray, so
    one ``busemann_eval`` up to the largest n proves every row; each step
    searches below its triangle bound. The audited inequality is diff <= C2 *
    cbrt(max(<B(h); u_perp>, 0) + |A(h)|) + C2; for both-odd directions the
    improved form drops the |A(h)| term. Only the state cap stops the scan
    early; the report is then a prefix with ``complete`` false. A largest
    n + |h_word| above AUDIT_MAX_LENGTH raises before any work.
    """
    frame = DirectionFrame.from_direction(u)
    n_min, n_max = _extremes(n_values) if n_values else (0, 0)
    if n_min < 0:
        raise DegenerateInputError(f"ray lengths must be nonnegative, got {n_min}")
    h_word = tuple(h_word)
    _within_cap("upper audit limited to n + |h|", n_max + len(h_word))
    group = standard_group("cartan")
    h = group.evaluate(h_word)
    if h.abelianized() != (0, 0):
        raise DegenerateInputError("upper audit needs h with zero abelianization")
    pairing = Fraction(perp_pairing6(h, frame.u_perp), 6)
    area = h.area

    values = []  # |h . ray_n| - n for n = 0..reached
    if n_values:
        try:
            values = busemann_eval(group, DigitizedRay(frame.u), group.invert_word(h_word),
                                   n_max, state_cap=state_cap).values
        except BudgetExceededError:  # the cap stopped the search for |h|
            pass
    complete = not n_values or len(values) > n_max
    rows = [{"n": n, "length": values[n] + n, "diff": values[n]}
            for n in sorted(n_values) if n < len(values)]

    q_general = float(max(pairing, 0) + abs(area))
    q_improved = float(max(pairing, 0))
    fitted = _fit_c2(rows, q_general)
    fitted_improved = _fit_c2(rows, q_improved) if frame.parity == "both-odd" else None
    return UpperAuditReport(
        direction=frame.u,
        h_word=h_word,
        area=area,
        perp_pairing=pairing,
        rows=rows,
        fitted_c2=fitted,
        fitted_c2_improved=fitted_improved,
        parity=frame.parity,
        complete=complete,
    )


def _extremes(values: Sequence[int]) -> tuple[int, int]:
    """min and max of nonempty values; a range's are read from its two ends, not iterated."""
    ends = (values[0], values[-1]) if isinstance(values, range) else values
    return min(ends), max(ends)


def _fit_c2(rows, q) -> float | None:
    if not rows:
        return None
    return max(r["diff"] / (q ** (1.0 / 3.0) + 1.0) for r in rows)


@dataclass
class DistinctnessReport:
    u: tuple[int, int]
    v: tuple[int, int]
    witness_b: tuple[int, int]
    h_word: Word
    powers: list[int]
    u_values: dict[int, list[int]]
    v_values: dict[int, list[int]]
    u_min_value: int
    v_final_value: int
    v_certified: bool


def pick_witness_barycenter(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Smallest (l-infinity, then lexicographic) b with <-b; u_perp> > 0 and
    <-b; v_perp> <= 0.

    Two distinct directions always have one, but the central word of b has
    2(|b1| + |b2|) + 8 >= 2k + 8 letters on shell k, so the search stops at
    the first shell whose words all pass AUDIT_MAX_LENGTH.
    """
    fu = DirectionFrame.from_direction(u)
    fv = DirectionFrame.from_direction(v)
    if fu.u == fv.u:
        raise DegenerateInputError("directions coincide; no separating barycenter exists")
    for k in itertools.count(1):
        _within_cap("distinctness witness search limited to shells k with 2k + 8", 2 * k + 8)
        shell = sorted(
            (bx, by)
            for bx in range(-k, k + 1)
            for by in range(-k, k + 1)
            if max(abs(bx), abs(by)) == k
        )
        for b in shell:
            su = -(b[0] * fu.u_perp[0] + b[1] * fu.u_perp[1])
            sv = -(b[0] * fv.u_perp[0] + b[1] * fv.u_perp[1])
            if su > 0 and sv <= 0:
                return b


def distinctness_witness(
    u: tuple[int, int],
    v: tuple[int, int],
    powers: Sequence[int] = (1,),
    horizon: int = 16,
    state_cap: int = DEFAULT_STATE_CAP,
) -> DistinctnessReport:
    """Divergence evidence for the Busemann points of two directions.

    Evaluates both rays against powers of the separating central element;
    the u-side values stay strictly positive while the v-side values drop
    (often certifying 0 exactly). All numbers are monotone horizon values.
    ``powers`` must be a nonempty list of integers >= 1; a largest power
    times |h| above AUDIT_MAX_LENGTH raises before any search.
    """
    if not powers or _extremes(powers)[0] < 1:
        raise DegenerateInputError("powers must be nonempty integers >= 1")
    group = standard_group("cartan")
    b = pick_witness_barycenter(u, v)
    _, h_word = central_with_barycenter(b)
    _within_cap("distinctness scan limited to power * |h|", _extremes(powers)[1] * len(h_word))
    u_vals: dict[int, list[int]] = {}
    v_vals: dict[int, list[int]] = {}
    u_min = None
    v_final = None
    v_cert = False
    for p in powers:
        elem, norm = exact_length(group, h_word * p, state_cap)  # one |h^p| for both scans
        eu = _busemann_scan(group, DigitizedRay(u), elem, norm, horizon, state_cap)
        ev = _busemann_scan(group, DigitizedRay(v), elem, norm, horizon, state_cap)
        u_vals[p] = eu.values
        v_vals[p] = ev.values
        u_min = eu.value if u_min is None else min(u_min, eu.value)
        v_final = ev.value
        v_cert = ev.certified
    return DistinctnessReport(
        u=DigitizedRay(u).direction,
        v=DigitizedRay(v).direction,
        witness_b=b,
        h_word=h_word,
        powers=list(powers),
        u_values=u_vals,
        v_values=v_vals,
        u_min_value=u_min,
        v_final_value=v_final,
        v_certified=v_cert,
    )


@dataclass
class StabilizerEscapeReport:
    u: tuple[int, int]
    g_word: Word
    m: int
    powers: list[int]
    base_values: dict[int, int]  # b(h^k)
    translated_values: dict[int, int]  # (g^m . b)(h^k)
    gaps: dict[int, int]
    complete: bool


def stabilizer_escape(
    u: tuple[int, int],
    g_word: Sequence[str],
    powers: Sequence[int] = (1,),
    horizon: int = 12,
    state_cap: int = DEFAULT_STATE_CAP,
    m_override: int | None = None,
) -> StabilizerEscapeReport:
    """Evidence that g does not fix the reduced class of the direction's ray.

    Uses the square pair h = [x,y][x~,y~] (area 2, barycenter 0) and compares
    b(h^k) with (g^m . b)(h^k) = b(g^{-m} h^k) - b(g^{-m}) for the smallest
    power m that points the translated barycenter against u_perp.
    ``powers`` must be a nonempty list of integers >= 0; power 0 gives the
    trivial row of zeros. A longest word |g^-m| + |h| * max(powers) above
    AUDIT_MAX_LENGTH raises before any search.
    """
    if not powers or _extremes(powers)[0] < 0:
        raise DegenerateInputError("powers must be nonempty integers >= 0")
    frame = DirectionFrame.from_direction(u)
    group = standard_group("cartan")
    g_word = tuple(g_word)
    g = group.evaluate(g_word)
    pairing = g.x * frame.u_perp[0] + g.y * frame.u_perp[1]
    if pairing == 0:
        raise DegenerateInputError(
            "the element's abelianization is parallel to the direction; "
            "the escape argument needs <g; u_perp> != 0"
        )
    m = m_override if m_override is not None else (1 if pairing > 0 else -1)
    if m * pairing <= 0:
        raise DegenerateInputError("m must point the translated barycenter against u_perp")
    h_word = ("x", "y", "x~", "y~", "x~", "y~", "x", "y")
    _within_cap("stabilizer scan limited to |g^-m| + |h| * power",
                abs(m) * len(g_word) + len(h_word) * _extremes(powers)[1])
    gm_word = g_word * m if m > 0 else group.invert_word(g_word) * (-m)
    gm_inv_word = group.invert_word(gm_word)
    spec = DigitizedRay(frame.u)

    base: dict[int, int] = {}
    translated: dict[int, int] = {}
    gaps: dict[int, int] = {}
    complete = True
    base_shift = busemann_eval(group, spec, list(gm_inv_word), horizon, state_cap=state_cap)
    for k in powers:
        if k == 0:
            base[k] = 0
            translated[k] = 0
            gaps[k] = 0
            continue
        word_hk = h_word * k
        b_hk = busemann_eval(group, spec, list(word_hk), horizon, state_cap=state_cap)
        b_ghk = busemann_eval(
            group, spec, list(gm_inv_word + word_hk), horizon, state_cap=state_cap
        )
        if b_hk.exhausted or b_ghk.exhausted:
            complete = False
        base[k] = b_hk.value
        translated[k] = b_ghk.value - base_shift.value
        gaps[k] = translated[k] - base[k]
    return StabilizerEscapeReport(
        u=frame.u,
        g_word=g_word,
        m=m,
        powers=list(powers),
        base_values=base,
        translated_values=translated,
        gaps=gaps,
        complete=complete,
    )
