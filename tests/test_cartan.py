import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocalc import cartan, metric
from horocalc.cartan import (
    AUDIT_MAX_LENGTH,
    DirectionFrame,
    bound_audit_lower,
    bound_audit_upper,
    central_with_barycenter,
    detour_pairings,
    distinctness_witness,
    perp_pairing6,
    pick_witness_barycenter,
    stabilizer_escape,
)
from horocalc.errors import BudgetExceededError, DegenerateInputError
from horocalc.groups import parse_word, standard_group
from horocalc.horoboundary import DigitizedRay, busemann_eval
from horocalc.metric import LengthResult
from horocalc.reference import brute_force_detour_pairings, naive_busemann_values
from horocalc.winding import cartan_path_oracle


def test_direction_frames():
    f = DirectionFrame.from_direction((1, 1))
    assert f.u_perp == (-1, 1)
    assert f.parity == "both-odd"
    assert DirectionFrame.from_direction((2, 4)).u == (1, 2)
    assert DirectionFrame.from_direction((1, 2)).parity == "mixed-parity"
    assert DirectionFrame.from_direction((-3, 0)).parity == "axis"
    with pytest.raises(DegenerateInputError):
        DirectionFrame.from_direction((0, 0))


def test_central_with_barycenter_exact():
    for b1 in range(-5, 6):
        for b2 in range(-5, 6):
            elem, word = central_with_barycenter((b1, b2))
            assert elem.endpoint == (0, 0)
            assert elem.area == 0
            assert elem.barycenter == (Fraction(b1), Fraction(b2))
            # independent confirmation through the winding oracle
            end, area, bary = cartan_path_oracle(word)
            assert (end, area, bary) == ((0, 0), 0, (Fraction(b1), Fraction(b2)))


def test_central_with_barycenter_spot_words():
    elem, word = central_with_barycenter((1, 0))
    assert word[:1] == ("x",) and len(word) == 10
    assert elem.barycenter == (1, 0)
    elem, word = central_with_barycenter((2, 1))
    assert len(word) == 2 * 3 + 8
    assert elem.barycenter == (2, 1)


def test_bound_audit_lower_small():
    rep = bound_audit_lower((1, 1), 4, 2)
    assert rep.extremal_at_zero
    assert rep.fitted_m == 0
    deltas = {r["delta"]: r for r in rep.per_delta}
    assert deltas[0]["words"] == 6  # monotone words to (2,2)
    assert deltas[0]["max6"] == rep.reference6
    # parity skips odd deltas entirely
    assert 1 not in deltas


def test_bound_audit_lower_axis():
    rep = bound_audit_lower((1, 0), 6, 2)
    assert rep.extremal_at_zero
    deltas = {r["delta"]: r for r in rep.per_delta}
    assert deltas[0]["words"] == 1  # the straight word is unique


def test_bound_audit_lower_loops():
    rep = bound_audit_lower((1, 1), 0, 4)
    deltas = {r["delta"]: r for r in rep.per_delta}
    assert deltas[0]["words"] == 1  # the empty word
    assert deltas[4]["max6"] > 0  # a unit square can tilt the barycenter
    assert rep.fitted_m is not None and rep.fitted_m >= 0


def test_bound_audit_lower_budget():
    assert AUDIT_MAX_LENGTH == 100
    with pytest.raises(BudgetExceededError):
        bound_audit_lower((1, 1), 99, 2)
    rep = bound_audit_lower((1, 1), 12, 2)
    assert rep.extremal_at_zero
    assert [r["words"] for r in rep.per_delta] == [924, 48048]  # C(12,6), 14 * C(14,7)
    # a negative delta or n is a domain error, not an empty report
    with pytest.raises(DegenerateInputError):
        bound_audit_lower((1, 1), 4, -2)
    with pytest.raises(DegenerateInputError):
        bound_audit_lower((1, 1), -1, 2)


def _walk_count(length, target):
    a, b = target[0] + target[1], target[0] - target[1]
    return math.comb(length, (length + a) // 2) * math.comb(length, (length + b) // 2)


@settings(max_examples=25, deadline=None)
@given(
    u=st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0)),
    n=st.integers(0, 10),
    data=st.data(),
)
def test_detour_pairings_match_the_word_enumeration(u, n, data):
    delta_max = data.draw(st.integers(0, 10 - n), label="delta_max")
    frame = DirectionFrame.from_direction(u)
    group = standard_group("cartan")
    target = group.evaluate(DigitizedRay(frame.u).letters(n)).endpoint
    dp = detour_pairings(target, frame.u_perp, n, n + delta_max)
    assert dp == brute_force_detour_pairings(target, frame.u_perp, n, n + delta_max)
    l1 = abs(target[0]) + abs(target[1])
    assert sorted(dp) == [k for k in range(n, n + delta_max + 1) if k >= l1 and (k - l1) % 2 == 0]
    for length, (_, words) in dp.items():
        assert words == _walk_count(length, target)
    rep = bound_audit_lower(u, n, delta_max)
    assert [(r["length"], r["max6"], r["words"]) for r in rep.per_delta] == [
        (k, best, words) for k, (best, words) in dp.items()
    ]


def test_bound_audit_upper_rejects_negative_lengths():
    with pytest.raises(DegenerateInputError):
        bound_audit_upper((1, 1), parse_word("x y x~ y~"), [-1, 2])


def test_bound_audit_upper_length_cap(monkeypatch):
    # n + |h| = 101 raises before the scan starts or any length is searched
    monkeypatch.setattr(cartan, "busemann_eval", None)
    with pytest.raises(BudgetExceededError):
        bound_audit_upper((1, 1), parse_word("x y x~ y~"), [2, AUDIT_MAX_LENGTH - 3])


def test_bound_audit_upper_identity():
    rep = bound_audit_upper((1, 1), (), [2, 4, 6])
    assert all(r["diff"] == 0 for r in rep.rows)
    assert rep.complete


def test_bound_audit_upper_bounded_pairing():
    # h = [x,y]^-1: <B(h); u_perp> = 0, area -1: differences stay O(1)
    rep = bound_audit_upper((1, 1), parse_word("y x y~ x~"), [2, 4, 6, 8])
    assert rep.perp_pairing == 0
    assert rep.area == -1
    assert all(r["diff"] <= 4 for r in rep.rows)
    assert rep.fitted_c2 is not None and rep.fitted_c2_improved is not None


def test_bound_audit_upper_zero_pairing_witness():
    # z_b with b = (-1,-1) against u = (1,1): pairing exactly 0
    _, word = central_with_barycenter((-1, -1))
    rep = bound_audit_upper((1, 1), word, [2, 4, 6])
    assert rep.perp_pairing == 0
    assert all(r["diff"] <= 6 for r in rep.rows)


def test_bound_audit_upper_rejects_noncentral():
    with pytest.raises(DegenerateInputError):
        bound_audit_upper((1, 1), parse_word("x"), [2])


def test_bound_audit_upper_never_exceeds_its_budget(monkeypatch):
    # |h ray_n| <= n + |h_word| and has the parity of n: the search runs below that bound,
    # and an answer of the other parity is a bug, not a budget stop
    odd = LengthResult("exact", 3, 0, 0)
    monkeypatch.setattr(metric, "word_length", lambda *args, **kwargs: odd)
    with pytest.raises(AssertionError, match="hard bug"):
        bound_audit_upper((1, 1), parse_word("x y x~ y~"), [2])


@settings(max_examples=10, deadline=None)
@given(
    u=st.sampled_from([(1, 0), (1, 1), (1, 2), (2, 1), (-1, 3), (2, -3)]),
    h_word=st.sampled_from(["x y x~ y~", "y x y~ x~", "x y~ x~ y", "x x~", ""]),
    data=st.data(),
)
def test_bound_audit_upper_rows_match_the_naive_ball(u, h_word, data):
    # rows need not be consecutive, so each row's bound from the row before spans a gap
    h_word = parse_word(h_word)
    n_values = data.draw(st.lists(st.integers(0, 10 - len(h_word)), min_size=1, max_size=3,
                                  unique=True))
    rep = bound_audit_upper(u, h_word, n_values)
    group = standard_group("cartan")
    # |h ray_n| - n is the scan of h^-1 along the ray
    h_inv = [group.inverse_of_label(letter) for letter in reversed(h_word)]
    naive = naive_busemann_values(group, DigitizedRay(rep.direction), h_inv, max(n_values))
    assert rep.complete
    assert [(r["n"], r["diff"]) for r in rep.rows] == [(n, naive[n]) for n in sorted(n_values)]


def test_bound_audit_upper_gaps_between_rows():
    rep = bound_audit_upper((1, 1), parse_word("x y x~ y~"), [2, 5, 6])
    group = standard_group("cartan")
    naive = naive_busemann_values(group, DigitizedRay(rep.direction), parse_word("y x y~ x~"), 6)
    assert [r["diff"] for r in rep.rows] == [naive[2], naive[5], naive[6]]


def _expanded_by_audit(monkeypatch, u, h_word, n_values):
    """States expanded by every word_length search of one upper audit."""
    total = 0
    search = metric.word_length

    def counted(*args, **kwargs):
        nonlocal total
        res = search(*args, **kwargs)
        total += res.expanded
        return res

    with monkeypatch.context() as patch:
        patch.setattr(metric, "word_length", counted)
        assert bound_audit_upper(u, h_word, n_values).complete
    return total


def test_bound_audit_upper_gaps_cost_no_more_than_the_full_scan(monkeypatch):
    # a row after a gap is one more scan step, not one deep search below a loose bound
    h_word = parse_word("x x y x~ x~ y~")
    gapped = _expanded_by_audit(monkeypatch, (1, 2), h_word, [2, 30])
    full = _expanded_by_audit(monkeypatch, (1, 2), h_word, range(2, 31))
    assert gapped <= full


@settings(max_examples=20, deadline=None)
@given(
    u=st.sampled_from([(1, 1), (1, 2), (-2, 1), (3, -1)]),
    h_word=st.sampled_from(["x y x~ y~", "x x y x~ x~ y~", "y x y~ x~ x~ y~ x y"]),
    n_values=st.lists(st.integers(0, 14), max_size=4),
    state_cap=st.integers(1, 400),
)
def test_bound_audit_upper_capped_rows_are_a_prefix(u, h_word, n_values, state_cap):
    h_word = parse_word(h_word)
    full = bound_audit_upper(u, h_word, n_values)
    capped = bound_audit_upper(u, h_word, n_values, state_cap=state_cap)
    assert full.complete
    assert capped.rows == full.rows[:len(capped.rows)]
    assert capped.complete == (len(capped.rows) == len(full.rows))


def test_bound_audit_upper_empty_range_searches_nothing(monkeypatch):
    monkeypatch.setattr(cartan, "busemann_eval", None)
    rep = bound_audit_upper((1, 1), parse_word("x y x~ y~"), [])
    assert (rep.rows, rep.complete, rep.fitted_c2) == ([], True, None)


def test_bound_audit_upper_mixed_parity_no_improved():
    rep = bound_audit_upper((1, 2), parse_word("x y x~ y~"), [3])
    assert rep.parity == "mixed-parity"
    assert rep.fitted_c2_improved is None


def test_pick_witness_barycenter():
    assert pick_witness_barycenter((-1, -1), (1, 1)) == (-1, 0)
    b = pick_witness_barycenter((1, 0), (0, 1))
    fu = DirectionFrame.from_direction((1, 0))
    fv = DirectionFrame.from_direction((0, 1))
    assert -(b[0] * fu.u_perp[0] + b[1] * fu.u_perp[1]) > 0
    assert -(b[0] * fv.u_perp[0] + b[1] * fv.u_perp[1]) <= 0
    with pytest.raises(DegenerateInputError):
        pick_witness_barycenter((1, 1), (2, 2))


def test_witness_search_stops_at_the_first_shell_past_the_audit_cap():
    # the central word of b has 2(|b1| + |b2|) + 8 letters, at least 2k + 8 on shell k
    assert pick_witness_barycenter((47, 1), (46, 1)) == (-46, -1)
    with pytest.raises(BudgetExceededError, match="power \\* \\|h\\| <= 100, got 102"):
        distinctness_witness((47, 1), (46, 1), horizon=4)
    for u, v in (((48, 1), (47, 1)), ((100, 99), (99, 98))):
        with pytest.raises(BudgetExceededError, match="2k \\+ 8 <= 100, got 102"):
            pick_witness_barycenter(u, v)


def test_distinctness_witness_small():
    rep = distinctness_witness((-1, -1), (1, 1), powers=(1,), horizon=8)
    assert rep.witness_b == (-1, 0)
    assert rep.u_min_value >= 1
    assert rep.u_values[1] == sorted(rep.u_values[1], reverse=True)
    assert rep.v_values[1][-1] <= rep.u_values[1][-1]


def test_distinctness_searches_each_power_norm_once(monkeypatch):
    # both directions scan h^p from one |h^p|; the report is that of two busemann_evals
    u, v, powers, horizon = (-1, -1), (1, 1), (1, 2), 6
    group = standard_group("cartan")
    h_word = central_with_barycenter(pick_witness_barycenter(u, v))[1]
    evals = {p: [busemann_eval(group, DigitizedRay(d), list(h_word * p), horizon)
                 for d in (u, v)] for p in powers}
    norms = {group.evaluate(h_word * p).key(): p for p in powers}
    searched = []
    length = metric.length_within

    def recorded(group, g, upper, state_cap):
        if g.key() in norms:
            searched.append(norms[g.key()])
        return length(group, g, upper, state_cap)

    monkeypatch.setattr(metric, "length_within", recorded)
    rep = distinctness_witness(u, v, powers=powers, horizon=horizon)
    assert searched == list(powers)
    assert rep.u_values == {p: eu.values for p, (eu, _) in evals.items()}
    assert rep.v_values == {p: ev.values for p, (_, ev) in evals.items()}
    assert rep.u_min_value == min(eu.value for eu, _ in evals.values())
    assert (rep.v_final_value, rep.v_certified) == (evals[2][1].value, evals[2][1].certified)


def test_stabilizer_escape_report():
    rep = stabilizer_escape((1, 1), parse_word("x"), powers=(0, 1), horizon=10)
    assert rep.m == -1
    assert rep.base_values[0] == 0 and rep.translated_values[0] == 0
    assert rep.gaps[0] == 0
    assert rep.gaps[1] >= 0


def test_stabilizer_escape_reports_a_capped_scan_incomplete():
    capped = stabilizer_escape((1, 1), parse_word("x"), powers=[1], horizon=12, state_cap=200)
    assert not capped.complete
    assert stabilizer_escape((1, 1), parse_word("x"), powers=[1], horizon=12).complete


def test_stabilizer_escape_precondition():
    with pytest.raises(DegenerateInputError):
        stabilizer_escape((1, 1), parse_word("x y"), powers=(1,))
    with pytest.raises(DegenerateInputError):
        stabilizer_escape((1, 1), parse_word("x"), powers=(1,), m_override=1)


@pytest.mark.parametrize("powers", [(), (-1,), (0,), (2, -1)])
def test_distinctness_witness_rejects_powers_below_one(powers):
    # h^p for p <= 0 is the empty word, which would report values of 0
    with pytest.raises(DegenerateInputError):
        distinctness_witness((-1, -1), (1, 1), powers=powers, horizon=4)


@pytest.mark.parametrize("powers", [(), (-2,), (0, -1)])
def test_stabilizer_escape_rejects_negative_powers(powers):
    with pytest.raises(DegenerateInputError):
        stabilizer_escape((1, 1), parse_word("x"), powers=powers, horizon=4)


def test_single_power_scans_are_unchanged_by_the_length_cap():
    rep = distinctness_witness((-1, -1), (1, 1), powers=(1,), horizon=8)
    assert len(rep.h_word) == 10
    assert rep.u_values == {1: [8, 6, 4, 4, 4, 4, 4, 4, 4]}
    assert rep.v_values == {1: [8, 6, 4, 4, 4, 4, 2, 2, 2]}
    assert (rep.u_min_value, rep.v_final_value, rep.v_certified) == (4, 2, False)
    rep = stabilizer_escape((1, 1), parse_word("x"), powers=(1,), horizon=8)
    assert (rep.m, rep.base_values, rep.translated_values, rep.complete) == (-1, {1: 4}, {1: 6}, True)


@pytest.mark.parametrize("scan", [
    lambda: distinctness_witness((-1, -1), (1, 1), powers=(11,), horizon=4),  # 11 * |h| = 110
    lambda: stabilizer_escape((1, 1), parse_word("x"), powers=(13,), horizon=4),  # 1 + 8 * 13
    lambda: stabilizer_escape((1, 1), parse_word("x"), powers=(0,), m_override=-10**12),
])
def test_scans_refuse_words_longer_than_the_audit_cap(scan):
    with pytest.raises(BudgetExceededError, match="<= 100"):
        scan()


def test_perp_pairing_scaled():
    g = standard_group("cartan").evaluate(parse_word("x y x~ y~"))
    # B = (1/2, 1/2), u_perp = (-1, 1): pairing 0
    assert perp_pairing6(g, (-1, 1)) == 0
    assert perp_pairing6(g, (0, 1)) == 3
