"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Constants marked as frozen were measured in a pilot run of this
suite and are regression values, not asserted theory.
"""

import itertools
import random
import time
from fractions import Fraction

from horocalc.cartan import bound_audit_lower, distinctness_witness
from horocalc.classifier import anagram_set, offset_interval_probe, orbit_census
from horocalc.groups import parse_word, standard_group
from horocalc.horoboundary import (
    DigitizedRay,
    PeriodicRay,
    busemann_eval,
    horofn_window,
    same_busemann,
)
from horocalc.metric import ball, word_length
from horocalc.reference import brute_force_anagram_offsets, naive_ball
from horocalc.subfinsler import (
    NonVertical,
    Vertical,
    auto_polygon,
    class_fingerprint,
    discrete_vs_continuous,
    horofn_eval,
)
from horocalc.winding import cartan_path_oracle

# pilot-frozen regression constants
FROZEN_CENTRAL_DIFF_AT_R8 = 8  # central z^16 window vs Vertical, diamond
FROZEN_DISTINCTNESS_C0 = 0  # v-side value at horizon 16 (certified exact)

Z2 = standard_group("z2")
H1 = standard_group("h1")
H1Z = standard_group("h1z")
CARTAN = standard_group("cartan")


def _report(num, text):
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def _element_pool(group, rng, size=300, max_len=8):
    pool = [group.identity]
    for _ in range(size):
        word = [rng.choice(group.labels) for _ in range(rng.randint(0, max_len))]
        pool.append(group.evaluate(word))
    return pool


def test_criterion_1_group_laws_and_oracle():
    start = time.time()
    rng = random.Random(101)
    for G in (Z2, H1, CARTAN):
        pool = _element_pool(G, rng)
        e = G.identity
        for _ in range(10_000):
            g, h, k = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            assert (g * h) * k == g * (h * k)
        for _ in range(2_000):
            g = rng.choice(pool)
            assert (g * g.inverse()).is_identity()
            assert g * e == g and e * g == g
    mismatches = 0
    for _ in range(1_000):
        w = tuple(rng.choice(CARTAN.labels) for _ in range(rng.randint(0, 12)))
        g = CARTAN.evaluate(w)
        end, area, bary = cartan_path_oracle(w)
        if (g.endpoint, g.area, g.barycenter) != (end, area, bary):
            mismatches += 1
    assert mismatches == 0
    elapsed = time.time() - start
    assert elapsed < 30
    _report(1, f"group laws on 3x10^4 triples, oracle on 10^3 words ({elapsed:.1f}s)")


def test_criterion_2_concatenation_spot_value():
    g = CARTAN.evaluate(parse_word("x y"))
    assert g.area == Fraction(1, 2)
    assert g.barycenter == (Fraction(1, 3), Fraction(1, 6))
    _report(2, "mul(x, y) has area 1/2 and barycenter (1/3, 1/6) exactly")


def test_criterion_3_metric_engine_vs_reference():
    start = time.time()
    assert ball(H1, 10).entries == naive_ball(H1, 10)
    assert ball(CARTAN, 7).entries == naive_ball(CARTAN, 7)
    for G in (H1, CARTAN):
        comm = G.evaluate(parse_word("x y x~ y~"))
        assert word_length(G, comm, budget=8).length == 4
    elapsed = time.time() - start
    assert elapsed < 300
    _report(3, f"optimized balls equal naive BFS (H1 r10, Cartan r7); |[x,y]|=4 ({elapsed:.1f}s)")


def test_criterion_4_orbit_census():
    start = time.time()
    assert orbit_census(H1).count == 8
    assert orbit_census(Z2).count == 8
    assert orbit_census(H1Z).count == 8
    elapsed = time.time() - start
    assert elapsed < 1
    _report(4, f"census: H1 std 8, Z^2 std 8, H1 with z 8 ({elapsed:.2f}s)")


def test_criterion_5_switching_matches_orbit_classification():
    start = time.time()
    res = same_busemann(H1, DigitizedRay((1, 2)), DigitizedRay((2, 1)), 8, 40)
    assert res.status == "verified"
    assert [n for n, _ in res.witnesses] == list(range(1, 9))
    assert all(m <= 40 for _, m in res.witnesses)
    elapsed = time.time() - start
    assert elapsed < 600
    _report(5, f"switching verified for digitized (1,2)/(2,1), n<=8, m<=40 ({elapsed:.1f}s)")


def _abelian_ray_family():
    blocks = [
        ("x",), ("x", "x"), ("y",), ("y", "y"), ("x~",), ("y~",),
        ("x", "y"), ("y", "x"), ("x", "x", "y"), ("x", "y", "y"),
        ("x", "y~"), ("y~", "x"), ("x", "x", "y~"),
        ("x~", "y"), ("y", "x~"), ("x~", "y", "y"),
        ("x~", "y~"), ("y~", "x~"), ("x~", "x~", "y~"), ("x~", "y~", "y~"),
    ]
    return [PeriodicRay((), b) for b in blocks]


def test_criterion_6_abelian_consistency():
    start = time.time()
    from horocalc.classifier import ray_invariants

    rays = _abelian_ray_family()
    assert len(rays) == 20
    faces = [ray_invariants(Z2, spec).face_key for spec in rays]
    checked = same = 0
    for i, j in itertools.combinations(range(len(rays)), 2):
        verdict = same_busemann(Z2, rays[i], rays[j], 10, 60).status
        expected = "verified" if faces[i] == faces[j] else "not_found"
        assert verdict == expected, (rays[i], rays[j], verdict, expected)
        checked += 1
        same += faces[i] == faces[j]
    elapsed = time.time() - start
    _report(6, f"{checked} ray pairs: switching verdicts match face equality "
               f"({same} same-face) ({elapsed:.1f}s)")


def _contains_stst(word, group):
    gens = {s: group.generator(s) for s in set(word)}
    from horocalc.groups import commutator_z_exponent

    for s in gens:
        for t in gens:
            if s == t or commutator_z_exponent(group, gens[s], gens[t]) == 0:
                continue
            # subsequence s, t, s, t
            state = 0
            pattern = (s, t, s, t)
            for letter in word:
                if letter == pattern[state]:
                    state += 1
                    if state == 4:
                        return True
    return False


def test_criterion_7_anagram_suite():
    start = time.time()
    rng = random.Random(707)
    applicable = 0
    for _ in range(200):
        w = tuple(rng.choice(H1.labels) for _ in range(rng.randint(0, 8)))
        offsets = anagram_set(H1, w).offsets
        assert offsets == brute_force_anagram_offsets(H1, w)
        if _contains_stst(w, H1):
            applicable += 1
            assert any(o > 0 for o in offsets) and any(o < 0 for o in offsets), w
    assert applicable > 10
    rep = offset_interval_probe(H1, ("x", "y"), 12)
    assert rep.attained_radius[-1] >= 2
    elapsed = time.time() - start
    assert elapsed < 120
    _report(7, f"anagram DP == brute force on 200 words ({applicable} with an "
               f"s,t,s,t pattern, all mixing signs); interval radius >= 2 ({elapsed:.1f}s)")


def test_criterion_8_lower_bound_audit():
    start = time.time()
    fitted = []
    for n in (4, 6, 8):
        rep = bound_audit_lower((1, 1), n, 2)
        assert rep.extremal_at_zero
        assert rep.fitted_m is not None and rep.fitted_m >= 0
        for rec in rep.per_delta:
            assert rec["max6"] <= rep.reference6 + rep.fitted_m * 6 * rec["delta"] ** 3
        fitted.append(rep.fitted_m)
    elapsed = time.time() - start
    assert elapsed < 900
    _report(8, f"exhaustive lower audit u=(1,1), n in 4/6/8, delta<=2: fitted M "
               f"{[str(m) for m in fitted]}, zero violations ({elapsed:.1f}s)")


def test_criterion_9_distinctness_evidence():
    start = time.time()
    rep = distinctness_witness((-1, -1), (1, 1), powers=(1,), horizon=16)
    assert rep.witness_b == (-1, 0)
    # u-side values stay >= 1 at every feasible horizon; v-side certifies C0
    assert min(rep.u_values[1][2:]) >= 1
    assert rep.u_min_value >= 1
    assert rep.v_final_value <= FROZEN_DISTINCTNESS_C0
    assert rep.v_certified
    for vals in (rep.u_values[1], rep.v_values[1]):
        assert vals == sorted(vals, reverse=True)
    elapsed = time.time() - start
    _report(9, f"distinctness: b=(-1,0), u-values >= 1, v-value {rep.v_final_value} "
               f"(certified) at horizon 16 ({elapsed:.1f}s)")


def test_criterion_10_lipschitz_everywhere():
    start = time.time()
    violations = 0
    # horofunction windows
    for G, word, radius in (
        (Z2, ["x"] * 6, 3),
        (H1, ["x", "y", "x", "y"], 3),
        (H1, ["x", "y", "x~", "y~"] * 2, 3),
    ):
        win, elems = horofn_window(G, word, radius)
        violations += len(win.lipschitz_violations(G, elems))
    # Busemann tables at a fixed horizon over a small ball
    for G, spec in ((H1, DigitizedRay((1, 2))), (Z2, PeriodicRay((), ("x", "y")))):
        elems = {G.identity.key(): G.identity}
        frontier = [G.identity]
        for _ in range(2):
            nxt = []
            for g in frontier:
                for _, s in G.generator_items():
                    h = g * s
                    if h.key() not in elems:
                        elems[h.key()] = h
                        nxt.append(h)
            frontier = nxt
        table = {}
        for key, g in elems.items():
            est = busemann_eval(G, spec, g, horizon=8, norm_budget=2)
            assert est.horizon == 8
            table[key] = est.value
        for key, g in elems.items():
            for _, s in G.generator_items():
                k2 = (g * s).key()
                if k2 in table and abs(table[key] - table[k2]) > 1:
                    violations += 1
    assert violations == 0
    elapsed = time.time() - start
    _report(10, f"zero 1-Lipschitz violations across windows and tables ({elapsed:.1f}s)")


def test_criterion_11_subfinsler_comparator():
    start = time.time()
    from horocalc.metric import projected_polytope

    poly = auto_polygon(H1)
    hull = projected_polytope(H1)
    rng = random.Random(1111)
    for _ in range(1_000):
        v = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
             Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        assert horofn_eval(poly, Vertical(), v) == -hull.gauge(v)
    rep = discrete_vs_continuous(H1, poly, Vertical(), "central", radius=8)
    diffs = rep.max_abs_diff_by_radius
    assert diffs == sorted(diffs)
    assert diffs[8] <= FROZEN_CENTRAL_DIFF_AT_R8
    fp0 = class_fingerprint(H1, poly, NonVertical(1, Fraction(0)), 4)
    fp5 = class_fingerprint(H1, poly, NonVertical(1, Fraction(1, 2)), 4)
    assert fp0 != fp5
    elapsed = time.time() - start
    _report(11, f"vertical == -gauge on 10^3 points; central diff {diffs[8]} <= "
                f"{FROZEN_CENTRAL_DIFF_AT_R8} at R=8; fingerprints split ({elapsed:.1f}s)")


def test_criterion_12_determinism(capsys):
    from horocalc.cli import main

    def run(*argv):
        main(list(argv))
        return capsys.readouterr().out

    for argv in (
        ("census", "--group", "h1", "--seed", "42"),
        ("busemann", "--group", "h1", "--ray", '{"digitized":[1,2]}',
         "--element", "x y x~ y~", "--horizon", "6", "--seed", "42"),
        ("selftest", "--seed", "42"),
    ):
        assert run(*argv) == run(*argv)
    with capsys.disabled():
        _report(12, "fixed-seed reports are byte-identical")
