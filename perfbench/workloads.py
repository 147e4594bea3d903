"""Seeded query lists for the four benchmark workloads, and the checks that
prove each answer.

Every query is a closure over inputs generated here; the library sees only
those inputs. Each workload draws its query shapes from a fixed pool, and the
seed picks the concrete input: the image of a direction or word under the
reflections x <-> x~, y <-> y~ (isometries of Z^2, H_1 and the Cartan group,
which map digitized rays to digitized rays), the order of a word's letters
where only the letter counts set the cost, the member of a symmetry orbit,
the subfinsler class, the cut of a truncated cache file and the query order.
So the work of a pass is the same for every seed, and the run-to-run spread
measures the machine, not the draw.

Checks run outside the timed region. They compare against the naive oracles
of ``horocalc.reference`` where that is affordable and otherwise test proved
invariants (ball certificates, closed-form walk counts, monotone Busemann
sequences bounded by the gauge).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from horocalc import cartan as ca
from horocalc import classifier as cl
from horocalc import cli
from horocalc import horoboundary as hb
from horocalc import metric as me
from horocalc import reference as ref
from horocalc import subfinsler as sf
from horocalc.groups import AbelianElement, CartanElement, HeisenbergElement, standard_group

WORKLOADS = ("switching", "cartan-scans", "balls", "exact-dp")

GROUPS = {
    "switching": ("z2", "h1"),
    "cartan-scans": ("cartan",),
    "balls": ("z2", "h1", "h2", "cartan"),
    "exact-dp": ("z2", "h1", "h1z", "h2", "cartan"),
}

# Per-module counters each workload must drive; a 0 means a traced binding
# was missed, not that the work vanished.
NONZERO = {
    "switching": (
        "groups.products.abelian", "groups.products.heisenberg", "polytope.gauge_evals",
        "metric.word_length.calls", "metric.word_length.expanded", "metric.word_length.exact",
        "metric.word_length.exceeds_budget", "horoboundary.compare.calls",
        "horoboundary.validate_ray.calls",
    ),
    "cartan-scans": (
        "groups.products.cartan", "polytope.gauge_evals", "metric.word_length.calls",
        "metric.word_length.expanded", "metric.word_length.exact",
        "horoboundary.busemann_eval.calls", "horoboundary.validate_ray.calls",
        "cartan.upper_audit.self_s", "cartan.distinctness.self_s", "cartan.stabilizer.self_s",
    ),
    "balls": (
        "groups.products.abelian", "groups.products.heisenberg", "groups.products.cartan",
        "metric.ball.calls", "metric.ball.entries", "metric.ball.redundant_entries",
        "horoboundary.horofn_window.calls", "subfinsler.compare.self_s",
        "subfinsler.fingerprint.self_s", "cli.main.self_s", "cli.cache.hit", "cli.cache.miss",
        "cli.cache.write_s", "cli.cache.read_s", "cli.cache.bytes_written",
    ),
    "exact-dp": (
        "groups.products.cartan", "cartan.lower_audit.self_s", "cartan.lower_audit.words",
        "classifier.anagram.calls", "classifier.census.calls", "cli.main.self_s",
    ),
}

# Largest radii at which the naive FIFO-BFS oracle is affordable.
NAIVE_RADIUS = {"h1": 10, "cartan": 7, "h2": 4}


@dataclass
class Query:
    """One top-level call into horocalc.

    ``run`` is the timed call; it gets the pass's scratch directory.
    ``summary`` turns its answer into plain JSON data for the answer digest
    and the cross-pass comparison. ``check`` returns None when the answer is
    proved right, else a message. ``prepare`` runs untimed before ``run``.
    A ``probe`` feeds damaged input on purpose: its failures are counted but
    are not answers of the exact calculator, so they stay out of the digest.
    """

    kind: str
    run: Callable[[Path], Any]
    summary: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    prepare: Callable[[Path], None] | None = None
    probe: bool = False


def setup(workload: str) -> dict:
    """Build the workload's groups and fill the lazy gauge caches."""
    groups = {name: standard_group(name) for name in GROUPS[workload]}
    for g in groups.values():
        me.projected_polytope(g)
        me._gauge_ceil_fn(g)
    return groups


def build(workload: str, groups: dict, seed: int, small: bool = False) -> list[Query]:
    """The workload's query list for this seed; ``small`` is a shrunk copy for tests."""
    rng = random.Random(f"{workload}:{seed}")
    oracles = Oracles(groups)
    return _BUILDERS[workload](groups, rng, oracles, small)


# -- plain data and digests ----------------------------------------------


def plain(obj):
    """Deterministic JSON-able form of report objects (sets sorted, Fractions as text)."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((plain(v) for v in obj), key=repr)
    if hasattr(obj, "__dataclass_fields__"):
        return {k: plain(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(plain(obj), sort_keys=True).encode()).hexdigest()


def ball_summary(table) -> dict:
    """Radius, sphere sizes and a digest of the entries, fed to the hash one at a time."""
    h = hashlib.sha256()
    entries = table.entries
    for key in sorted(entries):
        h.update(repr((key, entries[key])).encode())
    return {"radius": table.radius, "size": len(table), "spheres": table.sphere_sizes(),
            "entries": h.hexdigest()}


# -- oracles ----------------------------------------------------------------


def element_of_key(key: tuple):
    tag = key[0]
    if tag == "a":
        return AbelianElement(tuple(key[1:]))
    if tag == "h":
        k = (len(key) - 2) // 2
        return HeisenbergElement(tuple(key[1 : 1 + k]), tuple(key[1 + k : 1 + 2 * k]), key[-1])
    return CartanElement(*key[1:])


def certify_ball(group, entries: dict, radius: int) -> str | None:
    """Prove a table is the exact ball without recomputing it.

    The identity has distance 0, every other entry has a neighbour one
    closer, neighbours of entries inside the radius are present, and
    neighbours never differ by more than one. Then a parent chain bounds
    the true distance from above and induction along a geodesic bounds it
    from below, so the table equals the ball.
    """
    gens = [s for _, s in group.generator_items()]
    if entries.get(group.identity.key()) != 0:
        return "identity missing or not at distance 0"
    for key, d in entries.items():
        if not 0 <= d <= radius:
            return f"distance {d} out of range"
        g = element_of_key(key)
        parent = d == 0
        for s in gens:
            nd = entries.get((g * s).key())
            if nd is None:
                if d < radius:
                    return f"a neighbour of an entry at distance {d} is missing"
            elif nd > d + 1:
                return "adjacent entries differ by more than 1"
            elif nd == d - 1:
                parent = True
        if not parent:
            return f"entry at distance {d} has no neighbour one closer"
    return None


class Oracles:
    """Naive reference data, built lazily and only when a check needs it."""

    def __init__(self, groups: dict):
        self.groups = groups
        self._naive: dict[str, dict] = {}

    def naive(self, name: str, radius: int) -> dict:
        """key -> distance for the naive ball of this radius (radius <= NAIVE_RADIUS)."""
        if name not in self._naive:
            self._naive[name] = ref.naive_ball(self.groups[name], NAIVE_RADIUS[name])
        full = self._naive[name]
        if radius == NAIVE_RADIUS[name]:
            return full
        return {k: d for k, d in full.items() if d <= radius}

    def length(self, name: str, g) -> int | None:
        """Exact length when at most NAIVE_RADIUS, else None (then it is larger)."""
        return self.naive(name, NAIVE_RADIUS[name]).get(g.key())


def _spheres(entries: dict, radius: int) -> list[int]:
    out = [0] * (radius + 1)
    for d in entries.values():
        out[d] += 1
    return out


# -- grid symmetries --------------------------------------------------------

GRID = ("x", "y", "x~", "y~")


def flip_letter(s: str, flip_x: bool, flip_y: bool) -> str:
    """Image of a grid generator under the reflections that invert x or y."""
    if (s[0] == "x" and flip_x) or (s[0] == "y" and flip_y):
        return s[:-1] if s.endswith("~") else s + "~"
    return s


def flip_direction(u, flip_x: bool, flip_y: bool):
    return (-u[0] if flip_x else u[0], -u[1] if flip_y else u[1])


def _flips(rng) -> tuple[bool, bool]:
    return rng.random() < 0.5, rng.random() < 0.5


def flip_word(word, flip_x: bool, flip_y: bool) -> tuple[str, ...]:
    return tuple(flip_letter(s, flip_x, flip_y) for s in word)


def _random_word(rng, length: int, letters=GRID) -> tuple[str, ...]:
    return tuple(rng.choice(letters) for _ in range(length))


def _pool(workload: str) -> random.Random:
    """The fixed generator of a workload's query shapes (independent of the seed)."""
    return random.Random(f"{workload}/pool")


def _shuffled(rng, word) -> tuple[str, ...]:
    out = list(word)
    rng.shuffle(out)
    return tuple(out)


def _ray_elements(group, spec, n):
    out = [group.identity]
    for s in spec.letters(n):
        out.append(out[-1] * group.generator(s))
    return out


# -- switching ----------------------------------------------------------------

# Acceptance criterion 6: 20 eventually periodic rays in Z^2.
Z2_BLOCKS = (
    ("x",), ("x", "x"), ("y",), ("y", "y"), ("x~",), ("y~",),
    ("x", "y"), ("y", "x"), ("x", "x", "y"), ("x", "y", "y"),
    ("x", "y~"), ("y~", "x"), ("x", "x", "y~"),
    ("x~", "y"), ("y", "x~"), ("x~", "y", "y"),
    ("x~", "y~"), ("y~", "x~"), ("x~", "x~", "y~"), ("x~", "y~", "y~"),
)

# Digitized directions with |a|, |b| <= 2: at m_max = 6 n_max the switching
# verdict equals equality of the rays' minimal faces for every pair and
# every n_max in 3..5, under both criteria used below.
H1_DIRECTIONS = tuple(sorted({
    (a // math.gcd(a, b), b // math.gcd(a, b))
    for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)
}))


def _switching(groups, rng, oracles, small):
    z2, h1 = groups["z2"], groups["h1"]
    queries = []

    rays = [hb.PeriodicRay((), b) for b in Z2_BLOCKS]
    faces = [cl.ray_invariants(z2, r).face_key for r in rays]
    pairs = list(itertools.combinations(range(len(rays)), 2))
    for idx, (i, j) in enumerate(pairs[::16] if small else pairs):
        n_max = 4 + idx % 3
        slack = idx // 3 % 2
        expected = "verified" if faces[i] == faces[j] else "not_found"
        queries.append(_compare_query(z2, "z2", rays[i], rays[j], n_max, slack, expected, oracles))

    # One pair per orbit of the reflection group acting on both directions:
    # the orbit fixes the cost, the seed picks the member.
    faces = {d: cl.ray_invariants(h1, hb.DigitizedRay(d)).face_key for d in H1_DIRECTIONS}
    orbits = {}
    for d1, d2 in itertools.combinations(H1_DIRECTIONS, 2):
        images = [(flip_direction(d1, fx, fy), flip_direction(d2, fx, fy))
                  for fx, fy in itertools.product((False, True), repeat=2)]
        orbits.setdefault(min(tuple(sorted(p)) for p in images), sorted(set(images)))
    orbit_list = [orbits[k] for k in sorted(orbits)]
    if small:
        orbit_list = orbit_list[::6]
    for idx, members in enumerate(orbit_list):
        d1, d2 = rng.choice(members)
        expected = "verified" if faces[d1] == faces[d2] else "not_found"
        queries.append(_compare_query(h1, "h1", hb.DigitizedRay(d1), hb.DigitizedRay(d2),
                                      4, idx % 2, expected, oracles))
    rng.shuffle(queries)
    return queries


def _compare_query(group, name, spec1, spec2, n_max, slack, expected, oracles):
    m_max = 6 * n_max

    def run(_):
        if slack:
            return hb.reduced_equiv(group, spec1, spec2, slack, n_max, m_max)
        return hb.same_busemann(group, spec1, spec2, n_max, m_max)

    def summary(res):
        return [res.status, res.witnesses, res.n_checked, res.failing_n]

    def check(res):
        if res.status != expected:
            return f"{name} {spec1} / {spec2}: {res.status}, expected {expected}"
        if expected == "not_found":
            return None
        if [n for n, _ in res.witnesses] != list(range(1, n_max + 1)):
            return "witnesses do not cover every n"
        g1 = _ray_elements(group, spec1, m_max)
        g2 = _ray_elements(group, spec2, m_max)
        for n, m in res.witnesses:
            if not n <= m <= m_max:
                return f"witness m={m} out of range"
            bound = m - n + slack
            for a, b in ((g1[m], g2[n]), (g2[m], g1[n])):
                diff = a.inverse() * b
                if name == "z2":
                    d = sum(abs(c) for c in diff.vec)
                elif bound <= NAIVE_RADIUS["h1"]:
                    d = oracles.length("h1", diff)
                else:
                    continue
                if d is None or d > bound:
                    return f"witness ({n}, {m}) is not within distance {bound}"
        return None

    return Query("compare", run, summary, check)


# -- cartan-scans -----------------------------------------------------------

CARTAN_DIRECTIONS = ((1, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
# Cases whose values at these horizons separate the two directions, or
# show a nonzero escape gap; (1, 0)/(0, 1), or g = x along (1, 1), do not.
DISTINCT_PAIRS = (((-1, -1), (1, 1)), ((1, 2), (2, 1)), ((1, 1), (1, -1)))
STABILIZER_CASES = (((1, 2), "x"), ((2, 1), "y"))
CENTRAL_WORDS = (("x", "y", "x~", "y~"), ("y", "x", "y~", "x~"), ("x", "x", "y", "x~", "x~", "y~"))
SCAN_HORIZON = 10


def _cartan_scans(groups, rng, oracles, small):
    c = groups["cartan"]
    queries = []
    pool = _pool("cartan-scans")
    for k in range(12 if small else 100):
        u = CARTAN_DIRECTIONS[k % len(CARTAN_DIRECTIONS)]
        word = _random_word(pool, 2 + k % 3)
        fx, fy = _flips(rng)
        queries.append(_busemann_query(c, flip_direction(u, fx, fy), flip_word(word, fx, fy),
                                       oracles))
    # The separating element of these reports is not mapped along with the
    # direction, so a reflection would change the work; they stay fixed.
    for u, v in DISTINCT_PAIRS[:1] if small else DISTINCT_PAIRS:
        queries.append(_distinct_query(u, v))
    for u, g in STABILIZER_CASES[:1] if small else STABILIZER_CASES:
        queries.append(_stabilizer_query(u, g))
    for k in range(1 if small else 3):
        u, h = CARTAN_DIRECTIONS[2 * k + 1], CENTRAL_WORDS[k]
        fx, fy = _flips(rng)
        queries.append(_upper_query(c, flip_direction(u, fx, fy), flip_word(h, fx, fy), oracles))
    rng.shuffle(queries)
    return queries


def _check_scan_lengths(group, oracles, hinv, spec, values):
    """Each |h^-1 ray_n| against the naive ball and the abelianized gauge."""
    g = hinv
    letters = spec.letters(len(values) - 1)
    for n, v in enumerate(values):
        if n:
            g = g * group.generator(letters[n - 1])
        length = v + n
        if length < abs(g.x) + abs(g.y):
            return f"length {length} below the gauge at n={n}"
        naive = oracles.length("cartan", g)
        if naive is not None and naive != length:
            return f"length {length} at n={n}, naive BFS says {naive}"
        if naive is None and length <= NAIVE_RADIUS["cartan"]:
            return f"length {length} at n={n} but the element is outside the naive ball"
    return None


def _monotone(values) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


def _busemann_query(group, u, word, oracles):
    spec = hb.DigitizedRay(u)

    def run(_):
        return hb.busemann_eval(group, spec, list(word), SCAN_HORIZON)

    def summary(est):
        return [est.values, est.lower_bound, est.certified, est.horizon, est.stable_for]

    def check(est):
        if est.exhausted or len(est.values) != SCAN_HORIZON + 1:
            return "scan exhausted before the horizon"
        if not _monotone(est.values) or est.value != est.values[-1]:
            return "Busemann values are not monotone"
        if est.value < est.lower_bound or est.certified != (est.value == est.lower_bound):
            return "Busemann value and gauge bound disagree"
        hinv = group.evaluate(word).inverse()
        return _check_scan_lengths(group, oracles, hinv, spec, est.values)

    return Query("busemann_eval", run, summary, check)


def _distinct_query(u, v):
    def run(_):
        return ca.distinctness_witness(u, v, horizon=SCAN_HORIZON)

    def summary(rep):
        return [rep.witness_b, rep.u_values, rep.v_values, rep.u_min_value,
                rep.v_final_value, rep.v_certified]

    def check(rep):
        for vals in list(rep.u_values.values()) + list(rep.v_values.values()):
            if len(vals) != SCAN_HORIZON + 1 or not _monotone(vals):
                return "distinctness scan exhausted or not monotone"
        if rep.u_min_value < 1:
            return f"u-side value {rep.u_min_value} is not positive"
        if rep.v_final_value >= rep.u_min_value:
            return "the two directions were not separated"
        return None

    return Query("distinctness", run, summary, check)


def _stabilizer_query(u, g):
    def run(_):
        return ca.stabilizer_escape(u, (g,), horizon=8)

    def summary(rep):
        return [rep.m, rep.base_values, rep.translated_values, rep.gaps, rep.complete]

    def check(rep):
        if not rep.complete:
            return "stabilizer scan exhausted"
        if any(gap == 0 for k, gap in rep.gaps.items() if k):
            return "no escape gap"
        return None

    return Query("stabilizer", run, summary, check)


def _upper_query(group, u, h_word, oracles):
    n_values = list(range(2, 11))

    def run(_):
        return ca.bound_audit_upper(u, h_word, n_values)

    def summary(rep):
        return [rep.rows, rep.fitted_c2, rep.fitted_c2_improved, rep.perp_pairing, rep.complete]

    def check(rep):
        if not rep.complete or [r["n"] for r in rep.rows] != n_values:
            return "upper audit incomplete"
        h = group.evaluate(h_word)
        prefix = _ray_elements(group, hb.DigitizedRay(u), max(n_values))
        for r in rep.rows:
            if not r["n"] <= r["length"] <= r["n"] + len(h_word):
                return "upper audit length outside [n, n + |h|]"
            naive = oracles.length("cartan", h * prefix[r["n"]])
            if naive is not None and naive != r["length"]:
                return f"upper audit length {r['length']}, naive BFS says {naive}"
        return None

    return Query("upper_audit", run, summary, check)


# -- balls ------------------------------------------------------------------


def _balls(groups, rng, oracles, small):
    queries = []
    # The two large balls are fixed so that memory and the ball kernel show.
    queries.append(_ball_query(groups, "h1", 10 if small else 16, oracles))
    queries.append(_ball_query(groups, "cartan", 7 if small else 10, oracles))
    for name, lo, hi, count in (("h1", 4, 10, 30), ("cartan", 3, 7, 30), ("h2", 2, 4, 15)):
        for k in range(3 if small else count):
            queries.append(_ball_query(groups, name, lo + k % (hi - lo + 1), oracles))
    pool = _pool("balls")
    for k in range(3 if small else 10):
        name = ("z2", "h1")[k % 2]
        word = _random_word(pool, 3 + k % 4)
        fx, fy = _flips(rng)
        queries.append(_window_query(groups, name, flip_word(word, fx, fy), oracles))
    polygon = sf.auto_polygon(groups["h1"])
    classes = (sf.Vertical(), sf.NonVertical(1, Fraction(1, 2)), sf.NonVertical(3, Fraction(1, 3)),
               sf.Mixed(2, Fraction(1, 2)), sf.NonVertical(2, Fraction(0)))
    queries.append(_compare_classes_query(groups["h1"], polygon, rng.choice(classes),
                                          3 if small else 5, oracles))
    for k in range(2 if small else 8):
        queries.append(_fingerprint_query(groups["h1"], polygon, rng.choice(classes),
                                          3 + k % 3, oracles))
    # The two large balls run first, on a fresh heap, so that the peak memory
    # they set does not depend on what the shuffled queries left behind.
    rest = queries[2:]
    rng.shuffle(rest)
    queries[2:] = rest
    # Cache traffic keeps its order: a write, reads that hit, and a read of a
    # copy cut short at a line boundary, as an interrupted write leaves it.
    for name, radius in (("h1", 8), ("cartan", 6)):
        queries.append(_cli_ball_query(groups, name, radius, "miss", oracles))
        for r in (radius, radius - 1, radius - 2):
            queries.append(_cli_ball_query(groups, name, r, "hit", oracles))
        queries.append(_truncated_cache_query(groups, name, radius, rng.random(), oracles))
    return queries


def _ball_query(groups, name, radius, oracles):
    group = groups[name]

    def run(_):
        return me.ball(group, radius)

    def check(table):
        if table.radius != radius:
            return "wrong radius"
        if radius <= NAIVE_RADIUS.get(name, -1):
            if table.entries != oracles.naive(name, radius):
                return f"{name} ball r={radius} differs from the naive BFS"
            return None
        return certify_ball(group, table.entries, radius)

    return Query("ball", run, ball_summary, check)


def _window_query(groups, name, word, oracles):
    group = groups[name]
    radius = 3

    def run(_):
        return hb.horofn_window(group, list(word), radius)

    def summary(res):
        win, _ = res
        return [win.center_norm, sha(sorted(win.values.items())), len(win.values)]

    def check(res):
        win, elems = res
        if win.lipschitz_violations(group, elems):
            return "horofunction window is not 1-Lipschitz"
        x = group.evaluate(word)
        if name == "z2":
            def dist(w):
                return sum(abs(a - b) for a, b in zip(x.vec, w.vec))
        else:
            def dist(w):
                return oracles.length("h1", x.inverse() * w)
        norm = dist(group.identity)
        if win.center_norm != norm:
            return f"|x| = {win.center_norm}, oracle says {norm}"
        for key, w in elems.items():
            if win.values[key] != dist(w) - norm:
                return "window value differs from the oracle distance"
        return None

    return Query("horofn_window", run, summary, check)


def _compare_classes_query(group, polygon, cls, radius, oracles):
    def run(_):
        return sf.discrete_vs_continuous(group, polygon, cls, "central", radius=radius)

    def summary(rep):
        return [rep.n, rep.window_size, rep.max_abs_diff_by_radius]

    def check(rep):
        diffs = rep.max_abs_diff_by_radius
        if diffs != sorted(diffs) or len(diffs) != radius + 1:
            return "window differences are not monotone in the radius"
        if rep.window_size != len(oracles.naive("h1", radius)):
            return "window does not cover the ball"
        return None

    return Query("subfinsler_compare", run, summary, check)


def _fingerprint_query(group, polygon, cls, radius, oracles):
    def run(_):
        return sf.class_fingerprint(group, polygon, cls, radius)

    def summary(fp):
        return sha(fp)

    def check(fp):
        if [k for k, _ in fp] != sorted(oracles.naive("h1", radius)):
            return "fingerprint keys differ from the naive ball"
        return None

    return Query("fingerprint", run, summary, check)


def _cli(argv):
    import contextlib
    import io

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    return code, buf.getvalue()


def _cli_report(out):
    code, text = out
    if code != 0:
        return None
    return json.loads(text)["result"]


def _cache_dir(workdir: Path, name: str, truncated: bool = False) -> Path:
    return workdir / f"cache-{name}{'-cut' if truncated else ''}"


def _cli_ball_query(groups, name, radius, expect, oracles):
    def run(workdir):
        return _cli(["ball", "--group", name, "--radius", str(radius),
                     "--cache", str(_cache_dir(workdir, name))])

    def check(out):
        res = _cli_report(out)
        if res is None:
            return f"horocalc ball exited with {out[0]}"
        if res["cache"] != expect:
            return f"cache state {res['cache']}, expected {expect}"
        return _check_cli_ball(res, name, radius, oracles)

    return Query("cli_ball", run, _cli_ball_summary, check)


def _cli_ball_summary(out):
    res = _cli_report(out)
    return None if res is None else [res["radius"], res["size"], res["sphere_sizes"]]


def _check_cli_ball(res, name, radius, oracles):
    naive = oracles.naive(name, radius)
    if res["size"] != len(naive) or res["sphere_sizes"] != _spheres(naive, radius):
        return f"{name} r={radius}: {res['cache']} with size {res['size']}, true size {len(naive)}"
    return None


def _truncated_cache_query(groups, name, radius, cut, oracles):
    group = groups[name]

    def prepare(workdir):
        src = _cache_dir(workdir, name) / f"{group.group_hash[:16]}_r{radius}.jsonl"
        lines = src.read_text().splitlines(keepends=True)
        keep = 1 + int(cut * (len(lines) - 2))
        dst = _cache_dir(workdir, name, truncated=True)
        dst.mkdir(parents=True, exist_ok=True)
        (dst / src.name).write_text("".join(lines[:keep]))

    def run(workdir):
        return _cli(["ball", "--group", name, "--radius", str(radius),
                     "--cache", str(_cache_dir(workdir, name, truncated=True))])

    def check(out):
        res = _cli_report(out)
        if res is None:
            return f"horocalc ball on a truncated cache exited with {out[0]}"
        return _check_cli_ball(res, name, radius, oracles)

    return Query("cli_ball_truncated", run, _cli_ball_summary, check, prepare=prepare, probe=True)


# -- exact-dp ---------------------------------------------------------------

# (n, delta, direction class) strata with n + delta in 10..12. Detours have
# even extra length, so delta is even.
LOWER_STRATA = (
    (6, 6, (1, 1)), (8, 4, (1, 2)), (8, 4, (2, 3)), (7, 4, (1, 1)), (5, 6, (1, 2)),
    (10, 2, (1, 1)), (10, 2, (1, 2)), (10, 2, (2, 3)), (9, 2, (1, 3)),
    (8, 2, (1, 1)), (6, 4, (2, 3)), (10, 2, (3, 4)),
)
CLI_LOWER = 3  # the last strata go through `horocalc cartan-audit`


def _exact_dp(groups, rng, oracles, small):
    queries = []
    strata = LOWER_STRATA[5:8] if small else LOWER_STRATA
    for idx, (n, delta, base) in enumerate(strata):
        fx, fy = _flips(rng)
        u = flip_direction(base[::-1] if rng.random() < 0.5 else base, fx, fy)
        via_cli = idx >= len(strata) - CLI_LOWER
        queries.append(_lower_query(groups["cartan"], u, n, delta, via_cli))
    # The anagram DP's work depends only on the letter counts, so the pool
    # fixes the counts and the seed orders the letters.
    pool = _pool("exact-dp")
    for k in range(8 if small else 74):
        name = "h2" if k % 4 == 3 else "h1"
        length = 4 + k % 5 if k % 2 == 0 else 12 + k % 5
        word = _shuffled(rng, _random_word(pool, length, groups[name].labels))
        queries.append(_anagram_query(groups[name], word))
    for k in range(1 if small else 4):
        word = _shuffled(rng, _random_word(pool, 5 + k))
        queries.append(_cli_anagram_query(groups["h1"], word))
    for k in range(2 if small else 6):
        fx, fy = _flips(rng)
        if k % 3:
            queries.append(_probe_query(groups["h1"], flip_word(("x", "y"), fx, fy), 12 + 2 * k))
        else:
            queries.append(_probe_query(groups["h2"], ("x1", "y1", "x2", "y2"), 12 + k))
    for name in ("h1", "z2", "h1z"):
        queries.append(_census_query(groups[name], name, via_cli=False))
        queries.append(_census_query(groups[name], name, via_cli=True))
    rng.shuffle(queries)
    return queries


def walk_count(length: int, target) -> int:
    """Words of this length over x, y, x~, y~ that end at target (closed form)."""
    a, b = target[0] + target[1], target[0] - target[1]
    if (length + a) % 2 or abs(a) > length or abs(b) > length:
        return 0
    return math.comb(length, (length + a) // 2) * math.comb(length, (length + b) // 2)


def _lower_query(group, u, n, delta, via_cli):
    if via_cli:
        def run(_):
            return _cli(["cartan-audit", "--audit", "lower", f"--direction={u[0]},{u[1]}",
                         "--n", str(n), "--delta", str(delta)])

        def report(out):
            res = _cli_report(out)
            return None if res is None else res["lower"]
    else:
        def run(_):
            return ca.bound_audit_lower(u, n, delta)

        def report(rep):
            return plain(rep)

    def summary(out):
        rep = report(out)
        return None if rep is None else [rep["reference6"], rep["per_delta"], rep["fitted_m"],
                                         rep["extremal_at_zero"]]

    def check(out):
        rep = report(out)
        if rep is None:
            return f"horocalc cartan-audit exited with {out[0]}"
        target = _ray_elements(group, hb.DigitizedRay(u), n)[-1].endpoint
        buckets = [d for d in range(delta + 1) if walk_count(n + d, target)]
        if [r["delta"] for r in rep["per_delta"]] != buckets:
            return "lower audit skipped a feasible length"
        for r in rep["per_delta"]:
            if r["words"] != walk_count(n + r["delta"], target):
                return f"lower audit counted {r['words']} words at delta {r['delta']}"
        if not rep["extremal_at_zero"]:
            return "the digitized prefix is not extremal at delta 0"
        fitted = Fraction(rep["fitted_m"])
        if fitted < 0 or any(r["max6"] > rep["reference6"] + fitted * 6 * r["delta"] ** 3
                             for r in rep["per_delta"]):
            return "fitted constant does not bound the audit"
        return None

    return Query("lower_audit", run, summary, check)


def _anagram_query(group, word):
    def run(_):
        return cl.anagram_set(group, word)

    def summary(res):
        return [sorted(res.offsets), res.delta]

    def check(res):
        return _check_offsets(group, word, res.offsets, res.delta)

    return Query("anagram", run, summary, check)


def _check_offsets(group, word, offsets, delta):
    if len(word) <= 8:
        brute = ref.brute_force_anagram_offsets(group, word) if word else {0}
        if set(offsets) != brute:
            return f"anagram offsets of {' '.join(word)} differ from brute force"
        return None
    if 0 not in offsets:
        return "the word itself is missing from its anagram set"
    if max(abs(o) for o in offsets) > math.comb(len(word), 2) * delta:
        return "anagram offset larger than the pair count allows"
    return None


def _cli_anagram_query(group, word):
    def run(_):
        return _cli(["anagram", "--group", "h1", "--word", " ".join(word)])

    def summary(out):
        res = _cli_report(out)
        return None if res is None else [res["offsets"], res["delta"]]

    def check(out):
        res = _cli_report(out)
        if res is None:
            return f"horocalc anagram exited with {out[0]}"
        return _check_offsets(group, word, res["offsets"], res["delta"])

    return Query("cli_anagram", run, summary, check)


def _probe_query(group, letters, n):
    def run(_):
        return cl.offset_interval_probe(group, letters, n)

    def summary(rep):
        return [rep.subgroup_generator, rep.prefix_lengths, rep.attained_radius, rep.passed]

    def check(rep):
        if not rep.passed or rep.attained_radius != sorted(rep.attained_radius):
            return "offset interval did not grow with the word"
        return None

    return Query("interval_probe", run, summary, check)


# Acceptance criterion 4: eight orbits for each of these marked groups.
CENSUS_COUNTS = {"h1": 8, "z2": 8, "h1z": 8}


def _census_query(group, name, via_cli):
    if via_cli:
        def run(_):
            return _cli(["census", "--group", name])

        def count(out):
            res = _cli_report(out)
            return None if res is None else (res["orbits"], res["keys"])
    else:
        def run(_):
            return cl.orbit_census(group)

        def count(rep):
            return rep.count, rep.orbit_keys

    def summary(out):
        return plain(count(out))

    def check(out):
        got = count(out)
        if got is None or got[0] != CENSUS_COUNTS[name] or len(got[1]) != got[0]:
            return f"census of {name}: {None if got is None else got[0]} orbits"
        return None

    return Query("cli_census" if via_cli else "census", run, summary, check)


_BUILDERS = {
    "switching": _switching,
    "cartan-scans": _cartan_scans,
    "balls": _balls,
    "exact-dp": _exact_dp,
}
