"""Command-line surface: deterministic JSON reports over the library ops.

Every report embeds the schema version, tool version, group hash, seed and
budget outcomes, so repeated runs with the same configuration are byte
identical. Exit codes: 0 ok, 2 typed domain error, 3 budget, 4 parse.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from . import __version__
from .errors import BudgetExceededError, HorocalcError, ParseError
from .groups import MarkedGroup, load_group, parse_word, standard_group
from .metric import DEFAULT_STATE_CAP, DistanceTable, ball

SCHEMA = 4


def _jsonable(obj):
    """Recursively convert report objects into deterministic JSON values."""
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else obj.numerator
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def _emit(args, result: dict, group: MarkedGroup | None, budgets: dict) -> None:
    doc = {
        "schema": SCHEMA,
        "tool": "horocalc",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "group_hash": group.group_hash if group is not None else None,
        "budgets": _jsonable(budgets),
        "result": _jsonable(result),
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out and args.format == "json":
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_csv(args, rows: list[dict]) -> None:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _jsonable(v) for k, v in row.items()})
    if args.out:
        _write_out(args.out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _write_out(out: str, text: str) -> None:
    """Write a report or export to ``--out`` and name it on stdout."""
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise _unwritable(out, exc) from exc
    sys.stdout.write(json.dumps({"written": out}, sort_keys=True) + "\n")


def _unwritable(path, exc: OSError) -> ParseError:
    return ParseError(f"cannot write {path}: {exc.strerror or exc}")


def _load_group_arg(args, default_preset: str | None = None) -> MarkedGroup:
    if getattr(args, "group", None):
        path = Path(args.group)
        if not path.exists() and os.sep not in str(args.group):
            # allow preset names through --group for convenience
            try:
                return standard_group(str(args.group))
            except ParseError:
                pass
        return load_group(path)
    if default_preset is not None:
        return standard_group(default_preset)
    raise ParseError("this command needs --group (file path or preset name)")


def _parse_ray(text: str):
    from .horoboundary import DigitizedRay, PeriodicRay

    try:
        doc = json.loads(text)
        if "digitized" in doc:
            a, b = doc["digitized"]
            if type(a) is int and type(b) is int:
                return DigitizedRay((a, b))
        elif "periodic" in doc:
            body = doc["periodic"]
            return PeriodicRay(parse_word(body.get("prefix", "")), parse_word(body["block"]))
    except (ValueError, TypeError, AttributeError, KeyError, RecursionError) as exc:
        raise ParseError(f"ray spec {text!r} is malformed: {exc}") from exc
    raise ParseError("ray spec must be a JSON object with a 'digitized' pair of integers "
                     "or a 'periodic' object with a 'block' word")


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return (int(a), int(b))
    except ValueError as exc:
        raise ParseError(f"expected 'a,b' integers, got {text!r}") from exc


def _parse_range(text: str) -> Sequence[int]:
    """``lo..hi`` as a range, held as its two bounds whatever its length, or ``a,b,...``."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return range(int(lo), int(hi) + 1)
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ParseError(f"expected 'lo..hi' or 'a,b,...' integers, got {text!r}") from exc


# -- ball cache ---------------------------------------------------------


def _cache_dir(args) -> Path | None:
    cache = args.cache or os.environ.get("HOROCALC_CACHE")
    if not cache:
        return None
    path = Path(cache)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot use {cache} as the ball cache directory: "
                         f"{exc.strerror or exc}") from exc
    return path


def write_ball_jsonl(table: DistanceTable, path: Path) -> None:
    """Write the ball atomically: a temp file in the same directory, then os.replace.

    The header records the entry count and a SHA-256 digest of the record
    lines, so a truncated or edited file is detected on read. The records
    are formatted as one body string, hashed, and written after the header
    in one pass; each line is the ``json.dumps(..., sort_keys=True)`` of its
    record. A path that cannot be written raises ParseError and leaves no
    temp file.
    """
    entries = table.entries
    tags = {tag: json.dumps(tag) for tag in {key[0] for key in entries}}

    def record(key):
        coords = ", ".join([tags[key[0]], *map(str, key[1:])])
        return f'{{"dist": {entries[key]}, "key": [{coords}]}}\n'

    body = "".join(map(record, sorted(entries)))
    header = {"schema": SCHEMA, "kind": "ball-cache", "group_hash": table.group_hash,
              "radius": table.radius, "count": len(table),
              "digest": hashlib.sha256(body.encode()).hexdigest()}
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n" + body)
        os.replace(tmp, path)
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    finally:  # under a path that is a file, even the unlink of no temp file fails
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def read_ball_jsonl(path: Path, group_hash: str) -> DistanceTable | None:
    """Load a cached ball; None when missing, unreadable, for another group,
    when its entry count or digest does not match its header, or when a
    record's key is not a kind tag followed by ints or its distance is not
    an int in 0..radius (bools are not ints here). The records are parsed
    as one JSON array, which costs less than a parse per line."""
    try:
        with open(path) as fh:
            header = json.loads(fh.readline())
            radius = header["radius"]
            if (header.get("group_hash") != group_hash or header.get("kind") != "ball-cache"
                    or type(radius) is not int):
                return None
            body = fh.read()
        if header.get("digest") != hashlib.sha256(body.encode()).hexdigest():
            return None
        entries = {}
        for rec in json.loads("[" + ",".join(body.splitlines()) + "]"):
            key, d = rec["key"], rec["dist"]
            if (type(d) is not int or not 0 <= d <= radius or type(key) is not list
                    or not key or type(key[0]) is not str
                    or not all(type(c) is int for c in key[1:])):
                return None
            entries[tuple(key)] = d
        if header.get("count") != len(entries):
            return None
        return DistanceTable(group_hash, radius, entries)
    # ValueError covers malformed JSON and text that is not UTF-8, RecursionError deep nesting
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError):
        return None


def cached_ball(group: MarkedGroup, radius: int, cache_dir: Path | None,
                state_cap: int) -> tuple[DistanceTable, str]:
    """Ball with JSONL cache reuse, under ``ball``'s state cap either way.

    Returns (table, state): "hit", "miss", "nocache", or "invalid" when a
    cache file was found but could not be trusted; the ball is then
    recomputed and the cache rewritten. A hit over the cap fails as a miss
    does, so the outcome does not depend on the cache.
    """
    if cache_dir is None or radius < 0:  # ball rejects a negative radius
        return ball(group, radius, state_cap), "nocache"
    state = "miss"
    for have in range(radius, radius + 16):
        path = cache_dir / f"{group.group_hash[:16]}_r{have}.jsonl"
        if path.exists():
            table = read_ball_jsonl(path, group.group_hash)
            if table is not None and table.radius >= radius:
                if table.radius > radius:  # at the radius asked, the reader checked every distance
                    table = DistanceTable(group.group_hash, radius, {
                        k: d for k, d in table.entries.items() if d <= radius})
                if len(table) > state_cap:
                    break  # the ball below raises, at the level where it overflows
                return table, "hit"
            state = "invalid"
    table = ball(group, radius, state_cap)
    write_ball_jsonl(table, cache_dir / f"{group.group_hash[:16]}_r{radius}.jsonl")
    return table, state


# -- subcommands --------------------------------------------------------


def cmd_ball(args):
    group = _load_group_arg(args)
    table, cache_state = cached_ball(group, args.radius, _cache_dir(args), args.state_cap)
    if args.out and args.format == "jsonl":
        write_ball_jsonl(table, Path(args.out))
    result = {
        "radius": table.radius,
        "size": len(table),
        "sphere_sizes": table.sphere_sizes(),
        "cache": cache_state,
        "out": args.out if args.format == "jsonl" else None,
    }
    _emit(args, result, group, {"radius": args.radius, "state_cap": args.state_cap})
    return 0


def cmd_dist(args):
    from .metric import word_length

    group = _load_group_arg(args)
    word = parse_word(args.word)
    g = group.evaluate(word)
    budget = args.budget if args.budget is not None else len(word)
    res = word_length(group, g, budget=budget, state_cap=args.state_cap)
    result = {
        "word": list(word),
        "length": res.length,
        "status": res.status,
        "certified": res.status == "exact",
        "lower_bound": res.lower_bound,
    }
    _emit(args, result, group, {"budget": budget, "state_cap": args.state_cap,
                                "outcome": res.status})
    return 0


def cmd_geodesic_check(args):
    from .metric import geodesic_verdict, projected_polytope

    group = _load_group_arg(args)
    word = parse_word(args.word)
    verdict, face = geodesic_verdict(group, word, state_cap=args.state_cap)
    result = {
        "word": list(word),
        "geodesic": verdict != "not_geodesic",
        "face_certified": verdict == "certified",
        "face": face and [list(p) for p in face.member_key(projected_polytope(group))],
    }
    _emit(args, result, group, {"state_cap": args.state_cap})
    return 0


def cmd_ray(args):
    from .horoboundary import _ray_plan, validate_ray

    group = _load_group_arg(args)
    spec = _parse_ray(args.ray)
    status = validate_ray(group, spec, args.length, state_cap=args.state_cap)
    plan = _ray_plan(group, spec)  # holds the prefix validate_ray checked
    result = {
        "spec": spec.describe(),
        "letters": list(plan.letters[:args.length]),
        "abelianization": list(plan.sums[args.length]),
        "geodesic_validation": status,
    }
    _emit(args, result, group, {"length": args.length})
    return 0


def cmd_busemann(args):
    from .horoboundary import busemann_eval

    group = _load_group_arg(args)
    spec = _parse_ray(args.ray)
    word = parse_word(args.element)
    est = busemann_eval(group, spec, word, horizon=args.horizon, state_cap=args.state_cap)
    result = {
        "spec": spec.describe(),
        "element": list(word),
        "estimate": est,
    }
    _emit(args, result, group, {"horizon": args.horizon, "state_cap": args.state_cap,
                                "exhausted": est.exhausted})
    return 0


def cmd_compare_rays(args):
    from .horoboundary import reduced_equiv, same_busemann

    if args.criterion == "switch1b" and args.slack is not None:
        raise ParseError("--slack applies to --criterion switch2b only")
    slack = args.slack or 0
    group = _load_group_arg(args)
    s1 = _parse_ray(args.ray1)
    s2 = _parse_ray(args.ray2)
    if args.criterion == "switch1b":
        res = same_busemann(group, s1, s2, args.n_max, args.m_max, state_cap=args.state_cap)
    else:
        res = reduced_equiv(group, s1, s2, slack, args.n_max, args.m_max,
                            state_cap=args.state_cap)
    result = {"ray1": s1.describe(), "ray2": s2.describe(), "criterion": args.criterion,
              "comparison": res, "verified_up_to": [args.n_max, args.m_max]}
    _emit(args, result, group, {"n_max": args.n_max, "m_max": args.m_max,
                                "slack": slack, "outcome": res.status})
    return 0


def cmd_census(args):
    from .classifier import orbit_census

    group = _load_group_arg(args)
    rep = orbit_census(group)
    result = {"mode": rep.mode, "orbits": rep.count,
              "keys": [_census_key_doc(k) for k in rep.orbit_keys]}
    _emit(args, result, group, {})
    return 0


def _census_key_doc(key):
    if key[0] == "noncomm":
        return {"type": "noncommutative", "face": [list(p) for p in key[1]]}
    return {"type": "commutative", "face": [list(p) for p in key[1]],
            "full_face": [list(p) for p in key[2]] if key[2] != ("improper",) else "improper"}


def cmd_anagram(args):
    from .classifier import anagram_set

    group = _load_group_arg(args)
    word = parse_word(args.word)
    res = anagram_set(group, word, max_states=args.max_states)
    result = {"word": list(word), "offsets": sorted(res.offsets), "delta": res.delta}
    _emit(args, result, group, {"max_states": args.max_states})
    return 0


AUDIT_OPTIONS = {  # each audit's own options and their defaults
    "lower": {"n": 6, "delta": 2},
    "upper": {"element": "x y x~ y~", "n_range": "2..8", "state_cap": DEFAULT_STATE_CAP},
}


def cmd_cartan_audit(args):
    from .cartan import bound_audit_lower, bound_audit_upper

    for audit, defaults in AUDIT_OPTIONS.items():
        for name, default in defaults.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif audit != args.audit:
                raise ParseError(f"--{name.replace('_', '-')} applies to --audit {audit} only")
    group = standard_group("cartan")
    u = _parse_pair(args.direction)
    if args.audit == "lower":
        rep = bound_audit_lower(u, args.n, args.delta)
        if args.format == "csv":
            rows = [
                {
                    "delta": r["delta"],
                    "length": r["length"],
                    "words": r["words"],
                    "max_pairing": Fraction(r["max6"], 6),
                    "reference": Fraction(rep.reference6, 6),
                }
                for r in rep.per_delta
            ]
            _emit_csv(args, rows)
            return 0
        _emit(args, {"lower": rep}, group, {"n": args.n, "delta": args.delta})
        return 0
    rep = bound_audit_upper(u, parse_word(args.element), _parse_range(args.n_range),
                            state_cap=args.state_cap)
    if args.format == "csv":
        _emit_csv(args, rep.rows)
        return 0
    _emit(args, {"upper": rep}, group, {"n_range": args.n_range,
                                        "state_cap": args.state_cap,
                                        "complete": rep.complete})
    return 0


def cmd_distinctness(args):
    from .cartan import distinctness_witness

    group = standard_group("cartan")
    rep = distinctness_witness(_parse_pair(args.u), _parse_pair(args.v),
                               powers=_parse_range(args.powers), horizon=args.horizon,
                               state_cap=args.state_cap)
    _emit(args, {"distinctness": rep}, group,
          {"horizon": args.horizon, "state_cap": args.state_cap})
    return 0


def cmd_stabilizer(args):
    from .cartan import stabilizer_escape

    group = standard_group("cartan")
    rep = stabilizer_escape(_parse_pair(args.u), parse_word(args.element),
                            powers=_parse_range(args.powers), horizon=args.horizon,
                            state_cap=args.state_cap, m_override=args.m)
    _emit(args, {"stabilizer_escape": rep}, group,
          {"horizon": args.horizon, "state_cap": args.state_cap,
           "complete": rep.complete})
    return 0


def cmd_subfinsler(args):
    from .subfinsler import (
        SymmetricPolygon,
        auto_polygon,
        check_class,
        class_fingerprint,
        discrete_vs_continuous,
    )

    group = _load_group_arg(args, default_preset="h1")
    if args.polygon == "auto":
        polygon = auto_polygon(group)
    else:
        polygon = SymmetricPolygon(_parse_polygon(args.polygon))
    cls = _parse_class(args.cls)
    check_class(polygon, cls)
    result = {"polygon": [list(v) for v in polygon.vertices], "class": args.cls}
    if args.fingerprint is not None:
        fp = class_fingerprint(group, polygon, cls, args.fingerprint)
        result["fingerprint"] = [[list(k), v] for k, v in fp]
    if args.compare:
        rep = discrete_vs_continuous(group, polygon, cls, sequence=args.compare,
                                     n=args.n, radius=args.window)
        result["comparison"] = rep
    _emit(args, result, group, {"window": args.window, "n": args.n})
    return 0


def _parse_polygon(text: str) -> list[tuple[Fraction, Fraction]]:
    """A JSON list of [x, y] vertices with integer, decimal or "p/q" coordinates."""
    try:
        doc = json.loads(text)
        if isinstance(doc, list) and all(isinstance(p, list) for p in doc):
            return [(Fraction(x), Fraction(y)) for x, y in doc]
    except (ValueError, TypeError, OverflowError, ZeroDivisionError, RecursionError) as exc:
        raise ParseError(f"polygon {text!r} is malformed: {exc}") from exc
    raise ParseError("polygon must be a JSON list of [x, y] vertices")


def _parse_class(text: str):
    from .subfinsler import Mixed, NonVertical, Vertical

    kind, _, rest = text.partition(":")
    parts = rest.split(",")
    try:
        if text == "vertical":
            return Vertical()
        if kind == "nonvertical" and len(parts) == 2:
            return NonVertical(int(parts[0]), Fraction(parts[1]))
        if kind == "mixed" and 2 <= len(parts) <= 4:
            orientation = parts[2] if len(parts) > 2 else "le"
            variant = int(parts[3]) if len(parts) > 3 else 1
            return Mixed(int(parts[0]), Fraction(parts[1]), orientation, variant)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(
        f"class must be vertical, nonvertical:k,r or mixed:i,r[,le|ge][,1|2], got {text!r}"
    )


def cmd_selftest(args):
    import random

    from .cartan import detour_pairings
    from .classifier import anagram_set
    from .groups import cartan_word_element, marked_heisenberg
    from .horoboundary import DigitizedRay, PeriodicRay, reduced_equiv
    from .metric import _bidirectional_search, _h1_length, gauge_lower_bound, geodesic_verdict
    from .metric import ball as _ball, length_within, word_length
    from .reference import (
        brute_force_anagram_offsets,
        brute_force_detour_pairings,
        naive_ball,
        naive_compare_rays,
        naive_horofn_eval,
    )
    from .subfinsler import (
        Mixed,
        NonVertical,
        SymmetricPolygon,
        Vertical,
        auto_polygon,
        horofn_eval,
    )
    from .winding import cartan_path_oracle

    rng = random.Random(args.seed)
    checks = {}

    h1 = standard_group("h1")
    h2 = standard_group("h2")
    ca = standard_group("cartan")

    ok = True
    for G in (h1, ca):
        for _ in range(300):
            w = [rng.choice(G.labels) for _ in range(rng.randint(0, 8))]
            g = G.evaluate(w)
            h = G.evaluate([rng.choice(G.labels) for _ in range(rng.randint(0, 8))])
            k = G.evaluate([rng.choice(G.labels) for _ in range(rng.randint(0, 8))])
            ok &= (g * h) * k == g * (h * k)
            ok &= (g * g.inverse()).is_identity()
    checks["group_laws"] = ok

    ok = True
    for _ in range(100):
        w = [rng.choice(ca.labels) for _ in range(rng.randint(0, 10))]
        g = cartan_word_element(w)
        e, a, b = cartan_path_oracle(w)
        ok &= g.endpoint == e and g.area == a and g.barycenter == b
    checks["cartan_winding_oracle"] = ok

    checks["ball_vs_naive_h1"] = _ball(h1, 4).entries == naive_ball(h1, 4)
    checks["ball_vs_naive_h2"] = _ball(h2, 3).entries == naive_ball(h2, 3)
    checks["ball_vs_naive_cartan"] = _ball(ca, 3).entries == naive_ball(ca, 3)
    _ball(h1, 5)  # the r3 ball below is then a prefix of the store
    first = _ball(h1, 3).entries
    checks["ball_prefix_vs_naive"] = first == naive_ball(h1, 3)
    first.clear()  # the caller's own copy: the kept r3 ball must not see this
    checks["ball_kept_prefix_vs_naive"] = _ball(h1, 3).entries == naive_ball(h1, 3)

    ok = True
    for G in (h1, standard_group("h1z"), h2):
        for _ in range(10):
            w = tuple(rng.choice(G.labels) for _ in range(rng.randint(0, 7)))
            ok &= anagram_set(G, w).offsets == brute_force_anagram_offsets(G, w)
    checks["anagram_dp_vs_bruteforce"] = ok

    ok = True
    for _ in range(6):
        target = (rng.randint(-3, 3), rng.randint(-3, 3))
        u_perp = (rng.randint(-3, 3), rng.randint(-3, 3))
        case = (target, u_perp, rng.randint(0, 7), 7)
        ok &= detour_pairings(*case) == brute_force_detour_pairings(*case)
    checks["lower_audit_dp_vs_dfs"] = ok

    ok = True
    custom_h1 = marked_heisenberg(1, {"x": [1, 0, 1], "y": [1, 1, 0]})
    # with z^2 central, a layer's sets have holes that later layers fill
    z2_h1 = marked_heisenberg(1, {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 2]})
    for G, r in ((h1, 8), (standard_group("h1z"), 6), (h2, 4), (custom_h1, 6),
                 (z2_h1, 6)):
        for key, d in naive_ball(G, r).items():
            g = G.element(key)
            for budget in (d - 1, d, d + 2) if d else (0, 2):
                res = word_length(G, g, budget)
                expected = ("exact", d) if d <= budget else ("exceeds_budget", None)
                ok &= (res.status, res.length) == expected
    checks["central_table_vs_ball"] = ok
    checks["h1_length_vs_ball"] = all(_h1_length(*key[1:]) == d
                                      for key, d in naive_ball(h1, 8).items())

    ok = True
    # the plain search, which the central table answers before on H_k markings; at budget d
    # the last level, which only tests for a meeting, answers, and at d - 1 it finds none
    for G, r in ((standard_group("z2"), 6), (h1, 5), (standard_group("h1z"), 4)):
        for key, d in naive_ball(G, r).items():
            if d:
                lower = gauge_lower_bound(G, G.element(key))
                for budget in (d - 1, d, d + 1, d + 2):
                    res = _bidirectional_search(G, key, lower, budget, DEFAULT_STATE_CAP)
                    expected = ("exact", d) if d <= budget else ("exceeds_budget", None)
                    ok &= (res.status, res.length) == expected
    checks["bidirectional_search_vs_ball"] = ok

    ok = True
    # radius 9 passes the identity ball's radius 8: lookups and searches seeded by it both answer
    cartan_sample = rng.sample(list(naive_ball(ca, 9).items()), 2000)
    for key, d in cartan_sample:
        g = ca.element(key)
        for budget in (d - 1, d, d + 1, d + 2) if d else (0, 2):
            res = word_length(ca, g, budget)
            expected = ("exact", d) if d <= budget else ("exceeds_budget", None)
            ok &= (res.status, res.length) == expected
    checks["cartan_ball_search_vs_ball"] = ok

    ok = True
    # Cartan lengths have the parity of x + y; h1z has none, so its searches stop one short
    h1z = standard_group("h1z")
    for G, sample in ((ca, cartan_sample[:500]), (h1z, naive_ball(h1z, 5).items())):
        for key, d in sample:
            g = G.element(key)
            for upper in (d, d + 1, d + 2):
                res = length_within(G, g, upper)
                ok &= (res.status, res.length) == ("exact", d)
    checks["length_within_vs_ball"] = ok

    ok = True
    # every class on the auto square and a rational hexagon, integer rows against Fractions
    hexagon = SymmetricPolygon([(1, 0), ("2/3", 1), ("-1/2", "3/4"), (-1, 0), ("-2/3", -1),
                                ("1/2", "-3/4")])
    points = [(x, y) for x in range(-5, 6) for y in range(-5, 6)]
    for poly in (auto_polygon(h1), hexagon):
        classes, r = [Vertical()], Fraction(1, 3)
        for k in range(1, len(poly) + 1):
            classes.append(NonVertical(k, r))
            classes += [Mixed(k, r, o, v) for o in ("le", "ge") for v in (1, 2)]
        ok &= all(horofn_eval(poly, cls, p) == naive_horofn_eval(poly, cls, p)
                  for cls in classes for p in points)
    checks["horofn_eval_vs_naive"] = ok

    ok = True
    # the switching walk against the plain scan of every (n, m), on rays in one quadrant
    for G in (standard_group("z2"), h1):
        for _ in range(4):
            sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
            if G.kind == "abelian":
                quadrant = ("x" if sx > 0 else "x~", "y" if sy > 0 else "y~")
                s1, s2 = (PeriodicRay(tuple(rng.choices(quadrant, k=rng.randint(0, 2))),
                                      tuple(rng.choices(quadrant, k=rng.randint(1, 3))))
                          for _ in range(2))
            else:
                s1, s2 = (DigitizedRay((sx * rng.randint(1, 3), sy * rng.randint(0, 3)))
                          for _ in range(2))
            n_max = rng.randint(1, 3)
            m_max = rng.randint(n_max, 8)
            for slack in (0, 1):
                ok &= (reduced_equiv(G, s1, s2, slack, n_max, m_max)
                       == naive_compare_rays(G, s1, s2, n_max, m_max, slack))
    # pairs whose walks both prove steps by the gauge and search others
    for G, d1, d2, slacks in ((h1, (2, 1), (-1, 2), (0, 1)), (ca, (2, 1), (1, 1), (1,))):
        s1, s2 = DigitizedRay(d1), DigitizedRay(d2)
        for slack in slacks:
            ok &= (reduced_equiv(G, s1, s2, slack, 2, 6)
                   == naive_compare_rays(G, s1, s2, 2, 6, slack))
    checks["compare_rays_vs_naive"] = ok

    ok = True
    # a word is geodesic iff its naive length is its own, and a certified word is geodesic
    for G in (standard_group("z2"), h1, ca):
        dist = naive_ball(G, 6)
        for _ in range(100):
            w = [rng.choice(G.labels) for _ in range(rng.randint(0, 6))]
            geodesic = dist[G.evaluate(w).key()] == len(w)
            ok &= (geodesic_verdict(G, w)[0] != "not_geodesic") == geodesic
    checks["geodesic_verdict_vs_naive"] = ok

    passed = all(checks.values())
    _emit(args, {"passed": passed, "checks": checks}, None, {})
    return 0 if passed else 2


# -- parser -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ParseError, so they exit 4 like other parse errors."""

    def error(self, message):
        raise ParseError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        if any(isinstance(value, list) for value in vars(parsed).values()):
            raise ParseError("'--' is not an option value")  # argparse reads --opt=-- as []
        return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="horocalc",
        description="exact horofunction and Busemann computations on nilpotent Cayley graphs",
    )
    parser.add_argument("--version", action="version", version=f"horocalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True, state_cap=True):
        """The options a command reads: --out and --seed always, the others on request."""
        if group:
            p.add_argument("--group", help="group JSON file or preset name")
        p.add_argument("--out", help="write the report/export to this path")
        p.add_argument("--seed", type=int, default=0)
        if state_cap:
            p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
        p.set_defaults(format="json")

    p = sub.add_parser("ball", help="exact metric ball")
    common(p)
    p.add_argument("--cache", help="ball cache directory (env HOROCALC_CACHE)")
    p.add_argument("--format", default="json", choices=["json", "jsonl"])
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("dist", help="exact word length of a word's value")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("geodesic-check", help="is the word geodesic?")
    common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_geodesic_check)

    p = sub.add_parser("ray", help="materialize a ray prefix")
    common(p)
    p.add_argument("--ray", required=True)
    p.add_argument("--length", type=int, default=20)
    p.set_defaults(func=cmd_ray)

    p = sub.add_parser("busemann", help="monotone Busemann estimate")
    common(p)
    p.add_argument("--ray", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--horizon", type=int, default=20)
    p.set_defaults(func=cmd_busemann)

    p = sub.add_parser("compare-rays", help="switching criteria for two rays")
    common(p)
    p.add_argument("--ray1", required=True)
    p.add_argument("--ray2", required=True)
    p.add_argument("--criterion", default="switch1b", choices=["switch1b", "switch2b"])
    p.add_argument("--slack", type=int, default=None, help="switch2b only (default 0)")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--m-max", type=int, default=30)
    p.set_defaults(func=cmd_compare_rays)

    p = sub.add_parser("census", help="orbit census over letter subsets")
    common(p, state_cap=False)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("anagram", help="anagram offset set of a word")
    common(p, state_cap=False)
    p.add_argument("--word", required=True)
    p.add_argument("--max-states", type=int, default=500_000)
    p.set_defaults(func=cmd_anagram)

    p = sub.add_parser("cartan-audit", help="cube-root bound audits")
    common(p, group=False, state_cap=False)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--audit", default="lower", choices=["lower", "upper"])
    p.add_argument("--direction", required=True, help="a,b")
    p.add_argument("--n", type=int, help="ray prefix length (lower audit, default 6)")
    p.add_argument("--delta", type=int, help="extra length (lower audit, default 2)")
    p.add_argument("--element", help="central word (upper audit, default 'x y x~ y~')")
    p.add_argument("--n-range", help="ray lengths (upper audit, default 2..8)")
    p.add_argument("--state-cap", type=int, help="upper audit only")
    p.set_defaults(func=cmd_cartan_audit)

    p = sub.add_parser("distinctness", help="separating central element evidence")
    common(p, group=False)
    p.add_argument("--u", required=True, help="a,b")
    p.add_argument("--v", required=True, help="a,b")
    p.add_argument("--powers", default="1")
    p.add_argument("--horizon", type=int, default=16)
    p.set_defaults(func=cmd_distinctness)

    p = sub.add_parser("stabilizer", help="stabilizer escape evidence")
    common(p, group=False)
    p.add_argument("--u", required=True, help="a,b")
    p.add_argument("--element", required=True, help="word for g")
    p.add_argument("--powers", default="1")
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_stabilizer)

    p = sub.add_parser("subfinsler", help="continuous boundary classes vs windows")
    common(p, state_cap=False)
    p.add_argument("--polygon", default="auto")
    p.add_argument("--class", dest="cls", default="vertical")
    p.add_argument("--compare", default=None,
                   help="central | vertex:LABEL | edge:L1,L2,p,q")
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--fingerprint", type=int, default=None)
    p.set_defaults(func=cmd_subfinsler)

    p = sub.add_parser("selftest", help="oracle-equivalence suites")
    common(p, group=False, state_cap=False)
    p.set_defaults(func=cmd_selftest)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing reads it and never changes it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"horocalc: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"horocalc: parse error: {exc}", file=sys.stderr)
        return 4
    except HorocalcError as exc:
        print(f"horocalc: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
